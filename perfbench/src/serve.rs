//! `serve`: `dpvk-server` on loopback TCP with its default configuration,
//! driven by an open-loop generator — one thread, at most `nproc`
//! connections, frames pipelined — over a fixed ladder of offered
//! rates. Requests are `scale` launches spread over several tenants, a
//! seeded mix of small and large buffers, half of them read back; every
//! response is checked.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use dpvk_server::{
    Client, LaunchSpec, Request, Response, Server, ServerConfig, ServerHandle, TenantStats,
    WireBuffer, WireParam,
};
use dpvk_vm::MachineModel;
use dpvk_workloads::Prng;

use crate::kernels::{scale_reference, scale_source};
use crate::openloop::{backlog_growing, due_offset, requests_in, Timeline};
use crate::stats::{mean, median, quantile, summarize};
use crate::{Ctx, SETUP_REPS, TAIL_METRIC, TAIL_Q};

/// Offered rates, requests per second. Constant across commits: the
/// parent meets the latency limit at the lowest and misses it at the
/// highest.
const LADDER: [f64; 5] = [50.0, 100.0, 200.0, 400.0, 800.0];

/// The rung whose latencies are the end-to-end `serve` latencies.
const REFERENCE_RATE: f64 = 100.0;

/// Share of the window spent at the reference rung.
const REFERENCE_SHARE: f64 = 0.4;

/// Share of the window spent in the saturation probe, whose goodput is
/// the workload's throughput metric. The ladder's other rungs split what
/// is left evenly.
const SATURATION_SHARE: f64 = 0.2;

/// The probe's goodput is the median over this many equal slices of its
/// window, so a host slowdown lasting a second or two moves a minority
/// of slices, not the result.
const SLICES: usize = 6;

/// Requests kept outstanding per connection in the saturation probe.
const SATURATION_DEPTH: usize = 4;

/// Latency limit on the tail percentile, from due time, ms.
const LIMIT_MS: f64 = 50.0;

/// Tenants the requests are spread over, so no tenant's token bucket
/// binds.
const TENANTS: usize = 8;

/// Distinct pre-encoded requests; the schedule draws from them.
const POOL: usize = 64;

const HEAP_BYTES: usize = 64 << 20;

/// How long a rung may take to drain after its last due time before
/// its unanswered requests count as missing.
const DRAIN: Duration = Duration::from_secs(3);

fn kernel_name(tenant: usize) -> String {
    format!("scale_t{tenant}")
}

fn tenant_name(tenant: usize) -> String {
    format!("tenant-{tenant}")
}

/// One pooled request: its frame, and the bytes expected back.
struct Pooled {
    spec: LaunchSpec,
    frame: Vec<u8>,
    expected: Option<Vec<u8>>,
}

/// The pool's sizes and read-back flags are fixed: the seed draws only
/// the data, so every seed offers the same work.
fn make_pool(rng: &mut Prng) -> Vec<Pooled> {
    (0..POOL)
        .map(|i| {
            let tenant = (i / 4) % TENANTS;
            // Three small (1–3 Ki words) to one large (32–62 Ki words), so
            // the median sits among small requests and the tail among
            // large ones rather than on the boundary between them.
            let n = if i % 4 == 3 { 1024 * (32 + 2 * (i / 4)) } else { 1024 * (1 + i % 4) };
            let read_back = (i / 4) % 2 == 0;
            let data: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
            let spec = LaunchSpec {
                tenant: tenant_name(tenant),
                kernel: kernel_name(tenant),
                grid: [(n as u32).div_ceil(64), 1, 1],
                block: [64, 1, 1],
                deadline_ms: 0,
                buffers: vec![WireBuffer {
                    bytes: data.iter().flat_map(|v| v.to_le_bytes()).collect(),
                    read_back,
                }],
                params: vec![WireParam::Buffer(0), WireParam::U32(n as u32)],
            };
            let frame = frame_of(&Request::Launch(spec.clone()).encode());
            let expected = read_back
                .then(|| scale_reference(&data).iter().flat_map(|v| v.to_le_bytes()).collect());
            Pooled { spec, frame, expected }
        })
        .collect()
}

fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(payload.len() + 4);
    dpvk_server::protocol::write_frame(&mut f, payload).expect("pooled frames are under the cap");
    f
}

/// Bind, start, register every tenant's kernel and warm each with
/// launches of its first pooled requests. Returns the handle and the
/// server's admission capacity (twice its device's pool by default).
fn start_server(
    pool: &[Pooled],
    cache_dir: &std::path::Path,
) -> Result<(ServerHandle, usize), String> {
    // The server's device takes its persistent-cache directory from the
    // environment. Only this thread runs here: the previous server (if
    // any) has been shut down and joined.
    std::env::set_var("DPVK_CACHE_DIR", cache_dir);
    let server = Server::bind(MachineModel::sandybridge_sse(), HEAP_BYTES, ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let capacity = server.admission_capacity();
    let handle = server.start().map_err(|e| format!("start: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for t in 0..TENANTS {
        match client.register(&tenant_name(t), &scale_source(&kernel_name(t))) {
            Ok(Response::Registered) => {}
            other => return Err(format!("register tenant {t}: {other:?}")),
        }
    }
    for p in pool.iter().take(2 * TENANTS) {
        let resp = client.launch(p.spec.clone()).map_err(|e| format!("warm-up: {e}"))?;
        check_response(&resp, p.expected.as_deref()).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((handle, capacity))
}

/// `Ok(true)` for a correct launch, `Ok(false)` for a shed, `Err` for
/// a typed error or a wrong output.
fn check_response(resp: &Response, expected: Option<&[u8]>) -> Result<bool, String> {
    match resp {
        Response::Launched { outputs, .. } => match (expected, outputs.as_slice()) {
            (Some(want), [got]) if got.as_slice() == want => Ok(true),
            (None, []) => Ok(true),
            (Some(_), [_]) => Err("wrong output".into()),
            _ => Err(format!("{} outputs returned", outputs.len())),
        },
        Response::Overloaded { .. } => Ok(false),
        Response::Error { code, message, .. } => Err(format!("error {code}: {message}")),
        other => Err(format!("unexpected response {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// The generator's event loop
// ---------------------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until a socket is readable (or writable, where asked) or
/// `timeout` passes. Interruptions and errors just end the wait early:
/// the caller re-checks every socket anyway.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout records, `ts` outlives the call, and a null signal
    // mask is allowed (keep the current mask).
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// One pipelined connection. Frames are written straight from the
/// pool, so a backlog costs no memory on the generator's side.
struct Conn {
    stream: TcpStream,
    /// Requests queued to send, with how many bytes of each frame the
    /// socket has taken.
    sending: VecDeque<(usize, usize)>,
    /// Requests sent, awaiting responses in order.
    waiting: VecDeque<usize>,
    input: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, sending: VecDeque::new(), waiting: VecDeque::new(), input: Vec::new() })
    }

    fn outstanding(&self) -> usize {
        self.sending.len() + self.waiting.len()
    }
}

/// How a rung offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Load {
    /// Open loop: requests due at evenly spaced times, this many per
    /// second, whatever the server does.
    Open(f64),
    /// Saturation: keep this many requests outstanding per connection,
    /// so the server never waits for the generator.
    Saturate(usize),
}

/// What one rung measured.
struct Rung {
    load: Load,
    /// Length of the offering window (the drain comes after it).
    window: Duration,
    /// Every request's timeline.
    reqs: Vec<Timeline>,
    /// Typed errors and wrong outputs.
    errors: Vec<String>,
    /// Client-side `Response::decode` times, µs.
    decode_us: Vec<f64>,
    /// Wall time of the rung, including drain.
    wall: Duration,
}

impl Rung {
    fn failed(&self) -> usize {
        self.reqs.iter().filter(|r| !r.ok).count()
    }

    /// Latency-from-due percentile; missing requests count as the rung's
    /// whole wall time.
    fn latency(&self, q: f64) -> f64 {
        let miss = self.wall.as_secs_f64() * 1e3;
        let v: Vec<f64> = self.reqs.iter().map(|r| r.latency_ms(miss)).collect();
        quantile(&v, q)
    }

    /// Correct responses per second within each of [`SLICES`] equal
    /// slices of the window.
    fn goodput_slices(&self) -> Vec<f64> {
        let slice_ns = self.window.as_nanos() as u64 / SLICES as u64;
        let mut counts = [0u64; SLICES];
        for r in self.reqs.iter().filter(|r| r.ok) {
            if let Some(slot) = r.done_ns.map(|d| (d / slice_ns) as usize).filter(|&s| s < SLICES) {
                counts[slot] += 1;
            }
        }
        counts.iter().map(|&c| c as f64 / (slice_ns as f64 / 1e9)).collect()
    }

    /// Whether the rung meets the limit: tail within it, nothing
    /// failed, and no growing backlog.
    fn meets(&self) -> bool {
        self.failed() == 0 && self.latency(TAIL_Q) <= LIMIT_MS && !backlog_growing(&self.reqs)
    }
}

/// Offer `load` for `window` over `conns` fresh connections, drawing
/// requests from `pool` in seeded order, then wait up to [`DRAIN`] for
/// the outstanding responses.
fn run_rung(
    addr: SocketAddr,
    conns: usize,
    pool: &[Pooled],
    picks: &mut Prng,
    load: Load,
    window: Duration,
) -> io::Result<Rung> {
    let window_ns = window.as_nanos() as u64;
    let due_ns = |i: usize| match load {
        Load::Open(rate) => due_offset(i as u64, rate).as_nanos() as u64,
        Load::Saturate(_) => 0,
    };
    let total = match load {
        Load::Open(rate) => requests_in(window, rate) as usize,
        Load::Saturate(_) => usize::MAX,
    };
    let mut order: Vec<usize> = Vec::new();
    let mut conns: Vec<Conn> = (0..conns).map(|_| Conn::open(addr)).collect::<io::Result<_>>()?;
    let mut reqs: Vec<Timeline> = Vec::new();
    let mut errors = Vec::new();
    let mut decode_us = Vec::new();
    let start = Instant::now();
    let offer_until = match load {
        Load::Open(_) => due_ns(total).max(window_ns),
        Load::Saturate(_) => window_ns,
    };
    let deadline = Duration::from_nanos(offer_until) + DRAIN;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        // Queue every request now due on the least-loaded connection.
        loop {
            let i = reqs.len();
            let c =
                conns.iter_mut().min_by_key(|c| c.outstanding()).expect("at least one connection");
            let due = match load {
                Load::Open(_) if i < total && due_ns(i) <= now_ns => due_ns(i),
                Load::Saturate(depth) if now_ns < window_ns && c.outstanding() < depth => now_ns,
                _ => break,
            };
            if order.len() <= i {
                // Each run of `POOL` requests uses every pool entry once,
                // in a seeded order.
                order.extend(crate::permutation(POOL, picks));
            }
            reqs.push(Timeline {
                due_ns: due,
                queued_ns: now_ns,
                sent_ns: 0,
                done_ns: None,
                ok: false,
            });
            c.sending.push_back((i, 0));
        }
        for c in &mut conns {
            // Write what the socket takes.
            while let Some((i, written)) = c.sending.front_mut() {
                let frame = &pool[order[*i]].frame;
                match c.stream.write(&frame[*written..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(k) => *written += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
                if *written == frame.len() {
                    let i = *i;
                    reqs[i].sent_ns = start.elapsed().as_nanos() as u64;
                    c.sending.pop_front();
                    c.waiting.push_back(i);
                }
            }
            // Read what has arrived and retire complete responses.
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(k) => c.input.extend_from_slice(&buf[..k]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let mut consumed = 0;
            while c.input.len() - consumed >= 4 {
                let header: [u8; 4] = c.input[consumed..consumed + 4].try_into().expect("4 bytes");
                let len = u32::from_le_bytes(header) as usize;
                if c.input.len() - consumed - 4 < len {
                    break;
                }
                let payload = &c.input[consumed + 4..consumed + 4 + len];
                consumed += 4 + len;
                let t = start.elapsed().as_nanos() as u64;
                let Some(i) = c.waiting.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response with no request",
                    ));
                };
                let d0 = Instant::now();
                let resp = Response::decode(payload);
                decode_us.push(d0.elapsed().as_secs_f64() * 1e6);
                reqs[i].done_ns = Some(t);
                let expected = pool[order[i]].expected.as_deref();
                match resp.map_err(|e| e.to_string()).and_then(|r| check_response(&r, expected)) {
                    Ok(ok) => reqs[i].ok = ok,
                    Err(e) => errors.push(format!("request {i}: {e}")),
                }
            }
            c.input.drain(..consumed);
        }
        let now = start.elapsed();
        let offered = now.as_nanos() as u64 >= offer_until
            && (reqs.len() >= total || matches!(load, Load::Saturate(_)));
        if (offered && conns.iter().all(|c| c.outstanding() == 0)) || now >= deadline {
            break;
        }
        let next_event = match load {
            Load::Open(_) if reqs.len() < total => Duration::from_nanos(due_ns(reqs.len())),
            // Responses read above may have freed room: refill at once
            // rather than wait for a socket event that may never come.
            Load::Saturate(depth) if !offered && conns.iter().any(|c| c.outstanding() < depth) => {
                now
            }
            Load::Saturate(_) if !offered => Duration::from_nanos(window_ns),
            _ => deadline,
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.sending.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        wait(&mut fds, next_event.saturating_sub(now));
    }
    Ok(Rung { load, window, reqs, errors, decode_us, wall: start.elapsed() })
}

fn tenant_totals(addr: SocketAddr) -> io::Result<TenantStats> {
    let mut client = Client::connect(addr)?;
    let mut sum = TenantStats::default();
    for t in 0..TENANTS {
        let s = client.stats(&tenant_name(t))?;
        sum.requests += s.requests;
        sum.shed += s.shed;
        sum.retries += s.retries;
        sum.completed += s.completed;
        sum.exec_ns += s.exec_ns;
        sum.heap_high_water = sum.heap_high_water.max(s.heap_high_water);
    }
    Ok(sum)
}

/// The `serve` workload.
pub fn run(ctx: &mut Ctx) {
    let mut rng = crate::seeded(ctx.seed, "serve pool");
    let pool = make_pool(&mut rng);
    let conns = ctx.nproc;
    let r = &mut ctx.report;
    r.note("engine", "server default (bytecode)");
    r.note("connections", conns);
    r.note("tenants", TENANTS);
    r.note("ladder_rps", format!("{LADDER:?}"));
    r.note("reference_rps", REFERENCE_RATE);
    r.note("limit_ms", LIMIT_MS);
    r.note("saturation_depth", SATURATION_DEPTH);
    r.note("over_nproc", conns > ctx.nproc);

    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some((h, _)) = server.take() {
            ServerHandle::shutdown(h);
        }
        let t0 = Instant::now();
        match start_server(&pool, &ctx.tmp.join(format!("server-cache-{rep}"))) {
            Ok(started) => server = Some(started),
            Err(e) => {
                ctx.report.error(format!("set-up: {e}"));
                return;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (server, admission_capacity) = server.expect("SETUP_REPS is at least one");
    ctx.report.note("admission_capacity", admission_capacity);
    let addr = server.addr();

    // The saturation probe first, then the ladder in ascending order, so
    // the overloaded top rung disturbs nothing after it.
    let share = |s: f64| Duration::from_secs_f64(ctx.window.as_secs_f64() * s);
    let other = share((1.0 - REFERENCE_SHARE - SATURATION_SHARE) / (LADDER.len() - 1) as f64);
    let mut plan = vec![(Load::Saturate(SATURATION_DEPTH), share(SATURATION_SHARE))];
    for &rate in &LADDER {
        let window = if rate == REFERENCE_RATE { share(REFERENCE_SHARE) } else { other };
        plan.push((Load::Open(rate), window));
    }
    let mut picks = crate::seeded(ctx.seed, "serve order");
    let mut rungs = Vec::new();
    let mut ref_stats = (TenantStats::default(), TenantStats::default());
    for (load, window) in plan {
        let measured = tenant_totals(addr).and_then(|before| {
            let rung = run_rung(addr, conns, &pool, &mut picks, load, window)?;
            Ok((before, rung, tenant_totals(addr)?))
        });
        match measured {
            Ok((before, rung, after)) => {
                if load == Load::Open(REFERENCE_RATE) {
                    ref_stats = (before, after);
                }
                rungs.push(rung);
            }
            Err(e) => {
                ctx.report.error(format!("{load:?}: {e}"));
                server.shutdown();
                return;
            }
        }
        // Let the server finish any backlog before the next rung.
        std::thread::sleep(Duration::from_millis(100));
    }
    let totals = tenant_totals(addr);
    server.shutdown();
    report(ctx, &rungs, ref_stats, totals.ok(), median(&setup_s), &pool);
}

fn report(
    ctx: &mut Ctx,
    rungs: &[Rung],
    (before, after): (TenantStats, TenantStats),
    totals: Option<TenantStats>,
    setup: f64,
    pool: &[Pooled],
) {
    let r = &mut ctx.report;
    let probe = &rungs[0];
    for rung in rungs {
        let measured = rung.load == Load::Open(REFERENCE_RATE) || rung.load == probe.load;
        for e in &rung.errors {
            // Sheds are failures, not errors. Typed errors count against
            // correctness where the listed metrics are measured, wrong
            // outputs anywhere.
            if measured || e.contains("wrong output") {
                r.error(format!("{:?}: {e}", rung.load));
            }
        }
        if measured {
            r.attempted += rung.reqs.len() as u64;
            r.failed += rung.failed() as u64;
        }
        let lat: Vec<f64> =
            rung.reqs.iter().map(|q| q.latency_ms(rung.wall.as_secs_f64() * 1e3)).collect();
        let s = summarize(&lat);
        let n = s.n as u64;
        let Load::Open(rate) = rung.load else {
            r.detail("serve_p50_ms@probe", s.p50, "ms", n);
            r.detail("serve_p95_ms@probe", s.p95, "ms", n);
            r.detail("serve_p99_ms@probe", s.p99, "ms", n);
            continue;
        };
        r.detail(&format!("serve_p50_ms@{rate}"), s.p50, "ms", n);
        r.detail(&format!("serve_p95_ms@{rate}"), s.p95, "ms", n);
        r.detail(&format!("serve_p99_ms@{rate}"), s.p99, "ms", n);
        r.detail(
            &format!("fail_ratio@{rate}"),
            rung.failed() as f64 / s.n.max(1) as f64,
            "ratio",
            n,
        );
        r.detail(
            &format!("backlog_growing@{rate}"),
            f64::from(u8::from(backlog_growing(&rung.reqs))),
            "bool",
            n,
        );
        let late: Vec<f64> = rung.reqs.iter().map(Timeline::late_ms).collect();
        r.detail(&format!("late_p99_ms@{rate}"), quantile(&late, 0.99), "ms", n);
    }
    let reference = rungs
        .iter()
        .find(|g| g.load == Load::Open(REFERENCE_RATE))
        .expect("reference rate is on the ladder");
    let max_rate = rungs
        .iter()
        .filter(|g| g.meets())
        .filter_map(|g| match g.load {
            Load::Open(rate) => Some(rate),
            Load::Saturate(_) => None,
        })
        .fold(0.0, f64::max);
    let n = reference.reqs.len() as u64;
    r.detail("max_rate_rps", max_rate, "1/s", LADDER.len() as u64);
    let slices = probe.goodput_slices();
    let saturation = median(&slices);
    for (i, g) in slices.iter().enumerate() {
        r.detail(&format!("saturation_rps.slice{i}"), *g, "1/s", 1);
    }
    r.detail("saturation_rps", saturation, "1/s", probe.reqs.len() as u64);
    if !ctx.trace {
        r.detail("fail_ratio", r.failed as f64 / r.attempted.max(1) as f64, "ratio", r.attempted);
        r.metric("setup_s", setup, "s", SETUP_REPS as u64);
        let probe_n = probe.reqs.len() as u64;
        r.metric("op_p50_ms", probe.latency(0.5), "ms", probe_n);
        r.metric(TAIL_METRIC, probe.latency(TAIL_Q), "ms", probe_n);
        r.metric("ops_per_s", saturation, "1/s", probe_n);
        return;
    }
    r.detail("setup_s", setup, "s", SETUP_REPS as u64);
    let completed = after.completed - before.completed;
    let exec_ms = (after.exec_ns - before.exec_ns) as f64 / 1e6 / completed.max(1) as f64;
    let wire: Vec<f64> = reference
        .reqs
        .iter()
        .filter_map(|q| q.done_ns.map(|d| (d - q.sent_ns) as f64 / 1e6))
        .collect();
    r.metric("server.exec_ms", exec_ms, "ms", completed);
    r.metric("server.overhead_ms", mean(&wire) - exec_ms, "ms", wire.len() as u64);
    let requests: Vec<Request> = pool.iter().map(|p| Request::Launch(p.spec.clone())).collect();
    let reps = 4;
    let t0 = Instant::now();
    for _ in 0..reps {
        for q in &requests {
            std::hint::black_box(std::hint::black_box(q).encode());
        }
    }
    let encodes = (reps * requests.len()) as u64;
    r.metric(
        "protocol.encode_us",
        t0.elapsed().as_secs_f64() * 1e6 / encodes as f64,
        "us",
        encodes,
    );
    r.metric(
        "protocol.decode_us",
        mean(&reference.decode_us),
        "us",
        reference.decode_us.len() as u64,
    );
    let t = totals.unwrap_or_default();
    r.metric("server.shed_ratio", t.shed as f64 / t.requests.max(1) as f64, "ratio", t.requests);
    r.metric(
        "server.retry_ratio",
        t.retries as f64 / t.requests.max(1) as f64,
        "ratio",
        t.requests,
    );
    r.metric("server.heap_high_water_mb", t.heap_high_water as f64 / (1 << 20) as f64, "MiB", 1);
    let late: Vec<f64> = reference.reqs.iter().map(Timeline::late_ms).collect();
    r.metric("generator.late_p99_ms", quantile(&late, 0.99), "ms", n);
}
