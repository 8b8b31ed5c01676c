//! Closed-loop benchmark of the multi-tenant kernel service.
//!
//! Unlike `host_perf`, which times the in-process launch path, this
//! binary measures the serving layer end to end: framing, admission,
//! the retry ladder, and read-back over real loopback TCP. Its job is
//! to put numbers on *graceful degradation* — what happens to latency
//! and shed rate when offered load exceeds admission capacity, and
//! what server-side retries cost when workers are panicking.
//!
//! Usage:
//!   server_perf [--quick] [--out PATH] [--fault]
//!
//! * `--quick` — reduced client counts and iteration budget (CI smoke)
//! * `--out PATH` — write results as JSON (default: stdout table only)
//! * `--fault` — additionally run the fault-injection scenario
//!   (requires building with `--features fault-inject`)
//!
//! Three scenarios:
//!
//! * `baseline` — as many closed-loop clients as admission slots: no
//!   shedding expected, this is the service's un-contended latency.
//! * `overload` — twice as many clients as slots: the gate must shed
//!   (non-zero `Overloaded`), and the p99 of *admitted* requests must
//!   stay bounded (shedding refuses work instead of queueing it).
//! * `fault` — baseline load with a budgeted worker-panic plan
//!   installed: the retry ladder must absorb the panics (non-zero
//!   retries, zero typed errors).
//!
//! The server runs on the session default engine (the JIT where the
//! host supports it; `DPVK_ENGINE` overrides it). `--out` records that
//! engine with the host's `nproc`, CPU and commit, and flags scenarios
//! with more clients than cores, whose latencies measure contention.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dpvk_bench::{format_table, HostInfo};
use dpvk_core::Engine;
use dpvk_server::{Client, LaunchSpec, Response, Server, ServerConfig, WireBuffer, WireParam};
use dpvk_vm::MachineModel;

/// Fixed admission capacity so results are comparable across machines
/// with different core counts.
const CAPACITY: usize = 4;
const HEAP: usize = 64 << 20;

/// Work per launch: `data[i] *= 3` over this many u32 elements. Large
/// enough that launches genuinely overlap on the pool (so the overload
/// scenario contends on real work, not socket timing).
const N: u32 = 1 << 15;

/// The benched kernel, parameterized by entry-point name so each tenant
/// owns a distinct kernel (kernel names are globally owned).
fn kernel_source(name: &str) -> String {
    format!(
        r#"
.kernel {name} (.param .u64 data, .param .u32 n) {{
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  .reg .pred %p<1>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  mul.lo.u32 %r2, %r2, 3;
  st.global.u32 [%rd1], %r2;
done:
  ret;
}}
"#
    )
}

#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    retries: u64,
    degraded: u64,
    /// Submit-to-complete latencies of completed requests, ns.
    latencies_ns: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.completed += other.completed;
        self.shed += other.shed;
        self.errors += other.errors;
        self.retries += other.retries;
        self.degraded += other.degraded;
        self.latencies_ns.extend(other.latencies_ns);
    }
}

#[derive(Debug)]
struct ScenarioResult {
    scenario: String,
    clients: usize,
    capacity: usize,
    requests: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    retries: u64,
    degraded: u64,
    p50_ns: u64,
    p99_ns: u64,
    launches_per_sec: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One closed-loop client: `iters` launches of its tenant's kernel,
/// honoring `retry_after_ms` hints on shed (bounded, so the run always
/// terminates), counting every outcome.
fn client_loop(addr: SocketAddr, tenant: String, kernel: String, iters: u64) -> Tally {
    let mut client = Client::connect(addr).expect("client connects");
    let input: Vec<u8> = (0..N).flat_map(u32::to_le_bytes).collect();
    let mut tally = Tally::default();
    for _ in 0..iters {
        let spec = LaunchSpec {
            tenant: tenant.clone(),
            kernel: kernel.clone(),
            grid: [N.div_ceil(64), 1, 1],
            block: [64, 1, 1],
            deadline_ms: 0,
            buffers: vec![WireBuffer { bytes: input.clone(), read_back: false }],
            params: vec![WireParam::Buffer(0), WireParam::U32(N)],
        };
        tally.requests += 1;
        let t0 = Instant::now();
        match client.launch(spec).expect("transport stays up") {
            Response::Launched { attempts, degraded, .. } => {
                tally.completed += 1;
                tally.retries += u64::from(attempts.saturating_sub(1));
                tally.degraded += u64::from(degraded);
                tally.latencies_ns.push(t0.elapsed().as_nanos() as u64);
            }
            Response::Overloaded { retry_after_ms } => {
                tally.shed += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.min(100))));
            }
            Response::Error { .. } => tally.errors += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    tally
}

fn server_config() -> ServerConfig {
    ServerConfig {
        admission_capacity: Some(CAPACITY),
        // Per-tenant limits out of the way: this benchmark exercises the
        // *global* gate; tests cover the per-tenant paths.
        tenant_rate_per_sec: 1e9,
        tenant_burst: 1e9,
        tenant_parallelism: 64,
        ..ServerConfig::default()
    }
}

/// Run `clients` closed-loop clients against a fresh server; one tenant
/// (and kernel) per client so the tenant registry is exercised at the
/// same scale as the connection count.
fn run_scenario(scenario: &str, clients: usize, iters: u64) -> ScenarioResult {
    let server =
        Server::bind(MachineModel::sandybridge_sse(), HEAP, server_config()).expect("server binds");
    let capacity = server.admission_capacity();
    let handle = server.start().expect("server starts");
    let addr = handle.addr();

    // Register every tenant's kernel up front so the timed window is
    // pure launch traffic.
    for c in 0..clients {
        let mut setup = Client::connect(addr).expect("setup client connects");
        match setup
            .register(&format!("tenant-{c}"), &kernel_source(&format!("bench_k{c}")))
            .expect("register transport")
        {
            Response::Registered => {}
            other => panic!("registration failed: {other:?}"),
        }
    }

    let mut total = Tally::default();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    client_loop(addr, format!("tenant-{c}"), format!("bench_k{c}"), iters)
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread"));
        }
    });
    let elapsed_ns = (t0.elapsed().as_nanos() as u64).max(1);
    handle.shutdown();
    total.latencies_ns.sort_unstable();
    ScenarioResult {
        scenario: scenario.to_string(),
        clients,
        capacity,
        requests: total.requests,
        completed: total.completed,
        shed: total.shed,
        errors: total.errors,
        retries: total.retries,
        degraded: total.degraded,
        p50_ns: percentile(&total.latencies_ns, 0.50),
        p99_ns: percentile(&total.latencies_ns, 0.99),
        launches_per_sec: total.completed as f64 * 1e9 / elapsed_ns as f64,
    }
}

/// The fault scenario: baseline load with a budgeted worker-panic plan
/// installed. Every panic must be absorbed by the retry ladder.
#[cfg(feature = "fault-inject")]
fn run_fault_scenario(clients: usize, iters: u64) -> ScenarioResult {
    use dpvk_core::faults::{install, FaultPlan};
    // CTA 0 exists in every launch; the budget caps how many attempts
    // (first tries *and* retries) panic, so with a budget below the
    // ladder depth every faulted launch still recovers.
    let _guard =
        install(FaultPlan { panic_at_cta: Some(0), panic_budget: Some(3), ..Default::default() });
    // The injected panics would spam stderr through the default hook.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut result = run_scenario("fault", clients, iters);
    std::panic::set_hook(prev_hook);
    result.scenario = "fault".into();
    result
}

fn render_json(results: &[ScenarioResult], engine: Engine, host: &HostInfo) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"server_perf\",\n");
    out.push_str("  \"unit\": \"ns_submit_to_complete_over_tcp\",\n");
    out.push_str(&format!("  \"engine\": \"{}\",\n", engine.label()));
    out.push_str(&host.json_fields());
    out.push_str(&format!("  \"elements_per_launch\": {N},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"clients\": {}, \"capacity\": {}, \
             \"requests\": {}, \"completed\": {}, \"shed\": {}, \"errors\": {}, \
             \"retries\": {}, \"degraded\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"launches_per_sec\": {:.1}, \"clients_over_nproc\": {}}}{comma}\n",
            r.scenario,
            r.clients,
            r.capacity,
            r.requests,
            r.completed,
            r.shed,
            r.errors,
            r.retries,
            r.degraded,
            r.p50_ns,
            r.p99_ns,
            r.launches_per_sec,
            r.clients > host.nproc
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let fault = args.iter().any(|a| a == "--fault");
    let out_path = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();

    let (iters, baseline_clients) = if quick { (12, CAPACITY) } else { (60, CAPACITY) };
    let overload_clients = 2 * baseline_clients;
    let engine = Engine::from_env();
    let host = HostInfo::capture();
    eprintln!(
        "server_perf: {} engine, nproc {}, commit {}",
        engine.label(),
        host.nproc,
        host.commit
    );

    let mut results = Vec::new();
    eprintln!("server_perf: baseline ({baseline_clients} clients, {iters} iters each)...");
    results.push(run_scenario("baseline", baseline_clients, iters));
    eprintln!("server_perf: overload ({overload_clients} clients, {iters} iters each)...");
    results.push(run_scenario("overload", overload_clients, iters));

    if fault {
        #[cfg(feature = "fault-inject")]
        {
            eprintln!("server_perf: fault ({baseline_clients} clients, {iters} iters each)...");
            results.push(run_fault_scenario(baseline_clients, iters));
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            eprintln!("server_perf: --fault requires `--features fault-inject`; skipping scenario");
        }
    }

    let headers = [
        "scenario", "clients", "cap", "req", "ok", "shed", "err", "retry", "degr", "p50 ms",
        "p99 ms", "ok/s",
    ];
    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.scenario.clone(),
            r.clients.to_string(),
            r.capacity.to_string(),
            r.requests.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.errors.to_string(),
            r.retries.to_string(),
            r.degraded.to_string(),
            format!("{:.2}", r.p50_ns as f64 / 1e6),
            format!("{:.2}", r.p99_ns as f64 / 1e6),
            format!("{:.1}", r.launches_per_sec),
        ]);
    }
    println!("{}", format_table(&headers, &rows));

    // Graceful-degradation sanity: overload must shed rather than queue,
    // and nothing may fail with a typed error in the healthy scenarios.
    let baseline = &results[0];
    let overload = &results[1];
    let mut ok = true;
    if overload.shed == 0 {
        eprintln!("FAIL: overload scenario shed nothing (queueing instead of refusing?)");
        ok = false;
    }
    if baseline.errors != 0 || overload.errors != 0 {
        eprintln!("FAIL: healthy scenarios surfaced typed errors");
        ok = false;
    }
    if let Some(fault) = results.iter().find(|r| r.scenario == "fault") {
        if fault.retries == 0 {
            eprintln!("FAIL: fault scenario saw no retries (plan not tripping?)");
            ok = false;
        }
        if fault.errors != 0 {
            eprintln!("FAIL: fault scenario leaked injected panics as errors");
            ok = false;
        }
    }

    if let Some(path) = out_path {
        std::fs::write(&path, render_json(&results, engine, &host)).expect("write results");
        eprintln!("server_perf: wrote {path}");
    }
    if let Err(e) = dpvk_trace::write_if_enabled() {
        eprintln!("warning: failed to write trace report: {e}");
    }
    std::process::exit(i32::from(!ok));
}
