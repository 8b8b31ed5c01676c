//! `launch`: one caller thread in a closed loop of in-process jobs
//! (alloc → htod → launch → dtoh → free, then verify) over a seeded mix
//! of four kernels on a warm device with persistence off.

use std::time::{Duration, Instant};

use dpvk_core::{AdaptConfig, CoreError, Device, DevicePtr, ExecConfig, LaunchStats, ParamValue};
use dpvk_vm::{ExecStats, MachineModel};
use dpvk_workloads::Prng;

use crate::kernels::{make_job, Job, Kernel, Param};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, summarize};
use crate::{Ctx, SETUP_REPS, TAIL_METRIC};

/// Jobs per kernel, one per size slot; the loop draws from them.
const JOBS_PER_KERNEL: usize = 8;

/// Relative pick weights of [`Kernel::ALL`], fixed so that each kernel
/// takes a comparable share of wall time on the JIT (measured once; the
/// weights never follow the commit under test).
const WEIGHTS: [u32; 4] = [2, 7, 5, 3];

const HEAP_BYTES: usize = 16 << 20;

/// Share of job wall time the per-call spans may leave unattributed.
const SPAN_TOLERANCE: f64 = 0.05;

/// `jobs_per_s` is the median of the rates over this many equal slices
/// of the window, so a burst of contention from outside the process
/// moves it less than it moves a whole-window mean.
const SLICES: usize = 10;

/// Run one job, recording a `job` span with one child per device call.
/// Returns the output bytes and launch statistics.
fn run_job(
    dev: &Device,
    job: &Job,
    cfg: &ExecConfig,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Vec<u8>, LaunchStats), CoreError> {
    tracer.begin("job", id);
    let r = job_calls(dev, job, cfg, tracer, id);
    tracer.end();
    r
}

fn job_calls(
    dev: &Device,
    job: &Job,
    cfg: &ExecConfig,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Vec<u8>, LaunchStats), CoreError> {
    let ptrs = tracer.span("devmem.alloc", id, || {
        job.buffers.iter().map(|b| dev.malloc(b.len())).collect::<Result<Vec<DevicePtr>, _>>()
    })?;
    tracer.span("devmem.htod", id, || {
        job.buffers.iter().zip(&ptrs).try_for_each(|(b, &p)| dev.memcpy_htod(p, b))
    })?;
    let args: Vec<ParamValue> = job
        .params
        .iter()
        .map(|p| match *p {
            Param::Buffer(i) => ParamValue::Ptr(ptrs[i]),
            Param::Value(v) => v,
        })
        .collect();
    let stats = tracer.span(job.kernel.launch_span(), id, || {
        dev.launch(job.kernel.name(), job.grid, job.block, &args, cfg)
    })?;
    let mut out = vec![0u8; job.buffers[job.output].len()];
    tracer.span("devmem.dtoh", id, || dev.memcpy_dtoh(&mut out, ptrs[job.output]))?;
    tracer.span("devmem.free", id, || ptrs.iter().try_for_each(|&p| dev.free(p)))?;
    Ok((out, stats))
}

/// Per-kernel accumulation over a traced phase.
#[derive(Default)]
struct KernelTally {
    jobs: u64,
    exec: ExecStats,
}

/// One closed-loop phase: per-job wall times (ms) and per-kernel tallies.
struct Phase {
    job_ms: Vec<f64>,
    /// Completed jobs per tenth of the window.
    slice_jobs: [u64; SLICES],
    per_kernel: Vec<(Vec<f64>, KernelTally)>,
    elapsed: Duration,
}

/// Run jobs drawn from `picks` until `window` has passed.
fn run_phase(
    report: &mut Report,
    tracer: &mut Tracer,
    dev: &Device,
    cfg: &ExecConfig,
    jobs: &[Vec<Job>],
    picks: &mut Prng,
    window: Duration,
) -> Phase {
    let total_weight: u32 = WEIGHTS.iter().sum();
    let mut phase = Phase {
        job_ms: Vec::new(),
        slice_jobs: [0; SLICES],
        per_kernel: Kernel::ALL.iter().map(|_| (Vec::new(), KernelTally::default())).collect(),
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    while start.elapsed() < window {
        let k = pick_weighted(&WEIGHTS, picks.gen_range_u32(total_weight));
        let job = &jobs[k][picks.gen_range_u32(JOBS_PER_KERNEL as u32) as usize];
        let id = report.attempted;
        report.attempted += 1;
        let t0 = Instant::now();
        let r = run_job(dev, job, cfg, tracer, id);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let name = job.kernel.name();
        match r.map(|(out, stats)| (job.expected.check(&out), stats)) {
            Ok((Ok(()), stats)) => {
                phase.job_ms.push(ms);
                let slice =
                    (start.elapsed().as_secs_f64() / window.as_secs_f64() * SLICES as f64) as usize;
                phase.slice_jobs[slice.min(SLICES - 1)] += 1;
                let (times, tally) = &mut phase.per_kernel[k];
                times.push(ms);
                tally.jobs += 1;
                tally.exec.merge(&stats.exec);
            }
            Ok((Err(e), _)) => {
                report.failed += 1;
                report.error(format!("{name} job {id}: wrong output: {e}"));
            }
            Err(e) => {
                report.failed += 1;
                report.error(format!("{name} job {id}: {e}"));
            }
        }
    }
    phase.elapsed = start.elapsed();
    phase
}

/// Index of the weight bucket `draw` (in `0..sum(weights)`) falls in.
fn pick_weighted(weights: &[u32], mut draw: u32) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        if draw < w {
            return i;
        }
        draw -= w;
    }
    weights.len() - 1
}

/// The `launch` workload.
pub fn run(ctx: &mut Ctx) {
    let mut rng = crate::seeded(ctx.seed, "launch jobs");
    let jobs: Vec<Vec<Job>> = Kernel::ALL
        .iter()
        .map(|&k| (0..JOBS_PER_KERNEL).map(|slot| make_job(k, slot, &mut rng)).collect())
        .collect();
    let cfg = ExecConfig::dynamic(4)
        .with_workers(ctx.nproc)
        .with_engine(ctx.engine)
        .with_adapt(AdaptConfig::off());
    ctx.report.note("engine", ctx.engine.label());
    ctx.report.note("exec_workers", ctx.nproc);

    // Set-up: device, registration, and one warm-up run of every job
    // (compiles every width the mix reaches and emits its native code).
    let mut setup_s = Vec::new();
    let mut dev = None;
    for _ in 0..SETUP_REPS {
        drop(dev.take());
        let t0 = Instant::now();
        let d = Device::with_persist(MachineModel::sandybridge_sse(), HEAP_BYTES, None);
        for k in Kernel::ALL {
            if let Err(e) = d.register_source(&k.source()) {
                ctx.report.error(format!("register {}: {e}", k.name()));
                return;
            }
        }
        for job in jobs.iter().flatten() {
            match run_job(&d, job, &cfg, &mut Tracer::new(false), 0) {
                Ok((out, _)) => {
                    if let Err(e) = job.expected.check(&out) {
                        ctx.report
                            .error(format!("warm-up {}: wrong output: {e}", job.kernel.name()));
                    }
                }
                Err(e) => ctx.report.error(format!("warm-up {}: {e}", job.kernel.name())),
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        dev = Some(d);
    }
    let dev = dev.expect("SETUP_REPS is at least one");
    ctx.report.note("pool_workers", dev.pool_workers());
    let setup = median(&setup_s);

    let mut picks = crate::seeded(ctx.seed, "launch picks");
    if !ctx.trace {
        let mut off = Tracer::new(false);
        let p = run_phase(&mut ctx.report, &mut off, &dev, &cfg, &jobs, &mut picks, ctx.window);
        report_end_to_end(ctx, &p, setup);
    } else {
        run_traced(ctx, &dev, &cfg, &jobs, &mut picks, setup);
    }
}

fn report_end_to_end(ctx: &mut Ctx, p: &Phase, setup: f64) {
    let s = summarize(&p.job_ms);
    let slice_s = p.elapsed.as_secs_f64() / SLICES as f64;
    let rates: Vec<f64> = p.slice_jobs.iter().map(|&n| n as f64 / slice_s).collect();
    let jobs_per_s = median(&rates);
    let fail_ratio = ctx.report.failed as f64 / ctx.report.attempted.max(1) as f64;
    let r = &mut ctx.report;
    r.detail("jobs_per_s", jobs_per_s, "1/s", s.n as u64);
    r.detail("job_p50_ms", s.p50, "ms", s.n as u64);
    r.detail("job_p95_ms", s.p95, "ms", s.n as u64);
    r.detail("job_p99_ms", s.p99, "ms", s.n as u64);
    r.detail("fail_ratio", fail_ratio, "ratio", r.attempted);
    for (k, (times, _)) in Kernel::ALL.iter().zip(&p.per_kernel) {
        let ks = summarize(times);
        r.detail(&format!("job_p50_ms.{}", k.name()), ks.p50, "ms", ks.n as u64);
        r.detail(
            &format!("wall_share.{}", k.name()),
            times.iter().sum::<f64>() / p.job_ms.iter().sum::<f64>(),
            "ratio",
            ks.n as u64,
        );
    }
    r.metric("setup_s", setup, "s", crate::SETUP_REPS as u64);
    r.metric("op_p50_ms", s.p50, "ms", s.n as u64);
    r.metric(TAIL_METRIC, s.p95, "ms", s.n as u64);
    r.metric("ops_per_s", jobs_per_s, "1/s", s.n as u64);
}

fn run_traced(
    ctx: &mut Ctx,
    dev: &Device,
    cfg: &ExecConfig,
    jobs: &[Vec<Job>],
    picks: &mut Prng,
    setup: f64,
) {
    // Two rounds of three interleaved phases, so drift hits all alike:
    // untraced, benchmark spans on, program tracing on.
    let slice = ctx.window / 6;
    let (mut plain, mut spanned, mut program) = (Vec::new(), Vec::new(), Vec::new());
    let mem0 = dev.memory_stats();
    let cache0 = dev.cache_stats();
    for _ in 0..2 {
        let mut off = Tracer::new(false);
        plain.push(run_phase(&mut ctx.report, &mut off, dev, cfg, jobs, picks, slice));
        spanned.push(run_phase(&mut ctx.report, &mut ctx.tracer, dev, cfg, jobs, picks, slice));
        dpvk_trace::enable();
        program.push(run_phase(&mut ctx.report, &mut off, dev, cfg, jobs, picks, slice));
        dpvk_trace::disable();
        dpvk_trace::reset();
    }
    let mem1 = dev.memory_stats();
    let cache1 = dev.cache_stats();
    let rate = |ps: &[Phase]| {
        let n: usize = ps.iter().map(|p| p.job_ms.len()).sum();
        let t: f64 = ps.iter().map(|p| p.elapsed.as_secs_f64()).sum();
        (n as f64 / t, n as u64)
    };
    let (plain_rate, plain_n) = rate(&plain);
    let (spanned_rate, spanned_n) = rate(&spanned);
    let (program_rate, program_n) = rate(&program);
    let launches: u64 = [&plain, &spanned, &program]
        .iter()
        .flat_map(|ps| ps.iter())
        .map(|p| p.job_ms.len() as u64)
        .sum();

    let totals = ctx.tracer.totals();
    let r = &mut ctx.report;
    r.detail("setup_s", setup, "s", crate::SETUP_REPS as u64);
    r.detail("jobs_per_s.untraced", plain_rate, "1/s", plain_n);
    r.detail("jobs_per_s.spans", spanned_rate, "1/s", spanned_n);
    r.detail("jobs_per_s.program_trace", program_rate, "1/s", program_n);
    let per_call = |name: &str| {
        let t = totals.get(name).copied().unwrap_or_default();
        (t.self_ns as f64 / 1e3 / t.count.max(1) as f64, t.count)
    };
    for (metric, span) in [
        ("devmem.alloc_us", "devmem.alloc"),
        ("devmem.free_us", "devmem.free"),
        ("devmem.htod_us", "devmem.htod"),
        ("devmem.dtoh_us", "devmem.dtoh"),
    ] {
        let (v, n) = per_call(span);
        r.metric(metric, v, "us", n);
    }
    let reuse = (mem1.reuse_bytes - mem0.reuse_bytes) as f64;
    let fresh = (mem1.fresh_bytes - mem0.fresh_bytes) as f64;
    r.metric("devmem.reuse_ratio", reuse / (reuse + fresh).max(1.0), "ratio", launches);
    r.metric("devmem.high_water_mb", mem1.high_water as f64 / (1 << 20) as f64, "MiB", 1);

    // Per kernel, over the span-traced phases: the launch spans and the
    // launch statistics come from the same calls.
    for (i, k) in Kernel::ALL.iter().enumerate() {
        let mut t = KernelTally::default();
        for p in &spanned {
            t.jobs += p.per_kernel[i].1.jobs;
            t.exec.merge(&p.per_kernel[i].1.exec);
        }
        let launch_ns = totals.get(k.launch_span()).map_or(0, |s| s.total_ns) as f64;
        let (n, warps) = (t.jobs, t.exec.warp_entries);
        let name = k.name();
        r.metric(&format!("exec.launch_us.{name}"), launch_ns / 1e3 / n.max(1) as f64, "us", n);
        r.metric(&format!("exec.ns_per_warp.{name}"), launch_ns / warps.max(1) as f64, "ns", warps);
        r.metric(
            &format!("exec.threads_per_warp.{name}"),
            t.exec.thread_entries as f64 / warps.max(1) as f64,
            "count",
            warps,
        );
        r.metric(
            &format!("exec.yield_cycle_share.{name}"),
            t.exec.cycles_yield as f64 / t.exec.total_cycles().max(1) as f64,
            "ratio",
            n,
        );
    }
    let queries = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    r.metric(
        "cache.queries_per_launch",
        queries as f64 / launches.max(1) as f64,
        "count",
        launches,
    );
    r.metric(
        "cache.hit_ratio",
        (cache1.hits - cache0.hits) as f64 / queries.max(1) as f64,
        "ratio",
        queries,
    );
    let (mut helper, mut all) = (0u64, 0u64);
    for k in Kernel::ALL {
        for (w, v) in dev.cache().observed_widths(k.name()) {
            if let Some(jit) =
                dev.cache().get(k.name(), w, v).ok().as_ref().and_then(|c| c.jit(k.name()).cloned())
            {
                let s = jit.emit_stats();
                helper += s.helper_uops;
                all += s.helper_uops + s.template_uops;
            }
        }
    }
    r.metric("jit.helper_ratio", helper as f64 / all.max(1) as f64, "ratio", all);
    let job = totals.get("job").copied().unwrap_or_default();
    let unattributed = job.self_ns as f64 / job.total_ns.max(1) as f64;
    r.metric("job.unattributed_share", unattributed, "ratio", job.count);
    r.note(
        "span_coverage",
        if unattributed <= SPAN_TOLERANCE {
            "call spans cover the job within 5%"
        } else {
            "OVER the 5% tolerance"
        },
    );
    r.metric("trace.span_overhead_ratio", spanned_rate / plain_rate, "ratio", spanned_n);
    r.metric("trace.program_on_ratio", program_rate / plain_rate, "ratio", program_n);
}
