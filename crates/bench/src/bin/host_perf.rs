//! Wall-clock benchmark of warm-cache launches (host-side hot path).
//!
//! Unlike the figure/table binaries, which report *modeled* cycles, this
//! binary measures real host nanoseconds per launch once the translation
//! cache is warm — the cost of warp formation, dispatch, and the
//! interpreter loop itself. It exists to prove host-side optimizations
//! with numbers rather than assertions, and seeds the `BENCH_*.json`
//! trajectory at the repo root.
//!
//! Usage:
//!   host_perf [--quick] [--engine {bytecode,tree,jit}] [--streams N]
//!             [--widths W1,W2,...] [--cold-start] [--out PATH]
//!             [--before PATH] [--check PATH] [--timeline] [--profile]
//!
//! * `--quick` — reduced repeat counts (CI smoke configuration)
//! * `--widths W1,W2,...` — sweep warm-launch latency per static warp
//!   width, then run each workload once more under the adaptive width
//!   policy (`DPVK_ADAPT=on` semantics, candidates = the sweep widths)
//!   starting from the measured-worst width, and report the width the
//!   policy converged to next to the static best (the `adaptive`
//!   section of `--out`)
//! * `--cold-start` — additionally measure first-launch latency on a
//!   fresh device with an empty persistent cache directory (cold:
//!   parse + translate + specialize) vs a fresh device over the
//!   populated directory (warm restart: rehydrate artifacts from disk),
//!   and report the speedup
//! * `--engine E` — guest engine to benchmark: `bytecode` (the
//!   pre-decoded interpreter), `tree` (the tree-walk oracle), or `jit`
//!   (the native copy-and-patch tier). Defaults to `Engine::default()`:
//!   `jit` where the host supports it, else `bytecode`. `DPVK_ENGINE`
//!   does not change it; pass `--engine` to pin one.
//! * `--streams N` — additionally benchmark the stream API: warm
//!   submit-to-complete launch latency on one stream, and launches/sec
//!   with the same total work spread round-robin over 1 vs N streams
//! * `--out PATH` — write results as JSON (default: no file, stdout
//!   table), with the engine, `nproc`, CPU model and commit they were
//!   measured under
//! * `--before P` — fold a previous results file in as the "before"
//!   section and emit before/after/speedup in `--out`
//! * `--check P` — compare against the `after` (or sole) results in a
//!   committed baseline; exit non-zero only on a gross (>5x)
//!   per-configuration regression
//! * `--timeline` — switch the flight recorder on and write the
//!   per-launch span timeline as Chrome trace-event JSON (loadable in
//!   Perfetto); honors `DPVK_TIMELINE_OUT`
//! * `--profile` — switch the flight recorder on, print the µop hotspot
//!   table, and write the collapsed-stack µop profile (flamegraph
//!   input); honors `DPVK_PROFILE_OUT`
//!
//! Both recorder flags add tracing overhead to every timed launch —
//! use the numbers they print for *attribution*, not as the benchmark
//! result.

use std::time::Instant;

use dpvk_bench::{format_table, HostInfo};
use dpvk_core::{AdaptConfig, Engine, ExecConfig, ParamValue};
use dpvk_vm::MachineModel;
use dpvk_workloads::{workload, Workload};

const WORKLOADS: [&str; 4] = ["throughput", "blackscholes", "matrixmul", "bitonic"];
const WORKERS: [usize; 3] = [1, 2, 4];
const HEAP: usize = 256 << 20;

/// Gross-regression threshold for `--check` (CI fails only beyond this).
const REGRESSION_FACTOR: f64 = 5.0;

#[derive(Debug, Clone)]
struct Sample {
    workload: String,
    workers: usize,
    launches: u64,
    min_ns: u64,
    median_ns: u64,
    mean_ns: u64,
}

fn fresh_device(w: &dyn Workload) -> dpvk_core::Device {
    let dev = dpvk_core::Device::new(MachineModel::sandybridge_sse(), HEAP);
    dev.register_source(&w.source()).expect("workload source parses");
    dev
}

/// Time warm launches of one workload under one worker count.
///
/// The first run on a fresh device compiles the specializations; every
/// timed run after that exercises only the steady-state launch path. If
/// the bump allocator fills up mid-run the device is recycled (and
/// re-warmed) without counting the cold run.
fn bench_one(name: &str, workers: usize, quick: bool, engine: Engine) -> Sample {
    let w = workload(name).expect("workload exists");
    let config = ExecConfig::dynamic(4).with_workers(workers).with_engine(engine);
    let mut dev = fresh_device(w.as_ref());
    w.run(&dev, &config).expect("warm-up run validates");

    // Calibrate the repeat count so each configuration takes a roughly
    // fixed slice of wall time regardless of workload size.
    let t0 = Instant::now();
    w.run(&dev, &config).expect("calibration run validates");
    let per = t0.elapsed().as_nanos().max(1) as u64;
    let (budget_ns, lo, hi) = if quick { (100_000_000, 3, 24) } else { (600_000_000, 8, 160) };
    let iters = (budget_ns / per).clamp(lo, hi);

    let mut samples_ns = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        match w.run(&dev, &config) {
            Ok(_) => samples_ns.push(t.elapsed().as_nanos() as u64),
            Err(_) => {
                // Device heap exhausted: recycle and re-warm, discard
                // the failed (and the next, cold) run.
                dev = fresh_device(w.as_ref());
                w.run(&dev, &config).expect("re-warm run validates");
            }
        }
    }
    assert!(!samples_ns.is_empty(), "no successful timed runs for {name}");
    samples_ns.sort_unstable();
    let launches = samples_ns.len() as u64;
    Sample {
        workload: name.to_string(),
        workers,
        launches,
        min_ns: samples_ns[0],
        median_ns: samples_ns[samples_ns.len() / 2],
        mean_ns: samples_ns.iter().sum::<u64>() / launches,
    }
}

/// First-launch latency with and without the persistent translation
/// cache populated.
#[derive(Debug, Clone)]
struct ColdStartSample {
    workload: String,
    /// Best-of-reps first launch on an empty cache directory.
    cold_ns: u64,
    /// Best-of-reps first launch on the directory the cold run filled.
    warm_ns: u64,
    /// `cold_ns / warm_ns`.
    speedup: f64,
}

/// Measure one workload's cold-start vs warm-restart first launch.
///
/// Every sample uses a brand-new device, so the in-memory caches are
/// exactly what a new process would have; only the on-disk artifact
/// cache distinguishes cold from warm. Best-of-`reps` on both sides
/// keeps scheduler noise out of the headline speedup.
fn bench_cold_start(name: &str, reps: usize, engine: Engine) -> ColdStartSample {
    let w = workload(name).expect("workload exists");
    let config = ExecConfig::dynamic(4).with_workers(1).with_engine(engine);
    let dir = std::env::temp_dir().join(format!("dpvk-coldstart-{name}-{}", std::process::id()));
    let run_fresh = |persist_dir: &std::path::Path| -> u64 {
        let dev = dpvk_core::Device::with_persist(
            MachineModel::sandybridge_sse(),
            HEAP,
            Some(dpvk_core::PersistConfig::at(persist_dir)),
        );
        dev.register_source(&w.source()).expect("workload source parses");
        let t = Instant::now();
        w.run(&dev, &config).expect("cold-start run validates");
        t.elapsed().as_nanos() as u64
    };
    let (mut cold, mut warm) = (u64::MAX, u64::MAX);
    for _ in 0..reps.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        cold = cold.min(run_fresh(&dir));
        warm = warm.min(run_fresh(&dir));
    }
    let _ = std::fs::remove_dir_all(&dir);
    ColdStartSample {
        workload: name.to_string(),
        cold_ns: cold,
        warm_ns: warm,
        speedup: cold as f64 / warm.max(1) as f64,
    }
}

/// Warm-launch latency of one workload at one static warp width.
#[derive(Debug, Clone)]
struct WidthSample {
    width: u32,
    median_ns: u64,
    launches: u64,
}

/// One workload's width sweep: static latency per width, plus the
/// adaptive policy's converged choice starting from the worst width.
#[derive(Debug, Clone)]
struct AdaptiveSample {
    workload: String,
    widths: Vec<WidthSample>,
    /// Width with the lowest static median.
    static_best_width: u32,
    static_best_ns: u64,
    /// Width the sweep measured as slowest — the adaptive run's
    /// deliberately bad starting point.
    adaptive_start_width: u32,
    /// Width the policy committed (0 = never converged).
    adaptive_chosen_width: u32,
    /// Warm-launch median once the policy has converged.
    adaptive_ns: u64,
    /// Background respecializations the run scheduled.
    respec_events: u64,
}

/// Median warm-launch nanoseconds of `iters` runs on an already-warm
/// device.
fn time_warm(
    w: &dyn Workload,
    dev: &dpvk_core::Device,
    config: &ExecConfig,
    iters: usize,
) -> (u64, u64) {
    let mut samples: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        if w.run(dev, config).is_ok() {
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    assert!(!samples.is_empty(), "no successful timed runs for {}", w.name());
    samples.sort_unstable();
    (samples[samples.len() / 2], samples.len() as u64)
}

/// Sweep one workload across `widths`: static warm-launch latency per
/// width (adaptation forced off), then one adaptive run whose policy may
/// pick any sweep width, started at the measured-worst width and driven
/// past convergence.
fn bench_widths(name: &str, widths: &[u32], quick: bool, engine: Engine) -> AdaptiveSample {
    let w = workload(name).expect("workload exists");
    let iters = if quick { 8 } else { 24 };

    let mut rows = Vec::with_capacity(widths.len());
    for &width in widths {
        let config = ExecConfig::dynamic(width)
            .with_workers(1)
            .with_engine(engine)
            .with_adapt(AdaptConfig::off());
        let dev = fresh_device(w.as_ref());
        w.run(&dev, &config).expect("warm-up run validates");
        let (median_ns, launches) = time_warm(w.as_ref(), &dev, &config, iters);
        rows.push(WidthSample { width, median_ns, launches });
    }
    let best = rows.iter().min_by_key(|r| r.median_ns).expect("non-empty sweep");
    let worst = rows.iter().max_by_key(|r| r.median_ns).expect("non-empty sweep");
    let (static_best_width, static_best_ns) = (best.width, best.median_ns);
    let start_width = worst.width;

    // Adaptive run: request the worst width every launch and let the
    // policy steer. Enough launches to warm up, explore every candidate,
    // and commit; the hotness threshold is lowered so the bench stays
    // fast.
    let threshold: u32 = if quick { 3 } else { 6 };
    let adapt = AdaptConfig::on().with_threshold(threshold).with_candidates(widths);
    let config =
        ExecConfig::dynamic(start_width).with_workers(1).with_engine(engine).with_adapt(adapt);
    let dev = fresh_device(w.as_ref());
    let converge_runs = threshold as usize * (widths.len() + 1) + 6;
    for _ in 0..converge_runs {
        w.run(&dev, &config).expect("adaptive run validates");
    }
    dev.synchronize();
    let (adaptive_ns, _) = time_warm(w.as_ref(), &dev, &config, iters);

    // The policy is per kernel; report the most-launched kernel of the
    // workload (multi-kernel workloads converge per kernel).
    let kernels: Vec<String> = dpvk_ptx::parse_module(&w.source())
        .map(|m| m.kernels.iter().map(|k| k.name.clone()).collect())
        .unwrap_or_default();
    let mut chosen = 0u32;
    let mut respec_events = 0u64;
    let mut best_launches = 0u64;
    for kernel in &kernels {
        let snap = dev.width_policy(kernel);
        respec_events += snap.respec_events;
        if let Some(cw) = snap.chosen_width {
            if snap.launches > best_launches {
                best_launches = snap.launches;
                chosen = cw;
            }
        }
    }
    AdaptiveSample {
        workload: name.to_string(),
        widths: rows,
        static_best_width,
        static_best_ns,
        adaptive_start_width: start_width,
        adaptive_chosen_width: chosen,
        adaptive_ns,
        respec_events,
    }
}

/// One throughput measurement of the stream benchmark: `launches`
/// identical kernels spread round-robin over `streams` streams, all
/// submitted before any is waited on.
#[derive(Debug, Clone)]
struct StreamSample {
    streams: usize,
    launches: u64,
    elapsed_ns: u64,
    launches_per_sec: f64,
}

#[derive(Debug, Clone)]
struct StreamReport {
    latency_launches: u64,
    latency_min_ns: u64,
    latency_median_ns: u64,
    latency_mean_ns: u64,
    throughput: Vec<StreamSample>,
    /// N-stream launches/sec over 1-stream launches/sec.
    multi_stream_speedup: f64,
}

/// Benchmark the stream API with the Table 1 `throughput` kernel
/// (9 CTAs x 64 threads): submit-to-complete latency of a warm launch
/// on one stream, then launches/sec for the same total launch count
/// driven through 1 stream vs `nstreams` streams. Each stream owns its
/// output buffer, so concurrent launches never share device state.
fn bench_streams(nstreams: usize, quick: bool, engine: Engine) -> StreamReport {
    let w = workload("throughput").expect("workload exists");
    let dev = fresh_device(w.as_ref());
    // One pool worker per launch: stream-level overlap, not intra-launch
    // parallelism, is what this benchmark isolates.
    let config = ExecConfig::dynamic(4).with_workers(1).with_engine(engine);
    let grid = [9, 1, 1];
    let block = [64, 1, 1];
    let iters = 32u32;
    let bufs: Vec<_> =
        (0..nstreams.max(1)).map(|_| dev.malloc(576 * 4).expect("stream buffer")).collect();
    w.run(&dev, &config).expect("warm-up run validates");

    // Submit-to-complete latency of an otherwise idle stream.
    let latency_iters = if quick { 24 } else { 96 };
    let stream = dev.stream();
    let mut lat = Vec::with_capacity(latency_iters);
    for _ in 0..latency_iters {
        let t = Instant::now();
        let h = stream
            .launch(
                "throughput",
                grid,
                block,
                &[ParamValue::Ptr(bufs[0]), ParamValue::U32(iters)],
                &config,
            )
            .expect("latency launch submits");
        h.wait().expect("latency launch completes");
        lat.push(t.elapsed().as_nanos() as u64);
    }
    lat.sort_unstable();

    // Throughput: identical total work through 1 stream vs N streams.
    let per_stream = if quick { 8 } else { 24 };
    let total = (per_stream * nstreams) as u64;
    let mut throughput = Vec::new();
    let mut widths = vec![1];
    if nstreams > 1 {
        widths.push(nstreams);
    }
    for streams in widths {
        let pool: Vec<_> = (0..streams).map(|_| dev.stream()).collect();
        let start = Instant::now();
        let handles: Vec<_> = (0..total)
            .map(|i| {
                let s = i as usize % streams;
                pool[s]
                    .launch(
                        "throughput",
                        grid,
                        block,
                        &[ParamValue::Ptr(bufs[s]), ParamValue::U32(iters)],
                        &config,
                    )
                    .expect("throughput launch submits")
            })
            .collect();
        for h in &handles {
            h.wait().expect("throughput launch completes");
        }
        let elapsed_ns = start.elapsed().as_nanos().max(1) as u64;
        throughput.push(StreamSample {
            streams,
            launches: total,
            elapsed_ns,
            launches_per_sec: total as f64 * 1e9 / elapsed_ns as f64,
        });
    }
    dev.synchronize();
    let single = throughput[0].launches_per_sec;
    let multi = throughput.last().unwrap().launches_per_sec;
    StreamReport {
        latency_launches: lat.len() as u64,
        latency_min_ns: lat[0],
        latency_median_ns: lat[lat.len() / 2],
        latency_mean_ns: lat.iter().sum::<u64>() / lat.len() as u64,
        throughput,
        multi_stream_speedup: multi / single.max(f64::MIN_POSITIVE),
    }
}

fn result_line(s: &Sample) -> String {
    format!(
        "{{\"workload\": \"{}\", \"workers\": {}, \"launches\": {}, \
         \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}}}",
        s.workload, s.workers, s.launches, s.min_ns, s.median_ns, s.mean_ns
    )
}

/// Render the `"streams"` JSON object. Deliberately reuses none of the
/// result-line keys (`workload` + `min_ns`) so `read_results` on a
/// combined file never mistakes a stream row for a warm-launch sample.
fn render_streams_json(r: &StreamReport) -> String {
    let mut out = String::new();
    out.push_str("  \"streams\": {\n");
    out.push_str("    \"kernel\": \"throughput\",\n");
    out.push_str(&format!(
        "    \"latency\": {{\"launches\": {}, \"submit_to_complete_min_ns\": {}, \
         \"submit_to_complete_median_ns\": {}, \"submit_to_complete_mean_ns\": {}}},\n",
        r.latency_launches, r.latency_min_ns, r.latency_median_ns, r.latency_mean_ns
    ));
    out.push_str("    \"throughput\": [\n");
    for (i, s) in r.throughput.iter().enumerate() {
        let comma = if i + 1 < r.throughput.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"streams\": {}, \"launches\": {}, \"elapsed_ns\": {}, \
             \"launches_per_sec\": {:.1}}}{comma}\n",
            s.streams, s.launches, s.elapsed_ns, s.launches_per_sec
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!("    \"multi_stream_speedup\": {:.2}\n", r.multi_stream_speedup));
    out.push_str("  }\n");
    out
}

/// Render the `"cold_start"` JSON array. Like the stream section, the
/// rows share no key pair with the warm-launch result lines (`cold_ns`
/// instead of `min_ns`), so `read_results` never picks them up.
fn render_cold_start_json(rows: &[ColdStartSample], trailing: bool) -> String {
    let mut out = String::new();
    out.push_str("  \"cold_start\": [\n");
    for (i, s) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"cold_ns\": {}, \"warm_ns\": {}, \
             \"speedup\": {:.2}}}{comma}\n",
            s.workload, s.cold_ns, s.warm_ns, s.speedup
        ));
    }
    out.push_str(if trailing { "  ],\n" } else { "  ]\n" });
    out
}

/// Render the `"adaptive"` JSON array. Rows carry `width`/`median_ns`
/// pairs but never the `workers` + `min_ns` combination, so
/// `read_results` on a combined file skips them.
fn render_adaptive_json(rows: &[AdaptiveSample], trailing: bool) -> String {
    let mut out = String::new();
    out.push_str("  \"adaptive\": [\n");
    for (i, s) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let widths = s
            .widths
            .iter()
            .map(|w| {
                format!(
                    "{{\"width\": {}, \"median_ns\": {}, \"launches\": {}}}",
                    w.width, w.median_ns, w.launches
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"static\": [{widths}], \
             \"static_best_width\": {}, \"static_best_ns\": {}, \
             \"adaptive_start_width\": {}, \"adaptive_chosen_width\": {}, \
             \"adaptive_ns\": {}, \"respec_events\": {}}}{comma}\n",
            s.workload,
            s.static_best_width,
            s.static_best_ns,
            s.adaptive_start_width,
            s.adaptive_chosen_width,
            s.adaptive_ns,
            s.respec_events
        ));
    }
    out.push_str(if trailing { "  ],\n" } else { "  ]\n" });
    out
}

fn render_json(
    before: Option<&[Sample]>,
    after: &[Sample],
    engine: Engine,
    host: &HostInfo,
    streams: Option<&StreamReport>,
    cold_start: Option<&[ColdStartSample]>,
    adaptive: Option<&[AdaptiveSample]>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"host_perf\",\n");
    out.push_str("  \"unit\": \"ns_per_warm_launch\",\n");
    out.push_str("  \"policy\": \"dynamic_w4\",\n");
    out.push_str(&format!("  \"engine\": \"{}\",\n", engine.label()));
    out.push_str(&host.json_fields());
    let emit = |out: &mut String, key: &str, rows: &[Sample], trailing: bool| {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (i, s) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {}{comma}\n", result_line(s)));
        }
        out.push_str(if trailing { "  ],\n" } else { "  ]\n" });
    };
    if let Some(b) = before {
        emit(&mut out, "before", b, true);
        emit(&mut out, "after", after, true);
        let speedups = |pick: fn(&Sample) -> u64| {
            let mut rows = Vec::new();
            for s in after {
                if let Some(prev) =
                    b.iter().find(|p| p.workload == s.workload && p.workers == s.workers)
                {
                    rows.push(format!(
                        "    {{\"workload\": \"{}\", \"workers\": {}, \"speedup\": {:.2}}}",
                        s.workload,
                        s.workers,
                        pick(prev) as f64 / pick(s).max(1) as f64
                    ));
                }
            }
            rows.join(",\n")
        };
        out.push_str("  \"speedup_min\": [\n");
        out.push_str(&speedups(|s| s.min_ns));
        out.push_str("\n  ],\n");
        out.push_str("  \"speedup_median\": [\n");
        out.push_str(&speedups(|s| s.median_ns));
        out.push_str(if streams.is_some() || cold_start.is_some() || adaptive.is_some() {
            "\n  ],\n"
        } else {
            "\n  ]\n"
        });
    } else {
        emit(
            &mut out,
            "after",
            after,
            streams.is_some() || cold_start.is_some() || adaptive.is_some(),
        );
    }
    if let Some(rows) = adaptive {
        out.push_str(&render_adaptive_json(rows, streams.is_some() || cold_start.is_some()));
    }
    if let Some(rows) = cold_start {
        out.push_str(&render_cold_start_json(rows, streams.is_some()));
    }
    if let Some(r) = streams {
        out.push_str(&render_streams_json(r));
    }
    out.push_str("}\n");
    out
}

// --- minimal reader for our own result-line format (no JSON dependency) ---

fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Parse result lines from a file previously written by this binary.
/// If an `"after"` section exists, only its lines are read (so a
/// combined before/after file compares against the newer numbers).
fn read_results(path: &str) -> Vec<Sample> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let body = match text.find("\"after\"") {
        Some(i) => &text[i..],
        None => &text[..],
    };
    let mut out = Vec::new();
    for line in body.lines() {
        let Some(workload) = extract_str(line, "workload") else { continue };
        let (Some(workers), Some(min_ns)) =
            (extract_u64(line, "workers"), extract_u64(line, "min_ns"))
        else {
            continue;
        };
        out.push(Sample {
            workload,
            workers: workers as usize,
            launches: extract_u64(line, "launches").unwrap_or(0),
            min_ns,
            median_ns: extract_u64(line, "median_ns").unwrap_or(min_ns),
            mean_ns: extract_u64(line, "mean_ns").unwrap_or(min_ns),
        });
    }
    out
}

fn check_against(baseline_path: &str, current: &[Sample]) -> bool {
    let baseline = read_results(baseline_path);
    assert!(!baseline.is_empty(), "no result lines found in {baseline_path}");
    let mut ok = true;
    for s in current {
        let Some(b) = baseline.iter().find(|p| p.workload == s.workload && p.workers == s.workers)
        else {
            continue;
        };
        let factor = s.min_ns as f64 / b.min_ns.max(1) as f64;
        if factor > REGRESSION_FACTOR {
            eprintln!(
                "REGRESSION: {} workers={} is {factor:.1}x slower than baseline \
                 ({} ns vs {} ns)",
                s.workload, s.workers, s.min_ns, b.min_ns
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut engine = Engine::default();
    let mut cold_start = false;
    let mut widths_arg: Option<Vec<u32>> = None;
    let mut streams_n: Option<usize> = None;
    let mut out_path: Option<String> = None;
    let mut before_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut timeline = false;
    let mut profile = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--cold-start" => cold_start = true,
            "--timeline" => timeline = true,
            "--profile" => profile = true,
            "--widths" => {
                i += 1;
                let parsed: Result<Vec<u32>, _> =
                    args[i].split(',').map(|s| s.trim().parse::<u32>()).collect();
                match parsed {
                    Ok(ws) if ws.len() >= 2 && ws.iter().all(|&w| w >= 1) => {
                        widths_arg = Some(ws);
                    }
                    _ => {
                        eprintln!(
                            "--widths expects a comma-separated list of at least two \
                             positive warp widths (e.g. 4,8,16)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--streams" => {
                i += 1;
                let n: usize = args[i].parse().unwrap_or(0);
                if n == 0 {
                    eprintln!("--streams expects a positive stream count");
                    std::process::exit(2);
                }
                streams_n = Some(n);
            }
            "--engine" => {
                i += 1;
                engine = match Engine::parse(args[i].as_str()) {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("--engine: {e}");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            "--before" => {
                i += 1;
                before_path = Some(args[i].clone());
            }
            "--check" => {
                i += 1;
                check_path = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if timeline || profile {
        dpvk_trace::enable();
    }

    let mut results = Vec::new();
    for name in WORKLOADS {
        for workers in WORKERS {
            let s = bench_one(name, workers, quick, engine);
            eprintln!(
                "{:<14} workers={}  min {:>12} ns  median {:>12} ns  ({} launches)",
                s.workload, s.workers, s.min_ns, s.median_ns, s.launches
            );
            results.push(s);
        }
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|s| {
            vec![
                s.workload.clone(),
                s.workers.to_string(),
                s.min_ns.to_string(),
                s.median_ns.to_string(),
                s.launches.to_string(),
            ]
        })
        .collect();
    println!("\nWarm-launch wall clock (dynamic w4, {} engine), ns per launch", engine.label());
    println!(
        "{}",
        format_table(&["workload", "workers", "min_ns", "median_ns", "launches"], &rows)
    );

    let cold_results = cold_start.then(|| {
        let reps = if quick { 3 } else { 6 };
        let rows: Vec<ColdStartSample> =
            WORKLOADS.iter().map(|name| bench_cold_start(name, reps, engine)).collect();
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|s| {
                vec![
                    s.workload.clone(),
                    s.cold_ns.to_string(),
                    s.warm_ns.to_string(),
                    format!("{:.2}x", s.speedup),
                ]
            })
            .collect();
        println!(
            "\nCold start vs warm restart ({} engine), first-launch ns on a fresh device",
            engine.label()
        );
        println!(
            "{}",
            format_table(&["workload", "cold_ns", "warm_restart_ns", "speedup"], &table)
        );
        rows
    });

    let adaptive_results = widths_arg.map(|widths| {
        let rows: Vec<AdaptiveSample> =
            WORKLOADS.iter().map(|name| bench_widths(name, &widths, quick, engine)).collect();
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|s| {
                let sweep = s
                    .widths
                    .iter()
                    .map(|w| format!("w{}:{}", w.width, w.median_ns))
                    .collect::<Vec<_>>()
                    .join(" ");
                vec![
                    s.workload.clone(),
                    sweep,
                    format!("w{}", s.static_best_width),
                    format!("w{}", s.adaptive_start_width),
                    if s.adaptive_chosen_width == 0 {
                        "-".to_string()
                    } else {
                        format!("w{}", s.adaptive_chosen_width)
                    },
                    s.adaptive_ns.to_string(),
                    s.respec_events.to_string(),
                ]
            })
            .collect();
        println!(
            "\nWidth sweep ({} engine): static median ns per width vs adaptive policy",
            engine.label()
        );
        println!(
            "{}",
            format_table(
                &["workload", "static_ns", "best", "start", "chosen", "adaptive_ns", "respecs"],
                &table
            )
        );
        rows
    });

    let streams_report = streams_n.map(|n| {
        let r = bench_streams(n, quick, engine);
        eprintln!(
            "stream latency: submit-to-complete min {} ns, median {} ns ({} launches)",
            r.latency_min_ns, r.latency_median_ns, r.latency_launches
        );
        let rows: Vec<Vec<String>> = r
            .throughput
            .iter()
            .map(|s| {
                vec![
                    s.streams.to_string(),
                    s.launches.to_string(),
                    format!("{:.1}", s.launches_per_sec),
                ]
            })
            .collect();
        println!(
            "\nStream throughput ({} engine, throughput kernel, w4 workers=1)",
            engine.label()
        );
        println!("{}", format_table(&["streams", "launches", "launches_per_sec"], &rows));
        println!("multi-stream speedup: {:.2}x ({n} streams vs 1)", r.multi_stream_speedup);
        r
    });

    let before = before_path.map(|p| {
        let b = read_results(&p);
        assert!(!b.is_empty(), "no result lines found in --before file");
        b
    });
    if let Some(path) = out_path {
        std::fs::write(
            &path,
            render_json(
                before.as_deref(),
                &results,
                engine,
                &HostInfo::capture(),
                streams_report.as_ref(),
                cold_results.as_deref(),
                adaptive_results.as_deref(),
            ),
        )
        .expect("write --out file");
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        if !check_against(&path, &results) {
            std::process::exit(1);
        }
        println!("perf check vs {path}: within {REGRESSION_FACTOR}x");
    }

    if profile {
        let total = dpvk_trace::profile::total_cycles();
        let hotspots = dpvk_trace::profile::hotspots(10);
        println!("\nµop hotspots (top {} rows, {total} modeled cycles attributed)", hotspots.len());
        let rows: Vec<Vec<String>> = hotspots
            .iter()
            .map(|h| {
                let pct = if total == 0 { 0.0 } else { 100.0 * h.cycles as f64 / total as f64 };
                vec![
                    h.kernel.clone(),
                    format!("w{} {}", h.warp_size, h.variant),
                    h.path.to_string(),
                    h.uop.to_string(),
                    h.hits.to_string(),
                    h.cycles.to_string(),
                    format!("{pct:.1}%"),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(&["kernel", "spec", "path", "µop", "hits", "cycles", "share"], &rows)
        );
        let path = dpvk_trace::profile::default_folded_path();
        dpvk_trace::profile::write_folded(&path).expect("write µop profile");
        println!("µop profile: {} (collapsed stacks, flamegraph input)", path.display());
    }
    if timeline {
        let path = dpvk_trace::timeline::default_timeline_path();
        dpvk_trace::timeline::write_chrome_trace(&path).expect("write timeline");
        println!("timeline: {} (load in Perfetto / chrome://tracing)", path.display());
    }
}
