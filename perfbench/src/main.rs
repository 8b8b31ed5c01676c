//! End-to-end and per-layer benchmark of dpvk.
//!
//! ```text
//! perfbench --workload <launch|compile|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <args>`.
//! Each workload builds its inputs from the seed, checks every output
//! against a reference the engine under test did not produce, and prints
//! one metric per line (value, unit, sample count) followed by a one-line
//! JSON summary. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! is a separate run that records the benchmark's spans around each call
//! into a layer and reports the per-layer metrics. The process exits
//! non-zero on any wrong output or typed error.
//!
//! See `perfbench/README.md` for what each workload and metric means.

mod compile;
mod kernels;
mod launch;
mod ledger;
mod openloop;
mod report;
mod serve;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dpvk_core::Engine;

use report::Report;
use spans::Tracer;

/// The tail percentile every workload lists, and its name. Across ten
/// seeded 30 s runs on a shared 2-vCPU host, p99 spread by 12% (compile)
/// to 22% (launch) of its median, p95 by 6% to 18%.
pub const TAIL_Q: f64 = 0.95;
/// Name of the listed tail metric.
pub const TAIL_METRIC: &str = "op_p95_ms";

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 11;

/// What one run needs: its arguments, the engine, a run-private scratch
/// directory, the span recorder and the report being filled.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured window.
    pub window: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Host parallelism.
    pub nproc: usize,
    /// The in-process engine: the JIT where the host supports it.
    pub engine: Engine,
    /// Run-private scratch directory, removed when the run ends.
    pub tmp: PathBuf,
    /// The benchmark's own spans (recording only when `trace`).
    pub tracer: Tracer,
    /// The result being built.
    pub report: Report,
}

/// An input stream for one purpose, derived from the run's seed, so
/// that streams do not overlap and each depends only on the seed.
pub fn seeded(seed: u64, purpose: &str) -> dpvk_workloads::Prng {
    // FNV-1a of the purpose.
    let h = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    dpvk_workloads::Prng::new(seed ^ h)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut dpvk_workloads::Prng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range_u32(i as u32 + 1) as usize);
    }
    p
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Removes the run-private scratch directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    // Before any thread exists: no inherited setting may change what the
    // program under test does.
    let scrubbed = sys::scrub_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <launch|compile|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run: fn(&mut Ctx) = match args.workload.as_str() {
        "launch" => launch::run,
        "compile" => compile::run,
        "serve" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (launch, compile, serve)");
            return ExitCode::from(2);
        }
    };
    // Reports and scratch state live next to the benchmark's sources,
    // wherever it is run from.
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let tmp = out_dir.join(format!("run-{}-{}", std::process::id(), args.seed));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let _cleanup = TmpDir(tmp.clone());
    let nproc = sys::nproc();
    let engine = if dpvk_vm::jit_supported() { Engine::Jit } else { Engine::Bytecode };
    let mut ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        nproc,
        engine,
        tmp,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
    };
    let r = &mut ctx.report;
    r.note("workload", &args.workload);
    r.note("seed", args.seed);
    r.note("seconds", args.seconds);
    r.note("trace", u8::from(args.trace));
    r.note("nproc", nproc);
    // Every workload drives the program from this one thread.
    r.note("benchmark_threads", 1);
    r.note("cpu", sys::cpu_model());
    r.note("commit", sys::commit());
    r.note("rustc", sys::rustc_version());
    r.note("scrubbed_env", if scrubbed.is_empty() { "none".into() } else { scrubbed.join(",") });

    run(&mut ctx);

    let report = &mut ctx.report;
    let peak = sys::peak_rss_mb();
    if args.trace {
        report.detail("peak_rss_mb", peak, "MiB", 1);
    } else {
        report.metric("peak_rss_mb", peak, "MiB", 1);
    }
    ledger::complete(report, args.trace);
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, report.to_json(&ctx.tracer.to_json())) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
