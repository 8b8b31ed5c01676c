//! `compile`: every `dpvk-workloads` kernel compiled on a fresh device
//! over an empty, run-private persistent-cache directory (the cold
//! sample), then again on a second fresh device over the directory just
//! filled (the restart). Each timed span runs from `register_source` to
//! the return of `TranslationCache::get` plus `CompiledKernel::jit` for
//! every width and variant a `dynamic(4)` launch of the kernel requests.

use std::path::Path;
use std::time::Instant;

use dpvk_core::{
    AdaptConfig, CoreError, Device, Engine, ExecConfig, PersistConfig, SpecializeOptions, Variant,
};
use dpvk_vm::{BytecodeProgram, CostInfo, FrameLayout, MachineModel};
use dpvk_workloads::{all_workloads, Workload};

use crate::spans::Tracer;
use crate::stats::{median, summarize};
use crate::{Ctx, SETUP_REPS, TAIL_METRIC};

const HEAP_BYTES: usize = 64 << 20;

/// One kernel source and the specializations a `dynamic(4)` launch of
/// each of its kernels requests.
struct Plan {
    workload: Box<dyn Workload>,
    source: String,
    kernels: Vec<(String, Vec<(u32, Variant)>)>,
}

impl Plan {
    fn specializations(&self) -> usize {
        self.kernels.iter().map(|(_, w)| w.len()).sum()
    }
}

/// Learn, per source, which widths and variants a validated launch
/// requests, on a device with persistence off.
fn make_plans(cfg: &ExecConfig) -> Result<Vec<Plan>, String> {
    let mut plans = Vec::new();
    for workload in all_workloads() {
        let source = workload.source();
        let name = workload.name();
        let module = dpvk_ptx::parse_module(&source).map_err(|e| format!("{name}: parse: {e}"))?;
        let dev = Device::with_persist(MachineModel::sandybridge_sse(), HEAP_BYTES, None);
        dev.register_source(&source).map_err(|e| format!("{name}: register: {e}"))?;
        workload.run(&dev, cfg).map_err(|e| format!("{name}: plan run: {e}"))?;
        let kernels = module
            .kernels
            .iter()
            .map(|k| (k.name.clone(), dev.cache().observed_widths(&k.name)))
            .collect();
        plans.push(Plan { workload, source, kernels });
    }
    Ok(plans)
}

/// Span names of one timed pass.
struct Pass {
    root: &'static str,
    register: &'static str,
    get: &'static str,
    jit: &'static str,
}

const COLD: Pass =
    Pass { root: "compile.cold", register: "cold.register", get: "cold.get", jit: "cold.jit" };
const RESTART: Pass = Pass {
    root: "compile.restart",
    register: "restart.register",
    get: "restart.get",
    jit: "restart.jit",
};

/// The timed calls: register the source, then fetch (compiling or
/// rehydrating) every planned specialization and its native code.
fn compile_calls(
    dev: &Device,
    plan: &Plan,
    engine: Engine,
    tracer: &mut Tracer,
    pass: &Pass,
    id: u64,
) -> Result<(), CoreError> {
    tracer.span(pass.register, id, || dev.register_source(&plan.source))?;
    for (kernel, widths) in &plan.kernels {
        for &(w, v) in widths {
            let compiled = tracer.span(pass.get, id, || dev.cache().get(kernel, w, v))?;
            if engine == Engine::Jit {
                tracer.span(pass.jit, id, || {
                    std::hint::black_box(compiled.jit(kernel));
                });
            }
        }
    }
    Ok(())
}

/// Time one pass on a fresh device over `dir`; returns the device and
/// the pass's wall time in ms.
fn timed_pass(
    dir: &Path,
    plan: &Plan,
    engine: Engine,
    tracer: &mut Tracer,
    pass: &Pass,
    id: u64,
) -> Result<(Device, f64), CoreError> {
    let dev = Device::with_persist(
        MachineModel::sandybridge_sse(),
        HEAP_BYTES,
        Some(PersistConfig::at(dir)),
    );
    tracer.begin(pass.root, id);
    let t0 = Instant::now();
    let r = compile_calls(&dev, plan, engine, tracer, pass, id);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.end();
    r.map(|()| (dev, ms))
}

fn options(variant: Variant, width: u32) -> SpecializeOptions {
    match variant {
        Variant::Baseline => SpecializeOptions::baseline(),
        Variant::Dynamic => SpecializeOptions::dynamic(width),
        Variant::StaticTie if width == 1 => SpecializeOptions::baseline(),
        Variant::StaticTie => SpecializeOptions::static_tie(width),
    }
}

/// Counts from the direct stage calls of the traced run.
#[derive(Default)]
struct StageCounts {
    specializations: u64,
    pre_opt: u64,
    post_opt: u64,
    uops: u64,
    code_bytes: u64,
    jit_programs: u64,
}

/// The traced run's stage pass: the same work the cache does on a cold
/// miss, called stage by stage through each layer's public function.
fn stage_pass(
    plan: &Plan,
    engine: Engine,
    tracer: &mut Tracer,
    id: u64,
    counts: &mut StageCounts,
) -> Result<(), CoreError> {
    let model = MachineModel::sandybridge_sse();
    tracer.begin("stages", id);
    let r = (|| {
        let module = tracer.span("ptx.parse", id, || -> Result<_, CoreError> {
            let m = dpvk_ptx::parse_module(&plan.source)?;
            m.kernels.iter().try_for_each(dpvk_ptx::validate_kernel)?;
            Ok(m)
        })?;
        for (kernel, widths) in &plan.kernels {
            let k = module.kernels.iter().find(|k| &k.name == kernel).expect("plan kernel parsed");
            let tk = tracer.span("translate", id, || dpvk_core::translate(k))?;
            for &(w, v) in widths {
                let spec =
                    tracer.span("vectorize", id, || dpvk_core::specialize(&tk, &options(v, w)))?;
                counts.specializations += 1;
                counts.pre_opt += spec.pre_opt_instructions as u64;
                counts.post_opt += spec.post_opt_instructions as u64;
                let f = &spec.function;
                let (info, layout) = tracer
                    .span("vm.cost", id, || (CostInfo::analyze(f, &model), FrameLayout::of(f)));
                let prog = tracer
                    .span("decode", id, || BytecodeProgram::decode(f, &layout, &model, &info));
                counts.uops += prog.stats.ops;
                if engine == Engine::Jit {
                    if let Some(jit) = tracer.span("jit.emit", id, || dpvk_vm::jit_compile(&prog)) {
                        counts.code_bytes += jit.emit_stats().code_bytes;
                        counts.jit_programs += 1;
                    }
                }
            }
        }
        Ok(())
    })();
    tracer.end();
    r
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Per-sample bookkeeping of the traced run.
#[derive(Default)]
struct Ledger {
    cache_compile_ns: u64,
    persist_writes: u64,
    dir_bytes: u64,
    restart_hits: u64,
    restart_misses: u64,
}

/// The `compile` workload.
pub fn run(ctx: &mut Ctx) {
    let cfg = ExecConfig::dynamic(4)
        .with_workers(ctx.nproc)
        .with_engine(ctx.engine)
        .with_adapt(AdaptConfig::off());
    ctx.report.note("engine", ctx.engine.label());
    ctx.report.note("exec_workers", ctx.nproc);

    let mut setup_s = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        match make_plans(&cfg) {
            Ok(p) => plans = p,
            Err(e) => {
                ctx.report.error(format!("set-up: {e}"));
                return;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    ctx.report.note("sources", plans.len());
    ctx.report.note("specializations", plans.iter().map(Plan::specializations).sum::<usize>());

    let mut order = crate::seeded(ctx.seed, "compile order");
    let (mut cold_ms, mut restart_ms) = (Vec::new(), Vec::new());
    let mut counts = StageCounts::default();
    let mut ledger = Ledger::default();
    let mut unattributed_us = Vec::new();
    let start = Instant::now();
    let mut round: Vec<usize> = Vec::new();
    while start.elapsed() < ctx.window {
        if round.is_empty() {
            // A fresh seeded permutation of every source per round.
            round = crate::permutation(plans.len(), &mut order);
        }
        let plan = &plans[round.pop().expect("round refilled above")];
        let id = ctx.report.attempted;
        ctx.report.attempted += 1;
        let dir = ctx.tmp.join(format!("cache-{id}"));
        let mut stages_us = 0.0;
        if ctx.trace {
            let t0 = Instant::now();
            if let Err(e) = stage_pass(plan, ctx.engine, &mut ctx.tracer, id, &mut counts) {
                ctx.report.error(format!("{} stages: {e}", plan.workload.name()));
            }
            stages_us = t0.elapsed().as_secs_f64() * 1e6;
        }
        match sample(ctx, plan, &cfg, &dir, id, &mut ledger) {
            Ok((cold, restart)) => {
                cold_ms.push(cold);
                restart_ms.push(restart);
                unattributed_us.push(cold * 1e3 - stages_us);
            }
            Err(e) => {
                ctx.report.failed += 1;
                ctx.report.error(format!("{} sample {id}: {e}", plan.workload.name()));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let cold = summarize(&cold_ms);
    let restart = summarize(&restart_ms);
    let n = cold.n as u64;
    let setup = median(&setup_s);
    let r = &mut ctx.report;
    if !ctx.trace {
        r.detail("compile_p50_ms", cold.p50, "ms", n);
        r.detail("compile_p95_ms", cold.p95, "ms", n);
        r.detail("compile_p99_ms", cold.p99, "ms", n);
        r.detail("restart_p50_ms", restart.p50, "ms", n);
        r.detail("restart_p95_ms", restart.p95, "ms", n);
        r.detail("restart_p99_ms", restart.p99, "ms", n);
        r.detail("fail_ratio", r.failed as f64 / r.attempted.max(1) as f64, "ratio", r.attempted);
        r.metric("setup_s", setup, "s", SETUP_REPS as u64);
        r.metric("op_p50_ms", cold.p50, "ms", n);
        r.metric(TAIL_METRIC, cold.p95, "ms", n);
        r.metric("ops_per_s", 1e3 / restart.p50, "1/s", n);
        return;
    }
    let totals = ctx.tracer.totals();
    let per_sample =
        |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3) / n.max(1) as f64;
    let specs = counts.specializations.max(1) as f64;
    r.detail("setup_s", setup, "s", SETUP_REPS as u64);
    r.metric("ptx.parse_us", per_sample("ptx.parse"), "us", n);
    r.metric("translate.us", per_sample("translate"), "us", n);
    r.metric("vectorize.us", per_sample("vectorize"), "us", n);
    r.metric("vectorize.insts", counts.post_opt as f64 / specs, "count", counts.specializations);
    r.metric(
        "ir.opt_removed_ratio",
        1.0 - counts.post_opt as f64 / counts.pre_opt.max(1) as f64,
        "ratio",
        counts.specializations,
    );
    r.metric("decode.us", per_sample("decode"), "us", n);
    r.metric("decode.uops", counts.uops as f64 / specs, "count", counts.specializations);
    r.metric("jit.emit_us", per_sample("jit.emit"), "us", n);
    r.metric(
        "jit.code_bytes",
        counts.code_bytes as f64 / counts.jit_programs.max(1) as f64,
        "bytes",
        counts.jit_programs,
    );
    r.metric("cache.compile_us", ledger.cache_compile_ns as f64 / 1e3 / n.max(1) as f64, "us", n);
    r.metric("cache.unattributed_us", crate::stats::mean(&unattributed_us), "us", n);
    r.metric("persist.writes", ledger.persist_writes as f64 / n.max(1) as f64, "count", n);
    r.metric("persist.dir_bytes", ledger.dir_bytes as f64 / n.max(1) as f64, "bytes", n);
    let lookups = ledger.restart_hits + ledger.restart_misses;
    r.metric(
        "persist.restart_hit_ratio",
        ledger.restart_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups,
    );
    r.metric("jit.restart_emit_us", per_sample(RESTART.jit), "us", n);
}

/// One cold sample and its restart, each validated afterwards by an
/// untimed `Workload::run` on the device that compiled it. Returns the
/// two wall times in ms.
fn sample(
    ctx: &mut Ctx,
    plan: &Plan,
    cfg: &ExecConfig,
    dir: &Path,
    id: u64,
    ledger: &mut Ledger,
) -> Result<(f64, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (cold_dev, cold_ms) = timed_pass(dir, plan, ctx.engine, &mut ctx.tracer, &COLD, id)
        .map_err(|e| format!("cold compile: {e}"))?;
    let cs = cold_dev.cache_stats();
    ledger.cache_compile_ns += cs.compile_ns;
    ledger.persist_writes += cs.persist_writes;
    ledger.dir_bytes += dir_bytes(dir);
    plan.workload.run(&cold_dev, cfg).map_err(|e| format!("cold validation: {e}"))?;
    drop(cold_dev);

    let (warm_dev, restart_ms) = timed_pass(dir, plan, ctx.engine, &mut ctx.tracer, &RESTART, id)
        .map_err(|e| format!("restart: {e}"))?;
    let ws = warm_dev.cache_stats();
    ledger.restart_hits += ws.persist_hits;
    ledger.restart_misses += ws.persist_misses;
    plan.workload.run(&warm_dev, cfg).map_err(|e| format!("restart validation: {e}"))?;
    Ok((cold_ms, restart_ms))
}
