//! The per-warp execution-manager loop that pass-granular execution
//! replaced, kept verbatim as the behavioral reference (the
//! `gather_reference` idiom of `exec/gather.rs`), and the differential
//! tests that hold [`run_cta`](super::run_cta) to it: warps, modeled
//! cycles, every statistic, cache tallies, output bytes, errors and
//! stop points must all match.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use dpvk_ir::ResumeStatus;
use dpvk_ptx::{parse_module, ScalarType};
use dpvk_vm::{
    execute_warp_bytecode, execute_warp_framed, execute_warp_jit, CancelToken, ExecLimits,
    GlobalMem, MachineModel, MemAccess, ThreadContext, VmError,
};

use super::super::gather::gather_timed;
use super::super::job::{self, LaunchJob, LaunchRequest};
use super::super::stats::LaunchStats;
use super::super::{boundary_fault, warp_fault, Engine, ExecConfig, FormationPolicy};
use super::{WorkerPool, WorkerScratch};
use crate::cache::{TranslationCache, Variant};
use crate::error::CoreError;

/// Execute all threads of one CTA to completion.
pub(super) fn run_cta_reference(
    job: &LaunchJob,
    cta_flat: u32,
    stats: &mut LaunchStats,
    scratch: &mut WorkerScratch,
) -> Result<(), CoreError> {
    #[cfg(feature = "fault-inject")]
    crate::faults::maybe_panic(cta_flat);

    let req = &job.req;
    let kernel = req.kernel.as_str();
    let tk = &job.tk;
    let config = &req.config;
    let cancel = &req.token;
    let grid = req.grid;
    let block = req.block;
    let global: &GlobalMem = &req.global;

    let cta_size = (block[0] * block[1] * block[2]) as usize;
    let ctaid =
        [cta_flat % grid[0], (cta_flat / grid[0]) % grid[1], cta_flat / (grid[0] * grid[1])];

    // Build thread contexts.
    let mut ready: VecDeque<ThreadContext> = VecDeque::with_capacity(cta_size);
    for tz in 0..block[2] {
        for ty in 0..block[1] {
            for tx in 0..block[0] {
                let mut ctx = ThreadContext::new([tx, ty, tz], block, ctaid, grid);
                let flat = ctx.flat_tid() as usize;
                ctx.local_base = (flat * tk.local_bytes) as u64;
                ready.push_back(ctx);
            }
        }
    }

    let mut shared = vec![0u8; tk.shared_bytes.max(1)];
    let mut local = vec![0u8; (tk.local_bytes * cta_size).max(1)];
    let mut barrier_pool: Vec<ThreadContext> = Vec::new();
    let mut exited: usize = 0;
    let mut scan_total: u64 = 0;
    let tracing = dpvk_trace::enabled();
    // The interpreter polls on an instruction stride; this boundary check
    // covers short warp calls that retire before the first poll.
    let polling = config.limits.deadline.is_some();

    #[cfg(feature = "fault-inject")]
    let mut injected_fault_pending = crate::faults::injected_warp_fault(cta_flat);

    while let Some(front) = ready.front() {
        let rp = front.resume_point;
        if cancel.is_cancelled() {
            return Err(boundary_fault(kernel, cta_flat, VmError::Cancelled));
        }
        if polling {
            if let Some(deadline) = config.limits.deadline {
                if Instant::now() >= deadline {
                    return Err(boundary_fault(kernel, cta_flat, VmError::Deadline));
                }
            }
        }
        // Gather a warp (round-robin from the queue head, greedy collect of
        // matching resume points).
        let scanned = gather_timed(
            &mut ready,
            rp,
            config,
            &mut scratch.warp,
            &mut scratch.kept,
            &mut scratch.gather,
        );
        stats.exec.cycles_manager +=
            config.em_cost.formation_base + config.em_cost.per_thread_scanned * scanned as u64;
        scan_total += scanned as u64;

        // Pick the widest available specialization.
        let (w, variant) = match config.policy {
            FormationPolicy::ScalarBaseline => (1u32, Variant::Baseline),
            FormationPolicy::Dynamic => {
                let mut w = config.max_warp;
                while w as usize > scratch.warp.len() {
                    w /= 2;
                }
                (w.max(1), Variant::Dynamic)
            }
            FormationPolicy::Static => {
                if scratch.warp.len() == config.max_warp as usize && config.max_warp > 1 {
                    (config.max_warp, Variant::StaticTie)
                } else {
                    (1, Variant::StaticTie)
                }
            }
        };
        stats.exec.cycles_manager += config.em_cost.per_cache_query;
        // Degrade instead of failing: a specialization that cannot
        // compile falls back to the width-1 scalar baseline. Entry-point
        // numbering is shared across variants (assigned in `translate`),
        // so baseline warps resume mid-grid safely.
        let host_t = tracing.then(Instant::now);
        let (compiled, downgraded) = scratch.dispatch.resolve(kernel, tk, w, variant)?;
        if let Some(t) = host_t {
            dpvk_trace::add(dpvk_trace::Counter::HostDispatchNs, t.elapsed().as_nanos() as u64);
        }
        let w = if downgraded {
            stats.exec.downgraded_warps += 1;
            1
        } else {
            w
        };
        // Return surplus threads to the queue head (they keep priority).
        while scratch.warp.len() > w as usize {
            let ctx = scratch.warp.pop().expect("warp longer than w");
            ready.push_front(ctx);
        }

        #[cfg(feature = "fault-inject")]
        if let Some(vm_err) = injected_fault_pending.take() {
            return Err(warp_fault(kernel, cta_flat, rp, &scratch.warp, vm_err));
        }
        #[cfg(feature = "fault-inject")]
        crate::faults::maybe_slow_warp(cta_flat);

        // Resolve the native code for this specialization up front (the
        // first warp pays the emit; the rest hit the per-kernel cache).
        // `None` — unsupported host or no native lowering — degrades the
        // warp to the bytecode engine.
        let jit = match config.engine {
            Engine::Jit => compiled.jit(kernel),
            Engine::Bytecode | Engine::Tree => None,
        };
        // Count the dispatch before executing: a warp that faults or is
        // cancelled mid-body was still dispatched to its engine.
        if tracing {
            let engine_counter = match config.engine {
                Engine::Bytecode => dpvk_trace::Counter::WarpsBytecode,
                Engine::Tree => dpvk_trace::Counter::WarpsTree,
                Engine::Jit if jit.is_some() => dpvk_trace::Counter::WarpsJit,
                Engine::Jit => {
                    dpvk_trace::add(dpvk_trace::Counter::JitFallbackWarps, 1);
                    dpvk_trace::Counter::WarpsBytecode
                }
            };
            dpvk_trace::add(engine_counter, 1);
        }
        let mut mem = MemAccess {
            global,
            shared: &mut shared,
            local: &mut local,
            param: &req.param,
            cbank: &req.cbank,
        };
        let outcome = match (config.engine, jit) {
            (Engine::Jit, Some(jit)) => execute_warp_jit(
                jit,
                &compiled.bytecode,
                &mut scratch.frame,
                &mut scratch.warp,
                rp,
                &mut mem,
                &mut stats.exec,
                &config.limits,
                Some(cancel),
            ),
            (Engine::Bytecode | Engine::Jit, _) => execute_warp_bytecode(
                &compiled.bytecode,
                &mut scratch.frame,
                &mut scratch.warp,
                rp,
                &mut mem,
                &mut stats.exec,
                &config.limits,
                Some(cancel),
            ),
            (Engine::Tree, _) => execute_warp_framed(
                &compiled.function,
                &compiled.frame,
                &mut scratch.frame,
                &compiled.cost,
                req.cache.model(),
                &mut scratch.warp,
                rp,
                &mut mem,
                &mut stats.exec,
                &config.limits,
                Some(cancel),
            ),
        }
        .map_err(|e| {
            if matches!(e, VmError::Cancelled | VmError::Deadline) {
                stats.exec.cancelled_warps += 1;
            }
            warp_fault(kernel, cta_flat, rp, &scratch.warp, e)
        })?;
        if (w as usize) < stats.warp_hist.len() {
            stats.warp_hist[w as usize] += 1;
        }
        if tracing {
            dpvk_trace::record_warp_entry(w, std::mem::take(&mut scan_total));
            let reason = match outcome.status {
                ResumeStatus::Exit => dpvk_trace::YieldReason::Exit,
                ResumeStatus::Branch => dpvk_trace::YieldReason::Branch,
                ResumeStatus::Barrier => dpvk_trace::YieldReason::Barrier,
            };
            dpvk_trace::record_yield(kernel, rp.max(0) as u32, reason, w);
        }

        stats.exec.cycles_manager += config.em_cost.per_yield_thread * w as u64;
        match outcome.status {
            ResumeStatus::Exit => {
                exited += scratch.warp.len();
                scratch.warp.clear();
            }
            ResumeStatus::Branch => {
                for ctx in scratch.warp.drain(..) {
                    if ctx.is_terminated() {
                        exited += 1;
                    } else {
                        ready.push_back(ctx);
                    }
                }
            }
            ResumeStatus::Barrier => {
                stats.exec.cycles_manager += config.em_cost.per_barrier_thread * w as u64;
                barrier_pool.append(&mut scratch.warp);
            }
        }

        // Barrier release: when every live thread has arrived, everyone
        // resumes at the continuation entry point.
        let alive = cta_size - exited;
        if !barrier_pool.is_empty() && barrier_pool.len() == alive {
            stats.exec.cycles_manager +=
                config.em_cost.per_barrier_thread * barrier_pool.len() as u64;
            ready.extend(barrier_pool.drain(..));
        }
    }

    if !barrier_pool.is_empty() {
        return Err(CoreError::BadLaunch(format!(
            "barrier deadlock in kernel `{kernel}`: {} thread(s) waiting, {} exited",
            barrier_pool.len(),
            exited
        )));
    }
    Ok(())
}

/// Everything one launch leaves behind that the two loops must agree
/// on.
#[derive(Debug)]
struct Observed {
    result: Result<LaunchStats, CoreError>,
    /// Stats merged over every chunk, failed ones included.
    settled: LaunchStats,
    /// Per-chunk first unfinished CTA.
    stopped: Vec<Option<u32>>,
    memory: Vec<u8>,
    /// (hits, misses, downgrades, spec_failures) after the launch.
    cache: (u64, u64, u64, u64),
    /// Per-width (width, variant, hits, warps) after the launch.
    widths: Vec<(u32, Variant, u64, u64)>,
}

/// Assert two observations agree, field by field (memory images are
/// reported by their first differing byte, not dumped).
fn assert_same(got: &Observed, want: &Observed, what: &str) {
    assert_eq!(got.result, want.result, "{what}: launch result");
    assert_eq!(got.settled, want.settled, "{what}: settled stats");
    assert_eq!(got.stopped, want.stopped, "{what}: stop points");
    assert_eq!(got.cache, want.cache, "{what}: cache (hits, misses, downgrades, failures)");
    assert_eq!(got.widths, want.widths, "{what}: per-width tallies");
    let diff = got.memory.iter().zip(&want.memory).position(|(a, b)| a != b);
    assert_eq!(diff, None, "{what}: memory images differ at this byte");
}

/// One kernel launch shape with a generic argument image.
struct Case {
    kernel: String,
    grid: [u32; 3],
    block: [u32; 3],
    param: Vec<u8>,
    memory: Vec<u8>,
}

/// Bytes per pointer argument's region of the global image.
const REGION: usize = 16 << 10;

/// A launch of `kernel` (from `src`) with every pointer argument aimed
/// at its own region of a small global image, every `u32` argument 64
/// and every float argument 0.5; the image holds small integers, so
/// data-derived indices stay mostly in bounds. The loops under test run
/// the same engines, so any input is a fair differential input — a
/// faulting launch must fault identically.
fn generic_case(src: &str, kernel: &str, grid: [u32; 3], block: [u32; 3]) -> Case {
    let module = parse_module(src).expect("workload source parses");
    let k = module.kernels.iter().find(|k| k.name == kernel).expect("kernel in module");
    let size = k.params.iter().map(|p| p.offset + p.ty.size_bytes()).max().unwrap_or(0);
    let mut param = vec![0u8; size];
    let mut regions = 0usize;
    for p in &k.params {
        let bytes: Vec<u8> = match p.ty {
            ScalarType::U64 | ScalarType::S64 | ScalarType::B64 => {
                regions += 1;
                (((regions - 1) * REGION) as u64).to_le_bytes().to_vec()
            }
            ScalarType::F32 => 0.5f32.to_le_bytes().to_vec(),
            ScalarType::F64 => 0.5f64.to_le_bytes().to_vec(),
            _ => 64u32.to_le_bytes()[..p.ty.size_bytes()].to_vec(),
        };
        param[p.offset..p.offset + bytes.len()].copy_from_slice(&bytes);
    }
    let words = regions.max(1) * REGION / 4;
    let memory = (0..words).flat_map(|i| (((i * 7 + 3) % 64) as u32).to_le_bytes()).collect();
    Case { kernel: kernel.to_string(), grid, block, param, memory }
}

/// Launch `case` on a private one-worker pool through the pass loop or
/// the reference loop and collect what it left behind.
fn observe(
    pool: &WorkerPool,
    cache: &TranslationCache,
    case: &Case,
    config: &ExecConfig,
    token: CancelToken,
    reference: bool,
) -> Observed {
    let global = GlobalMem::new(case.memory.len());
    global.copy_in(0, &case.memory).unwrap();
    let req = LaunchRequest {
        cache: cache.clone(),
        kernel: case.kernel.clone(),
        grid: case.grid,
        block: case.block,
        param: case.param.clone(),
        cbank: Vec::new(),
        global: Arc::clone(&global),
        config: *config,
        token,
        policy: None,
    };
    job::REFERENCE_LOOP.with(|r| r.set(reference));
    let submitted = job::submit(pool, req, None, None);
    job::REFERENCE_LOOP.with(|r| r.set(false));
    let (result, settled, stopped) = match submitted {
        Ok(handle) => {
            let result = handle.wait();
            let (settled, stopped) = handle.job.settled();
            (result, settled, stopped)
        }
        Err(e) => (Err(e), LaunchStats::default(), Vec::new()),
    };
    let mut memory = vec![0u8; case.memory.len()];
    global.copy_out(0, &mut memory).unwrap();
    let s = cache.stats();
    let widths = cache
        .width_stats(&case.kernel)
        .into_iter()
        .map(|w| (w.width, w.variant, w.hits, w.warps))
        .collect();
    Observed {
        result,
        settled,
        stopped,
        memory,
        cache: (s.hits, s.misses, s.downgrades, s.spec_failures),
        widths,
    }
}

/// The configurations every kernel is checked under.
fn configs() -> Vec<ExecConfig> {
    let mut out = vec![ExecConfig::baseline()];
    out.extend([1, 2, 4, 8].map(ExecConfig::dynamic));
    out.extend([2, 4, 8].map(ExecConfig::static_tie));
    out
}

/// Run every config × engine of `case` through both loops — each on
/// its own cache, so cache tallies accumulate identically — and
/// assert they agree after every launch. `prepare` runs on each fresh
/// cache (to force downgrades).
fn assert_loops_agree(
    src: &str,
    case: &Case,
    limits: ExecLimits,
    prepare: &dyn Fn(&TranslationCache),
) {
    // Another test's fault plan must not land on one loop's run only.
    #[cfg(feature = "fault-inject")]
    let _clean = crate::faults::install(crate::faults::FaultPlan::default());
    compare_loops(src, case, limits, prepare);
}

/// [`assert_loops_agree`] under whatever fault plan the caller holds.
fn compare_loops(src: &str, case: &Case, limits: ExecLimits, prepare: &dyn Fn(&TranslationCache)) {
    let pool = WorkerPool::new(1);
    let fresh = || {
        let cache = TranslationCache::with_persist(MachineModel::sandybridge_sse(), None);
        cache.register_module(&parse_module(src).unwrap());
        prepare(&cache);
        cache
    };
    let (ref_cache, pass_cache) = (fresh(), fresh());
    for engine in [Engine::Bytecode, Engine::Tree, Engine::Jit] {
        for config in configs() {
            let mut config = config.with_engine(engine).with_workers(2);
            config.limits = limits;
            let want = observe(&pool, &ref_cache, case, &config, CancelToken::new(), true);
            let got = observe(&pool, &pass_cache, case, &config, CancelToken::new(), false);
            let what = format!(
                "{} grid {:?} block {:?} {:?} w{} on {}",
                case.kernel,
                case.grid,
                case.block,
                config.policy,
                config.max_warp,
                engine.label()
            );
            assert_same(&got, &want, &what);
        }
    }
}

/// Small enough to trip runaway data-dependent loops quickly, large
/// enough for every workload's honest warp bodies.
fn test_limits() -> ExecLimits {
    ExecLimits { max_instructions: 200_000, ..ExecLimits::default() }
}

#[test]
fn pass_loop_matches_reference_on_every_workload() {
    let workloads = dpvk_workloads::all_workloads();
    assert_eq!(workloads.len(), 22);
    for w in &workloads {
        let src = w.source();
        let module = parse_module(&src).unwrap();
        for k in &module.kernels {
            // A 1-D CTA, and a 2-D one whose size (36) is not a multiple
            // of any width above 2.
            for (grid, block) in [([3, 1, 1], [64, 1, 1]), ([3, 1, 1], [12, 3, 1])] {
                let case = generic_case(&src, &k.name, grid, block);
                assert_loops_agree(&src, &case, test_limits(), &|_| {});
            }
        }
    }
}

#[test]
fn pass_loop_matches_reference_on_downgraded_specializations() {
    let w = dpvk_workloads::all_workloads().into_iter().find(|w| w.name() == "reduction").unwrap();
    let src = w.source();
    let module = parse_module(&src).unwrap();
    let name = module.kernels[0].name.clone();
    let case = generic_case(&src, &name, [3, 1, 1], [64, 1, 1]);
    assert_loops_agree(&src, &case, test_limits(), &|cache| {
        for width in [2, 4, 8] {
            cache.fail_specialization(&name, width, Variant::Dynamic);
        }
        cache.fail_specialization(&name, 4, Variant::StaticTie);
    });
}

/// Threads that branch back to the resume point their pass runs at
/// re-enter the ready queue *behind* the pass, so the tail of the pass
/// would gather them: the pass must hand over to the gather path there.
const LOOP_BACK: &str = r#"
.kernel loop_back (.param .u64 out) {
  .reg .u32 %r<6>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  add.u32 %r1, %r1, 1;
  and.b32 %r2, %r0, 3;
  setp.lt.u32 %p0, %r1, %r2;
  @%p0 bra entry;
  bar.sync 0;
again:
  add.u32 %r3, %r3, 1;
  setp.lt.u32 %p1, %r3, %r2;
  @%p1 bra again;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  add.u32 %r4, %r1, %r3;
  st.global.u32 [%rd1], %r4;
  ret;
}
"#;

#[test]
fn pass_loop_matches_reference_when_branches_loop_back_to_the_pass() {
    for block in [[64, 1, 1], [37, 1, 1], [5, 1, 1]] {
        let case = generic_case(LOOP_BACK, "loop_back", [2, 1, 1], block);
        assert_loops_agree(LOOP_BACK, &case, test_limits(), &|_| {});
    }
}

/// Threads 40 and up store out of bounds: the fault lands mid-pass,
/// after barrier-released passes, on the second chunk's CTA too.
const FAULTS_LATE: &str = r#"
.kernel faults_late (.param .u64 out) {
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  bar.sync 0;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 20;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  setp.lt.u32 %p0, %r0, 40;
  @%p0 bra ok;
  st.global.u32 [%rd1], %r0;
ok:
  ret;
}
"#;

#[test]
fn pass_loop_matches_reference_on_faults_and_watchdog() {
    let case = generic_case(FAULTS_LATE, "faults_late", [3, 1, 1], [64, 1, 1]);
    assert_loops_agree(FAULTS_LATE, &case, test_limits(), &|_| {});
    // A watchdog small enough to trip inside the first warps.
    let w = dpvk_workloads::all_workloads().into_iter().find(|w| w.name() == "nbody").unwrap();
    let src = w.source();
    let name = parse_module(&src).unwrap().kernels[0].name.clone();
    let case = generic_case(&src, &name, [3, 1, 1], [64, 1, 1]);
    let limits = ExecLimits { max_instructions: 300, ..ExecLimits::default() };
    assert_loops_agree(&src, &case, limits, &|_| {});
}

#[test]
fn pass_loop_matches_reference_on_cancelled_and_expired_launches() {
    let w = dpvk_workloads::all_workloads().into_iter().find(|w| w.name() == "scan").unwrap();
    let src = w.source();
    let name = parse_module(&src).unwrap().kernels[0].name.clone();
    let case = generic_case(&src, &name, [3, 1, 1], [64, 1, 1]);
    #[cfg(feature = "fault-inject")]
    let _clean = crate::faults::install(crate::faults::FaultPlan::default());
    let pool = WorkerPool::new(1);
    let fresh = || {
        let cache = TranslationCache::with_persist(MachineModel::sandybridge_sse(), None);
        cache.register_module(&parse_module(&src).unwrap());
        cache
    };
    let (ref_cache, pass_cache) = (fresh(), fresh());
    for config in configs() {
        let config = config.with_workers(2);
        let cancelled = || {
            let t = CancelToken::new();
            t.cancel();
            t
        };
        let want = observe(&pool, &ref_cache, &case, &config, cancelled(), true);
        let got = observe(&pool, &pass_cache, &case, &config, cancelled(), false);
        assert_same(&got, &want, &format!("cancelled, {:?} w{}", config.policy, config.max_warp));
        assert!(got.result.as_ref().is_err_and(CoreError::is_cancelled), "{:?}", got.result);

        let mut expired = config;
        expired.limits.deadline = Some(Instant::now());
        let want = observe(&pool, &ref_cache, &case, &expired, CancelToken::new(), true);
        let got = observe(&pool, &pass_cache, &case, &expired, CancelToken::new(), false);
        assert_eq!(got.result, want.result, "expired, {:?} w{}", config.policy, config.max_warp);
        assert_eq!((&got.settled, &got.stopped), (&want.settled, &want.stopped));
        assert_eq!(got.memory, want.memory);
    }
}

#[cfg(feature = "fault-inject")]
#[test]
fn pass_loop_matches_reference_under_injected_faults() {
    use crate::faults::{install, FaultPlan};
    let w = dpvk_workloads::all_workloads().into_iter().find(|w| w.name() == "scan").unwrap();
    let src = w.source();
    let name = parse_module(&src).unwrap().kernels[0].name.clone();
    let case = generic_case(&src, &name, [3, 1, 1], [64, 1, 1]);
    for plan in [
        FaultPlan { oob_at_cta: Some(1), ..Default::default() },
        FaultPlan { panic_at_cta: Some(2), ..Default::default() },
        FaultPlan { fail_specialize_width: Some(4), ..Default::default() },
    ] {
        let _guard = install(plan);
        compare_loops(&src, &case, test_limits(), &|_| {});
    }
}
