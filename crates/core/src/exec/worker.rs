//! The persistent worker pool: the paper's resident execution managers.
//!
//! Workers are spawned once, with the device, and park on a condition
//! variable when the queue is empty, so the launch hot path performs no thread
//! spawn or join. Each worker owns a [`WorkerScratch`]: warp-formation
//! buffers, an interpreter register frame, and a [`DispatchMemo`] of
//! resolved specializations that now lives as long as the worker does
//! (flushing its statistics tallies at every chunk boundary, so cache
//! stats stay exact and fault-safe, and rebinding when a job arrives
//! from a different cache).
//!
//! Fault isolation: each CTA runs under `catch_unwind` (plus a
//! chunk-level net around the glue), so a panic becomes
//! [`CoreError::WorkerPanic`] on that launch's handle, the launch's own
//! token is tripped, and the worker thread survives to serve the next
//! job — one launch's failure cannot poison its siblings or the pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dpvk_ir::ResumeStatus;
use dpvk_trace::timeline::{self, SpanKind};
use dpvk_vm::{
    execute_warp_framed, BytecodePass, CancelToken, ExecLimits, ExecStats, JitPass, JitProgram,
    MachineModel, MemAccess, RegFrame, ThreadContext, VmError,
};

use crate::cache::{CompiledKernel, TranslationCache, Variant};
use crate::error::CoreError;
use crate::flight;
use crate::sync::Monitor;
use crate::translate::TranslatedKernel;

use super::gather::{gather_timed, pass_formation, GatherTally, PassWarp};
use super::job::{LaunchJob, LaunchRequest};
use super::stats::LaunchStats;
use super::{
    boundary_fault, panic_payload, warp_fault, EmCostModel, Engine, ExecConfig, FormationPolicy,
};

/// One unit of pool work: the `index`-th chunk of `job` (CTAs
/// `index, index + chunks, …`).
struct Chunk {
    job: Arc<LaunchJob>,
    index: usize,
}

/// A queued unit of pool work: a launch chunk, or a detached background
/// task (the adaptive width policy compiles candidate specializations
/// this way, so re-specialization never runs on a launch's critical
/// path).
enum PoolItem {
    Chunk(Chunk),
    Task(Box<dyn FnOnce() + Send>),
}

#[derive(Default)]
struct PoolQueue {
    items: VecDeque<PoolItem>,
    shutdown: bool,
    /// Workers currently executing an item (pool occupancy).
    busy: usize,
}

/// State shared between the pool handle and its worker threads.
pub(crate) struct PoolShared {
    queue: Monitor<PoolQueue>,
    size: usize,
}

impl PoolShared {
    /// Enqueue every chunk of `job` and wake workers. Called at submit
    /// for unordered jobs, and by the retiring worker for the next job
    /// of a stream.
    pub(crate) fn enqueue(&self, job: Arc<LaunchJob>) {
        let n = job.chunks;
        {
            let mut q = self.queue.lock();
            for index in 0..n {
                q.items.push_back(PoolItem::Chunk(Chunk { job: Arc::clone(&job), index }));
            }
        }
        if n == 1 {
            self.queue.notify_one();
        } else {
            self.queue.notify_all();
        }
    }

    /// Enqueue a detached background task; it runs on a pool worker when
    /// one frees up, behind any queued chunks. The pool's drain-on-drop
    /// contract covers tasks too.
    pub(crate) fn submit_task(&self, task: Box<dyn FnOnce() + Send>) {
        {
            let mut q = self.queue.lock();
            q.items.push_back(PoolItem::Task(task));
        }
        self.queue.notify_one();
    }
}

/// A persistent pool of execution-manager threads.
///
/// Dropping the pool is a drain, not an abort: the queue is marked shut
/// down, workers finish every queued chunk (including stream successors
/// promoted along the way), and the threads are joined — so every
/// [`LaunchHandle`](super::LaunchHandle) issued against the pool
/// completes.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `size` parked workers.
    pub(crate) fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(PoolShared { queue: Monitor::new(PoolQueue::default()), size });
        let threads = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dpvk-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    pub(crate) fn shared(&self) -> &PoolShared {
        &self.shared
    }

    /// Number of worker threads.
    pub(crate) fn size(&self) -> usize {
        self.shared.size
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            self.shared.queue.lock().shutdown = true;
        }
        self.shared.queue.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Worker count for a new pool: `DPVK_POOL_WORKERS` when set, otherwise
/// the host's available parallelism, but never below `min_workers` (a
/// device passes its model's core count so modeled-default launches
/// always have a chunk's worth of workers to land on).
pub(crate) fn pool_size(min_workers: usize) -> usize {
    // An unparsable value is a startup configuration bug and panics
    // (same contract as `DPVK_ENGINE`), it is never silently ignored.
    if let Some(n) = crate::error::env_u64("DPVK_POOL_WORKERS", "a worker count (1..=256)") {
        return usize::try_from(n).unwrap_or(usize::MAX).clamp(1, 256);
    }
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    host.max(min_workers).max(1)
}

/// One worker thread: park until a chunk is available, run it, flush
/// memo tallies, report completion, repeat until shutdown *and* the
/// queue is drained.
fn worker_loop(shared: &Arc<PoolShared>) {
    // Claim a timeline track up front (one atomic increment per worker
    // thread lifetime) so spans emitted on this thread — including
    // compile spans from deep inside the cache — carry its identity.
    timeline::register_worker();
    let mut scratch = WorkerScratch::new();
    loop {
        let item = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(item) = q.items.pop_front() {
                    q.busy += 1;
                    if dpvk_trace::enabled() {
                        dpvk_trace::record_peak(dpvk_trace::Counter::PoolBusyPeak, q.busy as u64);
                    }
                    break item;
                }
                if q.shutdown {
                    return;
                }
                q = shared.queue.wait(q);
            }
        };
        let Chunk { job, index } = match item {
            PoolItem::Chunk(c) => c,
            PoolItem::Task(task) => {
                // Background work is panic-contained like a chunk: a bad
                // candidate compile must not kill the worker thread.
                let _ = catch_unwind(AssertUnwindSafe(task));
                let mut q = shared.queue.lock();
                q.busy -= 1;
                continue;
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_chunk(&job, index, &mut scratch)));
        let (stats, error, stopped_at) = outcome.unwrap_or_else(|payload| {
            // A panic that escaped the per-CTA net (inter-CTA glue).
            // Contain it exactly like a CTA panic; this chunk's partial
            // stats are lost, as they were under spawn-per-launch.
            job.req.token.cancel();
            (
                LaunchStats::new(job.req.config.max_warp),
                Some(CoreError::WorkerPanic {
                    worker: index,
                    cta: 0,
                    payload: panic_payload(payload.as_ref()),
                }),
                Some(0),
            )
        });
        // Flush memo tallies *before* completion is observable, so cache
        // stats are exact the moment a waiter wakes — and flushed even
        // when the chunk panicked or faulted.
        scratch.dispatch.flush();
        {
            let mut q = shared.queue.lock();
            q.busy -= 1;
        }
        job.complete_chunk(index, stats, error, stopped_at, shared);
    }
}

/// Run one chunk of a launch: CTAs `index, index + chunks, …` — the same
/// striding the spawn-per-launch workers used, so statistics and modeled
/// outputs are unchanged.
fn run_chunk(
    job: &Arc<LaunchJob>,
    index: usize,
    scratch: &mut WorkerScratch,
) -> (LaunchStats, Option<CoreError>, Option<u32>) {
    let req = &job.req;
    scratch.dispatch.rebind(&req.cache);
    job.note_chunk_start();
    // Flight recorder: only launches that drew a sequence number at
    // submission are recorded, and only while tracing is still on.
    let recording = job.seq != 0 && dpvk_trace::enabled();
    let _scope = recording.then(|| timeline::launch_scope(job.seq, job.stream_id()));
    let exec_start = recording.then(timeline::now_ns);
    scratch.gather = GatherTally::default();
    let mut stats = LaunchStats::new(req.config.max_warp);
    let mut error = None;
    let mut stopped_at = None;
    let mut cta = index as u64;
    while cta < job.cta_count {
        let flat = cta as u32;
        if req.token.is_cancelled() {
            stopped_at = Some(flat);
            break;
        }
        if let Some(deadline) = req.config.limits.deadline {
            if Instant::now() >= deadline {
                error = Some(boundary_fault(&req.kernel, flat, VmError::Deadline));
                stopped_at = Some(flat);
                req.token.cancel();
                break;
            }
        }
        #[cfg(test)]
        let run_cta = if job.reference_loop { oracle::run_cta_reference } else { run_cta };
        let run = catch_unwind(AssertUnwindSafe(|| run_cta(job, flat, &mut stats, scratch)));
        match run {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                // Secondary cancellations are not faults: the first
                // failure already tripped the token.
                if !e.is_cancelled() {
                    req.token.cancel();
                }
                error = Some(e);
                stopped_at = Some(flat);
                break;
            }
            Err(payload) => {
                req.token.cancel();
                error = Some(CoreError::WorkerPanic {
                    worker: index,
                    cta: flat,
                    payload: panic_payload(payload.as_ref()),
                });
                stopped_at = Some(flat);
                break;
            }
        }
        cta += job.chunks as u64;
    }
    if let Some(start) = exec_start {
        // The chunk's gather work as one coalesced child span at the
        // head of the execute span (its duration is the sum of the
        // chunk's gather calls, so it always nests).
        if scratch.gather.calls != 0 {
            flight::emit_span_at(
                SpanKind::Gather,
                &req.kernel,
                start,
                scratch.gather.ns,
                scratch.gather.calls,
            );
        }
        flight::emit_span(SpanKind::Execute, &req.kernel, start, stats.exec.warp_entries);
    }
    (stats, error, stopped_at)
}

/// Worker-local memo of resolved specializations. A launch requests the
/// same few `(width, variant)` pairs for every warp, so after the first
/// shared-cache query per pair the steady state is answered from this
/// table: a linear scan over a handful of entries, no lock, no
/// allocation. With the persistent pool the memo is long-lived — entries
/// survive across launches (keyed by the translated kernel's identity,
/// so back-to-back launches of the same kernel skip the shared cache
/// entirely) and are invalidated only when a job arrives from a
/// different cache. Hit and downgrade tallies accumulate locally and
/// flush to the cache's atomic counters at every chunk boundary — which
/// runs even when a CTA panics or faults, because the flush sits outside
/// `catch_unwind` in the worker loop — so
/// [`TranslationCache::stats`] totals are identical to per-query
/// counting by the time any waiter observes the launch complete.
pub(crate) struct DispatchMemo {
    cache: Option<TranslationCache>,
    entries: Vec<MemoEntry>,
    /// Index of the entry the latest [`resolve`](Self::resolve) returned.
    last: usize,
    hits: u64,
    downgrades: u64,
}

struct MemoEntry {
    /// Identity key: the translated kernel this entry resolves for. The
    /// held `Arc` keeps the allocation alive, so pointer equality cannot
    /// alias a recycled address.
    tk: Arc<TranslatedKernel>,
    width: u32,
    variant: Variant,
    compiled: Arc<CompiledKernel>,
    downgraded: bool,
    /// Memo hits since the last flush, folded into the cache entry's
    /// per-width hit counter at chunk boundaries.
    pending_hits: u64,
    /// Warps resolved through this entry since the last flush (memo hits
    /// plus the initial shared-cache resolution), folded into the cache
    /// entry's per-width dispatched-warp counter.
    pending_warps: u64,
}

/// Memo entries are a linear scan; past this the scan (and the held
/// kernels) would outweigh the saved cache query, so start over.
const MEMO_CAPACITY: usize = 64;

impl DispatchMemo {
    fn new() -> Self {
        DispatchMemo { cache: None, entries: Vec::new(), last: 0, hits: 0, downgrades: 0 }
    }

    /// Point the memo at `cache`, flushing tallies and dropping entries
    /// when it differs from the currently bound cache.
    fn rebind(&mut self, cache: &TranslationCache) {
        if self.cache.as_ref().is_some_and(|c| c.same_cache(cache)) {
            return;
        }
        self.flush();
        self.entries.clear();
        self.cache = Some(cache.clone());
    }

    /// Resolve a specialization plus its downgrade flag, consulting the
    /// shared cache only on the first request per `(kernel, width,
    /// variant)` this worker has seen since binding to the cache.
    fn resolve(
        &mut self,
        kernel: &str,
        tk: &Arc<TranslatedKernel>,
        w: u32,
        variant: Variant,
    ) -> Result<(Arc<CompiledKernel>, bool), CoreError> {
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.width == w && e.variant == variant && Arc::ptr_eq(&e.tk, tk))
        {
            self.last = i;
            self.repeat_last(kernel);
            let e = &self.entries[i];
            return Ok((Arc::clone(&e.compiled), e.downgraded));
        }
        let cache = self.cache.as_ref().expect("memo bound to a cache before resolving");
        let (compiled, downgraded) = cache.get_or_downgrade(kernel, w, variant)?;
        if self.entries.len() >= MEMO_CAPACITY {
            // Flush before discarding so no per-width tallies are lost.
            self.flush();
            self.entries.clear();
        }
        self.last = self.entries.len();
        self.entries.push(MemoEntry {
            tk: Arc::clone(tk),
            width: w,
            variant,
            compiled: Arc::clone(&compiled),
            downgraded,
            pending_hits: 0,
            pending_warps: 1,
        });
        Ok((compiled, downgraded))
    }

    /// Resolve the same specialization as the latest
    /// [`resolve`](Self::resolve) again — a memo hit, without touching
    /// the entry's kernel handle. Tallies what the shared cache would
    /// have counted: one hit per resolution, and for a downgraded entry
    /// a hit on the width-1 baseline plus one downgrade.
    pub(crate) fn repeat_last(&mut self, kernel: &str) {
        let e = &mut self.entries[self.last];
        self.hits += 1;
        e.pending_hits += 1;
        e.pending_warps += 1;
        if e.downgraded {
            self.downgrades += 1;
        }
        if dpvk_trace::enabled() {
            let (rw, rv) = if e.downgraded { (1, Variant::Baseline) } else { (e.width, e.variant) };
            dpvk_trace::record_cache_query(kernel, rw, rv.label(), true);
        }
    }

    /// Flush accumulated hit/downgrade and per-width tallies to the
    /// bound cache. A downgraded entry's usage is attributed to the
    /// width-1 baseline it actually dispatched.
    pub(crate) fn flush(&mut self) {
        if self.hits != 0 || self.downgrades != 0 {
            if let Some(cache) = &self.cache {
                cache.add_resolved(self.hits, self.downgrades);
            }
            self.hits = 0;
            self.downgrades = 0;
        }
        if let Some(cache) = &self.cache {
            let tracing = dpvk_trace::enabled();
            for e in &mut self.entries {
                if e.pending_hits == 0 && e.pending_warps == 0 {
                    continue;
                }
                let hits = std::mem::take(&mut e.pending_hits);
                let warps = std::mem::take(&mut e.pending_warps);
                let (w, v) =
                    if e.downgraded { (1, Variant::Baseline) } else { (e.width, e.variant) };
                cache.note_width_use(&e.tk.name, w, v, hits, warps);
                if tracing {
                    dpvk_trace::record_width_use(&e.tk.name, w, warps);
                }
            }
        }
    }
}

/// Reusable per-worker execution state: the dispatch memo, the CTA's
/// thread queues and memories, warp-formation buffers and the
/// interpreter register frame, so the steady-state CTA loop performs no
/// heap allocation. Lives as long as the worker thread.
pub(crate) struct WorkerScratch {
    pub(crate) dispatch: DispatchMemo,
    /// The current pass: `pass[head..]` is the front of the CTA's ready
    /// queue (see [`run_cta`]).
    pass: Vec<ThreadContext>,
    /// The rest of the CTA's ready queue, behind the pass.
    ready: VecDeque<ThreadContext>,
    /// Threads waiting at a barrier.
    barrier: Vec<ThreadContext>,
    /// The CTA's shared memory.
    shared: Vec<u8>,
    /// The CTA's local-memory arena.
    local: Vec<u8>,
    warp: Vec<ThreadContext>,
    kept: Vec<ThreadContext>,
    frame: RegFrame,
    /// Host gather time accumulated over the current chunk, flushed into
    /// one coalesced timeline span per chunk.
    gather: GatherTally,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            dispatch: DispatchMemo::new(),
            pass: Vec::new(),
            ready: VecDeque::new(),
            barrier: Vec::new(),
            shared: Vec::new(),
            local: Vec::new(),
            warp: Vec::new(),
            kept: Vec::new(),
            frame: RegFrame::new(),
            gather: GatherTally::default(),
        }
    }
}

/// A guest engine bound to one specialization, register frame and
/// memory view for a run of warps. Lives on the stack for one pass (or
/// one gather warp); boxing the large JIT variant would allocate per
/// pass.
#[allow(clippy::large_enum_variant)]
enum WarpRunner<'p, 'm> {
    Jit(JitPass<'p, 'm>),
    Bytecode(BytecodePass<'p, 'm>),
    Tree {
        compiled: &'p CompiledKernel,
        model: &'p MachineModel,
        frame: &'p mut RegFrame,
        mem: &'p mut MemAccess<'m>,
        limits: &'p ExecLimits,
        cancel: &'p CancelToken,
    },
}

impl<'p, 'm> WarpRunner<'p, 'm> {
    /// Bind `engine` to `compiled`. `jit` is the specialization's native
    /// code; `None` under [`Engine::Jit`] degrades to the bytecode
    /// engine.
    #[allow(clippy::too_many_arguments)]
    fn new(
        engine: Engine,
        compiled: &'p CompiledKernel,
        jit: Option<&'p JitProgram>,
        model: &'p MachineModel,
        frame: &'p mut RegFrame,
        mem: &'p mut MemAccess<'m>,
        limits: &'p ExecLimits,
        cancel: &'p CancelToken,
    ) -> Self {
        match (engine, jit) {
            (Engine::Jit, Some(jit)) => WarpRunner::Jit(JitPass::new(
                jit,
                &compiled.bytecode,
                frame,
                mem,
                limits,
                Some(cancel),
            )),
            (Engine::Bytecode | Engine::Jit, _) => WarpRunner::Bytecode(BytecodePass::new(
                &compiled.bytecode,
                frame,
                mem,
                limits,
                Some(cancel),
            )),
            (Engine::Tree, _) => WarpRunner::Tree { compiled, model, frame, mem, limits, cancel },
        }
    }

    /// Run one warp from entry `rp`. An engine error becomes a fault
    /// carrying the warp's provenance; cancellations and deadlines also
    /// count as cancelled warps.
    fn run(
        &mut self,
        ctxs: &mut [ThreadContext],
        rp: i64,
        stats: &mut ExecStats,
        kernel: &str,
        cta_flat: u32,
    ) -> Result<ResumeStatus, CoreError> {
        let outcome = match self {
            WarpRunner::Jit(pass) => pass.run_warp(ctxs, rp, stats),
            WarpRunner::Bytecode(pass) => pass.run_warp(ctxs, rp, stats),
            WarpRunner::Tree { compiled, model, frame, mem, limits, cancel } => {
                execute_warp_framed(
                    &compiled.function,
                    &compiled.frame,
                    frame,
                    &compiled.cost,
                    model,
                    ctxs,
                    rp,
                    mem,
                    stats,
                    limits,
                    Some(cancel),
                )
            }
        };
        outcome.map(|o| o.status).map_err(|e| {
            if matches!(e, VmError::Cancelled | VmError::Deadline) {
                stats.cancelled_warps += 1;
            }
            warp_fault(kernel, cta_flat, rp, ctxs, e)
        })
    }
}

/// The CTA's thread queues. The ready queue is `pass[head..]` followed
/// by `ready`; every live thread is in exactly one of the ready queue,
/// the executing warp and `barrier`.
struct CtaQueues<'s> {
    pass: &'s mut Vec<ThreadContext>,
    head: usize,
    ready: &'s mut VecDeque<ThreadContext>,
    barrier: &'s mut Vec<ThreadContext>,
    exited: usize,
    cta_size: usize,
}

impl CtaQueues<'_> {
    /// The unrun part of the pass.
    fn pass_left(&self) -> &[ThreadContext] {
        &self.pass[self.head..]
    }

    /// End the pass early: its unrun threads go back to the head of the
    /// ready queue, in order, for the gather path.
    fn spill(&mut self) {
        for ctx in self.pass[self.head..].iter().rev() {
            self.ready.push_front(*ctx);
        }
        self.head = self.pass.len();
    }

    /// Route a retired warp's threads by its yield status: exits are
    /// counted, branches re-enter the back of the ready queue, barrier
    /// arrivals wait.
    fn route(
        ready: &mut VecDeque<ThreadContext>,
        barrier: &mut Vec<ThreadContext>,
        exited: &mut usize,
        warp: &[ThreadContext],
        status: ResumeStatus,
    ) {
        match status {
            ResumeStatus::Exit => *exited += warp.len(),
            ResumeStatus::Branch => {
                for ctx in warp {
                    if ctx.is_terminated() {
                        *exited += 1;
                    } else {
                        ready.push_back(*ctx);
                    }
                }
            }
            ResumeStatus::Barrier => barrier.extend_from_slice(warp),
        }
    }

    /// Barrier release: when every live thread has arrived, everyone
    /// resumes at the continuation entry point. The ready queue is empty
    /// then, so the released threads *are* the queue; when they share
    /// one resume point in lane order they become the next pass.
    fn release_barrier(&mut self, em: &EmCostModel, stats: &mut LaunchStats) {
        let alive = self.cta_size - self.exited;
        if self.barrier.is_empty() || self.barrier.len() != alive {
            return;
        }
        stats.exec.cycles_manager += em.per_barrier_thread * self.barrier.len() as u64;
        debug_assert!(self.ready.is_empty() && self.pass_left().is_empty());
        if is_pass(self.barrier) {
            std::mem::swap(self.pass, self.barrier);
            self.barrier.clear();
            self.head = 0;
        } else {
            self.ready.extend(self.barrier.drain(..));
        }
    }
}

/// Whether `ctxs` may run as a pass: one resume point, lane order.
fn is_pass(ctxs: &[ThreadContext]) -> bool {
    ctxs.windows(2)
        .all(|p| p[0].resume_point == p[1].resume_point && p[0].flat_tid() < p[1].flat_tid())
}

/// The between-warps poll: cancellation always, the deadline when one
/// is set (the interpreter polls on an instruction stride; this covers
/// short warp calls that retire before the first poll).
fn check_boundary(req: &LaunchRequest, cta_flat: u32, polling: bool) -> Result<(), CoreError> {
    if req.token.is_cancelled() {
        return Err(boundary_fault(&req.kernel, cta_flat, VmError::Cancelled));
    }
    if polling {
        if let Some(deadline) = req.config.limits.deadline {
            if Instant::now() >= deadline {
                return Err(boundary_fault(&req.kernel, cta_flat, VmError::Deadline));
            }
        }
    }
    Ok(())
}

/// Pick the widest available specialization for a gathered warp of
/// `len` threads.
fn select_width(config: &ExecConfig, len: usize) -> (u32, Variant) {
    match config.policy {
        FormationPolicy::ScalarBaseline => (1u32, Variant::Baseline),
        FormationPolicy::Dynamic => {
            let mut w = config.max_warp;
            while w as usize > len {
                w /= 2;
            }
            (w.max(1), Variant::Dynamic)
        }
        FormationPolicy::Static => {
            if len == config.max_warp as usize && config.max_warp > 1 {
                (config.max_warp, Variant::StaticTie)
            } else {
                (1, Variant::StaticTie)
            }
        }
    }
}

/// Count a warp's dispatch to its engine. Called before executing: a
/// warp that faults or is cancelled mid-body was still dispatched.
fn count_dispatch(engine: Engine, native: bool) {
    let engine_counter = match engine {
        Engine::Bytecode => dpvk_trace::Counter::WarpsBytecode,
        Engine::Tree => dpvk_trace::Counter::WarpsTree,
        Engine::Jit if native => dpvk_trace::Counter::WarpsJit,
        Engine::Jit => {
            dpvk_trace::add(dpvk_trace::Counter::JitFallbackWarps, 1);
            dpvk_trace::Counter::WarpsBytecode
        }
    };
    dpvk_trace::add(engine_counter, 1);
}

/// The native code for `compiled` under `engine` (the first warp pays
/// the emit; the rest hit the per-kernel cache). `None` — not the JIT
/// engine, unsupported host or no native lowering — runs the warp on
/// an interpreter.
fn native_code<'c>(
    engine: Engine,
    compiled: &'c CompiledKernel,
    kernel: &str,
) -> Option<&'c JitProgram> {
    match engine {
        Engine::Jit => compiled.jit(kernel).map(|j| &**j),
        Engine::Bytecode | Engine::Tree => None,
    }
}

/// [`pass_formation`] for the head of the pass, with its host time
/// when tracing.
fn timed_pass_formation(
    q: &CtaQueues<'_>,
    config: &ExecConfig,
    tracing: bool,
) -> Option<(PassWarp, Option<u64>)> {
    let t = tracing.then(Instant::now);
    let f = pass_formation(q.pass_left(), q.ready.is_empty(), config)?;
    Some((f, t.map(|t| t.elapsed().as_nanos() as u64)))
}

/// The modeled formation charge for a warp that examined `scanned`
/// queue entries, plus its host time (`ns`, measured when tracing).
fn charge_formation(
    em: &EmCostModel,
    stats: &mut LaunchStats,
    scan_total: &mut u64,
    gather: &mut GatherTally,
    scanned: usize,
    ns: Option<u64>,
) {
    if let Some(ns) = ns {
        gather.note(ns);
    }
    stats.exec.cycles_manager += em.formation_base + em.per_thread_scanned * scanned as u64;
    *scan_total += scanned as u64;
}

/// Add a dispatch resolution's host time to the trace counter.
fn note_dispatch_ns(start: Option<Instant>) {
    if let Some(t) = start {
        dpvk_trace::add(dpvk_trace::Counter::HostDispatchNs, t.elapsed().as_nanos() as u64);
    }
}

/// The fault-injection hooks every formed warp passes before it runs:
/// the CTA's planned fault (taken by its first warp) and slow warps.
#[cfg(feature = "fault-inject")]
fn inject_warp_faults(
    pending: &mut Option<VmError>,
    kernel: &str,
    cta_flat: u32,
    rp: i64,
    warp: &[ThreadContext],
) -> Result<(), CoreError> {
    if let Some(vm_err) = pending.take() {
        return Err(warp_fault(kernel, cta_flat, rp, warp, vm_err));
    }
    crate::faults::maybe_slow_warp(cta_flat);
    Ok(())
}

/// Per-warp accounting after a warp returns: the width histogram, trace
/// records and the yield (and barrier-arrival) tariffs.
#[allow(clippy::too_many_arguments)]
fn retire_warp(
    config: &ExecConfig,
    kernel: &str,
    stats: &mut LaunchStats,
    tracing: bool,
    scan_total: &mut u64,
    rp: i64,
    w: u32,
    status: ResumeStatus,
) {
    if (w as usize) < stats.warp_hist.len() {
        stats.warp_hist[w as usize] += 1;
    }
    if tracing {
        dpvk_trace::record_warp_entry(w, std::mem::take(scan_total));
        let reason = match status {
            ResumeStatus::Exit => dpvk_trace::YieldReason::Exit,
            ResumeStatus::Branch => dpvk_trace::YieldReason::Branch,
            ResumeStatus::Barrier => dpvk_trace::YieldReason::Barrier,
        };
        dpvk_trace::record_yield(kernel, rp.max(0) as u32, reason, w);
    }
    stats.exec.cycles_manager += config.em_cost.per_yield_thread * w as u64;
    if status == ResumeStatus::Barrier {
        stats.exec.cycles_manager += config.em_cost.per_barrier_thread * w as u64;
    }
}

/// Execute all threads of one CTA to completion.
///
/// The ready queue is kept in two parts. The *pass* is a run of ready
/// threads at its front that share one resume point and are in lane
/// order: the whole CTA at launch, and the whole CTA again after every
/// barrier all live threads reached (when the released threads still
/// share a resume point). A pass runs as consecutive warps over
/// contiguous slices of the pass array, executed in place: formation is
/// arithmetic (see [`pass_formation`]), and the specialization, its
/// native code and the engine binding are resolved once for the run.
/// Everything else — divergent queues, partial groups, a pass tail that
/// would gather threads from behind it — takes the single-pass gather
/// over the deque behind the pass, as before.
///
/// Both paths apply the same per-warp side effects in the same order:
/// boundary polls, the modeled formation / cache-query / yield /
/// barrier charges, memo hit and downgrade tallies, fault hooks, trace
/// records and the width histogram. A pass warp is charged exactly what
/// the gather would have charged for it, so modeled cycles and every
/// statistic are unchanged.
fn run_cta(
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
    let em = &config.em_cost;
    let grid = req.grid;
    let block = req.block;
    let model = req.cache.model();

    let cta_size = (block[0] * block[1] * block[2]) as usize;
    let ctaid =
        [cta_flat % grid[0], (cta_flat / grid[0]) % grid[1], cta_flat / (grid[0] * grid[1])];

    let WorkerScratch {
        dispatch,
        pass,
        ready,
        barrier,
        shared,
        local,
        warp,
        kept,
        frame,
        gather,
        ..
    } = scratch;

    // Build thread contexts: the whole CTA, in lane order at the kernel
    // entry, is the first pass.
    pass.clear();
    for tz in 0..block[2] {
        for ty in 0..block[1] {
            for tx in 0..block[0] {
                let mut ctx = ThreadContext::new([tx, ty, tz], block, ctaid, grid);
                let flat = ctx.flat_tid() as usize;
                ctx.local_base = (flat * tk.local_bytes) as u64;
                pass.push(ctx);
            }
        }
    }
    ready.clear();
    barrier.clear();
    shared.clear();
    shared.resize(tk.shared_bytes.max(1), 0);
    local.clear();
    local.resize((tk.local_bytes * cta_size).max(1), 0);
    let mut mem =
        MemAccess { global: &req.global, shared, local, param: &req.param, cbank: &req.cbank };
    let mut q = CtaQueues { pass, head: 0, ready, barrier, exited: 0, cta_size };
    let mut scan_total: u64 = 0;
    let tracing = dpvk_trace::enabled();
    let polling = config.limits.deadline.is_some();

    #[cfg(feature = "fault-inject")]
    let mut injected_fault_pending = crate::faults::injected_warp_fault(cta_flat);

    loop {
        if !q.pass_left().is_empty() {
            // -- A pass ------------------------------------------------
            let Some((f, ns)) = timed_pass_formation(&q, config, tracing) else {
                q.spill();
                continue;
            };
            let rp = q.pass[q.head].resume_point;
            let (w_req, variant) = select_width(config, f.len);
            check_boundary(req, cta_flat, polling)?;
            charge_formation(em, stats, &mut scan_total, gather, f.scanned, ns);
            stats.exec.cycles_manager += em.per_cache_query;
            // The first warp resolves the specialization and binds the
            // engine; the rest of the pass reuses both.
            let host_t = tracing.then(Instant::now);
            let (compiled, downgraded) = dispatch.resolve(kernel, tk, w_req, variant)?;
            note_dispatch_ns(host_t);
            let w = if downgraded { 1 } else { w_req };
            if downgraded {
                stats.exec.downgraded_warps += 1;
            }
            #[cfg(feature = "fault-inject")]
            inject_warp_faults(
                &mut injected_fault_pending,
                kernel,
                cta_flat,
                rp,
                &q.pass_left()[..w as usize],
            )?;
            let jit = native_code(config.engine, &compiled, kernel);
            let mut runner = WarpRunner::new(
                config.engine,
                &compiled,
                jit,
                model,
                frame,
                &mut mem,
                &config.limits,
                &req.token,
            );
            loop {
                let (start, end) = (q.head, q.head + w as usize);
                if tracing {
                    count_dispatch(config.engine, jit.is_some());
                }
                let slice = &mut q.pass[start..end];
                let status = runner.run(slice, rp, &mut stats.exec, kernel, cta_flat)?;
                retire_warp(config, kernel, stats, tracing, &mut scan_total, rp, w, status);
                q.head = end;
                CtaQueues::route(q.ready, q.barrier, &mut q.exited, &q.pass[start..end], status);
                q.release_barrier(em, stats);
                if q.head == 0 || q.pass_left().is_empty() {
                    // Released into a new pass, or this one is done.
                    break;
                }
                // The next warp continues the pass only if the gather
                // would have formed it from the pass alone and picked the
                // same specialization for it.
                let next = timed_pass_formation(&q, config, tracing)
                    .filter(|(f, _)| select_width(config, f.len) == (w_req, variant));
                let Some((f, ns)) = next else {
                    q.spill();
                    break;
                };
                check_boundary(req, cta_flat, polling)?;
                charge_formation(em, stats, &mut scan_total, gather, f.scanned, ns);
                stats.exec.cycles_manager += em.per_cache_query;
                let host_t = tracing.then(Instant::now);
                dispatch.repeat_last(kernel);
                note_dispatch_ns(host_t);
                if downgraded {
                    stats.exec.downgraded_warps += 1;
                }
                #[cfg(feature = "fault-inject")]
                inject_warp_faults(
                    &mut injected_fault_pending,
                    kernel,
                    cta_flat,
                    rp,
                    &q.pass_left()[..w as usize],
                )?;
            }
            continue;
        }

        // -- The gather path ------------------------------------------
        let Some(front) = q.ready.front() else { break };
        let rp = front.resume_point;
        check_boundary(req, cta_flat, polling)?;
        // Gather a warp (round-robin from the queue head, greedy collect of
        // matching resume points).
        let scanned = gather_timed(q.ready, rp, config, warp, kept, gather);
        charge_formation(em, stats, &mut scan_total, gather, scanned, None);

        let (w, variant) = select_width(config, warp.len());
        stats.exec.cycles_manager += em.per_cache_query;
        // Degrade instead of failing: a specialization that cannot
        // compile falls back to the width-1 scalar baseline. Entry-point
        // numbering is shared across variants (assigned in `translate`),
        // so baseline warps resume mid-grid safely.
        let host_t = tracing.then(Instant::now);
        let (compiled, downgraded) = dispatch.resolve(kernel, tk, w, variant)?;
        note_dispatch_ns(host_t);
        let w = if downgraded {
            stats.exec.downgraded_warps += 1;
            1
        } else {
            w
        };
        // Return surplus threads to the queue head (they keep priority).
        while warp.len() > w as usize {
            let ctx = warp.pop().expect("warp longer than w");
            q.ready.push_front(ctx);
        }

        #[cfg(feature = "fault-inject")]
        inject_warp_faults(&mut injected_fault_pending, kernel, cta_flat, rp, warp)?;

        let jit = native_code(config.engine, &compiled, kernel);
        if tracing {
            count_dispatch(config.engine, jit.is_some());
        }
        let status = WarpRunner::new(
            config.engine,
            &compiled,
            jit,
            model,
            frame,
            &mut mem,
            &config.limits,
            &req.token,
        )
        .run(warp, rp, &mut stats.exec, kernel, cta_flat)?;
        retire_warp(config, kernel, stats, tracing, &mut scan_total, rp, w, status);
        CtaQueues::route(q.ready, q.barrier, &mut q.exited, warp, status);
        warp.clear();
        q.release_barrier(em, stats);
    }

    if !q.barrier.is_empty() {
        return Err(CoreError::BadLaunch(format!(
            "barrier deadlock in kernel `{kernel}`: {} thread(s) waiting, {} exited",
            q.barrier.len(),
            q.exited
        )));
    }
    Ok(())
}

#[cfg(test)]
mod oracle;
