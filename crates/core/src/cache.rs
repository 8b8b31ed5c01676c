//! The dynamic translation cache (paper, Section 5.1).
//!
//! Kernels are registered as PTX-like modules, translated lazily to scalar
//! IR, and specialized per `(warp size, variant)` on first request.
//!
//! The paper notes that "execution managers block while contending for a
//! lock on the dynamic translation cache" — and that this contention must
//! be amortized away for the steady state to run at hardware speed. The
//! compiled-specialization table is therefore read-mostly: lookups take a
//! shared read lock with a borrowed key (no allocation per query) and
//! statistics are relaxed atomics, so warm queries never serialize
//! against each other. A mutex is held only on the compilation path, and
//! pool workers additionally keep long-lived resolution memos (see
//! `exec::worker::DispatchMemo`) so steady-state dispatch touches no
//! shared state at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::sync::{Mutex, RwLock};

use dpvk_ptx as ptx;
use dpvk_vm::{BytecodeProgram, CostInfo, FrameLayout, JitProgram, MachineModel};

use dpvk_trace::timeline::SpanKind;

use crate::error::CoreError;
use crate::flight;
use crate::persist::{PersistConfig, PersistStore};
use crate::translate::{translate, TranslatedKernel};
use crate::vectorize::{specialize, SpecializeOptions, Specialized};

/// Which family of specialization is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Serialized scalar baseline: direct branches, yields only at
    /// barriers (always width 1).
    Baseline,
    /// Dynamic-warp-formation specialization (cooperative scalar at
    /// width 1).
    Dynamic,
    /// Static warp formation with thread-invariant elimination (width 1
    /// falls back to the baseline code).
    StaticTie,
}

impl Variant {
    /// Stable label used in trace reports and human output.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Dynamic => "dynamic",
            Variant::StaticTie => "static_tie",
        }
    }

    /// Parse a label produced by [`Variant::label`]; `None` for anything
    /// else (e.g. a corrupt or future-format width manifest).
    pub(crate) fn from_label(label: &str) -> Option<Variant> {
        match label {
            "baseline" => Some(Variant::Baseline),
            "dynamic" => Some(Variant::Dynamic),
            "static_tie" => Some(Variant::StaticTie),
            _ => None,
        }
    }

    fn options(self, warp_size: u32) -> SpecializeOptions {
        match self {
            Variant::Baseline => SpecializeOptions::baseline(),
            Variant::Dynamic => SpecializeOptions::dynamic(warp_size),
            Variant::StaticTie => {
                if warp_size == 1 {
                    SpecializeOptions::baseline()
                } else {
                    SpecializeOptions::static_tie(warp_size)
                }
            }
        }
    }
}

/// A compiled, cost-analyzed kernel specialization ready for execution.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The specialized function.
    pub function: Arc<dpvk_ir::Function>,
    /// Cost analysis under the cache's machine model.
    pub cost: CostInfo,
    /// Register frame layout, computed once here so the interpreter can
    /// execute against a flat reusable frame with no per-warp setup.
    pub frame: FrameLayout,
    /// The function pre-decoded to linear bytecode, built once here so
    /// the bytecode engine's inner loop is a flat `match` over µops with
    /// no per-warp tree walk. It is also the input of the native tier
    /// below and what that tier falls back to per warp.
    pub bytecode: BytecodeProgram,
    /// Static instruction count before optimization.
    pub pre_opt_instructions: usize,
    /// Static instruction count after optimization.
    pub post_opt_instructions: usize,
    /// The bytecode JIT-compiled to native x86-64, emitted lazily on the
    /// first `Engine::Jit` warp and cached here alongside the bytecode
    /// (`None` once emission has been tried and declined).
    jit: OnceLock<Option<Arc<JitProgram>>>,
}

impl CompiledKernel {
    /// The native-code form of this specialization, emitting it on first
    /// request. Returns `None` when the host cannot run JIT code or the
    /// program has no native lowering; callers fall back to
    /// [`CompiledKernel::bytecode`].
    pub fn jit(&self, kernel: &str) -> Option<&Arc<JitProgram>> {
        self.jit
            .get_or_init(|| {
                let span = flight::span_start();
                let _phase = dpvk_trace::phase(kernel, "jit:emit");
                let program = dpvk_vm::jit_compile(&self.bytecode).map(Arc::new);
                if let Some(jit) = &program {
                    let s = jit.emit_stats();
                    dpvk_trace::add(dpvk_trace::Counter::JitCodeBytes, s.code_bytes);
                    dpvk_trace::add(dpvk_trace::Counter::JitTemplateUops, s.template_uops);
                    dpvk_trace::add(dpvk_trace::Counter::JitHelperUops, s.helper_uops);
                    dpvk_trace::add(dpvk_trace::Counter::JitWideHelperUops, s.wide_helper_uops);
                    if let Some(start) = span {
                        flight::emit_span(SpanKind::JitEmit, kernel, start, s.code_bytes);
                    }
                }
                program
            })
            .as_ref()
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Specialization requests served from the cache.
    pub hits: u64,
    /// Requests that triggered compilation.
    pub misses: u64,
    /// Total nanoseconds spent compiling.
    pub compile_ns: u64,
    /// Specializations that failed to compile (verify error, unsupported
    /// construct). Each failed key is recorded once; repeat requests are
    /// answered from the failure memo.
    pub spec_failures: u64,
    /// Requests downgraded to the scalar baseline because the requested
    /// specialization had failed.
    pub downgrades: u64,
    /// Nanoseconds of [`compile_ns`](CacheStats::compile_ns) spent in
    /// PTX→IR translation (charged once per kernel, not per variant).
    pub translate_ns: u64,
    /// Nanoseconds spent specializing (warp formation, TIE, verify).
    pub specialize_ns: u64,
    /// Nanoseconds spent decoding specialized IR to bytecode.
    pub decode_ns: u64,
    /// Artifacts rehydrated from the persistent (disk) cache. Each
    /// persist hit still counts as a [`miss`](CacheStats::misses) of the
    /// in-memory cache — it just pays rehydration instead of
    /// translation/specialization.
    pub persist_hits: u64,
    /// Persistent-cache lookups that found nothing (or a corrupt
    /// artifact) and fell through to compilation.
    pub persist_misses: u64,
    /// Artifacts written to the persistent cache.
    pub persist_writes: u64,
    /// Artifacts deleted from the persistent cache enforcing its size
    /// cap.
    pub persist_evictions: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queries = self.hits + self.misses;
        let hit_rate = if queries == 0 { 0.0 } else { 100.0 * self.hits as f64 / queries as f64 };
        write!(
            f,
            "cache: {} queries ({} hits, {} misses, {hit_rate:.1}% hit rate), {:.2} ms compiling",
            queries,
            self.hits,
            self.misses,
            self.compile_ns as f64 / 1e6
        )?;
        if self.spec_failures != 0 || self.downgrades != 0 {
            write!(
                f,
                ", {} failed specializations, {} downgrades to scalar",
                self.spec_failures, self.downgrades
            )?;
        }
        if self.translate_ns + self.specialize_ns + self.decode_ns != 0 {
            write!(
                f,
                "\ncompile phases: translate {:.2} ms, specialize {:.2} ms, decode {:.2} ms",
                self.translate_ns as f64 / 1e6,
                self.specialize_ns as f64 / 1e6,
                self.decode_ns as f64 / 1e6
            )?;
        }
        if self.persist_hits + self.persist_misses + self.persist_writes + self.persist_evictions
            != 0
        {
            write!(
                f,
                "\npersist: {} hits, {} misses, {} writes, {} evictions",
                self.persist_hits, self.persist_misses, self.persist_writes, self.persist_evictions
            )?;
        }
        Ok(())
    }
}

/// One compiled width of a kernel, with per-width hotness accounting.
///
/// `hits` counts warm resolutions served at this width (direct cache
/// hits plus memo-resolved dispatches flushed at chunk boundaries);
/// `warps` counts warps actually dispatched against this entry. Both are
/// relaxed monotonic sums, updated without the map's write lock, and are
/// what the adaptive width policy and the trace report read.
struct WidthEntry {
    width: u32,
    variant: Variant,
    compiled: Arc<CompiledKernel>,
    hits: AtomicU64,
    warps: AtomicU64,
}

/// The set of compiled widths of one translation — the cache's unit of
/// multi-width storage. A kernel has at most a handful of
/// `(width, variant)` entries, so a linear scan beats hashing a
/// composite key — and needs no key allocation.
#[derive(Default)]
struct WidthSet {
    entries: Vec<WidthEntry>,
}

impl WidthSet {
    fn find(&self, warp_size: u32, variant: Variant) -> Option<&WidthEntry> {
        self.entries.iter().find(|e| e.width == warp_size && e.variant == variant)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Snapshot of one width's accounting, for trace reports, the adaptive
/// policy, and tests. See [`TranslationCache::width_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthStats {
    /// The specialized warp width.
    pub width: u32,
    /// The specialization family compiled at this width.
    pub variant: Variant,
    /// Warm resolutions served at this width (cache hits plus
    /// memo-resolved dispatches).
    pub hits: u64,
    /// Warps dispatched against this entry.
    pub warps: u64,
}

/// Cache statistics as relaxed atomics, so the hot hit path updates them
/// without taking any lock. All counters are monotonic sums, so relaxed
/// ordering cannot misreport a snapshot taken after the work settles.
#[derive(Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    compile_ns: AtomicU64,
    spec_failures: AtomicU64,
    downgrades: AtomicU64,
    translate_ns: AtomicU64,
    specialize_ns: AtomicU64,
    decode_ns: AtomicU64,
    persist_hits: AtomicU64,
    persist_misses: AtomicU64,
    persist_writes: AtomicU64,
    persist_evictions: AtomicU64,
}

#[derive(Default)]
struct Inner {
    translated: HashMap<String, Arc<TranslatedKernel>>,
    /// Specializations that failed to compile, memoized so each launch
    /// does not retry (and re-pay for) a known-bad compilation.
    failed: HashMap<(String, u32, Variant), CoreError>,
    /// Persistent-cache translation key per kernel (hash of format
    /// version × model × printed source), memoized alongside the
    /// translation so specialization keys derive from it without
    /// re-printing the kernel. Populated only when persistence is on.
    persist_keys: HashMap<String, u64>,
}

/// The translation cache: kernels in, specialized functions out.
///
/// A `TranslationCache` is a cheap handle over shared state: cloning it
/// produces another handle to the *same* cache, which is what lets the
/// persistent worker pool own a reference to the cache of whatever
/// launch it is running without borrowing from the submitting thread.
pub struct TranslationCache {
    shared: Arc<CacheShared>,
}

impl Clone for TranslationCache {
    fn clone(&self) -> Self {
        TranslationCache { shared: Arc::clone(&self.shared) }
    }
}

struct CacheShared {
    model: MachineModel,
    kernels: Mutex<HashMap<String, ptx::Kernel>>,
    /// Read-mostly: warm lookups take the read lock with a borrowed
    /// `&str` key; the write lock is held only to publish a freshly
    /// compiled specialization.
    compiled: RwLock<HashMap<String, WidthSet>>,
    inner: Mutex<Inner>,
    stats: StatCells,
    /// Disk-backed artifact store; `None` when persistence is disabled.
    persist: Option<PersistStore>,
}

impl TranslationCache {
    /// Create an empty cache compiling for `model`, with the persistent
    /// disk cache configured from the environment (see
    /// [`PersistConfig::from_env`]).
    pub fn new(model: MachineModel) -> Self {
        Self::with_persist(model, PersistConfig::from_env())
    }

    /// Create an empty cache compiling for `model` with explicit
    /// persistence control: `None` keeps everything in memory, `Some`
    /// rehydrates translations and specializations from (and stores
    /// them to) the configured directory.
    pub fn with_persist(model: MachineModel, persist: Option<PersistConfig>) -> Self {
        TranslationCache {
            shared: Arc::new(CacheShared {
                model,
                kernels: Mutex::new(HashMap::new()),
                compiled: RwLock::new(HashMap::new()),
                inner: Mutex::new(Inner::default()),
                stats: StatCells::default(),
                persist: persist.and_then(PersistStore::open),
            }),
        }
    }

    /// Whether two handles refer to the same underlying cache. Worker
    /// memos use this to invalidate entries resolved against a
    /// different device's cache.
    pub fn same_cache(&self, other: &TranslationCache) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// The machine model this cache compiles for.
    pub fn model(&self) -> &MachineModel {
        &self.shared.model
    }

    /// Register every kernel of a module (later registrations shadow
    /// earlier kernels with the same name).
    pub fn register_module(&self, module: &ptx::Module) {
        let mut k = self.shared.kernels.lock();
        for kernel in &module.kernels {
            k.insert(kernel.name.clone(), kernel.clone());
        }
    }

    /// The translated (canonical scalar) form of `kernel`, translating on
    /// first use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] for unregistered kernels and any
    /// translation error otherwise.
    pub fn translated(&self, kernel: &str) -> Result<Arc<TranslatedKernel>, CoreError> {
        {
            let inner = self.shared.inner.lock();
            if let Some(t) = inner.translated.get(kernel) {
                return Ok(Arc::clone(t));
            }
        }
        let ptx_kernel = {
            let kernels = self.shared.kernels.lock();
            kernels
                .get(kernel)
                .cloned()
                .ok_or_else(|| CoreError::NotFound(format!("kernel `{kernel}`")))?
        };
        // Persistent cache: key by format version × model × printed
        // source, so a changed kernel body never matches a stale
        // artifact. A disk hit skips translation entirely and charges
        // no translate time.
        let mut tkey = None;
        if let Some(ps) = &self.shared.persist {
            let source = ptx::print_kernel(&ptx_kernel);
            let key = PersistStore::translation_key(&self.shared.model.name, &source);
            tkey = Some(key);
            let span = flight::span_start();
            if let Some(tk) = ps.load_translation(kernel, key) {
                self.shared.stats.persist_hits.fetch_add(1, Relaxed);
                dpvk_trace::add(dpvk_trace::Counter::PersistHits, 1);
                if let Some(s) = span {
                    flight::emit_span(
                        SpanKind::PersistLoad,
                        kernel,
                        s,
                        tk.scalar.blocks.len() as u64,
                    );
                }
                let t = Arc::new(tk);
                let (t, first) = {
                    let mut inner = self.shared.inner.lock();
                    inner.persist_keys.insert(kernel.to_string(), key);
                    let first = !inner.translated.contains_key(kernel);
                    (Arc::clone(inner.translated.entry(kernel.to_string()).or_insert(t)), first)
                };
                if first {
                    self.rehydrate_widths(kernel, key);
                }
                return Ok(t);
            }
            self.shared.stats.persist_misses.fetch_add(1, Relaxed);
            dpvk_trace::add(dpvk_trace::Counter::PersistMisses, 1);
        }
        let t = {
            let start = Instant::now();
            let span = flight::span_start();
            let _phase = dpvk_trace::phase(kernel, "translate");
            let t = Arc::new(translate(&ptx_kernel)?);
            self.shared.stats.translate_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
            if let Some(s) = span {
                flight::emit_span(SpanKind::Translate, kernel, s, t.scalar.blocks.len() as u64);
            }
            t
        };
        if let (Some(ps), Some(key)) = (&self.shared.persist, tkey) {
            let span = flight::span_start();
            let evicted = ps.store_translation(kernel, key, &t);
            self.shared.stats.persist_writes.fetch_add(1, Relaxed);
            self.shared.stats.persist_evictions.fetch_add(evicted, Relaxed);
            dpvk_trace::add(dpvk_trace::Counter::PersistWrites, 1);
            if let Some(s) = span {
                flight::emit_span(SpanKind::PersistStore, kernel, s, t.scalar.blocks.len() as u64);
            }
        }
        let (t, first) = {
            let mut inner = self.shared.inner.lock();
            if let Some(key) = tkey {
                inner.persist_keys.insert(kernel.to_string(), key);
            }
            let first = !inner.translated.contains_key(kernel);
            (Arc::clone(inner.translated.entry(kernel.to_string()).or_insert(t)), first)
        };
        // Specialization artifacts can outlive an evicted translation, so
        // even a fresh translate rehydrates any widths the width manifest
        // still lists.
        if let (Some(key), true) = (tkey, first) {
            self.rehydrate_widths(kernel, key);
        }
        Ok(t)
    }

    /// Rehydrate every width the persistent width manifest lists for
    /// `kernel`, so a restarted process starts with the same `WidthSet`
    /// it shut down with — not just the one width the first launch asks
    /// for. Runs once, when the translation is first materialized.
    fn rehydrate_widths(&self, kernel: &str, tkey: u64) {
        let Some(ps) = self.shared.persist.as_ref() else { return };
        for (width, label) in ps.load_widths(kernel, tkey) {
            let Some(variant) = Variant::from_label(&label) else { continue };
            if self.lookup(kernel, width, variant).is_some() {
                continue;
            }
            let _ = self.load_persisted_spec(kernel, width, variant);
        }
    }

    /// The specialization of `kernel` for `(warp_size, variant)`,
    /// compiling on a miss.
    ///
    /// # Errors
    ///
    /// Propagates translation/specialization errors; see
    /// [`TranslationCache::translated`].
    pub fn get(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Result<Arc<CompiledKernel>, CoreError> {
        // Hot path: shared read lock, borrowed key, no allocation. Trace
        // bookkeeping (including `Variant::label`) runs only when the
        // trace layer is actually on.
        if let Some(c) = self.lookup_counting(kernel, warp_size, variant) {
            self.shared.stats.hits.fetch_add(1, Relaxed);
            if dpvk_trace::enabled() {
                dpvk_trace::record_cache_query(kernel, warp_size, variant.label(), true);
            }
            return Ok(c);
        }
        {
            let inner = self.shared.inner.lock();
            if let Some(e) = inner.failed.get(&(kernel.to_string(), warp_size, variant)) {
                return Err(e.clone());
            }
        }
        if dpvk_trace::enabled() {
            dpvk_trace::record_cache_query(kernel, warp_size, variant.label(), false);
        }
        let tk = self.translated(kernel)?;
        // Materializing the translation may have rehydrated this very
        // width from the persistent width manifest: re-probe before
        // touching the disk again so the rehydration is charged once.
        if let Some(c) = self.lookup_counting(kernel, warp_size, variant) {
            self.shared.stats.hits.fetch_add(1, Relaxed);
            return Ok(c);
        }
        if let Some(compiled) = self.load_persisted_spec(kernel, warp_size, variant) {
            return Ok(compiled);
        }
        let start = Instant::now();
        let spec_start = Instant::now();
        let spec_span = flight::span_start();
        let specialized = {
            let _phase = dpvk_trace::phase(kernel, "specialize");
            self.specialize_checked(&tk, kernel, warp_size, variant)
        };
        self.shared.stats.specialize_ns.fetch_add(spec_start.elapsed().as_nanos() as u64, Relaxed);
        if let Some(s) = spec_span {
            flight::emit_span(SpanKind::Specialize, kernel, s, u64::from(warp_size));
        }
        let Specialized { function, pre_opt_instructions, post_opt_instructions, fusion, .. } =
            match specialized {
                Ok(s) => s,
                Err(e) => {
                    // Memoize compile-type failures so later queries (and
                    // the downgrade path) answer without recompiling.
                    if matches!(e, CoreError::Verify(_) | CoreError::Unsupported { .. }) {
                        dpvk_trace::add(dpvk_trace::Counter::SpecFailures, 1);
                        dpvk_trace::record_downgrade(
                            kernel,
                            warp_size,
                            variant.label(),
                            &e.to_string(),
                        );
                        self.shared.stats.spec_failures.fetch_add(1, Relaxed);
                        let mut inner = self.shared.inner.lock();
                        inner
                            .failed
                            .entry((kernel.to_string(), warp_size, variant))
                            .or_insert_with(|| e.clone());
                    }
                    return Err(e);
                }
            };
        let compiled =
            self.lower(kernel, variant, function, pre_opt_instructions, post_opt_instructions);
        // The decoder re-derives fusion legality per pair; the
        // specializer's static summary bounds what it may form.
        let stats = compiled.bytecode.stats;
        debug_assert!(
            stats.fused_cmp_br <= fusion.cmp_br_candidates,
            "decoder fused {} compare-branches but only {} are legal",
            stats.fused_cmp_br,
            fusion.cmp_br_candidates,
        );
        debug_assert!(
            stats.fused_bin_bin + stats.fused_load_bin <= fusion.pair_candidates,
            "decoder fused {} pairs but only {} are legal",
            stats.fused_bin_bin + stats.fused_load_bin,
            fusion.pair_candidates,
        );
        let elapsed = start.elapsed().as_nanos() as u64;
        dpvk_trace::record_compile(kernel, warp_size, variant.label(), elapsed);
        self.shared.stats.misses.fetch_add(1, Relaxed);
        self.shared.stats.compile_ns.fetch_add(elapsed, Relaxed);
        self.store_persisted_spec(kernel, warp_size, variant, &compiled);
        Ok(self.publish(kernel, warp_size, variant, compiled))
    }

    /// Build a [`CompiledKernel`] from a specialized function: cost
    /// analysis, frame layout, bytecode decode (charged to `decode_ns`)
    /// and the profiler tag. Fresh compiles and disk rehydrations both
    /// come through here, so the two cannot build different kernels.
    fn lower(
        &self,
        kernel: &str,
        variant: Variant,
        function: dpvk_ir::Function,
        pre_opt_instructions: usize,
        post_opt_instructions: usize,
    ) -> Arc<CompiledKernel> {
        let cost = CostInfo::analyze(&function, &self.shared.model);
        let frame = FrameLayout::of(&function);
        let decode_t = Instant::now();
        let decode_span = flight::span_start();
        let mut bytecode = BytecodeProgram::decode(&function, &frame, &self.shared.model, &cost);
        // Tag the program with its profiler identity unconditionally (one
        // Arc per compile): the µop profiler may be switched on after
        // this specialization is already cached.
        bytecode.attach_profile(kernel, variant.label());
        let decode_ns = decode_t.elapsed().as_nanos() as u64;
        self.shared.stats.decode_ns.fetch_add(decode_ns, Relaxed);
        if let Some(s) = decode_span {
            dpvk_trace::add(dpvk_trace::Counter::GuestDecodeNs, decode_ns);
            dpvk_trace::add(dpvk_trace::Counter::FusedCmpBr, bytecode.stats.fused_cmp_br);
            dpvk_trace::add(dpvk_trace::Counter::FusedBinBin, bytecode.stats.fused_bin_bin);
            dpvk_trace::add(dpvk_trace::Counter::FusedLoadBin, bytecode.stats.fused_load_bin);
            flight::emit_span(SpanKind::Decode, kernel, s, bytecode.stats.ops);
        }
        Arc::new(CompiledKernel {
            function: Arc::new(function),
            cost,
            frame,
            bytecode,
            pre_opt_instructions,
            post_opt_instructions,
            jit: OnceLock::new(),
        })
    }

    /// Publish `compiled` under the write lock. On a compile race the
    /// first publication wins and is returned (both racers still count
    /// their miss, exactly as the mutex-era cache did).
    fn publish(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
        compiled: Arc<CompiledKernel>,
    ) -> Arc<CompiledKernel> {
        let mut map = self.shared.compiled.write();
        let set = map.entry(kernel.to_string()).or_default();
        if let Some(existing) = set.find(warp_size, variant) {
            return Arc::clone(&existing.compiled);
        }
        set.entries.push(WidthEntry {
            width: warp_size,
            variant,
            compiled: Arc::clone(&compiled),
            hits: AtomicU64::new(0),
            warps: AtomicU64::new(0),
        });
        compiled
    }

    /// Warm lookup: read lock, borrowed key, linear scan of the kernel's
    /// few specializations. Pure probe — no accounting.
    fn lookup(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Option<Arc<CompiledKernel>> {
        let map = self.shared.compiled.read();
        let set = map.get(kernel)?;
        set.find(warp_size, variant).map(|e| Arc::clone(&e.compiled))
    }

    /// Warm lookup that also charges the served width's hit counter.
    fn lookup_counting(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Option<Arc<CompiledKernel>> {
        let map = self.shared.compiled.read();
        let set = map.get(kernel)?;
        let e = set.find(warp_size, variant)?;
        e.hits.fetch_add(1, Relaxed);
        Some(Arc::clone(&e.compiled))
    }

    /// Snapshot per-width accounting for `kernel`: every compiled
    /// `(width, variant)` with its hit and dispatched-warp tallies,
    /// ordered by `(width, variant)` for deterministic reporting.
    pub fn width_stats(&self, kernel: &str) -> Vec<WidthStats> {
        let map = self.shared.compiled.read();
        let mut out: Vec<WidthStats> = map
            .get(kernel)
            .map(|set| {
                set.entries
                    .iter()
                    .map(|e| WidthStats {
                        width: e.width,
                        variant: e.variant,
                        hits: e.hits.load(Relaxed),
                        warps: e.warps.load(Relaxed),
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.sort_by_key(|s| (s.width, s.variant.label()));
        out
    }

    /// Every `(width, variant)` currently compiled for `kernel`, in
    /// deterministic `(width, variant)` order.
    pub fn observed_widths(&self, kernel: &str) -> Vec<(u32, Variant)> {
        self.width_stats(kernel).into_iter().map(|s| (s.width, s.variant)).collect()
    }

    /// Fold per-width usage flushed from a worker's dispatch memo into
    /// the served entry's accounting: `hits` resolutions and `warps`
    /// dispatched warps at `(warp_size, variant)`. Read lock only — the
    /// entry's counters are relaxed atomics.
    pub(crate) fn note_width_use(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
        hits: u64,
        warps: u64,
    ) {
        let map = self.shared.compiled.read();
        if let Some(e) = map.get(kernel).and_then(|set| set.find(warp_size, variant)) {
            if hits != 0 {
                e.hits.fetch_add(hits, Relaxed);
            }
            if warps != 0 {
                e.warps.fetch_add(warps, Relaxed);
            }
        }
    }

    /// Try to rehydrate a `(kernel, warp_size, variant)` specialization
    /// from the persistent cache. The artifact holds only the verified
    /// function; [`Self::lower`] rebuilds cost, layout and bytecode from
    /// it exactly as a fresh compile does. A hit counts as an in-memory
    /// **miss** whose `compile_ns` is the rehydration time, so hit/miss
    /// totals stay comparable with persistence on or off.
    fn load_persisted_spec(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Option<Arc<CompiledKernel>> {
        let ps = self.shared.persist.as_ref()?;
        // A planned injected fault must not be masked by a disk hit:
        // probe first and let the normal specialize path take (and
        // memoize) the failure.
        #[cfg(feature = "fault-inject")]
        if crate::faults::injected_specialize_failure(kernel, warp_size, variant).is_some() {
            return None;
        }
        let tkey = {
            let inner = self.shared.inner.lock();
            *inner.persist_keys.get(kernel)?
        };
        let skey = PersistStore::spec_key(tkey, warp_size, variant.label());
        let start = Instant::now();
        let span = flight::span_start();
        let Some(art) = ps.load_spec(kernel, skey, warp_size, variant.label()) else {
            self.shared.stats.persist_misses.fetch_add(1, Relaxed);
            dpvk_trace::add(dpvk_trace::Counter::PersistMisses, 1);
            return None;
        };
        let compiled = self.lower(
            kernel,
            variant,
            art.function,
            art.pre_opt_instructions,
            art.post_opt_instructions,
        );
        let elapsed = start.elapsed().as_nanos() as u64;
        self.shared.stats.misses.fetch_add(1, Relaxed);
        self.shared.stats.compile_ns.fetch_add(elapsed, Relaxed);
        self.shared.stats.persist_hits.fetch_add(1, Relaxed);
        dpvk_trace::add(dpvk_trace::Counter::PersistHits, 1);
        if let Some(s) = span {
            flight::emit_span(SpanKind::PersistLoad, kernel, s, compiled.bytecode.len() as u64);
        }
        Some(self.publish(kernel, warp_size, variant, compiled))
    }

    /// Persist a freshly compiled specialization's function (best
    /// effort).
    fn store_persisted_spec(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
        compiled: &CompiledKernel,
    ) {
        let Some(ps) = self.shared.persist.as_ref() else { return };
        let tkey = {
            let inner = self.shared.inner.lock();
            match inner.persist_keys.get(kernel) {
                Some(k) => *k,
                None => return,
            }
        };
        let skey = PersistStore::spec_key(tkey, warp_size, variant.label());
        let span = flight::span_start();
        let evicted = ps.store_spec(
            kernel,
            skey,
            warp_size,
            variant.label(),
            &compiled.function,
            compiled.pre_opt_instructions,
            compiled.post_opt_instructions,
        );
        self.shared.stats.persist_writes.fetch_add(1, Relaxed);
        self.shared.stats.persist_evictions.fetch_add(evicted, Relaxed);
        dpvk_trace::add(dpvk_trace::Counter::PersistWrites, 1);
        // Keep the width manifest in step so a restart rehydrates every
        // width that was observed, not just the first one requested.
        ps.record_width(kernel, tkey, warp_size, variant.label());
        if let Some(s) = span {
            flight::emit_span(SpanKind::PersistStore, kernel, s, compiled.bytecode.len() as u64);
        }
    }

    /// Run `specialize`, with the fault-injection hook (forced verify
    /// failure for a chosen width) applied first when enabled.
    fn specialize_checked(
        &self,
        tk: &TranslatedKernel,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Result<Specialized, CoreError> {
        #[cfg(feature = "fault-inject")]
        if let Some(e) = crate::faults::injected_specialize_failure(kernel, warp_size, variant) {
            return Err(e);
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = kernel;
        specialize(tk, &variant.options(warp_size))
    }

    /// Like [`TranslationCache::get`], but degrade gracefully: when the
    /// requested specialization fails to *compile* (verify error or
    /// unsupported construct), fall back to the width-1 scalar baseline
    /// instead of failing the launch. Returns the compiled kernel plus
    /// `true` when a downgrade happened.
    ///
    /// Entry-point numbering is assigned during translation on the
    /// canonical scalar kernel and shared by every variant, so resuming a
    /// grid mid-flight on the baseline function is safe.
    ///
    /// # Errors
    ///
    /// Propagates non-compile failures (unregistered kernel, parse
    /// errors), and any failure of the baseline itself.
    pub fn get_or_downgrade(
        &self,
        kernel: &str,
        warp_size: u32,
        variant: Variant,
    ) -> Result<(Arc<CompiledKernel>, bool), CoreError> {
        match self.get(kernel, warp_size, variant) {
            Ok(c) => Ok((c, false)),
            Err(CoreError::Verify(_) | CoreError::Unsupported { .. })
                if !(warp_size == 1 && variant == Variant::Baseline) =>
            {
                self.shared.stats.downgrades.fetch_add(1, Relaxed);
                let c = self.get(kernel, 1, Variant::Baseline)?;
                Ok((c, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Memoize a specialization failure for `(kernel, warp_size,
    /// variant)`, so dispatch downgrades it to the scalar baseline.
    #[cfg(test)]
    pub(crate) fn fail_specialization(&self, kernel: &str, warp_size: u32, variant: Variant) {
        let error =
            CoreError::Unsupported { kernel: kernel.to_string(), message: "forced by test".into() };
        self.shared.inner.lock().failed.insert((kernel.to_string(), warp_size, variant), error);
    }

    /// Fold in hit/downgrade counts resolved from a worker-local dispatch
    /// memo (see `exec::worker::DispatchMemo`), which answers repeat
    /// queries without touching the shared cache and flushes its tallies
    /// here at chunk boundaries so [`TranslationCache::stats`] totals stay
    /// identical to per-query counting.
    pub(crate) fn add_resolved(&self, hits: u64, downgrades: u64) {
        if hits != 0 {
            self.shared.stats.hits.fetch_add(hits, Relaxed);
        }
        if downgrades != 0 {
            self.shared.stats.downgrades.fetch_add(downgrades, Relaxed);
        }
    }

    /// Record a specialization-type failure that was detected outside
    /// [`TranslationCache::get`] — e.g. an eager pre-translation failure
    /// at launch submission — so the async submit path reports compile
    /// errors with the same statistics and trace events as worker-side
    /// translation failures.
    pub(crate) fn note_spec_failure(&self, kernel: &str, error: &CoreError) {
        if matches!(error, CoreError::Verify(_) | CoreError::Unsupported { .. }) {
            self.shared.stats.spec_failures.fetch_add(1, Relaxed);
            dpvk_trace::add(dpvk_trace::Counter::SpecFailures, 1);
        }
        dpvk_trace::record_fault(kernel, &format!("[{}] {error}", error.code()));
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.shared.stats.hits.load(Relaxed),
            misses: self.shared.stats.misses.load(Relaxed),
            compile_ns: self.shared.stats.compile_ns.load(Relaxed),
            spec_failures: self.shared.stats.spec_failures.load(Relaxed),
            downgrades: self.shared.stats.downgrades.load(Relaxed),
            translate_ns: self.shared.stats.translate_ns.load(Relaxed),
            specialize_ns: self.shared.stats.specialize_ns.load(Relaxed),
            decode_ns: self.shared.stats.decode_ns.load(Relaxed),
            persist_hits: self.shared.stats.persist_hits.load(Relaxed),
            persist_misses: self.shared.stats.persist_misses.load(Relaxed),
            persist_writes: self.shared.stats.persist_writes.load(Relaxed),
            persist_evictions: self.shared.stats.persist_evictions.load(Relaxed),
        }
    }

    /// The registered declaration of `kernel` (signature, register file,
    /// variables).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotFound`] for unregistered kernels.
    pub fn kernel_declaration(&self, kernel: &str) -> Result<ptx::Kernel, CoreError> {
        self.shared
            .kernels
            .lock()
            .get(kernel)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("kernel `{kernel}`")))
    }
}

impl std::fmt::Debug for TranslationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let compiled: usize = self.shared.compiled.read().values().map(WidthSet::len).sum();
        let inner = self.shared.inner.lock();
        f.debug_struct("TranslationCache")
            .field("model", &self.shared.model.name)
            .field("translated", &inner.translated.len())
            .field("compiled", &compiled)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
.kernel k (.param .u64 p, .param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [n];
  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra done;
  add.u32 %r1, %r1, 1;
done:
  ret;
}
"#;

    fn cache_with_kernel() -> TranslationCache {
        // In-memory only: these tests pin exact demand-path counter
        // values, which must not depend on what an earlier process left
        // in the shared env cache directory (width-manifest rehydration
        // would pre-load entries and shift hit/miss totals).
        let cache = TranslationCache::with_persist(MachineModel::sandybridge_sse(), None);
        cache.register_module(&ptx::parse_module(SRC).unwrap());
        cache
    }

    #[test]
    fn miss_then_hit() {
        let cache = cache_with_kernel();
        let a = cache.get("k", 4, Variant::Dynamic).unwrap();
        let b = cache.get("k", 4, Variant::Dynamic).unwrap();
        assert!(Arc::ptr_eq(&a.function, &b.function));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!(stats.compile_ns > 0);
    }

    #[test]
    fn distinct_specializations_are_distinct_entries() {
        let cache = cache_with_kernel();
        let a = cache.get("k", 2, Variant::Dynamic).unwrap();
        let b = cache.get("k", 4, Variant::Dynamic).unwrap();
        let c = cache.get("k", 4, Variant::StaticTie).unwrap();
        assert_eq!(a.function.warp_size, 2);
        assert_eq!(b.function.warp_size, 4);
        assert_eq!(c.function.warp_size, 4);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn unknown_kernel_is_not_found() {
        let cache = cache_with_kernel();
        assert!(matches!(cache.get("absent", 4, Variant::Dynamic), Err(CoreError::NotFound(_))));
    }

    #[test]
    fn get_or_downgrade_passes_through_on_success() {
        let cache = cache_with_kernel();
        let (c, downgraded) = cache.get_or_downgrade("k", 4, Variant::Dynamic).unwrap();
        assert!(!downgraded);
        assert_eq!(c.function.warp_size, 4);
        let stats = cache.stats();
        assert_eq!(stats.downgrades, 0);
        assert_eq!(stats.spec_failures, 0);
    }

    #[test]
    fn get_or_downgrade_propagates_not_found() {
        let cache = cache_with_kernel();
        assert!(matches!(
            cache.get_or_downgrade("absent", 4, Variant::Dynamic),
            Err(CoreError::NotFound(_))
        ));
    }

    #[test]
    fn persisted_specialization_rehydrates_across_cache_instances() {
        let dir =
            std::env::temp_dir().join(format!("dpvk-cache-test-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = || {
            let c = TranslationCache::with_persist(
                MachineModel::sandybridge_sse(),
                Some(PersistConfig::at(&dir)),
            );
            c.register_module(&ptx::parse_module(SRC).unwrap());
            c
        };
        let a = fresh();
        let c1 = a.get("k", 4, Variant::Dynamic).unwrap();
        assert!(a.stats().persist_writes >= 2, "translation + spec should be written");
        // A fresh cache over the same directory models a restarted
        // process: both artifacts rehydrate, no translate/specialize
        // time is charged, the bytecode is re-decoded from the stored
        // function, and the program is identical.
        let b = fresh();
        let c2 = b.get("k", 4, Variant::Dynamic).unwrap();
        let stats = b.stats();
        assert_eq!(stats.persist_hits, 2, "{stats:?}");
        assert_eq!(stats.translate_ns, 0);
        assert_eq!(stats.specialize_ns, 0);
        assert!(stats.decode_ns > 0, "rehydration re-decodes the stored function: {stats:?}");
        assert_eq!(stats.misses, 1, "a persist hit still counts as an in-memory miss");
        assert_eq!(*c1.function, *c2.function);
        assert_eq!(
            format!("{:?}", c1.bytecode),
            format!("{:?}", c2.bytecode),
            "rehydrated bytecode must match the compiled program exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_persistence_keeps_everything_in_memory() {
        let dir =
            std::env::temp_dir().join(format!("dpvk-cache-test-disabled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = TranslationCache::with_persist(MachineModel::sandybridge_sse(), None);
        c.register_module(&ptx::parse_module(SRC).unwrap());
        c.get("k", 4, Variant::Dynamic).unwrap();
        let stats = c.stats();
        assert_eq!(stats.persist_hits + stats.persist_misses + stats.persist_writes, 0);
        assert!(stats.translate_ns > 0);
        assert!(!dir.exists());
    }

    #[test]
    fn width_set_keeps_independent_per_width_stats() {
        let cache = cache_with_kernel();
        for w in [2u32, 4, 8] {
            cache.get("k", w, Variant::Dynamic).unwrap();
        }
        cache.get("k", 4, Variant::Dynamic).unwrap();
        cache.get("k", 4, Variant::Dynamic).unwrap();
        cache.get("k", 8, Variant::Dynamic).unwrap();
        let stats = cache.width_stats("k");
        assert_eq!(stats.len(), 3);
        let hits = |w: u32| stats.iter().find(|s| s.width == w).unwrap().hits;
        assert_eq!(hits(2), 0);
        assert_eq!(hits(4), 2);
        assert_eq!(hits(8), 1);
        cache.note_width_use("k", 8, Variant::Dynamic, 3, 7);
        let s8 = *cache.width_stats("k").iter().find(|s| s.width == 8).unwrap();
        assert_eq!(s8.hits, 4);
        assert_eq!(s8.warps, 7);
        assert_eq!(
            cache.observed_widths("k"),
            vec![(2, Variant::Dynamic), (4, Variant::Dynamic), (8, Variant::Dynamic)]
        );
    }

    #[test]
    fn width_manifest_rehydrates_every_observed_width() {
        let dir =
            std::env::temp_dir().join(format!("dpvk-cache-test-widths-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = || {
            let c = TranslationCache::with_persist(
                MachineModel::sandybridge_sse(),
                Some(PersistConfig::at(&dir)),
            );
            c.register_module(&ptx::parse_module(SRC).unwrap());
            c
        };
        let a = fresh();
        for w in [2u32, 4, 8] {
            a.get("k", w, Variant::Dynamic).unwrap();
        }
        a.get("k", 1, Variant::Baseline).unwrap();
        // A restarted process materializes the translation once and gets
        // every previously observed width back without asking for them.
        let b = fresh();
        b.translated("k").unwrap();
        assert_eq!(
            b.observed_widths("k"),
            vec![
                (1, Variant::Baseline),
                (2, Variant::Dynamic),
                (4, Variant::Dynamic),
                (8, Variant::Dynamic)
            ]
        );
        let stats = b.stats();
        assert_eq!(stats.persist_hits, 5, "translation + four widths: {stats:?}");
        assert_eq!(stats.translate_ns, 0);
        assert_eq!(stats.specialize_ns, 0);
        assert!(stats.decode_ns > 0, "rehydration re-decodes the stored function: {stats:?}");
        // Asking for a rehydrated width is now a pure in-memory hit.
        b.get("k", 4, Variant::Dynamic).unwrap();
        assert_eq!(b.stats().persist_hits, 5);
        assert_eq!(b.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_queries_converge() {
        let cache = Arc::new(cache_with_kernel());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for w in [1u32, 2, 4] {
                        cache.get("k", w, Variant::Dynamic).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 24);
        assert!(stats.misses >= 3);
    }
}
