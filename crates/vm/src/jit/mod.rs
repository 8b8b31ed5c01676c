//! The native JIT tier: copy-and-patch x86-64 code generation over the
//! decoded µop stream.
//!
//! [`compile`] lowers a validated [`BytecodeProgram`] to straight-line
//! machine code — one template per µop, operands patched to
//! register-frame displacements, branches fixed up to µop entry offsets
//! — and seals it into a W^X executable mapping.
//! [`execute_warp_jit`] (or a [`JitPass`] over several warps) then runs
//! warps through that code with the same contract as
//! [`execute_warp_bytecode`](crate::execute_warp_bytecode): bit-identical
//! lane values, modeled cycles, [`crate::ExecStats`] deltas, memory
//! effects, errors and watchdog/deadline/cancellation polling.
//!
//! µop shapes without an inline template (atomics, division,
//! transcendentals, vectors wider than the inline cap) call back into
//! the bytecode engine's executor at run time, so coverage gaps cost
//! speed, never correctness. Hosts where native emission is unavailable
//! (non-x86-64, no FMA, or a locked-down address space) simply get
//! `None` from [`compile`] and the caller stays on the bytecode engine.

mod asm;
mod code;
mod emit;
mod rt;

pub use emit::JitEmitStats;

use dpvk_ir::{ResumeStatus, STy};

use crate::bytecode::{BytecodePass, BytecodeProgram};
use crate::cancel::CancelToken;
use crate::context::ThreadContext;
use crate::error::VmError;
use crate::frame::RegFrame;
use crate::interp::{mask_to, ExecLimits, WarpOutcome};
use crate::memory::MemAccess;
use crate::stats::ExecStats;

/// A program compiled to native x86-64 by the JIT tier.
///
/// Immutable once built; share it across worker threads with an `Arc`
/// and run warps through [`execute_warp_jit`]. The executable mapping
/// is unmapped on drop.
#[derive(Debug)]
pub struct JitProgram {
    mem: code::ExecMem,
    stats: JitEmitStats,
}

impl JitProgram {
    /// Emission counters for this compilation (code bytes, template vs.
    /// helper µops).
    pub fn emit_stats(&self) -> JitEmitStats {
        self.stats
    }
}

// SAFETY: the mapping is written once at construction and only read
// (executed) afterwards; all mutable state lives in the per-call
// `JitEnv`.
unsafe impl Send for JitProgram {}
unsafe impl Sync for JitProgram {}

/// Widest vector µop the JIT lowers lane-by-lane inline; wider vector
/// µops stay correct but call back into the interpreter helper per
/// dynamic dispatch (counted in [`JitEmitStats::wide_helper_uops`]).
/// Width-selection policies use this to anticipate the JIT efficiency
/// cliff when ranking candidate warp widths.
pub fn jit_inline_width_cap() -> u32 {
    emit::VEC_INLINE_MAX
}

/// Whether this host can emit and run native code at all. When false,
/// [`compile`] always returns `None`.
pub fn jit_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        code::ExecMem::supported() && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compile `program` to native code. Returns `None` when the host
/// cannot run JIT code (see [`jit_supported`]) or a structural limit
/// rules out emission (register frame too large for disp32 addressing);
/// the caller should fall back to the bytecode engine.
pub fn compile(program: &BytecodeProgram) -> Option<JitProgram> {
    if !jit_supported() {
        return None;
    }
    let (bytes, mut stats) = emit::emit_program(program)?;
    let mem = code::ExecMem::with_code(&bytes)?;
    stats.code_bytes = mem.len() as u64;
    Some(JitProgram { mem, stats })
}

/// Execute one warp through JIT-compiled code, starting at µop 0.
///
/// The native twin of
/// [`execute_warp_bytecode`](crate::execute_warp_bytecode): same
/// contract, same errors, bit-identical modeled cycles, [`ExecStats`]
/// and memory effects. `jit` must have been produced by [`compile`] from this
/// exact `program`. Warps under active µop profiling are routed through
/// the interpreter (counted as [`dpvk_trace::Counter::JitFallbackWarps`])
/// so the profiler still sees per-µop samples. A one-warp [`JitPass`].
///
/// # Errors
///
/// Identical to `execute_warp_bytecode`: memory faults, division by
/// zero, watchdog, deadline, cancellation.
///
/// # Panics
///
/// Panics if `ctxs.len() != program.warp_size()`.
#[allow(clippy::too_many_arguments)]
pub fn execute_warp_jit(
    jit: &JitProgram,
    program: &BytecodeProgram,
    scratch: &mut RegFrame,
    ctxs: &mut [ThreadContext],
    entry_id: i64,
    mem: &mut MemAccess<'_>,
    stats: &mut ExecStats,
    limits: &ExecLimits,
    cancel: Option<&CancelToken>,
) -> Result<WarpOutcome, VmError> {
    JitPass::new(jit, program, scratch, mem, limits, cancel).run_warp(ctxs, entry_id, stats)
}

/// A run of consecutive warps through one JIT-compiled program: the
/// `JitEnv` is built and the frame sized once, and each
/// [`run_warp`](Self::run_warp) resets only the per-warp fields — the
/// counter deltas, status, entry id, contexts and frame slots — before
/// entering native code. Every warp call has exactly the contract of
/// [`execute_warp_jit`].
pub struct JitPass<'p, 'm> {
    jit: &'p JitProgram,
    /// The interpreter over the same frame and memory: the profiled
    /// fallback, and the owner of the borrows the native code runs on.
    bytecode: BytecodePass<'p, 'm>,
    host: rt::HostCtx,
    env: rt::JitEnv,
}

impl<'p, 'm> JitPass<'p, 'm> {
    /// Bind `jit` (compiled from `program`) to a frame, memory view and
    /// limits for a run of warps.
    pub fn new(
        jit: &'p JitProgram,
        program: &'p BytecodeProgram,
        scratch: &'p mut RegFrame,
        mem: &'p mut MemAccess<'m>,
        limits: &'p ExecLimits,
        cancel: Option<&'p CancelToken>,
    ) -> Self {
        let poll_stride = limits.check_interval.max(1);
        let (global_base, global_len) = mem.global.raw_parts();
        let host = rt::HostCtx {
            program: program as *const BytecodeProgram,
            mem: std::ptr::null_mut(),
            cancel: cancel.map_or(std::ptr::null(), |c| c as *const CancelToken),
            deadline: limits.deadline,
            poll_stride,
            err: None,
        };
        let env = rt::JitEnv {
            regs: std::ptr::null_mut(),
            executed: 0,
            max_instructions: limits.max_instructions,
            next_poll: 0,
            cycles: 0,
            instructions: 0,
            flops: 0,
            loads: 0,
            stores: 0,
            restore_loads: 0,
            restore_bytes: 0,
            spill_stores: 0,
            spill_bytes: 0,
            cycles_body: 0,
            cycles_yield: 0,
            status: rt::STATUS_NONE,
            entry_id_masked: 0,
            ctxs: std::ptr::null_mut(),
            nctx: program.warp_size as u64,
            slots: program.slots as u64,
            global_base,
            global_len: global_len as u64,
            shared_base: std::ptr::null_mut(),
            shared_len: mem.shared.len() as u64,
            local_base: std::ptr::null_mut(),
            local_len: mem.local.len() as u64,
            param_base: mem.param.as_ptr(),
            param_len: mem.param.len() as u64,
            const_base: mem.cbank.as_ptr(),
            const_len: mem.cbank.len() as u64,
            host: std::ptr::null_mut(),
        };
        let bytecode = BytecodePass::new(program, scratch, mem, limits, cancel);
        JitPass { jit, bytecode, host, env }
    }

    /// Execute one warp, starting at µop 0.
    ///
    /// # Errors
    ///
    /// See [`execute_warp_jit`].
    ///
    /// # Panics
    ///
    /// Panics if `ctxs.len() != program.warp_size()`: native code
    /// indexes contexts up to the program's warp size.
    pub fn run_warp(
        &mut self,
        ctxs: &mut [ThreadContext],
        entry_id: i64,
        stats: &mut ExecStats,
    ) -> Result<WarpOutcome, VmError> {
        let program = self.bytecode.program;
        // The µop profiler needs the interpreter's per-op dispatch to
        // attribute samples; native code has no per-µop hook.
        if dpvk_trace::profile::uop_enabled() && program.profile_key().is_some() {
            dpvk_trace::add(dpvk_trace::Counter::JitFallbackWarps, 1);
            return self.bytecode.run_warp(ctxs, entry_id, stats);
        }

        assert_eq!(
            ctxs.len(),
            program.warp_size as usize,
            "warp size mismatch: {} contexts for a width-{} program",
            ctxs.len(),
            program.warp_size
        );
        let bc = &mut self.bytecode;
        if !std::mem::take(&mut bc.fresh) {
            bc.regs.fill(0);
        }
        stats.warp_entries += 1;
        stats.thread_entries += program.warp_size as u64;

        let polling = bc.limits.deadline.is_some() || bc.cancel.is_some();
        // Pointers are re-derived from the live borrows every warp, so
        // none outlives a use of the borrow it came from.
        self.host.mem = (&mut *bc.mem as *mut MemAccess<'_>).cast::<MemAccess<'static>>();
        self.host.err = None;
        let env = &mut self.env;
        env.regs = bc.regs.as_mut_ptr();
        env.executed = 0;
        env.next_poll = if polling { self.host.poll_stride } else { u64::MAX };
        env.cycles = 0;
        env.instructions = 0;
        env.flops = 0;
        env.loads = 0;
        env.stores = 0;
        env.restore_loads = 0;
        env.restore_bytes = 0;
        env.spill_stores = 0;
        env.spill_bytes = 0;
        env.cycles_body = 0;
        env.cycles_yield = 0;
        env.status = rt::STATUS_NONE;
        env.entry_id_masked = mask_to(entry_id as u64, STy::I32);
        env.ctxs = ctxs.as_mut_ptr();
        env.shared_base = bc.mem.shared.as_mut_ptr();
        env.local_base = bc.mem.local.as_mut_ptr();
        env.host = &mut self.host;

        // SAFETY: `jit.mem` holds code emitted for this program's µop
        // stream by `emit_program`, entry at offset 0, with the extern
        // "C" signature the prologue/epilogue implement; `env` outlives
        // the call and every pointer in it is valid for its stated
        // length.
        let rc = unsafe {
            let entry: unsafe extern "C" fn(*mut rt::JitEnv) -> u32 =
                std::mem::transmute(self.jit.mem.base());
            entry(env)
        };

        // Merge the counter deltas on success and error alike — the
        // interpreter mutates the caller's stats in place as it runs.
        // The unflushed block remainder `env.cycles` is dropped,
        // matching the local accumulator the interpreter abandons when a
        // block errors before retiring.
        stats.instructions += env.instructions;
        stats.flops += env.flops;
        stats.loads += env.loads;
        stats.stores += env.stores;
        stats.restore_loads += env.restore_loads;
        stats.restore_bytes += env.restore_bytes;
        stats.spill_stores += env.spill_stores;
        stats.spill_bytes += env.spill_bytes;
        stats.cycles_body += env.cycles_body;
        stats.cycles_yield += env.cycles_yield;

        if rc != 0 {
            return Err(self
                .host
                .err
                .take()
                .expect("jit helper signalled an error without recording one"));
        }
        let status = match env.status {
            rt::STATUS_BRANCH => ResumeStatus::Branch,
            rt::STATUS_BARRIER => ResumeStatus::Barrier,
            _ => ResumeStatus::Exit,
        };
        Ok(WarpOutcome { status })
    }
}
