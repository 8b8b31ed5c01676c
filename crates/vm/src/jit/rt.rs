//! The JIT runtime contract: the `#[repr(C)]` environment block that
//! generated code addresses with fixed offsets, and the `extern "C"`
//! helpers it calls for polling, errors, and µops without an inline
//! template.
//!
//! The helpers hold no µop semantics of their own. `jit_step` and
//! `jit_run_from` run the bytecode engine's executor,
//! [`exec_op`](crate::bytecode::exec_op), with the `JitEnv` as its
//! [`Charge`] clock, and `jit_poll` runs the engine's poll body. So one
//! module decides what a µop does and in what order it charges; the
//! helpers only adapt the environment block to it.

use std::time::Instant;

use dpvk_ir::{ResumeStatus, STy};

use crate::bytecode::{
    self, exec_op, BytecodeProgram, Charge, OpMeta, F_LOAD, F_RESTORE, F_SPILL, F_STORE,
};
use crate::cancel::CancelToken;
use crate::context::ThreadContext;
use crate::error::VmError;
use crate::interp::mask_to;
use crate::memory::MemAccess;

/// Status codes written to [`JitEnv::status`]; 0 means "no SetStatus
/// executed yet" (`None` in the interpreter).
pub(crate) const STATUS_NONE: u64 = 0;
pub(crate) const STATUS_BRANCH: u64 = 1;
pub(crate) const STATUS_BARRIER: u64 = 2;
pub(crate) const STATUS_EXIT: u64 = 3;

/// Failure kinds for [`jit_fail`].
pub(crate) const FAIL_WATCHDOG: u32 = 0;
pub(crate) const FAIL_FLOAT_SWITCH: u32 = 1;

/// The per-warp-call environment block. Generated code keeps a pointer
/// to it in `r15` and reads/writes fields at `offset_of!` displacements;
/// the layout is `repr(C)` so those offsets are stable within a build.
///
/// Counter fields (`executed` … `spill_bytes`) start at zero and hold
/// *deltas* for this warp call; the Rust wrapper merges them into the
/// caller's [`crate::stats::ExecStats`] after the generated code
/// returns (on success and on error alike, matching the interpreter,
/// which mutates the caller's stats in place).
#[repr(C)]
pub(crate) struct JitEnv {
    /// Base of the register frame (`slots` u64s).
    pub regs: *mut u64,
    /// Dynamic instructions executed (the watchdog/poll clock).
    pub executed: u64,
    /// Watchdog limit (`ExecLimits::max_instructions`).
    pub max_instructions: u64,
    /// Next `executed` value at which to poll cancel/deadline;
    /// `u64::MAX` when polling is disabled.
    pub next_poll: u64,
    /// Modeled cycles accumulated since the last block retire.
    pub cycles: u64,
    /// `ExecStats::instructions` delta.
    pub instructions: u64,
    /// `ExecStats::flops` delta.
    pub flops: u64,
    /// `ExecStats::loads` delta.
    pub loads: u64,
    /// `ExecStats::stores` delta.
    pub stores: u64,
    /// `ExecStats::restore_loads` delta.
    pub restore_loads: u64,
    /// `ExecStats::restore_bytes` delta.
    pub restore_bytes: u64,
    /// `ExecStats::spill_stores` delta.
    pub spill_stores: u64,
    /// `ExecStats::spill_bytes` delta.
    pub spill_bytes: u64,
    /// `ExecStats::cycles_body` delta.
    pub cycles_body: u64,
    /// `ExecStats::cycles_yield` delta.
    pub cycles_yield: u64,
    /// Last `SetStatus` value (STATUS_*).
    pub status: u64,
    /// Pre-masked `EntryId` context value (`mask_to(entry_id, I32)`).
    pub entry_id_masked: u64,
    /// Thread contexts of this warp.
    pub ctxs: *mut ThreadContext,
    /// Number of contexts (= warp size).
    pub nctx: u64,
    /// Register frame slot count (for helper-side slice reconstruction).
    pub slots: u64,
    /// Global arena base/len.
    pub global_base: *mut u8,
    /// Global arena length.
    pub global_len: u64,
    /// Shared memory base.
    pub shared_base: *mut u8,
    /// Shared memory length.
    pub shared_len: u64,
    /// Local arena base.
    pub local_base: *mut u8,
    /// Local arena length.
    pub local_len: u64,
    /// Parameter buffer base (read-only).
    pub param_base: *const u8,
    /// Parameter buffer length.
    pub param_len: u64,
    /// Constant bank base (read-only).
    pub const_base: *const u8,
    /// Constant bank length.
    pub const_len: u64,
    /// Type-erased pointer to the [`HostCtx`] for this call.
    pub host: *mut HostCtx,
}

/// Host-side call state the generated code never touches directly; the
/// helpers reach it through [`JitEnv::host`].
pub(crate) struct HostCtx {
    /// The program being executed (for helper-side µop decode).
    pub program: *const BytecodeProgram,
    /// Type-erased `*mut MemAccess<'_>` (lifetime erased; only
    /// dereferenced during the warp call it was built for).
    pub mem: *mut MemAccess<'static>,
    /// Cancellation token, null when absent.
    pub cancel: *const CancelToken,
    /// Wall-clock deadline, `None` when absent.
    pub deadline: Option<Instant>,
    /// Instructions between polls (`ExecLimits::check_interval.max(1)`).
    pub poll_stride: u64,
    /// The error produced by a failing helper, picked up by the wrapper
    /// when generated code returns nonzero.
    pub err: Option<VmError>,
}

impl JitEnv {
    /// The poll body of the instruction clock: schedule the next poll,
    /// then check cancellation and the deadline.
    ///
    /// # Safety
    ///
    /// `self.host` must point to the live [`HostCtx`] of this warp call.
    #[inline(always)]
    unsafe fn poll(&mut self) -> Result<(), VmError> {
        let host = &*self.host;
        self.next_poll = self.executed + host.poll_stride;
        bytecode::poll(host.cancel.as_ref(), host.deadline)
    }
}

/// A `JitEnv` inside a helper call, where its `host` is live: the JIT's
/// instruction clock and charges, the interpreter loop's over the
/// fields native code flushes before every helper call. Built only by
/// [`jit_exec`].
struct HelperClock<'a>(&'a mut JitEnv);

impl Charge for HelperClock<'_> {
    #[inline(always)]
    fn charge(&mut self, meta: OpMeta) -> Result<(), VmError> {
        let env = &mut *self.0;
        env.executed += 1;
        if env.executed > env.max_instructions {
            return Err(VmError::Watchdog { limit: env.max_instructions });
        }
        if env.executed >= env.next_poll {
            // SAFETY: a `HelperClock` exists only inside a helper
            // call, while `host` is live.
            unsafe { env.poll()? };
        }
        env.cycles += meta.cost as u64;
        env.flops += meta.flops as u64;
        if meta.flags != 0 {
            if meta.flags & F_LOAD != 0 {
                env.loads += 1;
                if meta.flags & F_RESTORE != 0 {
                    env.restore_loads += 1;
                    env.restore_bytes += meta.bytes as u64;
                }
            }
            if meta.flags & F_STORE != 0 {
                env.stores += 1;
                if meta.flags & F_SPILL != 0 {
                    env.spill_stores += 1;
                    env.spill_bytes += meta.bytes as u64;
                }
            }
        }
        Ok(())
    }
}

/// Park `e` in the host for the wrapper and return the failure code.
///
/// # Safety
///
/// `env.host` must point to the live [`HostCtx`] of this warp call.
#[inline(always)]
unsafe fn fail(env: &mut JitEnv, e: VmError) -> u32 {
    (*env.host).err = Some(e);
    1
}

/// Poll helper: generated code calls this when `executed` crosses
/// `next_poll`. Returns 0 to continue, 1 on cancellation/deadline
/// (error stored in the host).
pub(crate) unsafe extern "C" fn jit_poll(env: *mut JitEnv) -> u32 {
    let env = &mut *env;
    match env.poll() {
        Ok(()) => 0,
        Err(e) => fail(env, e),
    }
}

/// Terminal-failure helper for inline templates (watchdog trip, float
/// switch). Always returns 1.
pub(crate) unsafe extern "C" fn jit_fail(env: *mut JitEnv, kind: u32) -> u32 {
    let env = &mut *env;
    let err = match kind {
        FAIL_WATCHDOG => VmError::Watchdog { limit: env.max_instructions },
        _ => VmError::Unsupported("float switch".into()),
    };
    fail(env, err)
}

/// Slow-path float→int conversion lane (saturating Rust `as` casts; the
/// inline template branches here only when `cvttsd2si` reports overflow
/// or NaN). Pure: no env access.
pub(crate) unsafe extern "C" fn jit_f2i(bits: u64, to_bits: u32, signed: u32) -> u64 {
    let x = f64::from_bits(bits);
    let to = match to_bits {
        1 => STy::I1,
        8 => STy::I8,
        16 => STy::I16,
        32 => STy::I32,
        _ => STy::I64,
    };
    if signed != 0 {
        mask_to((x as i64) as u64, to)
    } else {
        mask_to(x as u64, to)
    }
}

/// Execute µop `idx` — charge included — through the bytecode engine's
/// [`exec_op`]. The universal fallback for op shapes without an inline
/// template; also the whole-op slow path behind inline fast-path guards
/// (memory bounds), re-running the op from its start so charges and
/// partial effects land exactly as interpreted.
///
/// Returns 0 on success, 1 with the error stored in the host.
///
/// # Safety
///
/// Must only be called from generated code during a warp call whose
/// `JitEnv`/`HostCtx` pointers are all live.
pub(crate) unsafe extern "C" fn jit_step(env: *mut JitEnv, idx: u32) -> u32 {
    jit_exec(&mut *env, idx, 0)
}

/// Resume a `LoadRun`/`StoreRun` at component `comp` and run it to the
/// end of the µop. The inline template branches here when a
/// component's bounds check fails — the helper re-runs *that*
/// component from its first charge (the inline fast path charges only
/// after the bounds check passes), so a faulting run leaves the same
/// stats and register prefix as the interpreter.
pub(crate) unsafe extern "C" fn jit_run_from(env: *mut JitEnv, idx: u32, comp: u32) -> u32 {
    jit_exec(&mut *env, idx, comp as usize)
}

/// [`exec_op`] over the warp call's frame, contexts and memory, with
/// `env` as the clock. Terminators never reach here: they always have
/// inline templates.
///
/// # Safety
///
/// As for [`jit_step`]: every pointer in `env` and its [`HostCtx`] is
/// live and valid for its stated length, and `idx` indexes the
/// program's µop stream.
unsafe fn jit_exec(env: &mut JitEnv, idx: u32, comp: usize) -> u32 {
    let host = &*env.host;
    let program = &*host.program;
    let op = &program.code[idx as usize];
    let regs = std::slice::from_raw_parts_mut(env.regs, env.slots as usize);
    let ctxs = std::slice::from_raw_parts_mut(env.ctxs, env.nctx as usize);
    let entry_id = env.entry_id_masked;
    let mut status = None;
    let mem = &mut *host.mem;
    let result = exec_op(&mut HelperClock(env), op, comp, regs, ctxs, entry_id, mem, &mut status);
    if let Some(s) = status {
        env.status = match s {
            ResumeStatus::Branch => STATUS_BRANCH,
            ResumeStatus::Barrier => STATUS_BARRIER,
            ResumeStatus::Exit => STATUS_EXIT,
        };
    }
    match result {
        Ok(true) => 0,
        Ok(false) => unreachable!("terminator µop routed to a JIT helper"),
        Err(e) => fail(env, e),
    }
}
