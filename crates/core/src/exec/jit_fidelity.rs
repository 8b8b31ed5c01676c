//! Counter fidelity of the JIT tier against the bytecode engine at the
//! points where native code hands its register-resident counters
//! (`executed`, the running block cycles) to a helper or gives up:
//! watchdog trips at every instruction count, cancellation and deadline
//! polls, helper-fallback µops in the middle of a block, and
//! out-of-bounds run components resumed through `jit_run_from`. Every
//! case must leave identical `ExecStats` (instructions, body and yield
//! cycles included), errors, resume points and memory — per warp, and
//! across consecutive warps of one [`JitPass`]. Every sweep runs at an
//! inline width and at one past the JIT's inline cap, where every
//! vector µop, `CopyRun` and `LoadRun` goes through a helper.

use std::sync::Arc;
use std::time::Instant;

use dpvk_ptx::parse_module;
use dpvk_vm::{
    execute_warp_bytecode, jit_inline_width_cap, jit_supported, BytecodePass, CancelToken,
    ExecLimits, ExecStats, GlobalMem, JitPass, MachineModel, MemAccess, RegFrame, ThreadContext,
    VmError, WarpOutcome,
};

use crate::cache::{CompiledKernel, TranslationCache, Variant};

/// Helper-routed µops mid-block (`div`, `rem`, `atom`), a
/// data-dependent loop, shared-memory traffic that decodes to run µops,
/// and a barrier with values live across it.
const KERNEL: &str = r#"
.kernel fidelity (.param .u64 data, .param .u32 d) {
  .shared .u32 tile[64];
  .reg .u32 %r<13>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  add.u64 %rd3, %rd1, 4;
  ld.global.u32 %r12, [%rd3];
  add.u32 %r2, %r2, %r12;
  and.b32 %r2, %r2, 7;
  ld.param.u32 %r3, [d];
  add.u32 %r4, %r2, 7;
  div.u32 %r5, %r4, %r3;
  rem.u32 %r6, %r4, %r3;
  atom.global.add.u32 %r7, [%rd1], %r5;
  add.u32 %r8, %r6, %r7;
  mul.lo.u32 %r9, %r8, 3;
  mov.u64 %rd2, tile;
  add.u64 %rd2, %rd2, %rd0;
  st.shared.u32 [%rd2], %r9;
  mov.u32 %r10, 0;
loop:
  add.u32 %r10, %r10, 1;
  setp.lt.u32 %p0, %r10, %r2;
  @%p0 bra loop;
  bar.sync 0;
  ld.shared.u32 %r11, [%rd2];
  add.u32 %r11, %r11, %r10;
  add.u32 %r11, %r11, %r5;
  st.global.u32 [%rd1], %r11;
  ret;
}
"#;

const WIDTH: u32 = 4;

/// Wider than [`jit_inline_width_cap`]: vector µops run in helpers.
const WIDE: u32 = 16;

fn compiled_at(width: u32) -> Arc<CompiledKernel> {
    let cache = TranslationCache::with_persist(MachineModel::sandybridge_sse(), None);
    cache.register_module(&parse_module(KERNEL).unwrap());
    cache.get("fidelity", width, Variant::Dynamic).unwrap()
}

fn compiled() -> Arc<CompiledKernel> {
    compiled_at(WIDTH)
}

/// The fidelity kernel at the inline width and at the helper width.
fn widths() -> [Arc<CompiledKernel>; 2] {
    [compiled(), compiled_at(WIDE)]
}

/// Inputs of one warp call.
struct Setup {
    entry: i64,
    divisor: u32,
    shared_len: usize,
    local_len: usize,
    limits: ExecLimits,
    cancel: Option<CancelToken>,
}

impl Setup {
    fn new() -> Self {
        Setup {
            entry: 0,
            divisor: 3,
            shared_len: 256,
            local_len: 4096,
            limits: ExecLimits::default(),
            cancel: None,
        }
    }
}

/// What one engine left behind after a run of warps.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per warp: the result and the stats after it.
    warps: Vec<(Result<WarpOutcome, VmError>, ExecStats)>,
    resume_points: Vec<i64>,
    global: Vec<u8>,
    shared: Vec<u8>,
    local: Vec<u8>,
}

/// Run `warps` consecutive warps (lane groups `0..w`, `w..2w`, … of the
/// kernel's width `w`) of `setup` through one engine pass — the JIT's
/// when `jit`, the interpreter's otherwise.
fn run(c: &CompiledKernel, setup: &Setup, warps: u32, jit: bool) -> Observed {
    let width = c.bytecode.warp_size() as usize;
    let lanes = width as u32 * warps;
    let global = GlobalMem::new(4 * lanes as usize + 64);
    for i in 0..lanes {
        global.write::<4>(4 * i as u64, ((i % 5) + 1).to_le_bytes()).unwrap();
    }
    let mut param = vec![0u8; 12];
    param[8..].copy_from_slice(&setup.divisor.to_le_bytes());
    let mut ctxs: Vec<ThreadContext> = (0..lanes)
        .map(|i| {
            let mut ctx = ThreadContext::new([i, 0, 0], [lanes, 1, 1], [0; 3], [1; 3]);
            ctx.local_base = u64::from(i) * 64;
            ctx
        })
        .collect();
    let (mut shared, mut local) = (vec![0u8; setup.shared_len], vec![0u8; setup.local_len]);
    let mut mem = MemAccess {
        global: &global,
        shared: &mut shared,
        local: &mut local,
        param: &param,
        cbank: &[],
    };
    let mut frame = RegFrame::new();
    let mut stats = ExecStats::default();
    let mut out = Vec::new();
    let code = c.jit("fidelity").map(|j| &**j);
    let (limits, cancel) = (&setup.limits, setup.cancel.as_ref());
    if jit {
        let code = code.expect("native code for the fidelity kernel");
        let mut pass = JitPass::new(code, &c.bytecode, &mut frame, &mut mem, limits, cancel);
        for warp in ctxs.chunks_mut(width) {
            let r = pass.run_warp(warp, setup.entry, &mut stats);
            out.push((r, stats));
        }
    } else {
        let mut pass = BytecodePass::new(&c.bytecode, &mut frame, &mut mem, limits, cancel);
        for warp in ctxs.chunks_mut(width) {
            let r = pass.run_warp(warp, setup.entry, &mut stats);
            out.push((r, stats));
        }
    }
    let mut g = vec![0u8; global.size()];
    global.copy_out(0, &mut g).unwrap();
    Observed {
        warps: out,
        resume_points: ctxs.iter().map(|c| c.resume_point).collect(),
        global: g,
        shared,
        local,
    }
}

fn assert_agree(c: &CompiledKernel, setup: &Setup, warps: u32, what: &str) -> Observed {
    let want = run(c, setup, warps, false);
    let got = run(c, setup, warps, true);
    assert_eq!(got, want, "{what}");
    got
}

#[test]
fn fidelity_kernel_uses_helpers_and_run_uops() {
    assert!(WIDE > jit_inline_width_cap());
    for c in widths() {
        let listing = format!("{:?}", c.bytecode);
        for uop in ["Atom", "LoadRun", "StoreRun"] {
            assert!(listing.contains(uop), "fidelity kernel lost its {uop} µop:\n{listing}");
        }
        if let Some(jit) = c.jit("fidelity") {
            assert!(jit.emit_stats().helper_uops > 0, "no helper-routed µops");
        }
    }
    if let Some(jit) = compiled_at(WIDE).jit("fidelity") {
        assert!(jit.emit_stats().wide_helper_uops > 0, "no wide vector µops in helpers");
    }
}

#[test]
fn watchdog_trips_at_identical_instruction_counts() {
    if !jit_supported() {
        return;
    }
    for c in widths() {
        let w = c.bytecode.warp_size();
        let full = assert_agree(&c, &Setup::new(), 1, &format!("w{w} unlimited"));
        assert!(full.warps[0].0.is_ok());
        let mut tripped = 0;
        for max in 1..=400 {
            let setup = Setup {
                limits: ExecLimits { max_instructions: max, ..ExecLimits::default() },
                ..Setup::new()
            };
            let o = assert_agree(&c, &setup, 2, &format!("w{w} watchdog at {max}"));
            tripped +=
                o.warps.iter().filter(|(r, _)| matches!(r, Err(VmError::Watchdog { .. }))).count();
        }
        assert!(tripped > 300, "w{w} watchdog sweep never reached the warp's end: {tripped}");
    }
}

#[test]
fn cancel_and_deadline_polls_cross_identically() {
    if !jit_supported() {
        return;
    }
    for c in widths() {
        let w = c.bytecode.warp_size();
        for stride in [1, 2, 3, 5, 8, 13, 21, 34] {
            let cancelled = CancelToken::new();
            cancelled.cancel();
            let setup = Setup {
                limits: ExecLimits { check_interval: stride, ..ExecLimits::default() },
                cancel: Some(cancelled),
                ..Setup::new()
            };
            let o = assert_agree(&c, &setup, 2, &format!("w{w} cancel, stride {stride}"));
            assert_eq!(o.warps[0].0, Err(VmError::Cancelled));

            let setup = Setup {
                limits: ExecLimits {
                    check_interval: stride,
                    deadline: Some(Instant::now()),
                    ..ExecLimits::default()
                },
                ..Setup::new()
            };
            let o = assert_agree(&c, &setup, 2, &format!("w{w} deadline, stride {stride}"));
            assert_eq!(o.warps[0].0, Err(VmError::Deadline));
        }
    }
}

#[test]
fn helper_fallback_errors_mid_block_match() {
    if !jit_supported() {
        return;
    }
    let c = compiled();
    // Division by zero raised inside the `div` helper, mid-block.
    let setup = Setup { divisor: 0, ..Setup::new() };
    let o = assert_agree(&c, &setup, 2, "division by zero");
    assert!(o.warps[0].0.is_err(), "{:?}", o.warps[0].0);
    // Three consecutive warps of one pass, from the kernel entry and
    // from every resume point.
    for entry in 0..4 {
        let setup = Setup { entry, ..Setup::new() };
        assert_agree(&c, &setup, 3, &format!("entry {entry}"));
    }
}

#[test]
fn out_of_bounds_run_components_resume_identically() {
    if !jit_supported() {
        return;
    }
    // Shared and local arenas too small for some lanes' slots: a run
    // µop's bounds check fails at a middle component and resumes there
    // through `jit_run_from` (at the helper width, the whole run µop
    // runs in `jit_step`).
    for c in widths() {
        let w = c.bytecode.warp_size();
        let mut faulted = 0;
        for entry in 0..4 {
            for len in (0..=40).step_by(4) {
                let setup = Setup { entry, shared_len: len, ..Setup::new() };
                let what = format!("w{w} entry {entry}, shared {len}");
                let o = assert_agree(&c, &setup, 2, &what);
                faulted += o.warps.iter().filter(|(r, _)| r.is_err()).count();
            }
            for len in (0..=512).step_by(16) {
                let setup = Setup { entry, local_len: len, ..Setup::new() };
                assert_agree(&c, &setup, 2, &format!("w{w} entry {entry}, local {len}"));
            }
        }
        assert!(faulted > 0, "w{w}: no out-of-bounds run component was exercised");
    }
}

#[test]
fn one_warp_calls_match_the_pass() {
    // `execute_warp_bytecode` is a one-warp pass: warp-by-warp calls
    // leave what one pass over the same warps leaves.
    let c = compiled();
    let setup = Setup::new();
    let pass = run(&c, &setup, 3, false);
    let global = GlobalMem::new(4 * 3 * WIDTH as usize + 64);
    for i in 0..3 * WIDTH {
        global.write::<4>(4 * i as u64, ((i % 5) + 1).to_le_bytes()).unwrap();
    }
    let mut param = vec![0u8; 12];
    param[8..].copy_from_slice(&setup.divisor.to_le_bytes());
    let lanes = 3 * WIDTH;
    let mut ctxs: Vec<ThreadContext> = (0..lanes)
        .map(|i| {
            let mut ctx = ThreadContext::new([i, 0, 0], [lanes, 1, 1], [0; 3], [1; 3]);
            ctx.local_base = u64::from(i) * 64;
            ctx
        })
        .collect();
    let (mut shared, mut local) = (vec![0u8; setup.shared_len], vec![0u8; setup.local_len]);
    let mut mem = MemAccess {
        global: &global,
        shared: &mut shared,
        local: &mut local,
        param: &param,
        cbank: &[],
    };
    let mut stats = ExecStats::default();
    let mut frame = RegFrame::new();
    for (i, warp) in ctxs.chunks_mut(WIDTH as usize).enumerate() {
        let r = execute_warp_bytecode(
            &c.bytecode,
            &mut frame,
            warp,
            0,
            &mut mem,
            &mut stats,
            &setup.limits,
            None,
        );
        assert_eq!((r, stats), pass.warps[i], "warp {i}");
    }
}
