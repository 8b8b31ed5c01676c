//! Warm-restart round-trip through the persistent translation cache.
//!
//! A "restart" here is a fresh [`Device`] over the same cache directory:
//! each device owns its in-memory translation cache, so a new device has
//! exactly the state a new process would have. The warm device must
//! rehydrate every compilation artifact from disk — zero nanoseconds in
//! translation and specialization; only the bytecode decode re-runs —
//! and produce bit-identical kernel outputs under all three execution
//! engines.

mod common;

use std::path::{Path, PathBuf};

use dpvk::core::{CacheStats, Device, Engine, ExecConfig, ParamValue, PersistConfig};
use dpvk::vm::MachineModel;

/// A kernel with divergence and a barrier, so specialization produces
/// exit handlers, spill slots and barrier bookkeeping — all of which
/// must survive the disk round trip.
const KERNEL: &str = r#"
.kernel collatz (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<3>;
  .reg .pred %p<4>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  shl.u32 %r2, %r0, 2;
  cvt.u64.u32 %rd0, %r2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r3, [%rd1];
  mov.u32 %r4, 0;
loop:
  setp.le.u32 %p1, %r3, 1;
  @%p1 bra store;
  and.b32 %r5, %r3, 1;
  setp.eq.u32 %p2, %r5, 0;
  @%p2 bra even;
  mad.lo.u32 %r3, %r3, 3, 1;
  bra next;
even:
  shr.u32 %r3, %r3, 1;
next:
  add.u32 %r4, %r4, 1;
  bar.sync 0;
  bra loop;
store:
  st.global.u32 [%rd1], %r4;
done:
  ret;
}
"#;

fn cache_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpvk-warm-restart-{tag}-{}", std::process::id()))
}

/// One full "process": fresh device over `dir`, compile (or rehydrate),
/// launch, digest the output.
fn run_process(dir: &Path, engine: Engine) -> (u64, CacheStats) {
    let dev = Device::with_persist(
        MachineModel::sandybridge_sse(),
        1 << 20,
        Some(PersistConfig::at(dir)),
    );
    dev.register_source(KERNEL).unwrap();
    let n = 96u32;
    let input: Vec<u32> = (0..n).map(|i| i * 7 + 1).collect();
    let buf = dev.alloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(buf.ptr(), &input).unwrap();
    dev.launch(
        "collatz",
        [n.div_ceil(32), 1, 1],
        [32, 1, 1],
        &[ParamValue::Ptr(buf.ptr()), ParamValue::U32(n)],
        &ExecConfig::dynamic(4).with_engine(engine),
    )
    .unwrap();
    let out = dev.copy_u32_dtoh(buf.ptr(), n as usize).unwrap();
    let bytes: Vec<u8> = out.iter().flat_map(|v| v.to_le_bytes()).collect();
    (common::digest_bytes(&bytes), dev.cache_stats())
}

#[test]
fn warm_restart_skips_translation_and_specialization() {
    for engine in [Engine::Tree, Engine::Bytecode, Engine::Jit] {
        let dir = cache_dir(&format!("{engine:?}"));
        let _ = std::fs::remove_dir_all(&dir);

        let (cold_digest, cold) = run_process(&dir, engine);
        assert!(cold.persist_writes >= 2, "[{engine:?}] cold run must persist: {cold:?}");
        assert!(cold.translate_ns > 0, "[{engine:?}] cold run must translate: {cold:?}");
        assert!(cold.specialize_ns > 0, "[{engine:?}] cold run must specialize: {cold:?}");

        let (warm_digest, warm) = run_process(&dir, engine);
        assert_eq!(
            cold_digest, warm_digest,
            "[{engine:?}] warm-restart output diverged from the cold run"
        );
        assert!(
            warm.persist_hits >= 2,
            "[{engine:?}] warm run must rehydrate translation and specialization: {warm:?}"
        );
        assert_eq!(warm.translate_ns, 0, "[{engine:?}] translation not skipped: {warm:?}");
        assert_eq!(warm.specialize_ns, 0, "[{engine:?}] specialization not skipped: {warm:?}");
        assert!(warm.decode_ns > 0, "[{engine:?}] rehydration must re-decode: {warm:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn disk_cache_survives_unrelated_corruption() {
    // Scribble over one artifact between runs: the warm device must
    // detect it (checksum), quarantine the file, recompile, and still
    // produce identical output.
    let dir = cache_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);

    let (cold_digest, _) = run_process(&dir, Engine::Bytecode);
    let mut artifacts: Vec<PathBuf> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    artifacts.sort();
    assert!(!artifacts.is_empty(), "cold run left no artifacts");
    std::fs::write(&artifacts[0], b"not an artifact").unwrap();

    let (warm_digest, warm) = run_process(&dir, Engine::Bytecode);
    assert_eq!(cold_digest, warm_digest, "corruption recovery changed outputs");
    assert!(warm.persist_misses >= 1, "corrupt artifact must read as a miss: {warm:?}");
    assert!(
        !artifacts[0].exists() || std::fs::read(&artifacts[0]).unwrap() != b"not an artifact",
        "corrupt artifact must be scrubbed or rewritten"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Collatz step counts, the kernel's expected output.
fn collatz_steps(input: &[u32]) -> Vec<u32> {
    input
        .iter()
        .map(|&v| {
            let (mut v, mut steps) = (v, 0);
            while v > 1 {
                v = if v % 2 == 0 { v / 2 } else { 3 * v + 1 };
                steps += 1;
            }
            steps
        })
        .collect()
}

/// Launch `collatz` on `dev` under `config` and check its output.
fn launch_checked(dev: &Device, config: &ExecConfig) -> Result<(), String> {
    let n = 96u32;
    let input: Vec<u32> = (0..n).map(|i| i * 7 + 1).collect();
    let buf = dev.alloc(n as usize * 4).map_err(|e| e.to_string())?;
    dev.copy_u32_htod(buf.ptr(), &input).map_err(|e| e.to_string())?;
    dev.launch(
        "collatz",
        [n.div_ceil(32), 1, 1],
        [32, 1, 1],
        &[ParamValue::Ptr(buf.ptr()), ParamValue::U32(n)],
        config,
    )
    .map_err(|e| format!("{:?} w{}: {e}", config.policy, config.max_warp))?;
    let out = dev.copy_u32_dtoh(buf.ptr(), n as usize).map_err(|e| e.to_string())?;
    if out != collatz_steps(&input) {
        return Err(format!("{:?} w{}: wrong output", config.policy, config.max_warp));
    }
    Ok(())
}

#[test]
fn devices_sharing_a_directory_never_load_another_widths_artifact() {
    // Devices in one process each own a cache store over the same
    // directory and write different widths of one kernel at once. Every
    // artifact a fresh device later loads must be the one for the width
    // it asked for: a wrong-width program must never reach a warp.
    let configs: Vec<ExecConfig> = [1, 2, 4, 8]
        .map(ExecConfig::dynamic)
        .into_iter()
        .chain([2, 4, 8].map(ExecConfig::static_tie))
        .map(|c| c.with_workers(1))
        .collect();
    for round in 0..16 {
        let dir = cache_dir(&format!("shared-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let start = std::sync::Barrier::new(configs.len());
        let writers: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = configs
                .iter()
                .map(|config| {
                    let (dir, start) = (&dir, &start);
                    s.spawn(move || {
                        let dev = Device::with_persist(
                            MachineModel::sandybridge_sse(),
                            1 << 20,
                            Some(PersistConfig::at(dir)),
                        );
                        dev.register_source(KERNEL).unwrap();
                        start.wait();
                        launch_checked(&dev, config)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in writers {
            r.unwrap_or_else(|e| panic!("round {round}, writer: {e}"));
        }
        for config in &configs {
            let dev = Device::with_persist(
                MachineModel::sandybridge_sse(),
                1 << 20,
                Some(PersistConfig::at(&dir)),
            );
            dev.register_source(KERNEL).unwrap();
            launch_checked(&dev, config).unwrap_or_else(|e| panic!("round {round}, reader: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
