//! Disk-backed persistent translation cache.
//!
//! The in-memory [`TranslationCache`](crate::cache::TranslationCache)
//! dies with the process; every restart re-pays PTX parsing, translation
//! and specialization for each kernel. This module persists the two
//! expensive artifacts — the translated scalar kernel and each
//! specialized function — as IR to a content-addressed directory, so a
//! cold process rehydrates them and skips translation and
//! specialization. Bytecode is not stored: the loader re-decodes it from
//! the verified function, exactly as a fresh compile does.
//!
//! **Content addressing.** Artifact keys are FNV-1a64 hashes over the
//! container format version, the machine-model name, the kernel's
//! printed source text, and (for specializations) the warp width and
//! variant label. A changed kernel body therefore produces a different
//! key — stale artifacts are never returned, they just age out.
//!
//! **Container format.** Every file is `MAGIC ∥ version ∥ kind ∥
//! payload-length ∥ payload-checksum ∥ payload`. Loads verify all five;
//! any mismatch (torn write, bit rot, format drift) deletes the file and
//! reports a miss, so the worst case for a corrupt cache is a
//! recompile. `FORMAT_VERSION` **must be bumped whenever any layer of
//! the encoding changes** — the IR codec or the layouts in this file
//! (see DESIGN.md).
//!
//! **Atomicity.** Stores write a temp file in the cache directory and
//! `rename(2)` it into place, so concurrent processes (e.g. parallel
//! test binaries sharing one `DPVK_CACHE_DIR`) never observe partial
//! artifacts. Temp names are unique per process *and* per write — the
//! sequence number is process-wide, and the file is created with
//! `create_new` — so two stores in one process (two `Device`s sharing
//! a directory) can never rename each other's bytes into place.
//!
//! **Self-checking loads.** A specialization artifact records the warp
//! width and variant it was compiled for; a load that decodes to
//! anything other than the requested `(width, variant)`, or to a
//! function that fails [`dpvk_ir::verify`], is a miss and the file is
//! deleted, so a misplaced or malformed artifact never reaches the
//! bytecode decoder or a warp of the wrong width.
//!
//! **Bounded size.** After each store the directory is trimmed to
//! `DPVK_CACHE_CAP` bytes (default 256 MiB), evicting oldest-modified
//! files first and counting `persist_evictions`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dpvk_ir::serial::{self as irs, Reader, SerialError, SerialResult};
use dpvk_ir::{BlockId, VReg};
use dpvk_trace::Counter;

use crate::translate::TranslatedKernel;

/// Bump whenever the on-disk encoding changes at *any* layer (this
/// container or [`dpvk_ir::serial`]). Old artifacts then hash to
/// different keys and are evicted by the size cap instead of being
/// misread.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"DPVKART\x01";

/// Artifact kind byte: a translated scalar kernel.
const KIND_TRANSLATION: u8 = 1;
/// Artifact kind byte: a compiled specialization.
const KIND_SPEC: u8 = 2;
/// Artifact kind byte: a translation's width manifest — the list of
/// `(width, variant)` specializations observed for it, so a restart
/// rehydrates the whole `WidthSet`, not just the first width asked for.
/// Old readers never look for this kind or its extension, so adding it
/// needs no `FORMAT_VERSION` bump.
const KIND_WIDTHS: u8 = 3;

/// Default directory size cap: 256 MiB.
const DEFAULT_CAP_BYTES: u64 = 256 << 20;

/// Where and how large the persistent cache is.
///
/// Persistence is opt-in: [`Device::new`](crate::Device::new) builds one
/// from the environment only when `DPVK_CACHE_DIR` names the directory,
/// with `DPVK_CACHE_CAP` setting the size cap in bytes. Tests and
/// services that want hermetic control use [`PersistConfig::at`] with
/// [`Device::with_persist`](crate::Device::with_persist).
#[derive(Debug, Clone)]
pub struct PersistConfig {
    dir: PathBuf,
    cap_bytes: u64,
}

impl PersistConfig {
    /// A cache rooted at `dir` with the default size cap.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistConfig { dir: dir.into(), cap_bytes: DEFAULT_CAP_BYTES }
    }

    /// Override the directory size cap (bytes).
    #[must_use]
    pub fn with_cap_bytes(mut self, cap_bytes: u64) -> Self {
        self.cap_bytes = cap_bytes;
        self
    }

    /// The environment-derived configuration: a cache in
    /// `DPVK_CACHE_DIR`, or `None` (no persistence) when it is unset.
    pub fn from_env() -> Option<Self> {
        let dir = PathBuf::from(std::env::var_os("DPVK_CACHE_DIR")?);
        let cap_bytes = crate::error::env_u64("DPVK_CACHE_CAP", "a size cap in bytes")
            .unwrap_or(DEFAULT_CAP_BYTES);
        Some(PersistConfig { dir, cap_bytes })
    }
}

/// A rehydrated specialization artifact: everything
/// [`TranslationCache::get`](crate::cache::TranslationCache::get) needs
/// to rebuild a `CompiledKernel` without specializing.
pub(crate) struct SpecArtifact {
    /// The specialized (vectorized) function, already verified.
    pub function: dpvk_ir::Function,
    /// Static instruction count before optimization.
    pub pre_opt_instructions: usize,
    /// Static instruction count after optimization.
    pub post_opt_instructions: usize,
}

/// Distinguishes temp files written concurrently by this process,
/// across every store (a per-store counter let two stores in one
/// process write the same temp path).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Handle to an opened cache directory.
pub(crate) struct PersistStore {
    dir: PathBuf,
    cap_bytes: u64,
}

impl PersistStore {
    /// Open (creating if needed) the cache directory. Returns `None` —
    /// persistence off — when the directory cannot be created.
    pub(crate) fn open(cfg: PersistConfig) -> Option<Self> {
        fs::create_dir_all(&cfg.dir).ok()?;
        Some(PersistStore { dir: cfg.dir, cap_bytes: cfg.cap_bytes })
    }

    /// Content key of a kernel's translation artifact.
    pub(crate) fn translation_key(model_name: &str, source: &str) -> u64 {
        let mut h = Fnv::new();
        h.update(&FORMAT_VERSION.to_le_bytes());
        h.update(model_name.as_bytes());
        h.update(&[0]);
        h.update(source.as_bytes());
        h.finish()
    }

    /// Content key of a specialization artifact: derived from the
    /// kernel's translation key (version × model × source) plus the
    /// warp width and variant label.
    pub(crate) fn spec_key(translation_key: u64, width: u32, variant: &str) -> u64 {
        let mut h = Fnv::new();
        h.update(&translation_key.to_le_bytes());
        h.update(&width.to_le_bytes());
        h.update(variant.as_bytes());
        h.finish()
    }

    fn artifact_path(&self, kernel: &str, key: u64, ext: &str) -> PathBuf {
        let mut safe: String = kernel
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
            .take(48)
            .collect();
        if safe.is_empty() {
            safe.push('k');
        }
        self.dir.join(format!("{safe}-{key:016x}.{ext}"))
    }

    /// Load a translation artifact, or `None` on miss/corruption
    /// (corrupt files are deleted).
    pub(crate) fn load_translation(&self, kernel: &str, key: u64) -> Option<TranslatedKernel> {
        let path = self.artifact_path(kernel, key, "tk");
        let payload = self.read_artifact(&path, KIND_TRANSLATION)?;
        match decode_translation(&payload) {
            Ok(tk) => Some(tk),
            Err(_) => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Store a translation artifact (best effort: IO errors drop the
    /// artifact, they never fail the caller). Returns the number of
    /// artifacts evicted enforcing the size cap.
    pub(crate) fn store_translation(&self, kernel: &str, key: u64, tk: &TranslatedKernel) -> u64 {
        let mut payload = Vec::with_capacity(1 << 12);
        encode_translation(tk, &mut payload);
        self.write_artifact(&self.artifact_path(kernel, key, "tk"), KIND_TRANSLATION, &payload)
    }

    /// Load the `(width, variant)` specialization artifact stored under
    /// `key`, or `None` on miss/corruption. The decoded function is
    /// re-verified; a verify failure, or the artifact being compiled for
    /// another width or variant, is treated as corruption.
    pub(crate) fn load_spec(
        &self,
        kernel: &str,
        key: u64,
        width: u32,
        variant: &str,
    ) -> Option<SpecArtifact> {
        let path = self.artifact_path(kernel, key, "spec");
        let payload = self.read_artifact(&path, KIND_SPEC)?;
        match decode_spec(&payload) {
            Ok((w, v, art))
                if w == width
                    && v == variant
                    && art.function.warp_size == width
                    && dpvk_ir::verify(&art.function).is_ok() =>
            {
                Some(art)
            }
            _ => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Store the `(width, variant)` specialization artifact (best
    /// effort). Returns the number of artifacts evicted enforcing the
    /// size cap.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store_spec(
        &self,
        kernel: &str,
        key: u64,
        width: u32,
        variant: &str,
        function: &dpvk_ir::Function,
        pre_opt_instructions: usize,
        post_opt_instructions: usize,
    ) -> u64 {
        let mut payload = Vec::with_capacity(1 << 13);
        irs::put_u32(&mut payload, width);
        irs::put_str(&mut payload, variant);
        irs::put_u64(&mut payload, pre_opt_instructions as u64);
        irs::put_u64(&mut payload, post_opt_instructions as u64);
        irs::encode_function(function, &mut payload);
        self.write_artifact(&self.artifact_path(kernel, key, "spec"), KIND_SPEC, &payload)
    }

    /// The `(width, variant-label)` pairs recorded for a translation's
    /// width manifest, or empty on miss/corruption (corrupt manifests
    /// are deleted; the cost is re-observing widths, never wrong code).
    pub(crate) fn load_widths(&self, kernel: &str, translation_key: u64) -> Vec<(u32, String)> {
        let path = self.artifact_path(kernel, translation_key, "widths");
        let Some(payload) = self.read_artifact(&path, KIND_WIDTHS) else { return Vec::new() };
        match decode_widths(&payload) {
            Ok(widths) => widths,
            Err(_) => {
                let _ = fs::remove_file(&path);
                Vec::new()
            }
        }
    }

    /// Merge `(width, variant)` into the translation's width manifest.
    /// Best-effort read-modify-write: concurrent writers may drop one
    /// another's entry for a run, which only delays rehydration of that
    /// width — it never produces wrong code.
    pub(crate) fn record_width(
        &self,
        kernel: &str,
        translation_key: u64,
        width: u32,
        variant: &str,
    ) {
        let mut widths = self.load_widths(kernel, translation_key);
        if widths.iter().any(|(w, v)| *w == width && v == variant) {
            return;
        }
        widths.push((width, variant.to_string()));
        widths.sort();
        let mut payload = Vec::with_capacity(16 * widths.len());
        irs::put_u32(&mut payload, widths.len() as u32);
        for (w, v) in &widths {
            irs::put_u32(&mut payload, *w);
            irs::put_str(&mut payload, v);
        }
        let path = self.artifact_path(kernel, translation_key, "widths");
        self.write_artifact(&path, KIND_WIDTHS, &payload);
    }

    /// Read and unwrap a container file: magic, version, kind, length
    /// and checksum must all match or the file is deleted and `None`
    /// returned.
    fn read_artifact(&self, path: &Path, kind: u8) -> Option<Vec<u8>> {
        let bytes = fs::read(path).ok()?;
        let ok = (|| -> Option<Vec<u8>> {
            let mut r = Reader::new(&bytes);
            let mut magic = [0u8; 8];
            for m in &mut magic {
                *m = r.take_u8().ok()?;
            }
            if &magic != MAGIC || r.take_u32().ok()? != FORMAT_VERSION || r.take_u8().ok()? != kind
            {
                return None;
            }
            let len = r.take_u64().ok()? as usize;
            let checksum = r.take_u64().ok()?;
            if r.remaining() != len {
                return None;
            }
            let payload = bytes[bytes.len() - len..].to_vec();
            let mut h = Fnv::new();
            h.update(&payload);
            (h.finish() == checksum).then_some(payload)
        })();
        if ok.is_none() {
            // Torn write or bit rot: scrub it so the next run does not
            // re-pay the read.
            let _ = fs::remove_file(path);
        }
        ok
    }

    /// Wrap `payload` in the container format and publish it atomically
    /// (unique temp file + rename). Best effort; returns the number of
    /// artifacts evicted enforcing the size cap afterwards.
    fn write_artifact(&self, path: &Path, kind: u8, payload: &[u8]) -> u64 {
        let mut buf = Vec::with_capacity(payload.len() + 32);
        buf.extend_from_slice(MAGIC);
        irs::put_u32(&mut buf, FORMAT_VERSION);
        irs::put_u8(&mut buf, kind);
        irs::put_u64(&mut buf, payload.len() as u64);
        let mut h = Fnv::new();
        h.update(payload);
        irs::put_u64(&mut buf, h.finish());
        buf.extend_from_slice(payload);
        // `create_new` refuses a path that already exists (a stale file
        // from a recycled pid), so a temp file only ever holds this
        // write's bytes; such a name is skipped.
        for _ in 0..4 {
            let tmp = self.dir.join(format!(
                ".tmp-{}-{}",
                std::process::id(),
                TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let file = fs::OpenOptions::new().write(true).create_new(true).open(&tmp);
            let Ok(mut file) = file else { continue };
            let written = file.write_all(&buf).is_ok();
            drop(file);
            if !written || fs::rename(&tmp, path).is_err() {
                let _ = fs::remove_file(&tmp);
            }
            break;
        }
        self.enforce_cap()
    }

    /// Trim the directory to the configured byte cap, deleting
    /// oldest-modified artifacts first. Returns how many were deleted.
    fn enforce_cap(&self) -> u64 {
        let Ok(entries) = fs::read_dir(&self.dir) else { return 0 };
        let mut files: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        let mut total = 0u64;
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let name = e.file_name();
            if name.to_string_lossy().starts_with(".tmp-") {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            total += meta.len();
            files.push((e.path(), meta.len(), mtime));
        }
        if total <= self.cap_bytes {
            return 0;
        }
        files.sort_by_key(|&(_, _, mtime)| mtime);
        let mut evicted = 0;
        for (path, len, _) in files {
            if total <= self.cap_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
                dpvk_trace::add(Counter::PersistEvictions, 1);
            }
        }
        evicted
    }
}

impl std::fmt::Debug for PersistStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistStore")
            .field("dir", &self.dir)
            .field("cap_bytes", &self.cap_bytes)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// FNV-1a 64 (both the artifact checksum and the content key hash)
// ---------------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// TranslatedKernel payload codec
// ---------------------------------------------------------------------------

/// Encode a [`TranslatedKernel`]. Map/set fields are written in sorted
/// order so identical kernels always produce identical bytes;
/// `entry_id_of` is derivable from `entry_points` and not stored.
fn encode_translation(tk: &TranslatedKernel, buf: &mut Vec<u8>) {
    irs::put_str(buf, &tk.name);
    irs::encode_function(&tk.scalar, buf);
    irs::put_u32(buf, tk.entry_points.len() as u32);
    for b in &tk.entry_points {
        irs::put_u32(buf, b.0);
    }
    let mut barriers: Vec<(BlockId, BlockId)> =
        tk.barrier_edges.iter().map(|(k, v)| (*k, *v)).collect();
    barriers.sort_by_key(|&(k, _)| k.0);
    irs::put_u32(buf, barriers.len() as u32);
    for (from, to) in barriers {
        irs::put_u32(buf, from.0);
        irs::put_u32(buf, to.0);
    }
    let mut exits: Vec<BlockId> = tk.pure_exit_blocks.iter().copied().collect();
    exits.sort_by_key(|b| b.0);
    irs::put_u32(buf, exits.len() as u32);
    for b in exits {
        irs::put_u32(buf, b.0);
    }
    let mut spills: Vec<(VReg, u64)> = tk.spill_slots.iter().map(|(k, v)| (*k, *v)).collect();
    spills.sort_by_key(|&(r, _)| r.0);
    irs::put_u32(buf, spills.len() as u32);
    for (r, off) in spills {
        irs::put_u32(buf, r.0);
        irs::put_u64(buf, off);
    }
    irs::put_u64(buf, tk.user_local_bytes as u64);
    irs::put_u64(buf, tk.local_bytes as u64);
    irs::put_u64(buf, tk.shared_bytes as u64);
    irs::put_u64(buf, tk.param_bytes as u64);
    irs::put_u32(buf, tk.live_in.len() as u32);
    for regs in &tk.live_in {
        irs::put_u32(buf, regs.len() as u32);
        for r in regs {
            irs::put_u32(buf, r.0);
        }
    }
}

fn take_usize(r: &mut Reader<'_>) -> SerialResult<usize> {
    let v = r.take_u64()?;
    usize::try_from(v).map_err(|_| SerialError::new(format!("usize field {v} out of range")))
}

fn decode_translation(bytes: &[u8]) -> SerialResult<TranslatedKernel> {
    let mut r = Reader::new(bytes);
    let name = r.take_str()?;
    let scalar = irs::decode_function(&mut r)?;
    dpvk_ir::verify(&scalar)
        .map_err(|e| SerialError::new(format!("persisted scalar kernel fails verify: {e}")))?;
    let nentries = r.take_len(4)?;
    let mut entry_points = Vec::with_capacity(nentries);
    for _ in 0..nentries {
        entry_points.push(BlockId(r.take_u32()?));
    }
    let entry_id_of: HashMap<BlockId, i64> =
        entry_points.iter().enumerate().map(|(i, b)| (*b, i as i64)).collect();
    if entry_id_of.len() != entry_points.len() {
        return Err(SerialError::new("duplicate entry points"));
    }
    let nbarriers = r.take_len(8)?;
    let mut barrier_edges = HashMap::with_capacity(nbarriers);
    for _ in 0..nbarriers {
        let from = BlockId(r.take_u32()?);
        let to = BlockId(r.take_u32()?);
        barrier_edges.insert(from, to);
    }
    let nexits = r.take_len(4)?;
    let mut pure_exit_blocks = HashSet::with_capacity(nexits);
    for _ in 0..nexits {
        pure_exit_blocks.insert(BlockId(r.take_u32()?));
    }
    let nspills = r.take_len(12)?;
    let mut spill_slots = HashMap::with_capacity(nspills);
    for _ in 0..nspills {
        let reg = VReg(r.take_u32()?);
        let off = r.take_u64()?;
        spill_slots.insert(reg, off);
    }
    let user_local_bytes = take_usize(&mut r)?;
    let local_bytes = take_usize(&mut r)?;
    let shared_bytes = take_usize(&mut r)?;
    let param_bytes = take_usize(&mut r)?;
    let nblocks = r.take_len(4)?;
    if nblocks != scalar.blocks.len() {
        return Err(SerialError::new(format!(
            "live-in sets cover {nblocks} blocks but the function has {}",
            scalar.blocks.len()
        )));
    }
    let mut live_in = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let nregs = r.take_len(4)?;
        let mut regs = Vec::with_capacity(nregs);
        for _ in 0..nregs {
            regs.push(VReg(r.take_u32()?));
        }
        live_in.push(regs);
    }
    if !r.is_done() {
        return Err(SerialError::new(format!(
            "{} trailing bytes after translation artifact",
            r.remaining()
        )));
    }
    for b in entry_points.iter().chain(barrier_edges.keys()).chain(barrier_edges.values()) {
        if b.0 as usize >= scalar.blocks.len() {
            return Err(SerialError::new(format!("block id {} out of range", b.0)));
        }
    }
    Ok(TranslatedKernel {
        name,
        scalar,
        entry_points,
        entry_id_of,
        barrier_edges,
        pure_exit_blocks,
        spill_slots,
        user_local_bytes,
        local_bytes,
        shared_bytes,
        param_bytes,
        live_in,
    })
}

// ---------------------------------------------------------------------------
// Specialization payload codec
// ---------------------------------------------------------------------------

/// Decode a specialization payload: the `(width, variant)` it was
/// compiled for, then the artifact.
fn decode_spec(bytes: &[u8]) -> SerialResult<(u32, String, SpecArtifact)> {
    let mut r = Reader::new(bytes);
    let width = r.take_u32()?;
    let variant = r.take_str()?;
    let pre_opt_instructions = take_usize(&mut r)?;
    let post_opt_instructions = take_usize(&mut r)?;
    let function = irs::function_from_bytes(&bytes[bytes.len() - r.remaining()..])?;
    Ok((width, variant, SpecArtifact { function, pre_opt_instructions, post_opt_instructions }))
}

/// Decode a width manifest payload: count, then `(u32 width, str
/// variant-label)` pairs.
fn decode_widths(bytes: &[u8]) -> SerialResult<Vec<(u32, String)>> {
    let mut r = Reader::new(bytes);
    let n = r.take_len(5)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let width = r.take_u32()?;
        let variant = r.take_str()?;
        out.push((width, variant));
    }
    if !r.is_done() {
        return Err(SerialError::new(format!(
            "{} trailing bytes after width manifest",
            r.remaining()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use dpvk_ptx as ptx;

    const SRC: &str = r#"
.kernel pk (.param .u64 p, .param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [n];
  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra done;
  add.u32 %r1, %r1, 1;
  bar.sync 0;
  sub.u32 %r1, %r1, 1;
done:
  ret;
}
"#;

    fn sample_tk() -> TranslatedKernel {
        let module = ptx::parse_module(SRC).unwrap();
        translate(&module.kernels[0]).unwrap()
    }

    fn tmp_store(tag: &str) -> PersistStore {
        let dir =
            std::env::temp_dir().join(format!("dpvk-persist-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PersistStore::open(PersistConfig::at(&dir)).expect("open store")
    }

    #[test]
    fn translation_round_trips_through_disk() {
        let store = tmp_store("tk");
        let tk = sample_tk();
        let key = PersistStore::translation_key("model", SRC);
        assert!(store.load_translation("pk", key).is_none(), "cold cache must miss");
        store.store_translation("pk", key, &tk);
        let back = store.load_translation("pk", key).expect("warm cache must hit");
        assert_eq!(back.name, tk.name);
        assert_eq!(back.scalar, tk.scalar);
        assert_eq!(back.entry_points, tk.entry_points);
        assert_eq!(back.entry_id_of, tk.entry_id_of);
        assert_eq!(back.barrier_edges, tk.barrier_edges);
        assert_eq!(back.pure_exit_blocks, tk.pure_exit_blocks);
        assert_eq!(back.spill_slots, tk.spill_slots);
        assert_eq!(back.local_bytes, tk.local_bytes);
        assert_eq!(back.param_bytes, tk.param_bytes);
        assert_eq!(back.live_in, tk.live_in);
    }

    fn sample_spec() -> crate::vectorize::Specialized {
        let opts = crate::vectorize::SpecializeOptions::dynamic(4);
        crate::vectorize::specialize(&sample_tk(), &opts).unwrap()
    }

    /// Store `function` as the `(4, "dynamic")` specialization under `key`.
    fn store_w4(store: &PersistStore, key: u64, function: &dpvk_ir::Function) {
        store.store_spec("pk", key, 4, "dynamic", function, 0, 0);
    }

    #[test]
    fn spec_round_trips_through_disk() {
        use dpvk_vm::{BytecodeProgram, CostInfo, FrameLayout, MachineModel};

        let store = tmp_store("spec");
        let spec = sample_spec();
        let model = MachineModel::sandybridge_sse();
        let decode = |f: &dpvk_ir::Function| {
            let cost = CostInfo::analyze(f, &model);
            BytecodeProgram::decode(f, &FrameLayout::of(f), &model, &cost)
        };
        let key = PersistStore::spec_key(PersistStore::translation_key("m", SRC), 4, "dynamic");
        assert!(store.load_spec("pk", key, 4, "dynamic").is_none(), "cold cache must miss");
        store.store_spec(
            "pk",
            key,
            4,
            "dynamic",
            &spec.function,
            spec.pre_opt_instructions,
            spec.post_opt_instructions,
        );
        let art = store.load_spec("pk", key, 4, "dynamic").expect("warm cache must hit");
        assert_eq!(art.function, spec.function);
        assert_eq!(art.pre_opt_instructions, spec.pre_opt_instructions);
        assert_eq!(art.post_opt_instructions, spec.post_opt_instructions);
        assert_eq!(
            format!("{:?}", decode(&art.function)),
            format!("{:?}", decode(&spec.function)),
            "the loaded function must decode to exactly the fresh program"
        );

        // The same bytes under a key asked for as another width or
        // variant are a miss, and the misplaced file is scrubbed.
        for (width, variant) in [(2, "dynamic"), (4, "static")] {
            let path = store.artifact_path("pk", key, "spec");
            assert!(store.load_spec("pk", key, width, variant).is_none(), "w{width} {variant}");
            assert!(!path.exists(), "mismatched artifact must be deleted");
            store_w4(&store, key, &spec.function);
        }
    }

    #[test]
    fn spec_failing_verify_is_deleted_and_misses() {
        // A well-formed container (valid checksum) around a function the
        // verifier rejects: it must never reach the bytecode decoder.
        let store = tmp_store("spec-verify");
        let mut function = sample_spec().function;
        function.blocks[0].term = dpvk_ir::Term::Br(BlockId(function.blocks.len() as u32 + 7));
        assert!(dpvk_ir::verify(&function).is_err(), "sample must fail verify");
        let key = PersistStore::spec_key(PersistStore::translation_key("m", SRC), 4, "dynamic");
        store_w4(&store, key, &function);
        let path = store.artifact_path("pk", key, "spec");
        assert!(path.exists(), "store must write the artifact");
        assert!(store.load_spec("pk", key, 4, "dynamic").is_none(), "unverifiable load must miss");
        assert!(!path.exists(), "unverifiable artifact must be deleted");
    }

    #[test]
    fn width_manifest_merges_and_round_trips() {
        let store = tmp_store("widths");
        let tkey = PersistStore::translation_key("model", SRC);
        assert!(store.load_widths("pk", tkey).is_empty(), "cold manifest must be empty");
        store.record_width("pk", tkey, 4, "dynamic");
        store.record_width("pk", tkey, 8, "dynamic");
        store.record_width("pk", tkey, 4, "dynamic"); // idempotent
        store.record_width("pk", tkey, 1, "baseline");
        assert_eq!(
            store.load_widths("pk", tkey),
            vec![
                (1, "baseline".to_string()),
                (4, "dynamic".to_string()),
                (8, "dynamic".to_string())
            ]
        );
        // A corrupt manifest misses cleanly and is scrubbed.
        let path = store.artifact_path("pk", tkey, "widths");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_widths("pk", tkey).is_empty());
        assert!(!path.exists(), "corrupt manifest must be scrubbed");
    }

    #[test]
    fn encoding_is_deterministic_despite_hash_maps() {
        let tk = sample_tk();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_translation(&tk, &mut a);
        encode_translation(&tk, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_artifact_is_deleted_and_misses() {
        let store = tmp_store("corrupt");
        let tk = sample_tk();
        let key = PersistStore::translation_key("model", SRC);
        store.store_translation("pk", key, &tk);
        let path = store.artifact_path("pk", key, "tk");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_translation("pk", key).is_none(), "corrupt load must miss");
        assert!(!path.exists(), "corrupt artifact must be scrubbed");
    }

    #[test]
    fn truncated_artifact_misses_cleanly() {
        let store = tmp_store("trunc");
        let tk = sample_tk();
        let key = PersistStore::translation_key("model", SRC);
        store.store_translation("pk", key, &tk);
        let path = store.artifact_path("pk", key, "tk");
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 4, 12, 21, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(store.load_translation("pk", key).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn keys_separate_model_source_width_and_variant() {
        let t1 = PersistStore::translation_key("m1", "src");
        let t2 = PersistStore::translation_key("m2", "src");
        let t3 = PersistStore::translation_key("m1", "src2");
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
        let s1 = PersistStore::spec_key(t1, 4, "dynamic");
        let s2 = PersistStore::spec_key(t1, 8, "dynamic");
        let s3 = PersistStore::spec_key(t1, 4, "static_tie");
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s1, t1);
    }

    #[test]
    fn size_cap_evicts_oldest_artifacts() {
        let dir =
            std::env::temp_dir().join(format!("dpvk-persist-test-cap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = PersistStore::open(PersistConfig::at(&dir).with_cap_bytes(4096)).expect("open");
        let tk = sample_tk();
        for i in 0..32 {
            let key = PersistStore::translation_key("model", &format!("src{i}"));
            store.store_translation("pk", key, &tk);
        }
        let total: u64 = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        assert!(total <= 4096, "cap not enforced: {total} bytes on disk");
    }
}
