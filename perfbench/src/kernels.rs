//! The four `launch` kernels: seeded inputs and the benchmark's own Rust
//! references, which no engine under test produces.

use dpvk_core::ParamValue;
use dpvk_workloads::Prng;

/// `data[i] *= 3` over `n` words, guarded by `n`. Also the `serve`
/// kernel, renamed per tenant.
pub fn scale_source(name: &str) -> String {
    format!(
        r#"
.kernel {name} (.param .u64 data, .param .u32 n) {{
  .reg .u32 %r<4>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  mul.lo.u32 %r2, %r2, 3;
  st.global.u32 [%rd1], %r2;
done:
  ret;
}}
"#
    )
}

/// Reference for [`scale_source`].
pub fn scale_reference(data: &[u32]) -> Vec<u32> {
    data.iter().map(|v| v.wrapping_mul(3)).collect()
}

/// The kernels of the `launch` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `data[i] *= 3`: a tiny body, so per-warp host work dominates.
    Scale,
    /// Uniform floating-point compute.
    BlackScholes,
    /// Shared-memory tiles with barriers.
    MatrixMul,
    /// Divergent compare-exchange with barriers.
    Bitonic,
}

impl Kernel {
    /// Every kernel, in report order.
    pub const ALL: [Kernel; 4] =
        [Kernel::Scale, Kernel::BlackScholes, Kernel::MatrixMul, Kernel::Bitonic];

    /// Kernel (and metric-suffix) name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scale => "scale",
            Kernel::BlackScholes => "blackscholes",
            Kernel::MatrixMul => "matrixmul",
            Kernel::Bitonic => "bitonic",
        }
    }

    /// Name of the benchmark span around this kernel's launches.
    pub fn launch_span(self) -> &'static str {
        match self {
            Kernel::Scale => "exec.launch.scale",
            Kernel::BlackScholes => "exec.launch.blackscholes",
            Kernel::MatrixMul => "exec.launch.matrixmul",
            Kernel::Bitonic => "exec.launch.bitonic",
        }
    }

    /// Kernel source text.
    pub fn source(self) -> String {
        match self {
            Kernel::Scale => scale_source("scale"),
            other => dpvk_workloads::workload(other.name())
                .expect("kernel is part of the dpvk-workloads suite")
                .source(),
        }
    }
}

/// A launch parameter: a job buffer (by index) or an immediate value.
#[derive(Debug, Clone, Copy)]
pub enum Param {
    /// Device pointer of the job's buffer at this index.
    Buffer(usize),
    /// A scalar value.
    Value(ParamValue),
}

/// Expected contents of a job's output buffer.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Exact words.
    U32(Vec<u32>),
    /// Floats within `tol` of the reference, relative above magnitude 1.
    F32(Vec<f32>, f32),
}

impl Expected {
    /// Compare little-endian output bytes with the reference; `Err`
    /// names the first mismatch.
    pub fn check(&self, bytes: &[u8]) -> Result<(), String> {
        let words = bytes.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]);
        match self {
            Expected::U32(want) => {
                if bytes.len() != want.len() * 4 {
                    return Err(format!("{} bytes for {} words", bytes.len(), want.len()));
                }
                for (i, (g, w)) in words.map(u32::from_le_bytes).zip(want).enumerate() {
                    if g != *w {
                        return Err(format!("word {i}: got {g}, want {w}"));
                    }
                }
            }
            Expected::F32(want, tol) => {
                if bytes.len() != want.len() * 4 {
                    return Err(format!("{} bytes for {} floats", bytes.len(), want.len()));
                }
                for (i, (g, w)) in words.map(f32::from_le_bytes).zip(want).enumerate() {
                    let err = (g - w).abs();
                    if err.is_nan() || err > tol * w.abs().max(1.0) {
                        return Err(format!("float {i}: got {g}, want {w}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One `launch` job: buffers to allocate and upload, a launch, and the
/// buffer to read back and check.
#[derive(Debug, Clone)]
pub struct Job {
    /// Which kernel.
    pub kernel: Kernel,
    /// Initial contents of each buffer (uploaded whole).
    pub buffers: Vec<Vec<u8>>,
    /// Index of the buffer read back after the launch.
    pub output: usize,
    /// Launch parameters.
    pub params: Vec<Param>,
    /// Grid in CTAs.
    pub grid: [u32; 3],
    /// CTA shape.
    pub block: [u32; 3],
    /// Reference output.
    pub expected: Expected,
}

fn u32_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn f32s(rng: &mut Prng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range_f32(lo, hi)).collect()
}

const RISK_FREE: f32 = 0.02;
const VOLATILITY: f32 = 0.30;

/// Job `slot` (0..8) of `kernel`. The size is fixed by the slot, so
/// every seed offers the same work; `rng` draws only the data.
pub fn make_job(kernel: Kernel, slot: usize, rng: &mut Prng) -> Job {
    match kernel {
        Kernel::Scale => {
            let n = 4096 * (1 + 2 * slot);
            let data: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
            Job {
                kernel,
                buffers: vec![u32_bytes(&data)],
                output: 0,
                params: vec![Param::Buffer(0), Param::Value(ParamValue::U32(n as u32))],
                grid: [(n as u32).div_ceil(64), 1, 1],
                block: [64, 1, 1],
                expected: Expected::U32(scale_reference(&data)),
            }
        }
        Kernel::BlackScholes => {
            let n = 1024 * (1 + slot / 2);
            let spot = f32s(rng, n, 5.0, 30.0);
            let strike = f32s(rng, n, 1.0, 100.0);
            let years = f32s(rng, n, 0.25, 10.0);
            let want = (0..n).map(|i| black_scholes_call(spot[i], strike[i], years[i])).collect();
            Job {
                kernel,
                buffers: vec![
                    f32_bytes(&spot),
                    f32_bytes(&strike),
                    f32_bytes(&years),
                    vec![0; n * 4],
                ],
                output: 3,
                params: vec![
                    Param::Buffer(0),
                    Param::Buffer(1),
                    Param::Buffer(2),
                    Param::Buffer(3),
                    Param::Value(ParamValue::U32(n as u32)),
                    Param::Value(ParamValue::F32(RISK_FREE)),
                    Param::Value(ParamValue::F32(VOLATILITY)),
                ],
                grid: [(n as u32).div_ceil(64), 1, 1],
                block: [64, 1, 1],
                expected: Expected::F32(want, 2e-3),
            }
        }
        Kernel::MatrixMul => {
            // The kernel's tiles are 8×8, so the edge is a multiple of 8.
            let dim = 8 * (2 + slot % 3);
            let a = f32s(rng, dim * dim, -1.0, 1.0);
            let b = f32s(rng, dim * dim, -1.0, 1.0);
            let mut want = vec![0f32; dim * dim];
            for row in 0..dim {
                for col in 0..dim {
                    let mut acc = 0f32;
                    for k in 0..dim {
                        acc = a[row * dim + k].mul_add(b[k * dim + col], acc);
                    }
                    want[row * dim + col] = acc;
                }
            }
            let tiles = (dim / 8) as u32;
            Job {
                kernel,
                buffers: vec![f32_bytes(&a), f32_bytes(&b), vec![0; dim * dim * 4]],
                output: 2,
                params: vec![
                    Param::Buffer(0),
                    Param::Buffer(1),
                    Param::Buffer(2),
                    Param::Value(ParamValue::U32(dim as u32)),
                ],
                grid: [tiles, tiles, 1],
                block: [8, 8, 1],
                expected: Expected::F32(want, 1e-3),
            }
        }
        Kernel::Bitonic => {
            // One 64-element segment per CTA, each sorted ascending.
            let segments = 1 + slot / 2;
            let n = segments * 64;
            let data: Vec<u32> = (0..n).map(|_| rng.gen_range_u32(1 << 20)).collect();
            let mut want = data.clone();
            for seg in want.chunks_mut(64) {
                seg.sort_unstable();
            }
            Job {
                kernel,
                buffers: vec![u32_bytes(&data), vec![0; n * 4]],
                output: 1,
                params: vec![Param::Buffer(0), Param::Buffer(1)],
                grid: [segments as u32, 1, 1],
                block: [64, 1, 1],
                expected: Expected::U32(want),
            }
        }
    }
}

// The Abramowitz–Stegun coefficients are quoted at reference precision.
#[allow(clippy::excessive_precision)]
fn cnd(d: f32) -> f32 {
    let a = d.abs();
    let k = 1.0 / 0.2316419f32.mul_add(a, 1.0);
    let pdf = 0.39894228040143267 * (-0.5 * a * a).exp();
    let poly = 0.319381530f32
        + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429)));
    let c = 1.0 - pdf * poly * k;
    if d < 0.0 {
        1.0 - c
    } else {
        c
    }
}

fn black_scholes_call(s: f32, x: f32, t: f32) -> f32 {
    let (r, v) = (RISK_FREE, VOLATILITY);
    let sqrt_t = t.sqrt();
    let d1 = ((s / x).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    s * cnd(d1) - x * (-r * t).exp() * cnd(d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job() {
        for k in Kernel::ALL {
            let a = make_job(k, 3, &mut Prng::new(9));
            let b = make_job(k, 3, &mut Prng::new(9));
            assert_eq!(a.buffers, b.buffers);
            assert_eq!(a.grid, b.grid);
        }
    }

    #[test]
    fn check_catches_wrong_words_and_nan() {
        let want = Expected::U32(vec![1, 2]);
        assert!(want.check(&u32_bytes(&[1, 2])).is_ok());
        assert!(want.check(&u32_bytes(&[1, 3])).is_err());
        assert!(want.check(&u32_bytes(&[1])).is_err());
        let f = Expected::F32(vec![1.0, 100.0], 1e-3);
        assert!(f.check(&f32_bytes(&[1.0005, 100.05])).is_ok());
        assert!(f.check(&f32_bytes(&[1.0, 100.5])).is_err());
        assert!(f.check(&f32_bytes(&[f32::NAN, 100.0])).is_err());
    }
}
