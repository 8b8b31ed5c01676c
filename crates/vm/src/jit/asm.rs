//! A minimal x86-64 instruction emitter for the copy-and-patch JIT.
//!
//! Just enough of the ISA for the µop templates: 64/32-bit ALU forms,
//! loads/stores with `[base + disp32]` and `[base + index]` addressing,
//! scalar SSE2 double arithmetic, one VEX-encoded FMA, and rel32
//! branches with back-patching. Registers are raw encodings (`RAX`…)
//! rather than an enum — the emitter is an internal tool, not an API.

/// General-purpose register encodings.
pub const RAX: u8 = 0;
pub const RCX: u8 = 1;
pub const RDX: u8 = 2;
pub const RBX: u8 = 3;
pub const RBP: u8 = 5;
pub const RSI: u8 = 6;
pub const RDI: u8 = 7;
pub const R11: u8 = 11;
pub const R12: u8 = 12;
pub const R13: u8 = 13;
pub const R15: u8 = 15;

/// XMM register encodings (only 0–7 are used, so no REX.R/B plumbing
/// for the SSE forms).
pub const XMM0: u8 = 0;
pub const XMM1: u8 = 1;
pub const XMM2: u8 = 2;

/// Condition codes (the low nibble of `Jcc`/`SETcc`/`CMOVcc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cc {
    /// Below (unsigned <, or carry set).
    B = 0x2,
    /// Above or equal (unsigned >=).
    Ae = 0x3,
    /// Equal.
    E = 0x4,
    /// Not equal.
    Ne = 0x5,
    /// Below or equal (unsigned <=).
    Be = 0x6,
    /// Above (unsigned >).
    A = 0x7,
    /// Sign set (negative).
    S = 0x8,
    /// Parity (used for NaN detection after `ucomisd`).
    P = 0xA,
    /// No parity.
    Np = 0xB,
    /// Less (signed <).
    L = 0xC,
    /// Greater or equal (signed >=).
    Ge = 0xD,
    /// Less or equal (signed <=).
    Le = 0xE,
    /// Greater (signed >).
    G = 0xF,
}

/// Two-operand ALU ops sharing the standard group-1 encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    Add = 0,
    Or = 1,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

/// Shift ops (group-2 `/n` extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sh {
    Shl = 4,
    Shr = 5,
    Sar = 7,
}

/// Scalar SSE2 double-precision ops (`F2 0F xx` opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sse {
    Add = 0x58,
    Mul = 0x59,
    Sub = 0x5C,
    Div = 0x5E,
    Sqrt = 0x51,
}

/// A forward-branch placeholder returned by the `*_fwd` emitters; the
/// rel32 at `pos` is patched by [`Asm::patch`] / [`Asm::bind`].
#[derive(Debug, Clone, Copy)]
pub struct Fixup {
    pos: usize,
}

/// The append-only code buffer.
#[derive(Debug, Default)]
pub struct Asm {
    buf: Vec<u8>,
}

impl Asm {
    pub fn new() -> Asm {
        Asm { buf: Vec::with_capacity(4096) }
    }

    pub fn here(&self) -> usize {
        self.buf.len()
    }

    pub fn into_code(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix; emitted only when needed unless `w` forces it.
    fn rex(&mut self, w: bool, reg: u8, base: u8) {
        let r = (reg >= 8) as u8;
        let b = (base >= 8) as u8;
        if w || r != 0 || b != 0 {
            self.u8(0x40 | (w as u8) << 3 | r << 2 | b);
        }
    }

    /// REX for forms with an index register (`[base + index]`).
    fn rex_x(&mut self, w: bool, reg: u8, index: u8, base: u8) {
        let r = (reg >= 8) as u8;
        let x = (index >= 8) as u8;
        let b = (base >= 8) as u8;
        if w || r != 0 || x != 0 || b != 0 {
            self.u8(0x40 | (w as u8) << 3 | r << 2 | x << 1 | b);
        }
    }

    /// ModRM `mod=11` register-direct form.
    fn modrm_reg(&mut self, reg: u8, rm: u8) {
        self.u8(0xC0 | (reg & 7) << 3 | (rm & 7));
    }

    /// ModRM (+SIB) for `[base + disp]`.
    fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
        let reg7 = reg & 7;
        let base7 = base & 7;
        let need_sib = base7 == 4; // rsp/r12 need a SIB byte
        let md: u8 = if disp == 0 && base7 != 5 {
            0
        } else if (-128..=127).contains(&disp) {
            1
        } else {
            2
        };
        self.u8(md << 6 | reg7 << 3 | if need_sib { 4 } else { base7 });
        if need_sib {
            self.u8(0x24); // scale=0, no index, base=rsp/r12
        }
        match md {
            1 => self.u8(disp as u8),
            2 => self.u32(disp as u32),
            _ => {}
        }
    }

    /// ModRM + SIB for `[base + index]` (scale 1, no displacement).
    fn modrm_mem_index(&mut self, reg: u8, base: u8, index: u8) {
        debug_assert!(index & 7 != 4, "rsp cannot be an index");
        let base7 = base & 7;
        if base7 == 5 {
            // rbp/r13 base needs an explicit disp8 of 0.
            self.u8(0x40 | (reg & 7) << 3 | 4);
            self.u8((index & 7) << 3 | base7);
            self.u8(0);
        } else {
            self.u8((reg & 7) << 3 | 4);
            self.u8((index & 7) << 3 | base7);
        }
    }

    // -- moves --------------------------------------------------------

    /// `mov r64, imm` — movabs for wide values, the `imm32` forms when
    /// they round-trip.
    pub fn mov_ri(&mut self, r: u8, imm: u64) {
        if imm <= u32::MAX as u64 {
            // mov r32, imm32 zero-extends.
            self.rex(false, 0, r);
            self.u8(0xB8 | (r & 7));
            self.u32(imm as u32);
        } else if imm as i64 >= i32::MIN as i64 && (imm as i64) <= i32::MAX as i64 {
            // mov r/m64, imm32 (sign-extended).
            self.rex(true, 0, r);
            self.u8(0xC7);
            self.modrm_reg(0, r);
            self.u32(imm as u32);
        } else {
            self.rex(true, 0, r);
            self.u8(0xB8 | (r & 7));
            self.u64(imm);
        }
    }

    /// `mov r64, r64`.
    pub fn mov_rr(&mut self, dst: u8, src: u8) {
        self.rex(true, src, dst);
        self.u8(0x89);
        self.modrm_reg(src, dst);
    }

    /// `mov r32, r32` (zero-extends to 64 bits).
    pub fn mov_rr32(&mut self, dst: u8, src: u8) {
        self.rex(false, src, dst);
        self.u8(0x89);
        self.modrm_reg(src, dst);
    }

    /// `mov r64, [base + disp]`.
    pub fn load(&mut self, r: u8, base: u8, disp: i32) {
        self.rex(true, r, base);
        self.u8(0x8B);
        self.modrm_mem(r, base, disp);
    }

    /// `mov [base + disp], r64`.
    pub fn store(&mut self, base: u8, disp: i32, r: u8) {
        self.rex(true, r, base);
        self.u8(0x89);
        self.modrm_mem(r, base, disp);
    }

    /// `mov r32, [base + disp]` (zero-extends).
    pub fn load32(&mut self, r: u8, base: u8, disp: i32) {
        self.rex(false, r, base);
        self.u8(0x8B);
        self.modrm_mem(r, base, disp);
    }

    /// Zero-extending load of `sz` (1/2/4/8) bytes from `[base + index]`.
    pub fn load_index(&mut self, r: u8, base: u8, index: u8, sz: u8) {
        match sz {
            1 => {
                self.rex_x(true, r, index, base);
                self.u8(0x0F);
                self.u8(0xB6);
            }
            2 => {
                self.rex_x(true, r, index, base);
                self.u8(0x0F);
                self.u8(0xB7);
            }
            4 => {
                self.rex_x(false, r, index, base);
                self.u8(0x8B);
            }
            _ => {
                self.rex_x(true, r, index, base);
                self.u8(0x8B);
            }
        }
        self.modrm_mem_index(r, base, index);
    }

    /// Store the low `sz` (1/2/4/8) bytes of `r` to `[base + index]`.
    pub fn store_index(&mut self, base: u8, index: u8, r: u8, sz: u8) {
        match sz {
            1 => {
                // `r` is rax/rcx/rdx/rbx in practice; REX is still
                // emitted when any register is extended.
                self.rex_x(false, r, index, base);
                self.u8(0x88);
            }
            2 => {
                self.u8(0x66);
                self.rex_x(false, r, index, base);
                self.u8(0x89);
            }
            4 => {
                self.rex_x(false, r, index, base);
                self.u8(0x89);
            }
            _ => {
                self.rex_x(true, r, index, base);
                self.u8(0x89);
            }
        }
        self.modrm_mem_index(r, base, index);
    }

    /// `movzx r64, r8` / `movzx r64, r16` (register form).
    pub fn movzx_rr(&mut self, dst: u8, src: u8, sz: u8) {
        self.rex(true, dst, src);
        self.u8(0x0F);
        self.u8(if sz == 1 { 0xB6 } else { 0xB7 });
        self.modrm_reg(dst, src);
    }

    /// `movsx r64, r8` / `movsx r64, r16` / `movsxd r64, r32`.
    pub fn movsx_rr(&mut self, dst: u8, src: u8, sz: u8) {
        self.rex(true, dst, src);
        match sz {
            1 => {
                self.u8(0x0F);
                self.u8(0xBE);
            }
            2 => {
                self.u8(0x0F);
                self.u8(0xBF);
            }
            _ => self.u8(0x63),
        }
        self.modrm_reg(dst, src);
    }

    // -- ALU ----------------------------------------------------------

    /// `op r64, r64`.
    pub fn alu_rr(&mut self, op: Alu, dst: u8, src: u8) {
        self.rex(true, src, dst);
        self.u8((op as u8) * 8 + 1);
        self.modrm_reg(src, dst);
    }

    /// `op r32, r32`.
    pub fn alu_rr32(&mut self, op: Alu, dst: u8, src: u8) {
        self.rex(false, src, dst);
        self.u8((op as u8) * 8 + 1);
        self.modrm_reg(src, dst);
    }

    /// `op r64, imm32` (sign-extended).
    pub fn alu_ri(&mut self, op: Alu, dst: u8, imm: i32) {
        self.rex(true, 0, dst);
        self.u8(0x81);
        self.modrm_reg(op as u8, dst);
        self.u32(imm as u32);
    }

    /// `op r64, [base + disp]`.
    pub fn alu_rm(&mut self, op: Alu, dst: u8, base: u8, disp: i32) {
        self.rex(true, dst, base);
        self.u8((op as u8) * 8 + 3);
        self.modrm_mem(dst, base, disp);
    }

    /// `op qword [base + disp], imm32` (sign-extended).
    pub fn alu_mi(&mut self, op: Alu, base: u8, disp: i32, imm: i32) {
        self.rex(true, 0, base);
        self.u8(0x81);
        self.modrm_mem(op as u8, base, disp);
        self.u32(imm as u32);
    }

    /// `op qword [base + disp], r64`.
    pub fn alu_mr(&mut self, op: Alu, base: u8, disp: i32, src: u8) {
        self.rex(true, src, base);
        self.u8((op as u8) * 8 + 1);
        self.modrm_mem(src, base, disp);
    }

    /// `mov qword [base + disp], imm32` (sign-extended).
    pub fn store_imm(&mut self, base: u8, disp: i32, imm: i32) {
        self.rex(true, 0, base);
        self.u8(0xC7);
        self.modrm_mem(0, base, disp);
        self.u32(imm as u32);
    }

    /// `imul r64, r64`.
    pub fn imul_rr(&mut self, dst: u8, src: u8) {
        self.rex(true, dst, src);
        self.u8(0x0F);
        self.u8(0xAF);
        self.modrm_reg(dst, src);
    }

    /// `neg r64`.
    pub fn neg(&mut self, r: u8) {
        self.rex(true, 0, r);
        self.u8(0xF7);
        self.modrm_reg(3, r);
    }

    /// `not r64`.
    pub fn not(&mut self, r: u8) {
        self.rex(true, 0, r);
        self.u8(0xF7);
        self.modrm_reg(2, r);
    }

    /// `shl/shr/sar r64, cl`.
    pub fn shift_cl(&mut self, op: Sh, r: u8) {
        self.rex(true, 0, r);
        self.u8(0xD3);
        self.modrm_reg(op as u8, r);
    }

    /// `shl/shr/sar r64, imm8`.
    pub fn shift_ri(&mut self, op: Sh, r: u8, imm: u8) {
        self.rex(true, 0, r);
        self.u8(0xC1);
        self.modrm_reg(op as u8, r);
        self.u8(imm);
    }

    /// `test r64, r64`.
    pub fn test_rr(&mut self, a: u8, b: u8) {
        self.rex(true, b, a);
        self.u8(0x85);
        self.modrm_reg(b, a);
    }

    /// `test r32, r32` (for helper return codes in `eax`; the upper
    /// half of `rax` is undefined under the ABI).
    pub fn test_rr32(&mut self, a: u8, b: u8) {
        self.rex(false, b, a);
        self.u8(0x85);
        self.modrm_reg(b, a);
    }

    /// `test r64, imm32`.
    pub fn test_ri(&mut self, r: u8, imm: i32) {
        self.rex(true, 0, r);
        self.u8(0xF7);
        self.modrm_reg(0, r);
        self.u32(imm as u32);
    }

    /// `setcc r8` (low byte; REX is always emitted so rsi/rdi encode
    /// their low byte, not ah-family).
    pub fn setcc(&mut self, cc: Cc, r: u8) {
        self.u8(0x40 | u8::from(r >= 8));
        self.u8(0x0F);
        self.u8(0x90 | cc as u8);
        self.modrm_reg(0, r);
    }

    /// `cmovcc r64, r64`.
    pub fn cmov(&mut self, cc: Cc, dst: u8, src: u8) {
        self.rex(true, dst, src);
        self.u8(0x0F);
        self.u8(0x40 | cc as u8);
        self.modrm_reg(dst, src);
    }

    // -- control flow -------------------------------------------------

    /// `jmp rel32` forward; patch later.
    pub fn jmp_fwd(&mut self) -> Fixup {
        self.u8(0xE9);
        let pos = self.here();
        self.u32(0);
        Fixup { pos }
    }

    /// `jcc rel32` forward; patch later.
    pub fn jcc_fwd(&mut self, cc: Cc) -> Fixup {
        self.u8(0x0F);
        self.u8(0x80 | cc as u8);
        let pos = self.here();
        self.u32(0);
        Fixup { pos }
    }

    /// Resolve a forward fixup to `target`.
    pub fn patch(&mut self, f: Fixup, target: usize) {
        let rel = (target as i64 - (f.pos as i64 + 4)) as i32;
        self.buf[f.pos..f.pos + 4].copy_from_slice(&rel.to_le_bytes());
    }

    /// Bind a fixup to the current position.
    pub fn bind(&mut self, f: Fixup) {
        let here = self.here();
        self.patch(f, here);
    }

    /// `call r64`.
    pub fn call_reg(&mut self, r: u8) {
        self.rex(false, 0, r);
        self.u8(0xFF);
        self.modrm_reg(2, r);
    }

    /// `push r64`.
    pub fn push(&mut self, r: u8) {
        self.rex(false, 0, r);
        self.u8(0x50 | (r & 7));
    }

    /// `pop r64`.
    pub fn pop(&mut self, r: u8) {
        self.rex(false, 0, r);
        self.u8(0x58 | (r & 7));
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.u8(0xC3);
    }

    // -- SSE scalar double --------------------------------------------

    /// `movq xmm, r64`.
    pub fn movq_xr(&mut self, x: u8, r: u8) {
        self.u8(0x66);
        self.u8(0x48 | u8::from(r >= 8));
        self.u8(0x0F);
        self.u8(0x6E);
        self.modrm_reg(x, r);
    }

    /// `movq r64, xmm`.
    pub fn movq_rx(&mut self, r: u8, x: u8) {
        self.u8(0x66);
        self.u8(0x48 | u8::from(r >= 8));
        self.u8(0x0F);
        self.u8(0x7E);
        self.modrm_reg(x, r);
    }

    /// `movd r32, xmm` (zero-extends the f32 bit pattern).
    pub fn movd_rx(&mut self, r: u8, x: u8) {
        self.u8(0x66);
        if r >= 8 {
            self.u8(0x41);
        }
        self.u8(0x0F);
        self.u8(0x7E);
        self.modrm_reg(x, r);
    }

    /// Scalar double op, `xmm_dst op= xmm_src`.
    pub fn sse_sd(&mut self, op: Sse, dst: u8, src: u8) {
        self.u8(0xF2);
        self.u8(0x0F);
        self.u8(op as u8);
        self.modrm_reg(dst, src);
    }

    /// `cvtss2sd xmm, xmm` (widen f32 → f64).
    pub fn cvtss2sd(&mut self, dst: u8, src: u8) {
        self.u8(0xF3);
        self.u8(0x0F);
        self.u8(0x5A);
        self.modrm_reg(dst, src);
    }

    /// `cvtsd2ss xmm, xmm` (narrow f64 → f32, round-to-nearest).
    pub fn cvtsd2ss(&mut self, dst: u8, src: u8) {
        self.u8(0xF2);
        self.u8(0x0F);
        self.u8(0x5A);
        self.modrm_reg(dst, src);
    }

    /// `cvtsi2sd xmm, r64` (exact for |v| < 2^53; i64 → f64 rounding
    /// matches Rust `as f64`).
    pub fn cvtsi2sd(&mut self, x: u8, r: u8) {
        self.u8(0xF2);
        self.u8(0x48 | u8::from(r >= 8));
        self.u8(0x0F);
        self.u8(0x2A);
        self.modrm_reg(x, r);
    }

    /// `cvttsd2si r64, xmm` (truncating f64 → i64; overflow and NaN
    /// produce the `i64::MIN` sentinel, which templates test to branch
    /// to the saturating slow path).
    pub fn cvttsd2si(&mut self, r: u8, x: u8) {
        self.u8(0xF2);
        self.u8(0x48 | (u8::from(r >= 8)) << 2);
        self.u8(0x0F);
        self.u8(0x2C);
        self.modrm_reg(r, x);
    }

    /// `ucomisd xmm, xmm`.
    pub fn ucomisd(&mut self, a: u8, b: u8) {
        self.u8(0x66);
        self.u8(0x0F);
        self.u8(0x2E);
        self.modrm_reg(a, b);
    }

    /// `vfmadd213sd xmm_dst, xmm_b, xmm_c`: dst = dst*b + c, one
    /// rounding — the hardware twin of `f64::mul_add`.
    pub fn vfmadd213sd(&mut self, dst: u8, b: u8, c: u8) {
        // VEX three-byte: C4 [RXB.m-mmmm=0F38] [W.vvvv.L.pp], opcode A9.
        self.u8(0xC4);
        self.u8(0xE2); // R=1 X=1 B=1 (inverted, regs < 8), m-mmmm=0F38
        self.u8(0x80 | ((!b & 0xF) << 3) | 0x01); // W=1, vvvv=~b, L=0, pp=66
        self.u8(0xA9);
        self.modrm_reg(dst, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spot-check encodings against hand-assembled bytes.
    #[test]
    fn encodings_match_reference() {
        let mut a = Asm::new();
        a.mov_rr(RAX, RBX); // 48 89 d8
        a.load(RAX, RBX, 8); // 48 8b 43 08
        a.store(RBX, 256, RCX); // 48 89 8b 00 01 00 00
        a.alu_rr32(Alu::Add, RAX, RCX); // 01 c8
        a.alu_mi(Alu::Add, R15, 0x10, 5); // 49 81 47 10 05 00 00 00
        a.setcc(Cc::E, RCX); // 40 0f 94 c1
        a.movq_xr(XMM0, RAX); // 66 48 0f 6e c0
        a.sse_sd(Sse::Add, XMM0, XMM1); // f2 0f 58 c1
        a.vfmadd213sd(XMM0, XMM1, XMM2); // c4 e2 f1 a9 c2
        let code = a.into_code();
        assert_eq!(
            code,
            [
                0x48, 0x89, 0xD8, //
                0x48, 0x8B, 0x43, 0x08, //
                0x48, 0x89, 0x8B, 0x00, 0x01, 0x00, 0x00, //
                0x01, 0xC8, //
                0x49, 0x81, 0x47, 0x10, 0x05, 0x00, 0x00, 0x00, //
                0x40, 0x0F, 0x94, 0xC1, //
                0x66, 0x48, 0x0F, 0x6E, 0xC0, //
                0xF2, 0x0F, 0x58, 0xC1, //
                0xC4, 0xE2, 0xF1, 0xA9, 0xC2,
            ]
        );
    }

    #[test]
    fn rel32_patching() {
        let mut a = Asm::new();
        let f = a.jmp_fwd(); // 5 bytes
        a.mov_rr(RAX, RBX); // 3 bytes
        a.bind(f); // target = 8
        assert_eq!(&a.into_code()[1..5], &3i32.to_le_bytes());
    }
}
