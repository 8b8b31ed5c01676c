//! Per-thread execution contexts.

use dpvk_ir::EXIT_ENTRY_ID;

/// The context object of one logical thread, as described in the paper's
/// Section 4: grid and block geometry, the thread's position, and the base
/// of its private (local) memory. The execution manager owns one context
/// per live thread and hands warps of them to vectorized kernels.
/// The layout is `repr(C)` so the JIT tier (`crate::jit`) can address
/// fields with compile-time offsets; field order is part of that
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct ThreadContext {
    /// Thread index within its CTA.
    pub tid: [u32; 3],
    /// CTA dimensions.
    pub ntid: [u32; 3],
    /// CTA index within the grid.
    pub ctaid: [u32; 3],
    /// Grid dimensions in CTAs.
    pub nctaid: [u32; 3],
    /// Byte offset of this thread's private memory within the execution
    /// manager's local arena.
    pub local_base: u64,
    /// Entry-point id at which the thread resumes ([`EXIT_ENTRY_ID`] once
    /// terminated). Entry id 0 is the kernel entry.
    pub resume_point: i64,
}

impl ThreadContext {
    /// Context for thread `tid` of CTA `ctaid` in a grid of `nctaid` CTAs
    /// of `ntid` threads, starting at the kernel entry.
    pub fn new(tid: [u32; 3], ntid: [u32; 3], ctaid: [u32; 3], nctaid: [u32; 3]) -> Self {
        ThreadContext { tid, ntid, ctaid, nctaid, local_base: 0, resume_point: 0 }
    }

    /// Flat thread index within its CTA.
    pub fn flat_tid(&self) -> u32 {
        self.tid[0] + self.ntid[0] * (self.tid[1] + self.ntid[1] * self.tid[2])
    }

    /// Flat CTA index within the grid.
    pub fn flat_ctaid(&self) -> u32 {
        self.ctaid[0] + self.nctaid[0] * (self.ctaid[1] + self.nctaid[1] * self.ctaid[2])
    }

    /// Threads per CTA.
    pub fn cta_size(&self) -> u32 {
        self.ntid[0] * self.ntid[1] * self.ntid[2]
    }

    /// Whether this thread has terminated.
    pub fn is_terminated(&self) -> bool {
        self.resume_point == EXIT_ENTRY_ID
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_indices() {
        let c = ThreadContext::new([1, 2, 0], [4, 4, 1], [3, 0, 0], [8, 1, 1]);
        assert_eq!(c.flat_tid(), 1 + 4 * 2);
        assert_eq!(c.flat_ctaid(), 3);
        assert_eq!(c.cta_size(), 16);
        assert!(!c.is_terminated());
    }

    #[test]
    fn termination_flag() {
        let mut c = ThreadContext::new([0; 3], [1, 1, 1], [0; 3], [1, 1, 1]);
        c.resume_point = EXIT_ENTRY_ID;
        assert!(c.is_terminated());
    }
}
