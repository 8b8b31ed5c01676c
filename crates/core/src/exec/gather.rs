//! Single-pass warp formation over a CTA's ready queue.

use std::collections::VecDeque;
use std::time::Instant;

use dpvk_vm::ThreadContext;

use super::{ExecConfig, FormationPolicy};

/// Per-chunk tally of host warp-formation work. The worker resets it at
/// every chunk start and flushes it into one coalesced gather span at
/// chunk end (per-call spans would be nanoseconds wide and drown the
/// timeline).
#[derive(Default)]
pub(crate) struct GatherTally {
    /// Host nanoseconds spent inside [`gather`] this chunk.
    pub ns: u64,
    /// Number of gather calls this chunk.
    pub calls: u64,
}

impl GatherTally {
    /// Record one formation's host time: the `HostFormationNs` counter
    /// and this chunk's coalesced span.
    pub(crate) fn note(&mut self, ns: u64) {
        dpvk_trace::add(dpvk_trace::Counter::HostFormationNs, ns);
        self.ns += ns;
        self.calls += 1;
    }
}

/// [`gather`], timed when the trace layer is on: host nanoseconds feed
/// the `HostFormationNs` counter and accumulate in `tally` for the
/// chunk's coalesced gather span. When tracing is off this adds one
/// relaxed atomic load to the plain gather.
pub(crate) fn gather_timed(
    ready: &mut VecDeque<ThreadContext>,
    rp: i64,
    config: &ExecConfig,
    warp: &mut Vec<ThreadContext>,
    kept: &mut Vec<ThreadContext>,
    tally: &mut GatherTally,
) -> usize {
    let t = dpvk_trace::enabled().then(Instant::now);
    let scanned = gather(ready, rp, config, warp, kept);
    if let Some(t) = t {
        tally.note(t.elapsed().as_nanos() as u64);
    }
    scanned
}

/// Collect up to `max_warp` contexts with resume point `rp` from the
/// queue into `warp`, scanning from the front in one pass: non-matching
/// contexts are parked in `kept` and restored to the queue head in their
/// original order. For static formation only contexts of the front
/// thread's group are eligible, and the result is sorted by thread index
/// (lane order). Returns the number of queue entries examined.
///
/// Host time is O(entries examined) — the previous implementation
/// removed each picked context by index, which shifts the whole deque
/// per removal (O(n) per thread, O(n²) per warp on fragmented pools).
/// The modeled formation charge is unchanged: `scanned` counts exactly
/// the entries the indexed scan inspected, and both the warp and the
/// residual queue end up in the same order.
pub(crate) fn gather(
    ready: &mut VecDeque<ThreadContext>,
    rp: i64,
    config: &ExecConfig,
    warp: &mut Vec<ThreadContext>,
    kept: &mut Vec<ThreadContext>,
) -> usize {
    let max = config.max_warp as usize;
    let is_static = config.policy == FormationPolicy::Static;
    let group_of =
        |ctx: &ThreadContext| -> u32 { ctx.flat_tid().checked_div(config.max_warp).unwrap_or(0) };
    let front_group = ready.front().map(group_of).unwrap_or(0);

    warp.clear();
    kept.clear();
    let mut scanned = 0usize;
    while let Some(ctx) = ready.pop_front() {
        scanned += 1;
        if ctx.resume_point == rp && (!is_static || group_of(&ctx) == front_group) {
            warp.push(ctx);
            if warp.len() == max {
                break;
            }
        } else {
            kept.push(ctx);
        }
    }
    for ctx in kept.drain(..).rev() {
        ready.push_front(ctx);
    }
    if is_static {
        warp.sort_by_key(|c| c.flat_tid());
    }
    scanned
}

/// The next warp of a pass, formed without touching the queue: it is
/// `pass[..len]`, and the gather would have examined `scanned` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PassWarp {
    pub len: usize,
    pub scanned: usize,
}

/// What [`gather`] would do at the head of a pass, computed
/// arithmetically. `pass` is the front of the ready queue — one resume
/// point, strictly increasing thread index — and `rest_empty` says
/// whether any queue entries follow it.
///
/// Returns `None` when the answer depends on the entries behind the
/// pass (the gather would scan into them), or `max_warp` is 0; the
/// caller then hands the pass to the gather path.
///
/// * Dynamic and baseline formation take the first `max_warp` matching
///   threads: `min(remaining, max_warp)` of them, all from the pass,
///   when the pass alone can fill the warp or nothing follows it.
/// * Static formation takes the front thread's group. A full group at
///   the head stops the scan after `max_warp` entries; a partial one
///   scans the whole queue, which is known only when nothing follows.
pub(crate) fn pass_formation(
    pass: &[ThreadContext],
    rest_empty: bool,
    config: &ExecConfig,
) -> Option<PassWarp> {
    let max = config.max_warp as usize;
    let remaining = pass.len();
    if max == 0 || remaining == 0 {
        return None;
    }
    if config.policy == FormationPolicy::Static {
        let group = |c: &ThreadContext| c.flat_tid() / config.max_warp;
        let g = group(&pass[0]);
        if remaining >= max && group(&pass[max - 1]) == g {
            return Some(PassWarp { len: max, scanned: max });
        }
        if !rest_empty {
            return None;
        }
        let len = pass.iter().take_while(|c| group(c) == g).count();
        return Some(PassWarp { len, scanned: remaining });
    }
    if remaining >= max {
        Some(PassWarp { len: max, scanned: max })
    } else if rest_empty {
        Some(PassWarp { len: remaining, scanned: remaining })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indexed-removal gather PR 3 replaced, kept verbatim as the
    /// behavioral reference: warp contents and order, residual queue
    /// order, and the scanned count must all match the single-pass
    /// implementation.
    fn gather_reference(
        ready: &mut VecDeque<ThreadContext>,
        rp: i64,
        config: &ExecConfig,
    ) -> (Vec<ThreadContext>, usize) {
        let max = config.max_warp as usize;
        let is_static = config.policy == FormationPolicy::Static;
        let group_of = |ctx: &ThreadContext| -> u32 {
            ctx.flat_tid().checked_div(config.max_warp).unwrap_or(0)
        };
        let front_group = ready.front().map(group_of).unwrap_or(0);

        let mut picked: Vec<usize> = Vec::with_capacity(max);
        let mut scanned = 0usize;
        for (i, ctx) in ready.iter().enumerate() {
            scanned += 1;
            if ctx.resume_point == rp && (!is_static || group_of(ctx) == front_group) {
                picked.push(i);
                if picked.len() == max {
                    break;
                }
            }
        }
        let mut warp: Vec<ThreadContext> = Vec::with_capacity(picked.len());
        for &i in picked.iter().rev() {
            warp.push(ready.remove(i).expect("picked index valid"));
        }
        warp.reverse();
        if is_static {
            warp.sort_by_key(|c| c.flat_tid());
        }
        (warp, scanned)
    }

    #[test]
    fn gather_matches_reference_formation() {
        // Seeded LCG so failures reproduce.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let configs = [ExecConfig::dynamic(4), ExecConfig::static_tie(4), ExecConfig::dynamic(2)];
        for config in &configs {
            for _ in 0..100 {
                // A fragmented ready pool: random permutation of thread
                // ids with random resume points.
                let n = 1 + (next() % 64) as usize;
                let mut order: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    order.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                let mut queue: VecDeque<ThreadContext> = VecDeque::new();
                for &tid in &order {
                    let mut ctx = ThreadContext::new([tid, 0, 0], [64, 1, 1], [0; 3], [1; 3]);
                    ctx.resume_point = (next() % 4) as i64;
                    queue.push_back(ctx);
                }
                let rp = queue.front().unwrap().resume_point;

                let mut ref_queue = queue.clone();
                let (ref_warp, ref_scanned) = gather_reference(&mut ref_queue, rp, config);

                let (mut warp, mut kept) = (Vec::new(), Vec::new());
                let scanned = gather(&mut queue, rp, config, &mut warp, &mut kept);

                assert_eq!(warp, ref_warp, "warp contents/order diverged");
                assert_eq!(scanned, ref_scanned, "scanned count diverged");
                assert_eq!(queue, ref_queue, "residual queue order diverged");
                assert!(kept.is_empty(), "kept scratch must drain back into the queue");
            }
        }
    }

    #[test]
    fn pass_formation_matches_gather() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let configs = [
            ExecConfig::baseline(),
            ExecConfig::dynamic(4),
            ExecConfig::dynamic(3),
            ExecConfig::static_tie(4),
            ExecConfig::static_tie(2),
            ExecConfig::static_tie(1),
        ];
        let mut formed = 0;
        for config in &configs {
            for _ in 0..300 {
                // A pass: an increasing subset of thread ids at one resume
                // point, starting anywhere; then a rest queue of random
                // threads, some at the pass's resume point.
                let rp = 7;
                let mut pass: Vec<ThreadContext> = Vec::new();
                let mut tid = (next() % 6) as u32;
                for _ in 0..(next() % 12) {
                    let mut ctx = ThreadContext::new([tid, 0, 0], [64, 1, 1], [0; 3], [1; 3]);
                    ctx.resume_point = rp;
                    pass.push(ctx);
                    tid += 1 + (next() % 3 == 0) as u32;
                }
                let rest: Vec<ThreadContext> = (0..next() % 4)
                    .map(|_| {
                        let t = (next() % 64) as u32;
                        let mut ctx = ThreadContext::new([t, 0, 0], [64, 1, 1], [0; 3], [1; 3]);
                        ctx.resume_point = if next() % 2 == 0 { rp } else { 3 };
                        ctx
                    })
                    .collect();
                let Some(f) = pass_formation(&pass, rest.is_empty(), config) else {
                    continue;
                };
                formed += 1;
                let mut queue: VecDeque<ThreadContext> =
                    pass.iter().chain(&rest).copied().collect();
                let (mut warp, mut kept) = (Vec::new(), Vec::new());
                let scanned = gather(&mut queue, rp, config, &mut warp, &mut kept);
                assert_eq!(warp, &pass[..f.len], "warp diverged from the pass head");
                assert_eq!(scanned, f.scanned, "scanned count diverged");
                let residual: Vec<ThreadContext> =
                    pass[f.len..].iter().chain(&rest).copied().collect();
                assert_eq!(Vec::from(queue), residual, "residual queue diverged");
            }
        }
        assert!(formed > 500, "too few formable passes exercised: {formed}");
    }
}
