//! Open-loop bookkeeping: when each request was due, how late the
//! generator sent it, how long it took from its due time, and whether a
//! rung of the rate ladder left a growing backlog.
//!
//! Latency is timed from the due time, not the send time, so a stall in
//! the generator or the server charges every request scheduled behind it.

use std::time::Duration;

/// Offset of request `i` from the start of a rung offered at `rate`
/// requests per second (evenly spaced arrivals).
pub fn due_offset(i: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Number of requests due in a rung of `window` at `rate`.
pub fn requests_in(window: Duration, rate: f64) -> u64 {
    (window.as_secs_f64() * rate).round().max(1.0) as u64
}

/// One request's timeline, in nanoseconds from the start of its rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the generator queued it for sending.
    pub queued_ns: u64,
    /// When its frame was fully handed to the socket.
    pub sent_ns: u64,
    /// When its response was read, if one arrived.
    pub done_ns: Option<u64>,
    /// Whether it completed with a correct result. A shed, an error, a
    /// wrong output or a missing response is a failure.
    pub ok: bool,
}

impl Timeline {
    /// Milliseconds from due to response; a failed request counts as
    /// missing every limit and is reported as `miss_ms`.
    pub fn latency_ms(&self, miss_ms: f64) -> f64 {
        match (self.ok, self.done_ns) {
            (true, Some(done)) => done.saturating_sub(self.due_ns) as f64 / 1e6,
            _ => miss_ms,
        }
    }

    /// Milliseconds the generator queued it after it was due. Time the
    /// frame then waits for the server to read it is the server's, not
    /// the generator's, lateness.
    pub fn late_ms(&self) -> f64 {
        self.queued_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Requests due at or before `t_ns` whose response had not arrived by
/// `t_ns`.
pub fn backlog_at(reqs: &[Timeline], t_ns: u64) -> usize {
    reqs.iter().filter(|r| r.due_ns <= t_ns && r.done_ns.is_none_or(|d| d > t_ns)).count()
}

/// Whether the backlog grew over the rung: the backlog when the last
/// request was due exceeds the backlog a quarter into the rung by more
/// than a small slack (four requests or 2% of the rung, whichever is
/// larger). A system that keeps up holds a backlog of about
/// rate × latency throughout; one that does not accumulates the excess.
pub fn backlog_growing(reqs: &[Timeline]) -> bool {
    let Some(last_due) = reqs.iter().map(|r| r.due_ns).max() else {
        return false;
    };
    let early = backlog_at(reqs, last_due / 4);
    let late = backlog_at(reqs, last_due);
    let slack = 4usize.max(reqs.len() / 50);
    late > early + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> u64 {
        v * 1_000_000
    }

    fn req(due_ms: u64, queued_ms: u64, done_ms: Option<u64>) -> Timeline {
        Timeline {
            due_ns: ms(due_ms),
            queued_ns: ms(queued_ms),
            sent_ns: ms(queued_ms),
            done_ns: done_ms.map(ms),
            ok: done_ms.is_some(),
        }
    }

    #[test]
    fn due_times_are_evenly_spaced() {
        assert_eq!(due_offset(0, 100.0), Duration::ZERO);
        assert_eq!(due_offset(5, 100.0), Duration::from_millis(50));
        assert_eq!(requests_in(Duration::from_secs(2), 150.0), 300);
        assert_eq!(requests_in(Duration::from_millis(1), 10.0), 1);
    }

    #[test]
    fn latency_counts_from_due_not_queue_time() {
        // Queued 4 ms late, answered 1 ms later: 5 ms from due.
        let r = req(10, 14, Some(15));
        assert_eq!(r.latency_ms(1e3), 5.0);
        assert_eq!(r.late_ms(), 4.0);
    }

    #[test]
    fn failed_request_misses() {
        let mut shed = req(10, 10, Some(11));
        shed.ok = false;
        assert_eq!(shed.latency_ms(999.0), 999.0);
        assert_eq!(req(10, 10, None).latency_ms(999.0), 999.0);
    }

    #[test]
    fn steady_rung_has_no_growing_backlog() {
        // 100 requests every 10 ms, each answered 15 ms after due.
        let reqs: Vec<_> = (0..100).map(|i| req(i * 10, i * 10, Some(i * 10 + 15))).collect();
        assert_eq!(backlog_at(&reqs, ms(500)), 2);
        assert!(!backlog_growing(&reqs));
    }

    #[test]
    fn overloaded_rung_has_growing_backlog() {
        // Arrivals every 10 ms, service every 20 ms: the queue grows.
        let reqs: Vec<_> = (0..100).map(|i| req(i * 10, i * 10, Some(i * 20 + 20))).collect();
        assert!(backlog_at(&reqs, ms(990)) > backlog_at(&reqs, ms(247)));
        assert!(backlog_growing(&reqs));
    }

    #[test]
    fn unanswered_requests_count_as_backlog() {
        let reqs: Vec<_> = (0..100).map(|i| req(i * 10, i * 10, None)).collect();
        assert_eq!(backlog_at(&reqs, ms(990)), 100);
        assert!(backlog_growing(&reqs));
        assert!(!backlog_growing(&[]));
    }
}
