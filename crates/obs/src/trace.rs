//! Request-lifecycle tracing: a bounded ring of structured stage events
//! and a slow-query log.
//!
//! The ring holds the last `capacity` [`TraceEvent`]s — admitted →
//! executing → written, each stamped with the microseconds spent in the
//! stage it closes — overwriting the oldest on wraparound, so tracing
//! cost is O(1) per event and memory is fixed no matter how long the
//! server runs. The [`SlowQueryLog`] keeps the most recent requests
//! whose total time crossed a threshold fixed at construction, with the
//! queue-wait/handle split needed to tell "the service is slow" from
//! "the queue is deep".

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Where in its lifecycle a traced request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Parsed and admitted to the request queue.
    Admitted,
    /// Popped by a worker; `stage_us` is the queue wait.
    Executing,
    /// Response written (or parked for ordered writeback); `stage_us`
    /// is handle + write time.
    Written,
    /// Refused by admission control (`Busy`); `stage_us` is 0.
    Rejected,
}

impl Stage {
    /// Stable lowercase name (wire and exposition labels).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::Executing => "executing",
            Stage::Written => "written",
            Stage::Rejected => "rejected",
        }
    }
}

/// One structured lifecycle event in the trace ring.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Microseconds since the ring's epoch (server start).
    pub at_us: u64,
    /// Connection id (per-server ascending).
    pub conn: u64,
    /// Request sequence number on that connection.
    pub seq: u64,
    /// Request type name, e.g. `"Query"`.
    pub request: &'static str,
    /// Lifecycle stage this event closes.
    pub stage: Stage,
    /// Microseconds spent in the closed stage (0 for `Admitted` /
    /// `Rejected`).
    pub stage_us: u64,
}

struct RingState {
    events: VecDeque<TraceEvent>,
    total: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s with a fixed epoch.
pub struct TraceRing {
    state: Mutex<RingState>,
    capacity: usize,
    epoch: Instant,
}

impl TraceRing {
    /// A ring holding the last `capacity` events (minimum 1), with its
    /// epoch at construction time.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            state: Mutex::new(RingState { events: VecDeque::new(), total: 0 }),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since the ring's epoch (the timestamp base for
    /// [`TraceEvent::at_us`]).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record one event, overwriting the oldest when full.
    pub fn push(&self, event: TraceEvent) {
        let mut state = self.state.lock().unwrap();
        if state.events.len() == self.capacity {
            state.events.pop_front();
        }
        state.events.push_back(event);
        state.total += 1;
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let state = self.state.lock().unwrap();
        let skip = state.events.len().saturating_sub(n);
        state.events.iter().skip(skip).cloned().collect()
    }

    /// Lifetime events pushed (survives wraparound).
    pub fn total(&self) -> u64 {
        self.state.lock().unwrap().total
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One entry in the slow-query log.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Microseconds since the owning log's epoch when the request
    /// finished.
    pub at_us: u64,
    /// Request type name, e.g. `"QueryBatch"`.
    pub request: &'static str,
    /// Free-form detail (snapshot id, horizon, …).
    pub detail: String,
    /// Microseconds spent queued before a worker picked it up.
    pub queue_us: u64,
    /// Microseconds the service spent handling it.
    pub handle_us: u64,
}

/// A bounded log of the most recent requests slower than a threshold.
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQuery>>,
    threshold_us: u64,
    capacity: usize,
    epoch: Instant,
}

impl SlowQueryLog {
    /// A log keeping the last `capacity` slow queries, flagging requests
    /// whose queue + handle time meets `threshold_us`.
    pub fn new(capacity: usize, threshold_us: u64) -> Self {
        SlowQueryLog {
            entries: Mutex::new(VecDeque::new()),
            threshold_us,
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// Record a finished request if it crossed the threshold. Returns
    /// true when the request was logged (the caller's slow-query counter
    /// keys off this).
    pub fn record(
        &self,
        request: &'static str,
        detail: impl FnOnce() -> String,
        queue_us: u64,
        handle_us: u64,
    ) -> bool {
        if queue_us + handle_us < self.threshold_us {
            return false;
        }
        let entry = SlowQuery {
            at_us: self.epoch.elapsed().as_micros() as u64,
            request,
            detail: detail(),
            queue_us,
            handle_us,
        };
        let mut entries = self.entries.lock().unwrap();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        true
    }

    /// The logged slow queries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            at_us: seq * 10,
            conn: 1,
            seq,
            request: "Query",
            stage: Stage::Admitted,
            stage_us: 0,
        }
    }

    #[test]
    fn ring_wraps_around_keeping_the_newest() {
        let ring = TraceRing::new(4);
        for seq in 0..10 {
            ring.push(event(seq));
        }
        assert_eq!(ring.total(), 10, "lifetime count survives wraparound");
        let recent = ring.recent(100);
        assert_eq!(recent.len(), 4, "capacity bounds retention");
        assert_eq!(recent.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        // A narrower ask trims from the old end.
        assert_eq!(ring.recent(2).iter().map(|e| e.seq).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn ring_capacity_has_a_floor_of_one() {
        let ring = TraceRing::new(0);
        ring.push(event(1));
        ring.push(event(2));
        assert_eq!(ring.recent(10).len(), 1);
        assert_eq!(ring.recent(10)[0].seq, 2);
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::Admitted.name(), "admitted");
        assert_eq!(Stage::Executing.name(), "executing");
        assert_eq!(Stage::Written.name(), "written");
        assert_eq!(Stage::Rejected.name(), "rejected");
    }

    #[test]
    fn slow_log_applies_threshold_and_capacity() {
        let log = SlowQueryLog::new(2, 1_000);
        assert!(!log.record("Query", || unreachable!("fast queries never format detail"), 300, 600));
        assert!(log.record("Query", || "snapshot 1".into(), 600, 600));
        assert!(log.record("Advance", || "3600 s".into(), 0, 2_000));
        assert!(log.record("Status", || "".into(), 1_000, 0));
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "capacity evicts the oldest");
        assert_eq!(entries[0].request, "Advance");
        assert_eq!(entries[1].request, "Status");
        assert_eq!(entries[0].queue_us, 0);
        assert_eq!(entries[0].handle_us, 2_000);
    }
}
