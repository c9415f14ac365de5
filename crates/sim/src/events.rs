//! Discrete-event time advancement.
//!
//! The paper's Algorithm 1 walks the clock one second at a time, yet almost
//! nothing happens in most of those seconds: node power only changes on job
//! start/stop events or at the 15 s trace quantum. This module provides the
//! event calendar that lets a simulation jump the clock straight from one
//! event to the next — the single biggest speed lever behind the paper's
//! "24 h Frontier day in ~3 minutes" throughput claim (§IV), and the reason
//! an L3-surrogate ensemble member costs microseconds instead of an
//! 86,400-iteration loop.
//!
//! # Event model
//!
//! Time is integral seconds (the [`crate::SimClock`] domain). An
//! [`EventQueue`] holds two families of entries:
//!
//! * **one-shot** events scheduled at an absolute second
//!   ([`EventQueue::schedule_at`]) — job completions and wet-bulb forcing
//!   breakpoints (a kernel reads job arrivals off its submit-ordered
//!   queue instead);
//! * **recurring** events firing at every positive multiple of a period
//!   ([`EventQueue::schedule_every`]) — the 15 s cooling/trace quantum and
//!   the output record boundary. Recurring entries are stored as a period,
//!   not expanded into the heap, so a multi-week horizon costs O(1) memory.
//!   They are also *virtual*: a kernel that can prove a span of fires
//!   redundant (the RAPS lazy record backfill) materialises none of them —
//!   it reads the next one-shot via [`EventQueue::next_one_shot`] and
//!   acknowledges the span with [`EventQueue::skip_recurring_through`].
//!
//! # Ordering and determinism
//!
//! Events due at the same second are delivered in `(time, kind priority,
//! scheduling order)` order; see [`EventKind::priority`] for the tie-break
//! table. The rules guarantee that draining a queue is a pure function of
//! the schedule calls made against it — two queues built by the same call
//! sequence deliver bit-identical event streams, which is what lets the
//! event-driven RAPS kernel pin itself against the per-second reference
//! loop (the `event_kernel` integration test).

use crate::series::TimeSeries;
use std::collections::BinaryHeap;

/// The typed simulation events the RAPS kernel advances between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum EventKind {
    /// The earliest running job reaches `start + wall_time` and releases
    /// its nodes.
    JobCompletion,
    /// A breakpoint of the wet-bulb forcing series: the piecewise-linear
    /// forcing changes segment, so models sampling it must not coast past.
    WetBulbBreakpoint,
    /// The 15 s cooling/trace quantum (§III-B): utilization traces change
    /// sample and the cooling model takes a co-simulation step.
    CoolingQuantum,
    /// An output record boundary (`record_every_s`).
    RecordBoundary,
}

impl EventKind {
    /// Delivery priority for events due at the same second (lower first).
    ///
    /// The order mirrors the per-second reference handler: completions
    /// release nodes, forcing refreshes, then the quantum work (power
    /// recompute + cooling step), then recording.
    pub fn priority(self) -> u8 {
        match self {
            EventKind::JobCompletion => 0,
            EventKind::WetBulbBreakpoint => 1,
            EventKind::CoolingQuantum => 2,
            EventKind::RecordBoundary => 3,
        }
    }
}

/// One delivered event: a second at which something changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated second (clock-elapsed domain) the event is due at.
    pub time_s: u64,
    /// What kind of change is due.
    pub kind: EventKind,
}

/// A one-shot heap entry, ordered so the `BinaryHeap` (a max-heap) pops
/// the earliest `(time, priority, seq)` first via `Reverse`-style ordering
/// baked into `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
struct Queued {
    time_s: u64,
    prio: u8,
    seq: u64,
    kind: EventKind,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the max-heap surfaces the smallest key.
        (other.time_s, other.prio, other.seq).cmp(&(self.time_s, self.prio, self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A recurring entry firing at every positive multiple of `period_s`.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct Recurring {
    period_s: u64,
    kind: EventKind,
    /// Multiples at or before this second have already been delivered.
    delivered_through: u64,
}

/// The event calendar: one-shot events in a binary heap plus compactly
/// stored recurring periods. See the module docs for ordering rules.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Queued>,
    recurring: Vec<Recurring>,
    seq: u64,
}

/// Serialized form of an [`EventQueue`]. The heap is dumped as a vector
/// sorted by `(time, priority, seq)` — delivery order is a pure function
/// of that key, so the heap's internal layout never needs to survive a
/// round trip — and recurring entries keep their registration order.
#[derive(serde::Serialize, serde::Deserialize)]
struct EventQueueState {
    one_shots: Vec<Queued>,
    recurring: Vec<Recurring>,
    seq: u64,
}

impl serde::Serialize for EventQueue {
    fn to_value(&self) -> serde::Value {
        let mut one_shots: Vec<Queued> = self.heap.iter().copied().collect();
        one_shots.sort_by_key(|q| (q.time_s, q.prio, q.seq));
        EventQueueState { one_shots, recurring: self.recurring.clone(), seq: self.seq }.to_value()
    }
}

impl serde::Deserialize for EventQueue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let state = EventQueueState::from_value(v)?;
        Ok(EventQueue {
            heap: state.one_shots.into_iter().collect(),
            recurring: state.recurring,
            seq: state.seq,
        })
    }
}

impl EventQueue {
    /// An empty calendar.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule a one-shot event at an absolute second. Scheduling in the
    /// past is allowed: a stale event is delivered at the next advance
    /// (`next_after` clamps it to `now + 1`).
    pub fn schedule_at(&mut self, time_s: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Queued { time_s, prio: kind.priority(), seq, kind });
    }

    /// Schedule a recurring event at every positive multiple of
    /// `period_s` (matching the paper's `timestep mod 15 == 0` cadence).
    pub fn schedule_every(&mut self, period_s: u64, kind: EventKind) {
        assert!(period_s > 0, "recurring period must be positive");
        self.recurring.push(Recurring { period_s, kind, delivered_through: 0 });
    }

    /// Earliest second strictly after `now_s` at which an event is due.
    /// One-shots already at or before `now_s` count as due at `now_s + 1`
    /// (integral time cannot advance by less than one second). `None`
    /// when the calendar is empty.
    pub fn next_after(&self, now_s: u64) -> Option<u64> {
        let one_shot = self.heap.peek().map(|q| q.time_s.max(now_s + 1));
        let recurring = self
            .recurring
            .iter()
            .map(|r| (now_s / r.period_s + 1) * r.period_s)
            .min();
        match (one_shot, recurring) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Deliver every event due at or before `time_s` into `out` (appended
    /// in `(time, priority, scheduling order)` order; stale one-shots
    /// report their original time). Recurring entries deliver one event
    /// per not-yet-delivered multiple in `(0, time_s]`.
    pub fn drain_due(&mut self, time_s: u64, out: &mut Vec<Event>) {
        let start = out.len();
        while let Some(q) = self.heap.peek() {
            if q.time_s > time_s {
                break;
            }
            let q = self.heap.pop().expect("peeked");
            out.push(Event { time_s: q.time_s, kind: q.kind });
        }
        // Recurring fires append directly after the (already ordered)
        // one-shots; the stable tail sort re-establishes global
        // (time, priority) order while preserving scheduling order —
        // one-shots before recurring entries, recurring entries in
        // registration order — at ties. No allocation on this path.
        let mut fired = false;
        for r in self.recurring.iter_mut() {
            let mut t = (r.delivered_through / r.period_s + 1) * r.period_s;
            while t <= time_s {
                out.push(Event { time_s: t, kind: r.kind });
                fired = true;
                t += r.period_s;
            }
            r.delivered_through = r.delivered_through.max(time_s);
        }
        if fired && out.len() - start > 1 {
            out[start..].sort_by_key(|e| (e.time_s, e.kind.priority()));
        }
    }

    /// Earliest pending one-shot event time, unclamped (`None` when the
    /// heap is empty). Lets a kernel distinguish "only recurring fires
    /// due" seconds, which it may be able to handle on a fast path.
    pub fn next_one_shot(&self) -> Option<u64> {
        self.heap.peek().map(|q| q.time_s)
    }

    /// Every pending one-shot, in no particular order: what a loaded
    /// calendar is checked against.
    pub fn one_shots(&self) -> impl Iterator<Item = Event> + '_ {
        self.heap.iter().map(|q| Event { time_s: q.time_s, kind: q.kind })
    }

    /// Advance every recurring entry's delivery cursor through `time_s`
    /// without emitting events — for kernels that handled a recurring
    /// fire inline instead of draining it.
    pub fn skip_recurring_through(&mut self, time_s: u64) {
        for r in &mut self.recurring {
            r.delivered_through = r.delivered_through.max(time_s);
        }
    }

    /// True when nothing is scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.recurring.is_empty()
    }
}

/// Breakpoints of a piecewise-linear forcing series: the whole seconds
/// (rounded up) of every sample that borders a non-constant segment.
/// A kernel jumping between events must not coast across these times if
/// any model samples the series — between breakpoints the forcing is a
/// single linear segment, so sampling at segment ends is exact.
///
/// Constant stretches produce no breakpoints; a flat series yields none.
pub fn series_breakpoints(series: &TimeSeries) -> Vec<u64> {
    let n = series.len();
    let mut out = Vec::new();
    for i in 0..n {
        let changes_before = i > 0 && series[i - 1] != series[i];
        let changes_after = i + 1 < n && series[i] != series[i + 1];
        if changes_before || changes_after {
            let t = series.time_at(i);
            if t >= 0.0 {
                out.push(t.ceil() as u64);
            }
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shots_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, EventKind::JobCompletion);
        q.schedule_at(10, EventKind::WetBulbBreakpoint);
        q.schedule_at(20, EventKind::JobCompletion);
        assert_eq!(q.next_after(0), Some(10));
        let mut out = Vec::new();
        q.drain_due(25, &mut out);
        assert_eq!(
            out,
            vec![
                Event { time_s: 10, kind: EventKind::WetBulbBreakpoint },
                Event { time_s: 20, kind: EventKind::JobCompletion },
            ]
        );
        assert_eq!(q.next_after(25), Some(30));
    }

    #[test]
    fn equal_time_ties_break_by_priority_then_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule_at(15, EventKind::RecordBoundary);
        q.schedule_at(15, EventKind::WetBulbBreakpoint);
        q.schedule_at(15, EventKind::JobCompletion);
        q.schedule_at(15, EventKind::WetBulbBreakpoint);
        let mut out = Vec::new();
        q.drain_due(15, &mut out);
        let kinds: Vec<EventKind> = out.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::JobCompletion,
                EventKind::WetBulbBreakpoint,
                EventKind::WetBulbBreakpoint,
                EventKind::RecordBoundary,
            ]
        );
    }

    #[test]
    fn recurring_fires_at_multiples() {
        let mut q = EventQueue::new();
        q.schedule_every(15, EventKind::CoolingQuantum);
        assert_eq!(q.next_after(0), Some(15));
        assert_eq!(q.next_after(14), Some(15));
        assert_eq!(q.next_after(15), Some(30));
        let mut out = Vec::new();
        q.drain_due(45, &mut out);
        let times: Vec<u64> = out.iter().map(|e| e.time_s).collect();
        assert_eq!(times, vec![15, 30, 45]);
        out.clear();
        q.drain_due(45, &mut out);
        assert!(out.is_empty(), "multiples deliver exactly once");
        assert_eq!(q.next_after(45), Some(60));
    }

    #[test]
    fn recurring_and_one_shot_merge_in_order() {
        let mut q = EventQueue::new();
        q.schedule_every(15, EventKind::CoolingQuantum);
        q.schedule_every(30, EventKind::RecordBoundary);
        q.schedule_at(30, EventKind::JobCompletion);
        q.schedule_at(7, EventKind::WetBulbBreakpoint);
        let mut out = Vec::new();
        q.drain_due(30, &mut out);
        assert_eq!(
            out,
            vec![
                Event { time_s: 7, kind: EventKind::WetBulbBreakpoint },
                Event { time_s: 15, kind: EventKind::CoolingQuantum },
                Event { time_s: 30, kind: EventKind::JobCompletion },
                Event { time_s: 30, kind: EventKind::CoolingQuantum },
                Event { time_s: 30, kind: EventKind::RecordBoundary },
            ]
        );
    }

    #[test]
    fn stale_one_shot_clamps_to_next_second() {
        let mut q = EventQueue::new();
        q.schedule_at(5, EventKind::JobCompletion);
        assert_eq!(q.next_after(100), Some(101));
        let mut out = Vec::new();
        q.drain_due(101, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time_s, 5, "stale events keep their original time");
    }

    #[test]
    fn empty_queue_has_no_next() {
        let q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_after(0), None);
    }

    #[test]
    fn deterministic_across_identical_schedules() {
        let build = || {
            let mut q = EventQueue::new();
            q.schedule_every(15, EventKind::CoolingQuantum);
            for t in [44, 12, 12, 90, 15] {
                q.schedule_at(t, EventKind::JobCompletion);
            }
            let mut out = Vec::new();
            let mut now = 0;
            while let Some(t) = q.next_after(now) {
                if t > 120 {
                    break;
                }
                q.drain_due(t, &mut out);
                now = t;
            }
            out
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn breakpoints_of_piecewise_series() {
        // Flat — no breakpoints.
        let flat = TimeSeries::from_values(0.0, 3600.0, vec![15.0, 15.0, 15.0]);
        assert!(series_breakpoints(&flat).is_empty());
        // Flat, then a ramp, then flat again: the ramp's borders and
        // interior samples are breakpoints; deep-flat interiors are not.
        let s = TimeSeries::from_values(
            0.0,
            3600.0,
            vec![10.0, 10.0, 10.0, 12.0, 14.0, 14.0, 14.0],
        );
        assert_eq!(series_breakpoints(&s), vec![7200, 10800, 14400]);
    }

    #[test]
    fn breakpoints_round_fractional_times_up() {
        let s = TimeSeries::from_values(0.5, 10.5, vec![1.0, 2.0]);
        assert_eq!(series_breakpoints(&s), vec![1, 11]);
    }
}
