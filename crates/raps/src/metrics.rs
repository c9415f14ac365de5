//! Event-kernel observability: shared counters for what `run_until`
//! actually did.
//!
//! A [`KernelMetrics`] is a bundle of [`exadigit_obs::Counter`] handles
//! the simulation increments as it works: events stepped (by kind),
//! constant-power gaps absorbed in closed form, cooled quanta collapsed
//! through `repeat_step`, record samples materialised by bulk backfill
//! instead of being visited second-by-second, and power lanes that rode
//! along another model's schedule. Together they
//! answer "is the lazy path actually engaging?" for a *live* serving
//! twin, where previously only the `day_replay` bench could tell.
//!
//! The counters are **not** simulation state: they live outside the
//! simulation's `KernelState`, so they are never serialized (snapshot
//! format untouched), `from_state` starts them fresh, and `fork`
//! *shares* the parent's handles by refcount — a service attaches one
//! set and every snapshot fork and what-if run feeds the same totals. Incrementing an atomic counter
//! never feeds back into simulation arithmetic, so attached, detached,
//! or contended metrics leave every simulated f64 bit-identical (the
//! workspace `observability` tests pin this).

use exadigit_obs::Counter;
use exadigit_sim::events::{Event, EventKind};

/// Shared counter handles for the event kernel (cheap to clone: each
/// field is an `Arc`'d atomic).
#[derive(Clone, Debug, Default)]
pub struct KernelMetrics {
    /// Stepped seconds at which at least one job arrived. Arrivals are
    /// read off the submit-ordered queue, not drained as events, so all
    /// the jobs one second admits count once, however many submit
    /// seconds (or `submit_jobs` calls) they came from.
    pub job_arrivals: Counter,
    /// Job completions stepped as events.
    pub job_completions: Counter,
    /// Wet-bulb forcing breakpoints stepped as events.
    pub wet_bulb_breakpoints: Counter,
    /// Cooling/trace quanta stepped eagerly (each paid a real
    /// co-simulation step or a per-quantum recompute check).
    pub cooling_quanta: Counter,
    /// Off-grid record boundaries stepped eagerly.
    pub record_boundaries: Counter,
    /// Constant-power gaps absorbed in closed form (`account_steady`
    /// with a non-empty gap): each one is seconds of simulated time that
    /// cost O(1).
    pub gaps_batched: Counter,
    /// Cooling quanta collapsed through `CoSimModel::repeat_step`
    /// instead of being stepped individually.
    pub cooled_quanta_batched: Counter,
    /// Output-series samples materialised by closed-form backfill
    /// (`TimeSeries::push_n`) rather than recorded at a visited second.
    pub samples_backfilled: Counter,
    /// Power lanes carried by lane runs (`run_until_with_lanes`), one per
    /// lane per run: each is a power model that rode along another's
    /// schedule instead of stepping its own.
    pub power_lanes: Counter,
}

impl KernelMetrics {
    /// Fresh, unregistered counters (all zero). A service wires
    /// registry-backed handles in via `DigitalTwin::set_kernel_metrics`;
    /// unattached simulations count into these harmlessly.
    pub fn new() -> Self {
        KernelMetrics::default()
    }

    /// Count drained due events by kind (called at each of the kernel's
    /// drain sites just before the scratch buffer is cleared).
    #[inline]
    pub fn note_events(&self, events: &[Event]) {
        for e in events {
            match e.kind {
                EventKind::JobCompletion => self.job_completions.inc(),
                EventKind::WetBulbBreakpoint => self.wet_bulb_breakpoints.inc(),
                EventKind::CoolingQuantum => self.cooling_quanta.inc(),
                EventKind::RecordBoundary => self.record_boundaries.inc(),
            }
        }
    }

    /// Total events stepped across every kind.
    pub fn events_total(&self) -> u64 {
        self.job_arrivals.get()
            + self.job_completions.get()
            + self.wet_bulb_breakpoints.get()
            + self.cooling_quanta.get()
            + self.record_boundaries.get()
    }
}
