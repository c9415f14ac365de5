//! The RAPS simulation loop — Algorithm 1 of the paper, driven by a
//! discrete-event kernel.
//!
//! `RUNSIMULATION` semantics: newly arriving jobs join the pending queue,
//! `SCHEDULEJOBS` starts whatever the policy admits, and the per-second
//! `TICK` releases completed jobs, recomputes power, applies rectification
//! and conversion losses, and — every 15 s — calls the cooling model
//! across the FMI boundary and refreshes the UI/outputs.
//!
//! # Event-driven advancement
//!
//! Nothing happens in most of a day's 86,400 seconds: the simulation state
//! only changes at *events* — job arrivals, job completions, the 15 s
//! cooling/trace quantum, record boundaries, and wet-bulb forcing
//! breakpoints. [`RapsSimulation::run_until`] therefore advances the clock
//! straight from one event second to the next
//! (an [`exadigit_sim::events::EventQueue`] calendar), integrating energy
//! and the per-second summary statistics in closed form over the
//! constant-power gap between events ([`Welford::push_n`]). Quantum and
//! record recurrences only *materialise* as events on the eager path (a
//! cooling model attached or a time-varying utilization trace running);
//! otherwise the kernel jumps one-shot to one-shot and backfills the
//! record samples the gap spanned in bulk
//! ([`exadigit_sim::TimeSeries::push_n`]), so a quiet multi-week horizon
//! costs O(events), not O(samples). Scheduling
//! passes only run at event seconds, plus one echo second after any pass
//! that started jobs (starts reorder the pending queue, so the reference
//! loop can admit a newly fronted job on the very next pass); a pass with
//! no decisions is stable until the next event for every policy — the
//! pool cannot grow without a completion, and EASY backfill's shadow time
//! is release-determined while `now + wall ≤ shadow` only weakens as
//! `now` grows — see `DESIGN.md` § "Discrete-event kernel" for the full
//! argument.
//!
//! [`RapsSimulation::tick`] and [`RapsSimulation::run_until_per_second`]
//! keep the literal Algorithm 1 loop as the executable specification: the
//! `event_kernel` golden test pins the event-driven run bit-identical to
//! the per-second loop at every record boundary, with total energy within
//! 1e-9 relative.

use crate::config::SystemConfig;
use crate::job::{Job, JobState, UtilTrace};
use crate::metrics::KernelMetrics;
use crate::power::{PowerAccumulator, PowerDelivery, PowerModel, PowerSnapshot};
use crate::scheduler::{schedule_jobs, NodePool, Policy, RunningRelease};
use crate::stats::RunReport;
use exadigit_sim::events::{series_breakpoints, Event, EventKind, EventQueue};
use exadigit_sim::fmi::{CoSimModel, FmiError, VarRef};
use exadigit_sim::{SimClock, TimeSeries, Welford};
use std::collections::VecDeque;
use std::sync::Arc;

/// Trace quantum and cooling-model period, seconds (§III-B of the paper).
pub const COOLING_PERIOD_S: u64 = 15;

/// True when either utilization trace of `job` varies over time.
fn has_variable_trace(job: &Job) -> bool {
    matches!(job.cpu_util, UtilTrace::Series { .. })
        || matches!(job.gpu_util, UtilTrace::Series { .. })
}

/// Nodes physically present per rack: full racks, the remainder in the
/// last. Needs at least one node and a rack size of at least one.
fn rack_capacities(cfg: &SystemConfig) -> impl Iterator<Item = u32> {
    let per_rack = cfg.rack.nodes_per_rack;
    let racks = cfg.total_racks();
    let last = cfg.total_nodes() - per_rack * (racks - 1);
    (0..racks).map(move |rack| (if rack + 1 < racks { per_rack } else { last }) as u32)
}

/// A running job's `(rack, count)` pairs: its node ids grouped into runs
/// on one rack, the rack of node `n` being `n / nodes_per_rack` (as
/// [`PowerModel::rack_of_node`]). One division per run, not per node.
fn rack_counts_of(nodes: &[u32], nodes_per_rack: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
    let mut rest = nodes;
    std::iter::from_fn(move || {
        let rack = *rest.first()? as usize / nodes_per_rack;
        let on_rack = rack * nodes_per_rack..(rack + 1) * nodes_per_rack;
        let run = rest.iter().take_while(|&&n| on_rack.contains(&(n as usize))).count();
        rest = &rest[run..];
        Some((rack as u32, run as u32))
    })
}

/// Accumulate `running`, at the utilization samples the last recompute
/// took, and the idle nodes `derived` counts into `acc` under `model`.
/// Each running job's node point is computed once, however many racks it
/// spans, and the idle point once for all racks. The sums are added in
/// the same order as one `add_nodes` per (job, rack) pair, so the
/// snapshot is the same bit for bit. The kernel's own model, every power
/// lane and a load accumulate through here.
fn accumulate_allocation(
    model: &PowerModel,
    acc: &mut PowerAccumulator,
    running: &[RunningJob],
    derived: &Derived,
) {
    model.reset_accumulator(acc);
    let partitions = &model.config().partitions;
    for rj in running {
        let gpus = partitions[rj.job.partition].gpus_per_node;
        let point = model.node_point(rj.last_cpu, rj.last_gpu, gpus);
        for &(rack, count) in &rj.rack_counts {
            acc.add(rack as usize, count as usize, &point);
        }
    }
    // Idle nodes: rack capacity minus allocated. The default GPU count
    // of the first partition is used for idle nodes, which is exact for
    // single-partition systems and a fine approximation otherwise.
    let idle_point = model.node_point(0.0, 0.0, partitions[0].gpus_per_node);
    for (rack, (&capacity, &allocated)) in
        derived.rack_capacity.iter().zip(&derived.rack_allocated).enumerate()
    {
        let idle = capacity - allocated;
        if idle > 0 {
            acc.add(rack, idle as usize, &idle_point);
        }
    }
}

/// Names used to resolve the cooling model's variables at attach time.
/// Any [`CoSimModel`] exposing these is accepted — the §V generalisation.
pub mod cooling_vars {
    /// Heat input of CDU `i` (1-based), W: `cdu_heat[i]`.
    pub fn cdu_heat(i: usize) -> String {
        format!("cdu_heat[{i}]")
    }
    /// Outdoor wet-bulb temperature input, °C.
    pub const WET_BULB: &str = "wet_bulb";
    /// Total IT (system) power input for the PUE sub-module, W.
    pub const IT_POWER: &str = "it_power";
    /// Power usage effectiveness output.
    pub const PUE: &str = "pue";
    /// Total cooling auxiliary power output, W.
    pub const COOLING_POWER: &str = "cooling_power";
}

/// RAPS's handle on a cooling model: the FMU import of §III-C6.
pub struct CoolingCoupling {
    /// The model behind the FMI boundary.
    pub model: Box<dyn CoSimModel>,
    cdu_inputs: Vec<VarRef>,
    wet_bulb_input: VarRef,
    it_power_input: Option<VarRef>,
    pue_output: Option<VarRef>,
    /// Inputs as last forwarded across the boundary. `set_real` is
    /// idempotent, so bit-equal values are skipped — load only changes
    /// at job events, which makes most 15 s quanta send-free.
    last_cdu_heat_w: Vec<f64>,
    last_wet_bulb_c: f64,
    last_it_power_w: f64,
}

impl CoolingCoupling {
    /// Resolve the variable names and wrap the model. Fails when the model
    /// does not expose `num_cdus` heat inputs or the wet-bulb input.
    pub fn attach(model: Box<dyn CoSimModel>, num_cdus: usize) -> Result<Self, String> {
        let mut cdu_inputs = Vec::with_capacity(num_cdus);
        for i in 1..=num_cdus {
            let name = cooling_vars::cdu_heat(i);
            let var = model
                .var_by_name(&name)
                .ok_or_else(|| format!("cooling model lacks input {name}"))?;
            cdu_inputs.push(var.vr);
        }
        let wet_bulb_input = model
            .var_by_name(cooling_vars::WET_BULB)
            .ok_or_else(|| "cooling model lacks wet_bulb input".to_string())?
            .vr;
        let it_power_input = model.var_by_name(cooling_vars::IT_POWER).map(|v| v.vr);
        let pue_output = model.var_by_name(cooling_vars::PUE).map(|v| v.vr);
        Ok(CoolingCoupling {
            model,
            cdu_inputs,
            wet_bulb_input,
            it_power_input,
            pue_output,
            last_cdu_heat_w: vec![f64::NAN; num_cdus],
            last_wet_bulb_c: f64::NAN,
            last_it_power_w: f64::NAN,
        })
    }

    /// Duplicate the coupling mid-simulation, model state included — the
    /// cooling half of [`RapsSimulation::fork`]. `None` when the model
    /// does not implement [`CoSimModel::fork`].
    pub fn fork(&self) -> Option<CoolingCoupling> {
        Some(CoolingCoupling {
            model: self.model.fork()?,
            cdu_inputs: self.cdu_inputs.clone(),
            wet_bulb_input: self.wet_bulb_input,
            it_power_input: self.it_power_input,
            pue_output: self.pue_output,
            last_cdu_heat_w: self.last_cdu_heat_w.clone(),
            last_wet_bulb_c: self.last_wet_bulb_c,
            last_it_power_w: self.last_it_power_w,
        })
    }
}

/// Recorded simulation outputs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SimOutputs {
    /// System power, W, sampled every `record_every_s`.
    pub system_power_w: TimeSeries,
    /// Conversion loss, W, same cadence.
    pub loss_w: TimeSeries,
    /// Node-allocation utilization in \[0,1\], same cadence.
    pub utilization: TimeSeries,
    /// Conversion efficiency η_system, same cadence.
    pub efficiency: TimeSeries,
    /// PUE at the cooling cadence (empty without cooling).
    pub pue: TimeSeries,
    /// Welford accumulators for the run report.
    pub power_stats: Welford,
    /// Loss accumulator.
    pub loss_stats: Welford,
    /// Utilization accumulator.
    pub util_stats: Welford,
    /// PUE accumulator.
    pub pue_stats: Welford,
    /// Efficiency accumulator.
    pub eff_stats: Welford,
    /// Queue-wait accumulator (completed jobs).
    pub wait_stats: Welford,
    /// Total energy, joules (1 s trapezoid-free accumulation).
    pub energy_j: f64,
}

impl SimOutputs {
    fn new(record_every_s: u64) -> Self {
        let dt = record_every_s as f64;
        SimOutputs {
            system_power_w: TimeSeries::new(0.0, dt),
            loss_w: TimeSeries::new(0.0, dt),
            utilization: TimeSeries::new(0.0, dt),
            efficiency: TimeSeries::new(0.0, dt),
            // The first cooling step runs at the first quantum, so the
            // series starts there: sample i sits at its physical time
            // t0 + i·15 (the invariant mid-run attaches preserve).
            pue: TimeSeries::new(COOLING_PERIOD_S as f64, COOLING_PERIOD_S as f64),
            power_stats: Welford::new(),
            loss_stats: Welford::new(),
            util_stats: Welford::new(),
            pue_stats: Welford::new(),
            eff_stats: Welford::new(),
            wait_stats: Welford::new(),
            energy_j: 0.0,
        }
    }

    /// Approximate recorded-history footprint as `(shared, owned)`
    /// bytes across every series: sealed chunks whose `Arc` is held by
    /// more than one owner (a fork or snapshot sharing this history)
    /// count as shared, everything else — uniquely-owned chunks and the
    /// mutable tails — as owned. The split is what a capacity dashboard
    /// needs: owned bytes are what dropping this state frees, shared
    /// bytes are amortised across the twins that hold them.
    pub fn shared_owned_bytes(&self) -> (usize, usize) {
        let mut shared = 0;
        let mut owned = 0;
        for series in [
            &self.system_power_w,
            &self.loss_w,
            &self.utilization,
            &self.efficiency,
            &self.pue,
        ] {
            let (s, o) = series.shared_owned_bytes();
            shared += s;
            owned += o;
        }
        (shared, owned)
    }
}

/// A running job plus its allocation, with per-rack node counts cached so
/// each power recompute is O(racks touched), not O(nodes).
#[derive(Clone, serde::Serialize, serde::Deserialize)]
struct RunningJob {
    job: Job,
    nodes: Vec<u32>,
    /// (rack index, node count) pairs.
    rack_counts: Vec<(u32, u32)>,
    /// CPU utilization sample the last power recompute used. Lets the
    /// event kernel prove a quantum recompute would reproduce the held
    /// snapshot bit-for-bit (recompute is a pure function of the samples)
    /// and skip it.
    last_cpu: f64,
    /// GPU utilization sample at the last recompute.
    last_gpu: f64,
}

/// Every field of the simulation that is state, declared once. A fork
/// is a clone of it and a save is its serialization, so the two cannot
/// drift apart: a field added here is forked and persisted with no
/// other edit. It also changes the snapshot shape, so it needs a
/// `SNAPSHOT_FORMAT_VERSION` bump and a regenerated fixture
/// (`DESIGN.md` § 6). What the kernel derives from it lives in
/// [`Derived`], never saved, so a save cannot disagree with itself.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
struct KernelState {
    /// Machine topology and component parameters. Immutable during a run
    /// (only `set_power_model` replaces it), so forks share it by
    /// refcount instead of re-cloning partition tables.
    cfg: Arc<SystemConfig>,
    /// Power-delivery variant; with `cfg` it determines the power model.
    delivery: PowerDelivery,
    policy: Policy,
    /// Jobs not yet submitted, ascending submit time. The front is the
    /// next arrival: arrivals are read here, not scheduled as events.
    future: VecDeque<Job>,
    /// Submitted, waiting jobs in queue order.
    pending: Vec<Job>,
    running: Vec<RunningJob>,
    clock: SimClock,
    power_dirty: bool,
    /// The last scheduling pass started jobs while others stayed queued.
    /// Starting a job reorders the pending queue (`swap_remove`), so the
    /// per-second reference loop can admit a newly fronted job on the
    /// very next pass with no arrival or completion in between; the event
    /// kernel reproduces that by treating the next second as an event and
    /// re-running the pass until it is quiescent.
    sched_echo: bool,
    /// Wet-bulb forcing for the cooling model, °C.
    wet_bulb: TimeSeries,
    outputs: SimOutputs,
    record_every_s: u64,
    /// The discrete-event calendar `run_until` advances between: recurring
    /// quantum/record entries plus one-shot completions and wet-bulb
    /// breakpoints.
    events: EventQueue,
    completed: u64,
}

/// What the kernel derives from its [`KernelState`] rather than saves:
/// node occupancy and the held power snapshot. A fork clones it and a
/// load rebuilds it ([`KernelState::derive`]).
#[derive(Clone)]
struct Derived {
    pool: NodePool,
    /// Nodes physically present per rack.
    rack_capacity: Vec<u32>,
    /// Nodes allocated per rack (for idle-node accounting).
    rack_allocated: Vec<u32>,
    /// Total nodes currently allocated (sum of `rack_allocated`, kept in
    /// lockstep so `utilization` is O(1) on the hot path).
    active_nodes: u32,
    total_nodes: usize,
    /// Running jobs whose utilization is a time-varying `Series` trace.
    /// Zero (the synthetic-workload common case) lets the event kernel
    /// prove a quantum recompute redundant in O(1).
    variable_running: usize,
    /// The snapshot the last recompute evaluated.
    snapshot: PowerSnapshot,
}

impl KernelState {
    /// Check a state this program did not build, such as a loaded save,
    /// once, and derive from it what the kernel keeps beside it: the power
    /// model and [`Derived`]. Checked is what the kernel indexes or
    /// relies on: a record cadence of at least 1 s; a machine the power
    /// model can evaluate; jobs in partitions that exist; `future` in
    /// submit order; held node ids inside their partition, each held
    /// once, as many as the job's `nodes`, with the rack counts their
    /// ids give; a completion one-shot at `start + max(wall, 1)` for
    /// every running job; finite last samples unless a recompute is owed;
    /// and, when `cooled` names a coupling's CDU count, no more CDUs than
    /// the machine has and a breakpoint one-shot at every breakpoint of
    /// the forcing after now. A job is checked only for what the kernel
    /// indexes by it, so every job that submission accepts (more nodes
    /// than its partition has, a utilization the kernel clamps) loads
    /// again. The pool is rebuilt from the held ids
    /// ([`NodePool::from_held`]) and the snapshot re-evaluated from the
    /// last samples, which is the held snapshot bit for bit when no
    /// recompute is owed; when one is, the kernel recomputes before it
    /// reads the snapshot. O(jobs + racks + held ids + k log k) for k
    /// runs of held ids and one-shots: about the cost of decoding them.
    fn derive(&self, cooled: Option<usize>) -> Result<(PowerModel, Derived), String> {
        if self.record_every_s == 0 {
            return Err("record_every_s must be at least 1".into());
        }
        let cfg = &*self.cfg;
        let (rack, cooling) = (&cfg.rack, &cfg.cooling);
        // Summed so no partition table can overflow `total_nodes`.
        let nodes =
            cfg.partitions.iter().try_fold(0u32, |n, p| n.checked_add(p.nodes.try_into().ok()?));
        if rack.nodes_per_rack == 0
            || nodes.is_none_or(|n| n == 0)
            || cooling.num_cdus == 0
            || cooling.racks_per_cdu == 0
            || cfg.conversion.rectifiers_per_rack == 0
        {
            return Err("the machine needs 1 to 2^32 - 1 nodes and at least one node per rack, \
                        CDU, rack per CDU and rectifier per rack"
                .into());
        }
        if let Some(cdus) = cooled.filter(|&cdus| cdus > cooling.num_cdus) {
            return Err(format!(
                "the cooling coupling has {cdus} CDU inputs, the machine only {}",
                cooling.num_cdus
            ));
        }
        let partitions = cfg.partitions.len();
        let running_jobs = self.running.iter().map(|rj| &rj.job);
        for job in self.future.iter().chain(&self.pending).chain(running_jobs) {
            if job.partition >= partitions {
                let (id, p) = (job.id.0, job.partition);
                return Err(format!("job {id}: partition {p} does not exist ({partitions} do)"));
            }
        }
        if !self.future.iter().is_sorted_by_key(|job| job.submit_time_s) {
            return Err("future jobs are not in submit order".into());
        }
        let held = self.running.iter().map(|rj| (rj.job.partition, &rj.nodes[..]));
        let pool = NodePool::from_held(cfg, held)?;
        let (mut completions, mut breakpoints) = (Vec::new(), Vec::new());
        for event in self.events.one_shots() {
            match event.kind {
                EventKind::JobCompletion => completions.push(event.time_s),
                EventKind::WetBulbBreakpoint => breakpoints.push(event.time_s),
                _ => {}
            }
        }
        completions.sort_unstable();
        breakpoints.sort_unstable();
        let mut rack_allocated = vec![0u32; cfg.total_racks()];
        let mut variable_running = 0;
        for rj in &self.running {
            let job = &rj.job;
            let id = job.id.0;
            if rj.nodes.len() != job.nodes {
                let held = rj.nodes.len();
                return Err(format!("running job {id} holds {held} of its {} nodes", job.nodes));
            }
            // The pool put every id inside the machine, once, so these
            // racks exist and no rack holds more than its capacity.
            let derived = rack_counts_of(&rj.nodes, rack.nodes_per_rack);
            if !derived.eq(rj.rack_counts.iter().copied()) {
                return Err(format!("running job {id}: rack_counts are not the racks of its nodes"));
            }
            for &(rack, count) in &rj.rack_counts {
                rack_allocated[rack as usize] += count;
            }
            let due = job.start_time_s.and_then(|start| start.checked_add(job.wall_time_s.max(1)));
            if due.is_none_or(|due| completions.binary_search(&due).is_err()) {
                return Err(format!("running job {id} has no completion one-shot at its end"));
            }
            let finite = rj.last_cpu.is_finite() && rj.last_gpu.is_finite();
            if !(finite || self.power_dirty) {
                return Err(format!(
                    "running job {id} has a non-finite last sample and no recompute is owed"
                ));
            }
            variable_running += usize::from(has_variable_trace(job));
        }
        if cooled.is_some() {
            let now = self.clock.elapsed();
            let mut after_now = series_breakpoints(&self.wet_bulb).into_iter().filter(|&t| t > now);
            if let Some(t) = after_now.find(|t| breakpoints.binary_search(t).is_err()) {
                return Err(format!("the forcing breakpoint at {t} s has no breakpoint one-shot"));
            }
        }
        let model = PowerModel::new(cfg.clone(), self.delivery);
        let mut derived = Derived {
            pool,
            rack_capacity: rack_capacities(cfg).collect(),
            active_nodes: rack_allocated.iter().sum(),
            rack_allocated,
            total_nodes: cfg.total_nodes(),
            variable_running,
            snapshot: PowerSnapshot::default(),
        };
        let mut acc = model.new_accumulator();
        accumulate_allocation(&model, &mut acc, &self.running, &derived);
        model.evaluate_into(&acc, &mut derived.snapshot);
        Ok((model, derived))
    }
}

/// Serialized cooling coupling, saved under the `cooling` key next to
/// the kernel state: the model's opaque state (each backend
/// deserializes its own type) plus the CDU count needed to re-resolve
/// variable references via [`CoolingCoupling::attach`].
#[derive(serde::Serialize, serde::Deserialize)]
struct CoolingState {
    num_cdus: usize,
    model: serde::Value,
}

/// One extra power model carried over a run of another's schedule
/// ([`RapsSimulation::run_until_with_lanes`]): the power side of what a
/// fork under that model would hold. It makes the calls the kernel's own
/// power side makes, at the same points, so it ends bit-identical to
/// that fork. A lane lives for one run call and is not [`KernelState`],
/// so it is never saved, forked or validated.
struct PowerLane {
    model: PowerModel,
    acc: PowerAccumulator,
    snapshot: PowerSnapshot,
    energy_j: f64,
    power_stats: Welford,
    loss_stats: Welford,
    eff_stats: Welford,
}

/// Why [`RapsSimulation::run_until_with_lanes`] refused a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneError {
    /// A cooling model is attached. The plant's response depends on
    /// power, so each power model needs a run of its own.
    CoolingAttached,
    /// Lane `lane` describes a machine other than the simulation's.
    Topology {
        /// The refused lane's index.
        lane: usize,
    },
}

impl std::fmt::Display for LaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneError::CoolingAttached => {
                f.write_str("power lanes need a power-only run, but a cooling model is attached")
            }
            LaneError::Topology { lane } => {
                write!(f, "power lane {lane} requires an identical machine topology")
            }
        }
    }
}

impl std::error::Error for LaneError {}

/// The RAPS simulator: the kernel state plus the parts that are derived
/// from it or are not state.
pub struct RapsSimulation {
    state: KernelState,
    /// Occupancy and the held power snapshot, derived from `state`.
    derived: Derived,
    /// The power model — a pure function of `(cfg, delivery)`, rebuilt
    /// on restore and shared across forks by refcount.
    model: Arc<PowerModel>,
    /// Recompute scratch, reset at the start of every recompute.
    acc: PowerAccumulator,
    /// Scratch buffer reused when draining due events.
    event_buf: Vec<Event>,
    /// The cooling model behind the FMI boundary. Not plain data: a fork
    /// forks the model and a save asks it for its state blob.
    cooling: Option<CoolingCoupling>,
    /// Kernel observability counters. Deliberately *not* part of
    /// [`KernelState`]: counters are diagnostics, not simulation state, so
    /// the snapshot format stays byte-stable and restored twins start
    /// fresh. Forks share the parent's handles by refcount
    /// ([`KernelMetrics`] is `Arc`'d atomics), so one attached set
    /// observes the live twin and every what-if branched from it.
    metrics: KernelMetrics,
    /// Power lanes of the lane run in progress; empty outside one.
    lanes: Vec<PowerLane>,
}

impl RapsSimulation {
    /// New simulation for `cfg` under `delivery`, recording outputs every
    /// `record_every_s` seconds (15 matches the paper's telemetry quantum;
    /// use larger values for multi-day replays).
    pub fn new(
        cfg: SystemConfig,
        delivery: PowerDelivery,
        policy: Policy,
        record_every_s: u64,
    ) -> Self {
        let mut events = EventQueue::new();
        events.schedule_every(COOLING_PERIOD_S, EventKind::CoolingQuantum);
        // Record boundaries on the quantum grid are already covered by the
        // quantum events (the handler records by modulo, not by payload);
        // a separate recurrence is only needed off-grid. Both recurrences
        // are *virtual* on the lazy path: `run_until` skips them wholesale
        // over quiet gaps and backfills the record samples in closed form
        // — they only materialise as stepped seconds on the eager path.
        if !record_every_s.is_multiple_of(COOLING_PERIOD_S) {
            events.schedule_every(record_every_s, EventKind::RecordBoundary);
        }
        let state = KernelState {
            cfg: Arc::new(cfg),
            delivery,
            policy,
            future: VecDeque::new(),
            pending: Vec::new(),
            running: Vec::new(),
            clock: SimClock::midnight(),
            power_dirty: true,
            sched_echo: false,
            // Default weather: constant 15 °C wet-bulb.
            wet_bulb: TimeSeries::from_values(0.0, 3600.0, vec![15.0, 15.0]),
            outputs: SimOutputs::new(record_every_s),
            record_every_s,
            events,
            completed: 0,
        };
        let (model, derived) =
            state.derive(None).expect("a new simulation's machine and record cadence are valid");
        Self::assemble(state, derived, Arc::new(model), None, KernelMetrics::new())
    }

    /// Wrap `state` and what is derived from it with its power model,
    /// fresh scratch, cooling, and counters: the one constructor `new`,
    /// `fork` and `from_state` share.
    fn assemble(
        state: KernelState,
        derived: Derived,
        model: Arc<PowerModel>,
        cooling: Option<CoolingCoupling>,
        metrics: KernelMetrics,
    ) -> Self {
        let (acc, event_buf, lanes) = (model.new_accumulator(), Vec::new(), Vec::new());
        RapsSimulation { state, derived, model, acc, event_buf, cooling, metrics, lanes }
    }

    /// Attach a cooling model (FMU import). Call before running; also
    /// used by forked what-ifs to swap fidelity mid-run (the replacement
    /// model starts from its own `setup` state, not the old model's).
    pub fn attach_cooling(&mut self, mut coupling: CoolingCoupling) {
        coupling.model.setup(self.state.clock.now_f64());
        // Keep the PUE series' time axis (sample i at t0 + i·15 s, its
        // physical time) truthful across mid-run attaches: a first
        // attach re-anchors t0 to the next quantum; a re-attach after a
        // detach gap fills the missed quanta with NaN ("no measurement")
        // so appended samples land at their physical times.
        let now = self.state.clock.elapsed();
        if now > 0 {
            let next_quantum = ((now / COOLING_PERIOD_S + 1) * COOLING_PERIOD_S) as f64;
            let pue = &mut self.state.outputs.pue;
            if pue.is_empty() {
                pue.t0 = next_quantum;
            } else {
                let dt = COOLING_PERIOD_S as f64;
                while pue.t0 + pue.len() as f64 * dt < next_quantum {
                    pue.push(f64::NAN);
                }
            }
        }
        self.cooling = Some(coupling);
        self.schedule_wet_bulb_events();
    }

    /// Detach the cooling model: subsequent seconds run power-only. Any
    /// scheduled wet-bulb breakpoint events remain in the calendar as
    /// no-op markers.
    pub fn detach_cooling(&mut self) -> Option<CoolingCoupling> {
        self.cooling.take()
    }

    /// Provide the wet-bulb temperature forcing (°C over simulated time).
    pub fn set_wet_bulb(&mut self, series: TimeSeries) {
        self.state.wet_bulb = series;
        self.schedule_wet_bulb_events();
    }

    /// The current wet-bulb forcing (weather what-ifs perturb this).
    pub fn wet_bulb(&self) -> &TimeSeries {
        &self.state.wet_bulb
    }

    /// Register the forcing's piecewise-linear breakpoints as events so
    /// the kernel never coasts across a segment change. The forcing is
    /// only *sampled* at the 15 s cooling quantum (which is itself a
    /// recurring event), so these are conservative no-op markers; they
    /// keep the calendar truthful for custom backends stepping on them.
    fn schedule_wet_bulb_events(&mut self) {
        if self.cooling.is_none() {
            return;
        }
        for t in series_breakpoints(&self.state.wet_bulb) {
            self.state.events.schedule_at(t, EventKind::WetBulbBreakpoint);
        }
    }

    /// Queue jobs for submission (any order; sorted internally). The
    /// front of the submit-ordered queue is the next arrival, so no
    /// event is scheduled for it.
    pub fn submit_jobs(&mut self, mut jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        jobs.sort_by_key(|j| j.submit_time_s);
        // Merge the sorted batch into the (sorted) future queue in one
        // pass; on equal submit times, previously queued jobs stay first
        // (the stable-sort order the per-second loop always produced).
        if self.state.future.is_empty() {
            self.state.future = jobs.into();
            return;
        }
        let old = std::mem::take(&mut self.state.future);
        let mut merged = VecDeque::with_capacity(old.len() + jobs.len());
        let mut incoming = jobs.into_iter().peekable();
        for queued in old {
            while incoming
                .peek()
                .is_some_and(|j| j.submit_time_s < queued.submit_time_s)
            {
                merged.push_back(incoming.next().expect("peeked"));
            }
            merged.push_back(queued);
        }
        merged.extend(incoming);
        self.state.future = merged;
    }

    /// The current power snapshot.
    pub fn snapshot(&self) -> &PowerSnapshot {
        &self.derived.snapshot
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> u64 {
        self.state.clock.elapsed()
    }

    /// Jobs currently running.
    pub fn running_count(&self) -> usize {
        self.state.running.len()
    }

    /// Jobs waiting in the queue.
    pub fn pending_count(&self) -> usize {
        self.state.pending.len()
    }

    /// Node-allocation utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.derived.active_nodes as f64 / self.derived.total_nodes as f64
    }

    /// Recorded outputs so far.
    pub fn outputs(&self) -> &SimOutputs {
        &self.state.outputs
    }

    /// Access the cooling model for output inspection.
    pub fn cooling_model(&self) -> Option<&dyn CoSimModel> {
        self.cooling.as_ref().map(|c| c.model.as_ref())
    }

    /// Advance one second — the paper's `TICK`, kept verbatim as the
    /// executable specification the event-driven kernel is pinned
    /// against. Interactive single-stepping also comes through here.
    pub fn tick(&mut self) -> Result<(), FmiError> {
        let now = self.state.clock.tick();
        self.step_second(now, false, true)
    }

    /// Everything that happens within one simulated second `now` (the
    /// clock has already advanced to it): arrivals, completions, a
    /// scheduling pass, the power recompute, energy/stat accumulation,
    /// the cooling step, and output recording.
    ///
    /// `event_mode` enables the optimizations the per-second reference
    /// loop deliberately does not take, each exact by construction:
    /// skipping a quantum recompute when no running job's utilization
    /// sample changed (the recompute is a pure function of those samples
    /// and the unchanged allocation state, so it would rebuild the held
    /// snapshot bit-for-bit), and skipping the scheduling pass on seconds
    /// with no arrival, completion, or pending echo (such a pass provably
    /// returns no decisions — see the module docs). `completion_due` says
    /// whether a completion event is due at `now`; the reference loop
    /// passes `true` and scans unconditionally.
    fn step_second(
        &mut self,
        now: u64,
        event_mode: bool,
        completion_due: bool,
    ) -> Result<(), FmiError> {
        // Newly arriving jobs join the pending queue.
        let mut arrived = false;
        while let Some(front) = self.state.future.front() {
            if front.submit_time_s <= now {
                let mut job = self.state.future.pop_front().expect("peeked");
                job.state = JobState::Pending;
                self.state.pending.push(job);
                arrived = true;
            } else {
                break;
            }
        }

        // Release completed jobs first so their nodes are schedulable.
        // The kernel schedules a completion event for every start, so a
        // second with no due completion event cannot release anything and
        // the scan is skipped in event mode.
        let mut completed_any = false;
        if completion_due {
            let mut i = 0;
            while i < self.state.running.len() {
                if self.state.running[i].job.is_due(now) {
                    let mut rj = self.state.running.swap_remove(i);
                    rj.job.state = JobState::Completed;
                    rj.job.end_time_s = Some(now);
                    self.derived.pool.release(rj.job.partition, &rj.nodes);
                    for &(rack, count) in &rj.rack_counts {
                        self.derived.rack_allocated[rack as usize] -= count;
                    }
                    self.derived.active_nodes -= rj.nodes.len() as u32;
                    if has_variable_trace(&rj.job) {
                        self.derived.variable_running -= 1;
                    }
                    self.state.completed += 1;
                    self.state.power_dirty = true;
                    completed_any = true;
                } else {
                    i += 1;
                }
            }
        }

        // SCHEDULEJOBS over the pending queue. Only EASY backfill reads
        // the expected-release list, so it is built for that policy alone.
        // In event mode the pass runs only on seconds where its inputs
        // could have changed; elsewhere it provably returns no decisions.
        let run_pass = !event_mode || arrived || completed_any || self.state.sched_echo;
        if run_pass {
            self.state.sched_echo = false;
        }
        if run_pass && !self.state.pending.is_empty() {
            let releases: Vec<RunningRelease> = if self.state.policy == Policy::EasyBackfill {
                self.state
                    .running
                    .iter()
                    .map(|rj| RunningRelease {
                        end_time_s: rj.job.start_time_s.unwrap_or(now) + rj.job.wall_time_s,
                        partition: rj.job.partition,
                        nodes: rj.job.nodes,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let decisions = schedule_jobs(
                self.state.policy,
                &self.state.pending,
                &mut self.derived.pool,
                now,
                &releases,
            );
            if !decisions.is_empty() {
                self.state.power_dirty = true;
                // Remove started jobs from pending in descending index order.
                let mut started: Vec<(usize, Vec<u32>)> =
                    decisions.into_iter().map(|d| (d.job_index, d.nodes)).collect();
                started.sort_by_key(|s| std::cmp::Reverse(s.0));
                for (idx, nodes) in started {
                    let mut job = self.state.pending.swap_remove(idx);
                    job.state = JobState::Running;
                    job.start_time_s = Some(now);
                    // Completions are release checks at a *later* tick, so
                    // a zero-wall job still ends one second after it starts.
                    self.state.events.schedule_at(
                        now + job.wall_time_s.max(1),
                        EventKind::JobCompletion,
                    );
                    self.state.outputs
                        .wait_stats
                        .push(now.saturating_sub(job.submit_time_s) as f64);
                    let rack_counts: Vec<_> =
                        rack_counts_of(&nodes, self.state.cfg.rack.nodes_per_rack).collect();
                    for &(rack, count) in &rack_counts {
                        self.derived.rack_allocated[rack as usize] += count;
                    }
                    self.derived.active_nodes += nodes.len() as u32;
                    if has_variable_trace(&job) {
                        self.derived.variable_running += 1;
                    }
                    self.state.running.push(RunningJob {
                        job,
                        nodes,
                        rack_counts,
                        last_cpu: f64::NAN,
                        last_gpu: f64::NAN,
                    });
                }
                // Starts reordered the queue: re-pass next second until
                // quiescent (a pass with no decisions is stable between
                // events — see the module docs).
                self.state.sched_echo = !self.state.pending.is_empty();
            }
        }

        // Recalculate power on events or at the trace quantum.
        let quantum_boundary = now.is_multiple_of(COOLING_PERIOD_S);
        if self.state.power_dirty || quantum_boundary {
            let skip = event_mode && !self.state.power_dirty && self.util_samples_unchanged(now);
            if !skip {
                self.recompute_power(now);
            }
            self.state.power_dirty = false;
        }

        // Energy integrates every second from the held snapshot.
        self.state.outputs.energy_j += self.derived.snapshot.system_w;

        // Cooling model every 15 s (the FMU call of Algorithm 1).
        if quantum_boundary {
            self.step_cooling(now)?;
        }

        // Record outputs and push the second's summary statistics.
        self.record_second(now);
        if !self.lanes.is_empty() {
            self.account_lanes_second();
        }
        Ok(())
    }

    /// The output tail of one simulated second: record the series at
    /// `record_every_s` boundaries and push the per-second statistics.
    fn record_second(&mut self, now: u64) {
        if now.is_multiple_of(self.state.record_every_s) {
            let util = self.utilization();
            self.state.outputs.system_power_w.push(self.derived.snapshot.system_w);
            self.state.outputs.loss_w.push(self.derived.snapshot.loss_w);
            self.state.outputs.utilization.push(util);
            self.state.outputs.efficiency.push(self.derived.snapshot.efficiency);
        }
        self.state.outputs.power_stats.push(self.derived.snapshot.system_w);
        self.state.outputs.loss_stats.push(self.derived.snapshot.loss_w);
        self.state.outputs.eff_stats.push(self.derived.snapshot.efficiency);
        self.state.outputs.util_stats.push(self.utilization());
    }

    /// Run until `horizon_s` of simulated time by jumping the clock from
    /// event to event.
    ///
    /// Between consecutive events the snapshot is provably constant, so
    /// the gap's energy is `gap × P` in closed form, the per-second
    /// summary statistics absorb the gap through [`Welford::push_n`], and
    /// the record samples the gap spans are backfilled in bulk
    /// (`backfill_records`) instead of making every record
    /// boundary an event — a quiet gap costs O(1) no matter how many
    /// boundaries it crosses, so multi-week horizons cost O(events), not
    /// O(samples). Equivalent to [`Self::run_until_per_second`] (same
    /// completions, same recorded series bit-for-bit, energy within float
    /// rounding) — the golden `event_kernel` test and the cross-mode
    /// property tests pin this.
    pub fn run_until(&mut self, horizon_s: u64) -> Result<(), FmiError> {
        while self.state.clock.elapsed() < horizon_s {
            let now = self.state.clock.elapsed();
            let lazy = self.lazy_target(now, horizon_s)?;
            let next = match lazy {
                Some(target) => target,
                // Eager path (recompute owed, scheduling echo, a cooling
                // model stepped quantum by quantum, or a variable
                // utilization trace running): advance event-to-event,
                // where recurrences *are* events because the quantum may
                // genuinely change state.
                None => {
                    let next = self.state.events.next_after(now).unwrap_or(u64::MAX);
                    let next = next.min(self.next_arrival(now));
                    // A recompute owed (fresh simulation or external state
                    // change), or a scheduling pass that started jobs and
                    // must re-run: the per-second loop would fold either
                    // into the very next tick, so that second is an event.
                    if self.state.power_dirty || self.state.sched_echo {
                        next.min(now + 1)
                    } else {
                        next
                    }
                }
            };
            if next > horizon_s {
                // No event inside the horizon: one closed-form jump,
                // recording through the horizon itself.
                self.account_steady(horizon_s - now);
                self.backfill_records(now, horizon_s);
                self.state.events.skip_recurring_through(horizon_s);
                self.state.clock.advance(horizon_s - now);
                break;
            }
            if lazy.is_some() {
                // Seconds strictly before the event hold the snapshot (so
                // their record samples backfill); the event second itself
                // is accounted and recorded by `step_second`. Recurrences
                // are skipped *before* the drain so it stays O(due
                // one-shots) instead of replaying every skipped fire.
                self.account_steady(next - now - 1);
                self.backfill_records(now, next - 1);
                self.state.events.skip_recurring_through(next);
                self.state.clock.advance(next - now);
            } else {
                // Seconds strictly between `now` and the event hold the
                // current snapshot; recurrences due at the event drain
                // with it, because on this path they are real events.
                self.account_steady(next - now - 1);
                self.state.clock.advance(next - now);
            }
            self.state.events.drain_due(next, &mut self.event_buf);
            let completion_due = self.event_buf.iter().any(|e| e.kind == EventKind::JobCompletion);
            if self.state.future.front().is_some_and(|job| job.submit_time_s <= next) {
                self.metrics.job_arrivals.inc();
            }
            self.metrics.note_events(&self.event_buf);
            self.event_buf.clear();
            self.step_second(next, true, completion_due)?;
        }
        Ok(())
    }

    /// Run until `horizon_s` with the literal per-second Algorithm 1 loop.
    ///
    /// O(horizon) and semantically identical to [`Self::run_until`]; kept
    /// as the executable specification the event kernel is verified
    /// against (and for apples-to-apples benchmarking in `day_replay`).
    pub fn run_until_per_second(&mut self, horizon_s: u64) -> Result<(), FmiError> {
        while self.state.clock.elapsed() < horizon_s {
            self.tick()?;
        }
        Ok(())
    }

    /// The second the front of `future` arrives when the clock stands at
    /// `now`: its submit time, or `now + 1` when that has passed, as a
    /// one-shot in the past fires on the next second. `u64::MAX` when no
    /// job is queued.
    fn next_arrival(&self, now: u64) -> u64 {
        self.state.future.front().map_or(u64::MAX, |job| job.submit_time_s.max(now + 1))
    }

    /// The event second `run_until` may jump straight to from `now`, or
    /// `None` for the eager path.
    ///
    /// With no recompute owed, no scheduling echo, and no time-varying
    /// utilization trace, every second up to the next arrival or
    /// *one-shot* event (completion, breakpoint) is provably silent —
    /// quantum and record recurrences would only re-observe the held
    /// snapshot. Without
    /// cooling that is the whole condition; with a cooling model
    /// attached the gap's quanta must also collapse into one
    /// `repeat_step` (`batch_cooled_gap`, which performs it).
    fn lazy_target(&mut self, now: u64, horizon_s: u64) -> Result<Option<u64>, FmiError> {
        let s = &self.state;
        if s.power_dirty || s.sched_echo || self.derived.variable_running != 0 {
            return Ok(None);
        }
        // A one-shot scheduled in the past still fires on the next
        // second, exactly as `next_after` would clamp it.
        let one_shot = s.events.next_one_shot().map_or(u64::MAX, |t| t.max(now + 1));
        let target = one_shot.min(self.next_arrival(now));
        let batched = self.cooling.is_none() || self.batch_cooled_gap(now, target, horizon_s)?;
        Ok(batched.then_some(target))
    }

    /// Try to batch the cooling quanta a steady gap from `now` to the
    /// one-shot `target` spans through [`CoSimModel::repeat_step`], so
    /// the gap can be jumped like a no-cooling one.
    ///
    /// Sound only when every swallowed quantum would have sent bit-equal
    /// inputs and read bit-equal outputs: the power snapshot is already
    /// provably constant (the caller's guards), the wet-bulb forcing must
    /// sample equal at the gap's first and last quantum (one linear
    /// segment — breakpoints are one-shot events — so equal endpoints
    /// mean a flat segment), and the model itself must declare repeated
    /// steps collapsible ([`CoSimModel::quasi_static`]). Any other case
    /// returns `Ok(false)` and the eager path steps quantum by quantum.
    /// The L4 plant never reports quasi-static, so transient cooling is
    /// untouched; the online L3/L4 backend reports it exactly while a
    /// trusted fit serves, which is what takes a *trained* cooled replay
    /// to O(events) — the same complexity the no-cooling path has.
    fn batch_cooled_gap(
        &mut self,
        now: u64,
        target: u64,
        horizon_s: u64,
    ) -> Result<bool, FmiError> {
        // Quanta the jump swallows: in `(now, target)` when an event
        // lands inside the horizon (the event second itself goes through
        // `step_second`), else through the horizon second inclusive (the
        // per-second loop steps it; the coast must account it).
        let last_swallowed = if target > horizon_s { horizon_s } else { target - 1 };
        let k = last_swallowed / COOLING_PERIOD_S - now / COOLING_PERIOD_S;
        if k == 0 {
            return Ok(false);
        }
        let first_q = (now / COOLING_PERIOD_S + 1) * COOLING_PERIOD_S;
        let last_q = (last_swallowed / COOLING_PERIOD_S) * COOLING_PERIOD_S;
        let wb = self.state.wet_bulb.sample_at(first_q as f64);
        if wb.to_bits() != self.state.wet_bulb.sample_at(last_q as f64).to_bits() {
            return Ok(false);
        }
        self.forward_cooling_inputs(wb)?;
        let cooling = self.cooling.as_mut().expect("caller checked");
        if !cooling.model.quasi_static() {
            return Ok(false);
        }
        cooling.model.repeat_step(k);
        self.metrics.cooled_quanta_batched.add(k);
        if let Some(vr) = cooling.pue_output {
            let pue = cooling.model.get_real(vr)?;
            self.state.outputs.pue.push_n(pue, k as usize);
            self.state.outputs.pue_stats.push_n(pue, k);
            self.metrics.samples_backfilled.add(k);
        }
        Ok(true)
    }

    /// Materialise the record samples a constant-power gap spans: every
    /// record boundary in `(after_s, through_s]` would have recorded the
    /// held snapshot verbatim, so push the identical samples in bulk. The
    /// boundary count is closed-form (`⌊through/r⌋ − ⌊after/r⌋`) and the
    /// record cursor is *derived* — the series length says how many
    /// boundaries have been recorded — so nothing new needs to round-trip
    /// through the snapshot serde: a save/load mid-gap resumes the
    /// backfill from the restored clock alone. Bit-identical to visiting
    /// each boundary: the recorded value is the same f64 either way (the
    /// snapshot is provably constant over the gap — the same lemma that
    /// lets the quantum recompute be skipped).
    fn backfill_records(&mut self, after_s: u64, through_s: u64) {
        let every = self.state.record_every_s;
        let k = (through_s / every - after_s / every) as usize;
        if k == 0 {
            return;
        }
        let util = self.utilization();
        self.state.outputs.system_power_w.push_n(self.derived.snapshot.system_w, k);
        self.state.outputs.loss_w.push_n(self.derived.snapshot.loss_w, k);
        self.state.outputs.utilization.push_n(util, k);
        self.state.outputs.efficiency.push_n(self.derived.snapshot.efficiency, k);
        // 4 channels materialised k samples each without visiting a
        // boundary (the pue channel counts at its own push_n site).
        self.metrics.samples_backfilled.add(4 * k as u64);
    }

    /// Account `seconds` of steady state (no events): energy integrates
    /// in closed form over the constant-power interval and the per-second
    /// statistics absorb one weighted observation per channel.
    fn account_steady(&mut self, seconds: u64) {
        if seconds == 0 {
            return;
        }
        self.metrics.gaps_batched.inc();
        self.state.outputs.energy_j += seconds as f64 * self.derived.snapshot.system_w;
        let util = self.utilization();
        self.state.outputs.power_stats.push_n(self.derived.snapshot.system_w, seconds);
        self.state.outputs.loss_stats.push_n(self.derived.snapshot.loss_w, seconds);
        self.state.outputs.eff_stats.push_n(self.derived.snapshot.efficiency, seconds);
        self.state.outputs.util_stats.push_n(util, seconds);
        if !self.lanes.is_empty() {
            self.account_lanes_gap(seconds);
        }
    }

    /// True when every running job's utilization trace samples to exactly
    /// the values the last power recompute used — in which case a
    /// recompute would rebuild the identical snapshot (it is a pure
    /// function of the samples and the unchanged allocation state) and
    /// can be skipped.
    fn util_samples_unchanged(&self, now: u64) -> bool {
        if self.derived.variable_running == 0 {
            // Constant traces sample to the same value at any elapsed
            // time; the last recompute (forced by the start that made the
            // job running) already holds exactly those samples.
            return true;
        }
        self.state.running.iter().all(|rj| {
            let elapsed = rj.job.elapsed_at(now);
            rj.job.cpu_util.at(elapsed) == rj.last_cpu
                && rj.job.gpu_util.at(elapsed) == rj.last_gpu
        })
    }

    /// The kernel's observability counters (shared atomic handles).
    pub fn metrics(&self) -> &KernelMetrics {
        &self.metrics
    }

    /// Replace the kernel's counter handles — how a service routes the
    /// kernel's counts into its metrics registry. Counts accumulated on
    /// the old handles stay with them; attach before running. Later
    /// forks share the new handles.
    pub fn set_metrics(&mut self, metrics: KernelMetrics) {
        self.metrics = metrics;
    }

    /// Duplicate the *entire* simulation state mid-run — the snapshot/fork
    /// primitive behind twin-as-a-service what-if queries.
    ///
    /// The fork carries the clock, queues, running allocations, event
    /// calendar, accumulated outputs, and (when attached) the cooling
    /// model's internal state, so advancing it is indistinguishable from
    /// advancing the original: `fork().run_until(t + h)` is bit-identical
    /// to running the original to `t + h` (pinned by the `service_fork`
    /// golden + property tests), at cost O(horizon) instead of
    /// O(elapsed + horizon). Fails only when the cooling model does not
    /// implement [`CoSimModel::fork`].
    pub fn fork(&self) -> Result<RapsSimulation, String> {
        let cooling = match &self.cooling {
            None => None,
            Some(c) => Some(c.fork().ok_or_else(|| {
                format!("cooling model '{}' does not support forking", c.model.instance_name())
            })?),
        };
        let (state, derived) = (self.state.clone(), self.derived.clone());
        Ok(Self::assemble(state, derived, Arc::clone(&self.model), cooling, self.metrics.clone()))
    }

    /// Capture the complete simulation state as a serializable value —
    /// [`RapsSimulation::fork`] across a process boundary.
    ///
    /// The value carries the clock, queues, running allocations, event
    /// calendar, accumulated outputs, RNG-bearing series, and (when
    /// attached) the cooling model's state blob under the `cooling` key,
    /// so a simulation restored by [`RapsSimulation::from_state`] and
    /// advanced is bit-identical to the original advanced the same way
    /// (the `snapshot_roundtrip` battery). Fails only when the cooling
    /// model does not implement [`CoSimModel::save_state`].
    pub fn save_state(&self) -> Result<serde::Value, String> {
        let cooling = match &self.cooling {
            None => None,
            Some(c) => {
                let model = c.model.save_state().ok_or_else(|| {
                    format!(
                        "cooling model '{}' does not support state capture",
                        c.model.instance_name()
                    )
                })?;
                Some(CoolingState { num_cdus: c.cdu_inputs.len(), model })
            }
        };
        let mut value = serde::Serialize::to_value(&self.state);
        if let serde::Value::Object(fields) = &mut value {
            fields.push(("cooling".into(), serde::Serialize::to_value(&cooling)));
        }
        Ok(value)
    }

    /// Rebuild a simulation from a [`RapsSimulation::save_state`] value.
    ///
    /// The state is checked once here, and what the kernel derives from
    /// it (the power model, node occupancy and the held power snapshot)
    /// is rebuilt in the same pass (`KernelState::derive`), so a save
    /// that cannot be run is a typed error rather than a panic or a
    /// wrong answer later. When the state carries cooling,
    /// `rebuild_cooling` maps the model's opaque blob back to a live
    /// [`CoSimModel`] — the caller knows which backend type to
    /// deserialize — and the coupling is re-attached *without* re-running
    /// `setup`, so the restored model continues from its captured
    /// internals rather than a fresh settle.
    pub fn from_state(
        value: &serde::Value,
        rebuild_cooling: impl FnOnce(&serde::Value) -> Result<Box<dyn CoSimModel>, String>,
    ) -> Result<RapsSimulation, String> {
        let invalid = |e: serde::Error| format!("invalid simulation state: {e}");
        let state = <KernelState as serde::Deserialize>::from_value(value).map_err(invalid)?;
        let cooling = value.get("cooling").unwrap_or(&serde::Value::Null);
        let cooling =
            <Option<CoolingState> as serde::Deserialize>::from_value(cooling).map_err(invalid)?;
        let (model, derived) = state
            .derive(cooling.as_ref().map(|cs| cs.num_cdus))
            .map_err(|e| format!("invalid simulation state: {e}"))?;
        let cooling = match cooling {
            None => None,
            Some(cs) => Some(CoolingCoupling::attach(rebuild_cooling(&cs.model)?, cs.num_cdus)?),
        };
        Ok(Self::assemble(state, derived, Arc::new(model), cooling, KernelMetrics::new()))
    }

    /// Swap the power model mid-run — the "what if the power system were
    /// different from *now on*" primitive behind forked delivery variants
    /// and per-fork UQ perturbations (`docs/SERVICE.md`).
    ///
    /// Only the electrical side may change: `cfg` must describe the same
    /// machine topology (node/rack counts and partitions with their GPUs
    /// per node), because running allocations and the node pool are
    /// carried over untouched. The next recompute (forced here via
    /// `power_dirty`) evaluates the held allocation state under the new
    /// model.
    pub fn set_power_model(
        &mut self,
        cfg: SystemConfig,
        delivery: PowerDelivery,
    ) -> Result<(), String> {
        if !self.same_topology(&cfg) {
            return Err("set_power_model requires an identical machine topology".into());
        }
        self.model = Arc::new(PowerModel::new(cfg.clone(), delivery));
        self.acc = self.model.new_accumulator();
        self.state.cfg = Arc::new(cfg);
        self.state.delivery = delivery;
        self.state.power_dirty = true;
        Ok(())
    }

    /// True when `cfg` describes this simulation's machine: node and rack
    /// counts, and partitions with their GPUs per node. Running
    /// allocations and the node pool carry over only onto such a machine.
    fn same_topology(&self, cfg: &SystemConfig) -> bool {
        cfg.total_nodes() == self.derived.total_nodes
            && cfg.total_racks() == self.derived.rack_capacity.len()
            && cfg.rack.nodes_per_rack == self.state.cfg.rack.nodes_per_rack
            && cfg.partitions.len() == self.state.cfg.partitions.len()
            && cfg
                .partitions
                .iter()
                .zip(&self.state.cfg.partitions)
                .all(|(a, b)| a.nodes == b.nodes && a.gpus_per_node == b.gpus_per_node)
    }

    /// Run to `horizon_s` as [`Self::run_until`] does, carrying one extra
    /// power model per `(cfg, delivery)` lane over the same schedule, and
    /// return each lane's report in lane order.
    ///
    /// Lane `i`'s report is bit-identical to [`Self::report`] of a fork
    /// that called `set_power_model(cfg_i, delivery_i)` and ran to
    /// `horizon_s`. Power never feeds back into scheduling, and whether
    /// the kernel steps or jumps depends only on the schedule, so such a
    /// fork takes the same recompute points and accounts the same seconds
    /// and gaps; each lane is recomputed and accounted at exactly those
    /// calls. Like a power model swap, the run owes a recompute (so every
    /// lane is evaluated before its first accounted second), and the
    /// lanes start from the energy and statistics held now. Refused when
    /// a cooling model is attached or a lane's machine differs.
    pub fn run_until_with_lanes(
        &mut self,
        horizon_s: u64,
        lanes: Vec<(SystemConfig, PowerDelivery)>,
    ) -> Result<Vec<RunReport>, LaneError> {
        if self.cooling.is_some() {
            return Err(LaneError::CoolingAttached);
        }
        if let Some(lane) = lanes.iter().position(|(cfg, _)| !self.same_topology(cfg)) {
            return Err(LaneError::Topology { lane });
        }
        let outputs = &self.state.outputs;
        let lanes: Vec<PowerLane> = lanes
            .into_iter()
            .map(|(cfg, delivery)| {
                let model = PowerModel::new(cfg, delivery);
                PowerLane {
                    acc: model.new_accumulator(),
                    model,
                    snapshot: PowerSnapshot::default(),
                    energy_j: outputs.energy_j,
                    power_stats: outputs.power_stats,
                    loss_stats: outputs.loss_stats,
                    eff_stats: outputs.eff_stats,
                }
            })
            .collect();
        self.metrics.power_lanes.add(lanes.len() as u64);
        self.lanes = lanes;
        self.state.power_dirty = true;
        let run = self.run_until(horizon_s);
        let lanes = std::mem::take(&mut self.lanes);
        run.expect("a power-only run cannot fail");
        Ok(lanes
            .iter()
            .map(|l| {
                let (cfg, energy_j) = (l.model.config(), l.energy_j);
                self.report_with(cfg, energy_j, l.power_stats, l.loss_stats, l.eff_stats)
            })
            .collect())
    }

    /// The node pool's free-list state (equivalence tests, diagnostics).
    pub fn pool(&self) -> &NodePool {
        &self.derived.pool
    }

    /// Sample every running job's utilization at `now` and re-derive the
    /// held snapshot, and each lane's, from the running allocations.
    fn recompute_power(&mut self, now: u64) {
        for rj in &mut self.state.running {
            let elapsed = rj.job.elapsed_at(now);
            rj.last_cpu = rj.job.cpu_util.at(elapsed);
            rj.last_gpu = rj.job.gpu_util.at(elapsed);
        }
        accumulate_allocation(&self.model, &mut self.acc, &self.state.running, &self.derived);
        self.model.evaluate_into(&self.acc, &mut self.derived.snapshot);
        if !self.lanes.is_empty() {
            self.recompute_lanes();
        }
    }

    /// Each lane's share of a recompute, from the samples just taken.
    #[cold]
    #[inline(never)]
    fn recompute_lanes(&mut self) {
        for lane in &mut self.lanes {
            accumulate_allocation(&lane.model, &mut lane.acc, &self.state.running, &self.derived);
            lane.model.evaluate_into(&lane.acc, &mut lane.snapshot);
        }
    }

    /// Each lane's share of a stepped second, the calls `step_second`
    /// and `record_second` make for the kernel's own snapshot.
    #[cold]
    #[inline(never)]
    fn account_lanes_second(&mut self) {
        for lane in &mut self.lanes {
            let p = &lane.snapshot;
            lane.energy_j += p.system_w;
            lane.power_stats.push(p.system_w);
            lane.loss_stats.push(p.loss_w);
            lane.eff_stats.push(p.efficiency);
        }
    }

    /// Each lane's share of a steady gap, the calls `account_steady`
    /// makes for the kernel's own snapshot.
    #[cold]
    #[inline(never)]
    fn account_lanes_gap(&mut self, seconds: u64) {
        for lane in &mut self.lanes {
            let p = &lane.snapshot;
            lane.energy_j += seconds as f64 * p.system_w;
            lane.power_stats.push_n(p.system_w, seconds);
            lane.loss_stats.push_n(p.loss_w, seconds);
            lane.eff_stats.push_n(p.efficiency, seconds);
        }
    }

    /// Forward the held snapshot (and `wb`) across the FMI boundary.
    /// `set_real` is idempotent, so values bit-equal to the last send are
    /// skipped — between job events only the weather can change, which
    /// makes most 15 s quanta send-free.
    fn forward_cooling_inputs(&mut self, wb: f64) -> Result<(), FmiError> {
        let Some(cooling) = &mut self.cooling else { return Ok(()) };
        for (i, &vr) in cooling.cdu_inputs.iter().enumerate() {
            let heat = self.derived.snapshot.cdu_heat_w[i];
            if heat.to_bits() != cooling.last_cdu_heat_w[i].to_bits() {
                cooling.model.set_real(vr, heat)?;
                cooling.last_cdu_heat_w[i] = heat;
            }
        }
        if wb.to_bits() != cooling.last_wet_bulb_c.to_bits() {
            cooling.model.set_real(cooling.wet_bulb_input, wb)?;
            cooling.last_wet_bulb_c = wb;
        }
        if let Some(vr) = cooling.it_power_input {
            let it_power = self.derived.snapshot.system_w;
            if it_power.to_bits() != cooling.last_it_power_w.to_bits() {
                cooling.model.set_real(vr, it_power)?;
                cooling.last_it_power_w = it_power;
            }
        }
        Ok(())
    }

    fn step_cooling(&mut self, now: u64) -> Result<(), FmiError> {
        if self.cooling.is_none() {
            return Ok(());
        }
        let wb = self.state.wet_bulb.sample_at(now as f64);
        self.forward_cooling_inputs(wb)?;
        let cooling = self.cooling.as_mut().expect("checked above");
        cooling
            .model
            .do_step((now - COOLING_PERIOD_S) as f64, COOLING_PERIOD_S as f64)?;
        if let Some(vr) = cooling.pue_output {
            let pue = cooling.model.get_real(vr)?;
            self.state.outputs.pue.push(pue);
            self.state.outputs.pue_stats.push(pue);
        }
        Ok(())
    }

    /// Build the §III-B5 run report.
    pub fn report(&self) -> RunReport {
        let o = &self.state.outputs;
        self.report_with(&self.state.cfg, o.energy_j, o.power_stats, o.loss_stats, o.eff_stats)
    }

    /// The run report with the power side — tariffs, energy, and the
    /// power, loss and efficiency statistics — taken from the arguments,
    /// so a lane reports through the same arithmetic as the kernel.
    fn report_with(
        &self,
        cfg: &SystemConfig,
        energy_j: f64,
        power_stats: Welford,
        loss_stats: Welford,
        eff_stats: Welford,
    ) -> RunReport {
        let s = &self.state;
        let secs = s.clock.elapsed();
        let hours = secs as f64 / 3600.0;
        let energy_mwh = energy_j / 3.6e9;
        let avg_power_mw = power_stats.mean() / 1e6;
        let avg_loss_mw = loss_stats.mean() / 1e6;
        let eta = eff_stats.mean();
        let costs = cfg.costs;
        RunReport {
            sim_seconds: secs,
            jobs_completed: s.completed,
            jobs_unfinished: (s.running.len() + s.pending.len() + s.future.len()) as u64,
            throughput_jobs_per_hour: if hours > 0.0 { s.completed as f64 / hours } else { 0.0 },
            avg_power_mw,
            max_power_mw: power_stats.max() / 1e6,
            total_energy_mwh: energy_mwh,
            avg_loss_mw,
            max_loss_mw: loss_stats.max() / 1e6,
            loss_percent: if avg_power_mw > 0.0 { 100.0 * avg_loss_mw / avg_power_mw } else { 0.0 },
            efficiency: eta,
            co2_tons: RunReport::co2_for(&costs, energy_mwh, eta),
            cost_usd: RunReport::cost_for(&costs, energy_mwh),
            avg_utilization: s.outputs.util_stats.mean(),
            avg_pue: if s.outputs.pue_stats.count() > 0 {
                Some(s.outputs.pue_stats.mean())
            } else {
                None
            },
            avg_wait_s: if s.outputs.wait_stats.count() > 0 {
                s.outputs.wait_stats.mean()
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn sim() -> RapsSimulation {
        RapsSimulation::new(
            SystemConfig::frontier(),
            PowerDelivery::StandardAC,
            Policy::FirstFit,
            15,
        )
    }

    #[test]
    fn idle_system_power_matches_table3() {
        let mut s = sim();
        s.run_until(60).unwrap();
        let mw = s.snapshot().system_w / 1e6;
        assert!((mw - 7.24).abs() < 0.05, "idle={mw}");
        assert_eq!(s.running_count(), 0);
    }

    #[test]
    fn single_job_lifecycle() {
        let mut s = sim();
        s.submit_jobs(vec![Job::new(1, "j", 128, 120, 10, 1.0, 1.0)]);
        s.run_until(5).unwrap();
        assert_eq!(s.running_count(), 0);
        s.run_until(15).unwrap();
        assert_eq!(s.running_count(), 1);
        assert!(s.utilization() > 0.0);
        // Job of 120 s starting at t=10 ends by t=131.
        s.run_until(135).unwrap();
        assert_eq!(s.running_count(), 0);
        let r = s.report();
        assert_eq!(r.jobs_completed, 1);
    }

    #[test]
    fn power_rises_with_running_job() {
        let mut s = sim();
        s.submit_jobs(vec![Job::new(1, "big", 4096, 600, 1, 1.0, 1.0)]);
        s.run_until(30).unwrap();
        let loaded = s.snapshot().system_w;
        // 4096 nodes at peak vs idle: +4096×2078 W DC plus losses ≈ +9 MW.
        assert!(loaded > 15.0e6, "loaded={loaded}");
        assert!(loaded < 20.0e6);
    }

    #[test]
    fn energy_accumulates() {
        let mut s = sim();
        s.run_until(3600).unwrap();
        let r = s.report();
        // One idle hour ≈ 7.24 MWh.
        assert!((r.total_energy_mwh - 7.24).abs() < 0.1, "E={}", r.total_energy_mwh);
    }

    #[test]
    fn utilization_tracks_allocation() {
        let mut s = sim();
        s.submit_jobs(vec![Job::new(1, "half", 4736, 600, 1, 0.5, 0.5)]);
        s.run_until(30).unwrap();
        assert!((s.utilization() - 0.5).abs() < 0.01);
    }

    #[test]
    fn queue_grows_when_machine_full() {
        let mut s = sim();
        s.submit_jobs(vec![
            Job::new(1, "all", 9472, 600, 1, 0.5, 0.5),
            Job::new(2, "wait", 100, 60, 2, 0.5, 0.5),
        ]);
        s.run_until(30).unwrap();
        assert_eq!(s.running_count(), 1);
        assert_eq!(s.pending_count(), 1);
    }

    #[test]
    fn report_counts_and_throughput() {
        let mut s = sim();
        let jobs: Vec<Job> =
            (0..10).map(|i| Job::new(i, format!("j{i}"), 64, 60, i * 5, 0.3, 0.6)).collect();
        s.submit_jobs(jobs);
        s.run_until(3600).unwrap();
        let r = s.report();
        assert_eq!(r.jobs_completed, 10);
        assert!((r.throughput_jobs_per_hour - 10.0).abs() < 0.5);
        assert!(r.avg_wait_s < 10.0);
    }

    #[test]
    fn outputs_recorded_at_cadence() {
        let mut s = sim();
        s.run_until(150).unwrap();
        // Recording every 15 s over 150 s: 10 samples.
        assert_eq!(s.outputs().system_power_w.len(), 10);
    }

    #[test]
    fn hpl_day_power_reaches_table3_level() {
        let mut s = sim();
        s.submit_jobs(vec![crate::workload::hpl_job(1, 1)]);
        // Run into the HPL core phase.
        s.run_until(3600).unwrap();
        let mw = s.snapshot().system_w / 1e6;
        // 9216 nodes in core phase + 256 idle ≈ 22.3 MW (Table III).
        assert!((mw - 22.3).abs() < 0.3, "hpl={mw}");
    }

    #[test]
    fn fork_mid_run_is_bit_identical_to_continuing() {
        let mut gen = crate::workload::WorkloadGenerator::new(
            crate::workload::WorkloadParams::default(),
            99,
        );
        let jobs = gen.generate_day(0);
        let mut original = sim();
        original.submit_jobs(jobs);
        original.run_until(1800).unwrap();
        let mut forked = original.fork().unwrap();
        assert_eq!(forked.now(), original.now());
        original.run_until(5400).unwrap();
        forked.run_until(5400).unwrap();
        assert_eq!(original.report(), forked.report());
        let (a, b) = (original.outputs().system_power_w.to_vec(), forked.outputs().system_power_w.to_vec());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(original.pool(), forked.pool());
    }

    #[test]
    fn fork_is_independent_of_the_original() {
        let mut s = sim();
        s.submit_jobs(vec![Job::new(1, "j", 128, 600, 5, 0.6, 0.6)]);
        s.run_until(60).unwrap();
        let mut f = s.fork().unwrap();
        // Advancing the fork (and feeding it new work) must not disturb
        // the original.
        f.submit_jobs(vec![Job::new(2, "extra", 256, 300, 70, 0.9, 0.9)]);
        f.run_until(900).unwrap();
        assert_eq!(s.now(), 60);
        assert_eq!(s.running_count(), 1);
        assert_eq!(f.report().jobs_completed, 2);
    }

    /// Each check `KernelState::derive` makes is refused when broken, one
    /// field at a time; the state a run builds passes and derives what
    /// the live simulation holds.
    #[test]
    fn validate_refuses_each_broken_invariant() {
        let series = UtilTrace::Series { quantum_s: 15, values: vec![0.2, 0.8] };
        let mut s = sim();
        s.submit_jobs(vec![
            Job::new(1, "wide", 200, 3_600, 0, 0.5, 0.5),
            Job { cpu_util: series, ..Job::new(2, "series", 64, 3_600, 0, 0.5, 0.5) },
            Job::new(3, "whole", 9_472, 600, 0, 0.5, 0.5),
            Job::new(4, "later", 64, 600, 7_200, 0.5, 0.5),
        ]);
        s.run_until(600).unwrap();
        assert_eq!((s.running_count(), s.pending_count()), (2, 1));
        let (_, derived) = s.state.derive(None).unwrap();
        assert_eq!(derived.pool, s.derived.pool);
        assert_eq!(derived.rack_allocated, s.derived.rack_allocated);
        assert_eq!(derived.rack_capacity, s.derived.rack_capacity);
        assert_eq!(
            (derived.active_nodes, derived.total_nodes, derived.variable_running),
            (s.derived.active_nodes, s.derived.total_nodes, s.derived.variable_running)
        );
        assert_eq!(derived.snapshot, s.derived.snapshot);
        // A power-model swap may not change a partition's GPUs per node.
        let mut more_gpus = SystemConfig::frontier();
        more_gpus.partitions[0].gpus_per_node = 8;
        assert!(s.set_power_model(more_gpus, PowerDelivery::StandardAC).is_err());
        // A recompute owed excuses a sample the kernel has yet to take.
        let mut owed = s.state.clone();
        (owed.running[0].last_cpu, owed.power_dirty) = (f64::NAN, true);
        assert!(owed.derive(None).is_ok());
        // running[0] is the series job on ids 200–263; the wide job holds
        // 0–199.
        assert_eq!(s.state.running[0].nodes, (200..264).collect::<Vec<u32>>());
        let early = Job::new(5, "early", 64, 600, 0, 0.5, 0.5);
        type Break = fn(&mut KernelState, &Job);
        let broken: [(&str, Break); 14] = [
            ("record_every_s", |k, _| k.record_every_s = 0),
            ("the machine needs", |k, _| Arc::make_mut(&mut k.cfg).cooling.num_cdus = 0),
            ("the machine needs", |k, _| {
                let huge = crate::config::PartitionConfig {
                    name: "huge".into(),
                    nodes: usize::MAX,
                    gpus_per_node: 0,
                };
                Arc::make_mut(&mut k.cfg).partitions.push(huge);
            }),
            ("partition 9 does not exist", |k, _| k.future[0].partition = 9),
            ("submit order", |k, early| k.future.push_back(early.clone())),
            ("node 20000, outside it", |k, _| k.running[0].nodes[0] = 20_000),
            ("node 0 is held twice", |k, _| k.running[0].nodes[0] = 0),
            ("holds 63 of its 64", |k, _| {
                k.running[0].nodes.pop();
            }),
            ("rack_counts are not", |k, _| k.running[0].rack_counts[0].0 = 999),
            ("rack_counts are not", |k, _| k.running[0].rack_counts[0].1 += 1),
            ("no completion one-shot", |k, _| k.running[0].job.wall_time_s += 1),
            ("no completion one-shot", |k, _| k.running[0].job.start_time_s = None),
            ("non-finite last sample", |k, _| k.running[1].last_gpu = f64::INFINITY),
            ("non-finite last sample", |k, _| k.running[0].last_cpu = f64::NAN),
        ];
        for (expect, breaks) in broken {
            let mut state = s.state.clone();
            breaks(&mut state, &early);
            match state.derive(None) {
                Ok(_) => panic!("a state with {expect} broken was accepted"),
                Err(e) => assert!(e.contains(expect), "{expect}: {e}"),
            }
        }
        let too_many_cdus = s.state.derive(Some(26)).map(|_| ()).unwrap_err();
        assert!(too_many_cdus.contains("26 CDU inputs"), "{too_many_cdus}");
        // A multi-partition machine's state passes too, and derives the
        // pool its allocations left.
        let mut setonix = RapsSimulation::new(
            SystemConfig::setonix_like(),
            PowerDelivery::StandardAC,
            Policy::FirstFit,
            15,
        );
        let gpu_job = Job { partition: 1, ..Job::new(6, "gpu", 100, 3_600, 0, 0.5, 0.5) };
        setonix.submit_jobs(vec![Job::new(5, "cpu", 1_000, 3_600, 0, 0.5, 0.0), gpu_job]);
        setonix.run_until(600).unwrap();
        assert_eq!(setonix.running_count(), 2);
        let (_, derived) = setonix.state.derive(None).unwrap();
        assert_eq!(derived.pool, setonix.derived.pool);
        assert_eq!(derived.snapshot, setonix.derived.snapshot);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim();
            let mut gen = crate::workload::WorkloadGenerator::new(
                crate::workload::WorkloadParams::default(),
                1234,
            );
            s.submit_jobs(gen.generate_day(0));
            s.run_until(7200).unwrap();
            (s.report(), s.outputs().system_power_w.to_vec())
        };
        let (r1, p1) = run();
        let (r2, p2) = run();
        assert_eq!(r1, r2);
        assert_eq!(p1, p2);
    }
}
