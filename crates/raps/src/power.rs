//! Dynamic power estimation and conversion losses.
//!
//! Implements §III-B1/B2 of the paper:
//!
//! * eq. (3): `P_node = P_CPU + 4·P_GPU + 4·P_NIC + P_RAM + 2·P_NVMe`, with
//!   CPU/GPU power linearly interpolated between idle and max by the
//!   utilization traces;
//! * eq. (1)/(2): the rectifier (η_R) and SIVOC (η_S) efficiency chain.
//!   The paper quotes flat 0.96/0.98 "within one percent of the actual
//!   value" but notes the real efficiency varies with input power, peaking
//!   at 96.3 % at 7.5 kW per rectifier and drooping 1-2 % near idle; we
//!   model that curve explicitly because the verification targets of
//!   Table III (7.24 / 22.3 / 28.2 MW) are only reachable with the
//!   load-dependent droop (see DESIGN.md §5);
//! * eq. (4): rack aggregation including 32 × 250 W switches, then CDU
//!   groups of three racks, 8.7 kW of CDU pumps each, and the system total;
//! * the §IV-3 what-if variants: smart load-sharing rectifiers (stage
//!   rectifiers so each runs near its peak-efficiency load) and direct
//!   380 V DC distribution (drop the rectification stage entirely).
//!
//! Nodes at one utilization pair share one node point (eq. (3) by
//! component plus the node's SIVOC input), so the simulation's power
//! recompute computes one point per running job and one for the idle
//! nodes, adds `count ×` each figure into the racks they occupy, and
//! [`PowerModel::evaluate_into`] writes into the held snapshot's vectors.
//! Every sum is added in the order one [`PowerModel::add_nodes`] per
//! (job, rack) pair adds it, so the recorded outputs do not move.

use crate::config::{ConversionConfig, SystemConfig};
use serde::{Deserialize, Serialize};

/// Power-delivery variant under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PowerDelivery {
    /// Baseline: all rectifiers share the chassis load equally.
    #[default]
    StandardAC,
    /// What-if 1: rectifiers are staged on as needed so each operates in
    /// its peak-efficiency region.
    SmartRectifiers,
    /// What-if 2: direct 380 V DC distribution replaces AC rectification.
    Direct380Vdc,
}

/// The rectifier + SIVOC conversion chain of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConversionModel {
    cfg: ConversionConfig,
    delivery: PowerDelivery,
}

impl ConversionModel {
    /// New chain for the given configuration and delivery variant.
    pub fn new(cfg: ConversionConfig, delivery: PowerDelivery) -> Self {
        ConversionModel { cfg, delivery }
    }

    /// The delivery variant in force.
    pub fn delivery(&self) -> PowerDelivery {
        self.delivery
    }

    /// Rectifier efficiency at `load_w` output per rectifier: piecewise
    /// quadratic peaking at `rectifier_optimal_load_w` (96.3 % @ 7.5 kW).
    pub fn rectifier_efficiency(&self, load_w: f64) -> f64 {
        let c = &self.cfg;
        let dev = load_w - c.rectifier_optimal_load_w;
        let droop =
            if dev < 0.0 { c.rectifier_droop_low } else { c.rectifier_droop_high } * dev * dev;
        (c.rectifier_peak_efficiency - droop).max(0.90)
    }

    /// SIVOC efficiency at per-node load `load_w`: rises from the idle
    /// droop to the full-load value, saturating at `sivoc_full_load_w`.
    pub fn sivoc_efficiency(&self, load_w: f64) -> f64 {
        let c = &self.cfg;
        let frac = (load_w / c.sivoc_full_load_w).clamp(0.0, 1.0);
        c.sivoc_full_load_efficiency - c.sivoc_idle_droop * (1.0 - frac)
    }

    /// SIVOC input power (380 V bus side) for one node drawing `node_w`.
    pub fn sivoc_input(&self, node_w: f64) -> f64 {
        if node_w <= 0.0 {
            return 0.0;
        }
        node_w / self.sivoc_efficiency(node_w)
    }

    /// Number of rectifiers active for a rack bus load `rack_bus_w`.
    pub fn active_rectifiers(&self, rack_bus_w: f64) -> usize {
        let n_total = self.cfg.rectifiers_per_rack;
        match self.delivery {
            PowerDelivery::SmartRectifiers => {
                let needed = (rack_bus_w / self.cfg.rectifier_optimal_load_w).ceil() as usize;
                needed.clamp(1, n_total)
            }
            _ => n_total,
        }
    }

    /// Rack AC input power for a rack whose DC bus (rectifier output)
    /// carries `rack_bus_w` — i.e. the sum of SIVOC inputs of its nodes.
    pub fn rack_ac_input(&self, rack_bus_w: f64) -> f64 {
        if rack_bus_w <= 0.0 {
            return 0.0;
        }
        match self.delivery {
            PowerDelivery::Direct380Vdc => rack_bus_w / self.cfg.dc380_distribution_efficiency,
            _ => {
                let n = self.active_rectifiers(rack_bus_w);
                let per_rect = rack_bus_w / n as f64;
                rack_bus_w / self.rectifier_efficiency(per_rect)
            }
        }
    }
}

/// Per-component DC power accumulator, plus per-rack bus loads. Filled by
/// the simulation each power recompute, then evaluated into a
/// [`PowerSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerAccumulator {
    /// Rectifier-output (380 V bus) load per rack, W.
    pub rack_bus_w: Vec<f64>,
    /// Node DC (48 V side) load per rack, W.
    pub rack_node_dc_w: Vec<f64>,
    /// Component breakdown (node DC side), W.
    pub cpu_w: f64,
    /// GPU total, W.
    pub gpu_w: f64,
    /// RAM total, W.
    pub ram_w: f64,
    /// NIC total, W.
    pub nic_w: f64,
    /// NVMe total, W.
    pub nvme_w: f64,
    /// Nodes accounted (sanity check).
    pub nodes_counted: usize,
}

impl PowerAccumulator {
    fn new(racks: usize) -> Self {
        PowerAccumulator {
            rack_bus_w: vec![0.0; racks],
            rack_node_dc_w: vec![0.0; racks],
            cpu_w: 0.0,
            gpu_w: 0.0,
            ram_w: 0.0,
            nic_w: 0.0,
            nvme_w: 0.0,
            nodes_counted: 0,
        }
    }

    fn reset(&mut self) {
        self.rack_bus_w.iter_mut().for_each(|v| *v = 0.0);
        self.rack_node_dc_w.iter_mut().for_each(|v| *v = 0.0);
        self.cpu_w = 0.0;
        self.gpu_w = 0.0;
        self.ram_w = 0.0;
        self.nic_w = 0.0;
        self.nvme_w = 0.0;
        self.nodes_counted = 0;
    }

    /// Account `count` nodes at `point` on `rack`: `count ×` each figure.
    pub(crate) fn add(&mut self, rack: usize, count: usize, point: &NodePoint) {
        let n = count as f64;
        self.cpu_w += n * point.cpu_w;
        self.gpu_w += n * point.gpu_w;
        self.ram_w += n * point.ram_w;
        self.nic_w += n * point.nic_w;
        self.nvme_w += n * point.nvme_w;
        self.rack_node_dc_w[rack] += n * point.node_w;
        self.rack_bus_w[rack] += n * point.bus_w;
        self.nodes_counted += count;
    }
}

/// One node's figures at a utilization pair: the eq. (3) components, their
/// sum, and the SIVOC input that sum draws from the rack bus. Nodes at the
/// same pair share one point, so a job's point is computed once however
/// many racks it spans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodePoint {
    cpu_w: f64,
    /// All GPUs of the node together.
    gpu_w: f64,
    nic_w: f64,
    ram_w: f64,
    nvme_w: f64,
    /// Node DC power (48 V side), W.
    node_w: f64,
    /// SIVOC input for `node_w` (380 V bus side), W.
    bus_w: f64,
}

/// One evaluated power state of the whole system.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerSnapshot {
    /// Total system AC power (eq. 4 summed + CDU pumps), W.
    pub system_w: f64,
    /// Node DC power (48 V side), W.
    pub node_dc_w: f64,
    /// Node AC power (after rectifier + SIVOC losses), W.
    pub node_ac_w: f64,
    /// Conversion loss `P_L` (eq. 2 aggregated), W.
    pub loss_w: f64,
    /// System conversion efficiency η_system (eq. 1 aggregated).
    pub efficiency: f64,
    /// Switch power total, W.
    pub switch_w: f64,
    /// CDU pump power total, W.
    pub cdu_pump_w: f64,
    /// AC power per rack (without switches), W.
    pub rack_ac_w: Vec<f64>,
    /// Heat delivered to each CDU's liquid loop (power × cooling
    /// efficiency), W — the input vector of the cooling model.
    pub cdu_heat_w: Vec<f64>,
    /// Component breakdown for Fig. 4 (node-DC side plus overheads).
    pub breakdown: PowerBreakdown,
}

/// Fig. 4 power-utilization breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// GPUs, W.
    pub gpus_w: f64,
    /// CPUs, W.
    pub cpus_w: f64,
    /// RAM, W.
    pub ram_w: f64,
    /// NICs, W.
    pub nics_w: f64,
    /// NVMe drives, W.
    pub nvme_w: f64,
    /// Network switches, W.
    pub switches_w: f64,
    /// Rectification + conversion losses, W.
    pub losses_w: f64,
    /// CDU pumps, W.
    pub cdu_pumps_w: f64,
}

impl PowerBreakdown {
    /// Sum of all breakdown entries (equals system power).
    pub fn total_w(&self) -> f64 {
        self.gpus_w
            + self.cpus_w
            + self.ram_w
            + self.nics_w
            + self.nvme_w
            + self.switches_w
            + self.losses_w
            + self.cdu_pumps_w
    }
}

/// The system power model: eq. (3) node power plus the conversion chain
/// and the rack/CDU/system aggregation of §III-B2.
#[derive(Debug, Clone)]
pub struct PowerModel {
    cfg: SystemConfig,
    conv: ConversionModel,
    racks: usize,
}

impl PowerModel {
    /// Model for a system configuration and delivery variant.
    pub fn new(cfg: SystemConfig, delivery: PowerDelivery) -> Self {
        let conv = ConversionModel::new(cfg.conversion, delivery);
        let racks = cfg.total_racks();
        PowerModel { cfg, conv, racks }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The conversion chain.
    pub fn conversion(&self) -> &ConversionModel {
        &self.conv
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Rack index of a node id (nodes are laid out rack-major).
    #[inline]
    pub fn rack_of_node(&self, node: usize) -> usize {
        node / self.cfg.rack.nodes_per_rack
    }

    /// CDU index of a rack.
    #[inline]
    pub fn cdu_of_rack(&self, rack: usize) -> usize {
        (rack / self.cfg.cooling.racks_per_cdu).min(self.cfg.cooling.num_cdus - 1)
    }

    /// Eq. (3): node DC power at the given utilizations with `gpus` GPUs.
    pub fn node_power(&self, cpu_util: f64, gpu_util: f64, gpus: usize) -> f64 {
        self.node_point(cpu_util, gpu_util, gpus).node_w
    }

    /// One node's [`NodePoint`] at the given utilizations with `gpus`
    /// GPUs: eq. (3) by component, and the per-node SIVOC input, because
    /// η_S depends on the individual node load.
    pub(crate) fn node_point(&self, cpu_util: f64, gpu_util: f64, gpus: usize) -> NodePoint {
        let p = &self.cfg.node_power;
        let cpu_w = p.cpu_idle_w + cpu_util.clamp(0.0, 1.0) * (p.cpu_max_w - p.cpu_idle_w);
        let gpu_w =
            (p.gpu_idle_w + gpu_util.clamp(0.0, 1.0) * (p.gpu_max_w - p.gpu_idle_w)) * gpus as f64;
        let nic_w = p.nics_per_node as f64 * p.nic_each_w;
        let nvme_w = p.nvmes_per_node as f64 * p.nvme_each_w;
        let node_w = cpu_w + gpu_w + nic_w + p.ram_w + nvme_w;
        let bus_w = self.conv.sivoc_input(node_w);
        NodePoint { cpu_w, gpu_w, nic_w, ram_w: p.ram_w, nvme_w, node_w, bus_w }
    }

    /// Fresh accumulator sized for this system.
    pub fn new_accumulator(&self) -> PowerAccumulator {
        PowerAccumulator::new(self.racks)
    }

    /// Reset an accumulator in place (reuses the rack vectors).
    pub fn reset_accumulator(&self, acc: &mut PowerAccumulator) {
        acc.reset();
    }

    /// Account `count` identical nodes on `rack` running at the given
    /// utilizations. Components are split for the Fig. 4 breakdown.
    pub fn add_nodes(
        &self,
        acc: &mut PowerAccumulator,
        rack: usize,
        count: usize,
        cpu_util: f64,
        gpu_util: f64,
        gpus: usize,
    ) {
        if count == 0 {
            return;
        }
        acc.add(rack, count, &self.node_point(cpu_util, gpu_util, gpus));
    }

    /// Evaluate the accumulated state into a full system snapshot.
    pub fn evaluate(&self, acc: &PowerAccumulator) -> PowerSnapshot {
        let mut snapshot = PowerSnapshot::default();
        self.evaluate_into(acc, &mut snapshot);
        snapshot
    }

    /// [`Self::evaluate`] into a held snapshot, reusing its rack and CDU
    /// vectors rather than allocating two per evaluation. The result is
    /// the same bit for bit.
    pub fn evaluate_into(&self, acc: &PowerAccumulator, out: &mut PowerSnapshot) {
        let rack_cfg = &self.cfg.rack;
        let cool = &self.cfg.cooling;

        let mut rack_ac_w = std::mem::take(&mut out.rack_ac_w);
        rack_ac_w.clear();
        let mut node_ac_w = 0.0;
        for &bus in &acc.rack_bus_w {
            let ac = self.conv.rack_ac_input(bus);
            rack_ac_w.push(ac);
            node_ac_w += ac;
        }
        let node_dc_w: f64 = acc.rack_node_dc_w.iter().sum();
        let loss_w = node_ac_w - node_dc_w;

        let switch_per_rack = rack_cfg.switches_per_rack as f64 * rack_cfg.switch_power_w;
        let switch_w = switch_per_rack * self.racks as f64;
        let cdu_pump_w = cool.num_cdus as f64 * cool.cdu_pump_power_w;
        let system_w = node_ac_w + switch_w + cdu_pump_w;

        // Heat to each CDU loop: rack AC + switch power of its racks,
        // scaled by the cooling efficiency (§III-B2).
        let mut cdu_heat_w = std::mem::take(&mut out.cdu_heat_w);
        cdu_heat_w.clear();
        cdu_heat_w.resize(cool.num_cdus, 0.0);
        for (rack, &ac) in rack_ac_w.iter().enumerate() {
            let cdu = self.cdu_of_rack(rack);
            cdu_heat_w[cdu] += (ac + switch_per_rack) * cool.cooling_efficiency;
        }

        let efficiency = if node_ac_w > 0.0 { node_dc_w / node_ac_w } else { 1.0 };
        *out = PowerSnapshot {
            system_w,
            node_dc_w,
            node_ac_w,
            loss_w,
            efficiency,
            switch_w,
            cdu_pump_w,
            rack_ac_w,
            cdu_heat_w,
            breakdown: PowerBreakdown {
                gpus_w: acc.gpu_w,
                cpus_w: acc.cpu_w,
                ram_w: acc.ram_w,
                nics_w: acc.nic_w,
                nvme_w: acc.nvme_w,
                switches_w: switch_w,
                losses_w: loss_w,
                cdu_pumps_w: cdu_pump_w,
            },
        };
    }

    /// Whole-system power with every node at the same utilization — the
    /// Table III verification shortcut.
    pub fn uniform_power(&self, cpu_util: f64, gpu_util: f64) -> PowerSnapshot {
        let mut acc = self.new_accumulator();
        let mut node = 0usize;
        for part in &self.cfg.partitions {
            for _ in 0..part.nodes {
                let rack = self.rack_of_node(node);
                self.add_nodes(&mut acc, rack, 1, cpu_util, gpu_util, part.gpus_per_node);
                node += 1;
            }
        }
        self.evaluate(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frontier_model(delivery: PowerDelivery) -> PowerModel {
        PowerModel::new(SystemConfig::frontier(), delivery)
    }

    #[test]
    fn node_power_eq3_idle_and_peak() {
        let m = frontier_model(PowerDelivery::StandardAC);
        // Table I: 626 W idle and 2,704 W peak per four-GPU node.
        assert_eq!(m.node_power(0.0, 0.0, 4), 626.0);
        assert_eq!(m.node_power(1.0, 1.0, 4), 2704.0);
    }

    #[test]
    fn node_power_interpolates_linearly() {
        let m = frontier_model(PowerDelivery::StandardAC);
        // HPL core phase: GPU 79 %, CPU 33 % (paper §IV-2).
        let p = m.node_power(0.33, 0.79, 4);
        let expected = (90.0 + 0.33 * 190.0) + 4.0 * (88.0 + 0.79 * 472.0) + 80.0 + 74.0 + 30.0;
        assert!((p - expected).abs() < 1e-9);
        assert!((p - 2180.22).abs() < 0.5, "p={p}");
    }

    #[test]
    fn rectifier_curve_peaks_at_optimum() {
        let conv = ConversionModel::new(ConversionConfig::default(), PowerDelivery::StandardAC);
        let peak = conv.rectifier_efficiency(7_500.0);
        assert!((peak - 0.963).abs() < 1e-12);
        assert!(conv.rectifier_efficiency(2_500.0) < peak);
        assert!(conv.rectifier_efficiency(11_000.0) < peak);
        // "near idle the efficiency drops 1-2 %" (§IV-3).
        let droop = peak - conv.rectifier_efficiency(2_500.0);
        assert!((0.01..0.025).contains(&droop), "droop={droop}");
    }

    #[test]
    fn sivoc_efficiency_band() {
        let conv = ConversionModel::new(ConversionConfig::default(), PowerDelivery::StandardAC);
        assert!((conv.sivoc_efficiency(2_704.0) - 0.98).abs() < 1e-12);
        let idle = conv.sivoc_efficiency(626.0);
        assert!(idle < 0.98 && idle > 0.97, "idle sivoc eff {idle}");
    }

    #[test]
    fn table3_idle_power() {
        // Paper Table III: RAPS idle = 7.24 MW.
        let m = frontier_model(PowerDelivery::StandardAC);
        let snap = m.uniform_power(0.0, 0.0);
        let mw = snap.system_w / 1e6;
        assert!((mw - 7.24).abs() < 0.05, "idle = {mw} MW");
    }

    #[test]
    fn table3_peak_power() {
        // Paper Table III: RAPS peak = 28.2 MW.
        let m = frontier_model(PowerDelivery::StandardAC);
        let snap = m.uniform_power(1.0, 1.0);
        let mw = snap.system_w / 1e6;
        assert!((mw - 28.2).abs() < 0.1, "peak = {mw} MW");
    }

    #[test]
    fn system_efficiency_near_094_at_load() {
        // §III-B1: "the total system efficiency according to (1) is roughly
        // 0.94".
        let m = frontier_model(PowerDelivery::StandardAC);
        let snap = m.uniform_power(1.0, 1.0);
        assert!((snap.efficiency - 0.935).abs() < 0.01, "eff={}", snap.efficiency);
    }

    #[test]
    fn breakdown_sums_to_system_power() {
        let m = frontier_model(PowerDelivery::StandardAC);
        for (cu, gu) in [(0.0, 0.0), (0.33, 0.79), (1.0, 1.0)] {
            let snap = m.uniform_power(cu, gu);
            assert!(
                (snap.breakdown.total_w() - snap.system_w).abs() < 1.0,
                "breakdown {} vs system {}",
                snap.breakdown.total_w(),
                snap.system_w
            );
        }
    }

    #[test]
    fn fig4_gpus_dominate_at_peak() {
        let m = frontier_model(PowerDelivery::StandardAC);
        let b = m.uniform_power(1.0, 1.0).breakdown;
        // GPUs: 9472 × 4 × 560 W = 21.2 MW, by far the biggest slice.
        assert!((b.gpus_w - 21.217e6).abs() < 0.05e6, "gpus={}", b.gpus_w);
        for other in [b.cpus_w, b.ram_w, b.nics_w, b.nvme_w, b.switches_w, b.losses_w] {
            assert!(b.gpus_w > other);
        }
        // CPUs: 9472 × 280 W = 2.65 MW.
        assert!((b.cpus_w - 2.652e6).abs() < 0.01e6);
    }

    #[test]
    fn smart_rectifiers_help_most_at_idle() {
        let std = frontier_model(PowerDelivery::StandardAC).uniform_power(0.0, 0.0);
        let smart = frontier_model(PowerDelivery::SmartRectifiers).uniform_power(0.0, 0.0);
        assert!(smart.system_w < std.system_w);
        // At peak every rectifier is needed: no gain.
        let std_pk = frontier_model(PowerDelivery::StandardAC).uniform_power(1.0, 1.0);
        let smart_pk = frontier_model(PowerDelivery::SmartRectifiers).uniform_power(1.0, 1.0);
        assert!((smart_pk.system_w - std_pk.system_w).abs() < 1e3);
    }

    #[test]
    fn dc380_raises_efficiency_to_973() {
        // §IV-3: "switching the Frontier DT to direct 380V DC power ...
        // substantially increased the system efficiency from 93.3% to 97.3%".
        let m = frontier_model(PowerDelivery::Direct380Vdc);
        let snap = m.uniform_power(0.5, 0.5);
        assert!((snap.efficiency - 0.973).abs() < 0.004, "eff={}", snap.efficiency);
    }

    #[test]
    fn active_rectifier_staging() {
        let conv = ConversionModel::new(ConversionConfig::default(), PowerDelivery::SmartRectifiers);
        assert_eq!(conv.active_rectifiers(0.0), 1);
        assert_eq!(conv.active_rectifiers(7_500.0), 1);
        assert_eq!(conv.active_rectifiers(7_501.0), 2);
        assert_eq!(conv.active_rectifiers(82_000.0), 11);
        assert_eq!(conv.active_rectifiers(400_000.0), 32); // clamped
        let std = ConversionModel::new(ConversionConfig::default(), PowerDelivery::StandardAC);
        assert_eq!(std.active_rectifiers(10.0), 32);
    }

    #[test]
    fn cdu_heat_totals_track_system_power() {
        let m = frontier_model(PowerDelivery::StandardAC);
        let snap = m.uniform_power(0.8, 0.8);
        let heat: f64 = snap.cdu_heat_w.iter().sum();
        let rack_plus_switch = snap.node_ac_w + snap.switch_w;
        assert!((heat - 0.945 * rack_plus_switch).abs() < 1.0);
        assert_eq!(snap.cdu_heat_w.len(), 25);
        // Every CDU receives some heat.
        assert!(snap.cdu_heat_w.iter().all(|&h| h > 0.0));
    }

    #[test]
    fn rack_and_cdu_indexing() {
        let m = frontier_model(PowerDelivery::StandardAC);
        assert_eq!(m.rack_of_node(0), 0);
        assert_eq!(m.rack_of_node(127), 0);
        assert_eq!(m.rack_of_node(128), 1);
        assert_eq!(m.rack_of_node(9471), 73);
        assert_eq!(m.cdu_of_rack(0), 0);
        assert_eq!(m.cdu_of_rack(2), 0);
        assert_eq!(m.cdu_of_rack(3), 1);
        assert_eq!(m.cdu_of_rack(73), 24);
    }

    #[test]
    fn losses_positive_and_within_band() {
        let m = frontier_model(PowerDelivery::StandardAC);
        let snap = m.uniform_power(0.6, 0.6);
        assert!(snap.loss_w > 0.0);
        let pct = 100.0 * snap.loss_w / snap.system_w;
        // Finding 9 band: roughly 6-8 % of system power.
        assert!((4.0..9.0).contains(&pct), "loss {pct}%");
    }

    #[test]
    fn accumulator_reuse_resets_cleanly() {
        let m = frontier_model(PowerDelivery::StandardAC);
        let mut acc = m.new_accumulator();
        m.add_nodes(&mut acc, 0, 128, 1.0, 1.0, 4);
        let first = m.evaluate(&acc).node_dc_w;
        m.reset_accumulator(&mut acc);
        m.add_nodes(&mut acc, 0, 128, 1.0, 1.0, 4);
        let second = m.evaluate(&acc).node_dc_w;
        assert_eq!(first, second);
        assert_eq!(acc.nodes_counted, 128);
    }
}
