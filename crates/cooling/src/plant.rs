//! The assembled cooling plant.
//!
//! Implements the thermo-fluid physics of Fig. 5: three coupled loops —
//! the cooling-tower loop (towers → CTWP1-4 → EHX cold side), the primary
//! high-temperature-water loop (EHX hot side → HTWP1-4 → 25 CDU heat
//! exchangers), and the 25 CDU-rack secondary loops (CDU pump → 3 racks →
//! HEX-1600). Each 15 s macro step performs: control update → steady
//! hydraulic solve of each loop → thermal sub-stepping through volumes,
//! exchangers, transport delays and tower cells.

use crate::controls::ControlCommands;
use crate::spec::PlantSpec;
use exadigit_network::hydraulic::{
    BranchElement, BranchId, HydraulicNetwork, NodeId, SolverError,
};
use exadigit_network::thermal::{mass_flow, temperature_rise, StreamMixer};
use exadigit_thermo::fluid::Fluid;
use exadigit_thermo::hx::HeatExchanger;
use exadigit_thermo::pipe::{ThermalVolume, TransportDelay};
use exadigit_thermo::pump::Pump;
use exadigit_thermo::tower::CoolingTowerCell;
use exadigit_thermo::valve::ControlValve;
use exadigit_thermo::HydraulicResistance;

const G: f64 = 9.806_65;

/// Per-CDU observable state — the 11 outputs per CDU of §III-C4.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct CduState {
    /// CDU pump electrical power, W (station 14).
    pub pump_power_w: f64,
    /// CDU pump relative speed.
    pub pump_speed: f64,
    /// Primary-side flow, m³/s (station 12).
    pub primary_flow_m3s: f64,
    /// Secondary-side flow, m³/s (station 14).
    pub secondary_flow_m3s: f64,
    /// Primary supply temperature at the CDU, °C (station 12).
    pub primary_supply_temp_c: f64,
    /// Primary return temperature, °C (station 13).
    pub primary_return_temp_c: f64,
    /// Secondary supply temperature (to racks), °C (station 14).
    pub secondary_supply_temp_c: f64,
    /// Secondary return temperature (from racks), °C (station 15).
    pub secondary_return_temp_c: f64,
    /// Primary supply pressure, Pa.
    pub primary_supply_pressure_pa: f64,
    /// Primary return pressure, Pa.
    pub primary_return_pressure_pa: f64,
    /// Secondary supply pressure, Pa.
    pub secondary_supply_pressure_pa: f64,
    /// Secondary return pressure, Pa.
    pub secondary_return_pressure_pa: f64,
    /// Valve opening commanded by the control system.
    pub valve_opening: f64,
    /// Heat moved across the HEX-1600, W.
    pub hex_heat_w: f64,
}

/// Whole-plant observable state after a step.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct PlantState {
    /// Per-CDU states.
    pub cdus: Vec<CduState>,
    /// HTWP relative speed (shared by staged pumps).
    pub htwp_speed: f64,
    /// HTWPs staged on.
    pub htwp_staged: u32,
    /// Per-HTWP electrical power, W.
    pub htwp_power_w: Vec<f64>,
    /// CTWP relative speed.
    pub ctwp_speed: f64,
    /// CTWPs staged on.
    pub ctwp_staged: u32,
    /// Per-CTWP electrical power, W.
    pub ctwp_power_w: Vec<f64>,
    /// Intermediate heat exchangers staged.
    pub ehx_staged: u32,
    /// Tower cells staged.
    pub cells_staged: u32,
    /// Shared tower fan speed.
    pub fan_speed: f64,
    /// Per-cell fan power, W (length = spec.towers.cells).
    pub fan_power_w: Vec<f64>,
    /// HTW supply temperature at the data hall, °C (station 10).
    pub htws_temp_c: f64,
    /// HTW return temperature at the CEP, °C.
    pub htwr_temp_c: f64,
    /// Tower basin (cold CT water) temperature, °C.
    pub basin_temp_c: f64,
    /// Primary supply header pressure, Pa (station 10).
    pub primary_supply_pressure_pa: f64,
    /// Primary return header pressure, Pa.
    pub primary_return_pressure_pa: f64,
    /// Tower-loop supply header pressure, Pa.
    pub tower_header_pressure_pa: f64,
    /// Total primary flow, m³/s.
    pub primary_flow_m3s: f64,
    /// Total tower-loop flow, m³/s.
    pub tower_flow_m3s: f64,
    /// Total heat rejected by the towers, W.
    pub heat_rejected_w: f64,
    /// Auxiliary power: HTWPs + CTWPs + fans, W.
    pub aux_power_w: f64,
    /// CDU pump power total, W.
    pub cdu_pump_power_w: f64,
}

/// One CDU's flows over a macro step, with the flow-only quantities its
/// thermal sub-steps share.
struct CduFlows {
    mdot_sec: f64,
    mdot_prim: f64,
    /// HEX-1600 UA at these flows.
    hex_ua: f64,
    /// Sub-step decay factors of the secondary return and supply volumes.
    return_decay: f64,
    supply_decay: f64,
}

/// The plant: hydraulics + thermal state + component models.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct Plant {
    /// The generating specification.
    pub spec: PlantSpec,

    // Primary loop network.
    primary_net: HydraulicNetwork,
    primary_pump_branches: Vec<BranchId>,
    cdu_primary_branches: Vec<BranchId>,
    primary_ehx_branch: BranchId,
    primary_supply_node: NodeId,
    primary_return_node: NodeId,
    k_ehx_primary_single: f64,

    // Tower loop network.
    tower_net: HydraulicNetwork,
    tower_pump_branches: Vec<BranchId>,
    tower_ehx_branch: BranchId,
    tower_cells_branch: BranchId,
    tower_header_node: NodeId,
    k_ehx_tower_single: f64,
    k_tower_cell: f64,

    // Component models.
    primary_pump: Pump,
    tower_pump: Pump,
    cdu_pump: Pump,
    cdu_hex: HeatExchanger,
    ehx_total: HeatExchanger,
    tower_cell: CoolingTowerCell,
    /// Secondary-loop system resistance per CDU, Pa/(m³/s)².
    k_cdu_secondary: f64,

    /// Per-CDU secondary-loop blockage factor (≥ 1; multiplies the loop's
    /// hydraulic resistance). Models the biological-growth blockages of
    /// the §III-A water-quality use case.
    blockage_factor: Vec<f64>,

    // Thermal state.
    cdu_sec_supply: Vec<ThermalVolume>,
    cdu_sec_return: Vec<ThermalVolume>,
    supply_delay: TransportDelay,
    return_delay: TransportDelay,
    cep_supply_vol: ThermalVolume,
    basin: ThermalVolume,

    /// Latest observable state.
    pub state: PlantState,
}

impl Plant {
    /// Build the plant from a specification — the AutoCSM generation step.
    pub fn new(spec: PlantSpec) -> Result<Self, String> {
        spec.validate()?;
        let n_cdu = spec.num_cdus;

        // ----- Component sizing from the design point -----
        let q_prim_total = spec.primary_pumps.total_design_flow_m3s;
        let q_prim_per_pump = q_prim_total / spec.primary_pumps.count as f64;
        let primary_pump =
            Pump::from_design_point("HTWP", q_prim_per_pump, spec.primary_pumps.design_head_m, 0.84);

        let q_ct_total = spec.tower_pumps.total_design_flow_m3s;
        let q_ct_per_pump = q_ct_total / spec.tower_pumps.count as f64;
        let tower_pump =
            Pump::from_design_point("CTWP", q_ct_per_pump, spec.tower_pumps.design_head_m, 0.84);

        let cdu_pump = Pump::from_design_point(
            "CDUP",
            spec.cdu.secondary_design_flow_m3s,
            spec.cdu.secondary_design_head_m,
            0.75,
        );

        // CDU HEX sized at the mean of its two side flows.
        let mdot_sec = mass_flow(Fluid::Water, spec.cdu.secondary_design_flow_m3s, 30.0);
        let mdot_prim_cdu = mass_flow(Fluid::Water, spec.cdu.primary_design_flow_m3s, 30.0);
        let cdu_hex = HeatExchanger::from_design(
            "HEX-1600",
            spec.cdu.hex_effectiveness,
            0.5 * (mdot_sec + mdot_prim_cdu),
            Fluid::Water,
            Fluid::Water,
        );

        // Aggregate EHX bank at total loop flows.
        let mdot_prim_total = mass_flow(Fluid::Water, q_prim_total, 32.0);
        let mdot_ct_total = mass_flow(Fluid::Water, q_ct_total, 26.0);
        let ehx_total = HeatExchanger::from_design(
            "EHX-bank",
            spec.ehx.effectiveness,
            0.5 * (mdot_prim_total + mdot_ct_total),
            Fluid::Water,
            Fluid::Water,
        );

        let per_cell_mdot = mdot_ct_total / spec.towers.cells as f64;
        let tower_cell =
            CoolingTowerCell::from_design("CT-cell", per_cell_mdot, spec.towers.fan_power_rated_w);

        // ----- Primary network -----
        // Nodes: EHX outlet header -> (pumps) -> supply header -> (CDUs) ->
        // return header -> (EHX hot side, aggregate) -> EHX outlet header.
        let rho_g = 998.0 * G;
        let head_pa = spec.primary_pumps.design_head_m * rho_g;
        let dp_ehx_prim = 0.30 * head_pa;
        let dp_cdu_branch = 0.70 * head_pa;
        let q_cdu_prim = spec.cdu.primary_design_flow_m3s;

        let mut primary_net = HydraulicNetwork::new();
        let ehx_out = primary_net.add_node("ehx_outlet_header");
        let supply = primary_net.add_node("htw_supply_header");
        let ret = primary_net.add_node("htw_return_header");
        primary_net.set_reference(ehx_out, 120_000.0); // loop static pressure

        let mut primary_pump_branches = Vec::with_capacity(spec.primary_pumps.count);
        for i in 0..spec.primary_pumps.count {
            let speed = if (i as u32) < spec.primary_pumps.initial_staged { 0.85 } else { 0.0 };
            let b = primary_net.add_branch(
                format!("HTWP{}", i + 1),
                ehx_out,
                supply,
                vec![
                    BranchElement::Pump { pump: primary_pump.clone(), speed },
                    BranchElement::CheckValve { k_forward: 0.02 * head_pa / (q_prim_per_pump * q_prim_per_pump), k_reverse: 1e13 },
                ],
            );
            primary_net.set_initial_flow(b, q_prim_per_pump * 0.8);
            primary_pump_branches.push(b);
        }
        let mut cdu_primary_branches = Vec::with_capacity(n_cdu);
        for i in 0..n_cdu {
            // 40 % of the branch budget across the control valve at design,
            // the rest in the HEX primary side and piping.
            let valve = ControlValve::from_design(
                format!("CDU{}.valve", i + 1),
                q_cdu_prim,
                0.4 * dp_cdu_branch,
            );
            let fixed = HydraulicResistance::from_design(q_cdu_prim, 0.6 * dp_cdu_branch);
            let b = primary_net.add_branch(
                format!("CDU{}.primary", i + 1),
                supply,
                ret,
                vec![BranchElement::Valve(valve), BranchElement::Resistance(fixed)],
            );
            primary_net.set_initial_flow(b, q_cdu_prim);
            cdu_primary_branches.push(b);
        }
        let k_ehx_primary_single = {
            let q_unit = q_prim_total / spec.ehx.count as f64;
            dp_ehx_prim / (q_unit * q_unit)
        };
        let initial_ehx = spec.ehx.count as f64; // all staged at start
        let primary_ehx_branch = primary_net.add_branch(
            "EHX.hot_side",
            ret,
            ehx_out,
            vec![BranchElement::Resistance(HydraulicResistance {
                k: k_ehx_primary_single / (initial_ehx * initial_ehx),
            })],
        );
        primary_net.set_initial_flow(primary_ehx_branch, q_prim_total * 0.8);

        // ----- Tower network -----
        // Nodes: basin header -> (pumps) -> tower supply header -> (EHX
        // cold side) -> hot header -> (tower cells) -> basin header.
        let head_ct_pa = spec.tower_pumps.design_head_m * rho_g;
        let dp_ehx_ct = 0.40 * head_ct_pa;
        let dp_cells = 0.60 * head_ct_pa;

        let mut tower_net = HydraulicNetwork::new();
        let basin_node = tower_net.add_node("basin_header");
        let ct_supply = tower_net.add_node("ctw_supply_header");
        let ct_hot = tower_net.add_node("ctw_hot_header");
        tower_net.set_reference(basin_node, 110_000.0);

        let mut tower_pump_branches = Vec::with_capacity(spec.tower_pumps.count);
        for i in 0..spec.tower_pumps.count {
            let speed = if (i as u32) < spec.tower_pumps.initial_staged { 0.85 } else { 0.0 };
            let b = tower_net.add_branch(
                format!("CTWP{}", i + 1),
                basin_node,
                ct_supply,
                vec![
                    BranchElement::Pump { pump: tower_pump.clone(), speed },
                    BranchElement::CheckValve { k_forward: 0.02 * head_ct_pa / (q_ct_per_pump * q_ct_per_pump), k_reverse: 1e13 },
                ],
            );
            tower_net.set_initial_flow(b, q_ct_per_pump * 0.8);
            tower_pump_branches.push(b);
        }
        let k_ehx_tower_single = {
            let q_unit = q_ct_total / spec.ehx.count as f64;
            dp_ehx_ct / (q_unit * q_unit)
        };
        let tower_ehx_branch = tower_net.add_branch(
            "EHX.cold_side",
            ct_supply,
            ct_hot,
            vec![BranchElement::Resistance(HydraulicResistance {
                k: k_ehx_tower_single / (initial_ehx * initial_ehx),
            })],
        );
        tower_net.set_initial_flow(tower_ehx_branch, q_ct_total * 0.8);
        let k_tower_cell = {
            let q_cell = q_ct_total / spec.towers.cells as f64;
            dp_cells / (q_cell * q_cell)
        };
        let n0 = spec.towers.initial_staged as f64;
        let tower_cells_branch = tower_net.add_branch(
            "CT.cells",
            ct_hot,
            basin_node,
            vec![BranchElement::Resistance(HydraulicResistance {
                k: k_tower_cell / (n0 * n0),
            })],
        );
        tower_net.set_initial_flow(tower_cells_branch, q_ct_total * 0.8);

        // ----- Secondary loop resistance -----
        let q_sec = spec.cdu.secondary_design_flow_m3s;
        let k_cdu_secondary = spec.cdu.secondary_design_head_m * rho_g / (q_sec * q_sec);

        // ----- Thermal state -----
        let t_sec0 = spec.cdu.supply_setpoint_c;
        let t_prim0 = t_sec0 - 3.0;
        let t_ct0 = spec.towers.basin_setpoint_c;
        let cdu_sec_supply = (0..n_cdu)
            .map(|_| ThermalVolume::new(spec.cdu.loop_volume_kg * 0.5, Fluid::Water, t_sec0))
            .collect();
        let cdu_sec_return = (0..n_cdu)
            .map(|_| ThermalVolume::new(spec.cdu.loop_volume_kg * 0.5, Fluid::Water, t_sec0 + 6.0))
            .collect();
        let supply_delay = TransportDelay::new(spec.piping.supply_volume_m3, t_prim0);
        let return_delay = TransportDelay::new(spec.piping.return_volume_m3, t_prim0 + 8.0);
        let cep_supply_vol = ThermalVolume::new(4_000.0, Fluid::Water, t_prim0);
        let basin =
            ThermalVolume::new(spec.piping.basin_volume_m3 * 998.0, Fluid::Water, t_ct0);

        let mut state = PlantState {
            cdus: vec![CduState::default(); n_cdu],
            htwp_speed: 0.85,
            htwp_staged: spec.primary_pumps.initial_staged,
            htwp_power_w: vec![0.0; spec.primary_pumps.count],
            ctwp_speed: 0.85,
            ctwp_staged: spec.tower_pumps.initial_staged,
            ctwp_power_w: vec![0.0; spec.tower_pumps.count],
            ehx_staged: spec.ehx.count as u32,
            cells_staged: spec.towers.initial_staged,
            fan_speed: 0.6,
            fan_power_w: vec![0.0; spec.towers.cells],
            htws_temp_c: t_prim0,
            htwr_temp_c: t_prim0 + 8.0,
            basin_temp_c: t_ct0,
            primary_supply_pressure_pa: spec.primary_pressure_setpoint_pa,
            tower_header_pressure_pa: spec.tower_pressure_setpoint_pa,
            ..Default::default()
        };
        for (i, cdu) in state.cdus.iter_mut().enumerate() {
            let _ = i;
            cdu.pump_speed = 0.9;
            cdu.valve_opening = 0.7;
            cdu.secondary_supply_temp_c = t_sec0;
            cdu.secondary_return_temp_c = t_sec0 + 6.0;
            cdu.primary_supply_temp_c = t_prim0;
            cdu.primary_return_temp_c = t_prim0 + 8.0;
        }

        Ok(Plant {
            spec,
            primary_net,
            primary_pump_branches,
            cdu_primary_branches,
            primary_ehx_branch,
            primary_supply_node: supply,
            primary_return_node: ret,
            k_ehx_primary_single,
            tower_net,
            tower_pump_branches,
            tower_ehx_branch,
            tower_cells_branch,
            tower_header_node: ct_supply,
            k_ehx_tower_single,
            k_tower_cell,
            primary_pump,
            tower_pump,
            cdu_pump,
            cdu_hex,
            ehx_total,
            tower_cell,
            k_cdu_secondary,
            blockage_factor: vec![1.0; n_cdu],
            cdu_sec_supply,
            cdu_sec_return,
            supply_delay,
            return_delay,
            cep_supply_vol,
            basin,
            state,
        })
    }

    /// Set the secondary-loop blockage factor of one CDU (1 = clean;
    /// larger values model fouling/biological growth restricting flow).
    pub fn set_blockage(&mut self, cdu: usize, factor: f64) {
        self.blockage_factor[cdu] = factor.max(1.0);
    }

    /// Current blockage factor of a CDU.
    pub fn blockage(&self, cdu: usize) -> f64 {
        self.blockage_factor[cdu]
    }

    /// Apply the control commands to the hydraulic elements.
    pub fn apply_commands(&mut self, cmd: &ControlCommands) {
        // Primary pumps: staged pumps share a speed, the rest stop.
        for (i, &b) in self.primary_pump_branches.iter().enumerate() {
            let speed = if (i as u32) < cmd.htwp_staged { cmd.htwp_speed } else { 0.0 };
            self.primary_net.set_pump_speed(b, speed);
        }
        // CDU valves.
        for (i, &b) in self.cdu_primary_branches.iter().enumerate() {
            self.primary_net.set_valve_opening(b, cmd.cdu_valve_opening[i]);
        }
        // EHX aggregate resistance on both loops.
        let n_ehx = cmd.ehx_staged.max(1) as f64;
        self.primary_net
            .set_resistance(self.primary_ehx_branch, self.k_ehx_primary_single / (n_ehx * n_ehx));
        self.tower_net
            .set_resistance(self.tower_ehx_branch, self.k_ehx_tower_single / (n_ehx * n_ehx));
        // Tower pumps and cells.
        for (i, &b) in self.tower_pump_branches.iter().enumerate() {
            let speed = if (i as u32) < cmd.ctwp_staged { cmd.ctwp_speed } else { 0.0 };
            self.tower_net.set_pump_speed(b, speed);
        }
        let n_cells = cmd.cells_staged.max(1) as f64;
        self.tower_net
            .set_resistance(self.tower_cells_branch, self.k_tower_cell / (n_cells * n_cells));

        self.state.htwp_speed = cmd.htwp_speed;
        self.state.htwp_staged = cmd.htwp_staged;
        self.state.ctwp_speed = cmd.ctwp_speed;
        self.state.ctwp_staged = cmd.ctwp_staged;
        self.state.ehx_staged = cmd.ehx_staged;
        self.state.cells_staged = cmd.cells_staged;
        self.state.fan_speed = cmd.fan_speed;
        for (i, cdu) in self.state.cdus.iter_mut().enumerate() {
            cdu.valve_opening = cmd.cdu_valve_opening[i];
            cdu.pump_speed = cmd.cdu_pump_speed[i];
        }
    }

    /// Advance the plant by `dt_s` (the 15 s macro step) under the given
    /// per-CDU heat inputs (W) and wet-bulb temperature (°C).
    pub fn step(&mut self, cdu_heat_w: &[f64], wet_bulb_c: f64, dt_s: f64) -> Result<(), SolverError> {
        assert_eq!(cdu_heat_w.len(), self.spec.num_cdus);

        // --- Hydraulic solves (steady per step) ---
        let prim_sol = self.primary_net.solve(32.0)?;
        let ct_sol = self.tower_net.solve(26.0)?;

        let q_prim_total: f64 =
            self.cdu_primary_branches.iter().map(|&b| prim_sol.flow(b)).sum();
        let q_ct_total = ct_sol.flow(self.tower_ehx_branch);
        let p_supply = prim_sol.pressure(self.primary_supply_node);
        let p_return = prim_sol.pressure(self.primary_return_node);
        let p_ct_header = ct_sol.pressure(self.tower_header_node);

        // Pump powers; each family's pumps share one rated power.
        let htwp_rated = self.primary_pump.rated_power();
        for (i, &b) in self.primary_pump_branches.iter().enumerate() {
            let speed = if (i as u32) < self.state.htwp_staged { self.state.htwp_speed } else { 0.0 };
            self.state.htwp_power_w[i] = self.primary_pump.electrical_power_at(
                htwp_rated,
                prim_sol.flow(b).max(0.0),
                speed,
                32.0,
            );
        }
        let ctwp_rated = self.tower_pump.rated_power();
        for (i, &b) in self.tower_pump_branches.iter().enumerate() {
            let speed = if (i as u32) < self.state.ctwp_staged { self.state.ctwp_speed } else { 0.0 };
            self.state.ctwp_power_w[i] =
                self.tower_pump.electrical_power_at(ctwp_rated, ct_sol.flow(b).max(0.0), speed, 26.0);
        }

        // --- Thermal sub-stepping ---
        let substeps = (dt_s / self.spec.thermal_substep_s).ceil().max(1.0) as usize;
        let h = dt_s / substeps as f64;

        // CDU secondary loops: the analytic pump/system operating point
        // first, then everything the sub-steps need that depends only on
        // this step's flows. The second pass holds each CDU's `powf` and
        // `exp`, so the CPU overlaps them across CDUs instead of queueing
        // each behind its own CDU's operating point.
        let mut cdu_pump_total = 0.0;
        let cdu_pump_rated = self.cdu_pump.rated_power();
        for i in 0..self.spec.num_cdus {
            let speed = self.state.cdus[i].pump_speed;
            let k_eff = self.k_cdu_secondary * self.blockage_factor[i];
            let q = self.cdu_pump.operating_flow(k_eff, speed, 32.0);
            let power = self.cdu_pump.electrical_power_at(cdu_pump_rated, q, speed, 32.0);
            cdu_pump_total += power;
            let cdu = &mut self.state.cdus[i];
            cdu.secondary_flow_m3s = q;
            cdu.pump_power_w = power;
            cdu.primary_flow_m3s = prim_sol.flow(self.cdu_primary_branches[i]).max(0.0);
            cdu.primary_supply_pressure_pa = p_supply;
            cdu.primary_return_pressure_pa = p_return;
            // Secondary gauge pressures: discharge = loop drop + static.
            cdu.secondary_supply_pressure_pa = 150_000.0 + k_eff * q * q;
            cdu.secondary_return_pressure_pa = 150_000.0;
        }
        let cdu_flows: Vec<CduFlows> = self
            .state
            .cdus
            .iter()
            .zip(self.cdu_sec_return.iter().zip(&self.cdu_sec_supply))
            .map(|(cdu, (ret, sup))| {
                let mdot_sec = mass_flow(Fluid::Water, cdu.secondary_flow_m3s.max(1e-6), 32.0);
                let mdot_prim = mass_flow(Fluid::Water, cdu.primary_flow_m3s.max(1e-9), 32.0);
                let return_decay = ret.decay(mdot_sec, h);
                CduFlows {
                    mdot_sec,
                    mdot_prim,
                    hex_ua: self.cdu_hex.ua(mdot_sec, mdot_prim),
                    return_decay,
                    // The loop's two halves hold the same mass, so one factor.
                    supply_decay: if sup.mass_kg == ret.mass_kg {
                        return_decay
                    } else {
                        sup.decay(mdot_sec, h)
                    },
                }
            })
            .collect();

        let mdot_prim_total = mass_flow(Fluid::Water, q_prim_total.max(1e-6), 32.0);
        let mdot_ct_total = mass_flow(Fluid::Water, q_ct_total.max(1e-6), 26.0);
        let n_cells = self.state.cells_staged.max(1) as usize;
        let n_ehx = self.state.ehx_staged.max(1) as f64;
        // EHX bank: UA scales with the staged fraction of the bank.
        let ehx_ua =
            self.ehx_total.ua_scaled(n_ehx / self.spec.ehx.count as f64, mdot_prim_total, mdot_ct_total);
        let cep_decay = self.cep_supply_vol.decay(mdot_prim_total, h);
        let basin_decay = self.basin.decay(mdot_ct_total, h);
        // Tower cells: active cells share the loop flow.
        let per_cell = mdot_ct_total / n_cells as f64;
        let cell_ntu = self.tower_cell.ntu(per_cell, self.state.fan_speed);
        let mut heat_rejected = 0.0;

        // Each CDU's chain (racks → return volume → HEX-1600 → supply
        // volume) reads only its own volumes and the hall supply, so each
        // sub-step runs it phase by phase across all CDUs and the chains
        // overlap; only the primary-return mix is ordered.
        let mut cdu_hex = Vec::with_capacity(self.spec.num_cdus);
        let mut t_htws_hall = self.state.htws_temp_c;
        for _ in 0..substeps {
            // Primary supply reaches the data hall after the pipe delay.
            t_htws_hall = self.supply_delay.step(self.cep_supply_vol.temperature, q_prim_total, h);

            // Racks heat the secondary stream (eq. 7 inverse).
            for ((ret, sup), (f, &heat)) in self
                .cdu_sec_return
                .iter_mut()
                .zip(&self.cdu_sec_supply)
                .zip(cdu_flows.iter().zip(cdu_heat_w))
            {
                let t_rack_out = temperature_rise(Fluid::Water, sup.temperature, f.mdot_sec, heat);
                ret.step_decayed(t_rack_out, f.mdot_sec, f.return_decay);
            }

            // HEX-1600: secondary (hot) against primary (cold).
            cdu_hex.clear();
            for ((sup, ret), f) in
                self.cdu_sec_supply.iter_mut().zip(&self.cdu_sec_return).zip(&cdu_flows)
            {
                let hx = self.cdu_hex.evaluate_at_ua(
                    f.hex_ua,
                    ret.temperature,
                    f.mdot_sec,
                    t_htws_hall,
                    f.mdot_prim,
                );
                sup.step_decayed(hx.t_hot_out, f.mdot_sec, f.supply_decay);
                cdu_hex.push(hx);
            }

            // The primary returns mix, in CDU order, and travel back to
            // the CEP.
            let mut prim_return = StreamMixer::default();
            for (f, hx) in cdu_flows.iter().zip(&cdu_hex) {
                prim_return.add(f.mdot_prim, hx.t_cold_out);
            }
            let t_htwr_cep = self.return_delay.step(prim_return.temperature(), q_prim_total, h);

            // EHX bank: primary (hot) against tower water (cold).
            let ehx_res = self.ehx_total.evaluate_at_ua(
                ehx_ua,
                t_htwr_cep,
                mdot_prim_total,
                self.basin.temperature,
                mdot_ct_total,
            );
            self.cep_supply_vol.step_decayed(ehx_res.t_hot_out, mdot_prim_total, cep_decay);

            let cell_res = self.tower_cell.evaluate_at_ntu(
                cell_ntu,
                ehx_res.t_cold_out,
                per_cell,
                wet_bulb_c,
                self.state.fan_speed,
            );
            heat_rejected += cell_res.heat_rejected_w * n_cells as f64 * h;
            self.basin.step_decayed(cell_res.t_water_out, mdot_ct_total, basin_decay);

            self.state.htws_temp_c = t_htws_hall;
            self.state.htwr_temp_c = t_htwr_cep;
            self.state.basin_temp_c = self.basin.temperature;
        }

        // Each CDU's observable temperatures and heat, as of the last sub-step.
        for (((cdu, hx), sup), ret) in self
            .state
            .cdus
            .iter_mut()
            .zip(&cdu_hex)
            .zip(&self.cdu_sec_supply)
            .zip(&self.cdu_sec_return)
        {
            cdu.hex_heat_w = hx.heat_w;
            cdu.primary_supply_temp_c = t_htws_hall;
            cdu.primary_return_temp_c = hx.t_cold_out;
            cdu.secondary_supply_temp_c = sup.temperature;
            cdu.secondary_return_temp_c = ret.temperature;
        }

        // Fan powers: active cells run at the shared speed.
        let mut fan_total = 0.0;
        for (i, p) in self.state.fan_power_w.iter_mut().enumerate() {
            if i < n_cells {
                let s = self.state.fan_speed.max(self.tower_cell.min_fan_speed);
                *p = self.tower_cell.fan_power_rated * s * s * s;
            } else {
                *p = 0.0;
            }
            fan_total += *p;
        }

        self.state.primary_supply_pressure_pa = p_supply;
        self.state.primary_return_pressure_pa = p_return;
        self.state.tower_header_pressure_pa = p_ct_header;
        self.state.primary_flow_m3s = q_prim_total;
        self.state.tower_flow_m3s = q_ct_total;
        self.state.heat_rejected_w = heat_rejected / dt_s;
        self.state.cdu_pump_power_w = cdu_pump_total;
        self.state.aux_power_w = self.state.htwp_power_w.iter().sum::<f64>()
            + self.state.ctwp_power_w.iter().sum::<f64>()
            + fan_total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controls::PlantControls;

    fn settled_plant(heat_frac: f64, wet_bulb: f64, steps: usize) -> Plant {
        let spec = PlantSpec::frontier();
        let heat = spec.heat_per_cdu_w() * heat_frac;
        let heats = vec![heat; spec.num_cdus];
        let mut plant = Plant::new(spec.clone()).unwrap();
        let mut controls = PlantControls::new(&spec);
        for _ in 0..steps {
            let cmd = controls.update(&plant.state, &spec, 15.0);
            plant.apply_commands(&cmd);
            plant.step(&heats, wet_bulb, 15.0).expect("solve");
        }
        plant
    }

    #[test]
    fn plant_builds_from_frontier_spec() {
        let plant = Plant::new(PlantSpec::frontier()).unwrap();
        assert_eq!(plant.state.cdus.len(), 25);
        assert_eq!(plant.state.htwp_power_w.len(), 4);
        assert_eq!(plant.state.fan_power_w.len(), 20);
    }

    #[test]
    fn steady_state_balances_heat() {
        // At steady state the towers must reject what the racks inject.
        let plant = settled_plant(0.8, 15.0, 2_000);
        let injected = plant.spec.design_heat_w * 0.8;
        let rejected = plant.state.heat_rejected_w;
        let err = (rejected - injected).abs() / injected;
        assert!(err < 0.05, "injected {injected:.3e} rejected {rejected:.3e}");
    }

    #[test]
    fn secondary_supply_holds_setpoint_under_load() {
        let plant = settled_plant(0.7, 15.0, 2_000);
        let sp = plant.spec.cdu.supply_setpoint_c;
        for (i, cdu) in plant.state.cdus.iter().enumerate() {
            assert!(
                (cdu.secondary_supply_temp_c - sp).abs() < 1.5,
                "cdu {i}: {} vs setpoint {sp}",
                cdu.secondary_supply_temp_c
            );
        }
    }

    #[test]
    fn temperatures_ordered_along_the_chain() {
        let plant = settled_plant(0.8, 15.0, 1_500);
        let s = &plant.state;
        // Wet bulb < basin < HTW supply < HTW return < secondary return.
        assert!(s.basin_temp_c > 15.0, "basin {}", s.basin_temp_c);
        assert!(s.htws_temp_c > s.basin_temp_c, "htws {} basin {}", s.htws_temp_c, s.basin_temp_c);
        assert!(s.htwr_temp_c > s.htws_temp_c);
        let cdu = &s.cdus[0];
        assert!(cdu.secondary_return_temp_c > cdu.secondary_supply_temp_c);
        assert!(cdu.primary_return_temp_c > cdu.primary_supply_temp_c);
    }

    #[test]
    fn higher_load_raises_return_temperature() {
        let low = settled_plant(0.3, 15.0, 1_200);
        let high = settled_plant(0.9, 15.0, 1_200);
        assert!(high.state.htwr_temp_c > low.state.htwr_temp_c);
        assert!(
            high.state.cdus[0].secondary_return_temp_c
                > low.state.cdus[0].secondary_return_temp_c
        );
    }

    #[test]
    fn hot_day_needs_more_tower_effort() {
        let cool = settled_plant(0.7, 10.0, 1_500);
        let hot = settled_plant(0.7, 24.0, 1_500);
        // Hotter wet-bulb: higher basin temperature and at least as many
        // cells/fans working.
        assert!(hot.state.basin_temp_c > cool.state.basin_temp_c);
        let effort = |p: &Plant| p.state.fan_speed + p.state.cells_staged as f64 * 0.05;
        assert!(effort(&hot) >= effort(&cool) * 0.99);
    }

    #[test]
    fn aux_power_is_plausible() {
        let plant = settled_plant(0.8, 15.0, 1_200);
        // HTWPs + CTWPs + fans: hundreds of kW, not MW, for a ~27 MW plant.
        assert!(plant.state.aux_power_w > 50e3, "aux {}", plant.state.aux_power_w);
        assert!(plant.state.aux_power_w < 1.5e6, "aux {}", plant.state.aux_power_w);
        // CDU pumps: 25 × ~8.7 kW ≈ 220 kW.
        assert!((plant.state.cdu_pump_power_w - 217_500.0).abs() < 120_000.0);
    }

    #[test]
    fn flows_in_paper_band() {
        let plant = settled_plant(0.8, 15.0, 1_200);
        let gpm = |q: f64| q * 60.0 / 3.785_411_784e-3;
        // Paper: "approximately 5000-6000 gpm" per HTWP and "9000-10000
        // gpm" per CTWP; allow a generous part-load band around those.
        let prim_per_pump =
            gpm(plant.state.primary_flow_m3s) / plant.state.htwp_staged.max(1) as f64;
        let ct_per_pump =
            gpm(plant.state.tower_flow_m3s) / plant.state.ctwp_staged.max(1) as f64;
        assert!((2_500.0..8_000.0).contains(&prim_per_pump), "HTWP {prim_per_pump} gpm");
        assert!((4_000.0..13_000.0).contains(&ct_per_pump), "CTWP {ct_per_pump} gpm");
    }

    #[test]
    fn zero_load_cools_down() {
        let plant = settled_plant(0.02, 15.0, 1_500);
        // With almost no load everything drifts toward the tower floor.
        assert!(plant.state.htwr_temp_c < 40.0);
        assert!(plant.state.cells_staged <= plant.spec.towers.initial_staged + 2);
    }
}
