//! Hydraulic network solver.
//!
//! Reproduces the algebraic flow/pressure solve that Modelica performs for
//! the paper's plant model: given pump speeds, valve openings, and passive
//! resistances connected between junctions, find branch flows and junction
//! pressures satisfying (a) the pressure balance along every branch and
//! (b) mass conservation at every junction.
//!
//! Formulation: unknowns are all branch flows `Q_b` plus the pressures of
//! all non-reference nodes. Residuals:
//!
//! * per branch `b` from node `i` to `j`:
//!   `r_b = P_i − P_j + rise_b(Q_b) − drop_b(Q_b)`   (Pa)
//! * per non-reference node `n`:
//!   `r_n = Σ Q_in − Σ Q_out + injection_n`           (m³/s)
//!
//! solved with damped Newton–Raphson. Warm-starting from the previous time
//! step keeps the per-step cost to 2-3 iterations during replay. Element
//! constants that cannot change within a solve (a valve's resistance at
//! its opening, a pump fluid's `ρ·g` at the solve temperature) are
//! evaluated once per solve, not once per residual.
//!
//! **Bordered elimination.** The Jacobian is a diagonal block of branch
//! derivatives `∂gain_b/∂Q_b`, bordered by ±1 entries: each branch row
//! has +1/−1 in the pressure columns of its two ends, each mass-balance
//! row ±1 in the flow columns of the branches meeting at its node.
//! Eliminating the flow columns one by one touches only the (at most two)
//! mass rows a branch meets and their entries in that branch's pressure
//! columns, so what is left to factor is the (nodes − 1)² pressure block
//! (`linalg::lu_solve_in_place`), then the flows follow by back
//! substitution. For the Frontier primary loop that is a 2×2 block
//! instead of a 32×32 dense LU.
//!
//! The step is bit-identical to [`Matrix::solve`] on the assembled
//! Jacobian, because it does exactly the dense LU's non-zero arithmetic
//! in the dense LU's order:
//!
//! * while every branch diagonal is finite with `|∂gain/∂Q| ≥ 1`, the
//!   dense partial pivot on a flow column never prefers a ±1 mass-row
//!   entry (it swaps only on a strictly larger magnitude), so no row is
//!   ever exchanged outside the pressure block;
//! * every term the elimination skips has the form `x − f·0` or
//!   `x − 0·y` with finite `f`, `y`, which leaves a non-zero `x`
//!   unchanged and can at most turn `x = −0` into `+0`. The matrix
//!   entries the forward elimination skips are never `−0` (they start at
//!   `+0`, and an exact cancellation gives `+0`), so skipping them is
//!   exact. In the flow back substitution a sum is `−0` after an exactly
//!   zero branch residual (the right-hand side is `−r`), and there the
//!   dense loop's `− 0·x` terms make it `+0` as soon as one `x` has its
//!   sign bit set; the bordered step replays that rule.
//!
//! The dense solve remains the path whenever those conditions fail: a
//! branch diagonal that is non-finite or below 1 in magnitude (a pump at
//! zero flow with no series resistance), or a bordered step that is not
//! finite (the skipped `0·y` would then be NaN). Each Newton system's own
//! numbers choose the path; nothing configures it.

use crate::linalg::{lu_solve_in_place, Matrix};
use exadigit_thermo::pump::Pump;
use exadigit_thermo::valve::ControlValve;
use exadigit_thermo::HydraulicResistance;

/// Index of a junction in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct NodeId(pub usize);

/// Index of a branch in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct BranchId(pub usize);

/// A hydraulic element along a branch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum BranchElement {
    /// Passive quadratic resistance.
    Resistance(HydraulicResistance),
    /// Modulating control valve (resistance depends on opening).
    Valve(ControlValve),
    /// Centrifugal pump with a relative speed command in `[0, 1]`.
    Pump {
        /// The pump's head curve and design point.
        pump: Pump,
        /// Relative speed command in `[0, 1]` (affinity laws scale the
        /// head curve).
        speed: f64,
    },
    /// Check valve: negligible drop forward, near-blocking reverse.
    CheckValve {
        /// Forward-flow resistance, Pa/(m³/s)².
        k_forward: f64,
        /// Reverse-flow resistance (large), Pa/(m³/s)².
        k_reverse: f64,
    },
}

impl BranchElement {
    /// The element with its constants for a solve at temperature `t`
    /// (°C) evaluated.
    fn at_temperature(&self, t: f64) -> SolveElement<'_> {
        match self {
            BranchElement::Resistance(r) => SolveElement::Resistance(*r),
            BranchElement::Valve(v) => SolveElement::Resistance(v.as_resistance()),
            BranchElement::Pump { pump, speed } => {
                SolveElement::Pump { pump, speed: *speed, rho_g: pump.rho_g(t) }
            }
            BranchElement::CheckValve { k_forward, k_reverse } => {
                SolveElement::CheckValve { k_forward: *k_forward, k_reverse: *k_reverse }
            }
        }
    }
}

/// A branch element as one solve sees it: a valve is the quadratic
/// resistance of its current opening, a pump carries its fluid's `ρ·g`.
enum SolveElement<'a> {
    Resistance(HydraulicResistance),
    Pump { pump: &'a Pump, speed: f64, rho_g: f64 },
    CheckValve { k_forward: f64, k_reverse: f64 },
}

impl SolveElement<'_> {
    /// Net pressure *gain* contributed by the element at flow `q`. Pumps
    /// are positive; passive elements negative.
    fn pressure_gain(&self, q: f64) -> f64 {
        match self {
            SolveElement::Resistance(r) => -r.pressure_drop(q),
            SolveElement::Pump { pump, speed, rho_g } => {
                pump.pressure_rise_at(*rho_g, q.max(0.0), *speed)
            }
            SolveElement::CheckValve { k_forward, k_reverse } => {
                let k = if q >= 0.0 { *k_forward } else { *k_reverse };
                -k * q * q.abs()
            }
        }
    }

    /// Derivative of [`Self::pressure_gain`] with respect to flow.
    fn dgain_dflow(&self, q: f64) -> f64 {
        const Q_EPS: f64 = 1e-6;
        match self {
            SolveElement::Resistance(r) => -r.dpressure_dflow(q),
            SolveElement::Pump { pump, speed, rho_g } => {
                pump.dpressure_dflow_at(*rho_g, q.max(0.0), *speed)
            }
            SolveElement::CheckValve { k_forward, k_reverse } => {
                let k = if q >= 0.0 { *k_forward } else { *k_reverse };
                -2.0 * k * q.abs().max(Q_EPS)
            }
        }
    }
}

/// A branch: an ordered chain of elements between two junctions. Positive
/// flow runs `from → to`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Branch {
    /// Display name, e.g. `HTWP2` or `CDU13.primary`.
    pub name: String,
    /// Upstream junction for positive flow.
    pub from: NodeId,
    /// Downstream junction for positive flow.
    pub to: NodeId,
    /// Elements in series along the branch.
    pub elements: Vec<BranchElement>,
    /// Initial flow guess for cold starts, m³/s.
    pub initial_flow: f64,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Newton iteration did not meet tolerance within the iteration cap.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// The Jacobian became numerically singular (usually a disconnected
    /// node or an all-zero branch).
    SingularJacobian,
    /// Network is structurally invalid (no nodes/branches).
    EmptyNetwork,
    /// A residual went NaN (e.g. a NaN valve opening or pump speed), so
    /// convergence cannot be judged.
    NanResidual {
        /// Iterations performed.
        iterations: usize,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NotConverged { iterations, residual } => {
                write!(f, "hydraulic solve did not converge after {iterations} iterations (residual {residual:.3e})")
            }
            SolverError::SingularJacobian => write!(f, "singular hydraulic Jacobian"),
            SolverError::EmptyNetwork => write!(f, "hydraulic network has no nodes or branches"),
            SolverError::NanResidual { iterations } => {
                write!(f, "hydraulic residual is NaN after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// A converged flow/pressure state.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    flows: Vec<f64>,
    pressures: Vec<f64>,
    /// Newton iterations used (diagnostic).
    pub iterations: usize,
}

impl Solution {
    /// Flow through a branch, m³/s (positive `from → to`).
    pub fn flow(&self, b: BranchId) -> f64 {
        self.flows[b.0]
    }

    /// Pressure at a node, Pa (reference node is at the configured value).
    pub fn pressure(&self, n: NodeId) -> f64 {
        self.pressures[n.0]
    }

    /// All branch flows.
    pub fn flows(&self) -> &[f64] {
        &self.flows
    }
}

/// The hydraulic network: junctions, branches, one reference node.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HydraulicNetwork {
    node_names: Vec<String>,
    branches: Vec<Branch>,
    /// External volumetric injection per node (m³/s, positive into node).
    injections: Vec<f64>,
    /// Node whose pressure is pinned.
    reference: NodeId,
    /// Pressure at the reference node, Pa.
    reference_pressure: f64,
    /// Last solution, used as a warm start.
    warm_start: Option<(Vec<f64>, Vec<f64>)>,
}

impl Default for HydraulicNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl HydraulicNetwork {
    /// Empty network. Node 0 (the first added) is the reference by default.
    pub fn new() -> Self {
        HydraulicNetwork {
            node_names: Vec::new(),
            branches: Vec::new(),
            injections: Vec::new(),
            reference: NodeId(0),
            reference_pressure: 0.0,
            warm_start: None,
        }
    }

    /// Add a junction.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.node_names.push(name.into());
        self.injections.push(0.0);
        NodeId(self.node_names.len() - 1)
    }

    /// Add a branch of serial elements between two junctions.
    pub fn add_branch(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        elements: Vec<BranchElement>,
    ) -> BranchId {
        assert!(from.0 < self.node_names.len() && to.0 < self.node_names.len());
        assert!(from != to, "self-loop branches are not allowed");
        self.branches.push(Branch {
            name: name.into(),
            from,
            to,
            elements,
            initial_flow: 0.05,
        });
        self.warm_start = None;
        BranchId(self.branches.len() - 1)
    }

    /// Pin the reference node and its pressure (Pa).
    pub fn set_reference(&mut self, node: NodeId, pressure: f64) {
        self.reference = node;
        self.reference_pressure = pressure;
    }

    /// Set an external injection at a node (m³/s, positive into the node).
    pub fn set_injection(&mut self, node: NodeId, q: f64) {
        self.injections[node.0] = q;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Update the speed of every pump element on a branch.
    pub fn set_pump_speed(&mut self, b: BranchId, new_speed: f64) {
        for el in &mut self.branches[b.0].elements {
            if let BranchElement::Pump { speed, .. } = el {
                *speed = new_speed.clamp(0.0, 1.2);
            }
        }
    }

    /// Update the opening of every valve element on a branch.
    pub fn set_valve_opening(&mut self, b: BranchId, opening: f64) {
        for el in &mut self.branches[b.0].elements {
            if let BranchElement::Valve(v) = el {
                v.set_opening(opening);
            }
        }
    }

    /// Set the cold-start flow guess of a branch.
    pub fn set_initial_flow(&mut self, b: BranchId, q: f64) {
        self.branches[b.0].initial_flow = q;
    }

    /// Update the coefficient of every plain resistance on a branch — used
    /// for aggregate branches whose effective `k` changes with staging
    /// (e.g. `k_cell / n²` for `n` parallel tower cells).
    pub fn set_resistance(&mut self, b: BranchId, k: f64) {
        for el in &mut self.branches[b.0].elements {
            if let BranchElement::Resistance(r) = el {
                r.k = k;
            }
        }
    }

    /// Invalidate the warm start (use after topology-scale changes).
    pub fn clear_warm_start(&mut self) {
        self.warm_start = None;
    }

    /// Solve the network at fluid temperature `t` (°C).
    ///
    /// Residual scaling: pressure equations are measured in Pa (tolerance
    /// 0.5 Pa), mass balances in m³/s (tolerance 1e-8). Damped Newton with
    /// step halving; warm-started from the previous solution. A NaN
    /// residual is [`SolverError::NanResidual`], never convergence.
    pub fn solve(&mut self, t: f64) -> Result<Solution, SolverError> {
        let nb = self.branches.len();
        let nn = self.node_names.len();
        if nb == 0 || nn == 0 {
            return Err(SolverError::EmptyNetwork);
        }
        const MAX_ITERS: usize = 60;
        let sys = NewtonSystem::new(self, t);
        let np = nn - 1;
        let dim = nb + np;

        // One allocation holds the solve's work space: current and trial
        // states and residuals, the Jacobian diagonal, the Newton step and
        // the pressure block.
        let mut work = vec![0.0; 2 * (nb + nn + dim) + nb + dim + np * np];
        let mut free = work.as_mut_slice();
        let [mut q, mut p, mut q_try, mut p_try, mut r, mut r_try, diag, dx, block] =
            [nb, nn, nb, nn, dim, dim, nb, dim, np * np].map(|n| carve(&mut free, n));

        // Initial guess.
        match &self.warm_start {
            Some((wq, wp)) if wq.len() == nb && wp.len() == nn => {
                q.copy_from_slice(wq);
                p.copy_from_slice(wp);
            }
            _ => {
                for (qb, b) in q.iter_mut().zip(&self.branches) {
                    *qb = b.initial_flow;
                }
                p.fill(self.reference_pressure);
            }
        }
        p[self.reference.0] = self.reference_pressure;

        sys.residual(q, p, r);
        let mut norm = residual_norm(r, nb);
        let mut iterations = 0;

        while norm > 1.0 && iterations < MAX_ITERS {
            iterations += 1;
            for ((_, elements), (d, &qb)) in sys.branches().zip(diag.iter_mut().zip(q.iter())) {
                *d = elements.iter().map(|e| e.dgain_dflow(qb)).sum();
            }
            newton_step(diag, &sys.ends, r, block, dx)?;

            // Damped update: halve the step until the residual improves.
            let mut alpha = 1.0;
            let mut improved = false;
            for _ in 0..8 {
                sys.advance(q, p, alpha, dx, q_try, p_try);
                sys.residual(q_try, p_try, r_try);
                let norm_try = residual_norm(r_try, nb);
                if norm_try < norm {
                    std::mem::swap(&mut q, &mut q_try);
                    std::mem::swap(&mut p, &mut p_try);
                    std::mem::swap(&mut r, &mut r_try);
                    norm = norm_try;
                    improved = true;
                    break;
                }
                alpha *= 0.5;
            }
            if !improved {
                // Take the smallest step anyway to escape flat regions.
                sys.advance(q, p, alpha, dx, q_try, p_try);
                std::mem::swap(&mut q, &mut q_try);
                std::mem::swap(&mut p, &mut p_try);
                sys.residual(q, p, r);
                norm = residual_norm(r, nb);
            }
        }

        if norm.is_nan() {
            return Err(SolverError::NanResidual { iterations });
        }
        if norm > 1.0 {
            return Err(SolverError::NotConverged { iterations, residual: norm });
        }
        match &mut self.warm_start {
            Some((wq, wp)) if wq.len() == nb && wp.len() == nn => {
                wq.copy_from_slice(q);
                wp.copy_from_slice(p);
            }
            slot => *slot = Some((q.to_vec(), p.to_vec())),
        }
        Ok(Solution { flows: q.to_vec(), pressures: p.to_vec(), iterations })
    }

    /// Pressure unknown of a node: the non-reference nodes are numbered in
    /// node order; the reference node has none.
    fn unknown(&self, n: NodeId) -> Option<usize> {
        match n.0.cmp(&self.reference.0) {
            std::cmp::Ordering::Less => Some(n.0),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(n.0 - 1),
        }
    }
}

/// Split the first `n` values off `free`.
fn carve<'a>(free: &mut &'a mut [f64], n: usize) -> &'a mut [f64] {
    let (head, tail) = std::mem::take(free).split_at_mut(n);
    *free = tail;
    head
}

/// Pressure unknowns at a branch's ends (`None` at the reference node).
#[derive(Debug, Clone, Copy)]
struct Ends {
    from: Option<usize>,
    to: Option<usize>,
}

/// One solve's residual and Jacobian diagonal, with every element
/// constant of the solve evaluated once.
struct NewtonSystem<'a> {
    net: &'a HydraulicNetwork,
    /// Every branch's elements, in branch order.
    elements: Vec<SolveElement<'a>>,
    ends: Vec<Ends>,
}

impl<'a> NewtonSystem<'a> {
    fn new(net: &'a HydraulicNetwork, t: f64) -> Self {
        let mut elements = Vec::with_capacity(net.branches.iter().map(|b| b.elements.len()).sum());
        for b in &net.branches {
            elements.extend(b.elements.iter().map(|e| e.at_temperature(t)));
        }
        let ends = net
            .branches
            .iter()
            .map(|b| Ends { from: net.unknown(b.from), to: net.unknown(b.to) })
            .collect();
        NewtonSystem { net, elements, ends }
    }

    /// Each branch with its elements.
    fn branches(&self) -> impl Iterator<Item = (&'a Branch, &[SolveElement<'a>])> {
        let mut rest = self.elements.as_slice();
        self.net.branches.iter().map(move |b| {
            let (own, tail) = rest.split_at(b.elements.len());
            rest = tail;
            (b, own)
        })
    }

    /// Residuals at `(q, p)`: one pressure balance per branch, then one
    /// mass balance per non-reference node, in node order.
    fn residual(&self, q: &[f64], p: &[f64], r: &mut [f64]) {
        let nb = q.len();
        for ((b, elements), (rb, &qb)) in self.branches().zip(r.iter_mut().zip(q)) {
            let gain: f64 = elements.iter().map(|e| e.pressure_gain(qb)).sum();
            *rb = p[b.from.0] - p[b.to.0] + gain;
        }
        // Each node's balance adds its branches' flows in branch order,
        // the order that fixes the sum's rounding.
        for (n, &injection) in self.net.injections.iter().enumerate() {
            if let Some(u) = self.net.unknown(NodeId(n)) {
                r[nb + u] = injection;
            }
        }
        for (e, &qb) in self.ends.iter().zip(q) {
            if let Some(u) = e.to {
                r[nb + u] += qb;
            }
            if let Some(u) = e.from {
                r[nb + u] -= qb;
            }
        }
    }

    /// `(q, p) + alpha·dx` into `(q_out, p_out)`; the reference pressure
    /// is carried over unchanged.
    fn advance(&self, q: &[f64], p: &[f64], alpha: f64, dx: &[f64], q_out: &mut [f64], p_out: &mut [f64]) {
        let nb = q.len();
        for ((out, &qb), &d) in q_out.iter_mut().zip(q).zip(dx) {
            *out = qb + alpha * d;
        }
        for (n, (out, &pn)) in p_out.iter_mut().zip(p).enumerate() {
            *out = match self.net.unknown(NodeId(n)) {
                Some(u) => pn + alpha * dx[nb + u],
                None => pn,
            };
        }
    }
}

/// Largest residual scaled by its tolerance, NaN if any residual is NaN
/// (`f64::max` alone would drop it and read a NaN as converged).
fn residual_norm(r: &[f64], nb: usize) -> f64 {
    const P_TOL: f64 = 0.5; // Pa
    const Q_TOL: f64 = 1e-8; // m³/s
    let mut norm: f64 = 0.0;
    for (i, &v) in r.iter().enumerate() {
        let tol = if i < nb { P_TOL } else { Q_TOL };
        let scaled = v.abs() / tol;
        if scaled.is_nan() {
            return f64::NAN;
        }
        norm = norm.max(scaled);
    }
    norm
}

/// The Newton step `dx` solving `J·dx = −r` for the Jacobian with branch
/// diagonal `diag`: by bordered elimination where that is bit-identical
/// to the dense LU, by the dense LU otherwise (module docs).
fn newton_step(
    diag: &[f64],
    ends: &[Ends],
    r: &[f64],
    block: &mut [f64],
    dx: &mut [f64],
) -> Result<(), SolverError> {
    if diag.iter().all(|d| d.is_finite() && d.abs() >= 1.0) {
        if !bordered_step(diag, ends, r, block, dx) {
            return Err(SolverError::SingularJacobian);
        }
        if dx.iter().all(|v| v.is_finite()) {
            return Ok(());
        }
    }
    let neg_r: Vec<f64> = r.iter().map(|v| -v).collect();
    let np = r.len() - diag.len();
    let step = dense_jacobian(diag, ends, np).solve(&neg_r).ok_or(SolverError::SingularJacobian)?;
    dx.copy_from_slice(&step);
    Ok(())
}

/// The assembled Jacobian: branch rows (diagonal, +1 at the `from`
/// pressure, −1 at the `to` pressure), then one mass-balance row per
/// pressure unknown (+1 for each branch entering the node, −1 leaving).
fn dense_jacobian(diag: &[f64], ends: &[Ends], np: usize) -> Matrix {
    let nb = diag.len();
    let mut jac = Matrix::zeros(nb + np, nb + np);
    for (bi, (&d, e)) in diag.iter().zip(ends).enumerate() {
        jac[(bi, bi)] = d;
        if let Some(u) = e.from {
            jac[(bi, nb + u)] = 1.0;
            jac[(nb + u, bi)] -= 1.0;
        }
        if let Some(u) = e.to {
            jac[(bi, nb + u)] = -1.0;
            jac[(nb + u, bi)] += 1.0;
        }
    }
    jac
}

/// `J·dx = −r` by eliminating the flow columns first, with the dense LU's
/// arithmetic in the dense LU's order (exact while every `|diag| ≥ 1`).
/// `block` is `np²` work space for the pressure block. Returns `false` when
/// the pressure block is singular, where the dense LU fails too.
fn bordered_step(diag: &[f64], ends: &[Ends], r: &[f64], block: &mut [f64], dx: &mut [f64]) -> bool {
    let nb = diag.len();
    let np = r.len() - nb;
    for (x, v) in dx.iter_mut().zip(r) {
        *x = -v;
    }
    let (dq, dp) = dx.split_at_mut(nb);
    block.fill(0.0);

    // Flow column k holds diag[k] in branch row k and +1/−1 in the mass
    // rows of the branch's `to`/`from` nodes. Eliminating it subtracts
    // factor × branch row k from those two rows; the row's only non-zeros
    // beyond column k are +1 at its `from` and −1 at its `to` pressure,
    // and `factor·(±1)` is exactly `±factor`.
    for k in 0..nb {
        let Ends { from, to } = ends[k];
        for (row, entry) in [(to, 1.0), (from, -1.0)] {
            let Some(m) = row else { continue };
            let factor = entry / diag[k];
            if let Some(c) = from {
                block[m * np + c] -= factor;
            }
            if let Some(c) = to {
                block[m * np + c] -= -factor;
            }
            dp[m] -= factor * dq[k];
        }
    }
    if !lu_solve_in_place(block, np, dp) {
        return false;
    }

    // Back substitution of branch rows, last to first. The dense loop
    // runs over columns k+1.. in order: first the later flows (all zero
    // entries), then the pressure columns (±1 at the branch's ends, zero
    // elsewhere).
    let mut later_flow_negative = false;
    for k in (0..nb).rev() {
        let mut sum = zero_terms(dq[k], || later_flow_negative);
        let Ends { from, to } = ends[k];
        let mut links = [(from, 1.0), (to, -1.0)];
        if links[1].0 < links[0].0 {
            links.swap(0, 1);
        }
        let mut next = 0;
        for (col, entry) in links {
            let Some(c) = col else { continue };
            sum = zero_terms(sum, || dp[next..c].iter().any(|x| x.is_sign_negative()));
            sum -= entry * dp[c];
            next = c + 1;
        }
        sum = zero_terms(sum, || dp[next..].iter().any(|x| x.is_sign_negative()));
        dq[k] = sum / diag[k];
        later_flow_negative |= dq[k].is_sign_negative();
    }
    true
}

/// `sum − 0·x` over a run of a row's zero entries, as the dense back
/// substitution computes it. For finite `x` the only effect is that a
/// `−0` sum becomes `+0` when some `x` in the run has its sign bit set
/// (`x_negative`, evaluated only for a `−0` sum).
fn zero_terms(sum: f64, x_negative: impl FnOnce() -> bool) -> f64 {
    if sum == 0.0 && sum.is_sign_negative() && x_negative() {
        0.0
    } else {
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_thermo::pump::Pump;

    /// Single pump driving a single resistance in a two-node loop.
    fn simple_loop() -> (HydraulicNetwork, BranchId, BranchId) {
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let pump = Pump::from_design_point("P", 0.3, 25.0, 0.8);
        let bp = net.add_branch(
            "pump",
            a,
            b,
            vec![BranchElement::Pump { pump, speed: 1.0 }],
        );
        let br = net.add_branch(
            "load",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance::from_design(0.3, 25.0 * 997.0 * 9.80665))],
        );
        net.set_reference(a, 0.0);
        (net, bp, br)
    }

    #[test]
    fn simple_loop_operating_point() {
        let (mut net, bp, br) = simple_loop();
        let sol = net.solve(25.0).expect("must converge");
        // Pump sized for 0.3 m³/s at 25 m; load sized to drop 25 m at 0.3:
        // the operating point is exactly the design point.
        assert!((sol.flow(bp) - 0.3).abs() < 1e-3, "q={}", sol.flow(bp));
        // Loop continuity: both branches carry identical flow.
        assert!((sol.flow(bp) - sol.flow(br)).abs() < 1e-9);
    }

    #[test]
    fn mass_conserved_at_every_node() {
        let (mut net, _, _) = simple_loop();
        let sol = net.solve(25.0).unwrap();
        // Branch 0 enters node 1, branch 1 leaves node 1.
        let net_flow = sol.flows()[0] - sol.flows()[1];
        assert!(net_flow.abs() < 1e-8);
    }

    #[test]
    fn parallel_resistances_split_by_conductance() {
        // One pump feeding two parallel resistances, one 4x the other:
        // quadratic law -> flow ratio = sqrt(4) = 2.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let pump = Pump::from_design_point("P", 0.4, 30.0, 0.8);
        net.add_branch("pump", a, b, vec![BranchElement::Pump { pump, speed: 1.0 }]);
        let k = 1.0e6;
        let b1 = net.add_branch(
            "r1",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance { k })],
        );
        let b2 = net.add_branch(
            "r2",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance { k: 4.0 * k })],
        );
        let sol = net.solve(25.0).unwrap();
        let ratio = sol.flow(b1) / sol.flow(b2);
        assert!((ratio - 2.0).abs() < 1e-6, "ratio={ratio}");
    }

    #[test]
    fn pump_speed_reduces_flow() {
        let (mut net, bp, _) = simple_loop();
        let q_full = net.solve(25.0).unwrap().flow(bp);
        net.set_pump_speed(bp, 0.6);
        net.clear_warm_start();
        let q_slow = net.solve(25.0).unwrap().flow(bp);
        assert!(q_slow < q_full);
        // Affinity: flow scales ~linearly with speed for a quadratic system
        // curve.
        assert!((q_slow / q_full - 0.6).abs() < 0.05, "ratio={}", q_slow / q_full);
    }

    #[test]
    fn valve_throttles_flow() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let pump = Pump::from_design_point("P", 0.3, 25.0, 0.8);
        net.add_branch("pump", a, b, vec![BranchElement::Pump { pump, speed: 1.0 }]);
        let valve = ControlValve::from_design("V", 0.3, 60_000.0);
        let bl = net.add_branch(
            "load",
            b,
            a,
            vec![
                BranchElement::Valve(valve),
                BranchElement::Resistance(HydraulicResistance::from_design(0.3, 120_000.0)),
            ],
        );
        let q_open = net.solve(25.0).unwrap().flow(bl);
        net.set_valve_opening(bl, 0.3);
        let q_throttled = net.solve(25.0).unwrap().flow(bl);
        assert!(q_throttled < 0.6 * q_open, "open={q_open} throttled={q_throttled}");
    }

    #[test]
    fn check_valve_blocks_reverse_flow() {
        // Two pumps in parallel, one switched off with a check valve: the
        // off branch must carry (almost) no reverse flow.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let p1 = Pump::from_design_point("P1", 0.3, 25.0, 0.8);
        let p2 = Pump::from_design_point("P2", 0.3, 25.0, 0.8);
        net.add_branch("pump1", a, b, vec![BranchElement::Pump { pump: p1, speed: 1.0 }]);
        let off = net.add_branch(
            "pump2",
            a,
            b,
            vec![
                BranchElement::Pump { pump: p2, speed: 0.0 },
                BranchElement::CheckValve { k_forward: 1e3, k_reverse: 1e12 },
            ],
        );
        net.add_branch(
            "load",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance::from_design(0.3, 200_000.0))],
        );
        let sol = net.solve(25.0).unwrap();
        assert!(sol.flow(off).abs() < 1e-3, "reverse flow {}", sol.flow(off));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let (mut net, _, _) = simple_loop();
        let cold = net.solve(25.0).unwrap().iterations;
        let warm = net.solve(25.0).unwrap().iterations;
        assert!(warm <= cold, "warm={warm} cold={cold}");
    }

    #[test]
    fn empty_network_is_an_error() {
        let mut net = HydraulicNetwork::new();
        assert_eq!(net.solve(25.0), Err(SolverError::EmptyNetwork));
    }

    #[test]
    fn injection_balances_at_node() {
        // Straight pipe between two nodes with injection at one end and the
        // reference absorbing it.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("in");
        let b = net.add_node("out");
        let br = net.add_branch(
            "pipe",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance::from_design(0.1, 10_000.0))],
        );
        net.set_reference(b, 0.0);
        net.set_injection(a, 0.07);
        let sol = net.solve(25.0).unwrap();
        assert!((sol.flow(br) - 0.07).abs() < 1e-8);
        // Pressure at the injection node must be positive (driving flow).
        assert!(sol.pressure(a) > 0.0);
    }

    #[test]
    fn frontier_scale_parallel_network_converges() {
        // 4 pumps in parallel into a header feeding 25 parallel CDU
        // branches — the primary-loop shape from Fig. 5 of the paper.
        let mut net = HydraulicNetwork::new();
        let supply = net.add_node("supply_header");
        let ret = net.add_node("return_header");
        for i in 0..4 {
            let p = Pump::from_design_point(format!("HTWP{i}"), 0.1, 35.0, 0.82);
            net.add_branch(
                format!("htwp{i}"),
                ret,
                supply,
                vec![
                    BranchElement::Pump { pump: p, speed: 0.9 },
                    BranchElement::CheckValve { k_forward: 1e3, k_reverse: 1e12 },
                ],
            );
        }
        let mut cdu_branches = Vec::new();
        for i in 0..25 {
            let valve = ControlValve::from_design(format!("V{i}"), 0.015, 40_000.0);
            let b = net.add_branch(
                format!("cdu{i}"),
                supply,
                ret,
                vec![
                    BranchElement::Valve(valve),
                    BranchElement::Resistance(HydraulicResistance::from_design(0.015, 80_000.0)),
                ],
            );
            cdu_branches.push(b);
        }
        let sol = net.solve(30.0).expect("Frontier-scale network must converge");
        // All CDU branches identical -> equal flows.
        let q0 = sol.flow(cdu_branches[0]);
        assert!(q0 > 0.0);
        for &b in &cdu_branches[1..] {
            assert!((sol.flow(b) - q0).abs() < 1e-9);
        }
        // Total pump flow equals total CDU flow.
        let pump_total: f64 = (0..4).map(|i| sol.flows()[i]).sum();
        let cdu_total: f64 = cdu_branches.iter().map(|&b| sol.flow(b)).sum();
        assert!((pump_total - cdu_total).abs() < 1e-7);
    }

    #[test]
    fn two_branch_split_obeys_quadratic_law() {
        // Pump into a 2-way split with k2 = 9·k1. Quadratic resistances
        // share a common ΔP, so q1/q2 = sqrt(k2/k1) = 3 and the pump flow
        // equals the sum of the leg flows exactly.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        net.set_reference(a, 100_000.0);
        let pump = Pump::from_design_point("P", 0.2, 28.0, 0.8);
        let bp = net.add_branch("pump", b, a, vec![BranchElement::Pump { pump, speed: 1.0 }]);
        let k = 2.0e6;
        let b1 = net.add_branch(
            "leg1",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance { k })],
        );
        let b2 = net.add_branch(
            "leg2",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance { k: 9.0 * k })],
        );
        let sol = net.solve(25.0).expect("2-branch split must converge");
        let (qp, q1, q2) = (sol.flow(bp), sol.flow(b1), sol.flow(b2));
        assert!(qp > 0.0 && q1 > 0.0 && q2 > 0.0);
        assert!((q1 + q2 - qp).abs() < 1e-8, "split total {} vs pump {qp}", q1 + q2);
        // Tolerance is bounded by the solver's Q_TOL (1e-8 m³/s) on each
        // leg flow, not machine epsilon.
        assert!((q1 / q2 - 3.0).abs() < 1e-4, "split ratio {}", q1 / q2);
    }

    #[test]
    fn mass_conserved_at_interior_junction() {
        // Y-network with a true interior junction: pump → header m, then
        // two legs m → return. Conservation must hold at m, which is
        // neither the reference node nor a simple 2-branch loop node.
        let mut net = HydraulicNetwork::new();
        let ret = net.add_node("return");
        let m = net.add_node("header");
        net.set_reference(ret, 0.0);
        let pump = Pump::from_design_point("P", 0.25, 22.0, 0.8);
        let feed = net.add_branch(
            "feed",
            ret,
            m,
            vec![
                BranchElement::Pump { pump, speed: 1.0 },
                BranchElement::Resistance(HydraulicResistance { k: 5.0e5 }),
            ],
        );
        let l1 = net.add_branch(
            "leg1",
            m,
            ret,
            vec![BranchElement::Resistance(HydraulicResistance { k: 1.5e6 })],
        );
        let l2 = net.add_branch(
            "leg2",
            m,
            ret,
            vec![BranchElement::Resistance(HydraulicResistance { k: 4.0e6 })],
        );
        let sol = net.solve(25.0).expect("Y-network must converge");
        let into_m = sol.flow(feed);
        let out_of_m = sol.flow(l1) + sol.flow(l2);
        assert!(into_m > 0.0);
        assert!((into_m - out_of_m).abs() < 1e-8, "junction imbalance {}", into_m - out_of_m);
        // Header pressure sits between reference and pump discharge.
        assert!(sol.pressure(m) > sol.pressure(ret));
    }

    #[test]
    fn degenerate_single_pipe_converges_to_rest() {
        // A single passive pipe with no pump and no injection is the
        // degenerate case: the unique solution is zero flow with the
        // far node settling at the reference pressure. The damped Newton
        // must converge (and quickly) rather than stall on the flat
        // quadratic around q = 0.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.set_reference(a, 50_000.0);
        let pipe = net.add_branch(
            "pipe",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance { k: 1.0e6 })],
        );
        let sol = net.solve(25.0).expect("degenerate single pipe must converge");
        assert!(sol.flow(pipe).abs() < 1e-7, "rest flow {}", sol.flow(pipe));
        assert!((sol.pressure(b) - 50_000.0).abs() < 1.0, "p_b {}", sol.pressure(b));
        assert!(sol.iterations <= 50, "took {} iterations", sol.iterations);
    }

    #[test]
    fn closing_one_valve_redistributes_flow() {
        let mut net = HydraulicNetwork::new();
        let supply = net.add_node("s");
        let ret = net.add_node("r");
        let p = Pump::from_design_point("P", 0.4, 30.0, 0.82);
        net.add_branch("pump", ret, supply, vec![BranchElement::Pump { pump: p, speed: 1.0 }]);
        let mut branches = Vec::new();
        for i in 0..3 {
            let valve = ControlValve::from_design(format!("V{i}"), 0.13, 50_000.0);
            branches.push(net.add_branch(
                format!("leg{i}"),
                supply,
                ret,
                vec![BranchElement::Valve(valve)],
            ));
        }
        let before = net.solve(25.0).unwrap();
        let q_before: Vec<f64> = branches.iter().map(|&b| before.flow(b)).collect();
        net.set_valve_opening(branches[0], 0.15);
        let after = net.solve(25.0).unwrap();
        // Throttled leg drops, the others pick up.
        assert!(after.flow(branches[0]) < q_before[0]);
        assert!(after.flow(branches[1]) > q_before[1]);
        assert!(after.flow(branches[2]) > q_before[2]);
    }

    #[test]
    fn nan_valve_opening_is_an_error_not_convergence() {
        // A NaN opening makes every residual touching the valve NaN. The
        // scaled max norm used to drop NaN, so a warm-started solve read
        // the remaining rows, found them converged and returned the stale
        // flows after 0 iterations.
        let mut net = HydraulicNetwork::new();
        let s = net.add_node("s");
        let r = net.add_node("r");
        let p = Pump::from_design_point("P", 0.3, 25.0, 0.8);
        net.add_branch("pump", r, s, vec![BranchElement::Pump { pump: p, speed: 1.0 }]);
        let leg = net.add_branch(
            "leg",
            s,
            r,
            vec![BranchElement::Valve(ControlValve::from_design("V", 0.3, 60_000.0))],
        );
        net.solve(25.0).expect("clean solve");
        net.set_valve_opening(leg, f64::NAN);
        assert_eq!(net.solve(25.0), Err(SolverError::NanResidual { iterations: 0 }));
        // A finite opening recovers from the kept warm start.
        net.set_valve_opening(leg, 0.8);
        assert!(net.solve(25.0).is_ok());
    }

    /// Which path a random Newton system took and what it exercised.
    #[derive(Default)]
    struct StepCoverage {
        bordered: usize,
        fallback: usize,
        /// Bordered steps that match the dense LU only through the
        /// zero-term rule.
        signed_zero: usize,
    }

    /// A random network of 2–6 nodes (a chain through every node plus
    /// random extra branches, a random reference node) carrying mixed
    /// pumps, valves, resistances and check valves, at random flows and
    /// pressures. Some resistances are small enough, and some pumps sit at
    /// zero flow, so that branch diagonals fall below 1; some seeds zero
    /// one or every residual row exactly.
    fn random_system(seed: u64) -> (HydraulicNetwork, Vec<f64>, Vec<f64>, usize) {
        let mut rng = exadigit_sim::Rng::new(seed);
        let nn = 2 + rng.uniform_usize(5);
        let mut net = HydraulicNetwork::new();
        let nodes: Vec<NodeId> = (0..nn).map(|i| net.add_node(format!("n{i}"))).collect();
        net.set_reference(nodes[rng.uniform_usize(nn)], rng.uniform_range(0.0, 2.0e5));
        let nb = nn - 1 + rng.uniform_usize(2 * nn);
        for bi in 0..nb {
            let (from, to) = if bi + 1 < nn {
                (bi, bi + 1)
            } else {
                let a = rng.uniform_usize(nn);
                (a, (a + 1 + rng.uniform_usize(nn - 1)) % nn)
            };
            let elements = (0..1 + rng.uniform_usize(3))
                .map(|_| match rng.uniform_usize(4) {
                    0 => BranchElement::Pump {
                        pump: Pump::from_design_point("P", rng.uniform_range(0.05, 0.5), 30.0, 0.8),
                        speed: if rng.chance(0.3) { 0.0 } else { rng.uniform_range(0.3, 1.0) },
                    },
                    1 => {
                        let mut v = ControlValve::from_design("V", 0.1, rng.uniform_range(1e3, 1e5));
                        v.set_opening(rng.uniform());
                        BranchElement::Valve(v)
                    }
                    2 => BranchElement::Resistance(HydraulicResistance {
                        k: 10f64.powf(rng.uniform_range(2.0, 8.0)),
                    }),
                    _ => BranchElement::CheckValve { k_forward: 1e3, k_reverse: 1e12 },
                })
                .collect();
            net.add_branch(format!("b{bi}"), nodes[from], nodes[to], elements);
        }
        for n in &nodes {
            if rng.chance(0.3) {
                net.set_injection(*n, rng.uniform_range(-0.1, 0.1));
            }
        }
        let q = (0..nb)
            .map(|_| if rng.chance(0.2) { 0.0 } else { rng.uniform_range(-0.5, 0.5) })
            .collect();
        let p = (0..nn).map(|_| rng.uniform_range(0.0, 3.0e5)).collect();
        let zeroed = match rng.uniform_usize(4) {
            0 => usize::MAX, // every row
            1 => rng.uniform_usize(nb + nn - 1),
            _ => nb + nn, // none
        };
        (net, q, p, zeroed)
    }

    /// The Newton step of `random_system(seed)` must equal the dense LU's
    /// to the bit, on whichever path `newton_step` takes.
    fn check_step(seed: u64, coverage: &mut StepCoverage) -> Result<(), String> {
        let (net, q, p, zeroed) = random_system(seed);
        let sys = NewtonSystem::new(&net, 25.0);
        let nb = q.len();
        let np = net.node_count() - 1;
        let mut r = vec![0.0; nb + np];
        sys.residual(&q, &p, &mut r);
        for (i, ri) in r.iter_mut().enumerate() {
            if zeroed == usize::MAX || zeroed == i {
                *ri = 0.0;
            }
        }
        let diag: Vec<f64> = sys
            .branches()
            .zip(&q)
            .map(|((_, elements), &qb)| elements.iter().map(|e| e.dgain_dflow(qb)).sum())
            .collect();
        let neg_r: Vec<f64> = r.iter().map(|v| -v).collect();
        let dense = dense_jacobian(&diag, &sys.ends, np).solve(&neg_r);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut block = vec![0.0; np * np];
        let mut dx = vec![0.0; nb + np];
        let stepped = newton_step(&diag, &sys.ends, &r, &mut block, &mut dx);
        match (&dense, stepped) {
            (None, Err(SolverError::SingularJacobian)) => {}
            (Some(x), Ok(())) if bits(x) == bits(&dx) => {}
            (d, s) => return Err(format!("seed {seed}: dense {d:?} vs step {s:?} {dx:?}")),
        }

        if diag.iter().all(|d| d.is_finite() && d.abs() >= 1.0) {
            coverage.bordered += 1;
            let solved = bordered_step(&diag, &sys.ends, &r, &mut block, &mut dx);
            let Some(x) = dense else {
                return if solved { Err(format!("seed {seed}: dense singular, bordered not")) } else { Ok(()) };
            };
            if !solved || bits(&x) != bits(&dx) {
                return Err(format!("seed {seed}: bordered {dx:?} vs dense {x:?}"));
            }
            // Where the back substitution without the zero-term rule (only
            // the ±1 pressure terms) differs, the rule made the match.
            let flipped = (0..nb).any(|k| {
                let e = sys.ends[k];
                let mut links = [(e.from, 1.0), (e.to, -1.0)];
                if links[1].0 < links[0].0 {
                    links.swap(0, 1);
                }
                let mut sum = -r[k];
                for (u, entry) in links.iter().filter_map(|&(u, c)| u.map(|u| (u, c))) {
                    sum -= entry * dx[nb + u];
                }
                (sum / diag[k]).to_bits() != dx[k].to_bits()
            });
            coverage.signed_zero += usize::from(flipped);
        } else {
            coverage.fallback += 1;
        }
        Ok(())
    }

    #[test]
    fn random_systems_cover_both_paths_and_signed_zeros() {
        let mut coverage = StepCoverage::default();
        for seed in 0..600 {
            check_step(seed, &mut coverage).unwrap();
        }
        assert!(coverage.bordered >= 100, "bordered path ran {} times", coverage.bordered);
        assert!(coverage.fallback >= 100, "dense fallback ran {} times", coverage.fallback);
        assert!(coverage.signed_zero >= 5, "zero-term rule mattered {} times", coverage.signed_zero);
    }

    proptest::proptest! {
        /// The bordered Newton step and the dense LU agree to the bit on
        /// random networks: both paths, exactly-zero residual rows, and
        /// singular systems (both must refuse).
        #[test]
        fn bordered_step_matches_dense_lu_bit_for_bit(seed in 0u64..1_000_000) {
            let mut coverage = StepCoverage::default();
            proptest::prop_assert!(check_step(seed, &mut coverage).is_ok(), "{:?}", check_step(seed, &mut coverage));
        }
    }
}
