//! Scene graph — the descriptive (L1) twin.
//!
//! "The mimicking structure refers to the 3D modeling of the physical
//! assets (racks, servers, pumps, etc.)" (§I of the paper). The scene
//! graph carries positions, levels of detail and telemetry bindings; the
//! JSON export is the hand-off point to any renderer (the paper uses UE5;
//! §V plans "dynamic asset generation based on JSON configuration files",
//! which is exactly what [`SceneGraph::frontier`] does).

use serde::{Deserialize, Serialize};

/// Kinds of physical assets in the scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssetKind {
    /// Machine-room compute rack.
    Rack,
    /// Cooling distribution unit.
    Cdu,
    /// Circulation pump (HTWP/CTWP).
    Pump,
    /// Evaporative cooling tower cell.
    TowerCell,
    /// Plate heat exchanger.
    HeatExchanger,
    /// Piping run.
    Pipe,
    /// Room/building shell.
    Room,
}

/// Level-of-detail band, the paper's key to keeping the UE5 model
/// "performant and responsive" (Finding 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LodLevel {
    /// Far: a bounding box with an aggregate color.
    Far,
    /// Mid: the asset shell with summary telemetry.
    Mid,
    /// Near: full detail down to blades/components.
    Near,
}

/// One node of the scene graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneNode {
    /// Stable id, e.g. `rack-17` or `cdu-03`.
    pub id: String,
    /// Display name.
    pub name: String,
    /// Asset kind.
    pub kind: AssetKind,
    /// Position in metres (machine-room frame).
    pub position: [f64; 3],
    /// Axis-aligned size in metres.
    pub size: [f64; 3],
    /// Coarsest LOD at which the node becomes visible (containers
    /// render from `Far`; component detail only from `Near`).
    pub min_lod: LodLevel,
    /// Telemetry channels bound to this asset (model output names).
    pub bindings: Vec<String>,
    /// Child nodes.
    pub children: Vec<SceneNode>,
}

impl SceneNode {
    /// Leaf node helper.
    pub fn leaf(
        id: impl Into<String>,
        name: impl Into<String>,
        kind: AssetKind,
        position: [f64; 3],
        size: [f64; 3],
    ) -> Self {
        SceneNode {
            id: id.into(),
            name: name.into(),
            kind,
            position,
            size,
            min_lod: LodLevel::Near,
            bindings: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Bind a telemetry channel to this asset.
    pub fn bind(mut self, channel: impl Into<String>) -> Self {
        self.bindings.push(channel.into());
        self
    }

    /// Count nodes in this subtree (including self).
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(SceneNode::count).sum::<usize>()
    }
}

/// The scene graph root plus generation metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneGraph {
    /// Generator name/version for provenance.
    pub generator: String,
    /// Root node (the site).
    pub root: SceneNode,
}

/// Round a generated coordinate to millimetres: keeps the exported JSON
/// clean and immune to float-parsing ULP differences.
fn mm(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

impl SceneGraph {
    /// Build the Frontier machine room + CEP scene: 74 racks in rows of
    /// up to 16, one CDU per three racks, four HTWPs, four CTWPs, five
    /// EHX and five towers of four cells.
    pub fn frontier() -> Self {
        let mut room = SceneNode::leaf("room", "Frontier data hall", AssetKind::Room, [0.0; 3], [60.0, 5.0, 30.0]);
        room.min_lod = LodLevel::Far;

        // Racks: rows of 16, 0.8 m pitch, 1.5 m aisle.
        for rack in 0..74usize {
            let row = rack / 16;
            let col = rack % 16;
            let node = SceneNode::leaf(
                format!("rack-{:02}", rack + 1),
                format!("Rack {}", rack + 1),
                AssetKind::Rack,
                [mm(2.0 + col as f64 * 0.8), 0.0, mm(2.0 + row as f64 * 3.0)],
                [0.6, 2.2, 1.4],
            )
            .bind(format!("cdu_heat[{}]", rack / 3 + 1));
            room.children.push(node);
        }
        // CDUs at the row ends.
        for cdu in 0..25usize {
            let node = SceneNode::leaf(
                format!("cdu-{:02}", cdu + 1),
                format!("CDU {}", cdu + 1),
                AssetKind::Cdu,
                [0.5, 0.0, mm(2.0 + cdu as f64 * 1.1)],
                [0.9, 2.2, 1.0],
            )
            .bind(format!("cdu[{}].secondary_supply_temp", cdu + 1))
            .bind(format!("cdu[{}].primary_flow", cdu + 1))
            .bind(format!("cdu[{}].pump_power", cdu + 1));
            room.children.push(node);
        }

        let mut cep = SceneNode::leaf("cep", "Central energy plant", AssetKind::Room, [70.0, 0.0, 0.0], [25.0, 8.0, 20.0]);
        cep.min_lod = LodLevel::Far;
        for i in 0..4usize {
            cep.children.push(
                SceneNode::leaf(
                    format!("htwp-{}", i + 1),
                    format!("HTWP{}", i + 1),
                    AssetKind::Pump,
                    [mm(72.0 + i as f64 * 2.0), 0.0, 4.0],
                    [1.2, 1.2, 2.0],
                )
                .bind(format!("htwp[{}].power", i + 1))
                .bind(format!("htwp[{}].speed", i + 1)),
            );
            cep.children.push(
                SceneNode::leaf(
                    format!("ctwp-{}", i + 1),
                    format!("CTWP{}", i + 1),
                    AssetKind::Pump,
                    [mm(72.0 + i as f64 * 2.0), 0.0, 8.0],
                    [1.4, 1.4, 2.2],
                )
                .bind(format!("ctwp[{}].power", i + 1)),
            );
        }
        for i in 0..5usize {
            cep.children.push(
                SceneNode::leaf(
                    format!("ehx-{}", i + 1),
                    format!("EHX{}", i + 1),
                    AssetKind::HeatExchanger,
                    [82.0, 0.0, mm(3.0 + i as f64 * 2.5)],
                    [1.0, 2.0, 1.8],
                )
                .bind("primary.num_ehx_staged".to_string()),
            );
        }
        for tower in 0..5usize {
            for cell in 0..4usize {
                let idx = tower * 4 + cell;
                let mut node = SceneNode::leaf(
                    format!("ct-{}-{}", tower + 1, cell + 1),
                    format!("CT{} cell {}", tower + 1, cell + 1),
                    AssetKind::TowerCell,
                    [mm(90.0 + tower as f64 * 4.5), 0.0, mm(2.0 + cell as f64 * 4.5)],
                    [4.0, 4.0, 4.0],
                );
                if idx < 16 {
                    node = node.bind(format!("ct_fan[{}].power", idx + 1));
                }
                cep.children.push(node);
            }
        }
        // Site piping between the two buildings.
        let supply = SceneNode::leaf("pipe-htws", "HTW supply", AssetKind::Pipe, [60.0, 0.0, 10.0], [10.0, 0.5, 0.5])
            .bind("facility.htw_supply_temp".to_string())
            .bind("facility.htw_supply_pressure".to_string());
        let ret = SceneNode::leaf("pipe-htwr", "HTW return", AssetKind::Pipe, [60.0, 0.0, 12.0], [10.0, 0.5, 0.5])
            .bind("facility.htw_return_temp".to_string());

        let mut root = SceneNode::leaf("site", "ORNL site", AssetKind::Room, [0.0; 3], [120.0, 10.0, 40.0]);
        root.min_lod = LodLevel::Far;
        root.children = vec![room, cep, supply, ret];
        SceneGraph { generator: "exadigit-rs scene generator".to_string(), root }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.root.count()
    }

    /// Export to pretty JSON for an external renderer.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scene serialises")
    }

    /// Parse a scene from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// All telemetry bindings referenced anywhere in the scene.
    pub fn all_bindings(&self) -> Vec<&str> {
        fn walk<'a>(node: &'a SceneNode, out: &mut Vec<&'a str>) {
            for b in &node.bindings {
                out.push(b);
            }
            for c in &node.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_scene_has_expected_assets() {
        let scene = SceneGraph::frontier();
        let room = &scene.root.children[0];
        let racks = room.children.iter().filter(|n| n.kind == AssetKind::Rack).count();
        let cdus = room.children.iter().filter(|n| n.kind == AssetKind::Cdu).count();
        assert_eq!(racks, 74);
        assert_eq!(cdus, 25);
        let cep = &scene.root.children[1];
        let pumps = cep.children.iter().filter(|n| n.kind == AssetKind::Pump).count();
        let cells = cep.children.iter().filter(|n| n.kind == AssetKind::TowerCell).count();
        assert_eq!(pumps, 8); // 4 HTWP + 4 CTWP
        assert_eq!(cells, 20); // 5 towers × 4 cells
    }

    #[test]
    fn json_round_trip() {
        let scene = SceneGraph::frontier();
        let back = SceneGraph::from_json(&scene.to_json()).unwrap();
        assert_eq!(scene, back);
    }

    /// Nodes a view at `lod` renders: a node renders once the view zooms
    /// in at least to its coarsest visibility level.
    fn visible_at(node: &SceneNode, lod: LodLevel) -> usize {
        usize::from(lod >= node.min_lod)
            + node.children.iter().map(|c| visible_at(c, lod)).sum::<usize>()
    }

    #[test]
    fn lod_filtering_reduces_node_count() {
        let scene = SceneGraph::frontier();
        let near = visible_at(&scene.root, LodLevel::Near);
        let far = visible_at(&scene.root, LodLevel::Far);
        assert!(far < near, "far {far} vs near {near}");
        // Far LOD: just the containers.
        assert!(far <= 4, "far={far}");
    }

    #[test]
    fn bindings_reference_model_outputs() {
        // Every binding must resolve against the Frontier cooling model's
        // registry (or be a heat input).
        let scene = SceneGraph::frontier();
        let model = exadigit_cooling::CoolingModel::frontier();
        use exadigit_sim::fmi::CoSimModel;
        for b in scene.all_bindings() {
            assert!(model.var_by_name(b).is_some(), "binding {b} unresolved");
        }
    }

    #[test]
    fn node_count_consistent() {
        let scene = SceneGraph::frontier();
        // site + room(1+74+25) + cep(1+8+5+20) + 2 pipes = 137
        assert_eq!(scene.node_count(), 1 + 100 + 34 + 2);
    }
}
