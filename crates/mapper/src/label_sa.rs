//! Label-aware simulated annealing — the paper's Algorithm 1.
//!
//! The four labels of Table I steer the three policy points of the SA
//! core:
//!
//! 1. **Schedule order** (label 1) sorts unmapped nodes for placement
//!    (line 3).
//! 2. **Same-level association, spatial and temporal mapping distance**
//!    (labels 2–4) define the placement cost of each PE candidate: the sum
//!    of differences between the actual mapping distances and the labels'
//!    expected distances (line 6). Candidates are then drawn through a
//!    normal distribution whose deviation follows
//!    σ = max{1, α·T − Acc} (lines 7–8), so low acceptance rates inject
//!    randomness to break out of dead-end mappings.
//! 3. **Temporal mapping distance** (label 4) prioritises long edges in
//!    routing (line 9): edges that need many routing resources are routed
//!    while resources are still plentiful.

mod policy;

use lisa_dfg::{analysis, same_level, Dfg, NodeId};

use crate::sa::{Annealer, Guidance, SaParams};
use policy::LabelPolicy;

/// The four mapping-guidance labels of paper Table I, in the exact form
/// the label-aware mapper consumes.
///
/// Produced either by initialisation (§V-B), by extraction from a mapping
/// (training-data generation), or by the trained GNN models (inference).
#[derive(Debug, Clone, PartialEq)]
pub struct GuidanceLabels {
    /// Label 1 — schedule order per node (lower = earlier).
    pub schedule_order: Vec<f64>,
    /// Label 2 — expected spatial distance per same-level pair
    /// (dummy edge), as `(a, b, distance)`.
    pub same_level: Vec<(NodeId, NodeId, f64)>,
    /// Label 3 — expected spatial mapping distance per edge.
    pub spatial: Vec<f64>,
    /// Label 4 — expected temporal mapping distance per edge.
    pub temporal: Vec<f64>,
}

impl GuidanceLabels {
    /// Initial label values per §V-B: schedule order = ASAP, same-level
    /// association = mean shortest distance to the common
    /// ancestor/descendant, spatial distance = 0, temporal distance = 1.
    pub fn initial(dfg: &Dfg) -> Self {
        let asap = analysis::asap(dfg);
        let dummies = same_level::dummy_edges(dfg);
        let same_level = dummies
            .iter()
            .map(|d| {
                let dist = match (d.ancestor, d.descendant) {
                    (Some(a), Some(b)) => (a.mean_dist() + b.mean_dist()) / 2.0,
                    (Some(a), None) => a.mean_dist(),
                    (None, Some(b)) => b.mean_dist(),
                    (None, None) => unreachable!("dummy edges have a common node"),
                };
                (d.a, d.b, dist)
            })
            .collect();
        GuidanceLabels {
            schedule_order: asap.iter().map(|&l| f64::from(l)).collect(),
            same_level,
            spatial: vec![0.0; dfg.edge_count()],
            temporal: vec![1.0; dfg.edge_count()],
        }
    }

    /// Validates shape agreement with a DFG: one schedule order per node,
    /// one spatial and temporal distance per edge, and same-level pairs
    /// that are exactly the DFG's dummy edges in their canonical order.
    pub fn matches(&self, dfg: &Dfg) -> bool {
        self.schedule_order.len() == dfg.node_count()
            && self.spatial.len() == dfg.edge_count()
            && self.temporal.len() == dfg.edge_count()
            && {
                let dummies = same_level::dummy_edges(dfg);
                dummies.len() == self.same_level.len()
                    && dummies
                        .iter()
                        .zip(&self.same_level)
                        .all(|(d, &(a, b, _))| (d.a, d.b) == (a, b))
            }
    }

    /// Routing priority of a node: the sum of temporal mapping distances
    /// over its incident edges — "the routing resource that a DFG node
    /// needs" (Algorithm 1 line 9).
    pub fn node_routing_need(&self, dfg: &Dfg, node: NodeId) -> f64 {
        dfg.in_edges(node)
            .iter()
            .chain(dfg.out_edges(node))
            .map(|e| self.temporal[e.index()])
            .sum()
    }
}

/// Which parts of the label guidance are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelMode {
    /// Full Algorithm 1 (placement order, placement cost, routing order).
    Full,
    /// Only label 4's routing priority on top of vanilla SA — the
    /// "SA with routing priority" ablation of Fig. 12.
    RoutingPriorityOnly,
    /// Labels steer only the initial mapping; movements behave like
    /// vanilla SA. This is the *partial label-aware SA* used when
    /// generating training data (§V-B).
    InitialOnly,
}

/// The labels and guidance mode behind a [`LabelSaMapper`].
#[derive(Debug, Clone)]
pub struct LabelGuidance {
    labels: GuidanceLabels,
    mode: LabelMode,
}

impl Guidance for LabelGuidance {
    type Policy<'g> = LabelPolicy<'g>;

    fn policy<'g>(&'g self, dfg: &Dfg) -> LabelPolicy<'g> {
        assert!(
            self.labels.matches(dfg),
            "labels do not match the DFG shape"
        );
        LabelPolicy::new(&self.labels, self.mode, dfg)
    }
}

/// The label-aware simulated-annealing mapper (LISA's mapping stage).
///
/// # Example
///
/// ```
/// use lisa_dfg::{Dfg, OpKind};
/// use lisa_arch::Accelerator;
/// use lisa_mapper::{GuidanceLabels, LabelSaMapper, SaParams, schedule::IiMapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_node(OpKind::Load, "a");
/// let b = dfg.add_node(OpKind::Store, "b");
/// dfg.add_data_edge(a, b)?;
/// let labels = GuidanceLabels::initial(&dfg);
/// let acc = Accelerator::cgra("2x2", 2, 2);
/// let mut lisa = LabelSaMapper::new(labels, SaParams::fast(), 1);
/// let m = lisa.map_at_ii(&dfg, &acc, 1).expect("maps");
/// assert!(m.is_complete());
/// # Ok(())
/// # }
/// ```
pub type LabelSaMapper = Annealer<LabelGuidance>;

impl LabelSaMapper {
    /// Creates a full label-aware mapper (Algorithm 1), named "LISA".
    pub fn new(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        Self::with_mode(labels, LabelMode::Full, "LISA", params, seed)
    }

    /// Creates the routing-priority-only ablation of Fig. 12, named
    /// "SA+RP".
    pub fn routing_priority_only(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        Self::with_mode(
            labels,
            LabelMode::RoutingPriorityOnly,
            "SA+RP",
            params,
            seed,
        )
    }

    /// Creates the partial label-aware mapper used during training-data
    /// generation: labels guide only the initial mapping (§V-B). Named
    /// "LISA-partial".
    pub fn initial_only(labels: GuidanceLabels, params: SaParams, seed: u64) -> Self {
        Self::with_mode(labels, LabelMode::InitialOnly, "LISA-partial", params, seed)
    }

    fn with_mode(
        labels: GuidanceLabels,
        mode: LabelMode,
        name: &'static str,
        params: SaParams,
        seed: u64,
    ) -> Self {
        Annealer::guided(LabelGuidance { labels, mode }, name, params, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::IiMapper;
    use lisa_arch::Accelerator;
    use lisa_dfg::{polybench, OpKind};

    #[test]
    fn initial_labels_have_correct_shapes() {
        let dfg = polybench::kernel("gemm").unwrap();
        let labels = GuidanceLabels::initial(&dfg);
        assert!(labels.matches(&dfg));
        assert!(labels.spatial.iter().all(|&v| v == 0.0));
        assert!(labels.temporal.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn schedule_order_follows_asap_initially() {
        let mut g = Dfg::new("chain");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        g.add_data_edge(a, b).unwrap();
        let labels = GuidanceLabels::initial(&g);
        assert!(labels.schedule_order[0] < labels.schedule_order[1]);
    }

    #[test]
    fn lisa_maps_small_graphs() {
        let mut g = Dfg::new("y");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Load, "b");
        let c = g.add_node(OpKind::Add, "c");
        let d = g.add_node(OpKind::Store, "d");
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, c).unwrap();
        g.add_data_edge(c, d).unwrap();
        let labels = GuidanceLabels::initial(&g);
        let acc = Accelerator::cgra("2x2", 2, 2);
        let lisa = LabelSaMapper::new(labels, SaParams::fast(), 2);
        // II 1 leaves no route-through resources on a fully-occupied 2x2;
        // II 2 is the first feasible interval for this 4-node graph.
        let m = (1..=3)
            .find_map(|ii| lisa.map_at_ii(&g, &acc, ii))
            .expect("maps within II 3");
        m.verify().unwrap();
    }

    #[test]
    fn lisa_maps_polybench_kernel_on_4x4() {
        let dfg = polybench::kernel("gemm").unwrap();
        let labels = GuidanceLabels::initial(&dfg);
        let acc = Accelerator::cgra("4x4", 4, 4);
        let lisa = LabelSaMapper::new(labels, SaParams::fast(), 4);
        let mut ok = false;
        for ii in crate::schedule::mii(&dfg, &acc)..=8 {
            if let Some(m) = lisa.map_at_ii(&dfg, &acc, ii) {
                m.verify().unwrap();
                ok = true;
                break;
            }
        }
        assert!(ok, "gemm should map on 4x4 within II 8");
    }

    #[test]
    fn modes_have_distinct_names() {
        let dfg = polybench::kernel("mvt").unwrap();
        let labels = GuidanceLabels::initial(&dfg);
        assert_eq!(
            LabelSaMapper::new(labels.clone(), SaParams::fast(), 0).name(),
            "LISA"
        );
        assert_eq!(
            LabelSaMapper::routing_priority_only(labels.clone(), SaParams::fast(), 0).name(),
            "SA+RP"
        );
        assert_eq!(
            LabelSaMapper::initial_only(labels, SaParams::fast(), 0).name(),
            "LISA-partial"
        );
    }

    #[test]
    #[should_panic(expected = "labels do not match")]
    fn mismatched_labels_panic() {
        let dfg = polybench::kernel("mvt").unwrap();
        let other = polybench::kernel("syr2k").unwrap();
        let labels = GuidanceLabels::initial(&other);
        let acc = Accelerator::cgra("4x4", 4, 4);
        let _ = LabelSaMapper::new(labels, SaParams::fast(), 0).map_at_ii(&dfg, &acc, 2);
    }

    #[test]
    fn routing_need_sums_incident_edges() {
        let mut g = Dfg::new("v");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Store, "c");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        let mut labels = GuidanceLabels::initial(&g);
        labels.temporal = vec![2.0, 5.0];
        assert_eq!(labels.node_routing_need(&g, b), 7.0);
        assert_eq!(labels.node_routing_need(&g, a), 2.0);
    }
}
