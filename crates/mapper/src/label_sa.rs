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

use std::cell::{Cell, RefCell};

use lisa_rng::Rng;

use lisa_arch::{Coord, PeId};
use lisa_dfg::{analysis, same_level, Dfg, EdgeId, NodeId};

use crate::sa::{Annealer, Guidance, MoveStats, SaParams, SaPolicy, VanillaPolicy};
use crate::Mapping;

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

/// α of the deviation schedule σ = max{1, α·T − Acc} (Algorithm 1 line 7).
const ALPHA: f64 = 0.05;

/// The label-aware policy implementing Algorithm 1's decision points;
/// [`LabelGuidance`] builds one per annealing lane.
pub struct LabelPolicy<'l> {
    labels: &'l GuidanceLabels,
    mode: LabelMode,
    /// Same-level partners per node, precomputed for the placement cost.
    partners: Vec<Vec<(NodeId, f64)>>,
    /// Routing-priority rank of every edge (Algorithm 1 line 9): the
    /// position of the edge when all edges are sorted by descending
    /// label-4 need of the producing node, then descending own label 4,
    /// then id. The labels are fixed for the lane, so the order is
    /// computed once and `order_edges` sorts by rank.
    edge_rank: Vec<u32>,
    /// Placement-cost buffers reused across `choose_candidate` calls.
    scratch: RefCell<ScoreScratch>,
    /// Whether the annealer is past the initial mapping (used by
    /// `LabelMode::InitialOnly`).
    initial_done: Cell<bool>,
}

/// Reusable buffers of [`LabelPolicy::choose_candidate`].
#[derive(Default)]
struct ScoreScratch {
    terms: Vec<Term>,
    /// `(placement cost, candidate index)` per candidate.
    scored: Vec<(f64, usize)>,
}

/// One placed-neighbour term of a node's placement cost (Algorithm 1
/// line 6), gathered once per `choose_candidate` call so every candidate
/// is scored from the same flat list instead of re-walking the node's
/// edges and re-reading placements.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// Grid coordinate of the placed neighbour.
    at: Coord,
    /// Expected spatial distance (label 3 on an edge, label 2 between
    /// same-level partners).
    spatial: f64,
    temporal: Temporal,
}

/// The temporal half of a [`Term`].
#[derive(Debug, Clone, Copy)]
enum Temporal {
    /// Same-level partner: no temporal term.
    None,
    /// Edge from a placed producer: a candidate at cycle `t` sees the
    /// mapping distance `(t + offset) - producer`, `offset` being the
    /// edge's iteration distance × II.
    FromProducer {
        offset: u32,
        producer: f64,
        expected: f64,
    },
    /// Edge to a placed consumer whose effective cycle is `consumer`:
    /// the mapping distance is `consumer - t`.
    ToConsumer { consumer: f64, expected: f64 },
}

impl<'l> LabelPolicy<'l> {
    fn new(labels: &'l GuidanceLabels, mode: LabelMode, dfg: &Dfg) -> Self {
        let mut partners = vec![Vec::new(); dfg.node_count()];
        for &(a, b, d) in &labels.same_level {
            partners[a.index()].push((b, d));
            partners[b.index()].push((a, d));
        }
        let need: Vec<f64> = dfg
            .node_ids()
            .map(|n| labels.node_routing_need(dfg, n))
            .collect();
        let mut by_priority: Vec<EdgeId> = dfg.edge_ids().collect();
        by_priority.sort_by(|&a, &b| {
            let (na, nb) = (need[dfg.edge(a).src.index()], need[dfg.edge(b).src.index()]);
            nb.partial_cmp(&na)
                .expect("finite needs")
                .then_with(|| {
                    labels.temporal[b.index()]
                        .partial_cmp(&labels.temporal[a.index()])
                        .expect("finite labels")
                })
                .then(a.index().cmp(&b.index()))
        });
        let mut edge_rank = vec![0; dfg.edge_count()];
        for (rank, e) in by_priority.into_iter().enumerate() {
            edge_rank[e.index()] = rank as u32;
        }
        LabelPolicy {
            labels,
            mode,
            partners,
            edge_rank,
            scratch: RefCell::default(),
            initial_done: Cell::new(false),
        }
    }

    /// Gathers the placed-neighbour terms of `node`'s placement cost:
    /// in-edges, then out-edges (a self-recurrence counts once, on the
    /// in side), then same-level partners — the order the cost is summed
    /// in.
    fn gather_terms(&self, m: &Mapping<'_>, node: NodeId, terms: &mut Vec<Term>) {
        terms.clear();
        let dfg = m.dfg();
        let acc = m.accelerator();
        let ii = m.ii();
        for &e in dfg.in_edges(node) {
            let edge = dfg.edge(e);
            if let Some(p) = m.placement(edge.src) {
                terms.push(Term {
                    at: acc.coord(p.pe),
                    spatial: self.labels.spatial[e.index()],
                    temporal: Temporal::FromProducer {
                        offset: edge.kind.distance() * ii,
                        producer: f64::from(p.time),
                        expected: self.labels.temporal[e.index()],
                    },
                });
            }
        }
        for &e in dfg.out_edges(node) {
            let edge = dfg.edge(e);
            if edge.dst == node {
                continue;
            }
            if let Some(c) = m.placement(edge.dst) {
                terms.push(Term {
                    at: acc.coord(c.pe),
                    spatial: self.labels.spatial[e.index()],
                    temporal: Temporal::ToConsumer {
                        consumer: f64::from(c.time + edge.kind.distance() * ii),
                        expected: self.labels.temporal[e.index()],
                    },
                });
            }
        }
        for &(partner, expected) in &self.partners[node.index()] {
            if let Some(p) = m.placement(partner) {
                terms.push(Term {
                    at: acc.coord(p.pe),
                    spatial: expected,
                    temporal: Temporal::None,
                });
            }
        }
    }

    fn label_guided(&self) -> bool {
        match self.mode {
            LabelMode::Full => true,
            LabelMode::RoutingPriorityOnly => false,
            LabelMode::InitialOnly => !self.initial_done.get(),
        }
    }
}

/// Placement cost of a candidate at grid coordinate `at` and cycle `t`:
/// Σ |actual − expected| over labels 2, 3, 4 against the gathered terms
/// (Algorithm 1 line 6).
fn candidate_cost(terms: &[Term], at: Coord, t: u32) -> f64 {
    let mut cost = 0.0;
    for term in terms {
        let spatial = f64::from(at.manhattan(term.at));
        cost += (spatial - term.spatial).abs();
        let (temporal, expected) = match term.temporal {
            Temporal::None => continue,
            Temporal::FromProducer {
                offset,
                producer,
                expected,
            } => (f64::from(t + offset) - producer, expected),
            Temporal::ToConsumer { consumer, expected } => (consumer - f64::from(t), expected),
        };
        cost += (temporal - expected).abs();
        // A value advances at most one hop per cycle, so a candidate
        // whose spatial distance to a placed neighbour exceeds the
        // temporal gap is physically unroutable; penalise it regardless
        // of what the (possibly inaccurate) labels suggest.
        cost += if spatial > temporal {
            100.0 * (spatial - temporal)
        } else {
            0.0
        };
    }
    cost
}

impl SaPolicy for LabelPolicy<'_> {
    fn order_nodes(&self, mapping: &Mapping<'_>, nodes: &mut [NodeId]) {
        if self.label_guided() {
            nodes.sort_by(|a, b| {
                let ka = self.labels.schedule_order[a.index()];
                let kb = self.labels.schedule_order[b.index()];
                ka.partial_cmp(&kb)
                    .expect("schedule orders are finite")
                    .then(a.index().cmp(&b.index()))
            });
        } else {
            VanillaPolicy.order_nodes(mapping, nodes);
        }
    }

    fn choose_candidate(
        &self,
        mapping: &Mapping<'_>,
        node: NodeId,
        candidates: &[(PeId, u32)],
        stats: MoveStats,
        rng: &mut Rng,
    ) -> usize {
        if !self.label_guided() {
            // After the initial mapping, InitialOnly degrades to vanilla;
            // flag the transition for subsequent calls.
            return VanillaPolicy.choose_candidate(mapping, node, candidates, stats, rng);
        }
        let mut scratch = self.scratch.borrow_mut();
        let ScoreScratch { terms, scored } = &mut *scratch;
        self.gather_terms(mapping, node, terms);
        let acc = mapping.accelerator();
        scored.clear();
        scored.extend(
            candidates
                .iter()
                .enumerate()
                .map(|(i, &(pe, t))| (candidate_cost(terms, acc.coord(pe), t), i)),
        );
        // σ = max{1, α·T − Acc}: low acceptance widens the distribution.
        let sigma = (ALPHA * f64::from(stats.attempted) - f64::from(stats.accepted)).max(1.0);
        let draw = sample_normal(rng).abs() * sigma;
        let rank = (draw.floor() as usize).min(scored.len() - 1);
        // The candidate at `rank` in ascending cost, ties by index — the
        // order a stable sort by cost gives — without sorting the rest.
        let (_, &mut (_, chosen), _) = scored.select_nth_unstable_by(rank, |a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite costs")
                .then(a.1.cmp(&b.1))
        });
        chosen
    }

    fn order_edges(&self, mapping: &Mapping<'_>, edges: &mut [EdgeId]) {
        match self.mode {
            LabelMode::InitialOnly if self.initial_done.get() => {
                VanillaPolicy.order_edges(mapping, edges);
            }
            _ => edges.sort_unstable_by_key(|e| self.edge_rank[e.index()]),
        }
        // The first full pass over the edges marks the end of the initial
        // mapping for InitialOnly mode.
        if self.mode == LabelMode::InitialOnly {
            self.initial_done.set(true);
        }
    }
}

/// Standard-normal sample via Box–Muller.
fn sample_normal(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
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

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
