//! The label-aware policy of Algorithm 1. The module is private: the
//! policy is reachable only as [`super::LabelGuidance`]'s associated
//! policy type, so callers steer the annealer through the guidance and
//! never name the policy.

use std::cell::{Cell, RefCell};

use lisa_arch::{Coord, PeId};
use lisa_dfg::{Dfg, EdgeId, NodeId};
use lisa_rng::Rng;

use super::{GuidanceLabels, LabelMode};
use crate::sa::{MoveStats, SaPolicy, VanillaPolicy};
use crate::Mapping;

/// α of the deviation schedule σ = max{1, α·T − Acc} (Algorithm 1 line 7).
const ALPHA: f64 = 0.05;

/// The label-aware policy implementing Algorithm 1's decision points;
/// [`super::LabelGuidance`] builds one per annealing lane.
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
    pub(super) fn new(labels: &'l GuidanceLabels, mode: LabelMode, dfg: &Dfg) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;

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
