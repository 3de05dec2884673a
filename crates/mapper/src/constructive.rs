//! LOCAL-style constructive mapping: the crate's one list scheduler.
//!
//! "LOCAL: Low-Complex Mapping Algorithm for Spatial DNN Accelerators"
//! (PAPERS.md) observes that a large share of real kernels need no
//! search at all: a single greedy placement sweep in a good priority
//! order, followed by one routing pass, already lands a valid mapping.
//! [`ConstructiveStrategy`] implements that pass in two roles:
//!
//! * as a **lane** (`constructive` in a [`crate::StrategySpec`]) it is
//!   the cheapest by orders of magnitude — it invokes the router about
//!   once per edge, where one annealing chain invokes it thousands of
//!   times — so the lane race runs it before any stochastic lane, and a
//!   complete constructive mapping wins outright;
//! * as a **mapper** ([`IiMapper`]) under [`crate::IiSearch`] it is the
//!   deterministic list-scheduling baseline of the paper's taxonomy
//!   (§I: hybrid heuristics that schedule greedily with architectural
//!   cost functions), behind `lisa-map --mapper greedy`.
//!
//! When the one-pass mapping is *incomplete*, the partial result is not
//! wasted: [`crate::evolutionary::EvolutionaryStrategy`] seeds its first
//! individual from the same pass, giving the population an incumbent
//! bound that a random initial placement rarely matches.
//!
//! The pass is fully deterministic — no RNG is drawn anywhere — so one
//! constructive lane is all a lane list ever needs.

use std::cmp::Reverse;

use lisa_arch::Accelerator;
use lisa_dfg::{Dfg, NodeId};

use crate::predictor::FilterStats;
use crate::sa::candidate_slots;
use crate::schedule::IiMapper;
use crate::Mapping;

/// Bounded repair sweeps after the first full pass. Each sweep rips up
/// every problematic node (unplaced, or endpoint of an unrouted edge)
/// and re-places the set greedily; two sweeps keep the lane's worst case
/// at a small constant multiple of one pass.
const REPAIR_PASSES: usize = 2;

/// Height-based list order — the classic modulo-scheduling priority:
/// long downward paths first, ties broken by ASAP level then node id.
/// Height is folded in decreasing-ASAP order — every data successor sits
/// at a strictly higher ASAP level than its predecessor, so this is a
/// valid reverse topological sweep without materializing a topological
/// order.
fn priority_order(m: &Mapping<'_>) -> Vec<NodeId> {
    let dfg = m.dfg();
    let mut by_asap: Vec<NodeId> = dfg.node_ids().collect();
    by_asap.sort_by_key(|n| Reverse((m.asap_level(*n), n.index())));
    let mut height = vec![0u32; dfg.node_count()];
    for &v in &by_asap {
        for s in dfg.data_successors(v) {
            height[v.index()] = height[v.index()].max(height[s.index()] + 1);
        }
    }
    let mut nodes = by_asap;
    nodes.sort_by_key(|n| (m.asap_level(*n), Reverse(height[n.index()]), n.index()));
    nodes
}

/// Greedily places every node of `nodes` that is currently unplaced and
/// routes its edges to already-placed neighbours as it goes: cheapest
/// feasible slot first (earliest time, then summed spatial distance to
/// placed data neighbours, then PE id). A slot whose incident edges
/// don't route is undone and the next candidate tried, so a placement
/// never strands an unroutable edge silently. Every `route_edge` call —
/// success or failure — counts as one router invocation.
fn place_pass(m: &mut Mapping<'_>, nodes: &[NodeId], stats: &mut FilterStats) {
    for &node in nodes {
        if m.placement(node).is_some() {
            continue;
        }
        let dfg = m.dfg();
        let mut candidates = candidate_slots(m, node);
        candidates.sort_by_key(|&(pe, t)| {
            let mut dist = 0u32;
            for p in dfg.predecessors(node).chain(dfg.successors(node)) {
                if let Some(pp) = m.placement(p) {
                    dist += m.accelerator().spatial_distance(pe, pp.pe);
                }
            }
            (t, dist, pe.index())
        });
        'candidates: for (pe, t) in candidates {
            if m.place(node, pe, t).is_err() {
                continue;
            }
            let incident: Vec<_> = dfg
                .in_edges(node)
                .iter()
                .chain(dfg.out_edges(node))
                .copied()
                .collect();
            let mut routed = Vec::new();
            for e in incident {
                if m.route(e).is_some() {
                    continue;
                }
                let edge = dfg.edge(e);
                if m.placement(edge.src).is_none() || m.placement(edge.dst).is_none() {
                    continue;
                }
                stats.router_invocations += 1;
                if m.route_edge(e).is_err() {
                    for r in routed {
                        m.unroute_edge(r);
                    }
                    m.unplace(node);
                    continue 'candidates;
                }
                routed.push(e);
            }
            break;
        }
    }
}

/// The one-pass construction: place every node in priority order with
/// route-as-you-place, then run up to [`REPAIR_PASSES`] rip-up-and-retry
/// sweeps over the problematic set. Returns the (possibly partial)
/// mapping with the router-work counters; `None` only if `ii` is
/// infeasible for the fabric. Deterministic for fixed inputs.
pub(crate) fn construct<'a>(
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
) -> Option<(Mapping<'a>, FilterStats)> {
    let mut mapping = Mapping::new(dfg, acc, ii).ok()?;
    let mut stats = FilterStats::default();
    let order = priority_order(&mapping);
    place_pass(&mut mapping, &order, &mut stats);
    stats.proposals += 1;
    stats.admitted += 1;
    for _ in 0..REPAIR_PASSES {
        if mapping.is_complete() {
            break;
        }
        // Rip up the problematic set: unplaced nodes plus the endpoints
        // of every unrouted edge (unplacing also unroutes their other
        // incident edges, freeing the congested cells).
        let mut problematic = mapping.unplaced_nodes();
        for e in dfg.edge_ids() {
            if mapping.route(e).is_none() {
                let edge = dfg.edge(e);
                problematic.push(edge.src);
                problematic.push(edge.dst);
            }
        }
        problematic.sort_by_key(|n| n.index());
        problematic.dedup();
        for &n in &problematic {
            mapping.unplace(n);
        }
        place_pass(&mut mapping, &order, &mut stats);
        stats.proposals += 1;
        stats.admitted += 1;
    }
    Some((mapping, stats))
}

/// The constructive pass as a lane and as a mapper. See the module
/// docs; both roles return `Some` only when the one-pass construction
/// (plus bounded repair) lands a complete mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstructiveStrategy;

impl ConstructiveStrategy {
    /// Creates the pass (it has no parameters).
    pub fn new() -> Self {
        ConstructiveStrategy
    }
}

impl IiMapper for ConstructiveStrategy {
    fn name(&self) -> &str {
        "Constructive"
    }

    fn map_at_ii<'a>(&self, dfg: &'a Dfg, acc: &'a Accelerator, ii: u32) -> Option<Mapping<'a>> {
        let (mapping, _) = construct(dfg, acc, ii)?;
        mapping.is_complete().then_some(mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::IiSearch;
    use lisa_dfg::polybench;

    #[test]
    fn construct_is_deterministic_and_verifies_when_complete() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        for kernel in ["gemm", "doitgen", "atax"] {
            let dfg = polybench::kernel(kernel).unwrap();
            let (a, sa) = construct(&dfg, &acc, 8).unwrap();
            let (b, sb) = construct(&dfg, &acc, 8).unwrap();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{kernel} rerun diverged"
            );
            assert_eq!(sa.router_invocations, sb.router_invocations);
            if a.is_complete() {
                a.verify().unwrap();
            }
        }
    }

    #[test]
    fn router_work_is_near_the_edge_count() {
        // The lane's reason to exist: router invocations bounded by a
        // small multiple of the edge count, not the annealer's thousands.
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("gemm").unwrap();
        let (_, stats) = construct(&dfg, &acc, 8).unwrap();
        let edges = dfg.edge_ids().count() as u64;
        // Route-as-you-place retries failed slots, so the bound is a
        // small constant multiple of the edge count per sweep.
        assert!(
            stats.router_invocations <= edges * 8 * (1 + REPAIR_PASSES as u64),
            "router_invocations={} for {edges} edges",
            stats.router_invocations
        );
    }

    #[test]
    fn strategy_returns_only_complete_mappings() {
        use crate::{SaMapper, SaParams, StrategySpec};
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("gemm").unwrap();
        let lane = SaMapper::new(SaParams::fast(), 0)
            .with_strategy(StrategySpec::parse("constructive").unwrap());
        if let Some(m) = lane.map_at_ii(&dfg, &acc, 8) {
            assert!(m.is_complete());
            m.verify().unwrap();
        }
        let (_, stats) = construct(&dfg, &acc, 8).unwrap();
        assert!(stats.proposals >= 1);
        // An impossible fabric/II yields None, not a panic.
        let tiny = Accelerator::cgra("1x1", 1, 1);
        assert!(lane.map_at_ii(&dfg, &tiny, 1).is_none());
    }

    #[test]
    fn priority_order_is_topological_within_levels() {
        let dfg = polybench::kernel("gemm").unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        let m = Mapping::new(&dfg, &acc, 4).unwrap();
        let order = priority_order(&m);
        for w in order.windows(2) {
            assert!(m.asap_level(w[0]) <= m.asap_level(w[1]));
        }
    }

    /// Per-kernel IIs of the constructive mapper under the II search on
    /// the 4x4 (max II 16), in `polybench::KERNEL_NAMES` order. Every
    /// entry is at or below what the historical backtracking list
    /// scheduler reached (EXPERIMENTS.md has the 3x3–32x32 table).
    const II_4X4: [(&str, u32); 12] = [
        ("atax", 4),
        ("bicg", 4),
        ("gemm", 4),
        ("gesummv", 5),
        ("mvt", 5),
        ("symm", 8),
        ("syrk", 4),
        ("syr2k", 10),
        ("trmm", 7),
        ("doitgen", 3),
        ("2mm", 7),
        ("3mm", 5),
    ];

    #[test]
    fn maps_every_polybench_kernel_on_4x4_at_the_pinned_ii() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let search = IiSearch { max_ii: Some(16) };
        for (name, ii) in II_4X4 {
            let dfg = polybench::kernel(name).unwrap();
            let report = search.search(&ConstructiveStrategy, &dfg, &acc, 1);
            assert_eq!(report.outcome.ii, Some(ii), "{name}");
            assert_eq!(report.outcome.mapper, "Constructive");
            report.mapping.unwrap().verify().unwrap();
        }
    }

    #[test]
    fn mapper_is_deterministic() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("gemm").unwrap();
        let a = ConstructiveStrategy.map_at_ii(&dfg, &acc, 4);
        let b = ConstructiveStrategy.map_at_ii(&dfg, &acc, 4);
        assert!(a.is_some(), "gemm maps at its pinned II");
        assert_eq!(a.map(|m| format!("{m:?}")), b.map(|m| format!("{m:?}")));
    }

    #[test]
    fn mapper_respects_infeasible_ii() {
        let mut g = Dfg::new("five");
        for i in 0..5 {
            g.add_node(lisa_dfg::OpKind::Add, format!("n{i}"));
        }
        let acc = Accelerator::cgra("1x1", 1, 1);
        assert!(ConstructiveStrategy.map_at_ii(&g, &acc, 2).is_none());
    }

    #[test]
    fn mapper_is_fast() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let dfg = polybench::kernel("syr2k").unwrap();
        let start = std::time::Instant::now();
        let _ = IiSearch { max_ii: Some(16) }.run(&ConstructiveStrategy, &dfg, &acc);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "constructive II search took {:?}",
            start.elapsed()
        );
    }
}
