//! Dijkstra routing over the time-expanded MRRG (paper Algorithm 1,
//! line 11: "Route using Dijkstra's algorithm").
//!
//! A route for a dependency `u@(p, t_u) -> v@(q, t_v)` is a chain of
//! resources occupied at consecutive cycles `t_u + 1 .. t_v - 1`, whose
//! last element can feed the consumer FU at `t_v` (or, when
//! `t_v = t_u + 1`, the producer FU feeds the consumer directly). Every
//! hop advances time by exactly one cycle, so the search is layered: the
//! frontier at layer `k` holds resources reachable at cycle `t_u + k`.
//!
//! Costs are the number of *newly occupied* cells: reusing a cell the same
//! value already holds at the same absolute cycle (fanout prefix sharing)
//! is free, which is what makes multi-consumer nets affordable. Step costs
//! are therefore only 0 or 1 ([`StepCost`]), and the search is a 0-1
//! Dijkstra over an exact two-bucket queue.

use std::fmt;

use lisa_arch::{Mrrg, PeId, Resource};
use lisa_dfg::NodeId;

use crate::mapping::RouteStep;

/// Sentinel for "no parent" in [`RouterScratch::parent`].
const NO_PARENT: usize = usize::MAX;

/// Price of one route step — the only two values the router accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepCost {
    /// The value already holds the cell at the same absolute cycle
    /// (fanout prefix reuse): free.
    Reuse = 0,
    /// A fresh occupation of a free cell: one new cell.
    Fresh = 1,
}

/// One cell the router asks the cost callback about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The resource the value would occupy.
    pub resource: Resource,
    /// The absolute cycle it would occupy it in.
    pub time: u32,
    /// The occupancy-table index of `(resource, time)`, equal to
    /// [`Mrrg::index_at`]; the router folds the modulo slot once per
    /// layer instead of once per probe.
    pub cell: usize,
}

/// Exact two-bucket queue of a 0-1 Dijkstra. Every queued state costs
/// either the current level `cost` or `cost + 1`, so it pops states in
/// exactly the `(cost, index)` order a binary min-heap over those pairs
/// would: `current` is the current level sorted descending (the next pop
/// is its last element; same-cost pushes from free steps are inserted
/// in place), and `next` collects the following level unsorted until
/// `current` drains.
#[derive(Clone, Default)]
struct BucketQueue {
    cost: u32,
    current: Vec<u32>,
    next: Vec<u32>,
}

impl BucketQueue {
    fn clear(&mut self) {
        self.cost = 0;
        self.current.clear();
        self.next.clear();
    }

    fn push(&mut self, cost: u32, idx: u32) {
        if cost == self.cost {
            let at = self.current.partition_point(|&queued| queued > idx);
            self.current.insert(at, idx);
        } else {
            debug_assert_eq!(cost, self.cost + 1, "0-1 steps only");
            self.next.push(idx);
        }
    }

    fn pop(&mut self) -> Option<(u32, usize)> {
        if self.current.is_empty() {
            if self.next.is_empty() {
                return None;
            }
            std::mem::swap(&mut self.current, &mut self.next);
            self.current.sort_unstable_by(|a, b| b.cmp(a));
            self.cost += 1;
        }
        self.current.pop().map(|idx| (self.cost, idx as usize))
    }
}

/// Reusable Dijkstra state. The search arrays are epoch-stamped: a cell is
/// only valid when its epoch matches the current search's, so starting a
/// new search is O(1) and per-search work is O(states touched), not
/// O(state_count). One scratch is owned by each [`crate::Mapping`], so the
/// annealer's millions of `route_edge` calls stop reallocating.
#[derive(Clone, Default)]
pub struct RouterScratch {
    best: Vec<u32>,
    parent: Vec<usize>,
    resource: Vec<Option<Resource>>,
    epoch: Vec<u32>,
    cur: u32,
    // State indices fit u32 (layers × resources per slot).
    queue: BucketQueue,
    /// Occupancy-table base of each layer's modulo slot.
    layer_base: Vec<usize>,
    moves: Vec<Resource>,
}

impl fmt::Debug for RouterScratch {
    /// Opaque by design: scratch contents are transient search state, and
    /// including them in `Mapping`'s debug rendering would break the
    /// byte-identity contracts (rollback equivalence, run determinism).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RouterScratch")
    }
}

impl RouterScratch {
    /// Starts a new search over `state_count` states.
    fn begin(&mut self, state_count: usize) {
        if self.epoch.len() < state_count {
            self.best.resize(state_count, u32::MAX);
            self.parent.resize(state_count, NO_PARENT);
            self.resource.resize(state_count, None);
            self.epoch.resize(state_count, 0);
        }
        self.queue.clear();
        if self.cur == u32::MAX {
            // Epoch wrap: invalidate everything once, then restart.
            self.epoch.fill(0);
            self.cur = 0;
        }
        self.cur += 1;
    }

    fn best(&self, idx: usize) -> u32 {
        if self.epoch[idx] == self.cur {
            self.best[idx]
        } else {
            u32::MAX
        }
    }

    /// Records `cost` for state `idx` if it improves on the best known,
    /// and queues the state.
    fn relax(&mut self, idx: usize, cost: u32, resource: Resource, parent: usize) {
        if cost < self.best(idx) {
            self.epoch[idx] = self.cur;
            self.best[idx] = cost;
            self.resource[idx] = Some(resource);
            self.parent[idx] = parent;
            self.queue.push(cost, idx as u32);
        }
    }
}

/// Finds a minimum-new-cost route with a throwaway scratch. Convenience
/// wrapper over [`find_route_in`] for one-off calls and tests; hot paths
/// (the annealer) reuse a scratch instead.
pub fn find_route(
    mrrg: &Mrrg<'_>,
    value: NodeId,
    src_pe: PeId,
    src_time: u32,
    dst_pe: PeId,
    dst_time: u32,
    step_cost: impl Fn(Probe) -> Option<StepCost>,
) -> Option<Vec<RouteStep>> {
    let mut scratch = RouterScratch::default();
    find_route_in(
        &mut scratch,
        mrrg,
        value,
        src_pe,
        src_time,
        dst_pe,
        dst_time,
        step_cost,
    )
}

/// Finds a minimum-new-cost route.
///
/// `step_cost(probe)` returns `None` when the probed cell is unusable
/// (occupied by an op or a foreign value), [`StepCost::Reuse`] when the
/// value already holds the cell at the same absolute time (fanout prefix
/// reuse is free), and [`StepCost::Fresh`] for a fresh occupation.
///
/// Returns the intermediate steps (empty when the consumer is directly
/// adjacent one cycle later), or `None` if no conflict-free path exists.
#[allow(clippy::too_many_arguments)]
pub fn find_route_in(
    scratch: &mut RouterScratch,
    mrrg: &Mrrg<'_>,
    _value: NodeId,
    src_pe: PeId,
    src_time: u32,
    dst_pe: PeId,
    dst_time: u32,
    step_cost: impl Fn(Probe) -> Option<StepCost>,
) -> Option<Vec<RouteStep>> {
    debug_assert!(dst_time > src_time, "router requires causal timing");
    let hops = dst_time - src_time;
    if hops == 1 {
        // Direct consumption: producer FU must be adjacent to consumer.
        return mrrg
            .can_consume(Resource::Fu(src_pe), dst_pe)
            .then(Vec::new);
    }
    let layers = (hops - 1) as usize; // intermediate steps

    // Dense state indexing: layer * resources_per_slot + resource offset;
    // the occupancy index of the same resource is its layer's slot base
    // plus the same offset.
    let acc = mrrg.accelerator();
    let (pe_count, regs) = (acc.pe_count(), acc.regs_per_pe());
    let per_slot = mrrg.resources_per_slot();
    let state_count = layers * per_slot;
    let resource_offset = |r: Resource| -> usize {
        match r {
            Resource::Fu(p) => p.index(),
            Resource::Reg(p, reg) => pe_count + p.index() * regs + reg as usize,
        }
    };
    scratch.begin(state_count);
    scratch.layer_base.clear();
    scratch
        .layer_base
        .extend((0..layers as u32).map(|k| mrrg.slot(src_time + 1 + k) as usize * per_slot));

    // The moves buffer is taken out of the scratch so the borrow checker
    // allows mutating the search arrays while iterating it; `moves_from`
    // would otherwise allocate on every expansion of the hot loop.
    let mut moves = std::mem::take(&mut scratch.moves);

    // Cone pruning: `hop_distance` is a true lower bound on the link hops
    // a value still needs, so a state at layer `k` whose PE is further
    // than the remaining `layers - k` moves (counting the final consume
    // hop) can never feed the consumer. Pruned states only ever expand to
    // other pruned states, so surviving costs, queue pop order (the total
    // order on `(cost, idx)`), and the chosen route are exactly what the
    // unpruned search would produce. This holds for *any* true lower
    // bound: on big fabrics `hop_distance` comes from a landmark oracle
    // that may under-estimate far distances, which only admits extra
    // dead-end states — never changes the route (tested below against
    // the dense index).
    let reachable =
        |r: Resource, layer: usize| acc.hop_distance(r.pe(), dst_pe) as usize <= layers - layer;

    // Seed layer 0 (cycle src_time + 1) from the producer FU.
    mrrg.moves_from_into(Resource::Fu(src_pe), &mut moves);
    let base = scratch.layer_base[0];
    for &r in &moves {
        if !reachable(r, 0) {
            continue;
        }
        let offset = resource_offset(r);
        let probe = Probe {
            resource: r,
            time: src_time + 1,
            cell: base + offset,
        };
        let Some(step) = step_cost(probe) else {
            continue;
        };
        scratch.relax(offset, step as u32, r, NO_PARENT);
    }

    let mut goal: Option<usize> = None;
    while let Some((cost, idx)) = scratch.queue.pop() {
        if cost > scratch.best(idx) {
            continue;
        }
        let layer = idx / per_slot;
        let r = scratch.resource[idx].expect("visited states hold a resource");
        if layer == layers - 1 {
            // Last intermediate layer: can it feed the consumer? Pops
            // come off the queue in nondecreasing cost order, so the
            // first consumable state is optimal — nothing later in the
            // queue can strictly improve on it.
            if mrrg.can_consume(r, dst_pe) {
                goal = Some(idx);
                break;
            }
            continue;
        }
        let (next_layer, time) = (layer + 1, src_time + 2 + layer as u32);
        let (state_base, cell_base) = (next_layer * per_slot, scratch.layer_base[next_layer]);
        mrrg.moves_from_into(r, &mut moves);
        for &next in &moves {
            if !reachable(next, next_layer) {
                continue;
            }
            let offset = resource_offset(next);
            let probe = Probe {
                resource: next,
                time,
                cell: cell_base + offset,
            };
            let Some(step) = step_cost(probe) else {
                continue;
            };
            scratch.relax(state_base + offset, cost + step as u32, next, idx);
        }
    }

    scratch.moves = moves;

    let goal = goal?;
    // Reconstruct.
    let mut steps = Vec::with_capacity(layers);
    let mut cur = goal;
    loop {
        let layer = cur / per_slot;
        let r = scratch.resource[cur].expect("path states hold a resource");
        steps.push(RouteStep {
            resource: r,
            time: src_time + 1 + layer as u32,
        });
        match scratch.parent[cur] {
            NO_PARENT => break,
            prev => cur = prev,
        }
    }
    steps.reverse();
    Some(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_arch::Accelerator;

    fn any_usable(_probe: Probe) -> Option<StepCost> {
        Some(StepCost::Fresh)
    }

    /// The binary-heap Dijkstra the 0-1 router replaced, kept verbatim
    /// in search order as the differential reference: same layers, same
    /// cone pruning, a `BinaryHeap<Reverse<(cost, idx)>>` queue, and
    /// per-probe `index_at` folding left to the cost callback.
    mod reference {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use lisa_arch::{Mrrg, PeId, Resource};

        use crate::mapping::RouteStep;

        const NO_PARENT: usize = usize::MAX;

        pub fn find_route(
            mrrg: &Mrrg<'_>,
            src_pe: PeId,
            src_time: u32,
            dst_pe: PeId,
            dst_time: u32,
            step_cost: impl Fn(Resource, u32) -> Option<u32>,
        ) -> Option<Vec<RouteStep>> {
            let hops = dst_time - src_time;
            if hops == 1 {
                return mrrg
                    .can_consume(Resource::Fu(src_pe), dst_pe)
                    .then(Vec::new);
            }
            let layers = (hops - 1) as usize;
            let per_slot = mrrg.resources_per_slot();
            let acc = mrrg.accelerator();
            let resource_offset = |r: Resource| -> usize {
                match r {
                    Resource::Fu(p) => p.index(),
                    Resource::Reg(p, reg) => {
                        acc.pe_count() + p.index() * acc.regs_per_pe() + reg as usize
                    }
                }
            };
            let mut best = vec![u32::MAX; layers * per_slot];
            let mut parent = vec![NO_PARENT; layers * per_slot];
            let mut resource = vec![None; layers * per_slot];
            let mut heap = BinaryHeap::new();
            let reachable = |r: Resource, layer: usize| {
                acc.hop_distance(r.pe(), dst_pe) as usize <= layers - layer
            };
            for r in mrrg.moves_from(Resource::Fu(src_pe)) {
                if !reachable(r, 0) {
                    continue;
                }
                let Some(cost) = step_cost(r, src_time + 1) else {
                    continue;
                };
                let idx = resource_offset(r);
                if cost < best[idx] {
                    (best[idx], resource[idx], parent[idx]) = (cost, Some(r), NO_PARENT);
                    heap.push(Reverse((cost, idx as u32)));
                }
            }
            let mut goal = None;
            while let Some(Reverse((cost, idx))) = heap.pop() {
                let idx = idx as usize;
                if cost > best[idx] {
                    continue;
                }
                let layer = idx / per_slot;
                let r = resource[idx].expect("visited");
                let time = src_time + 1 + layer as u32;
                if layer == layers - 1 {
                    if mrrg.can_consume(r, dst_pe) {
                        goal = Some(idx);
                        break;
                    }
                    continue;
                }
                for next in mrrg.moves_from(r) {
                    if !reachable(next, layer + 1) {
                        continue;
                    }
                    let Some(c) = step_cost(next, time + 1) else {
                        continue;
                    };
                    let nidx = (layer + 1) * per_slot + resource_offset(next);
                    if cost + c < best[nidx] {
                        (best[nidx], resource[nidx], parent[nidx]) = (cost + c, Some(next), idx);
                        heap.push(Reverse((cost + c, nidx as u32)));
                    }
                }
            }
            let mut cur = goal?;
            let mut steps = Vec::new();
            loop {
                steps.push(RouteStep {
                    resource: resource[cur].expect("path"),
                    time: src_time + 1 + (cur / per_slot) as u32,
                });
                match parent[cur] {
                    NO_PARENT => break,
                    prev => cur = prev,
                }
            }
            steps.reverse();
            Some(steps)
        }
    }

    /// Occupancy of one cell in the differential test's random grids.
    #[derive(Clone, Copy)]
    enum Occ {
        Free,
        Blocked,
        /// Holds the routed value at this absolute cycle.
        Ours(u32),
    }

    fn occ_cost(grid: &[Occ], cell: usize, time: u32) -> Option<StepCost> {
        match grid[cell] {
            Occ::Free => Some(StepCost::Fresh),
            Occ::Blocked => None,
            Occ::Ours(t) => (t == time).then_some(StepCost::Reuse),
        }
    }

    /// Routes `from -> to` on `grid` with the 0-1 router and with the
    /// reference, asserts both agree (and that every probe's hoisted cell
    /// index equals `index_at`), and returns the route.
    fn route_both(
        scratch: &mut RouterScratch,
        mrrg: &Mrrg<'_>,
        grid: &[Occ],
        (src, src_time): (PeId, u32),
        (dst, dst_time): (PeId, u32),
    ) -> Option<Vec<RouteStep>> {
        let v = NodeId::new(0);
        let got = find_route_in(scratch, mrrg, v, src, src_time, dst, dst_time, |p| {
            assert_eq!(
                p.cell,
                mrrg.index_at(p.resource, p.time),
                "hoisted cell index"
            );
            occ_cost(grid, p.cell, p.time)
        });
        let expected = reference::find_route(mrrg, src, src_time, dst, dst_time, |r, t| {
            occ_cost(grid, mrrg.index_at(r, t), t).map(|c| c as u32)
        });
        assert_eq!(got, expected, "{src}@{src_time} -> {dst}@{dst_time}");
        got
    }

    lisa_rng::props! {
        cases = 160;

        /// The 0-1 router returns exactly the binary-heap reference's
        /// route (or both fail) on random occupancy grids: congestion
        /// (op and foreign cells), stray cells of the same value at
        /// other cycles, a planted fanout prefix the value may reuse for
        /// free, and goals the latency cannot reach. Every probe's
        /// hoisted cell index must equal `index_at`.
        fn zero_one_router_matches_the_heap_reference(
            fabric in 0usize..4,
            ii in 1u32..6,
            src in 0usize..144,
            dst in 0usize..144,
            fanout in 0usize..144,
            src_time in 0u32..5,
            latency in 1u32..16,
            blocked_pct in 0u32..45,
            grid_seed in 0u64..u64::MAX,
        ) {
            let acc = match fabric {
                0 => Accelerator::cgra("4x4", 4, 4),
                1 => Accelerator::cgra("4x4-lr", 4, 4).with_regs_per_pe(1),
                2 => Accelerator::cgra("8x8", 8, 8),
                _ => Accelerator::cgra("12x12", 12, 12),
            };
            let n = acc.pe_count();
            let [src, dst, fanout] = [src, dst, fanout].map(|pe| PeId::new(pe % n));
            let mrrg = Mrrg::new(&acc, ii).unwrap();
            let mut rng = lisa_rng::Rng::seed_from_u64(grid_seed);
            let mut grid: Vec<Occ> = (0..mrrg.resource_count())
                .map(|cell| {
                    let slot = (cell / mrrg.resources_per_slot()) as u32;
                    match rng.gen_range(0..100u32) {
                        x if x < blocked_pct => Occ::Blocked,
                        x if x < blocked_pct + 8 => {
                            Occ::Ours(slot + ii * rng.gen_range(0..6u32))
                        }
                        _ => Occ::Free,
                    }
                })
                .collect();
            let src_fu = mrrg.index_at(Resource::Fu(src), src_time);
            grid[src_fu] = Occ::Blocked;
            let mut scratch = RouterScratch::default();
            // Plant an earlier fanout branch of the same value, as
            // `Mapping::route_edge` would leave it, then route another
            // consumer through the same reused scratch.
            let planted = route_both(
                &mut scratch,
                &mrrg,
                &grid,
                (src, src_time),
                (fanout, src_time + latency + 1),
            );
            for step in planted.iter().flatten() {
                grid[mrrg.index_at(step.resource, step.time)] = Occ::Ours(step.time);
            }
            let dst_time = src_time + latency;
            route_both(&mut scratch, &mrrg, &grid, (src, src_time), (dst, dst_time));
        }
    }

    #[test]
    fn fanout_prefix_is_reused_for_free() {
        // A planted branch 0 -> 3 on a register-less 1x4 line; the second
        // consumer at PE 2 must follow the planted FU(1)@1 step for free
        // rather than occupy a fresh register or FU.
        let acc = Accelerator::cgra("1x4", 1, 4).with_regs_per_pe(0);
        let mrrg = Mrrg::new(&acc, 8).unwrap();
        let planted = [
            (Resource::Fu(PeId::new(1)), 1),
            (Resource::Fu(PeId::new(2)), 2),
        ];
        let cost = |p: Probe| {
            if planted.contains(&(p.resource, p.time)) {
                Some(StepCost::Reuse)
            } else {
                Some(StepCost::Fresh)
            }
        };
        let steps = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(2),
            3,
            cost,
        )
        .unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].resource, Resource::Fu(PeId::new(1)));
        assert_eq!(steps[1].resource, Resource::Fu(PeId::new(2)));
    }

    #[test]
    fn adjacent_direct_route_is_empty() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        let steps = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(1),
            1,
            any_usable,
        )
        .unwrap();
        assert!(steps.is_empty());
    }

    #[test]
    fn non_adjacent_one_hop_fails() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        // PE0 and PE3 are diagonal: not linked.
        let r = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(3),
            1,
            any_usable,
        );
        assert!(r.is_none());
    }

    #[test]
    fn two_cycle_route_crosses_diagonal() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 4).unwrap();
        let steps = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(3),
            2,
            any_usable,
        )
        .unwrap();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].time, 1);
        // Intermediate must be FU(1) or FU(2) (a register on PE0 cannot
        // reach PE3, which is not a neighbour of PE0).
        match steps[0].resource {
            Resource::Fu(p) => assert!(p.index() == 1 || p.index() == 2),
            Resource::Reg(_, _) => panic!("register cannot feed diagonal PE"),
        }
    }

    #[test]
    fn slack_route_waits_in_registers() {
        // Same source and destination PE, 3 cycles apart: hold in regs.
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 8).unwrap();
        let steps = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(0),
            3,
            any_usable,
        )
        .unwrap();
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn blocked_cells_force_detour_or_failure() {
        let acc = Accelerator::cgra("1x3", 1, 3).with_regs_per_pe(0);
        let mrrg = Mrrg::new(&acc, 4).unwrap();
        // 0 -> 2 in 2 cycles must pass FU(1)@1; block it.
        let blocked = |p: Probe| {
            (!(p.resource == Resource::Fu(PeId::new(1)) && p.time == 1)).then_some(StepCost::Fresh)
        };
        let route = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(2),
            2,
            blocked,
        );
        assert!(route.is_none());
        // With 3 cycles there is still no path avoiding FU(1)@1? The value
        // can wait on FU(0)@1 then FU(1)@2 then consume at 3.
        let route3 = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(2),
            3,
            blocked,
        )
        .unwrap();
        assert_eq!(route3.len(), 2);
    }

    #[test]
    fn min_cost_prefers_short_paths() {
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mrrg = Mrrg::new(&acc, 8).unwrap();
        // 0 -> 8 in 4 cycles: exactly Manhattan distance, 3 intermediates.
        let steps = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(8),
            4,
            any_usable,
        )
        .unwrap();
        assert_eq!(steps.len(), 3);
        // All steps must be FU hops on a monotone staircase.
        for s in &steps {
            assert!(s.resource.is_fu());
        }
    }

    /// The result-identity contract of cone pruning: on a fabric big
    /// enough that the landmark oracle is in play (12×12, beyond the
    /// dense auto-threshold) every route — short, long-haul past the
    /// oracle's exact radius, congested, or infeasible — must be
    /// byte-identical to the one found with the exact dense table.
    #[test]
    fn oracle_and_dense_indexes_route_identically() {
        use lisa_arch::DistanceMode;

        let oracle = Accelerator::cgra("12x12", 12, 12);
        let dense = Accelerator::cgra("12x12", 12, 12).with_distance_mode(DistanceMode::Dense);
        assert_eq!(oracle.distance_index_kind(), "oracle");
        assert_eq!(dense.distance_index_kind(), "dense");
        let mrrg_o = Mrrg::new(&oracle, 4).unwrap();
        let mrrg_d = Mrrg::new(&dense, 4).unwrap();

        // Congestion pattern: scattered FUs unusable at odd cycles.
        let congested = |p: Probe| {
            (!(matches!(p.resource, Resource::Fu(pe) if pe.index() % 7 == 3) && p.time % 2 == 1))
                .then_some(StepCost::Fresh)
        };
        // (src, dst, latency): corner-to-corner crosses Manhattan 22,
        // far beyond the oracle's exact radius; the tight case gives the
        // route zero slack; the short case stays inside the exact ball.
        let cases = [
            (0usize, 143usize, 23u32),
            (0, 143, 26),
            (12, 140, 20),
            (5, 5, 3),
            (0, 7, 8),
            (130, 2, 24),
            (0, 143, 12), // infeasible: latency below Manhattan distance
        ];
        for (src, dst, latency) in cases {
            for cost in [
                &any_usable as &dyn Fn(Probe) -> Option<StepCost>,
                &congested,
            ] {
                let ro = find_route(
                    &mrrg_o,
                    NodeId::new(0),
                    PeId::new(src),
                    0,
                    PeId::new(dst),
                    latency,
                    cost,
                );
                let rd = find_route(
                    &mrrg_d,
                    NodeId::new(0),
                    PeId::new(src),
                    0,
                    PeId::new(dst),
                    latency,
                    cost,
                );
                assert_eq!(ro, rd, "route diverged for {src}->{dst}@{latency}");
            }
        }
    }

    #[test]
    fn systolic_direction_respected() {
        let acc = Accelerator::systolic("s", 3, 3);
        let mrrg = Mrrg::new(&acc, 1).unwrap();
        // Leftward route is impossible at any latency (links forward-only,
        // and at II=1 every wait slot collides with itself; use latency 2).
        let back = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(1),
            0,
            PeId::new(0),
            2,
            any_usable,
        );
        assert!(back.is_none());
        // Forward works.
        let fwd = find_route(
            &mrrg,
            NodeId::new(0),
            PeId::new(0),
            0,
            PeId::new(1),
            1,
            any_usable,
        );
        assert!(fwd.is_some());
    }
}
