//! Exact minimum-new-cell routing over the time-expanded MRRG (paper
//! Algorithm 1, line 11: "Route using Dijkstra's algorithm").
//!
//! A route for a dependency `u@(p, t_u) -> v@(q, t_v)` is a chain of
//! resources occupied at consecutive cycles `t_u + 1 .. t_v - 1`, whose
//! last element can feed the consumer FU at `t_v` (or, when
//! `t_v = t_u + 1`, the producer FU feeds the consumer directly). Every
//! hop advances time by exactly one cycle, so the search is layered: layer
//! `k` holds the resources reachable at cycle `t_u + 1 + k`.
//!
//! Costs are the number of *newly occupied* cells: reusing a cell the same
//! value already holds at the same absolute cycle (fanout prefix sharing)
//! is free, which is what makes multi-consumer nets affordable. A step
//! therefore costs 0 or 1, and what it costs depends only on the cell it
//! enters.
//!
//! # Bit-parallel search
//!
//! Occupancy is kept as bitsets ([`Occupancy`]: per modulo slot, one PE
//! bitset for the FUs and one per register index — a *frame* of planes).
//! The search never visits single states. For each layer it computes the
//! nested level sets `L(c, k)` = "states of layer `k` reachable with at
//! most `c` new cells" as frames:
//!
//! `L(c, k+1) = (succ(L(c, k)) ∩ reuse) ∪ (succ(L(c-1, k)) ∩ fresh)`
//!
//! where `succ` applies the [`Mrrg::moves_from`] rules to a whole frame —
//! FU → {neighbour FUs, own FU, own registers}, register → {same
//! register, own FU, neighbour FUs} — as word operations plus one OR of a
//! precomputed neighbour mask per set FU-plane bit, and `fresh`/`reuse`
//! are the layer's free cells and the cells the value itself holds at
//! that cycle. Each layer keeps only the levels between its first
//! nonempty set and the level where it saturates, so a layer without
//! reuse costs one frame.
//!
//! # Why this is Dijkstra's route
//!
//! The route returned is exactly the one a Dijkstra over `(cost, state
//! index)` pops (`tests::reference` keeps that search as the oracle),
//! where a state's index orders layers first, then FUs by PE, then
//! registers by `(PE, register)`:
//!
//! * Dijkstra stops at the first consumable last-layer state it pops,
//!   i.e. the one with the smallest `(cost, index)`. Here: the smallest
//!   `c` whose last-layer set meets the consumer's feeders, then the
//!   smallest index in it.
//! * A state's Dijkstra parent is the first predecessor to relax it to
//!   its final cost. A step's cost depends only on the entered cell, so
//!   every optimal predecessor has the same cost (the state's cost minus
//!   its step cost). All of them lie in one layer and pop in index
//!   order, before any worse predecessor. The parent is therefore the
//!   smallest-index predecessor in that exact level set, which is what
//!   the backward walk picks.
//!
//! Dijkstra's cone pruning by a true hop-distance lower bound never
//! removes a state that can still feed the consumer, so it changes no
//! cost on a route and no pop order among them. This search prunes only
//! at the producer: when even the lower bound exceeds the cycles
//! available it fails at once (the placement is too far apart for its
//! schedule, a common failure), and otherwise it searches unpruned and
//! returns the same route.

use std::fmt;

use lisa_arch::{Accelerator, Mrrg, PeId, Resource};

use crate::mapping::RouteStep;

/// Plane and PE of a resource: plane 0 holds the FUs, plane `1 + r`
/// register `r` of every PE.
fn plane_bit(r: Resource) -> (usize, usize) {
    match r {
        Resource::Fu(p) => (0, p.index()),
        Resource::Reg(p, reg) => (1 + reg as usize, p.index()),
    }
}

/// Word geometry of a frame: one `words`-word PE bitset per plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    words: usize,
    planes: usize,
}

impl Frame {
    fn of(acc: &Accelerator) -> Self {
        Frame {
            words: acc.mask_words(),
            planes: 1 + acc.regs_per_pe(),
        }
    }

    fn len(self) -> usize {
        self.words * self.planes
    }

    /// Position of `(plane, pe)` in a frame, as (word, bit).
    fn locate(self, plane: usize, pe: usize) -> (usize, u64) {
        (plane * self.words + pe / 64, 1 << (pe % 64))
    }
}

/// Busy cells of every modulo slot as bitsets: one frame per slot, a bit
/// set wherever the occupancy grid holds an operation or route traffic.
/// [`crate::Mapping`] keeps one in step with its cells; the router reads
/// its free cells from here.
#[derive(Clone, PartialEq, Eq)]
pub struct Occupancy {
    frame: Frame,
    bits: Vec<u64>,
}

impl fmt::Debug for Occupancy {
    /// Opaque, like [`RouterScratch`]: the bitsets mirror the occupancy
    /// grid, which `Mapping`'s debug rendering already shows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Occupancy")
    }
}

impl Occupancy {
    /// All cells of `mrrg` free.
    pub fn new(mrrg: &Mrrg<'_>) -> Self {
        let frame = Frame::of(mrrg.accelerator());
        Occupancy {
            frame,
            bits: vec![0; mrrg.ii() as usize * frame.len()],
        }
    }

    fn locate(&self, mrrg: &Mrrg<'_>, r: Resource, t: u32) -> (usize, u64) {
        let (plane, pe) = plane_bit(r);
        let (w, bit) = self.frame.locate(plane, pe);
        (mrrg.slot(t) as usize * self.frame.len() + w, bit)
    }

    /// Marks the cell of `r` at absolute cycle `t` busy.
    pub fn occupy(&mut self, mrrg: &Mrrg<'_>, r: Resource, t: u32) {
        let (w, bit) = self.locate(mrrg, r, t);
        self.bits[w] |= bit;
    }

    /// Marks the cell of `r` at absolute cycle `t` free.
    pub fn release(&mut self, mrrg: &Mrrg<'_>, r: Resource, t: u32) {
        let (w, bit) = self.locate(mrrg, r, t);
        self.bits[w] &= !bit;
    }

    /// Whether the cell of `r` at absolute cycle `t` is busy.
    pub fn is_busy(&self, mrrg: &Mrrg<'_>, r: Resource, t: u32) -> bool {
        let (w, bit) = self.locate(mrrg, r, t);
        self.bits[w] & bit != 0
    }
}

/// The level sets of one layer: frames `first..first + count` of
/// [`RouterScratch::levels`] hold `L(cmin, k) ⊆ … ⊆ L(cmin + count - 1,
/// k)`; below `cmin` the set is empty, above it stays the last frame.
/// Every frame is zero outside words `span`.
#[derive(Debug, Clone, Copy)]
struct Layer {
    first: usize,
    cmin: u32,
    count: u32,
    span: (usize, usize),
}

impl Layer {
    /// Frame index of `L(c, k)`, or `None` when that set is empty.
    fn level(&self, c: u32) -> Option<usize> {
        let idx = c.checked_sub(self.cmin)?.min(self.count - 1);
        Some(self.first + idx as usize)
    }
}

/// Reusable search buffers, owned by each [`crate::Mapping`] so the
/// annealer's millions of `route_edge` calls stop reallocating.
#[derive(Clone, Default)]
pub struct RouterScratch {
    /// Per route layer, the cells the value already holds at that cycle.
    reuse: Vec<u64>,
    /// Per route layer, the frame offset of its modulo slot in the
    /// occupancy bitsets, and whether the value holds a cell there.
    cycles: Vec<(usize, bool)>,
    /// Level-set frames of every layer (see [`Layer`]).
    levels: Vec<u64>,
    /// Layer 0 is the producer FU alone; layer `k + 1` is route step `k`.
    layers: Vec<Layer>,
    /// Successors of the levels expanded so far.
    succ: Vec<u64>,
}

impl fmt::Debug for RouterScratch {
    /// Opaque by design: scratch contents are transient search state, and
    /// including them in `Mapping`'s debug rendering would break the
    /// byte-identity contracts (rollback equivalence, run determinism).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RouterScratch")
    }
}

/// Grows `span` to cover words `lo..hi`.
fn widen(span: &mut (usize, usize), lo: usize, hi: usize) {
    *span = (span.0.min(lo), span.1.max(hi));
}

/// ORs into `succ` the successors of the states in `cur` but not in
/// `prev` (one layer's frames, zero outside `span`), widening
/// `succ_span` over the words written.
fn expand(
    acc: &Accelerator,
    f: Frame,
    (cur, prev): (&[u64], Option<&[u64]>),
    span: (usize, usize),
    succ: &mut [u64],
    succ_span: &mut (usize, usize),
) {
    let w = f.words;
    let new = |i: usize| cur[i] & !prev.map_or(0, |p| p[i]);
    for i in span.0..span.1 {
        let fu = new(i);
        let mut any = fu;
        for plane in 1..f.planes {
            let reg = new(plane * w + i);
            any |= reg;
            // An FU writes any own register; a register holds.
            succ[plane * w + i] |= fu | reg;
        }
        if any == 0 {
            continue;
        }
        // Every state drives its own FU and the neighbour FUs.
        succ[i] |= any;
        widen(succ_span, i, i + 1);
        let mut bits = any;
        while bits != 0 {
            let pe = i * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (first, mask) = acc.out_mask(PeId::new(pe));
            for (j, m) in mask.iter().enumerate() {
                succ[first + j] |= m;
            }
            widen(succ_span, first, first + mask.len());
        }
    }
}

/// The lowest PE in `set` (one plane's words) among `{extra} ∪ mask`,
/// where `mask` is a trimmed PE bitset from [`Accelerator::in_mask`].
fn lowest_pe(
    set: impl Fn(usize) -> u64,
    (first, mask): (usize, &[u64]),
    extra: usize,
) -> Option<usize> {
    let lo = first.min(extra / 64);
    let hi = (first + mask.len()).max(extra / 64 + 1);
    (lo..hi).find_map(|i| {
        let mut allowed = i
            .checked_sub(first)
            .and_then(|j| mask.get(j))
            .copied()
            .unwrap_or(0);
        if i == extra / 64 {
            allowed |= 1 << (extra % 64);
        }
        let hit = set(i) & allowed;
        (hit != 0).then(|| i * 64 + hit.trailing_zeros() as usize)
    })
}

/// The lowest-index state of `set` (a frame, read word by word) that
/// can feed the FU of `q` in the next cycle: FUs before registers,
/// registers by `(PE, register)`.
fn lowest_feeder(
    acc: &Accelerator,
    f: Frame,
    set: impl Fn(usize) -> u64,
    q: PeId,
) -> Option<Resource> {
    let feeders = acc.in_mask(q);
    if let Some(pe) = lowest_pe(&set, feeders, q.index()) {
        return Some(Resource::Fu(PeId::new(pe)));
    }
    let regs = |i: usize| (1..f.planes).fold(0, |acc, plane| acc | set(plane * f.words + i));
    let pe = lowest_pe(regs, feeders, q.index())?;
    let (w, bit) = f.locate(0, pe);
    let plane = (1..f.planes).find(|&plane| set(plane * f.words + w) & bit != 0)?;
    Some(Resource::Reg(PeId::new(pe), (plane - 1) as u8))
}

/// Finds a minimum-new-cost route with a throwaway scratch. Convenience
/// wrapper over [`find_route_in`] for one-off calls and tests; hot paths
/// (the annealer) reuse a scratch instead.
pub fn find_route(
    mrrg: &Mrrg<'_>,
    busy: &Occupancy,
    held: impl IntoIterator<Item = RouteStep>,
    src: (PeId, u32),
    dst: (PeId, u32),
) -> Option<Vec<RouteStep>> {
    find_route_in(&mut RouterScratch::default(), mrrg, busy, held, src, dst)
}

/// Finds a minimum-new-cost route for a value produced on the FU of
/// `src.0` at cycle `src.1` and consumed by the FU of `dst.0` at cycle
/// `dst.1`.
///
/// `busy` marks every cell held by an operation or by route traffic;
/// `held` lists the route steps the value itself already occupies (its
/// other fanout branches). A held cell is free to reuse at the step's own
/// absolute cycle and blocked at any other; a free cell costs one.
///
/// Returns the intermediate steps (empty when the consumer is directly
/// adjacent one cycle later), or `None` if no conflict-free path exists
/// or the timing is not causal.
pub fn find_route_in(
    scratch: &mut RouterScratch,
    mrrg: &Mrrg<'_>,
    busy: &Occupancy,
    held: impl IntoIterator<Item = RouteStep>,
    (src_pe, src_time): (PeId, u32),
    (dst_pe, dst_time): (PeId, u32),
) -> Option<Vec<RouteStep>> {
    let hops = dst_time.checked_sub(src_time).filter(|&h| h > 0)?;
    if hops == 1 {
        // Direct consumption: producer FU must be adjacent to consumer.
        return mrrg
            .can_consume(Resource::Fu(src_pe), dst_pe)
            .then(Vec::new);
    }
    let acc = mrrg.accelerator();
    let f = Frame::of(acc);
    if busy.frame != f || busy.bits.len() != mrrg.ii() as usize * f.len() {
        return None;
    }
    // A value crosses at most one link per cycle, the consume included.
    if acc.hop_distance(src_pe, dst_pe) > hops {
        return None;
    }
    let steps = (hops - 1) as usize;
    let RouterScratch {
        reuse,
        cycles,
        levels,
        layers,
        succ,
    } = scratch;

    cycles.clear();
    cycles
        .extend((0..steps as u32).map(|k| (mrrg.slot(src_time + 1 + k) as usize * f.len(), false)));
    reuse.clear();
    reuse.resize(steps * f.len(), 0);
    for s in held {
        let Some(k) = s.time.checked_sub(src_time + 1).map(|k| k as usize) else {
            continue;
        };
        if k < steps {
            let (plane, pe) = plane_bit(s.resource);
            let (w, bit) = f.locate(plane, pe);
            // Only a busy cell can be held.
            let held = bit & busy.bits[cycles[k].0 + w];
            reuse[k * f.len() + w] |= held;
            cycles[k].1 |= held != 0;
        }
    }

    // Layer 0: the producer FU at cost 0.
    levels.clear();
    levels.resize(f.len(), 0);
    let (w, bit) = f.locate(0, src_pe.index());
    levels[w] = bit;
    layers.clear();
    layers.push(Layer {
        first: 0,
        cmin: 0,
        count: 1,
        span: (w, w + 1),
    });
    succ.resize(f.len(), 0);

    for k in 0..steps {
        let below = layers[k];
        let reuse_k = &reuse[k * f.len()..(k + 1) * f.len()];
        let (base, reused) = cycles[k];
        let fresh = |i: usize| !busy.bits[base + i];
        succ.fill(0);
        let mut span = (usize::MAX, 0);
        let mut layer = Layer {
            first: levels.len() / f.len(),
            cmin: 0,
            count: 0,
            span: (0, 0),
        };
        let top = below.cmin + below.count;
        for c in below.cmin..=top {
            // succ holds the successors of L(c - 1, k) here; it is empty
            // at the first level, whose set is then only reused cells.
            let at = levels.len();
            let frame = layer.count > 0 || c > below.cmin || reused;
            if frame {
                levels.resize(at + f.len(), 0);
                for plane in 0..f.planes {
                    for w in span.0..span.1 {
                        let i = plane * f.words + w;
                        levels[at + i] = succ[i] & fresh(i);
                    }
                }
            }
            if c < top {
                let cur = (below.first + (c - below.cmin) as usize) * f.len();
                let prev = (c > below.cmin).then(|| cur - f.len());
                let (done, _) = levels.split_at(at);
                expand(
                    acc,
                    f,
                    (
                        &done[cur..cur + f.len()],
                        prev.map(|p| &done[p..p + f.len()]),
                    ),
                    below.span,
                    succ,
                    &mut span,
                );
            }
            if !frame {
                continue;
            }
            if reused {
                for plane in 0..f.planes {
                    for w in span.0..span.1 {
                        let i = plane * f.words + w;
                        levels[at + i] |= succ[i] & reuse_k[i];
                    }
                }
            }
            if layer.count == 0 {
                if levels[at..].iter().all(|&x| x == 0) {
                    levels.truncate(at);
                    continue;
                }
                layer.cmin = c;
            }
            layer.count += 1;
        }
        if layer.count == 0 {
            // Nothing reachable at this cycle.
            return None;
        }
        // Drop the saturated tail: levels are nested, so a frame equal to
        // the top one is equal to every frame between them.
        while layer.count > 1 {
            let end = levels.len();
            let (rest, last) = levels.split_at(end - f.len());
            if rest[end - 2 * f.len()..] != *last {
                break;
            }
            levels.truncate(end - f.len());
            layer.count -= 1;
        }
        layer.span = span;
        layers.push(layer);
    }

    // The goal: the consumable last-layer state of least (cost, index).
    let last = layers[steps];
    let (goal_level, goal) = (last.cmin..last.cmin + last.count).find_map(|c| {
        let at = last.level(c)? * f.len();
        lowest_feeder(acc, f, |i| levels[at + i], dst_pe).map(|r| (c, r))
    })?;

    // Walk back: at each state, the smallest-index predecessor whose cost
    // is this state's cost minus its step cost.
    let mut route = Vec::with_capacity(steps);
    let (mut cur, mut cost) = (goal, goal_level);
    for k in (1..=steps).rev() {
        route.push(RouteStep {
            resource: cur,
            time: src_time + k as u32,
        });
        if k == 1 {
            break;
        }
        let (plane, pe) = plane_bit(cur);
        let (w, bit) = f.locate(plane, pe);
        let reused = reuse[(k - 1) * f.len() + w] & bit != 0;
        cost = cost.checked_sub(u32::from(!reused))?;
        let layer = layers[k - 1];
        let at = layer.level(cost)? * f.len();
        let below = cost.checked_sub(1).and_then(|c| layer.level(c));
        let exact = |i: usize| levels[at + i] & !below.map_or(0, |b| levels[b * f.len() + i]);
        cur = match cur {
            Resource::Fu(q) => lowest_feeder(acc, f, exact, q)?,
            Resource::Reg(q, reg) => {
                let (w, bit) = f.locate(0, q.index());
                if exact(w) & bit != 0 {
                    Resource::Fu(q)
                } else if exact(plane * f.words + w) & bit != 0 {
                    Resource::Reg(q, reg)
                } else {
                    return None;
                }
            }
        };
    }
    route.reverse();
    Some(route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_arch::{Accelerator, Interconnect};

    /// The binary-heap Dijkstra this router replaced, kept in search
    /// order as the differential reference: same layers, same cone
    /// pruning, a `BinaryHeap<Reverse<(cost, idx)>>` queue, and a
    /// per-probe cost callback.
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

    /// An empty grid.
    fn free(mrrg: &Mrrg<'_>) -> Occupancy {
        Occupancy::new(mrrg)
    }

    /// Routes over `busy` with nothing of the value's own to reuse.
    fn route(
        mrrg: &Mrrg<'_>,
        busy: &Occupancy,
        (src, src_time): (usize, u32),
        (dst, dst_time): (usize, u32),
    ) -> Option<Vec<RouteStep>> {
        find_route(
            mrrg,
            busy,
            [],
            (PeId::new(src), src_time),
            (PeId::new(dst), dst_time),
        )
    }

    /// Occupancy of one cell in the differential test's random grids.
    #[derive(Clone, Copy)]
    enum Occ {
        Free,
        Blocked,
        /// Holds the routed value at this absolute cycle.
        Ours(u32),
    }

    /// The resource of occupancy-table cell `cell` (inverse of the
    /// offset part of [`Mrrg::index_at`]).
    fn resource_of(mrrg: &Mrrg<'_>, cell: usize) -> Resource {
        let acc = mrrg.accelerator();
        let (n, regs) = (acc.pe_count(), acc.regs_per_pe());
        match cell % mrrg.resources_per_slot() {
            o if o < n => Resource::Fu(PeId::new(o)),
            o => Resource::Reg(PeId::new((o - n) / regs), ((o - n) % regs) as u8),
        }
    }

    /// Routes `from -> to` on `grid` with the layered router, reading the
    /// grid through the same bitset view `Mapping` keeps, and with the
    /// heap reference, asserts both agree, and returns the route.
    fn route_both(
        scratch: &mut RouterScratch,
        mrrg: &Mrrg<'_>,
        grid: &[Occ],
        (src, src_time): (PeId, u32),
        (dst, dst_time): (PeId, u32),
    ) -> Option<Vec<RouteStep>> {
        let mut busy = Occupancy::new(mrrg);
        let mut held = Vec::new();
        for (cell, occ) in grid.iter().enumerate() {
            let r = resource_of(mrrg, cell);
            let slot = (cell / mrrg.resources_per_slot()) as u32;
            assert_eq!(mrrg.index_at(r, slot), cell);
            match *occ {
                Occ::Free => {}
                Occ::Blocked => busy.occupy(mrrg, r, slot),
                Occ::Ours(time) => {
                    busy.occupy(mrrg, r, time);
                    held.push(RouteStep { resource: r, time });
                }
            }
        }
        let got = find_route_in(scratch, mrrg, &busy, held, (src, src_time), (dst, dst_time));
        let expected = reference::find_route(mrrg, src, src_time, dst, dst_time, |r, t| match grid
            [mrrg.index_at(r, t)]
        {
            Occ::Free => Some(1),
            Occ::Blocked => None,
            Occ::Ours(held) => (held == t).then_some(0),
        });
        assert_eq!(got, expected, "{src}@{src_time} -> {dst}@{dst_time}");
        got
    }

    lisa_rng::props! {
        cases = 240;

        /// The layered router returns exactly the binary-heap reference's
        /// route (or both fail) on random occupancy grids: congestion
        /// (op and foreign cells), stray cells of the same value at
        /// other cycles, a planted fanout prefix the value may reuse for
        /// free, and goals the latency cannot reach. Fabrics cover
        /// directed links (systolic), long links (multi-hop), no
        /// registers, one-word (8×8 = 64 PEs) and multi-word bitsets
        /// (9×9, 12×12 and 16×16, the last two on the landmark oracle).
        fn zero_one_router_matches_the_heap_reference(
            fabric in 0usize..9,
            ii in 1u32..6,
            src in 0usize..256,
            dst in 0usize..256,
            fanout in 0usize..256,
            src_time in 0u32..5,
            latency in 1u32..16,
            blocked_pct in 0u32..45,
            grid_seed in 0u64..u64::MAX,
        ) {
            let acc = match fabric {
                0 => Accelerator::cgra("4x4", 4, 4),
                1 => Accelerator::cgra("4x4-lr", 4, 4).with_regs_per_pe(1),
                2 => Accelerator::cgra("4x4-r0", 4, 4).with_regs_per_pe(0),
                3 => Accelerator::systolic("systolic-5x5", 5, 5),
                4 => Accelerator::cgra("5x5-hop2", 5, 5)
                    .with_interconnect(Interconnect::MultiHop { radius: 2 }),
                5 => Accelerator::cgra("8x8", 8, 8),
                6 => Accelerator::cgra("9x9", 9, 9),
                7 => Accelerator::cgra("12x12", 12, 12),
                _ => Accelerator::cgra("16x16", 16, 16),
            };
            let n = acc.pe_count();
            let [src, dst, fanout] = [src, dst, fanout].map(|pe| PeId::new(pe % n));
            let mrrg = Mrrg::new(&acc, ii.min(acc.max_ii())).unwrap();
            let ii = mrrg.ii();
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
            RouteStep {
                resource: Resource::Fu(PeId::new(1)),
                time: 1,
            },
            RouteStep {
                resource: Resource::Fu(PeId::new(2)),
                time: 2,
            },
        ];
        let mut busy = free(&mrrg);
        for s in &planted {
            busy.occupy(&mrrg, s.resource, s.time);
        }
        let steps =
            find_route(&mrrg, &busy, planted, (PeId::new(0), 0), (PeId::new(2), 3)).unwrap();
        assert_eq!(steps, planted);
        // Without the branch held, its cells are foreign and the route
        // waits on FU(0) instead.
        let detour = route(&mrrg, &busy, (0, 0), (2, 3)).unwrap();
        assert_eq!(detour[0].resource, Resource::Fu(PeId::new(0)));
    }

    #[test]
    fn adjacent_direct_route_is_empty() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        let steps = route(&mrrg, &free(&mrrg), (0, 0), (1, 1)).unwrap();
        assert!(steps.is_empty());
    }

    #[test]
    fn non_adjacent_one_hop_fails() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        // PE0 and PE3 are diagonal: not linked.
        assert!(route(&mrrg, &free(&mrrg), (0, 0), (3, 1)).is_none());
    }

    #[test]
    fn non_causal_timing_fails() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        assert!(route(&mrrg, &free(&mrrg), (0, 3), (1, 3)).is_none());
        assert!(route(&mrrg, &free(&mrrg), (0, 3), (1, 1)).is_none());
    }

    #[test]
    fn foreign_occupancy_geometry_fails() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let lr = Accelerator::cgra("2x2-lr", 2, 2).with_regs_per_pe(1);
        let ms = Mrrg::new(&acc, 2).unwrap();
        for other in [Mrrg::new(&acc, 3).unwrap(), Mrrg::new(&lr, 2).unwrap()] {
            assert!(route(&ms, &free(&other), (0, 0), (3, 2)).is_none());
        }
        assert!(route(&ms, &free(&ms), (0, 0), (3, 2)).is_some());
    }

    #[test]
    fn two_cycle_route_crosses_diagonal() {
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mrrg = Mrrg::new(&acc, 4).unwrap();
        let steps = route(&mrrg, &free(&mrrg), (0, 0), (3, 2)).unwrap();
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
        let steps = route(&mrrg, &free(&mrrg), (0, 0), (0, 3)).unwrap();
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn blocked_cells_force_detour_or_failure() {
        let acc = Accelerator::cgra("1x3", 1, 3).with_regs_per_pe(0);
        let mrrg = Mrrg::new(&acc, 4).unwrap();
        // 0 -> 2 in 2 cycles must pass FU(1)@1; block it.
        let mut busy = free(&mrrg);
        busy.occupy(&mrrg, Resource::Fu(PeId::new(1)), 1);
        assert!(route(&mrrg, &busy, (0, 0), (2, 2)).is_none());
        // With 3 cycles the value can wait on FU(0)@1, then FU(1)@2, then
        // be consumed at 3.
        let route3 = route(&mrrg, &busy, (0, 0), (2, 3)).unwrap();
        assert_eq!(route3.len(), 2);
    }

    #[test]
    fn min_cost_prefers_short_paths() {
        let acc = Accelerator::cgra("3x3", 3, 3);
        let mrrg = Mrrg::new(&acc, 8).unwrap();
        // 0 -> 8 in 4 cycles: exactly Manhattan distance, 3 intermediates.
        let steps = route(&mrrg, &free(&mrrg), (0, 0), (8, 4)).unwrap();
        assert_eq!(steps.len(), 3);
        // All steps must be FU hops on a monotone staircase.
        for s in &steps {
            assert!(s.resource.is_fu());
        }
    }

    /// Routes are independent of the hop-distance index: on a fabric big
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
        let mut congested = free(&mrrg_o);
        for pe in (0..144).filter(|pe| pe % 7 == 3) {
            for t in [1, 3] {
                congested.occupy(&mrrg_o, Resource::Fu(PeId::new(pe)), t);
            }
        }
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
            for busy in [&free(&mrrg_o), &congested] {
                let ro = route(&mrrg_o, busy, (src, 0), (dst, latency));
                let rd = route(&mrrg_d, busy, (src, 0), (dst, latency));
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
        assert!(route(&mrrg, &free(&mrrg), (1, 0), (0, 2)).is_none());
        // Forward works.
        assert!(route(&mrrg, &free(&mrrg), (0, 0), (1, 1)).is_some());
    }
}
