//! Benches for the bit-parallel layered router over the time-expanded
//! MRRG.
//!
//! Every row routes through one reused `RouterScratch` over an
//! `Occupancy` bitset view, as `Mapping::route_edge` does inside the
//! annealer, so the rows time the search itself rather than allocating
//! fresh state.

use lisa_arch::{Accelerator, Mrrg, PeId, Resource};
use lisa_bench::timing::Suite;
use lisa_mapper::router::{find_route_in, Occupancy};
use lisa_mapper::{RouteStep, RouterScratch};

/// Routes `src@0 -> dst@latency` through `scratch`, reusing `held` for
/// free.
fn route(
    scratch: &mut RouterScratch,
    mrrg: &Mrrg<'_>,
    busy: &Occupancy,
    held: &[RouteStep],
    (src, dst, latency): (usize, usize, u32),
) -> Option<Vec<RouteStep>> {
    let (src, dst) = (PeId::new(src), PeId::new(dst));
    find_route_in(
        scratch,
        mrrg,
        busy,
        held.iter().copied(),
        (src, 0),
        (dst, latency),
    )
}

/// `mrrg`'s grid with the FU of every PE matching `blocked` busy in
/// every slot.
fn blocked_fus(mrrg: &Mrrg<'_>, blocked: impl Fn(PeId) -> bool) -> Occupancy {
    let mut busy = Occupancy::new(mrrg);
    for pe in (0..mrrg.accelerator().pe_count()).map(PeId::new) {
        if blocked(pe) {
            for t in 0..mrrg.ii() {
                busy.occupy(mrrg, Resource::Fu(pe), t);
            }
        }
    }
    busy
}

fn main() {
    let mut suite = Suite::from_args("router");
    let mut scratch = RouterScratch::default();

    let acc = Accelerator::cgra("4x4", 4, 4);
    let mrrg = Mrrg::new(&acc, 4).unwrap();
    let free4 = Occupancy::new(&mrrg);
    suite.bench("adjacent_4x4", || {
        std::hint::black_box(route(&mut scratch, &mrrg, &free4, &[], (5, 6, 1)));
    });

    let acc8 = Accelerator::cgra("8x8", 8, 8);
    let mrrg8 = Mrrg::new(&acc8, 8).unwrap();
    let free8 = Occupancy::new(&mrrg8);
    suite.bench("corner_to_corner_8x8", || {
        std::hint::black_box(route(&mut scratch, &mrrg8, &free8, &[], (0, 63, 14)));
    });

    let mrrg6 = Mrrg::new(&acc, 6).unwrap();
    // Only even-index FUs usable: forces detours.
    let congested = blocked_fus(&mrrg6, |pe| pe.index() % 2 == 1);
    suite.bench("congested_4x4", || {
        std::hint::black_box(route(&mut scratch, &mrrg6, &congested, &[], (0, 10, 8)));
    });

    // A failing search, the common case at infeasible IIs: column 2's
    // FUs are busy in every slot, so nothing crosses from the left half
    // (a register is only reachable through its own PE's FU).
    let wall = blocked_fus(&mrrg, |pe| acc.coord(pe).col == 2);
    assert!(route(&mut scratch, &mrrg, &wall, &[], (0, 15, 8)).is_none());
    suite.bench("blocked_4x4", || {
        std::hint::black_box(route(&mut scratch, &mrrg, &wall, &[], (0, 15, 8)));
    });

    // A second consumer of a value already routed corner to corner: the
    // planted branch's cells cost nothing at their own cycle (fanout
    // reuse), so the search mixes free and fresh steps.
    let branch =
        route(&mut scratch, &mrrg8, &free8, &[], (0, 63, 14)).expect("corner route exists");
    let mut held8 = Occupancy::new(&mrrg8);
    for s in &branch {
        held8.occupy(&mrrg8, s.resource, s.time);
    }
    let second =
        route(&mut scratch, &mrrg8, &held8, &branch, (0, 59, 13)).expect("second consumer routes");
    assert!(
        second.iter().any(|s| branch.contains(s)),
        "the second consumer shares the planted prefix"
    );
    suite.bench("fanout_reuse_8x8", || {
        std::hint::black_box(route(&mut scratch, &mrrg8, &held8, &branch, (0, 59, 13)));
    });

    // Multi-word bitsets: 1024 PEs, sixteen words per plane.
    let acc32 = Accelerator::cgra("32x32", 32, 32);
    let mrrg32 = Mrrg::new(&acc32, 8).unwrap();
    let free32 = Occupancy::new(&mrrg32);
    assert!(route(&mut scratch, &mrrg32, &free32, &[], (0, 1023, 64)).is_some());
    suite.bench("corner_to_corner_32x32", || {
        std::hint::black_box(route(&mut scratch, &mrrg32, &free32, &[], (0, 1023, 64)));
    });

    suite.finish();
}
