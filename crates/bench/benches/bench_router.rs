//! Benches for the 0-1 Dijkstra router over the time-expanded MRRG.
//!
//! Every row routes through one reused `RouterScratch`, as
//! `Mapping::route_edge` does inside the annealer, so the rows time the
//! search itself rather than allocating and zeroing fresh state arrays.

use lisa_arch::{Accelerator, Mrrg, PeId, Resource};
use lisa_bench::timing::Suite;
use lisa_dfg::NodeId;
use lisa_mapper::router::{find_route_in, Probe, StepCost};
use lisa_mapper::{RouteStep, RouterScratch};

/// Routes `src@0 -> dst@latency` through `scratch`.
fn route(
    scratch: &mut RouterScratch,
    mrrg: &Mrrg<'_>,
    (src, dst, latency): (usize, usize, u32),
    cost: impl Fn(Probe) -> Option<StepCost>,
) -> Option<Vec<RouteStep>> {
    let (src, dst) = (PeId::new(src), PeId::new(dst));
    find_route_in(scratch, mrrg, NodeId::new(0), src, 0, dst, latency, cost)
}

fn main() {
    let mut suite = Suite::from_args("router");
    let mut scratch = RouterScratch::default();
    let fresh = |_p: Probe| Some(StepCost::Fresh);

    let acc = Accelerator::cgra("4x4", 4, 4);
    let mrrg = Mrrg::new(&acc, 4).unwrap();
    suite.bench("adjacent_4x4", || {
        std::hint::black_box(route(&mut scratch, &mrrg, (5, 6, 1), fresh));
    });

    let acc8 = Accelerator::cgra("8x8", 8, 8);
    let mrrg8 = Mrrg::new(&acc8, 8).unwrap();
    suite.bench("corner_to_corner_8x8", || {
        std::hint::black_box(route(&mut scratch, &mrrg8, (0, 63, 14), fresh));
    });

    let mrrg6 = Mrrg::new(&acc, 6).unwrap();
    // Only even-index PEs usable: forces detours.
    let filter = |p: Probe| match p.resource {
        Resource::Fu(pe) if pe.index() % 2 == 1 => None,
        _ => Some(StepCost::Fresh),
    };
    suite.bench("congested_4x4", || {
        std::hint::black_box(route(&mut scratch, &mrrg6, (0, 10, 8), filter));
    });

    // A second consumer of a value already routed corner to corner: the
    // planted branch's cells cost nothing at their own cycle (fanout
    // reuse), so the search mixes free and fresh steps.
    let branch = route(&mut scratch, &mrrg8, (0, 63, 14), fresh).expect("corner route exists");
    let mut held = vec![None; mrrg8.resource_count()];
    for s in &branch {
        held[mrrg8.index_at(s.resource, s.time)] = Some(s.time);
    }
    let reuse = |p: Probe| match held[p.cell] {
        None => Some(StepCost::Fresh),
        Some(t) => (t == p.time).then_some(StepCost::Reuse),
    };
    let second = route(&mut scratch, &mrrg8, (0, 59, 13), reuse).expect("second consumer routes");
    assert!(
        second
            .iter()
            .any(|s| held[mrrg8.index_at(s.resource, s.time)] == Some(s.time)),
        "the second consumer shares the planted prefix"
    );
    suite.bench("fanout_reuse_8x8", || {
        std::hint::black_box(route(&mut scratch, &mrrg8, (0, 59, 13), reuse));
    });

    suite.finish();
}
