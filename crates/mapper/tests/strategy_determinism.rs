//! Determinism contract of the heterogeneous lane race.
//!
//! Three layers of pinning:
//!
//! * **Golden digests** — four SA lanes (`sa,sa,sa,sa`) must stay
//!   byte-identical to the mapper that preceded the lane race. The digests
//!   below were captured by running the pre-refactor four-chain
//!   portfolio (`SaParams::paper()`) on this exact suite.
//! * **Rerun identity** — every strategy mix maps byte-identically when
//!   run twice in the same process.
//! * **Thread-count invariance** — an II search over the mixed lane list
//!   returns the same bytes for II-wave `parallelism` 1, 2, and 4: lane
//!   seeds derive from lane indices, and every wave is joined before the
//!   lowest successful II is judged.

use lisa_arch::Accelerator;
use lisa_dfg::{polybench, Dfg, OpKind};
use lisa_mapper::{
    GuidanceLabels, IiMapper, IiSearch, LabelSaMapper, Mapping, SaMapper, SaParams, SearchReport,
    StrategySpec,
};

/// FNV-1a over every placement and route step: byte-level identity of
/// the mapping, independent of `Debug` formatting.
fn digest(m: &Mapping) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let put = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in m.dfg().node_ids() {
        match m.placement(v) {
            Some(p) => {
                put(&mut h, 1);
                put(&mut h, p.pe.index() as u64);
                put(&mut h, u64::from(p.time));
            }
            None => put(&mut h, 0),
        }
    }
    for e in m.dfg().edge_ids() {
        match m.route(e) {
            Some(steps) => {
                put(&mut h, steps.len() as u64);
                for s in steps {
                    let (kind, pe, reg) = match s.resource {
                        lisa_arch::Resource::Fu(p) => (1u64, p.index() as u64, 0u64),
                        lisa_arch::Resource::Reg(p, r) => (2u64, p.index() as u64, u64::from(r)),
                    };
                    put(&mut h, kind);
                    put(&mut h, pe);
                    put(&mut h, reg);
                    put(&mut h, u64::from(s.time));
                }
            }
            None => put(&mut h, u64::MAX),
        }
    }
    h
}

fn chain_dfg() -> Dfg {
    let mut g = Dfg::new("chain4");
    let a = g.add_node(OpKind::Load, "a");
    let b = g.add_node(OpKind::Add, "b");
    let c = g.add_node(OpKind::Mul, "c");
    let d = g.add_node(OpKind::Store, "d");
    g.add_data_edge(a, b).unwrap();
    g.add_data_edge(b, c).unwrap();
    g.add_data_edge(c, d).unwrap();
    g
}

/// `(name, dfg, acc, ii, seed, sa_digest, label_sa_digest)` — digests
/// captured from the pre-refactor portfolio (see module docs).
fn golden_suite() -> Vec<(&'static str, Dfg, Accelerator, u32, u64, u64, u64)> {
    let acc3 = Accelerator::cgra("3x3", 3, 3);
    let acc2 = Accelerator::cgra("2x2", 2, 2);
    let doitgen = polybench::kernel("doitgen").unwrap();
    vec![
        (
            "doitgen/3x3/ii3/seed7",
            doitgen.clone(),
            acc3.clone(),
            3,
            7,
            11412025636391995084,
            17301522656703535662,
        ),
        (
            "doitgen/3x3/ii3/seed42",
            doitgen,
            acc3,
            3,
            42,
            5232973181229138593,
            6783208404875980690,
        ),
        (
            "chain/2x2/ii2/seed9",
            chain_dfg(),
            acc2,
            2,
            9,
            4772941992497756841,
            225515969889060149,
        ),
    ]
}

/// The lane list the golden digests were captured with.
fn four_sa_lanes() -> StrategySpec {
    StrategySpec::parse("sa,sa,sa,sa").unwrap()
}

#[test]
fn default_strategy_matches_pre_refactor_golden_digests() {
    for (name, dfg, acc, ii, seed, sa_digest, label_digest) in golden_suite() {
        let sa = SaMapper::new(SaParams::paper(), seed).with_strategy(four_sa_lanes());
        let m = sa.map_at_ii(&dfg, &acc, ii).expect("golden case maps");
        assert_eq!(digest(&m), sa_digest, "SA digest drifted on {name}");

        let label = LabelSaMapper::new(GuidanceLabels::initial(&dfg), SaParams::paper(), seed)
            .with_strategy(four_sa_lanes());
        let m = label.map_at_ii(&dfg, &acc, ii).expect("golden case maps");
        assert_eq!(digest(&m), label_digest, "LabelSA digest drifted on {name}");
    }
}

#[test]
fn explicit_strategy_sa_is_byte_identical_to_the_default() {
    // One `sa` lane is the default spec, so `--strategy sa` builds the
    // very mapper the default does.
    assert_eq!(StrategySpec::default(), StrategySpec::parse("sa").unwrap());
}

#[test]
fn mixed_portfolio_is_rerun_and_thread_count_invariant() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let dfg = polybench::kernel("gemm").unwrap();
    let mixed = StrategySpec::parse("mixed").unwrap();
    let search = IiSearch { max_ii: Some(8) };
    let mut runs = Vec::new();
    for parallelism in [1, 2, 4, 1] {
        let sa = SaMapper::new(SaParams::fast(), 7).with_strategy(mixed.clone());
        let SearchReport {
            outcome,
            mapping: m,
            ..
        } = search.search(&sa, &dfg, &acc, parallelism);
        let m = m.expect("gemm maps by ii 8");
        m.verify().expect("mixed-lane winner verifies");
        runs.push((outcome.ii, outcome.attempts, digest(&m)));
    }
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "mixed lane race varied across thread counts/reruns: {runs:?}"
    );

    // Same contract for the label-aware mapper.
    let mut runs = Vec::new();
    for parallelism in [1, 4] {
        let label = LabelSaMapper::new(GuidanceLabels::initial(&dfg), SaParams::fast(), 7)
            .with_strategy(mixed.clone());
        let SearchReport {
            outcome,
            mapping: m,
            ..
        } = search.search(&label, &dfg, &acc, parallelism);
        let m = m.expect("gemm maps by ii 8");
        m.verify().expect("mixed-lane winner verifies");
        runs.push((outcome.ii, outcome.attempts, digest(&m)));
    }
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn every_lane_mix_reruns_byte_identically() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let dfg = polybench::kernel("doitgen").unwrap();
    for spec in ["constructive", "evolutionary", "sa,evolutionary", "mixed"] {
        let strategy = StrategySpec::parse(spec).unwrap();
        // Each run must land a verified mapping: two failed runs would
        // compare equal without saying anything about determinism.
        let run = || {
            let sa = SaMapper::new(SaParams::fast(), 11).with_strategy(strategy.clone());
            let m = sa
                .map_at_ii(&dfg, &acc, 8)
                .unwrap_or_else(|| panic!("strategy `{spec}` maps doitgen at II 8"));
            m.verify().expect("winner verifies");
            digest(&m)
        };
        assert_eq!(run(), run(), "strategy `{spec}` rerun diverged");
    }
}
