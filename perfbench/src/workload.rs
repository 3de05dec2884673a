//! The benchmark's workloads and the inputs each one generates from its
//! seed. The program only ever sees these generated inputs: request
//! seeds, and for `serve-zipf` the request trace.

use lisa_dfg::{polybench, Dfg};
use lisa_mapper::StrategySpec;
use lisa_rng::Rng;

/// II-search cap of every request (the `lisa-map` default).
pub const MAX_II: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileSa,
    CompileMixed,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CompileSa,
        Workload::CompileMixed,
        Workload::ServeZipf,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileSa => "compile-sa",
            Workload::CompileMixed => "compile-mixed",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    /// Fabrics whose models the workload trains during set-up.
    pub fn fabrics(self) -> &'static [&'static str] {
        match self {
            Workload::CompileSa => &["3x3", "4x4", "4x4-lr", "8x8"],
            Workload::CompileMixed => &["4x4"],
            Workload::ServeZipf => &["4x4", "8x8"],
        }
    }

    pub fn strategy(self) -> StrategySpec {
        match self {
            Workload::CompileMixed => StrategySpec::parse("mixed").expect("`mixed` is a known mix"),
            Workload::CompileSa | Workload::ServeZipf => StrategySpec::default(),
        }
    }

    /// Request seeds drawn per (kernel, fabric) pair.
    fn seeds_per_case(self) -> usize {
        match self {
            Workload::CompileSa => 12,
            Workload::CompileMixed => 24,
            Workload::ServeZipf => 4,
        }
    }

    /// The kernels the workload maps: the 12 Fig. 9 PolyBench kernels,
    /// or the ×2-unrolled Fig. 9d set for `compile-mixed`.
    fn kernels(self) -> Vec<Dfg> {
        match self {
            Workload::CompileMixed => polybench::unrolled_kernels(&polybench::UNROLLED_4X4_NAMES),
            Workload::CompileSa | Workload::ServeZipf => polybench::all_kernels(),
        }
    }
}

/// One distinct mapping request: a kernel, a fabric and an annealer seed.
#[derive(Debug, Clone)]
pub struct Case {
    pub dfg: Dfg,
    pub fabric: &'static str,
    pub seed: u64,
}

/// The workload's distinct requests, in a seed-determined order. For the
/// compile workloads one pass maps each once; for `serve-zipf` they are
/// the working set the trace draws from.
pub fn cases(workload: Workload, seed: u64) -> Vec<Case> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_cafe_f00d_0001);
    let mut cases = Vec::new();
    for fabric in workload.fabrics() {
        for dfg in workload.kernels() {
            for _ in 0..workload.seeds_per_case() {
                cases.push(Case {
                    dfg: dfg.clone(),
                    fabric,
                    seed: rng.next_u64() % 1_000_000,
                });
            }
        }
    }
    rng.shuffle(&mut cases);
    cases
}

/// Requests per `serve-zipf` round.
pub const TRACE_LEN: usize = 2000;
/// Memory-tier capacity of the serving engine, about a third of the
/// working set so evicted entries come back from the disk tier.
pub const MEM_CACHE: usize = 32;
/// Zipf exponent of request popularity.
const ZIPF_S: f64 = 1.0;

/// A trace of `len` indices into a working set of `working_set` entries,
/// drawn with Zipf-like popularity: the entry at popularity rank `r`
/// (0-based) is drawn with weight `1 / (r + 1)^s`, and which entry holds
/// which rank is itself a seeded permutation.
pub fn zipf_trace(seed: u64, working_set: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x2170_f1ee_7ace_0002);
    let mut by_rank: Vec<usize> = (0..working_set).collect();
    rng.shuffle(&mut by_rank);
    let mut cumulative = Vec::with_capacity(working_set);
    let mut total = 0.0;
    for rank in 0..working_set {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cumulative.push(total);
    }
    (0..len)
        .map(|_| {
            let x = rng.gen::<f64>() * total;
            let rank = cumulative.partition_point(|&c| c <= x).min(working_set - 1);
            by_rank[rank]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = cases(w, 7);
            let b = cases(w, 7);
            let key = |c: &Case| (c.dfg.name().to_string(), c.fabric, c.seed);
            assert_eq!(
                a.iter().map(key).collect::<Vec<_>>(),
                b.iter().map(key).collect::<Vec<_>>()
            );
            let c = cases(w, 8);
            assert_ne!(
                a.iter().map(key).collect::<Vec<_>>(),
                c.iter().map(key).collect::<Vec<_>>(),
                "a different seed draws different request seeds"
            );
        }
        assert_eq!(zipf_trace(3, 96, 500), zipf_trace(3, 96, 500));
        assert_ne!(zipf_trace(3, 96, 500), zipf_trace(4, 96, 500));
    }

    #[test]
    fn workload_shapes() {
        assert_eq!(cases(Workload::CompileSa, 1).len(), 12 * 4 * 12);
        assert_eq!(cases(Workload::CompileMixed, 1).len(), 6 * 24);
        assert_eq!(cases(Workload::ServeZipf, 1).len(), 12 * 2 * 4);
        assert!(cases(Workload::CompileMixed, 1)
            .iter()
            .all(|c| (30..=58).contains(&c.dfg.node_count())));
    }

    #[test]
    fn zipf_trace_is_skewed_and_in_range() {
        let trace = zipf_trace(11, 96, 20_000);
        assert!(trace.iter().all(|&i| i < 96));
        let mut counts = vec![0usize; 96];
        for &i in &trace {
            counts[i] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 0 carries 1/H(96) ≈ 19 % of the draws, rank 95 about 0.2 %.
        assert!(counts[0] > 3000 && counts[0] < 4800, "{}", counts[0]);
        assert!(counts[95] < 120);
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        assert!(distinct > 90);
    }
}
