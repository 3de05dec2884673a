//! Minimum-II computation and the II search driver.
//!
//! Per the paper (§VI): "The compiler starts with target II equal to MII
//! and increments by one if it cannot map, until the target II exceeds the
//! maximum II." Every mapper (SA, LISA, constructive, exact) plugs into
//! the same [`IiSearch`] driver through the [`IiMapper`] trait, so
//! compilation-time comparisons (Fig. 11) measure identical machinery
//! around the algorithm under test.

use std::time::{Duration, Instant};

use lisa_arch::power::{Activity, PowerModel};
use lisa_arch::Accelerator;
use lisa_dfg::{analysis, Dfg};

use crate::Mapping;

/// Resource-constrained minimum II: every DFG node needs one FU slot, so
/// `ceil(nodes / PEs)` (the paper's "theoretical lowest execution time",
/// §V-C).
pub fn res_mii(dfg: &Dfg, acc: &Accelerator) -> u32 {
    (dfg.node_count() as u32)
        .div_ceil(acc.pe_count() as u32)
        .max(1)
}

/// Minimum II: the larger of the resource and recurrence bounds.
pub fn mii(dfg: &Dfg, acc: &Accelerator) -> u32 {
    res_mii(dfg, acc).max(analysis::rec_mii(dfg))
}

/// A mapping algorithm that attempts one fixed II at a time.
pub trait IiMapper {
    /// Short display name ("SA", "LISA", "ILP"), used by the experiment
    /// harness.
    fn name(&self) -> &str;

    /// Attempts to produce a complete mapping at exactly `ii`. Returns
    /// `None` on failure (resources exhausted, time budget hit, ...).
    /// The result must be a pure function of `(self, dfg, acc, ii)`:
    /// the II search shares one mapper across concurrent attempts.
    fn map_at_ii<'a>(&self, dfg: &'a Dfg, acc: &'a Accelerator, ii: u32) -> Option<Mapping<'a>>;
}

/// Result of an II search: the metrics every figure of §VI consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingOutcome {
    /// Mapper name.
    pub mapper: String,
    /// DFG name.
    pub dfg: String,
    /// Accelerator name.
    pub accelerator: String,
    /// Achieved II, or `None` if no II up to the maximum mapped.
    pub ii: Option<u32>,
    /// Wall-clock compilation time across all attempted IIs (Fig. 11; for
    /// failures this is the full termination time, as in the paper).
    pub compile_time: Duration,
    /// Routing cells used by the successful mapping (label quality metric).
    pub routing_cells: usize,
    /// Resource activity of the successful mapping (Fig. 10 power input).
    pub activity: Activity,
    /// Executed operations per iteration (for MOPS).
    pub ops: usize,
    /// Number of II values attempted.
    pub attempts: u32,
}

impl MappingOutcome {
    /// Whether the search found a mapping.
    pub fn mapped(&self) -> bool {
        self.ii.is_some()
    }

    /// Power efficiency in MOPS/W for the Fig. 10 comparison, or `None`
    /// if the benchmark did not map.
    pub fn mops_per_watt(&self, acc: &Accelerator, pm: &PowerModel) -> Option<f64> {
        let ii = self.ii?;
        Some(pm.mops_per_watt(acc, self.ops, self.activity, ii))
    }
}

/// An II attempt whose mapper returned a mapping that failed the search's
/// own checks (complete, at the attempted II, and [`Mapping::verify`]).
/// The search never returns such a mapping: the attempt counts as a
/// failed II and the search moves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The attempted II.
    pub ii: u32,
    /// Which check failed.
    pub reason: String,
}

/// Everything one II search produced.
#[derive(Debug)]
pub struct SearchReport<'a> {
    /// The metrics of the search.
    pub outcome: MappingOutcome,
    /// The mapping at the outcome's II, if any; always complete and
    /// verified.
    pub mapping: Option<Mapping<'a>>,
    /// Attempts whose mappings were rejected, in II order.
    pub rejected: Vec<Rejection>,
}

/// The checks every mapping passes before an II search returns it, in
/// release builds too: a cached or served mapping is only as sound as
/// this.
fn check(m: &Mapping<'_>, ii: u32) -> Result<(), String> {
    if m.ii() != ii {
        return Err(format!("mapping is at II {}", m.ii()));
    }
    if !m.is_complete() {
        return Err(format!(
            "incomplete: {} unplaced nodes, {} unrouted edges",
            m.unplaced_count(),
            m.unrouted_count()
        ));
    }
    m.verify()
}

/// II search driver: tries MII, MII+1, ... up to the configuration depth.
#[derive(Debug, Clone, Copy, Default)]
pub struct IiSearch {
    /// Optional cap below the accelerator's maximum II (used by tests to
    /// bound runtimes).
    pub max_ii: Option<u32>,
}

impl IiSearch {
    /// Runs the search on one thread and returns the outcome, discarding
    /// the mapping.
    pub fn run<M>(&self, mapper: &M, dfg: &Dfg, acc: &Accelerator) -> MappingOutcome
    where
        M: IiMapper + Sync,
    {
        self.search(mapper, dfg, acc, 1).outcome
    }

    /// Speculative parallel II search. IIs are attempted in waves of
    /// `parallelism`; every wave is fully joined before judging, and the
    /// smallest successful II wins, so the outcome — including the
    /// `attempts` count, which bills exactly the IIs the sequential search
    /// would have tried — is byte-identical for any thread count. Only
    /// `compile_time` (wall clock) differs. `parallelism = 1` attempts
    /// one II at a time, inline.
    ///
    /// Attempts share `mapper` by reference, so this requires a mapper
    /// whose `map_at_ii` is a pure function of `(self, dfg, acc, ii)` —
    /// true for every mapper in this crate.
    ///
    /// A returned mapping must pass the release-mode checks (complete,
    /// at the attempted II, verified); one that fails is recorded in
    /// [`SearchReport::rejected`] and its II counts as failed.
    pub fn search<'a, M>(
        &self,
        mapper: &M,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        parallelism: usize,
    ) -> SearchReport<'a>
    where
        M: IiMapper + Sync,
    {
        let start = Instant::now();
        let lo = mii(dfg, acc);
        let hi = self.max_ii.unwrap_or(acc.max_ii()).min(acc.max_ii());
        let stride = parallelism.max(1) as u32;
        let mut attempts = 0;
        let mut ii = lo;
        let mut found = None;
        let mut rejected = Vec::new();
        'waves: while ii <= hi {
            let wave_end = hi.min(ii + stride - 1);
            let targets: Vec<u32> = (ii..=wave_end).collect();
            let results = crate::portfolio::par_map(parallelism, targets, |_, target| {
                mapper.map_at_ii(dfg, acc, target)
            });
            for (target, result) in (ii..).zip(results) {
                attempts += 1;
                let Some(m) = result else {
                    continue;
                };
                match check(&m, target) {
                    Ok(()) => {
                        found = Some((target, m));
                        break 'waves;
                    }
                    Err(reason) => rejected.push(Rejection { ii: target, reason }),
                }
            }
            ii = wave_end + 1;
        }
        let outcome = MappingOutcome {
            mapper: mapper.name().to_string(),
            dfg: dfg.name().to_string(),
            accelerator: acc.name().to_string(),
            ii: found.as_ref().map(|(ii, _)| *ii),
            compile_time: start.elapsed(),
            routing_cells: found.as_ref().map_or(0, |(_, m)| m.routing_cells()),
            activity: found
                .as_ref()
                .map(|(_, m)| m.activity())
                .unwrap_or_default(),
            ops: dfg.op_count(),
            attempts,
        };
        SearchReport {
            outcome,
            mapping: found.map(|(_, m)| m),
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::OpKind;

    #[test]
    fn res_mii_rounds_up() {
        let mut g = Dfg::new("g");
        for i in 0..17 {
            g.add_node(OpKind::Add, format!("n{i}"));
        }
        let acc = Accelerator::cgra("4x4", 4, 4);
        assert_eq!(res_mii(&g, &acc), 2);
        let acc9 = Accelerator::cgra("3x3", 3, 3);
        assert_eq!(res_mii(&g, &acc9), 2);
        let acc64 = Accelerator::cgra("8x8", 8, 8);
        assert_eq!(res_mii(&g, &acc64), 1);
    }

    #[test]
    fn mii_takes_recurrence_into_account() {
        let mut g = Dfg::new("g");
        let a = g.add_node(OpKind::Add, "a");
        let b = g.add_node(OpKind::Mul, "b");
        let c = g.add_node(OpKind::Add, "c");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(b, c).unwrap();
        g.add_recurrence_edge(c, a, 1).unwrap();
        let acc = Accelerator::cgra("4x4", 4, 4);
        // 3-op cycle at distance 1: RecMII 3 > ResMII 1.
        assert_eq!(mii(&g, &acc), 3);
    }

    #[derive(Clone)]
    struct FailThenSucceed {
        succeed_at: u32,
    }

    impl IiMapper for FailThenSucceed {
        fn name(&self) -> &str {
            "stub"
        }

        fn map_at_ii<'a>(
            &self,
            dfg: &'a Dfg,
            acc: &'a Accelerator,
            ii: u32,
        ) -> Option<Mapping<'a>> {
            if ii < self.succeed_at {
                return None;
            }
            // One-node DFG maps trivially.
            let mut m = Mapping::new(dfg, acc, ii).ok()?;
            m.place(lisa_dfg::NodeId::new(0), lisa_arch::PeId::new(0), 0)
                .ok()?;
            Some(m)
        }
    }

    /// Returns an incomplete mapping at II 2 (its one node unplaced), a
    /// mapping at the wrong II at 4, and a valid one from `succeed_at`.
    struct Broken {
        succeed_at: u32,
    }

    impl IiMapper for Broken {
        fn name(&self) -> &str {
            "broken"
        }

        fn map_at_ii<'a>(
            &self,
            dfg: &'a Dfg,
            acc: &'a Accelerator,
            ii: u32,
        ) -> Option<Mapping<'a>> {
            match ii {
                2 => Mapping::new(dfg, acc, ii).ok(),
                4 => FailThenSucceed { succeed_at: 0 }.map_at_ii(dfg, acc, 5),
                _ => FailThenSucceed {
                    succeed_at: self.succeed_at,
                }
                .map_at_ii(dfg, acc, ii),
            }
        }
    }

    #[test]
    fn unverified_mappings_are_rejected_as_failed_iis() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2);
        for threads in [1, 2, 4] {
            let report = IiSearch::default().search(&Broken { succeed_at: 3 }, &g, &acc, threads);
            assert_eq!(report.outcome.ii, Some(3), "threads {threads}");
            assert_eq!(report.outcome.attempts, 3);
            assert_eq!(report.mapping.as_ref().map(Mapping::ii), Some(3));
            assert_eq!(report.rejected.len(), 1);
            assert_eq!(report.rejected[0].ii, 2);
            assert!(report.rejected[0].reason.starts_with("incomplete"));

            let report = IiSearch::default().search(&Broken { succeed_at: 6 }, &g, &acc, threads);
            assert_eq!(report.outcome.ii, Some(6), "threads {threads}");
            let iis: Vec<u32> = report.rejected.iter().map(|r| r.ii).collect();
            assert_eq!(iis, [2, 4]);
            assert_eq!(report.rejected[1].reason, "mapping is at II 5");
        }
        // The outcome-only API drops the record but not the check.
        let outcome = IiSearch::default().run(&Broken { succeed_at: 3 }, &g, &acc);
        assert_eq!(outcome.ii, Some(3));
    }

    #[test]
    fn search_increments_ii_until_success() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mapper = FailThenSucceed { succeed_at: 3 };
        let outcome = IiSearch::default().run(&mapper, &g, &acc);
        assert_eq!(outcome.ii, Some(3));
        assert_eq!(outcome.attempts, 3);
        assert!(outcome.mapped());
    }

    #[test]
    fn search_reports_failure_after_max_ii() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(4);
        let mapper = FailThenSucceed { succeed_at: 99 };
        let outcome = IiSearch::default().run(&mapper, &g, &acc);
        assert_eq!(outcome.ii, None);
        assert_eq!(outcome.attempts, 4);
        assert!(!outcome.mapped());
    }

    #[test]
    fn search_cap_respected() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2);
        let mapper = FailThenSucceed { succeed_at: 99 };
        let outcome = IiSearch { max_ii: Some(2) }.run(&mapper, &g, &acc);
        assert_eq!(outcome.attempts, 2);
    }

    #[test]
    fn cap_below_mii_attempts_nothing() {
        let mut g = Dfg::new("five");
        for i in 0..5 {
            g.add_node(OpKind::Add, format!("n{i}"));
        }
        let acc = Accelerator::cgra("1x1", 1, 1);
        // MII is 5 (five ops on one PE); a cap of 3 leaves no II to try.
        let mapper = FailThenSucceed { succeed_at: 0 };
        for threads in [1, 2] {
            let report = IiSearch { max_ii: Some(3) }.search(&mapper, &g, &acc, threads);
            assert_eq!(report.outcome.ii, None);
            assert_eq!(report.outcome.attempts, 0);
            assert!(report.mapping.is_none());
        }
    }

    #[test]
    fn parallel_search_matches_sequential_for_any_thread_count() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(6);
        let mapper = FailThenSucceed { succeed_at: 3 };
        let sequential = IiSearch::default().run(&mapper, &g, &acc);
        for threads in [1, 2, 4, 8] {
            let par = IiSearch::default()
                .search(&mapper, &g, &acc, threads)
                .outcome;
            assert_eq!(par.ii, sequential.ii, "threads {threads}");
            // Speculative wave attempts beyond the winner are not billed.
            assert_eq!(par.attempts, sequential.attempts, "threads {threads}");
        }
    }

    #[test]
    fn parallel_search_failure_bills_every_ii() {
        let mut g = Dfg::new("one");
        g.add_node(OpKind::Add, "a");
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(4);
        let mapper = FailThenSucceed { succeed_at: 99 };
        let outcome = IiSearch::default().search(&mapper, &g, &acc, 3).outcome;
        assert_eq!(outcome.ii, None);
        assert_eq!(outcome.attempts, 4);
    }
}
