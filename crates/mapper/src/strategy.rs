//! The [`SearchStrategy`] contract: heterogeneous mapper lanes raced
//! per II under one deterministic winner rule.
//!
//! A *lane* is any search algorithm implementing [`SearchStrategy`]
//! over the shared substrate — [`Mapping`] (placement + routing with
//! the transaction journal), the Dijkstra router, the `lisa-events`
//! sink, and the optional movement filter. A [`StrategySpec`] is the
//! lane list; three lane kinds exist:
//!
//! * `sa` — the annealer, guided by the mapper's [`Guidance`] (vanilla
//!   or labels); the default spec is one such lane;
//! * [`crate::evolutionary::EvolutionaryStrategy`] — a deterministic
//!   population mapper whose crossover exchanges placement regions via
//!   the transaction journal and whose mutation reuses the annealer's
//!   movement generator;
//! * [`crate::constructive::ConstructiveStrategy`] — a LOCAL-style
//!   low-complexity one-pass mapper that often finishes easy kernels
//!   outright at a tiny fraction of the router work.
//!
//! **Winner rule.** Constructive lanes run first, in lane-index order:
//! they are deterministic and orders of magnitude cheaper than a
//! stochastic lane, so a complete constructive mapping wins outright.
//! The remaining (stochastic) lanes then run in lane order, and the
//! winner is the lowest-cost complete mapping, ties broken by lane
//! index. Lane seeds derive from the lane *index* via
//! `chain_seed`, so the outcome is a pure function of the request;
//! wall-clock parallelism lives one level up, in the II waves of
//! [`crate::IiSearch::run_with_mapping_par`].

use std::fmt;

use lisa_arch::Accelerator;
use lisa_dfg::Dfg;
use lisa_events::{EventSink, PipelineEvent};
use lisa_rng::Rng;

use crate::constructive::ConstructiveStrategy;
use crate::evolutionary::EvolutionaryStrategy;
use crate::portfolio::chain_seed;
use crate::predictor::{FilterStats, MovementScorer};
use crate::sa::{anneal, mapping_cost, Guidance, SaParams};
use crate::Mapping;

/// Which search algorithm runs in one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Simulated annealing (the historical lane).
    Sa,
    /// Deterministic population search with journal crossover.
    Evolutionary,
    /// LOCAL-style one-pass constructive mapping.
    Constructive,
}

impl LaneKind {
    /// The stable lane name used in specs, events, and bench metrics.
    pub fn name(self) -> &'static str {
        match self {
            LaneKind::Sa => "sa",
            LaneKind::Evolutionary => "evolutionary",
            LaneKind::Constructive => "constructive",
        }
    }

    fn parse_one(name: &str) -> Option<LaneKind> {
        match name {
            "sa" => Some(LaneKind::Sa),
            "evolutionary" | "evo" => Some(LaneKind::Evolutionary),
            "constructive" => Some(LaneKind::Constructive),
            _ => None,
        }
    }
}

/// The lane mix of the `mixed` strategy alias: a constructive scout, the
/// annealer, and the evolutionary lane.
const MIXED_LANES: [LaneKind; 3] = [LaneKind::Constructive, LaneKind::Sa, LaneKind::Evolutionary];

/// The lane list raced at each II attempt, in lane-index order. Never
/// empty; the default is one `sa` lane.
///
/// Parsed from `lisa-map --strategy`, the `strategy` field of a
/// `lisa-request v1` document, and [`Display`](fmt::Display)ed back in
/// canonical form (`parse` ∘ `to_string` is the identity on parsed
/// specs, which is what the serve cache key relies on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategySpec {
    lanes: Vec<LaneKind>,
}

impl Default for StrategySpec {
    fn default() -> Self {
        StrategySpec {
            lanes: vec![LaneKind::Sa],
        }
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(lane.name())?;
        }
        Ok(())
    }
}

/// A strategy spec that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    spec: String,
}

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown strategy `{}` (expected sa, evolutionary, constructive, \
             mixed, or a comma-separated lane list)",
            self.spec
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl StrategySpec {
    /// Parses a strategy spec: a comma-separated list of lane names
    /// (`sa`, `evolutionary` / `evo`, `constructive`), or the `mixed`
    /// alias (constructive,sa,evolutionary). `sa,sa,sa,sa` races four
    /// independently seeded annealing lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseStrategyError`] naming the unrecognized spec.
    pub fn parse(spec: &str) -> Result<StrategySpec, ParseStrategyError> {
        let trimmed = spec.trim();
        if trimmed == "mixed" {
            return Ok(StrategySpec {
                lanes: MIXED_LANES.to_vec(),
            });
        }
        let lanes = trimmed
            .split(',')
            .map(|part| LaneKind::parse_one(part.trim()))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| ParseStrategyError {
                spec: spec.to_string(),
            })?;
        Ok(StrategySpec { lanes })
    }
}

/// One lane: a search algorithm over the shared mapping substrate.
///
/// Lanes **share** the problem statement (`dfg`, `acc`, `ii`), the
/// [`Mapping`] state machine (placement + routing + transaction
/// journal), the router, the event sink, and the optional movement
/// filter. Lanes **own** their search trajectory: how the lane-derived
/// seed drives it, what intermediate states it visits, and when it
/// gives up. A lane must return `Some` only for *complete* mappings,
/// must be a pure function of its arguments (determinism contract), and
/// must emit a [`PipelineEvent::SaFilterSummary`] for its router-work
/// counters when the sink is active so A/B measurements read every lane
/// from the same stream.
pub trait SearchStrategy {
    /// The stable lane name (matches [`LaneKind::name`]).
    fn name(&self) -> &'static str;

    /// Whether the lane is a deterministic, cheap constructive pass.
    /// Constructive lanes run before the stochastic lanes and win
    /// outright when complete (see the module docs' winner rule).
    fn is_constructive(&self) -> bool {
        false
    }

    /// Runs the lane to completion. `lane` is the lane index (tags
    /// emitted events); `seed` is the lane-derived RNG seed —
    /// deterministic lanes ignore it. Returns a complete mapping or
    /// `None`, plus the lane's router-work counters.
    fn run<'a>(
        &self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
        lane: usize,
        seed: u64,
        sink: &EventSink,
        filter: Option<&dyn MovementScorer>,
    ) -> (Option<Mapping<'a>>, FilterStats);
}

/// The annealer as a lane. Builds a fresh policy from the guidance per
/// run (policies may hold per-run state), so every `sa` lane of a spec
/// anneals exactly like a lone annealing chain with the lane's seed.
struct SaStrategy<'g, G> {
    guidance: &'g G,
    params: &'g SaParams,
}

impl<G: Guidance> SearchStrategy for SaStrategy<'_, G> {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn run<'a>(
        &self,
        dfg: &'a Dfg,
        acc: &'a Accelerator,
        ii: u32,
        lane: usize,
        seed: u64,
        sink: &EventSink,
        filter: Option<&dyn MovementScorer>,
    ) -> (Option<Mapping<'a>>, FilterStats) {
        let policy = self.guidance.policy(dfg);
        let mut rng = Rng::seed_from_u64(seed);
        anneal(
            &policy,
            self.params,
            dfg,
            acc,
            ii,
            &mut rng,
            lane,
            sink,
            filter,
        )
    }
}

/// Races `lanes` for one II under the deterministic winner rule (module
/// docs): complete constructive lanes win outright in lane order;
/// otherwise the stochastic lanes run in lane order and are judged by
/// `(lowest cost, lowest lane index)`. Lane seeds derive from the lane
/// index via [`chain_seed`].
fn race_lanes<'a>(
    lanes: &[&dyn SearchStrategy],
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
    seed: u64,
    sink: &EventSink,
    filter: Option<&dyn MovementScorer>,
) -> Option<Mapping<'a>> {
    let run = |lane: usize| {
        let lane_seed = chain_seed(seed, lane as u64, ii);
        let (mapping, _stats) = lanes[lane].run(dfg, acc, ii, lane, lane_seed, sink, filter);
        mapping.map(|m| (mapping_cost(&m), lane, m))
    };
    let won = |(cost, lane, m): (f64, usize, Mapping<'a>)| {
        if sink.is_active() {
            sink.emit(PipelineEvent::StrategyLaneWon {
                ii,
                lane,
                strategy: lanes[lane].name(),
                cost,
            });
        }
        m
    };
    // Constructive lanes first: the first complete result wins.
    let constructive = (0..lanes.len()).filter(|&lane| lanes[lane].is_constructive());
    if let Some(winner) = constructive.filter_map(run).next() {
        return Some(won(winner));
    }
    let mut best: Option<(f64, usize, Mapping<'a>)> = None;
    for candidate in (0..lanes.len())
        .filter(|&lane| !lanes[lane].is_constructive())
        .filter_map(run)
    {
        match &best {
            // Strict improvement only: earlier lanes win ties.
            Some((cost, _, _)) if candidate.0 >= *cost => {}
            _ => best = Some(candidate),
        }
    }
    best.map(won)
}

/// Instantiates one strategy per lane of `spec` and races them. This is
/// the annealer front-end's single entry point; the default spec (one
/// `sa` lane) is the lone annealing chain.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_spec<'a, G: Guidance>(
    spec: &StrategySpec,
    guidance: &G,
    params: &SaParams,
    dfg: &'a Dfg,
    acc: &'a Accelerator,
    ii: u32,
    seed: u64,
    sink: &EventSink,
    filter: Option<&dyn MovementScorer>,
) -> Option<Mapping<'a>> {
    let sa = SaStrategy { guidance, params };
    let evolutionary = EvolutionaryStrategy::new(params.clone());
    let lanes: Vec<&dyn SearchStrategy> = spec
        .lanes
        .iter()
        .map(|kind| match kind {
            LaneKind::Sa => &sa as &dyn SearchStrategy,
            LaneKind::Evolutionary => &evolutionary as &dyn SearchStrategy,
            LaneKind::Constructive => &ConstructiveStrategy as &dyn SearchStrategy,
        })
        .collect();
    race_lanes(&lanes, dfg, acc, ii, seed, sink, filter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(spec: &str) -> Vec<LaneKind> {
        StrategySpec::parse(spec).unwrap().lanes
    }

    #[test]
    fn parse_accepts_every_lane_and_the_aliases() {
        assert_eq!(lanes("sa"), vec![LaneKind::Sa]);
        assert_eq!(lanes("evolutionary"), vec![LaneKind::Evolutionary]);
        assert_eq!(lanes("evo"), vec![LaneKind::Evolutionary]);
        assert_eq!(lanes("constructive"), vec![LaneKind::Constructive]);
        assert_eq!(lanes("mixed"), MIXED_LANES.to_vec());
        assert_eq!(
            lanes("constructive, sa ,evo"),
            vec![LaneKind::Constructive, LaneKind::Sa, LaneKind::Evolutionary]
        );
        assert_eq!(lanes("sa,sa,sa,sa"), vec![LaneKind::Sa; 4]);
        assert_eq!(StrategySpec::default().lanes, vec![LaneKind::Sa]);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "annealing", "sa;evo", "sa,,evo", "mixed,sa", "sa,"] {
            assert!(StrategySpec::parse(bad).is_err(), "accepted `{bad}`");
        }
        let err = StrategySpec::parse("warp-drive").unwrap_err();
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for spec in [
            "sa",
            "evolutionary",
            "constructive",
            "mixed",
            "sa,evolutionary",
            "constructive,constructive,sa",
        ] {
            let parsed = StrategySpec::parse(spec).unwrap();
            let canonical = parsed.to_string();
            assert_eq!(
                StrategySpec::parse(&canonical).unwrap(),
                parsed,
                "`{spec}` -> `{canonical}` did not round-trip"
            );
            // Canonical form is a fixpoint.
            assert_eq!(
                StrategySpec::parse(&canonical).unwrap().to_string(),
                canonical
            );
        }
        // Alias spellings collapse to one canonical text (one cache key).
        assert_eq!(
            StrategySpec::parse("mixed").unwrap().to_string(),
            "constructive,sa,evolutionary"
        );
        assert_eq!(
            StrategySpec::parse("evo").unwrap().to_string(),
            "evolutionary"
        );
        assert_eq!(
            StrategySpec::parse(" sa ").unwrap().to_string(),
            StrategySpec::default().to_string()
        );
    }
}
