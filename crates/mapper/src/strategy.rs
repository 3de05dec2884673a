//! Heterogeneous mapper lanes raced per II under one deterministic
//! winner rule.
//!
//! A *lane* is one search algorithm over the shared substrate —
//! [`Mapping`] (placement + routing with the transaction journal), the
//! exact router, the `lisa-events` sink, and the optional movement
//! filter. A [`StrategySpec`] is the lane list; the lane kinds form the
//! closed set [`LaneKind`]:
//!
//! * `sa` — the annealer, guided by the mapper's [`Guidance`] (vanilla
//!   or labels); the default spec is one such lane;
//! * `evolutionary` — [`crate::evolutionary::EvolutionaryStrategy`], a
//!   deterministic population mapper whose crossover exchanges placement
//!   regions via the transaction journal and whose mutation reuses the
//!   annealer's movement generator;
//! * `constructive` — [`crate::constructive::ConstructiveStrategy`]'s
//!   LOCAL-style one-pass mapping, which often finishes easy kernels
//!   outright at a tiny fraction of the router work.
//!
//! Every lane returns a mapping only when it is complete, is a pure
//! function of `(dfg, acc, ii)` and its lane-derived seed, and reports
//! its router-work counters as a [`PipelineEvent::SaFilterSummary`].
//!
//! **Winner rule.** Constructive lanes run first, in lane-index order:
//! they are deterministic and orders of magnitude cheaper than a
//! stochastic lane, so a complete constructive mapping wins outright.
//! The remaining (stochastic) lanes then run in lane order, and the
//! winner is the lowest-cost complete mapping, ties broken by lane
//! index. Lane seeds derive from the lane *index* via
//! `chain_seed`, so the outcome is a pure function of the request;
//! wall-clock parallelism lives one level up, in the II waves of
//! [`crate::IiSearch::search`].

use std::fmt;

use lisa_arch::Accelerator;
use lisa_dfg::Dfg;
use lisa_events::{EventSink, PipelineEvent};
use lisa_rng::Rng;

use crate::constructive::construct;
use crate::evolutionary::EvolutionaryStrategy;
use crate::portfolio::chain_seed;
use crate::predictor::MovementScorer;
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

/// Races the lanes of `spec` for one II under the deterministic winner
/// rule (module docs): complete constructive lanes win outright in lane
/// order; otherwise the stochastic lanes run in lane order and are
/// judged by `(lowest cost, lowest lane index)`. Lane seeds derive from
/// the lane index via [`chain_seed`]. Every lane emits a
/// [`PipelineEvent::SaFilterSummary`] of its router-work counters when
/// the sink is active, so A/B measurements read every lane from the same
/// stream. This is the annealer front-end's single entry point; the
/// default spec (one `sa` lane) is the lone annealing chain.
#[allow(clippy::too_many_arguments)]
pub(crate) fn race_lanes<'a, G: Guidance>(
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
    let lanes = &spec.lanes;
    let run = |lane: usize| {
        let lane_seed = chain_seed(seed, lane as u64, ii);
        let mapping = match lanes[lane] {
            LaneKind::Sa => {
                // A fresh policy per lane: policies may hold per-run state.
                let mut rng = Rng::seed_from_u64(lane_seed);
                let policy = guidance.policy(dfg);
                anneal(&policy, params, dfg, acc, ii, &mut rng, lane, sink, filter).0
            }
            LaneKind::Evolutionary => {
                EvolutionaryStrategy::new(params.clone())
                    .run(dfg, acc, ii, lane, lane_seed, sink, filter)
                    .0
            }
            LaneKind::Constructive => construct(dfg, acc, ii).and_then(|(m, stats)| {
                stats.emit_summary(sink, lane, ii);
                m.is_complete().then_some(m)
            }),
        };
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
    let is_constructive = |lane: &usize| lanes[*lane] == LaneKind::Constructive;
    if let Some(winner) = (0..lanes.len())
        .filter(is_constructive)
        .filter_map(run)
        .next()
    {
        return Some(won(winner));
    }
    let mut best: Option<(f64, usize, Mapping<'a>)> = None;
    for candidate in (0..lanes.len())
        .filter(|lane| !is_constructive(lane))
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
