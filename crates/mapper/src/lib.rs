//! Mapping engines for spatial accelerators.
//!
//! This crate implements every mapper the LISA paper evaluates:
//!
//! * [`sa`] — the annealer and its one front-end, [`sa::Annealer`],
//!   generic over its guidance: vanilla simulated annealing in the
//!   CGRA-ME style ([`SaMapper`], the paper's SA baseline, including the
//!   10×-movement "SA-M" variant of Fig. 13);
//! * [`label_sa`] — the label guidance of Algorithm 1 ([`LabelSaMapper`]),
//!   plus the routing-priority-only ablation of Fig. 12;
//! * [`exact`] — an exhaustive branch-and-bound mapper standing in for the
//!   ILP baseline (see DESIGN.md "Substitutions");
//! * [`constructive`] — a LOCAL-style one-pass list scheduler: the cheap
//!   lane of every race and, under [`IiSearch`], the deterministic
//!   list-scheduling baseline (`lisa-map --mapper greedy`);
//! * [`strategy`] — the lane race: [`StrategySpec`] is the lane list,
//!   [`LaneKind`] the closed set of lanes (`sa`, `evolutionary`,
//!   `constructive`), raced per II under one deterministic winner rule;
//! * [`evolutionary`] — a deterministic population mapper with
//!   journal-transaction crossover;
//! * [`portfolio`] — lane seeding and the result-invariant work
//!   distributor behind the parallel II waves;
//! * [`predictor`] — the predict-then-verify movement filter contract;
//! * [`display`] — time-extended grid rendering of mappings (Fig. 5
//!   style);
//! * [`schedule`] — the II search driver shared by all mappers (start at
//!   the minimum II, increment on failure, paper §VI).
//!
//! All mappers operate on a shared [`Mapping`] state (placement + routing
//! over the modulo routing resource graph) and a common exact [`router`]:
//! a bit-parallel layered search over per-slot occupancy bitsets that
//! returns the route heap Dijkstra would.
//!
//! # Example
//!
//! ```
//! use lisa_dfg::polybench;
//! use lisa_arch::Accelerator;
//! use lisa_mapper::{schedule::IiSearch, sa::SaMapper, SaParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = polybench::kernel("doitgen")?;
//! let acc = Accelerator::cgra("4x4", 4, 4);
//! let mapper = SaMapper::new(SaParams::fast(), 7);
//! let outcome = IiSearch::default().run(&mapper, &dfg, &acc);
//! assert!(outcome.ii.is_some(), "doitgen maps on a 4x4 CGRA");
//! # Ok(())
//! # }
//! ```

pub mod constructive;
pub mod display;
mod error;
pub mod evolutionary;
pub mod exact;
pub mod label_sa;
mod mapping;
pub mod portfolio;
pub mod predictor;
pub mod router;
pub mod sa;
pub mod schedule;
pub mod strategy;

pub use constructive::ConstructiveStrategy;
pub use error::MapperError;
pub use evolutionary::EvolutionaryStrategy;
pub use label_sa::{GuidanceLabels, LabelSaMapper};
pub use mapping::{Mapping, Placement, RouteStep};
pub use predictor::{FilterStats, MovementScorer, MOVEMENT_FEATURE_DIM};
pub use router::RouterScratch;
pub use sa::{anneal_chain, SaMapper, SaParams};
pub use schedule::{IiMapper, IiSearch, MappingOutcome, Rejection, SearchReport};
pub use strategy::{LaneKind, ParseStrategyError, StrategySpec};
