//! The per-layer metrics of a traced run, in one fixed list that every
//! workload reports. A layer a workload does not exercise reports 0.

use std::collections::BTreeMap;

use lisa_core::{Lisa, Stage};

use crate::layers;
use crate::observe::Tally;
use crate::report::RunResult;
use crate::stats::median;
use crate::trace::{coverage, durations, layer_table, Span};

/// Exact work counts of one traced pass. Two passes over the same inputs
/// must produce equal counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassCounts {
    pub iis: Vec<Option<u32>>,
    pub ii_attempts: u64,
    pub infeasible_attempts: u64,
    pub deadline_exits: u64,
    pub routing_cells: u64,
    pub proposals: u64,
    pub router_invocations: u64,
    pub lane_wins: BTreeMap<&'static str, u64>,
}

impl PassCounts {
    pub fn add_request(&mut self, traced: &layers::Traced<'_>) {
        self.iis.push(traced.outcome.ii);
        self.ii_attempts += u64::from(traced.outcome.attempts);
        self.infeasible_attempts +=
            u64::from(traced.outcome.attempts) - u64::from(traced.outcome.ii.is_some());
        self.deadline_exits += u64::from(traced.deadline_exits);
        self.routing_cells += traced.outcome.routing_cells as u64;
    }

    /// Folds in the lane counters the recorder collected for this pass.
    pub fn add_events(&mut self, tally: Tally) {
        self.proposals += tally.proposals;
        self.router_invocations += tally.router_invocations;
        for (lane, wins) in tally.lane_wins {
            *self.lane_wins.entry(lane).or_insert(0) += wins;
        }
    }

    fn mapped(&self) -> u64 {
        self.iis.iter().filter(|ii| ii.is_some()).count() as u64
    }
}

/// Serve-only per-layer figures (all zero on the compile workloads).
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    pub cache_get_memory_ns: Vec<f64>,
    pub cache_get_disk_ns: Vec<f64>,
    pub cache_put_ns: Vec<f64>,
    pub queue_wait_ns: Vec<f64>,
    pub hit_ns: Vec<f64>,
    pub miss_ns: Vec<f64>,
    pub hit_memory: u64,
    pub hit_disk: u64,
    pub computed: u64,
    pub coalesced: u64,
    pub overloaded: u64,
    pub errors: u64,
}

/// Everything a traced run measured.
pub struct Layered<'a> {
    pub spans: &'a [Span],
    pub stages: &'a [(&'static str, std::time::Duration)],
    pub models: Vec<&'a Lisa>,
    pub counts: &'a PassCounts,
    pub serve: ServeLayers,
    /// Traced over untraced wall-clock of the same work, minus one.
    pub overhead_frac: f64,
}

fn p50_us(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

fn p50_ms(ns: &[f64]) -> f64 {
    median(ns) / 1e6
}

fn stage_ms(stages: &[(&'static str, std::time::Duration)], names: &[Stage]) -> f64 {
    stages
        .iter()
        .filter(|(s, _)| names.iter().any(|n| n.name() == *s))
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

impl Layered<'_> {
    /// Share of compile-request wall-clock that child spans account for.
    pub fn span_coverage(&self) -> f64 {
        let (covered, total) = coverage(self.spans, layers::REQUEST);
        ratio(covered as f64, total as f64)
    }

    /// Appends every per-layer metric to `r`.
    pub fn emit(&self, r: &mut RunResult) {
        let spans = self.spans;
        let c = self.counts;
        let s = &self.serve;
        let generated: usize = self.models.iter().map(|l| l.stats().dfgs_generated).sum();
        let kept: usize = self.models.iter().map(|l| l.stats().dfgs_kept).sum();
        let request_ns = durations(spans, layers::REQUEST);
        let predict_ns = durations(spans, layers::PREDICT);
        let feasible_ns = durations(spans, layers::FEASIBLE);
        let infeasible_ns = durations(spans, layers::INFEASIBLE);
        let attempt_ns = sum(&feasible_ns) + sum(&infeasible_ns);
        let passes = ratio(request_ns.len() as f64, c.iis.len() as f64).max(1.0);

        let st = self.stages;
        r.metric(
            "pipeline.generate_dfgs_ms",
            stage_ms(st, &[Stage::GenerateDfgs]),
            "ms",
        );
        r.metric(
            "pipeline.generate_labels_ms",
            stage_ms(st, &[Stage::GenerateLabels]),
            "ms",
        );
        r.metric(
            "pipeline.train_nets_ms",
            stage_ms(st, &[Stage::TrainNets]),
            "ms",
        );
        r.metric(
            "pipeline.filter_evaluate_ms",
            stage_ms(st, &[Stage::FilterAndSplit, Stage::Evaluate]),
            "ms",
        );
        r.metric(
            "labels.kept_frac",
            ratio(kept as f64, generated as f64),
            "ratio",
        );
        r.metric("gnn.predict_us_p50", p50_us(&predict_ns), "us");
        r.metric(
            "gnn.predict_share",
            ratio(sum(&predict_ns), sum(&request_ns)),
            "ratio",
        );
        r.metric(
            "labels.attributes_us_p50",
            p50_us(&durations(spans, layers::ATTRIBUTES)),
            "us",
        );
        r.metric(
            "arch.standard_us_p50",
            p50_us(&durations(spans, layers::STANDARD)),
            "us",
        );
        r.metric("mapper.ii_attempts", c.ii_attempts as f64, "count");
        r.metric(
            "mapper.infeasible_attempts",
            c.infeasible_attempts as f64,
            "count",
        );
        r.metric(
            "mapper.infeasible_share",
            ratio(sum(&infeasible_ns), attempt_ns),
            "ratio",
        );
        r.metric("mapper.feasible_ms_p50", p50_ms(&feasible_ns), "ms");
        r.metric("mapper.proposals", c.proposals as f64, "count");
        r.metric(
            "mapper.router_invocations",
            c.router_invocations as f64,
            "count",
        );
        r.metric(
            "mapper.router_per_mapping",
            ratio(c.router_invocations as f64, c.mapped() as f64),
            "count",
        );
        r.metric(
            "mapper.ns_per_router_invocation",
            ratio(attempt_ns / passes, c.router_invocations as f64),
            "ns",
        );
        for lane in ["sa", "constructive", "evolutionary"] {
            r.metric(
                format!("mapper.lane_wins.{lane}"),
                c.lane_wins.get(lane).copied().unwrap_or(0) as f64,
                "count",
            );
        }
        r.metric("mapper.deadline_exits", c.deadline_exits as f64, "count");
        r.metric(
            "mapper.verify_us_p50",
            p50_us(&durations(spans, layers::VERIFY)),
            "us",
        );
        r.metric("mapper.routing_cells_sum", c.routing_cells as f64, "count");
        r.metric(
            "serve.parse_us_p50",
            p50_us(&durations(spans, layers::PARSE)),
            "us",
        );
        r.metric(
            "serve.key_us_p50",
            p50_us(&durations(spans, layers::KEY)),
            "us",
        );
        r.metric(
            "serve.cache_get_us_p50.memory",
            p50_us(&s.cache_get_memory_ns),
            "us",
        );
        r.metric(
            "serve.cache_get_us_p50.disk",
            p50_us(&s.cache_get_disk_ns),
            "us",
        );
        r.metric("serve.cache_put_us_p50", p50_us(&s.cache_put_ns), "us");
        r.metric(
            "serve.render_us_p50",
            p50_us(&durations(spans, layers::RENDER)),
            "us",
        );
        r.metric(
            "serve.frame_us_p50",
            p50_us(&durations(spans, layers::FRAME)),
            "us",
        );
        r.metric("serve.queue_wait_ms_p50", p50_ms(&s.queue_wait_ns), "ms");
        for (name, value) in [
            ("serve.hit_memory", s.hit_memory),
            ("serve.hit_disk", s.hit_disk),
            ("serve.computed", s.computed),
            ("serve.coalesced", s.coalesced),
            ("serve.overloaded", s.overloaded),
            ("serve.errors", s.errors),
        ] {
            r.metric(name, value as f64, "count");
        }
        r.metric("serve.hit_us_p50", p50_us(&s.hit_ns), "us");
        r.metric("serve.miss_ms_p50", p50_ms(&s.miss_ns), "ms");
        r.metric("trace.span_coverage", self.span_coverage(), "ratio");
        r.metric("trace.overhead_frac", self.overhead_frac, "ratio");
    }

    /// The per-layer table: self time, count and share of the summed
    /// root-span time (the base), per span name.
    pub fn table(&self, r: &mut RunResult) {
        let rows = layer_table(self.spans);
        let base: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        r.line(format!(
            "per-layer self time (base: {:.1} ms of root spans)",
            base as f64 / 1e6
        ));
        r.line(format!(
            "  {:<28} {:>8} {:>12} {:>10} {:>8}",
            "span", "count", "self_ms", "self_us/1", "share"
        ));
        for row in rows {
            r.line(format!(
                "  {:<28} {:>8} {:>12.3} {:>10.2} {:>7.2}%",
                row.name,
                row.count,
                row.self_ns as f64 / 1e6,
                ratio(row.self_ns as f64, row.count as f64) / 1e3,
                100.0 * ratio(row.self_ns as f64, base as f64)
            ));
        }
    }
}
