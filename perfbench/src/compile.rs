//! The `compile-sa` and `compile-mixed` workloads: a closed loop of
//! `Lisa::map_request` calls, one caller, one request at a time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lisa_core::MapRequest;

use crate::layers::{self, check_mapping, map_traced, replay_layers};
use crate::observe::Recorder;
use crate::perlayer::{Layered, PassCounts, ServeLayers};
use crate::report::{peak_rss_mb, RunResult};
use crate::setup::{self, Models, SETUP_REPEATS};
use crate::stats::{median, percentile, samples_beyond, supported_tail, TAILS};
use crate::trace::Tracer;
use crate::workload::{cases, Case, Workload, MAX_II};

/// Tail percentile of compile latency (a run maps at least 100 requests,
/// which leaves 10 beyond it).
const TAIL: f64 = 90.0;

/// Sum of achieved II over one pass; an unmapped request counts as
/// `MAX_II + 1`.
fn ii_sum(iis: &[Option<u32>]) -> u64 {
    iis.iter()
        .map(|ii| u64::from(ii.unwrap_or(MAX_II + 1)))
        .sum()
}

fn request(case: &Case, workload: Workload) -> MapRequest {
    MapRequest {
        accelerator: case.fabric.to_string(),
        seed: case.seed,
        max_ii: MAX_II,
        strategy: workload.strategy(),
        dfg: case.dfg.clone(),
    }
}

/// One untraced pass, cut short when `deadline` passes: IIs and
/// per-request wall-clock, with every output checked after its timed
/// call.
fn untraced_pass(
    workload: Workload,
    models: &Models,
    cases: &[Case],
    deadline: Option<Instant>,
    latencies: &mut Vec<f64>,
    r: &mut RunResult,
) -> Vec<Option<u32>> {
    let strategy = workload.strategy();
    let mut iis = Vec::with_capacity(cases.len());
    for case in cases {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (acc, lisa) = models.get(case.fabric);
        r.attempted += 1;
        let t0 = Instant::now();
        let (outcome, mapping) = lisa.map_request(&case.dfg, acc, case.seed, MAX_II, &strategy, 1);
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(why) = check_mapping(&case.dfg, acc, MAX_II, &outcome, mapping.as_ref()) {
            r.failed_request(why);
        }
        iis.push(outcome.ii);
    }
    iis
}

pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let cases = cases(workload, seed);
    if traced {
        return run_traced(workload, seed, seconds, &cases);
    }
    let (models, setup_s, setup_samples) =
        setup::prepare_repeated(workload, SETUP_REPEATS, |_| Ok(()))?;
    let mut r = RunResult::default();
    let mut latencies = Vec::new();
    // The first pass always completes; later ones stop at the deadline.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let iis = untraced_pass(workload, &models, &cases, None, &mut latencies, &mut r);
    let mut passes = 1;
    while Instant::now() < deadline {
        let again = untraced_pass(
            workload,
            &models,
            &cases,
            Some(deadline),
            &mut latencies,
            &mut r,
        );
        if again[..] != iis[..again.len()] {
            r.problem(format!(
                "pass {passes} achieved IIs {again:?}, pass 0 achieved {iis:?}: mapping is not a pure function of the request"
            ));
        }
        passes += 1;
    }
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let unmapped = iis.iter().filter(|ii| ii.is_none()).count();
    let n = latencies.len();
    let p50 = percentile(&latencies, 50.0);
    let tail = percentile(&latencies, TAIL);
    let rate = n as f64 / busy_s;
    let rss = peak_rss_mb();

    r.line(format!(
        "workload {} seed {seed}: {passes} passes (the last may stop at the deadline) of {} requests ({n} mappings), strategy {}, max_ii {MAX_II}",
        workload.name(),
        cases.len(),
        workload.strategy()
    ));
    r.line(format!(
        "  setup_s         {setup_s:>12.4} s      median of {} set-ups {setup_samples:.3?}",
        setup_samples.len()
    ));
    r.line(format!("  compile_ms_p50  {p50:>12.4} ms     n={n}"));
    r.line(format!(
        "  compile_ms_p90  {tail:>12.4} ms     n={n}, {} beyond; highest supported tail p{}",
        samples_beyond(n, TAIL),
        supported_tail(n, &TAILS).unwrap_or(0.0)
    ));
    r.line(format!("  kernels_per_s   {rate:>12.4} 1/s"));
    r.line(format!(
        "  ii_sum          {:>12} II     per pass; unmapped counts as {}",
        ii_sum(&iis),
        MAX_II + 1
    ));
    r.line(format!("  unmapped        {unmapped:>12} count  per pass"));
    for name in ["serve_ms_p50", "serve_ms_p99", "hit_us_p50", "serve_rps"] {
        r.line(format!("  {name:<15} {:>12}", "n/a"));
    }
    r.line(format!(
        "  miss_ms_p50     {p50:>12.4} ms     no cache: every request is a miss"
    ));
    r.line(format!(
        "  fail_frac       {:>12.4} ratio  {} of {} requests",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    r.line(format!("  peak_rss_mb     {rss:>12.2} MiB"));

    r.metric("setup_s", setup_s, "s");
    r.metric("latency_ms_p50", p50, "ms");
    r.metric("latency_ms_p90", tail, "ms");
    // No cache sits in front of these requests: every one is a miss.
    r.metric("miss_ms_p50", p50, "ms");
    r.metric("throughput_per_s", rate, "1/s");
    r.metric("ii_sum", ii_sum(&iis) as f64, "II");
    r.metric("peak_rss_mb", rss, "MiB");
    Ok(r)
}

fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    cases: &[Case],
) -> Result<RunResult, String> {
    let origin = Instant::now();
    let recorder = Recorder::new(origin);
    let sink = recorder.sink();
    let models = setup::prepare(workload, &sink)?;
    let stages = recorder.take().stages;
    let sa = setup::config(workload).sa;
    let strategy = workload.strategy();
    let mut r = RunResult::default();

    // Untraced reference pass: the IIs the traced decomposition must
    // reproduce, and the wall-clock the tracing overhead is taken against.
    // The window covers it and the traced passes, of which at least one
    // runs.
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reference_ms = Vec::new();
    let reference = untraced_pass(workload, &models, cases, None, &mut reference_ms, &mut r);

    let mut tracer = Tracer::new(origin);
    let mut counts: Vec<PassCounts> = Vec::new();
    // Pass-0 rows per (kernel, fabric): seed, mii, II, attempts, ms.
    type Row = (u64, u32, Option<u32>, u32, f64);
    let mut per_case: BTreeMap<(String, &str), Vec<Row>> = BTreeMap::new();
    while counts.is_empty() || start.elapsed() < window {
        let pass = counts.len() as u64;
        let mut c = PassCounts::default();
        for (i, case) in cases.iter().enumerate() {
            let id = pass * cases.len() as u64 + i as u64;
            let (acc, lisa) = models.get(case.fabric);
            let req = layers::Request {
                lisa,
                sa: &sa,
                acc,
                dfg: &case.dfg,
                seed: case.seed,
                max_ii: MAX_II,
                strategy: &strategy,
            };
            let traced = map_traced(&mut tracer, id, &req, &sink);
            r.attempted += 1;
            if let Err(why) = replay_layers(&mut tracer, id, &request(case, workload), acc, &traced)
            {
                r.failed_request(why);
            }
            if traced.outcome.ii != reference[i] {
                r.failed_request(format!(
                    "{} on {} seed {}: traced decomposition reached II {:?}, map_request {:?}",
                    case.dfg.name(),
                    case.fabric,
                    case.seed,
                    traced.outcome.ii,
                    reference[i]
                ));
            }
            if pass == 0 {
                per_case
                    .entry((case.dfg.name().to_string(), case.fabric))
                    .or_default()
                    .push((
                        case.seed,
                        lisa_mapper::schedule::mii(&case.dfg, acc),
                        traced.outcome.ii,
                        traced.outcome.attempts,
                        traced.outcome.compile_time.as_secs_f64() * 1e3,
                    ));
            }
            c.add_request(&traced);
        }
        c.add_events(recorder.take());
        counts.push(c);
    }

    let first = &counts[0];
    for (pass, c) in counts.iter().enumerate().skip(1) {
        if c != first {
            r.problem(format!(
                "exact counts of traced pass {pass} differ from pass 0: {c:?} vs {first:?}"
            ));
        }
    }
    if first.deadline_exits > 0 {
        r.problem(format!(
            "{} II attempts reached the annealer's wall-clock time_limit: mapping quality depends on timing",
            first.deadline_exits
        ));
    }
    let traced_ms = tracer
        .spans()
        .iter()
        .filter(|s| s.name == layers::REQUEST && s.request < cases.len() as u64)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum::<f64>();
    let untraced_ms: f64 = reference_ms.iter().sum();
    let layered = Layered {
        spans: tracer.spans(),
        stages: &stages,
        models: models.fabrics.iter().map(|(_, _, l)| l).collect(),
        counts: first,
        serve: ServeLayers::default(),
        overhead_frac: traced_ms / untraced_ms - 1.0,
    };
    let cover = layered.span_coverage();
    if cover < 0.95 {
        r.problem(format!(
            "spans cover {:.2}% of compile-request wall-clock, below 95%",
            cover * 100.0
        ));
    }

    r.line(format!(
        "workload {} seed {seed} (traced): {} traced passes of {} requests",
        workload.name(),
        counts.len(),
        cases.len()
    ));
    r.line(format!(
        "  tracing overhead: untraced pass {untraced_ms:.1} ms, traced pass {traced_ms:.1} ms ({:+.1}%)",
        100.0 * layered.overhead_frac
    ));
    r.line(format!(
        "  span coverage of compile requests: {:.2}%",
        100.0 * cover
    ));
    r.line(format!(
        "  exact counts (identical on all {} passes: {}): ii_sum {} attempts {} infeasible {} proposals {} router {} lane wins {:?} deadline exits {}",
        counts.len(),
        counts.iter().all(|c| c == first),
        ii_sum(&first.iis),
        first.ii_attempts,
        first.infeasible_attempts,
        first.proposals,
        first.router_invocations,
        first.lane_wins,
        first.deadline_exits
    ));
    r.line(
        "per-kernel II (traced pass 0): kernel fabric nodes ms_p50 | seed:mii->ii(attempts) ...",
    );
    for ((kernel, fabric), rows) in &per_case {
        let nodes = cases
            .iter()
            .find(|c| c.dfg.name() == kernel && c.fabric == *fabric)
            .map_or(0, |c| c.dfg.node_count());
        let cells: Vec<String> = rows
            .iter()
            .map(|(seed, mii, ii, attempts, _)| {
                let ii = ii.map_or("x".to_string(), |ii| ii.to_string());
                format!("{seed}:{mii}->{ii}({attempts})")
            })
            .collect();
        let ms: Vec<f64> = rows.iter().map(|row| row.4).collect();
        r.line(format!(
            "  {kernel:<12} {fabric:<7} {nodes:>4} {:>8.2} | {}",
            median(&ms),
            cells.join(" ")
        ));
    }
    layered.table(&mut r);
    layered.emit(&mut r);
    crate::write_trace(&tracer, workload, seed, &mut r);
    Ok(r)
}
