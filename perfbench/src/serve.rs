//! The `serve-zipf` workload: `serve_tcp` on loopback, two client
//! connections in a closed loop replaying a Zipf-popularity trace.
//!
//! A run is a series of rounds. Each round starts a fresh engine whose
//! disk tier lives in a fresh directory, replays the trace from its top,
//! and shuts the engine down, so every round sees the same sequence of
//! misses, memory hits and disk hits. The measured window can end a
//! round early.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa_core::{MapRequest, ModelRegistry};
use lisa_events::EventSink;
use lisa_serve::protocol::{read_frame, response_status, write_frame};
use lisa_serve::{serve_tcp, CacheTier, ResultCache, ServeConfig, ServeEngine, StatsSnapshot};

use crate::layers::{self, check_mapping, map_traced, render, replay_layers};
use crate::observe::Recorder;
use crate::perlayer::{Layered, PassCounts, ServeLayers};
use crate::report::{peak_rss_mb, RunResult};
use crate::setup::{self, Models, SETUP_REPEATS};
use crate::stats::{percentile, samples_beyond, supported_tail, TAILS};
use crate::trace::Tracer;
use crate::workload::{cases, zipf_trace, Case, Workload, MAX_II, MEM_CACHE, TRACE_LEN};
use crate::{scratch_dir, write_trace};

const WORKLOAD: Workload = Workload::ServeZipf;
/// Client connections, each one thread.
const CLIENTS: usize = 2;
/// The report's tail percentile of round-trip latency, over a run's
/// 1,000 or more answers; the JSON metric is the steadier p90.
const TAIL: f64 = 99.0;
/// Span name of one client round trip.
const ROUND_TRIP: &str = "serve.round_trip";

fn engine_config(tag: &str) -> ServeConfig {
    ServeConfig {
        mem_cache: MEM_CACHE,
        cache_dir: Some(scratch_dir(tag)),
        workers: 2,
        queue: 8,
        parallelism: 1,
    }
}

fn registry(models: &Models) -> Result<ModelRegistry, String> {
    let mut registry = ModelRegistry::new();
    for (_, _, lisa) in &models.fabrics {
        registry.insert(lisa.clone()).map_err(|e| e.to_string())?;
    }
    Ok(registry)
}

struct Inputs {
    cases: Vec<Case>,
    requests: Vec<MapRequest>,
    texts: Vec<String>,
    trace: Vec<usize>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let cases = cases(WORKLOAD, seed);
        let requests: Vec<MapRequest> = cases
            .iter()
            .map(|c| MapRequest {
                accelerator: c.fabric.to_string(),
                seed: c.seed,
                max_ii: MAX_II,
                strategy: WORKLOAD.strategy(),
                dfg: c.dfg.clone(),
            })
            .collect();
        let texts = requests.iter().map(MapRequest::canonical_text).collect();
        let trace = zipf_trace(seed, cases.len(), TRACE_LEN);
        Inputs {
            cases,
            requests,
            texts,
            trace,
        }
    }

    /// Working-set entries the trace requests, in index order.
    fn distinct(&self) -> Vec<usize> {
        let mut seen = vec![false; self.cases.len()];
        for &i in &self.trace {
            seen[i] = true;
        }
        (0..seen.len()).filter(|&i| seen[i]).collect()
    }
}

/// One request as the client saw it.
struct Answer {
    position: usize,
    ns: f64,
    /// The first request for its key in the round: computed or coalesced.
    cold: bool,
    body: String,
}

struct Round {
    answers: Vec<Answer>,
    wall: Duration,
    stats: StatsSnapshot,
    spans: Tracer,
}

impl Round {
    fn mean_round_trip_ns(&self) -> f64 {
        self.answers.iter().map(|a| a.ns).sum::<f64>() / self.answers.len().max(1) as f64
    }
}

/// Starts an engine on loopback, replays the trace from two client
/// connections until it ends or `deadline` passes, and shuts the engine
/// down.
fn run_round(
    registry: &ModelRegistry,
    inputs: &Inputs,
    tag: &str,
    sink: EventSink,
    origin: Instant,
    first_id: u64,
    deadline: Instant,
) -> Result<Round, String> {
    // Client spans are recorded only in traced rounds.
    let traced = sink.is_active();
    let engine = Arc::new(
        ServeEngine::new(registry.clone(), engine_config(tag), sink)
            .map_err(|e| format!("starting engine: {e}"))?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = {
        let engine = engine.clone();
        std::thread::spawn(move || serve_tcp(engine, listener))
    };
    let mut streams = Vec::new();
    for _ in 0..CLIENTS {
        streams.push(TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let seen: Vec<AtomicBool> = inputs
        .cases
        .iter()
        .map(|_| AtomicBool::new(false))
        .collect();

    let start = Instant::now();
    let clients: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut stream)| {
                let seen = &seen;
                scope.spawn(move || -> Result<_, String> {
                    let mut tracer = Tracer::new(origin);
                    let mut answers = Vec::new();
                    let mut frame = Vec::new();
                    for position in (c..inputs.trace.len()).step_by(CLIENTS) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let case = inputs.trace[position];
                        let cold = !seen[case].swap(true, Ordering::Relaxed);
                        frame.clear();
                        write_frame(&mut frame, inputs.texts[case].as_bytes())
                            .map_err(|e| e.to_string())?;
                        let span = traced
                            .then(|| tracer.open(ROUND_TRIP, None, first_id + position as u64));
                        let t0 = Instant::now();
                        stream.write_all(&frame).map_err(|e| format!("send: {e}"))?;
                        let body = read_frame(&mut stream)
                            .map_err(|e| format!("receive: {e}"))?
                            .ok_or("connection closed mid-trace")?;
                        let ns = t0.elapsed().as_nanos() as f64;
                        if let Some(span) = span {
                            tracer.close(span);
                        }
                        let body = String::from_utf8(body).map_err(|e| e.to_string())?;
                        answers.push(Answer {
                            position,
                            ns,
                            cold,
                            body,
                        });
                    }
                    Ok((stream, answers, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let mut answers = Vec::new();
    let mut spans = Tracer::new(origin);
    let mut streams = Vec::new();
    for client in clients {
        let (stream, a, t) = client?;
        answers.extend(a);
        spans.absorb(t);
        streams.push(stream);
    }
    let mut control = streams.swap_remove(0);
    drop(streams);
    write_frame(&mut control, b"shutdown").map_err(|e| e.to_string())?;
    let ack = read_frame(&mut control).map_err(|e| e.to_string())?;
    drop(control);
    if ack.as_deref() != Some(b"ok\n".as_slice()) {
        return Err("engine did not acknowledge shutdown".to_string());
    }
    server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve_tcp: {e}"))?;
    let stats = engine.stats();
    answers.sort_by_key(|a| a.position);
    Ok(Round {
        answers,
        wall,
        stats,
        spans,
    })
}

/// Checks every answer of a round: an `ok` or `unmappable` status, and a
/// body byte-identical to the expected body for its request. The bodies
/// are dropped once checked, so they do not count toward peak memory.
fn check_round(
    inputs: &Inputs,
    expected: &BTreeMap<usize, String>,
    round: &mut Round,
    r: &mut RunResult,
) {
    for a in &mut round.answers {
        let body = std::mem::take(&mut a.body);
        let case = inputs.trace[a.position];
        r.attempted += 1;
        match response_status(&body) {
            Some("ok" | "unmappable") => {}
            other => {
                r.failed_request(format!(
                    "trace position {}: status {other:?}: {}",
                    a.position,
                    body.lines().nth(2).unwrap_or("")
                ));
                continue;
            }
        }
        if expected.get(&case) != Some(&body) {
            r.failed_request(format!(
                "trace position {} ({} on {} seed {}): body differs from the expected map_request + render_ok body",
                a.position,
                inputs.cases[case].dfg.name(),
                inputs.cases[case].fabric,
                inputs.cases[case].seed
            ));
        }
    }
}

/// The expected body of every requested working-set entry, from the
/// benchmark's own `map_request` + `render_ok`, with each mapping checked.
fn expected_bodies(
    models: &Models,
    inputs: &Inputs,
    r: &mut RunResult,
) -> (BTreeMap<usize, String>, Vec<Option<u32>>) {
    let mut expected = BTreeMap::new();
    let mut iis = Vec::new();
    for i in inputs.distinct() {
        let (case, req) = (&inputs.cases[i], &inputs.requests[i]);
        let (acc, lisa) = models.get(case.fabric);
        let (outcome, mapping) =
            lisa.map_request(&case.dfg, acc, case.seed, MAX_II, &req.strategy, 1);
        if let Err(why) = check_mapping(&case.dfg, acc, MAX_II, &outcome, mapping.as_ref()) {
            r.problem(why);
        }
        match render(req, &outcome, mapping.as_ref()) {
            Ok(body) => {
                expected.insert(i, body);
            }
            Err(why) => r.problem(why),
        }
        iis.push(outcome.ii);
    }
    (expected, iis)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let inputs = Inputs::new(seed);
    if traced {
        return run_traced(seed, seconds, &inputs);
    }
    // Set-up: train, build the registry, then start an engine on
    // loopback, connect both clients and shut it down again.
    let no_requests = Inputs {
        cases: Vec::new(),
        requests: Vec::new(),
        texts: Vec::new(),
        trace: Vec::new(),
    };
    let (models, setup_s, setup_samples) =
        setup::prepare_repeated(WORKLOAD, SETUP_REPEATS, |models| {
            let registry = registry(models)?;
            let now = Instant::now();
            run_round(
                &registry,
                &no_requests,
                "setup",
                EventSink::null(),
                now,
                0,
                now,
            )
            .map(|_| ())
        })?;
    let registry = registry(&models)?;
    let mut r = RunResult::default();
    let (expected, iis) = expected_bodies(&models, &inputs, &mut r);
    let mut rounds = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while rounds.is_empty() || Instant::now() < deadline {
        let tag = format!("round{}", rounds.len());
        let origin = Instant::now();
        let mut round = run_round(
            &registry,
            &inputs,
            &tag,
            EventSink::null(),
            origin,
            0,
            deadline,
        )?;
        check_round(&inputs, &expected, &mut round, &mut r);
        rounds.push(round);
    }

    let all: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.answers.iter().map(|a| a.ns))
        .collect();
    let (cold, warm): (Vec<&Answer>, Vec<&Answer>) = rounds
        .iter()
        .flat_map(|x| x.answers.iter())
        .partition(|a| a.cold);
    let cold: Vec<f64> = cold.iter().map(|a| a.ns).collect();
    let warm: Vec<f64> = warm.iter().map(|a| a.ns).collect();
    let wall: f64 = rounds.iter().map(|x| x.wall.as_secs_f64()).sum();
    let n = all.len();
    let p50 = ms(percentile(&all, 50.0));
    let p90 = ms(percentile(&all, 90.0));
    let tail = ms(percentile(&all, TAIL));
    let miss_p50 = ms(percentile(&cold, 50.0));
    let rps = n as f64 / wall;
    let ii_sum: u64 = iis
        .iter()
        .map(|ii| u64::from(ii.unwrap_or(MAX_II + 1)))
        .sum();
    let unmapped = iis.iter().filter(|ii| ii.is_none()).count();
    let rss = peak_rss_mb();
    let s = rounds
        .iter()
        .map(|x| x.stats)
        .reduce(add)
        .expect("one round ran");

    r.line(format!(
        "workload serve-zipf seed {seed}: {} rounds, {n} requests answered, of a {TRACE_LEN}-request trace over {} distinct keys; memory tier {MEM_CACHE}, {CLIENTS} clients",
        rounds.len(),
        expected.len()
    ));
    r.line(format!(
        "  setup_s         {setup_s:>12.4} s      median of {} set-ups {setup_samples:.3?}",
        setup_samples.len()
    ));
    for name in ["compile_ms_p50", "compile_ms_p90", "kernels_per_s"] {
        r.line(format!("  {name:<15} {:>12}", "n/a"));
    }
    r.line(format!(
        "  ii_sum          {ii_sum:>12} II     over distinct requests; unmapped counts as {}",
        MAX_II + 1
    ));
    r.line(format!(
        "  unmapped        {unmapped:>12} count  distinct requests"
    ));
    r.line(format!("  serve_ms_p50    {p50:>12.4} ms     n={n}"));
    r.line(format!(
        "  serve_ms_p90    {p90:>12.4} ms     n={n}, {} beyond",
        samples_beyond(n, 90.0)
    ));
    r.line(format!(
        "  serve_ms_p99    {tail:>12.4} ms     n={n}, {} beyond; highest supported tail p{}",
        samples_beyond(n, TAIL),
        supported_tail(n, &TAILS).unwrap_or(0.0)
    ));
    r.line(format!(
        "  hit_us_p50      {:>12.4} us     n={} (repeat requests)",
        percentile(&warm, 50.0) / 1e3,
        warm.len()
    ));
    r.line(format!(
        "  miss_ms_p50     {miss_p50:>12.4} ms     n={} (first request per key per round)",
        cold.len()
    ));
    r.line(format!("  serve_rps       {rps:>12.4} 1/s"));
    r.line(format!(
        "  fail_frac       {:>12.4} ratio  {} of {} requests",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    r.line(format!("  peak_rss_mb     {rss:>12.2} MiB"));
    r.line(format!(
        "  engine: hit_memory {} hit_disk {} computed {} coalesced {} overloaded {} errors {}",
        s.hit_memory, s.hit_disk, s.anneals, s.coalesced, s.overloaded, s.errors
    ));

    r.metric("setup_s", setup_s, "s");
    r.metric("latency_ms_p50", p50, "ms");
    r.metric("latency_ms_p90", p90, "ms");
    r.metric("miss_ms_p50", miss_p50, "ms");
    r.metric("throughput_per_s", rps, "1/s");
    r.metric("ii_sum", ii_sum as f64, "II");
    r.metric("peak_rss_mb", rss, "MiB");
    Ok(r)
}

fn add(a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        requests: a.requests + b.requests,
        hit_memory: a.hit_memory + b.hit_memory,
        hit_disk: a.hit_disk + b.hit_disk,
        anneals: a.anneals + b.anneals,
        coalesced: a.coalesced + b.coalesced,
        overloaded: a.overloaded + b.overloaded,
        errors: a.errors + b.errors,
    }
}

fn run_traced(seed: u64, seconds: u64, inputs: &Inputs) -> Result<RunResult, String> {
    let origin = Instant::now();
    let recorder = Recorder::new(origin);
    let sink = recorder.sink();
    let models = setup::prepare(WORKLOAD, &sink)?;
    let stages = recorder.take().stages;
    let registry = registry(&models)?;
    let mut r = RunResult::default();
    let (expected, iis) = expected_bodies(&models, inputs, &mut r);

    // Half the window replays the trace untraced, half traced; both start
    // from the top of the trace, and the overhead compares their mean
    // round trips.
    let half = Duration::from_secs(seconds) / 2;
    let deadline = Instant::now() + half;
    let mut reference = run_round(
        &registry,
        inputs,
        "reference",
        EventSink::null(),
        origin,
        0,
        deadline,
    )?;
    check_round(inputs, &expected, &mut reference, &mut r);
    let mut tracer = Tracer::new(origin);
    let mut rounds = Vec::new();
    let mut queue_wait_ns = Vec::new();
    let deadline = Instant::now() + half;
    while rounds.is_empty() || Instant::now() < deadline {
        let first_id = (rounds.len() * inputs.trace.len()) as u64;
        let tag = format!("traced{}", rounds.len());
        let mut round = run_round(
            &registry,
            inputs,
            &tag,
            sink.clone(),
            origin,
            first_id,
            deadline,
        )?;
        queue_wait_ns.extend(queue_waits(&recorder.take().serve));
        tracer.absorb(std::mem::replace(&mut round.spans, Tracer::new(origin)));
        check_round(inputs, &expected, &mut round, &mut r);
        rounds.push(round);
    }

    // The decomposed miss path for every requested key, then the cache
    // replayed in trace order at the same capacity.
    let sa = setup::config(WORKLOAD).sa;
    let mut counts = PassCounts::default();
    let decompose_base = (rounds.len() * inputs.trace.len()) as u64;
    for i in inputs.distinct() {
        let (case, req) = (&inputs.cases[i], &inputs.requests[i]);
        let (acc, lisa) = models.get(case.fabric);
        let id = decompose_base + i as u64;
        let traced = map_traced(
            &mut tracer,
            id,
            &layers::Request {
                lisa,
                sa: &sa,
                acc,
                dfg: &case.dfg,
                seed: case.seed,
                max_ii: MAX_II,
                strategy: &req.strategy,
            },
            &sink,
        );
        match replay_layers(&mut tracer, id, req, acc, &traced) {
            Ok(body) if expected.get(&i) == Some(&body) => {}
            Ok(_) => r.problem(format!(
                "{} on {}: traced decomposition renders a different body than map_request",
                case.dfg.name(),
                case.fabric
            )),
            Err(why) => r.problem(why),
        }
        counts.add_request(&traced);
    }
    counts.add_events(recorder.take());
    if counts.iis != iis {
        r.problem("traced decomposition reached different IIs than map_request");
    }
    if counts.deadline_exits > 0 {
        r.problem(format!(
            "{} II attempts reached the annealer's wall-clock time_limit",
            counts.deadline_exits
        ));
    }
    let replay_base = decompose_base + inputs.cases.len() as u64;
    let mut serve = replay_cache(inputs, &expected, &mut tracer, replay_base)?;
    let first = &rounds[0];
    for a in &first.answers {
        if a.cold {
            serve.miss_ns.push(a.ns);
        } else {
            serve.hit_ns.push(a.ns);
        }
    }
    serve.queue_wait_ns = queue_wait_ns;
    serve.hit_memory = first.stats.hit_memory;
    serve.hit_disk = first.stats.hit_disk;
    serve.computed = first.stats.anneals;
    serve.coalesced = first.stats.coalesced;
    serve.overloaded = first.stats.overloaded;
    serve.errors = first.stats.errors;

    let overhead = first.mean_round_trip_ns() / reference.mean_round_trip_ns() - 1.0;
    let layered = Layered {
        spans: tracer.spans(),
        stages: &stages,
        models: models.fabrics.iter().map(|(_, _, l)| l).collect(),
        counts: &counts,
        serve,
        overhead_frac: overhead,
    };
    let cover = layered.span_coverage();
    if cover < 0.95 {
        r.problem(format!(
            "spans cover {:.2}% of compile-request wall-clock, below 95%",
            cover * 100.0
        ));
    }
    r.line(format!(
        "workload serve-zipf seed {seed} (traced): {} traced rounds, {} requests answered, of a {TRACE_LEN}-request trace",
        rounds.len(),
        rounds.iter().map(|x| x.answers.len()).sum::<usize>()
    ));
    r.line(format!(
        "  tracing overhead: mean round trip untraced {:.3} ms (n={}), traced {:.3} ms (n={}) ({:+.1}%)",
        ms(reference.mean_round_trip_ns()),
        reference.answers.len(),
        ms(first.mean_round_trip_ns()),
        first.answers.len(),
        100.0 * overhead
    ));
    r.line(format!(
        "  span coverage of decomposed miss requests: {:.2}%",
        100.0 * cover
    ));
    r.line(format!(
        "  engine (first traced round): hit_memory {} hit_disk {} computed {} coalesced {} overloaded {} errors {}",
        first.stats.hit_memory,
        first.stats.hit_disk,
        first.stats.anneals,
        first.stats.coalesced,
        first.stats.overloaded,
        first.stats.errors
    ));
    layered.table(&mut r);
    layered.emit(&mut r);
    write_trace(&tracer, WORKLOAD, seed, &mut r);
    Ok(r)
}

/// Enqueue-to-anneal wait of every computed request, from the engine's
/// own lifecycle events.
fn queue_waits(events: &[(u64, &'static str, u64)]) -> Vec<f64> {
    let mut enqueued = BTreeMap::new();
    let mut waits = Vec::new();
    for &(request, tag, at) in events {
        match tag {
            "serve_enqueued" => {
                enqueued.insert(request, at);
            }
            "serve_anneal_started" => {
                if let Some(t) = enqueued.get(&request) {
                    waits.push(at.saturating_sub(*t) as f64);
                }
            }
            _ => {}
        }
    }
    waits
}

/// Replays the trace through a `ResultCache` of the engine's capacity,
/// single-threaded, putting the expected body on every miss.
fn replay_cache(
    inputs: &Inputs,
    expected: &BTreeMap<usize, String>,
    t: &mut Tracer,
    first_id: u64,
) -> Result<ServeLayers, String> {
    let cache = ResultCache::new(MEM_CACHE, Some(scratch_dir("replay")))
        .map_err(|e| format!("replay cache: {e}"))?;
    let keys: Vec<u64> = inputs.requests.iter().map(MapRequest::cache_key).collect();
    let mut out = ServeLayers::default();
    for (position, &case) in inputs.trace.iter().enumerate() {
        let id = first_id + position as u64;
        let span = t.open("serve.cache_get.miss", None, id);
        let hit = cache.get(keys[case]);
        let name = match hit.as_ref().map(|(_, tier)| tier) {
            Some(CacheTier::Memory) => "serve.cache_get.memory",
            Some(CacheTier::Disk) => "serve.cache_get.disk",
            None => "serve.cache_get.miss",
        };
        t.close_as(span, name);
        let ns = t.spans()[span].duration_ns() as f64;
        match hit {
            Some((body, tier)) => {
                if expected.get(&case).map(String::as_str) != Some(body.as_str()) {
                    return Err(format!("replayed cache served a wrong body at {position}"));
                }
                match tier {
                    CacheTier::Memory => out.cache_get_memory_ns.push(ns),
                    CacheTier::Disk => out.cache_get_disk_ns.push(ns),
                }
            }
            None => {
                let body = Arc::new(expected.get(&case).cloned().unwrap_or_default());
                let span = t.open("serve.cache_put", None, id);
                cache
                    .put(keys[case], body)
                    .map_err(|e| format!("replay put: {e}"))?;
                t.close(span);
                out.cache_put_ns.push(t.spans()[span].duration_ns() as f64);
            }
        }
    }
    Ok(out)
}
