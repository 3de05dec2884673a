//! A mapping request traced through its public decomposition, and the
//! per-layer replays that run beside it.
//!
//! `Lisa::map_request` is `Lisa::predict_labels`, then a
//! `LabelSaMapper` with the same parameters, seed and strategy tried at
//! each II from `schedule::mii` upward. Tracing that decomposition puts a
//! span around every layer the request passes through without adding
//! tracing inside the program.

use std::io::Cursor;
use std::time::Duration;

use lisa_arch::Accelerator;
use lisa_core::{Lisa, MapRequest};
use lisa_dfg::Dfg;
use lisa_events::EventSink;
use lisa_labels::DfgAttributes;
use lisa_mapper::schedule::mii;
use lisa_mapper::{IiMapper, LabelSaMapper, Mapping, MappingOutcome, SaParams, StrategySpec};
use lisa_serve::protocol::{read_frame, render_ok, render_unmappable, write_frame};

use crate::trace::Tracer;

/// Span names, one per layer boundary.
pub const REQUEST: &str = "core.request";
pub const PREDICT: &str = "gnn.predict";
pub const MII: &str = "mapper.mii";
pub const BUILD: &str = "mapper.build";
pub const FEASIBLE: &str = "mapper.attempt.feasible";
pub const INFEASIBLE: &str = "mapper.attempt.infeasible";
pub const VERIFY: &str = "mapper.verify";
pub const ATTRIBUTES: &str = "labels.attributes";
pub const STANDARD: &str = "arch.standard";
pub const PARSE: &str = "serve.parse";
pub const KEY: &str = "serve.key";
pub const RENDER: &str = "serve.render";
pub const FRAME: &str = "serve.frame";

/// What one traced request produced.
pub struct Traced<'a> {
    pub outcome: MappingOutcome,
    pub mapping: Option<Mapping<'a>>,
    /// Attempts whose wall-clock reached `SaParams::time_limit`.
    pub deadline_exits: u32,
}

/// The request's inputs.
pub struct Request<'a> {
    pub lisa: &'a Lisa,
    pub sa: &'a SaParams,
    pub acc: &'a Accelerator,
    pub dfg: &'a Dfg,
    pub seed: u64,
    pub max_ii: u32,
    pub strategy: &'a StrategySpec,
}

/// Maps one request through `predict_labels` and per-II `map_at_ii`
/// calls, each in its own span under one `core.request` span. Lane
/// events go to `sink`.
pub fn map_traced<'a>(t: &mut Tracer, id: u64, r: &Request<'a>, sink: &EventSink) -> Traced<'a> {
    let root = t.open(REQUEST, None, id);
    let labels = t.time(PREDICT, Some(root), id, || r.lisa.predict_labels(r.dfg));
    let (lo, hi) = t.time(MII, Some(root), id, || {
        (mii(r.dfg, r.acc), r.max_ii.min(r.acc.max_ii()))
    });
    let mapper = t.time(BUILD, Some(root), id, || {
        LabelSaMapper::new(labels, r.sa.clone(), r.seed)
            .with_strategy(r.strategy.clone())
            .with_observer(sink.clone())
    });
    let mut attempts = 0;
    let mut deadline_exits = 0;
    let mut found = None;
    for ii in lo..=hi {
        let span = t.open(INFEASIBLE, Some(root), id);
        let result = mapper.clone().map_at_ii(r.dfg, r.acc, ii);
        let name = if result.is_some() {
            FEASIBLE
        } else {
            INFEASIBLE
        };
        t.close_as(span, name);
        attempts += 1;
        if t.spans()[span].duration_ns() >= r.sa.time_limit.as_nanos() as u64 {
            deadline_exits += 1;
        }
        if let Some(m) = result {
            found = Some((ii, m));
            break;
        }
    }
    t.close(root);
    let compile_time = Duration::from_nanos(t.spans()[root].duration_ns());
    let (ii, mapping) = match found {
        Some((ii, m)) => (Some(ii), Some(m)),
        None => (None, None),
    };
    let outcome = MappingOutcome {
        mapper: mapper.name().to_string(),
        dfg: r.dfg.name().to_string(),
        accelerator: r.acc.name().to_string(),
        ii,
        compile_time,
        routing_cells: mapping.as_ref().map_or(0, Mapping::routing_cells),
        activity: mapping.as_ref().map(Mapping::activity).unwrap_or_default(),
        ops: r.dfg.op_count(),
        attempts,
    };
    Traced {
        outcome,
        mapping,
        deadline_exits,
    }
}

/// The output checks every returned mapping must pass: `verify()`
/// holds, the II is the outcome's, at least `mii` and within the cap.
pub fn check_mapping(
    dfg: &Dfg,
    acc: &Accelerator,
    max_ii: u32,
    outcome: &MappingOutcome,
    mapping: Option<&Mapping<'_>>,
) -> Result<(), String> {
    let what = || format!("{} on {}", dfg.name(), acc.name());
    match (outcome.ii, mapping) {
        (Some(ii), Some(m)) => {
            m.verify()
                .map_err(|e| format!("{}: mapping fails verify: {e}", what()))?;
            if m.ii() != ii {
                return Err(format!(
                    "{}: outcome II {ii} but mapping II {}",
                    what(),
                    m.ii()
                ));
            }
            let lo = mii(dfg, acc);
            if ii < lo || ii > max_ii {
                return Err(format!("{}: II {ii} outside [{lo}, {max_ii}]", what()));
            }
            Ok(())
        }
        (None, None) => Ok(()),
        (ii, m) => Err(format!(
            "{}: outcome II {ii:?} disagrees with mapping presence {}",
            what(),
            m.is_some()
        )),
    }
}

/// The response body the daemon would serve for this outcome.
pub fn render(
    req: &MapRequest,
    outcome: &MappingOutcome,
    mapping: Option<&Mapping<'_>>,
) -> Result<String, String> {
    match mapping {
        Some(m) => render_ok(req, outcome, m).map_err(|e| e.to_string()),
        None => Ok(render_unmappable(req, outcome)),
    }
}

/// Replays the per-request work of the layers around the mapper, each
/// in its own root span: `Mapping::verify`, `DfgAttributes::generate`,
/// `Accelerator::standard`, and the serve path's parse, hash, render and
/// framing. Returns the rendered body, or the failed check.
pub fn replay_layers(
    t: &mut Tracer,
    id: u64,
    req: &MapRequest,
    acc: &Accelerator,
    traced: &Traced<'_>,
) -> Result<String, String> {
    let verified = t.time(VERIFY, None, id, || {
        check_mapping(
            &req.dfg,
            acc,
            req.max_ii,
            &traced.outcome,
            traced.mapping.as_ref(),
        )
    });
    t.time(ATTRIBUTES, None, id, || DfgAttributes::generate(&req.dfg));
    t.time(STANDARD, None, id, || {
        Accelerator::standard(&req.accelerator)
    });
    let text = req.canonical_text();
    let parsed = t.time(PARSE, None, id, || MapRequest::parse(&text));
    if parsed.as_ref() != Ok(req) {
        return Err(format!("{}: request does not round-trip", req.dfg.name()));
    }
    t.time(KEY, None, id, || req.cache_key());
    let body = t.time(RENDER, None, id, || {
        render(req, &traced.outcome, traced.mapping.as_ref())
    })?;
    let framed = t.time(FRAME, None, id, || frame_round_trip(&text, &body));
    verified?;
    if !framed {
        return Err(format!("{}: frames do not round-trip", req.dfg.name()));
    }
    Ok(body)
}

/// Writes and reads back a request frame and a response frame.
fn frame_round_trip(request: &str, body: &str) -> bool {
    let mut buf = Vec::with_capacity(request.len() + body.len() + 8);
    let written = write_frame(&mut buf, request.as_bytes()).is_ok()
        && write_frame(&mut buf, body.as_bytes()).is_ok();
    let mut r = Cursor::new(buf);
    let req = read_frame(&mut r).ok().flatten();
    let resp = read_frame(&mut r).ok().flatten();
    written
        && req.as_deref() == Some(request.as_bytes())
        && resp.as_deref() == Some(body.as_bytes())
}
