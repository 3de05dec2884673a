//! A recording `EventSink` observer for traced runs: exact work counters
//! from the mapper's lanes, pipeline stage durations, and timestamped
//! serve lifecycle events.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lisa_events::{EventSink, Observer, PipelineEvent};

/// What a traced run learned from the program's own events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub proposals: u64,
    pub router_invocations: u64,
    pub lane_wins: BTreeMap<&'static str, u64>,
    pub stages: Vec<(&'static str, Duration)>,
    /// `(request id, event tag, ns since the recorder's origin)`.
    pub serve: Vec<(u64, &'static str, u64)>,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    proposals: AtomicU64,
    router_invocations: AtomicU64,
    rare: Mutex<Tally>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Arc<Recorder> {
        Arc::new(Recorder {
            origin,
            proposals: AtomicU64::new(0),
            router_invocations: AtomicU64::new(0),
            rare: Mutex::new(Tally::default()),
        })
    }

    pub fn sink(self: &Arc<Self>) -> EventSink {
        EventSink::new(self.clone())
    }

    /// Drains everything recorded so far.
    pub fn take(&self) -> Tally {
        let mut tally = std::mem::take(&mut *self.rare.lock().expect("recorder lock"));
        tally.proposals = self.proposals.swap(0, Ordering::Relaxed);
        tally.router_invocations = self.router_invocations.swap(0, Ordering::Relaxed);
        tally
    }
}

impl Observer for Recorder {
    fn event(&self, event: &PipelineEvent) {
        match event {
            PipelineEvent::SaFilterSummary {
                proposals,
                router_invocations,
                ..
            } => {
                self.proposals.fetch_add(*proposals, Ordering::Relaxed);
                self.router_invocations
                    .fetch_add(*router_invocations, Ordering::Relaxed);
            }
            PipelineEvent::StrategyLaneWon { strategy, .. } => {
                *self
                    .rare
                    .lock()
                    .expect("recorder lock")
                    .lane_wins
                    .entry(strategy)
                    .or_insert(0) += 1;
            }
            PipelineEvent::StageFinished { stage, duration } => {
                let mut rare = self.rare.lock().expect("recorder lock");
                rare.stages.push((stage, *duration));
            }
            PipelineEvent::ServeEnqueued { request, .. }
            | PipelineEvent::ServeAnnealStarted { request }
            | PipelineEvent::ServeCacheProbe { request, .. }
            | PipelineEvent::ServeResponded { request, .. } => {
                let at = self.origin.elapsed().as_nanos() as u64;
                let mut rare = self.rare.lock().expect("recorder lock");
                rare.serve.push((*request, event.tag(), at));
            }
            _ => {}
        }
    }
}
