//! Set-up shared by every workload: train one model per fabric at the
//! `lisa-map` quick scale, then map once per fabric untimed so lazy
//! state is warm before the measured window opens.

use std::time::Instant;

use lisa_arch::Accelerator;
use lisa_core::{Lisa, LisaConfig, Pipeline};
use lisa_dfg::polybench;
use lisa_events::EventSink;

use crate::stats::median;
use crate::workload::{Workload, MAX_II};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Training threads. One: on a two-vCPU host a single contended vCPU
/// stalls a two-thread set-up far more than a one-thread one, and the
/// trained models are identical for every thread count.
const TRAIN_PARALLELISM: usize = 1;

/// The `lisa-map` quick-scale training configuration.
pub fn config(workload: Workload) -> LisaConfig {
    let mut config = LisaConfig::fast();
    config.training_dfgs = 24;
    config.seed = 2022;
    config.strategy = workload.strategy();
    config.parallelism = TRAIN_PARALLELISM;
    config
}

/// One trained model per fabric the workload maps on.
pub struct Models {
    pub fabrics: Vec<(&'static str, Accelerator, Lisa)>,
}

impl Models {
    pub fn get(&self, fabric: &str) -> (&Accelerator, &Lisa) {
        let (_, acc, lisa) = self
            .fabrics
            .iter()
            .find(|(f, _, _)| *f == fabric)
            .expect("every case's fabric has a model");
        (acc, lisa)
    }

    /// Exported weights of every model, to check that set-up is
    /// deterministic.
    fn fingerprint(&self) -> Vec<String> {
        self.fabrics
            .iter()
            .map(|(_, _, l)| l.export_model())
            .collect()
    }
}

/// Trains every fabric's model and warms it up. With an active `sink`
/// training runs as an observed [`Pipeline`], which emits the stage
/// events the traced run reads.
pub fn prepare(workload: Workload, sink: &EventSink) -> Result<Models, String> {
    let config = config(workload);
    let warm_up = polybench::kernel("gemm").map_err(|e| e.to_string())?;
    let mut fabrics = Vec::new();
    for &fabric in workload.fabrics() {
        let acc = Accelerator::standard(fabric).ok_or(format!("unknown fabric {fabric}"))?;
        let lisa = if sink.is_active() {
            Pipeline::new(&acc, config.clone())
                .with_observer(sink.clone())
                .run()
                .map_err(|e| format!("training for {fabric}: {e}"))?
                .ok_or("pipeline stopped early")?
        } else {
            Lisa::train_for(&acc, &config).map_err(|e| format!("training for {fabric}: {e}"))?
        };
        lisa.map_request(&warm_up, &acc, 0, MAX_II, &config.strategy, 1);
        fabrics.push((fabric, acc, lisa));
    }
    Ok(Models { fabrics })
}

/// Runs [`prepare`] `repeats` times. Returns the last models, the
/// median set-up time in seconds, and every sample.
pub fn prepare_repeated(
    workload: Workload,
    repeats: usize,
    extra: impl Fn(&Models) -> Result<(), String>,
) -> Result<(Models, f64, Vec<f64>), String> {
    let mut samples = Vec::new();
    let mut last: Option<Models> = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let models = prepare(workload, &EventSink::null())?;
        extra(&models)?;
        samples.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if prev.fingerprint() != models.fingerprint() {
                return Err("two set-ups trained different models".to_string());
            }
        }
        last = Some(models);
    }
    let models = last.expect("at least one set-up ran");
    Ok((models, median(&samples), samples))
}
