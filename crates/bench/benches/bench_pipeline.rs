//! Benches for the staged training pipeline and its persistable text
//! artifacts: DFG-set and labelled-dataset round-trips (the cost a
//! checkpointed run pays over an in-memory one) and, in the heavy tier,
//! an end-to-end fast-scale pipeline run.

use lisa_arch::Accelerator;
use lisa_bench::timing::Suite;
use lisa_core::{LisaConfig, Pipeline};
use lisa_dfg::text::{parse_dfg_set, write_dfg_set};
use lisa_dfg::{random, same_level, RandomDfgConfig};
use lisa_labels::{parse_dataset, write_dataset, Dataset, DatasetEntry, GeneratedLabels};
use lisa_mapper::GuidanceLabels;

/// A labelled dataset with hand-built labels (same-level values on the
/// DFG's own dummy edges, as the parser requires): exercises the
/// serializer shape without paying for real label generation.
fn synthetic_dataset(dfgs: &[lisa_dfg::Dfg]) -> Dataset {
    let entries: Vec<DatasetEntry> = dfgs
        .iter()
        .map(|dfg| {
            let nodes = dfg.node_count();
            let edges = dfg.edge_count();
            DatasetEntry {
                dfg: dfg.clone(),
                outcome: Some(GeneratedLabels {
                    labels: GuidanceLabels {
                        schedule_order: (0..nodes).map(|i| i as f64 * 0.5).collect(),
                        same_level: same_level::dummy_edges(dfg)
                            .iter()
                            .enumerate()
                            .map(|(i, d)| (d.a, d.b, 1.0 + (i % 4) as f64))
                            .collect(),
                        spatial: (0..edges).map(|i| (i % 3) as f64).collect(),
                        temporal: (0..edges).map(|i| 1.0 + (i % 2) as f64).collect(),
                    },
                    best_ii: 3,
                    mii: 2,
                    candidate_count: 4,
                }),
            }
        })
        .collect();
    Dataset {
        accelerator: "4x4".to_string(),
        declared_count: entries.len(),
        entries,
    }
}

fn main() {
    let mut suite = Suite::from_args("pipeline");
    let dfg_config = RandomDfgConfig::default();

    // Stage 1 alone: synthetic DFG generation.
    suite.bench("stage/generate_dfgs_12", || {
        std::hint::black_box(random::generate_dataset(&dfg_config, 2022, 12));
    });

    // Checkpoint artifact round-trips: serialize + strict re-parse.
    let dfgs = random::generate_dataset(&dfg_config, 2022, 12);
    suite.bench("artifacts/dfg_set_round_trip_12", || {
        let text = write_dfg_set(&dfgs);
        std::hint::black_box(parse_dfg_set(&text).unwrap());
    });

    let dataset = synthetic_dataset(&dfgs);
    suite.bench("artifacts/dataset_round_trip_12", || {
        let text = write_dataset(&dataset);
        std::hint::black_box(parse_dataset(&text).unwrap());
    });

    // End-to-end staged pipeline at fast scale (heavy tier: seconds).
    let acc = Accelerator::cgra("4x4", 4, 4);
    suite.bench_heavy("pipeline/train_fast_6", || {
        let config = LisaConfig {
            training_dfgs: 6,
            ..LisaConfig::fast()
        };
        let lisa = Pipeline::new(&acc, config)
            .run()
            .expect("fast config yields a dataset")
            .expect("pipeline runs to completion");
        std::hint::black_box(lisa);
    });

    suite.finish();
}
