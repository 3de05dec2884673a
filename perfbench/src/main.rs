//! The repository benchmark: three closed-loop workloads driven through
//! the public APIs of `lisa-core` and `lisa-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-sa|compile-mixed|serve-zipf|all \
//!     --seed <n> --seconds <n> --trace 0|1
//! ```
//!
//! * `compile-sa` — `Lisa::map_request` with the default `sa` strategy
//!   for the 12 Fig. 9 PolyBench kernels on `3x3`, `4x4`, `4x4-lr` and
//!   `8x8`, twelve request seeds each.
//! * `compile-mixed` — the same call with `mixed` lanes for the
//!   ×2-unrolled Fig. 9d kernels on `4x4`, 24 request seeds each.
//! * `serve-zipf` — `serve_tcp` on loopback, two client connections
//!   replaying a Zipf-popularity trace over a working set three times
//!   the memory tier.
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics from spans recorded around
//! each layer's public calls, plus exact counts from a recording event
//! sink, and writes the spans to `.perfbench/`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `peak_rss_mb` is the process's high-water mark, so
//! under `--workload all` it accumulates across workloads.

mod compile;
mod layers;
mod observe;
mod perlayer;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunResult;
use trace::Tracer;
use workload::Workload;

/// Scratch and output directory, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload compile-sa|compile-mixed|serve-zipf|all --seed <n> \
     --seconds <n> --trace 0|1"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or(format!("unknown workload {name}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if args.workloads.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// Writes a traced run's spans to `.perfbench/trace-<workload>-seed<n>.jsonl`.
pub fn write_trace(tracer: &Tracer, workload: Workload, seed: u64, r: &mut RunResult) {
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_jsonl(&path));
    match written {
        Ok(()) => r.line(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => r.problem(format!("writing {}: {e}", path.display())),
    }
}

/// A fresh scratch directory for one engine's disk tier.
pub fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR)
        .join(format!("tmp-{}", std::process::id()))
        .join(tag)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    for &w in &args.workloads {
        let result = match w {
            Workload::CompileSa | Workload::CompileMixed => {
                compile::run(w, args.seed, args.seconds, args.trace)
            }
            Workload::ServeZipf => serve::run(args.seed, args.seconds, args.trace),
        };
        let _ =
            std::fs::remove_dir_all(Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id())));
        match result {
            Ok(r) => print!("{}", r.render()),
            Err(msg) => {
                eprintln!("{}: {msg}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
