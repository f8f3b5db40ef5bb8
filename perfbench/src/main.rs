//! `perfbench` — one end-to-end benchmark of the rwalk-repro workspace,
//! with per-layer attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lp_sparse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run generates its inputs from `--seed` outside the timed region,
//! measures for `--seconds`, checks every output with computations of
//! its own, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics (and writes its spans under `perfbench/work/`). See
//! `perfbench/README.md` for the workloads and what each metric means.

mod checks;
mod inputs;
mod measure;
mod pipeline;
mod serve;

/// A measured metric: name and value (units come from [`END_TO_END`]
/// and [`PER_LAYER`]).
pub type Metric = (&'static str, f64);

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Every end-to-end metric with its unit, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("quality", "score"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Every per-layer metric with its unit, in output order. A layer that
/// does not run on a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tgraph.load_s", "s"),
    ("tgraph.edges_per_s", "1/s"),
    ("store.open_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("twalk.prepare_s", "s"),
    ("twalk.walk_s", "s"),
    ("twalk.hops", "count"),
    ("twalk.ns_per_hop", "ns"),
    ("embed.train_s", "s"),
    ("embed.tokens", "count"),
    ("embed.ns_per_token", "ns"),
    ("core.fused_producer_stall_s", "s"),
    ("core.fused_trainer_stall_s", "s"),
    ("core.parallelism", "ratio"),
    ("core.unattributed_s", "s"),
    ("dataprep.split_s", "s"),
    ("dataprep.features_s", "s"),
    ("nn.fit_s", "s"),
    ("nn.rows", "count"),
    ("nn.fit_gflops", "GFLOP/s"),
    ("nn.predict_s", "s"),
    ("serve.parse_us", "us"),
    ("serve.link_score_us", "us"),
    ("serve.topk_us", "us"),
    ("serve.score_pairs_us_per_pair", "us"),
    ("serve.gap_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.refreshes", "count"),
    ("serve.refresh_s", "s"),
    ("serve.shed", "count"),
    ("trace.overhead_s", "s"),
    ("trace.phase_drift", "share"),
];

/// A workload entry point: `(seed, seconds, trace)` to its outcome.
type RunFn = fn(u64, f64, bool) -> Outcome;

const WORKLOADS: &[(&str, RunFn)] = &[
    ("lp_sparse", pipeline::lp_sparse),
    ("embed_dense", pipeline::embed_dense),
    ("walks_dense", pipeline::walks_dense),
    ("serve_reads", serve::serve_reads),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The result line: every metric of the selected set, in catalogue
/// order, with its unit.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("error: --workload must be one of {}", names.join(", "));
        std::process::exit(2);
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {} simd {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        simd::active_backend()
    );
    let outcome = run(args.seed, args.seconds, args.trace);
    println!("{}", result_json(&outcome, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_set_once() {
        let outcome =
            Outcome { correct: true, attempted: 3, failed: 0, metrics: vec![("job_s", 1.25)] };
        let line = result_json(&outcome, false);
        let parsed = rwserve::json::Json::parse(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(rwserve::json::Json::as_str), Some(*unit));
        }
        assert_eq!(metrics.get("job_s").unwrap().get("value").unwrap().as_f64(), Some(1.25));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
