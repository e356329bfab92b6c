//! The repository benchmark: drives the library through its public API
//! on one named workload and prints the `BENCHMARK.json` metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analytics --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` runs the timed phase untraced, traced and untraced again,
//! prints the traced phase's per-layer metrics and `trace.overhead_ratio`, and writes every span to
//! `perfbench/out/<workload>-seed<seed>.spans.jsonl`. The last line of
//! standard output is the result object; the line before it holds the run
//! context and the workload-specific figures. A wrong answer exits with
//! code 1 before any result is printed.

mod analytics;
mod common;
mod data;
mod ingest;
mod oracle;
mod queries;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;

use common::{fs_type, Phase, SetupFacts, SetupRuns, THREADS};
use report::{json_string, metrics_json, Metric};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP: SetupRuns = SetupRuns {
    min: 5,
    budget_s: 2.0,
};

const WORKLOADS: [&str; 3] = ["ingest", "analytics", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The named workload, prepared.
enum Workload {
    Ingest(ingest::Ingest),
    Analytics(analytics::Analytics),
    Serve(serve::Serve),
}

impl Workload {
    fn setup(
        args: &Args,
        runs: SetupRuns,
        tracer: &Arc<Tracer>,
    ) -> Result<(Self, Vec<f64>), String> {
        let (s, t) = (args.seed, args.seconds);
        Ok(match args.workload.as_str() {
            "ingest" => {
                let (w, times) = ingest::Ingest::setup(s, t, runs, tracer)?;
                (Workload::Ingest(w), times)
            }
            "analytics" => {
                let (w, times) = analytics::Analytics::setup(s, t, runs, tracer)?;
                (Workload::Analytics(w), times)
            }
            _ => {
                let (w, times) = serve::Serve::setup(s, t, runs, tracer)?;
                (Workload::Serve(w), times)
            }
        })
    }

    fn run(&mut self, tracer: &Arc<Tracer>) -> Result<Phase, String> {
        match self {
            Workload::Ingest(w) => w.run(tracer),
            Workload::Analytics(w) => w.run(tracer),
            Workload::Serve(w) => w.run(tracer),
        }
    }

    fn facts(&self) -> &SetupFacts {
        match self {
            Workload::Ingest(w) => &w.facts,
            Workload::Analytics(w) => &w.facts,
            Workload::Serve(w) => &w.facts,
        }
    }
}

fn context_line(args: &Args, facts: &SetupFacts, setup_times: &[f64], extras: &[Metric]) -> String {
    let work = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| std::path::PathBuf::from("perfbench"), Into::into);
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), json_string(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        (
            "kernel_tier".into(),
            json_string(corra_columnar::simd::active().tier.as_str()),
        ),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("threads".into(), THREADS.to_string()),
        ("temp_fs".into(), json_string(&fs_type(&work))),
        (
            "setup_s_samples".into(),
            format!(
                "[{}]",
                setup_times
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    for (k, v) in &facts.context {
        fields.push(((*k).to_owned(), json_string(v)));
    }
    let ctx: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!(
        "{{\"context\": {{{}}}, \"figures\": {}}}",
        ctx.join(", "),
        metrics_json(extras)
    )
}

fn run(args: &Args) -> Result<(), String> {
    let off = Arc::new(Tracer::new(false));
    let (phase, metrics, facts, times) = if args.trace {
        let tracer = Arc::new(Tracer::new(true));
        let once = SetupRuns {
            min: 1,
            budget_s: 0.0,
        };
        let (mut w, times) = Workload::setup(args, once, &tracer)?;
        // Untraced, traced, untraced: the overhead ratio compares the
        // traced phase with the mean of the phases around it, so warm-up
        // and drift do not pass for tracing cost.
        let before = w.run(&off)?;
        let traced = w.run(&tracer)?;
        let after = w.run(&off)?;
        let overhead = traced.wall_s / ((before.wall_s + after.wall_s) / 2.0);
        let metrics = report::per_layer(&traced, &tracer.spans(), w.facts(), overhead);
        let out = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| std::path::PathBuf::from("perfbench"), Into::into)
            .join("out");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let spans = out.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&spans).map_err(|e| e.to_string())?;
        eprintln!("spans written to {}", spans.display());
        let mut phase = traced;
        for untraced in [before, after] {
            phase.attempted += untraced.attempted;
            phase.failed += untraced.failed;
        }
        (phase, metrics, w.facts().clone(), times)
    } else {
        let (mut w, times) = Workload::setup(args, SETUP, &off)?;
        let phase = w.run(&off)?;
        let metrics = report::end_to_end(&phase, &times, w.facts())?;
        (phase, metrics, w.facts().clone(), times)
    };
    for m in &metrics {
        eprintln!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        context_line(args, &facts, &times, &report::extras(&phase))
    );
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        phase.attempted,
        phase.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <ingest|analytics|serve> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
