//! The repository benchmark.
//!
//! ```text
//! ccdb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! ccdb-perfbench compare BEFORE.json AFTER.json
//! ```
//!
//! Run it from the root of the repository (it reads `BENCHMARK.json`
//! there), normally through `cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`. It prints one line per metric, then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits non-zero when a correctness check
//! fails. See `perfbench/README.md` for the workloads and metrics.

mod des;
mod report;
mod sock;
mod stats;

use std::process::ExitCode;

use report::{json_str, load_declaration, Metrics, Stamp};

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: simulation runs on the DES workloads,
    /// transactions on the socket workloads.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that failed, with what they saw.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn error(e: String) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            attempted: 1,
            failed: 1,
            failures: vec![e],
        }
    }
}

/// Every workload the benchmark can run.
const WORKLOADS: [&str; 3] = ["des_occ_uniform", "des_cb_hotspot", "srv_occ_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (have {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => sock::serve_main(&argv[1..]),
        Some("compare") if argv.len() == 3 => report::compare(&argv[1], &argv[2]),
        _ => bench_main(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ccdb-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench_main(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let decl = load_declaration("BENCHMARK.json")?;
    let stamp = Stamp::collect();
    println!("host {}", stamp.to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let ticks0 = stats::host_ticks();
    let outcome = match args.workload.as_str() {
        "des_occ_uniform" => des::run(
            des::DesWorkload::OccUniform,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "des_cb_hotspot" => des::run(
            des::DesWorkload::CbHotspot,
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => sock::run(args.seed, args.seconds, args.trace),
    };
    // Not a metric: a noise figure for the reader. A shared host that
    // is busy elsewhere shows as steal, and timings spread with it.
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks0, stats::host_ticks()) {
        println!(
            "host cpu steal during the run: {:.1}%",
            (steal1 - steal0) as f64 * 100.0 / (all1 - all0).max(1) as f64
        );
    }
    let mut failures = outcome.failures;
    let emitted = if args.trace {
        outcome.metrics.emit(&decl.per_layer, &decl, false)
    } else {
        outcome.metrics.emit(&decl.end_to_end, &decl, true)
    };
    let metrics = emitted.unwrap_or_else(|e| {
        failures.push(e);
        "{}".to_string()
    });
    let correct = failures.is_empty();
    let failed = if correct {
        outcome.failed
    } else {
        outcome.failed.max(1)
    };
    println!(
        "failed_share {} ({failed} of {} attempted)",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1)
    );
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"result\": {line}}}\n",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            args.trace,
            stamp.to_json()
        );
        std::fs::write(path, doc).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{line}");
    if correct {
        Ok(())
    } else {
        Err(format!("{} correctness check(s) failed", failures.len()))
    }
}
