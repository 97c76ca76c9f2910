//! `ccdb` — command-line driver for the cache-consistency simulator.
//!
//! ```text
//! ccdb run     --alg CB --clients 30 --loc 0.50 --pw 0.2 [options]
//! ccdb explain --alg CB --clients 30 --loc 0.50 --pw 0.2 [options]
//! ccdb compare --clients 30 --loc 0.50 --pw 0.2 [options]
//! ccdb sweep   [--exp FAMILY] [--algs all|A,B] [--clients 2,10,30,50]
//!              [--loc 0.25,0.75] [--pw 0.2] [--reps N | --precision F]
//!              [--jobs N] [--shard I/N] [--json|--jsonl|--csv]
//!              [--sample-interval S] [--checkpoint FILE | --resume FILE]
//!              [--fsync-every N]
//! ccdb figures [--exp FAMILY|all] [--out DIR] [--jobs N] [--reps N]
//!              [--checkpoint DIR] [--svg]
//! ccdb merge   A.jsonl B.jsonl ..  # rebuild one sweep from shard streams
//! ccdb trace   [--chrome out.json] [options]   # protocol transcript
//! ccdb bench   [--quick] [--out FILE] [--label NAME] [--check BASELINE]
//! ccdb serve   --alg CB [--port 0] [--clients N] [--mpl N] [--trace FILE]
//!              [--once] [--port-file FILE] [--shards N] [--threaded]
//!              # real TCP page-server (reactor by default)
//! ccdb load    --addr HOST:PORT [--clients N] [--txns N] [--seed N]
//! ccdb replay  trace.jsonl   # diff a recorded run against the sans-io core
//! ccdb list                                               # algorithms
//! ```
//!
//! Common options: `--exp acl|caching|short|large|fast-server|fast-net|
//! interactive` (experiment family, default `short`), `--seed N`,
//! `--measure SECS`, `--warmup SECS` (defaults 30 s + 300 s, or 10 s +
//! 60 s with `CCDB_QUICK=1`). Observability: `--json` (structured
//! report), `--sample-interval SECS` (adaptive metric time series; on a
//! sweep each cell exports a cross-replication merged series), `--series`
//! (append the time-series table to `ccdb explain`, default interval
//! measure/50), `--trace-cap N` (trace buffer size for `ccdb trace`),
//! `--lock-shards N` (partition the server lock table into N hash
//! shards; dynamics are identical for every N, only the wait attribution
//! and per-shard stats change). `--fsync-every N` fsyncs a sweep
//! checkpoint log every N job records (default 0 = leave durability to
//! the OS).
//!
//! `sweep --shard I/N` runs the 1-based I-th of N disjoint slices of the
//! job grid (fixed replication only); global job indices and seeds match
//! the unsharded sweep, so JSONL streams from all N shards merge —
//! `ccdb merge` — into exactly the unsharded corpus.
//!
//! `sweep --checkpoint FILE` makes the `ccdb.job/v2` stream a write-ahead
//! log: each job line is committed as the job completes, and a killed
//! sweep continues with `--resume FILE` (same flags), re-running only the
//! missing jobs — the final document is byte-identical to an
//! uninterrupted run. `figures --checkpoint DIR` does the same per
//! family, resuming `DIR/<family>.jsonl` automatically. See
//! `docs/sweep.md`.
//!
//! `sweep` and `figures` fan jobs out over a worker pool (`--jobs N`,
//! `CCDB_JOBS`, default `available_parallelism()`); output is
//! byte-identical for every worker count.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ccdb::bench::{bench_delta_table, check_bench, run_bench, utc_date, BenchCtl};
use ccdb::core::run_replicated_folded;
use ccdb::core::{run_simulation_traced, Trace};
use ccdb::server::{load, replay, serve, LoadOptions, ServeOptions};
use ccdb::sweep::{
    dynamics_svg, figures_from_sweep, footer_line, header_line, job_line, merge_logs_named,
    read_log, resolve_workers, run_sweep_resumed, run_sweep_sharded, spec_hash, sweep_document,
    CheckpointWriter, Family, JobCache, Replication, SeriesSampling, SweepResult, SweepSpec,
};
use ccdb::{
    run_simulation, run_simulation_observed, Algorithm, Json, ObsOptions, Observed, RunReport,
    SimConfig, SimDuration,
};

/// One shared parser for every surface that names algorithms (`--alg`,
/// `--algs`, `serve --alg`): [`Algorithm::from_str`], which accepts the
/// paper labels case-insensitively plus the historical aliases.
fn parse_alg(s: &str) -> Option<Algorithm> {
    s.parse().ok()
}

struct Options {
    alg: Option<Algorithm>,
    algs: Option<String>,
    clients: Vec<u32>,
    loc: Vec<f64>,
    pw: Vec<f64>,
    exp: Option<String>,
    seed: u64,
    warmup: Option<f64>,
    measure: Option<f64>,
    csv: bool,
    json: bool,
    jsonl: bool,
    sample_interval: Option<f64>,
    series: bool,
    fsync_every: Option<u64>,
    trace_cap: usize,
    reps: Option<u32>,
    precision: Option<f64>,
    max_reps: Option<u32>,
    jobs: Option<usize>,
    out: Option<String>,
    label: Option<String>,
    lock_shards: Option<u32>,
    shard: Option<(u32, u32)>,
    checkpoint: Option<String>,
    resume: Option<String>,
    chrome: Option<String>,
    svg: bool,
    check: Option<String>,
    quick: bool,
    port: u16,
    port_file: Option<String>,
    addr: Option<String>,
    txns: u32,
    mpl: Option<u32>,
    once: bool,
    wire_trace: Option<String>,
    engine_shards: Option<u32>,
    threaded: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            alg: None,
            algs: None,
            clients: vec![],
            loc: vec![],
            pw: vec![],
            exp: None,
            seed: 0xCCDB,
            warmup: None,
            measure: None,
            csv: false,
            json: false,
            jsonl: false,
            sample_interval: None,
            series: false,
            fsync_every: None,
            trace_cap: 2_000,
            reps: None,
            precision: None,
            max_reps: None,
            jobs: None,
            out: None,
            label: None,
            lock_shards: None,
            shard: None,
            checkpoint: None,
            resume: None,
            chrome: None,
            svg: false,
            check: None,
            quick: false,
            port: 0,
            port_file: None,
            addr: None,
            txns: 20,
            mpl: None,
            once: false,
            wire_trace: None,
            engine_shards: None,
            threaded: false,
        }
    }
}

fn parse_list<T: std::str::FromStr>(flag: &str, val: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    val.split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("{flag}: {e}")))
        .collect()
}

fn single<T: Copy>(values: &[T], default: T, flag: &str) -> Result<T, String> {
    match values {
        [] => Ok(default),
        [one] => Ok(*one),
        _ => Err(format!(
            "{flag} accepts a list only for the sweep/figures commands"
        )),
    }
}

impl Options {
    /// The single algorithm for run/explain/trace/replicate.
    fn one_alg(&self) -> Algorithm {
        self.alg.unwrap_or(Algorithm::TwoPhase { inter: true })
    }

    fn one_clients(&self) -> Result<u32, String> {
        single(&self.clients, 10, "--clients")
    }

    fn one_loc(&self) -> Result<f64, String> {
        single(&self.loc, 0.25, "--loc")
    }

    fn one_pw(&self) -> Result<f64, String> {
        single(&self.pw, 0.2, "--pw")
    }

    /// Warm-up and measurement windows in seconds: explicit flags win,
    /// then `CCDB_QUICK=1` shortens the defaults (10 s + 60 s) exactly as
    /// the bench harnesses do, else 30 s + 300 s.
    fn horizon_secs(&self) -> (f64, f64) {
        let quick = std::env::var_os("CCDB_QUICK").is_some();
        let (dw, dm) = if quick { (10.0, 60.0) } else { (30.0, 300.0) };
        (self.warmup.unwrap_or(dw), self.measure.unwrap_or(dm))
    }

    fn family(&self) -> Result<Family, String> {
        let name = self.exp.as_deref().unwrap_or("short");
        Family::parse(name).ok_or_else(|| format!("unknown experiment family {name}"))
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        match key.as_str() {
            "--csv" => {
                o.csv = true;
                i += 1;
                continue;
            }
            "--json" => {
                o.json = true;
                i += 1;
                continue;
            }
            "--jsonl" => {
                o.jsonl = true;
                i += 1;
                continue;
            }
            "--series" => {
                o.series = true;
                i += 1;
                continue;
            }
            "--svg" => {
                o.svg = true;
                i += 1;
                continue;
            }
            "--quick" => {
                o.quick = true;
                i += 1;
                continue;
            }
            "--once" => {
                o.once = true;
                i += 1;
                continue;
            }
            "--threaded" => {
                o.threaded = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key.as_str() {
            "--alg" => {
                o.alg = Some(parse_alg(val).ok_or_else(|| format!("unknown algorithm {val}"))?)
            }
            "--algs" => o.algs = Some(val.clone()),
            "--clients" => o.clients = parse_list("--clients", val)?,
            "--loc" => o.loc = parse_list("--loc", val)?,
            "--pw" => o.pw = parse_list("--pw", val)?,
            "--exp" => o.exp = Some(val.clone()),
            "--seed" => o.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--warmup" => o.warmup = Some(val.parse().map_err(|e| format!("--warmup: {e}"))?),
            "--measure" => o.measure = Some(val.parse().map_err(|e| format!("--measure: {e}"))?),
            "--sample-interval" => {
                let secs: f64 = val.parse().map_err(|e| format!("--sample-interval: {e}"))?;
                if secs <= 0.0 {
                    return Err("--sample-interval must be positive".to_string());
                }
                o.sample_interval = Some(secs);
            }
            "--trace-cap" => {
                o.trace_cap = val.parse().map_err(|e| format!("--trace-cap: {e}"))?;
                if o.trace_cap == 0 {
                    return Err("--trace-cap must be positive".to_string());
                }
            }
            "--reps" => o.reps = Some(val.parse().map_err(|e| format!("--reps: {e}"))?),
            "--precision" => {
                let p: f64 = val.parse().map_err(|e| format!("--precision: {e}"))?;
                if p <= 0.0 {
                    return Err("--precision must be positive".to_string());
                }
                o.precision = Some(p);
            }
            "--max-reps" => o.max_reps = Some(val.parse().map_err(|e| format!("--max-reps: {e}"))?),
            "--jobs" => {
                let n: usize = val.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be positive".to_string());
                }
                o.jobs = Some(n);
            }
            "--out" => o.out = Some(val.clone()),
            "--label" => {
                if val.is_empty()
                    || !val
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    return Err(format!(
                        "--label: need a non-empty [A-Za-z0-9_-]+ suffix, got {val:?}"
                    ));
                }
                o.label = Some(val.clone());
            }
            "--lock-shards" => {
                let n: u32 = val.parse().map_err(|e| format!("--lock-shards: {e}"))?;
                if n == 0 {
                    return Err("--lock-shards must be positive".to_string());
                }
                o.lock_shards = Some(n);
            }
            "--shard" => {
                let (i, n) = val
                    .split_once('/')
                    .ok_or_else(|| format!("--shard: expected I/N, got {val}"))?;
                let i: u32 = i.parse().map_err(|e| format!("--shard: {e}"))?;
                let n: u32 = n.parse().map_err(|e| format!("--shard: {e}"))?;
                if n == 0 || i == 0 || i > n {
                    return Err(format!("--shard: need 1 <= I <= N, got {i}/{n}"));
                }
                o.shard = Some((i, n));
            }
            "--checkpoint" => o.checkpoint = Some(val.clone()),
            "--resume" => o.resume = Some(val.clone()),
            "--chrome" => o.chrome = Some(val.clone()),
            "--check" => o.check = Some(val.clone()),
            "--fsync-every" => {
                o.fsync_every = Some(val.parse().map_err(|e| format!("--fsync-every: {e}"))?)
            }
            "--port" => o.port = val.parse().map_err(|e| format!("--port: {e}"))?,
            "--port-file" => o.port_file = Some(val.clone()),
            "--addr" => o.addr = Some(val.clone()),
            "--txns" => {
                o.txns = val.parse().map_err(|e| format!("--txns: {e}"))?;
                if o.txns == 0 {
                    return Err("--txns must be positive".to_string());
                }
            }
            "--mpl" => {
                let n: u32 = val.parse().map_err(|e| format!("--mpl: {e}"))?;
                if n == 0 {
                    return Err("--mpl must be positive".to_string());
                }
                o.mpl = Some(n);
            }
            "--trace" => o.wire_trace = Some(val.clone()),
            "--shards" => {
                let n: u32 = val.parse().map_err(|e| format!("--shards: {e}"))?;
                if n == 0 {
                    return Err("--shards must be positive".to_string());
                }
                o.engine_shards = Some(n);
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(o)
}

fn build_config(o: &Options, alg: Algorithm, clients: u32) -> Result<SimConfig, String> {
    let family = o.family()?;
    let (warmup, measure) = o.horizon_secs();
    let mut cfg = family
        .build(alg, clients, o.one_loc()?, o.one_pw()?)
        .with_seed(o.seed)
        .with_horizon(
            SimDuration::from_secs_f64(warmup),
            SimDuration::from_secs_f64(measure) * family.measure_scale(),
        );
    if let Some(n) = o.lock_shards {
        cfg.sys.lock_shards = n;
    }
    Ok(cfg)
}

/// The sweep grid implied by the options: the family's default grid with
/// any explicitly listed axis overriding its default.
fn build_spec(o: &Options, family: Family) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::new(family);
    spec.seed = o.seed;
    let (warmup, measure) = o.horizon_secs();
    spec.warmup = SimDuration::from_secs_f64(warmup);
    spec.measure = SimDuration::from_secs_f64(measure);
    if let Some(algs) = &o.algs {
        if algs != "all" {
            let parsed: Result<Vec<Algorithm>, String> = algs
                .split(',')
                .map(|s| parse_alg(s.trim()).ok_or_else(|| format!("unknown algorithm {s}")))
                .collect();
            spec.algorithms = parsed?;
        }
    } else if let Some(alg) = o.alg {
        spec.algorithms = vec![alg];
    }
    if !o.clients.is_empty() {
        spec.clients = o.clients.clone();
    }
    if !o.loc.is_empty() {
        spec.localities = o.loc.clone();
    }
    if !o.pw.is_empty() {
        spec.write_probs = o.pw.clone();
    }
    spec.replication = match o.precision {
        Some(target_rel_precision) => Replication::Adaptive {
            min: o.reps.unwrap_or(2),
            max: o.max_reps.unwrap_or(10),
            target_rel_precision,
        },
        None => Replication::Fixed(o.reps.unwrap_or(1)),
    };
    // --sample-interval on a sweep turns on per-replication series
    // capture; without it the sweep stays series-free (v1-shaped cells).
    spec.series = o.sample_interval.map(|secs| SeriesSampling {
        interval: SimDuration::from_secs_f64(secs),
        capacity: ObsOptions::default().ring_capacity,
    });
    Ok(spec)
}

fn obs_options(opts: &Options) -> ObsOptions {
    ObsOptions {
        sample_interval: opts.sample_interval.map(SimDuration::from_secs_f64),
        ..ObsOptions::default()
    }
}

/// The full structured output of one observed run: the deterministic
/// report plus the sampled time series (null when sampling was off).
fn run_document(observed: &Observed) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", "ccdb.run/v1")
        .set("report", observed.report.to_json())
        .set(
            "series",
            observed
                .series
                .as_ref()
                .map(|s| s.to_json())
                .unwrap_or(Json::Null),
        );
    doc
}

fn header_for(opts: &Options) {
    if opts.csv {
        println!("{}", RunReport::csv_header());
        return;
    }
    println!(
        "{:<5} {:>7} {:>5} {:>5} {:>9} {:>8} {:>9} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6}",
        "alg",
        "clients",
        "loc",
        "pw",
        "resp(s)",
        "ci95",
        "tput(/s)",
        "commits",
        "aborts",
        "cpuS%",
        "net%",
        "disk%",
        "hit%"
    );
}

fn row_for(opts: &Options, r: &RunReport) {
    if opts.csv {
        println!("{}", r.to_csv_row());
        return;
    }
    println!(
        "{:<5} {:>7} {:>5.2} {:>5.2} {:>9.3} {:>8.3} {:>9.2} {:>7} {:>7} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
        r.algorithm.label(),
        r.n_clients,
        r.locality,
        r.prob_write,
        r.resp_time_mean,
        r.resp_time_ci95,
        r.throughput,
        r.commits,
        r.aborts,
        r.server_cpu_util * 100.0,
        r.net_util * 100.0,
        r.data_disk_util * 100.0,
        r.cache_hit_ratio * 100.0,
    );
}

/// Plain/CSV rows for the per-cell aggregates of a sweep.
fn sweep_rows(opts: &Options, result: &SweepResult) {
    if opts.csv {
        println!(
            "alg,clients,loc,pw,reps,resp_s,resp_ci95_s,tput_tps,tput_ci95_tps,commits,aborts"
        );
        for c in &result.cells {
            let a = &c.aggregate;
            println!(
                "{},{},{},{},{},{},{},{},{},{},{}",
                c.cell.algorithm.label(),
                c.cell.clients,
                c.cell.locality,
                c.cell.prob_write,
                a.replications,
                a.resp_time_mean,
                a.resp_time_ci95,
                a.throughput_mean,
                a.throughput_ci95,
                a.commits,
                a.aborts,
            );
        }
        return;
    }
    println!(
        "{:<5} {:>7} {:>5} {:>5} {:>5} {:>9} {:>8} {:>9} {:>8} {:>8} {:>8}",
        "alg",
        "clients",
        "loc",
        "pw",
        "reps",
        "resp(s)",
        "ci95",
        "tput(/s)",
        "ci95",
        "commits",
        "aborts"
    );
    for c in &result.cells {
        let a = &c.aggregate;
        println!(
            "{:<5} {:>7} {:>5.2} {:>5.2} {:>5} {:>9.3} {:>8.3} {:>9.2} {:>8.2} {:>8} {:>8}",
            c.cell.algorithm.label(),
            c.cell.clients,
            c.cell.locality,
            c.cell.prob_write,
            a.replications,
            a.resp_time_mean,
            a.resp_time_ci95,
            a.throughput_mean,
            a.throughput_ci95,
            a.commits,
            a.aborts,
        );
    }
}

/// The paper-style breakdown behind `ccdb explain`: which resource is the
/// bottleneck, what each commit costs, where the time goes, and how fast
/// the simulator itself ran.
fn explain(r: &RunReport, wall_secs: f64) {
    println!(
        "== {} ({}), {} clients, locality {:.2}, write prob {:.2} ==",
        r.algorithm.label(),
        r.algorithm.name(),
        r.n_clients,
        r.locality,
        r.prob_write,
    );
    println!(
        "throughput {:.2} txn/s, mean response {:.3}s (p50 {:.3}, p99 {:.3}), {} commits, {} aborts\n",
        r.throughput, r.resp_time_mean, r.resp_p50, r.resp_p99, r.commits, r.aborts,
    );

    match r.bottleneck() {
        Some(b) => println!(
            "bottleneck: {} at {:.1}% utilization (mean queue {:.2})\n",
            b.name,
            b.utilization * 100.0,
            b.mean_queue_len,
        ),
        None => println!("bottleneck: none (no resources reported)\n"),
    }

    println!(
        "{:<14} {:>6} {:>7} {:>11} {:>12}",
        "resource", "util%", "queue", "completions", "busy s/commit"
    );
    let commits = r.commits.max(1) as f64;
    for res in &r.resources {
        let busy_secs = res.utilization * r.measure_secs * res.servers as f64;
        println!(
            "{:<14} {:>6.1} {:>7.2} {:>11} {:>12.4}",
            res.name,
            res.utilization * 100.0,
            res.mean_queue_len,
            res.completions,
            busy_secs / commits,
        );
    }

    println!("\nper-commit costs:");
    println!("  messages/commit      {:>8.2}", r.msgs_per_commit);
    let disk_reads: u64 = r
        .resources
        .iter()
        .filter(|res| res.name.starts_with("data-disk"))
        .map(|res| res.completions)
        .sum();
    println!(
        "  disk accesses/commit {:>8.2}   (data disks; buffer hit ratio {:.1}%)",
        disk_reads as f64 / commits,
        r.buffer_hit_ratio * 100.0,
    );
    println!(
        "  log writes/commit    {:>8.2}",
        r.log_stats.pages_written as f64 / commits,
    );
    println!(
        "  callbacks/commit     {:>8.4}",
        r.callbacks as f64 / commits,
    );
    println!("  aborts/commit        {:>8.4}", r.aborts as f64 / commits);
    println!("  restarts/commit      {:>8.4}", r.restarts_per_commit);
    println!(
        "  lock blocks/commit   {:>8.4}   ({} blocks, {} deadlocks)",
        r.lock_stats.blocks as f64 / commits,
        r.lock_stats.blocks,
        r.lock_stats.deadlocks,
    );

    println!("\nwait decomposition (seconds per committed transaction, attributed):");
    let mut attributed_total = 0.0;
    for w in &r.wait_profile {
        attributed_total += w.mean_s;
        let share = if r.resp_time_mean > 0.0 {
            w.mean_s / r.resp_time_mean * 100.0
        } else {
            0.0
        };
        println!("  {:<14} {:>9.4}  {:>5.1}%", w.label, w.mean_s, share);
    }
    if !r.wait_profile.is_empty() {
        println!(
            "  {:<14} {:>9.4}   (mean response {:.4}s)",
            "total", attributed_total, r.resp_time_mean,
        );
    }

    // The mean-sum ledger above partitions exactly; the histograms show
    // the tail the means hide. Quantiles carry log-bucket resolution.
    let hists: Vec<_> = r.hists.iter().filter(|(_, h)| !h.is_empty()).collect();
    if !hists.is_empty() {
        println!("\nlatency percentiles (seconds per interval, log-bucketed):");
        println!(
            "  {:<18} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "histogram", "p50", "p90", "p99", "max", "count"
        );
        for (label, h) in hists {
            println!(
                "  {:<18} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9}",
                label,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max(),
                h.count(),
            );
        }
    }

    println!("\nclient cache hit ratio {:.1}%", r.cache_hit_ratio * 100.0);
    println!(
        "\nsimulator: {} events in {:.2}s wall ({:.0} events/s, {:.0}x real time)",
        r.events,
        wall_secs,
        r.events as f64 / wall_secs.max(1e-9),
        (r.warmup_secs + r.measure_secs) / wall_secs.max(1e-9),
    );
}

fn usage() {
    eprintln!(
        "usage: ccdb <run|explain|compare|sweep|figures|merge|replicate|trace|bench|list> \
         [--alg A] [--algs all|A,B,..] [--clients N[,N..]] [--loc F[,F..]] [--pw F[,F..]] \
         [--exp acl|caching|short|large|fast-server|fast-net|interactive] [--seed N] \
         [--warmup S] [--measure S] [--csv] [--json] [--jsonl] [--sample-interval S] \
         [--series] [--svg] [--trace-cap N] [--chrome FILE] [--reps N] [--precision F] \
         [--max-reps N] [--jobs N] [--out DIR|FILE] [--lock-shards N] [--shard I/N] \
         [--checkpoint FILE|DIR] [--resume FILE] [--fsync-every N] [--quick] \
         [--label NAME] [--check BASELINE]\n       \
         ccdb serve --alg A [--port N] [--clients N] [--mpl N] [--lock-shards N] \
         [--trace FILE] [--once] [--port-file FILE] [--shards N] [--threaded]\n       \
         ccdb load --addr HOST:PORT [--clients N] [--txns N] [--seed N]\n       \
         ccdb replay trace.jsonl         # diff a live run against the sans-io core\n       \
         ccdb merge A.jsonl B.jsonl ..   # rebuild one sweep document from shard streams"
    );
}

fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// Run a sweep with its JSONL stream as a write-ahead log at `log_path`.
///
/// `resume = false` starts a fresh log (header only); `resume = true`
/// parses the existing one, verifies it belongs to this spec and shard,
/// truncates the footer and any torn tail, and re-runs only the jobs the
/// log does not hold. Either way the finished file is a complete framed
/// stream, byte-identical to one from an uninterrupted run. With `jsonl`
/// the *fresh* lines also stream to stdout. `fsync_every` > 0
/// additionally fsyncs the log after that many job records (see
/// [`CheckpointWriter::fsync_every`]).
fn sweep_with_log(
    spec: &SweepSpec,
    workers: usize,
    shard: Option<(u32, u32)>,
    log_path: &Path,
    resume: bool,
    jsonl: bool,
    fsync_every: u64,
) -> Result<SweepResult, String> {
    let (mut writer, cache) = if resume {
        let log = read_log(log_path)?;
        if log.spec_hash != spec_hash(spec) {
            return Err(format!(
                "{}: checkpoint belongs to a different sweep (spec hash {}, this invocation {}); \
                 pass the flags the checkpoint was started with, or start over with --checkpoint",
                log_path.display(),
                log.spec_hash,
                spec_hash(spec),
            ));
        }
        if log.shard != shard {
            return Err(format!(
                "{}: checkpoint covers shard {}, this invocation asked for {}",
                log_path.display(),
                shard_label(log.shard),
                shard_label(shard),
            ));
        }
        let writer = CheckpointWriter::append(log_path, log.resume_len)
            .map_err(|e| format!("{}: {e}", log_path.display()))?
            .fsync_every(fsync_every);
        eprintln!(
            "sweep: resuming {} ({} of its jobs already done)",
            log_path.display(),
            log.records.len(),
        );
        (writer, log.records)
    } else {
        let writer = CheckpointWriter::create(log_path, spec, shard)
            .map_err(|e| format!("{}: {e}", log_path.display()))?
            .fsync_every(fsync_every);
        (writer, JobCache::new())
    };

    if jsonl {
        println!("{}", header_line(spec, shard));
    }
    let mut io_err: Option<String> = None;
    let result = run_sweep_resumed(spec, workers, shard, &cache, |job| {
        if jsonl {
            println!("{}", job_line(job));
        }
        if io_err.is_none() {
            if let Err(e) = writer.record(job) {
                io_err = Some(format!("{}: {e}", log_path.display()));
            }
        }
    })?;
    if let Some(e) = io_err {
        return Err(format!("checkpoint write failed: {e}"));
    }
    writer
        .finish(spec, result.jobs)
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    if jsonl {
        println!("{}", footer_line(spec, result.jobs));
    }
    Ok(result)
}

fn shard_label(shard: Option<(u32, u32)>) -> String {
    match shard {
        Some((i, n)) => format!("{i}/{n}"),
        None => "none".to_string(),
    }
}

fn cmd_sweep(opts: &Options) -> ExitCode {
    let spec = match opts.family().and_then(|f| build_spec(opts, f)) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if opts.checkpoint.is_some() && opts.resume.is_some() {
        return fail("--checkpoint starts a fresh log and --resume continues one; pick one");
    }
    let workers = resolve_workers(opts.jobs);
    let jsonl = opts.jsonl;
    let fsync = opts.fsync_every.unwrap_or(0);
    if opts.fsync_every.is_some() && opts.checkpoint.is_none() && opts.resume.is_none() {
        return fail("--fsync-every only applies with --checkpoint or --resume");
    }
    let result = if let Some(path) = &opts.checkpoint {
        let path = Path::new(path);
        if std::fs::metadata(path)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            return fail(format!(
                "{}: checkpoint file already exists; continue it with --resume {}, or delete it \
                 to start over",
                path.display(),
                path.display(),
            ));
        }
        sweep_with_log(&spec, workers, opts.shard, path, false, jsonl, fsync)
    } else if let Some(path) = &opts.resume {
        sweep_with_log(
            &spec,
            workers,
            opts.shard,
            Path::new(path),
            true,
            jsonl,
            fsync,
        )
    } else {
        if jsonl {
            println!("{}", header_line(&spec, opts.shard));
        }
        run_sweep_sharded(&spec, workers, opts.shard, |job| {
            if jsonl {
                println!("{}", job_line(job));
            }
        })
        .inspect(|r| {
            if jsonl {
                println!("{}", footer_line(&spec, r.jobs));
            }
        })
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if opts.json {
        print!("{}", sweep_document(&result).render_pretty());
    } else if !jsonl {
        sweep_rows(opts, &result);
    }
    ExitCode::SUCCESS
}

fn cmd_merge(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("error: merge needs at least one JSONL stream");
        usage();
        return ExitCode::FAILURE;
    }
    let mut logs = Vec::with_capacity(files.len());
    for file in files {
        match read_log(Path::new(file)) {
            Ok(log) => logs.push(log),
            Err(e) => return fail(e),
        }
    }
    match merge_logs_named(&logs, files) {
        Ok(result) => {
            print!("{}", sweep_document(&result).render_pretty());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `ccdb bench`: run the pinned self-profiling matrix, write a versioned
/// `ccdb.bench/v1` document, and optionally gate against a baseline.
///
/// The output lands at `--out FILE` (default `BENCH_<utc-date>.json`,
/// or `BENCH_<utc-date>.<label>.json` with `--label`, so a second run on
/// the same UTC day doesn't overwrite the first; `-` for stdout).
/// `--quick` (or `CCDB_QUICK=1`) uses the short
/// 10 s + 60 s windows; CI compares quick runs against the committed
/// quick baseline. With `--check BASELINE`, deterministic counters must
/// match exactly and events/sec may not regress by more than the
/// tolerance (`CCDB_BENCH_TOLERANCE`, default 0.2 = 20 %).
fn cmd_bench(opts: &Options) -> ExitCode {
    let quick = opts.quick || std::env::var_os("CCDB_QUICK").is_some();
    let (dw, dm) = if quick { (10.0, 60.0) } else { (30.0, 300.0) };
    let ctl = BenchCtl {
        warmup: SimDuration::from_secs_f64(opts.warmup.unwrap_or(dw)),
        measure: SimDuration::from_secs_f64(opts.measure.unwrap_or(dm)),
        seed: opts.seed,
        jobs: 1,
    };
    eprintln!(
        "bench: {} mode, {}s warmup + {}s measure, seed {}",
        if quick { "quick" } else { "full" },
        ctl.warmup.as_secs_f64(),
        ctl.measure.as_secs_f64(),
        ctl.seed,
    );
    let doc = run_bench(&ctl, quick);

    let out_path = opts.out.clone().unwrap_or_else(|| {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        // --label keeps a second same-day run from overwriting the first.
        match &opts.label {
            Some(label) => format!("BENCH_{}.{}.json", utc_date(secs), label),
            None => format!("BENCH_{}.json", utc_date(secs)),
        }
    });
    if out_path == "-" {
        print!("{}", doc.render_pretty());
    } else {
        if let Err(e) = std::fs::write(&out_path, doc.render_pretty()) {
            return fail(format!("cannot write {out_path}: {e}"));
        }
        eprintln!("bench: wrote {out_path}");
    }

    if let Some(baseline_path) = &opts.check {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => return fail(format!("{baseline_path}: {e}")),
        };
        let baseline = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => return fail(format!("{baseline_path}: {e}")),
        };
        let tolerance = std::env::var("CCDB_BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.2);
        eprint!("{}", bench_delta_table(&doc, &baseline));
        match check_bench(&doc, &baseline, tolerance) {
            Ok(()) => eprintln!(
                "bench: matches {baseline_path} (exact counters; events/sec within {:.0}%)",
                tolerance * 100.0,
            ),
            Err(e) => return fail(format!("bench regression against {baseline_path}:\n{e}")),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_figures(opts: &Options) -> ExitCode {
    let families: Vec<Family> = match opts.exp.as_deref() {
        None | Some("all") => Family::ALL.to_vec(),
        Some(name) => match Family::parse(name) {
            Some(f) => vec![f],
            None => return fail(format!("unknown experiment family {name}")),
        },
    };
    let out_dir = std::path::PathBuf::from(opts.out.as_deref().unwrap_or("figures"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fail(format!("cannot create {}: {e}", out_dir.display()));
    }
    let ckpt_dir = opts.checkpoint.as_deref().map(std::path::PathBuf::from);
    if let Some(dir) = &ckpt_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create {}: {e}", dir.display()));
        }
    }
    let workers = resolve_workers(opts.jobs);
    let mut written = 0usize;
    for family in families {
        let spec = match build_spec(opts, family) {
            Ok(s) => s,
            Err(e) => return fail(e),
        };
        eprintln!(
            "figures: {} family, {} cells x {} reps minimum, {} workers",
            family.label(),
            spec.cells().len(),
            spec.replication.initial(),
            workers,
        );
        // With --checkpoint DIR each family keeps a write-ahead log at
        // DIR/<family>.jsonl; an interrupted run picks up where it died.
        let result = match &ckpt_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.jsonl", family.label()));
                let resume = std::fs::metadata(&path)
                    .map(|m| m.len() > 0)
                    .unwrap_or(false);
                match sweep_with_log(
                    &spec,
                    workers,
                    None,
                    &path,
                    resume,
                    false,
                    opts.fsync_every.unwrap_or(0),
                ) {
                    Ok(r) => r,
                    Err(e) => return fail(e),
                }
            }
            None => match run_sweep_sharded(&spec, workers, None, |_| {}) {
                Ok(r) => r,
                Err(e) => return fail(e),
            },
        };
        for (name, csv) in figures_from_sweep(&result) {
            let path = out_dir.join(&name);
            if let Err(e) = std::fs::write(&path, csv) {
                return fail(format!("cannot write {}: {e}", path.display()));
            }
            println!("{}", path.display());
            written += 1;
        }
        if opts.svg {
            match dynamics_svg(&result) {
                Some(svg) => {
                    let path = out_dir.join(format!("dynamics_{}.svg", family.label()));
                    if let Err(e) = std::fs::write(&path, svg) {
                        return fail(format!("cannot write {}: {e}", path.display()));
                    }
                    println!("{}", path.display());
                    written += 1;
                }
                None => eprintln!(
                    "figures: --svg skipped for {} (no time series; add --sample-interval S)",
                    family.label(),
                ),
            }
        }
    }
    eprintln!("figures: wrote {written} files to {}", out_dir.display());
    ExitCode::SUCCESS
}

/// `ccdb serve`: a real TCP page-server speaking the simulator's wire
/// protocol. The default nonblocking reactor shards its engine with
/// `--shards N` and records a replayable `ccdb.wire_trace/v2` with
/// `--trace`; `--threaded` runs the legacy thread-per-connection
/// server (v1 traces).
fn cmd_serve(opts: &Options) -> ExitCode {
    let clients = match opts.one_clients() {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let mut so = ServeOptions::new(opts.one_alg());
    so.clients = clients;
    so.port = opts.port;
    so.once = opts.once;
    so.trace = opts.wire_trace.as_ref().map(Into::into);
    so.port_file = opts.port_file.as_ref().map(Into::into);
    if let Some(mpl) = opts.mpl {
        so.mpl = mpl;
    }
    if let Some(shards) = opts.lock_shards {
        so.lock_shards = shards;
    }
    if let Some(shards) = opts.engine_shards {
        so.engine_shards = shards;
    }
    so.threaded = opts.threaded;
    match serve(&so) {
        Ok(_commits) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// `ccdb load`: drive a live server with the repository's workload
/// generator, one connection per client workstation.
fn cmd_load(opts: &Options) -> ExitCode {
    let Some(addr) = opts.addr.clone() else {
        return fail("load needs --addr HOST:PORT");
    };
    let clients = match opts.one_clients() {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let lo = LoadOptions {
        addr,
        clients,
        txns: opts.txns,
        seed: opts.seed,
    };
    match load(&lo) {
        Ok(summary) => {
            println!(
                "ccdb-load: {} — {} clients x {} txns: {} commits, {} aborted attempts, \
                 {} page images verified",
                summary.alg,
                clients,
                opts.txns,
                summary.commits,
                summary.aborts,
                summary.pages_verified
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `ccdb replay`: feed a recorded wire trace back through a fresh
/// sans-io engine (oracle armed) and diff every protocol decision.
/// Nonzero exit on any divergence.
fn cmd_replay(files: &[String]) -> ExitCode {
    let [path] = files else {
        return fail("usage: ccdb replay trace.jsonl");
    };
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => return fail(format!("cannot open {path}: {e}")),
    };
    match replay(std::io::BufReader::new(file)) {
        Ok(report) => {
            // v2 traces get a per-shard verdict line ("*" = wide lane).
            let shard_summary = if report.shard_diffs.is_empty() {
                String::new()
            } else {
                let per: Vec<String> = report
                    .shard_diffs
                    .iter()
                    .map(|(k, v)| format!("{k}:{v}"))
                    .collect();
                format!(" [shard diffs {}]", per.join(" "))
            };
            if report.ok() {
                println!(
                    "ccdb-replay: OK — {} messages, {} commits, {} aborts, 0 decision diffs{}",
                    report.messages, report.commits, report.aborts, shard_summary
                );
                ExitCode::SUCCESS
            } else {
                for d in &report.diffs {
                    eprintln!("DIFF {d}");
                }
                eprintln!(
                    "ccdb-replay: FAILED — {} divergences over {} messages{}",
                    report.diffs.len(),
                    report.messages,
                    shard_summary
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(format!("{path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    // `merge` and `replay` take positional file arguments, not options.
    if cmd == "merge" {
        return cmd_merge(&args[1..]);
    }
    if cmd == "replay" {
        return cmd_replay(&args[1..]);
    }
    let opts = match parse_options(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let one_run_config = |opts: &Options| -> Result<SimConfig, String> {
        build_config(opts, opts.one_alg(), opts.one_clients()?)
    };
    match cmd.as_str() {
        "list" => {
            for alg in Algorithm::ALL {
                println!("{:<5} {}", alg.label(), alg.name());
            }
            ExitCode::SUCCESS
        }
        "serve" => cmd_serve(&opts),
        "load" => cmd_load(&opts),
        "run" => match one_run_config(&opts) {
            Ok(cfg) => {
                if opts.json || opts.sample_interval.is_some() {
                    let observed =
                        run_simulation_observed(cfg, Trace::disabled(), obs_options(&opts));
                    if opts.json {
                        print!("{}", run_document(&observed).render_pretty());
                    } else {
                        header_for(&opts);
                        row_for(&opts, &observed.report);
                        if let Some(series) = &observed.series {
                            println!();
                            print!("{}", series.to_csv());
                            if series.folds() > 0 {
                                eprintln!(
                                    "note: ring capacity reached; sampling interval folded \
                                     {}x to {}s (no samples dropped)",
                                    series.folds(),
                                    series.interval_s(),
                                );
                            }
                        }
                    }
                } else {
                    header_for(&opts);
                    row_for(&opts, &run_simulation(cfg));
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "explain" => match one_run_config(&opts) {
            Ok(cfg) => {
                // `--series` appends the sampled dynamics to the static
                // breakdown; without `--sample-interval` it defaults to
                // 50 points across the measured window.
                let mut obs = obs_options(&opts);
                if opts.series && obs.sample_interval.is_none() {
                    obs.sample_interval =
                        Some(SimDuration::from_secs_f64(cfg.measure.as_secs_f64() / 50.0));
                }
                let started = Instant::now();
                let observed = run_simulation_observed(cfg, Trace::disabled(), obs);
                let wall_secs = started.elapsed().as_secs_f64();
                explain(&observed.report, wall_secs);
                if opts.series {
                    if let Some(series) = &observed.series {
                        println!(
                            "\ndynamics ({} points, effective interval {}s, {} folds):",
                            series.len(),
                            series.interval_s(),
                            series.folds(),
                        );
                        print!("{}", series.to_csv());
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "compare" => {
            let clients = match opts.one_clients() {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            header_for(&opts);
            for alg in Algorithm::EXPERIMENT_SET {
                match build_config(&opts, alg, clients) {
                    Ok(cfg) => row_for(&opts, &run_simulation(cfg)),
                    Err(e) => return fail(e),
                }
            }
            ExitCode::SUCCESS
        }
        "trace" => match one_run_config(&opts) {
            Ok(mut cfg) => {
                // A short run with few clients keeps the transcript legible.
                let measure = opts.horizon_secs().1.min(5.0);
                cfg = cfg.with_horizon(
                    SimDuration::from_secs_f64(0.0),
                    SimDuration::from_secs_f64(measure),
                );
                let trace = Trace::enabled(opts.trace_cap);
                let r = run_simulation_traced(cfg, trace.clone());
                print!("{}", trace.render());
                eprintln!(
                    "-- {} events shown; {} commits, {} aborts in {:.1}s of {} --",
                    trace.events().len(),
                    r.commits,
                    r.aborts,
                    measure,
                    r.algorithm.name(),
                );
                if trace.dropped() > 0 {
                    eprintln!(
                        "-- trace truncated: capacity {} reached, {} further events dropped \
                         (raise with --trace-cap) --",
                        trace.capacity(),
                        trace.dropped(),
                    );
                }
                // `--chrome FILE` additionally exports the lifecycle spans
                // and instants as Chrome trace-event JSON (byte-identical
                // across reruns); open in Perfetto or chrome://tracing.
                if let Some(path) = &opts.chrome {
                    if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
                        return fail(format!("cannot write {path}: {e}"));
                    }
                    eprintln!(
                        "-- chrome trace written to {path} ({} spans; open in Perfetto) --",
                        trace.spans().len(),
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "replicate" => match one_run_config(&opts) {
            Ok(cfg) => {
                let reps = opts.reps.unwrap_or(5);
                // The folded path: per-run reports are aggregated as they
                // complete, never buffered.
                let rep = run_replicated_folded(cfg, reps);
                println!(
                    "{} x{} replications: resp {:.3}s ± {:.3} (95% CI, {:.1}% rel), \
                     tput {:.2}/s ± {:.2}, commits {}, aborts {}",
                    opts.one_alg().label(),
                    reps,
                    rep.resp_time_mean,
                    rep.resp_time_ci95,
                    rep.resp_relative_precision() * 100.0,
                    rep.throughput_mean,
                    rep.throughput_ci95,
                    rep.commits,
                    rep.aborts,
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "sweep" => cmd_sweep(&opts),
        "figures" => cmd_figures(&opts),
        "bench" => cmd_bench(&opts),
        other => {
            eprintln!("error: unknown command {other}");
            usage();
            ExitCode::FAILURE
        }
    }
}
