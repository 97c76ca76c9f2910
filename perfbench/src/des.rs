//! The DES workloads: one seeded simulation configuration per workload,
//! re-run back to back for the measuring time.
//!
//! Every repetition runs the *same* configuration, so every repetition
//! must return the identical report; only host time differs. The
//! simulated outcome therefore does not depend on how fast the host is
//! or how many repetitions fit.

use std::time::{Duration, Instant};

use ccdb_core::{
    experiments, run_simulation, run_simulation_profiled, run_simulation_traced, Algorithm,
    RunReport, SimConfig, Trace, TraceEvent,
};
use ccdb_des::{EventKind, KernelProfile, SimDuration, SimTime};

use crate::report::Metrics;
use crate::stats::{median, peak_rss_mb, quartiles_ms, thread_cpu_s, Samples};
use crate::Outcome;

/// Simulated warm-up and measurement window of one timed repetition:
/// about one host second on a 2-core x86-64 host, so a 30 s run holds
/// some twenty-five repetitions, and long enough that the seed's own
/// variation in simulated work per repetition stays small.
const WARMUP_S: u64 = 30;
const MEASURE_S: u64 = 1200;

/// Measurement window of the repetition that yields the response-time
/// percentiles: long enough for over 10 000 commits.
const RESPONSE_MEASURE_S: u64 = 2400;

/// World builds before each timed repetition; `setup_s` is the median
/// of all of them. Spread over the run, they see the same host
/// conditions as the repetitions rather than those of its first second.
const SETUP_PER_REP: usize = 8;

/// Fewest measured repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Trace capacity for the response-time pass: far above the events of
/// one repetition, so a dropped event means something changed.
const TRACE_CAPACITY: usize = 8_000_000;

#[derive(Clone, Copy, Debug)]
pub enum DesWorkload {
    /// OCC (certification, intra), Table 5 short batch, 25 clients,
    /// locality 0.25, ProbWrite 0.2, uniform 2000-page database.
    OccUniform,
    /// Callback locking, 50 clients, ProbWrite 0.5, 10% of the pages
    /// taking 70% of the accesses.
    CbHotspot,
}

impl DesWorkload {
    pub fn config(self, seed: u64, measure_s: u64) -> SimConfig {
        let cfg = match self {
            DesWorkload::OccUniform => {
                experiments::short_txn(Algorithm::Certification { inter: false }, 25, 0.25, 0.2)
            }
            DesWorkload::CbHotspot => {
                let mut cfg = experiments::short_txn(Algorithm::Callback, 50, 0.25, 0.5);
                cfg.db = cfg.db.with_skew(ccdb_model::AccessSkew {
                    hot_fraction: 0.1,
                    hot_access_prob: 0.7,
                });
                cfg
            }
        };
        cfg.with_seed(seed).with_horizon(
            SimDuration::from_secs(WARMUP_S),
            SimDuration::from_secs(measure_s),
        )
    }
}

/// One `setup_s` sample: building the configuration and the simulated
/// world — the database, network, server, client processes and caches —
/// measured as a run whose horizon ends 2 ms of simulated time after it
/// starts.
fn build_world(w: DesWorkload, seed: u64) -> f64 {
    let t = Instant::now();
    let cfg = w.config(seed, MEASURE_S).with_horizon(
        SimDuration::from_secs_f64(0.001),
        SimDuration::from_secs_f64(0.001),
    );
    std::hint::black_box(run_simulation(cfg));
    t.elapsed().as_secs_f64()
}

/// One timed, unprofiled repetition.
struct Rep {
    host_s: f64,
    cpu_s: f64,
    report: RunReport,
}

fn timed_rep(cfg: &SimConfig) -> Result<Rep, String> {
    let cpu0 = thread_cpu_s()?;
    let t = Instant::now();
    let report = run_simulation(cfg.clone());
    let host_s = t.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s()? - cpu0;
    Ok(Rep {
        host_s,
        cpu_s,
        report,
    })
}

fn timed_profiled(cfg: &SimConfig) -> Result<(Rep, KernelProfile), String> {
    let cpu0 = thread_cpu_s()?;
    let t = Instant::now();
    let p = run_simulation_profiled(cfg.clone());
    let host_s = t.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s()? - cpu0;
    Ok((
        Rep {
            host_s,
            cpu_s,
            report: p.report,
        },
        p.profile,
    ))
}

fn commits_per_s(r: &Rep) -> f64 {
    r.report.commits as f64 / r.host_s
}

fn cpu_ms_per_commit(r: &Rep) -> f64 {
    r.cpu_s * 1e3 / r.report.commits as f64
}

/// Checks shared by both modes: every repetition's report equals the
/// first one's, and the wait profile sums to the mean response time.
struct Checker {
    reference: String,
    failures: Vec<String>,
    runs: u64,
}

impl Checker {
    fn new(first: &RunReport) -> Checker {
        let mut c = Checker {
            reference: first.to_json().render(),
            failures: Vec::new(),
            runs: 0,
        };
        c.check(first, "first repetition");
        c
    }

    fn check(&mut self, r: &RunReport, what: &str) {
        self.runs += 1;
        if r.to_json().render() != self.reference {
            self.failures.push(format!(
                "{what}: report differs from the first repetition's"
            ));
        }
        let waits: f64 = r.wait_profile.iter().map(|w| w.mean_s).sum();
        if (waits - r.resp_time_mean).abs() > 1e-6 {
            self.failures.push(format!(
                "{what}: wait profile sums to {waits} s, mean response is {} s",
                r.resp_time_mean
            ));
        }
        if r.commits == 0 {
            self.failures.push(format!("{what}: no commits"));
        }
    }
}

/// Exact response times of the measured commits, rebuilt from the
/// protocol trace: first attempt's begin to commit, per client. Checks
/// the count and mean against the report.
fn response_samples(cfg: &SimConfig, checker: &mut Checker) -> Samples {
    let trace = Trace::enabled(TRACE_CAPACITY);
    let report = run_simulation_traced(cfg.clone(), trace.clone());
    checker.runs += 1;
    let mut samples = Samples::new();
    if trace.dropped() > 0 {
        checker.failures.push(format!(
            "protocol trace dropped {} events (capacity {TRACE_CAPACITY})",
            trace.dropped()
        ));
        return samples;
    }
    let warmup_end = SimTime::ZERO + cfg.warmup;
    let mut origin: Vec<Option<SimTime>> = vec![None; cfg.sys.n_clients as usize];
    for (t, ev) in trace.events() {
        match ev {
            TraceEvent::TxnBegin {
                client, attempt: 0, ..
            } => origin[client.0 as usize] = Some(t),
            TraceEvent::Commit { client, .. } => {
                if let Some(o) = origin[client.0 as usize].take() {
                    if t >= warmup_end {
                        samples.push(t.since(o).as_secs_f64() * 1e3);
                    }
                }
            }
            _ => {}
        }
    }
    let mean_s = samples.sum() / samples.len().max(1) as f64 / 1e3;
    if samples.len() as u64 != report.commits
        || (mean_s - report.resp_time_mean).abs() > 1e-9 * report.resp_time_mean.max(1.0)
    {
        checker.failures.push(format!(
            "trace gives {} commits with mean response {mean_s} s; the report {} commits, {} s",
            samples.len(),
            report.commits,
            report.resp_time_mean
        ));
    }
    samples
}

fn kind_name(k: EventKind) -> String {
    format!("des.{}", k.label())
}

/// Run a DES workload for `seconds` of host time.
pub fn run(w: DesWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut m = Metrics::default();
    let cfg = w.config(seed, MEASURE_S);
    let budget = Duration::from_secs_f64(seconds);

    let mut plain: Vec<Rep> = Vec::new();
    let mut profiled: Vec<(Rep, KernelProfile)> = Vec::new();
    let started = Instant::now();
    let first = match timed_rep(&cfg) {
        Ok(r) => r,
        Err(e) => return Outcome::error(e),
    };
    let mut checker = Checker::new(&first.report);
    plain.push(first);
    // Peak memory after one repetition, before anything else runs: the
    // process's peak grows with every simulation run in it (README.md,
    // "Findings"), so a later reading would depend on how many runs the
    // harness makes rather than on one simulation's footprint.
    let rss = peak_rss_mb(None);
    let mut setup = Vec::new();
    // The traced mode alternates unprofiled and profiled repetitions so
    // the two see the same host conditions; their difference is the
    // profiling overhead.
    while started.elapsed() < budget
        || plain.len() < MIN_REPS
        || (traced && profiled.len() < MIN_REPS)
    {
        setup.extend((0..SETUP_PER_REP).map(|_| build_world(w, seed)));
        let step = if traced && profiled.len() < plain.len() {
            timed_profiled(&cfg).map(|(r, p)| {
                checker.check(&r.report, "profiled repetition");
                profiled.push((r, p));
            })
        } else {
            timed_rep(&cfg).map(|r| {
                checker.check(&r.report, "repetition");
                plain.push(r);
            })
        };
        if let Err(e) = step {
            return Outcome::error(e);
        }
    }
    let report = plain[0].report.clone();
    // How far the peak rose over the runs after the first: set-up
    // builds and repetitions alike.
    let later_runs = setup.len() + plain.len() + profiled.len() - 1;
    let rss_growth = peak_rss_mb(None);
    // Medians over many short repetitions: a burst of interference
    // from other tenants of the host moves a few repetitions, not the
    // figure.
    let cps = median(&plain.iter().map(commits_per_s).collect::<Vec<_>>());
    let cpu = median(&plain.iter().map(cpu_ms_per_commit).collect::<Vec<_>>());
    let host: Vec<String> = plain.iter().map(|r| format!("{:.3}", r.host_s)).collect();
    println!(
        "{} repetitions of {} simulated s, {} commits each; host s: {}",
        plain.len(),
        WARMUP_S + MEASURE_S,
        report.commits,
        host.join(" ")
    );

    if !traced {
        // A profiled repetition outside the timed ones: its report must
        // equal the unprofiled one.
        match timed_profiled(&cfg) {
            Ok((r, _)) => checker.check(&r.report, "profiled repetition"),
            Err(e) => return Outcome::error(e),
        }
    }
    let mut resp = response_samples(&w.config(seed, RESPONSE_MEASURE_S), &mut checker);

    println!(
        "{} world builds, ms: quartiles {}",
        setup.len(),
        quartiles_ms(&setup)
    );
    m.set_counted("setup_s", median(&setup), "s", setup.len());
    m.set_counted("commits_per_s", cps, "1/s", plain.len());
    m.set_counted("cpu_ms_per_commit", cpu, "ms", plain.len());
    let (rss, rss_growth) = match (rss, rss_growth) {
        (Ok(first), Ok(last)) => (first, (last - first) * 1024.0 / later_runs as f64),
        (Err(e), _) | (_, Err(e)) => return Outcome::error(e),
    };
    m.set("peak_rss_mb", rss, "MiB");
    let n = resp.len();
    for (name, q) in [
        ("txn_p50_ms", 0.5),
        ("txn_p90_ms", 0.9),
        ("txn.p99_ms", 0.99),
    ] {
        match resp.quantile(q, name) {
            Ok(v) => m.set_counted(name, v, "ms", n),
            Err(e) => checker.failures.push(e),
        }
    }

    if traced {
        let speed = median(
            &plain
                .iter()
                .map(|r| (WARMUP_S + MEASURE_S) as f64 / r.host_s)
                .collect::<Vec<_>>(),
        );
        m.set_counted("des.sim_speed", speed, "x", plain.len());
        m.set("des.rss_growth_kib_per_run", rss_growth, "KiB");
        // The profiled repetition with the median kernel time.
        let mut by_time: Vec<&(Rep, KernelProfile)> = profiled.iter().collect();
        by_time.sort_by_key(|(_, p)| p.total_nanos());
        let (_, prof) = by_time[(by_time.len() - 1) / 2];
        let events = prof.total_events().max(1) as f64;
        m.set("des.ns_per_event", prof.total_nanos() as f64 / events, "ns");
        m.set(
            "des.events_per_commit",
            report.events as f64 / report.commits as f64,
            "count",
        );
        for k in EventKind::ALL {
            m.set(
                &format!("{}.count", kind_name(k)),
                prof.count(k) as f64,
                "count",
            );
            m.set(&format!("{}.ns", kind_name(k)), prof.nanos(k) as f64, "ns");
        }
        let per_commit = |v: u64| v as f64 / report.commits as f64;
        let ls = &report.lock_stats;
        m.set("lock.requests_per_commit", per_commit(ls.requests), "count");
        m.set("lock.blocks_per_commit", per_commit(ls.blocks), "count");
        m.set("lock.deadlocks", ls.deadlocks as f64, "count");
        m.set(
            "lock.callbacks_per_commit",
            per_commit(ls.callbacks),
            "count",
        );
        m.set("storage.cache_hit_ratio", report.cache_hit_ratio, "ratio");
        m.set("storage.buffer_hit_ratio", report.buffer_hit_ratio, "ratio");
        m.set("storage.data_disk_util", report.data_disk_util, "ratio");
        m.set("storage.log_disk_util", report.log_disk_util, "ratio");
        m.set("net.msgs_per_commit", report.msgs_per_commit, "count");
        m.set("net.util", report.net_util, "ratio");
        m.set(
            "proto.restarts_per_commit",
            report.restarts_per_commit,
            "count",
        );
        let p_cps = median(
            &profiled
                .iter()
                .map(|(r, _)| commits_per_s(r))
                .collect::<Vec<_>>(),
        );
        let p_cpu = median(
            &profiled
                .iter()
                .map(|(r, _)| cpu_ms_per_commit(r))
                .collect::<Vec<_>>(),
        );
        m.set("trace.overhead.commits_per_s", p_cps - cps, "1/s");
        m.set("trace.overhead.cpu_ms_per_commit", p_cpu - cpu, "ms");
        // Profiling only watches the kernel: the simulated response
        // times, checked equal above, cannot move.
        m.set("trace.overhead.txn_p50_ms", 0.0, "ms");
    }

    let attempted = checker.runs;
    let failed = if checker.failures.is_empty() { 0 } else { 1 };
    Outcome {
        metrics: m,
        attempted,
        failed,
        failures: checker.failures,
    }
}
