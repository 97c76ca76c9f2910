//! The `ccdb bench` suite: a pinned workload matrix over the profiled
//! kernel, exported as a versioned `ccdb.bench/v1` document.
//!
//! Each case runs one simulation with kernel self-profiling on
//! ([`ccdb_core::run_simulation_profiled`]) and records two very
//! different kinds of numbers:
//!
//! * **exact** — per-[`EventKind`] dispatch counts, commits, total
//!   events. These are a pure function of the configuration and must
//!   match the committed baseline bit-for-bit on any machine; a mismatch
//!   means the simulator's behaviour changed.
//! * **wall-clock** — seconds, events/sec, per-kind poll nanos. These
//!   vary by host; [`check_bench`] only flags a throughput drop beyond a
//!   tolerance (20 % by default in `scripts/smoke/bench.sh`).
//!
//! The last DES case samples a metric time series and reports the
//! retained buffer footprint (`peak_series_bytes`), so series-memory
//! regressions show up in the same trajectory. Documents are written as
//! `BENCH_<date>.json` (see [`utc_date`]) and tracked in git.
//!
//! After the DES matrix, the `server_*` cases (marked `realtime: true`)
//! stand up the actual reactor page-server on a loopback socket, drive
//! it with the load generator, and record real-socket events/sec next to
//! `des_events_per_sec` — the profiled-kernel rate of the matching DES
//! case. Their client commit counts are deterministic (clients × txns)
//! and exact-checked, but their message counts depend on socket
//! scheduling, so [`check_bench`] skips the exact-events comparison for
//! them while still applying the throughput-regression gate. Each also
//! records `server_commits` and `local_commits` (read-only callback
//! transactions that commit at the client), which sum to `commits` but
//! split by scheduling. They are excluded from `totals`, which stays a
//! pure DES number.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ccdb_core::{
    experiments, run_simulation_observed, run_simulation_profiled, Algorithm, ObsOptions,
    SimConfig, Trace,
};
use ccdb_des::{EventKind, SimDuration};
use ccdb_obs::Json;
use ccdb_server::{load, serve, LoadOptions, ServeOptions};

use crate::BenchCtl;

/// Schema tag of the bench document.
pub const BENCH_SCHEMA: &str = "ccdb.bench/v1";

/// One case of the pinned matrix: a stable name and its configuration.
/// The final case additionally samples a metric series.
fn matrix(ctl: &BenchCtl) -> Vec<(&'static str, SimConfig)> {
    let horizon = |cfg: SimConfig| {
        cfg.with_seed(ctl.seed)
            .with_horizon(ctl.warmup, ctl.measure)
    };
    vec![
        (
            "short_c2pl_25",
            horizon(experiments::short_txn(
                Algorithm::TwoPhase { inter: true },
                25,
                0.25,
                0.2,
            )),
        ),
        (
            "short_cb_25",
            horizon(experiments::short_txn(Algorithm::Callback, 25, 0.25, 0.2)),
        ),
        (
            "short_occ_25",
            horizon(experiments::short_txn(
                Algorithm::Certification { inter: false },
                25,
                0.25,
                0.2,
            )),
        ),
        (
            "short_nwn_50",
            horizon(experiments::short_txn(
                Algorithm::NoWait { notify: true },
                50,
                0.25,
                0.2,
            )),
        ),
        (
            // Service-slot-heavy: 50 callback clients hammering a 10% hot
            // region. Every client caches the hot pages, so each update
            // commit broadcasts invalidations to ~all clients in one
            // instant — dense same-instant bursts of message and disk
            // service hops.
            "svc_cb_50",
            horizon(svc_heavy_config()),
        ),
        (
            "short_cb_25_sampled",
            horizon(experiments::short_txn(Algorithm::Callback, 25, 0.25, 0.2)),
        ),
    ]
}

/// The realtime `server_*` cases: stable name, algorithm, engine shards,
/// and the DES matrix case whose events/sec rides along as the
/// simulated prediction for the same algorithm family.
fn server_matrix() -> Vec<(&'static str, Algorithm, u32, &'static str)> {
    vec![
        ("server_cb_shard1", Algorithm::Callback, 1, "short_cb_25"),
        ("server_cb_shard4", Algorithm::Callback, 4, "short_cb_25"),
        (
            "server_occ_shard4",
            Algorithm::Certification { inter: false },
            4,
            "short_occ_25",
        ),
    ]
}

/// Stand up the reactor on an ephemeral loopback port, drive it with the
/// load generator, and report real-socket numbers. `events` is the
/// server-side message count (from the wire trace), which depends on
/// socket scheduling — hence `realtime: true`, which tells
/// [`check_bench`] to compare only the deterministic `commits`.
#[allow(clippy::too_many_arguments)]
fn run_server_case(
    name: &str,
    algorithm: Algorithm,
    engine_shards: u32,
    clients: u32,
    txns: u32,
    seed: u64,
    des_case: &str,
    des_events_per_sec: f64,
) -> Json {
    // Unique per call, not just per process: tests in one binary run
    // cases concurrently, and a shared port file would cross-wire them.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ccdb-bench-{name}-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let port_file = dir.join("port");
    let trace_path = dir.join("trace.jsonl");

    let mut sopts = ServeOptions::new(algorithm);
    sopts.clients = clients;
    sopts.once = true;
    sopts.engine_shards = engine_shards;
    sopts.port_file = Some(port_file.clone());
    sopts.trace = Some(trace_path.clone());
    let server = std::thread::spawn(move || serve(&sopts));

    let mut tries = 0;
    let port: u16 = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            break s.trim().parse().expect("port file is atomic");
        }
        tries += 1;
        assert!(tries < 2_000, "bench server never published its port");
        std::thread::sleep(Duration::from_millis(5));
    };

    let started = Instant::now();
    let summary = load(&LoadOptions {
        addr: format!("127.0.0.1:{port}"),
        clients,
        txns,
        seed,
    })
    .expect("bench load run failed");
    let server_commits = server
        .join()
        .expect("bench server thread panicked")
        .expect("bench server failed");
    let wall_s = started.elapsed().as_secs_f64();
    // `commits` is the load generator's count: every client's full quota.
    // Read-only callback transactions can commit at the client and never
    // reach the server, so the server's own count is that quota minus those.
    let commits = summary.commits;
    assert_eq!(
        server_commits,
        commits - summary.local_commits,
        "server case {name} lost commits"
    );

    // Server-side wire messages: trace lines minus header and footer.
    let messages = std::fs::read_to_string(&trace_path)
        .expect("read bench trace")
        .lines()
        .count()
        .saturating_sub(2) as u64;
    std::fs::remove_dir_all(&dir).ok();

    let mut case = Json::obj();
    case.set("name", name)
        .set("alg", algorithm.label())
        .set("clients", u64::from(clients))
        .set("txns", u64::from(txns))
        .set("engine_shards", u64::from(engine_shards))
        .set("realtime", true)
        .set("events", messages)
        .set("commits", commits)
        .set("server_commits", server_commits)
        .set("local_commits", summary.local_commits)
        .set("aborts", summary.aborts)
        .set("pages_verified", summary.pages_verified)
        .set("wall_s", wall_s)
        .set("events_per_sec", messages as f64 / wall_s.max(1e-9))
        .set("des_case", des_case)
        .set("des_events_per_sec", des_events_per_sec);
    case
}

/// The service-slot-heavy workload behind `svc_cb_50`: callback locking,
/// 50 clients, and a 10% hot region taking 70% of accesses, so
/// invalidation broadcasts (and the disk traffic they cause) arrive as
/// wide same-instant bursts of service hops.
fn svc_heavy_config() -> SimConfig {
    let mut cfg = experiments::short_txn(Algorithm::Callback, 50, 0.25, 0.5);
    cfg.db = cfg.db.with_skew(ccdb_model::AccessSkew {
        hot_fraction: 0.1,
        hot_access_prob: 0.7,
    });
    cfg
}

/// Run the pinned matrix and build the `ccdb.bench/v1` document.
///
/// `quick` is recorded in the document so [`check_bench`] refuses to
/// compare a quick run against a full baseline.
pub fn run_bench(ctl: &BenchCtl, quick: bool) -> Json {
    let cases = matrix(ctl);
    let mut out_cases: Vec<Json> = Vec::with_capacity(cases.len());
    let (mut total_events, mut total_wall) = (0u64, 0.0f64);
    for (name, cfg) in cases {
        let sampled = name.ends_with("_sampled");
        let alg = cfg.algorithm;
        let clients = cfg.sys.n_clients;
        let started = Instant::now();
        let (report, profile, series_bytes) = if sampled {
            // The sampled case measures the observability tax and the
            // retained series footprint rather than kernel dispatch.
            let obs = ObsOptions {
                sample_interval: Some(SimDuration::from_secs_f64(cfg.measure.as_secs_f64() / 64.0)),
                ..ObsOptions::default()
            };
            let observed = run_simulation_observed(cfg, Trace::disabled(), obs);
            let bytes = observed
                .series
                .as_ref()
                .map(|s| (s.names().len() + 2) * s.len() * 8)
                .unwrap_or(0);
            (observed.report, None, bytes)
        } else {
            let profiled = run_simulation_profiled(cfg);
            (profiled.report, Some(profiled.profile), 0)
        };
        let wall_s = started.elapsed().as_secs_f64();
        total_events += report.events;
        total_wall += wall_s;

        let mut case = Json::obj();
        case.set("name", name)
            .set("alg", alg.label())
            .set("clients", clients as u64)
            .set("events", report.events)
            .set("commits", report.commits)
            .set("wall_s", wall_s)
            .set("events_per_sec", report.events as f64 / wall_s.max(1e-9));
        if let Some(profile) = profile {
            let mut kinds = Json::obj();
            for kind in EventKind::ALL {
                let mut k = Json::obj();
                k.set("count", profile.count(kind))
                    .set("nanos", profile.nanos(kind));
                kinds.set(kind.label(), k);
            }
            case.set("kinds", kinds);
        }
        if sampled {
            case.set("peak_series_bytes", series_bytes as u64);
        }
        out_cases.push(case);
    }

    // Realtime server cases: the actual reactor over loopback, reported
    // beside the DES prediction but kept out of the DES-only totals.
    let (srv_clients, srv_txns) = if quick { (4, 50) } else { (4, 200) };
    for (name, alg, shards, des_case) in server_matrix() {
        let des_rate = out_cases
            .iter()
            .find(|c| c.get("name").and_then(|n| n.as_str()) == Some(des_case))
            .and_then(|c| c.get("events_per_sec"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        out_cases.push(run_server_case(
            name,
            alg,
            shards,
            srv_clients,
            srv_txns,
            ctl.seed,
            des_case,
            des_rate,
        ));
    }

    let mut doc = Json::obj();
    doc.set("schema", BENCH_SCHEMA)
        .set("quick", quick)
        .set("seed", ctl.seed)
        .set("warmup_s", ctl.warmup.as_secs_f64())
        .set("measure_s", ctl.measure.as_secs_f64())
        .set("cases", out_cases);
    let mut totals = Json::obj();
    totals
        .set("events", total_events)
        .set("wall_s", total_wall)
        .set("events_per_sec", total_events as f64 / total_wall.max(1e-9));
    doc.set("totals", totals);
    doc
}

fn case_map(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    let cases = doc.get("cases").ok_or("bench document has no cases")?;
    let Json::Arr(items) = cases else {
        return Err("bench cases is not an array".to_string());
    };
    items
        .iter()
        .map(|c| {
            c.get("name")
                .and_then(|n| n.as_str())
                .map(|n| (n, c))
                .ok_or_else(|| "bench case has no name".to_string())
        })
        .collect()
}

fn case_u64(case: &Json, key: &str, name: &str) -> Result<u64, String> {
    case.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("case {name} has no {key}"))
}

/// Compare a fresh bench document against a committed baseline.
///
/// Event and commit counts are deterministic, so they must match
/// **exactly** — any drift means the simulation changed and the baseline
/// needs a deliberate refresh. Wall-clock throughput may only regress:
/// a case more than `tolerance` (e.g. `0.2` = 20 %) below the baseline's
/// events/sec fails. Cases marked `realtime: true` (the `server_*`
/// socket runs) have scheduling-dependent message counts, so only their
/// `commits` are compared exactly; the throughput gate still applies.
/// Returns every violation, not just the first.
pub fn check_bench(current: &Json, baseline: &Json, tolerance: f64) -> Result<(), String> {
    let mut failures: Vec<String> = Vec::new();
    for (doc, which) in [(current, "current"), (baseline, "baseline")] {
        match doc.get("schema").and_then(|s| s.as_str()) {
            Some(BENCH_SCHEMA) => {}
            other => {
                return Err(format!(
                    "{which} document is not {BENCH_SCHEMA} (schema {other:?})"
                ))
            }
        }
    }
    let mode = |doc: &Json| doc.get("quick").map(|q| q.render());
    if mode(current) != mode(baseline) {
        return Err(
            "bench modes differ (one quick, one full); compare like against like".to_string(),
        );
    }

    let base_cases = case_map(baseline)?;
    let cur_cases = case_map(current)?;
    for (name, base) in &base_cases {
        let Some((_, cur)) = cur_cases.iter().find(|(n, _)| n == name) else {
            failures.push(format!("case {name}: missing from current run"));
            continue;
        };
        let realtime = base
            .get("realtime")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        let keys: &[&str] = if realtime {
            &["commits"]
        } else {
            &["events", "commits"]
        };
        for &key in keys {
            let (b, c) = (case_u64(base, key, name)?, case_u64(cur, key, name)?);
            if b != c {
                failures.push(format!(
                    "case {name}: {key} changed {b} -> {c} (simulation no longer \
                     reproduces the baseline; refresh BENCH_*.json deliberately)"
                ));
            }
        }
        let rate = |c: &Json| c.get("events_per_sec").and_then(|v| v.as_f64());
        if let (Some(b), Some(c)) = (rate(base), rate(cur)) {
            if c < b * (1.0 - tolerance) {
                failures.push(format!(
                    "case {name}: events/sec regressed {:.0} -> {:.0} \
                     (more than {:.0}% below baseline)",
                    b,
                    c,
                    tolerance * 100.0
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The before/after throughput table `ccdb bench --check` prints: one
/// row per case present in both documents (baseline order), then the
/// totals row. Deltas are current-over-baseline events/sec; cases
/// missing a rate on either side are skipped.
pub fn bench_delta_table(current: &Json, baseline: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>8}",
        "case", "base ev/s", "now ev/s", "delta"
    );
    let rate = |c: &Json| c.get("events_per_sec").and_then(|v| v.as_f64());
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    if let (Ok(base_cases), Ok(cur_cases)) = (case_map(baseline), case_map(current)) {
        for (name, base) in &base_cases {
            let Some((_, cur)) = cur_cases.iter().find(|(n, _)| n == name) else {
                continue;
            };
            if let (Some(b), Some(c)) = (rate(base), rate(cur)) {
                rows.push((name.to_string(), b, c));
            }
        }
    }
    let totals = |doc: &Json| doc.get("totals").and_then(rate);
    if let (Some(b), Some(c)) = (totals(baseline), totals(current)) {
        rows.push(("total".to_string(), b, c));
    }
    for (name, b, c) in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>14.0} {:>14.0} {:>+7.1}%",
            name,
            b,
            c,
            (c / b.max(1e-9) - 1.0) * 100.0
        );
    }
    out
}

/// `YYYY-MM-DD` (UTC) from seconds since the Unix epoch, via the
/// days-to-civil algorithm — no external time crate.
pub fn utc_date(secs_since_epoch: u64) -> String {
    let days = (secs_since_epoch / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctl() -> BenchCtl {
        BenchCtl {
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(4),
            seed: 0xCCDB,
            jobs: 1,
        }
    }

    #[test]
    fn bench_document_shape_and_self_check() {
        let doc = run_bench(&tiny_ctl(), true);
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(BENCH_SCHEMA)
        );
        let Some(Json::Arr(cases)) = doc.get("cases") else {
            panic!("cases array");
        };
        assert_eq!(cases.len(), 9);
        // Profiled cases attribute every dispatch to a kind.
        let first = &cases[0];
        let events = first.get("events").and_then(|v| v.as_u64()).unwrap();
        let Some(Json::Obj(kinds)) = first.get("kinds") else {
            panic!("kinds object");
        };
        let by_kind: u64 = kinds
            .iter()
            .map(|(_, k)| k.get("count").and_then(|v| v.as_u64()).unwrap())
            .sum();
        assert_eq!(by_kind, events);
        let by_name = |n: &str| {
            cases
                .iter()
                .find(|c| c.get("name").unwrap().as_str() == Some(n))
        };
        // The sampled case reports a positive series footprint, no kinds.
        let sampled = by_name("short_cb_25_sampled").unwrap();
        assert!(sampled.get("kinds").is_none());
        assert!(
            sampled
                .get("peak_series_bytes")
                .and_then(|v| v.as_u64())
                .unwrap()
                > 0
        );
        // The realtime server cases hit their commit quota over a real
        // socket, verify page images, and carry the DES prediction.
        for name in ["server_cb_shard1", "server_cb_shard4", "server_occ_shard4"] {
            let case = by_name(name).unwrap();
            assert_eq!(case.get("realtime").and_then(|v| v.as_bool()), Some(true));
            let clients = case.get("clients").unwrap().as_u64().unwrap();
            let txns = case.get("txns").unwrap().as_u64().unwrap();
            assert_eq!(
                case.get("commits").unwrap().as_u64(),
                Some(clients * txns),
                "{name} must commit its full quota"
            );
            let count = |key: &str| case.get(key).unwrap().as_u64().unwrap();
            assert_eq!(
                count("server_commits") + count("local_commits"),
                clients * txns,
                "{name}: server and local commits must sum to the quota"
            );
            assert!(case.get("pages_verified").unwrap().as_u64().unwrap() > 0);
            assert!(case.get("events_per_sec").unwrap().as_f64().unwrap() > 0.0);
            assert!(case.get("des_events_per_sec").unwrap().as_f64().unwrap() > 0.0);
        }
        // A document always passes against itself.
        check_bench(&doc, &doc, 0.2).unwrap();
        // And the delta table covers every case plus the totals row.
        let table = bench_delta_table(&doc, &doc);
        assert!(table.contains("svc_cb_50"));
        assert!(table.contains("total"));
        assert!(table.contains("+0.0%"));
    }

    #[test]
    fn determinism_drift_and_regression_are_flagged() {
        let doc = run_bench(&tiny_ctl(), true);
        let rendered = doc.render();

        // A different events count is an exact-match failure.
        let events = doc.get("cases").unwrap();
        let Json::Arr(cases) = events else {
            unreachable!()
        };
        let n = cases[0].get("events").and_then(|v| v.as_u64()).unwrap();
        let drifted =
            Json::parse(&rendered.replacen(&format!("\"events\":{n}"), "\"events\":1", 1)).unwrap();
        let err = check_bench(&drifted, &doc, 0.2).unwrap_err();
        assert!(err.contains("events changed"), "{err}");

        // Comparing quick against full is refused outright.
        let full = Json::parse(&rendered.replacen("\"quick\":true", "\"quick\":false", 1)).unwrap();
        assert!(check_bench(&full, &doc, 0.2)
            .unwrap_err()
            .contains("modes differ"));

        // Zero tolerance flags any slowdown; a generous all-cases pass is
        // exercised by the self-check above.
        let slow =
            Json::parse(&rendered.replace("\"events_per_sec\":", "\"events_per_sec_orig\":"))
                .unwrap();
        // Removing the rate skips the regression check rather than failing.
        check_bench(&slow, &slow, 0.0).unwrap();
    }

    #[test]
    fn realtime_cases_compare_commits_but_not_events() {
        let make = |events: u64, commits: u64, rate: f64| {
            let mut case = Json::obj();
            case.set("name", "server_x")
                .set("realtime", true)
                .set("events", events)
                .set("commits", commits)
                .set("events_per_sec", rate);
            let mut doc = Json::obj();
            doc.set("schema", BENCH_SCHEMA)
                .set("quick", true)
                .set("cases", Json::Arr(vec![case]));
            doc
        };
        // Socket message counts drift run to run; that must pass.
        check_bench(&make(900, 100, 50.0), &make(500, 100, 50.0), 0.2).unwrap();
        // Commits stay exact even for realtime cases.
        let err = check_bench(&make(500, 99, 50.0), &make(500, 100, 50.0), 0.2).unwrap_err();
        assert!(err.contains("commits changed"), "{err}");
        // And the throughput-regression gate still applies.
        let err = check_bench(&make(500, 100, 10.0), &make(500, 100, 50.0), 0.2).unwrap_err();
        assert!(err.contains("events/sec regressed"), "{err}");
    }

    #[test]
    fn civil_dates_from_epoch_seconds() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(86_399), "1970-01-01");
        assert_eq!(utc_date(86_400), "1970-01-02");
        // 2026-08-08 00:00:00 UTC.
        assert_eq!(utc_date(1_786_147_200), "2026-08-08");
        // Leap day.
        assert_eq!(utc_date(951_782_400), "2000-02-29");
    }
}
