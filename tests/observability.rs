//! The observability layer: deterministic JSON reports, metric sampling,
//! and the agreement between sampled series and end-of-run aggregates.

use ccdb::core::Trace;
use ccdb::{
    run_simulation, run_simulation_observed, run_simulation_traced, Algorithm, Json, ObsOptions,
    Observed, SimConfig, SimDuration,
};

mod common;

fn quick(alg: Algorithm, seed: u64) -> SimConfig {
    SimConfig::table5(alg)
        .with_clients(8)
        .with_locality(0.5)
        .with_prob_write(0.3)
        .with_seed(seed)
        .with_horizon(SimDuration::from_secs(5), SimDuration::from_secs(20))
}

fn observed(alg: Algorithm, seed: u64, interval_secs: u64) -> Observed {
    run_simulation_observed(
        quick(alg, seed),
        Trace::disabled(),
        ObsOptions {
            sample_interval: Some(SimDuration::from_secs(interval_secs)),
            ..ObsOptions::default()
        },
    )
}

/// The full JSON document of a run (report + series), as the CLI emits it.
fn document(o: &Observed) -> String {
    let mut doc = Json::obj();
    doc.set("schema", "ccdb.run/v1")
        .set("report", o.report.to_json())
        .set(
            "series",
            o.series.as_ref().map(|s| s.to_json()).unwrap_or(Json::Null),
        );
    doc.render()
}

#[test]
fn same_seed_produces_byte_identical_json() {
    for alg in [Algorithm::Callback, Algorithm::TwoPhase { inter: true }] {
        let a = document(&observed(alg, 42, 2));
        let b = document(&observed(alg, 42, 2));
        assert_eq!(a, b, "{} JSON must be byte-identical", alg.label());
    }
}

#[test]
fn different_seeds_change_the_json() {
    let a = document(&observed(Algorithm::Callback, 1, 2));
    let b = document(&observed(Algorithm::Callback, 2, 2));
    assert_ne!(a, b, "seed must reach the report");
}

#[test]
fn series_endpoints_match_end_of_run_utilization() {
    let o = observed(Algorithm::TwoPhase { inter: true }, 7, 2);
    let series = o.series.as_ref().unwrap();
    for (metric, aggregate) in [
        ("server.cpu.util", o.report.server_cpu_util),
        ("net.util", o.report.net_util),
        ("disk.data.max_util", o.report.data_disk_util),
        ("disk.log.max_util", o.report.log_disk_util),
    ] {
        let points = series.series(metric).unwrap_or_default();
        let last = points.last().unwrap_or_else(|| panic!("{metric} empty"));
        // The runner takes a final sample exactly at the horizon, where the
        // report also reads the facility — bitwise equality, not epsilon.
        assert_eq!(last.1, aggregate, "{metric} endpoint");
        assert_eq!(last.0, 25.0, "{metric} sampled at the horizon");
    }
}

#[test]
fn key_resource_series_are_nonempty_and_exported() {
    let o = observed(Algorithm::Callback, 3, 2);
    let series = o.series.as_ref().unwrap();
    // 25s horizon at 2s interval: 12 sampler ticks + the horizon sample.
    assert_eq!(series.len(), 13);
    assert_eq!(series.dropped(), 0);
    let rendered = series.to_json().render();
    for metric in [
        "server.cpu.util",
        "server.mpl.util",
        "net.util",
        "data-disk-0.util",
        "disk.data.max_util",
        "disk.log.max_util",
        "client.cache.hit_ratio",
        "server.lock.table_pages",
        "server.lock.blocked_txns",
        "server.buffer.dirty",
        "txn.commits",
    ] {
        let points = series.series(metric).unwrap_or_default();
        assert_eq!(points.len(), 13, "{metric} sampled every tick");
        assert!(
            rendered.contains(&format!("\"{metric}\"")),
            "{metric} in JSON"
        );
    }
    // Commits accumulate: the series must be non-decreasing and end at the
    // windowed total.
    let commits = series.series("txn.commits").unwrap();
    assert!(commits.windows(2).all(|w| w[0].1 <= w[1].1));
    assert_eq!(commits.last().unwrap().1, o.report.commits as f64);
}

#[test]
fn sampling_does_not_change_the_simulation() {
    let plain = run_simulation(quick(Algorithm::NoWait { notify: true }, 11));
    let sampled = observed(Algorithm::NoWait { notify: true }, 11, 1).report;
    // The sampler adds its own wake-up events but must not perturb the
    // simulated system: every workload-visible quantity is identical.
    assert_eq!(plain.commits, sampled.commits);
    assert_eq!(plain.aborts, sampled.aborts);
    assert_eq!(plain.resp_time_mean, sampled.resp_time_mean);
    assert_eq!(plain.msgs_per_commit, sampled.msgs_per_commit);
    assert_eq!(plain.server_cpu_util, sampled.server_cpu_util);
    assert_eq!(plain.cache_hit_ratio, sampled.cache_hit_ratio);
}

#[test]
fn ring_capacity_triggers_folding_not_eviction() {
    let o = run_simulation_observed(
        quick(Algorithm::Callback, 5),
        Trace::disabled(),
        ObsOptions {
            sample_interval: Some(SimDuration::from_secs(1)),
            ring_capacity: 4,
        },
    );
    let series = o.series.as_ref().unwrap();
    // A 25s horizon cannot fit at 1s spacing in 4 slots: the sampler must
    // have folded (doubling its interval) instead of dropping samples.
    assert!(series.len() <= 4);
    assert_eq!(series.dropped(), 0, "adaptive sampling never drops");
    assert!(series.folds() > 0);
    assert!(series.interval_s() > series.base_interval_s());
    let util = series.series("server.cpu.util").unwrap();
    assert_eq!(util.first().unwrap().0, 1.0, "first sample kept exactly");
    assert_eq!(util.last().unwrap().0, 25.0, "horizon sample kept exactly");
    // Every raw sample is still represented in some bucket.
    assert_eq!(series.raw_samples(), series.counts().iter().sum::<u64>());
    assert!(series.raw_samples() > 4);
}

#[test]
fn report_json_names_every_section() {
    let r = run_simulation(quick(Algorithm::Callback, 9));
    let json = r.to_json().render();
    for key in [
        "\"schema\":\"ccdb.run_report/v3\"",
        "\"algorithm\":\"CB\"",
        "\"config\"",
        "\"seed\":",
        "\"response\"",
        "\"by_type\"",
        "\"transactions\"",
        "\"utilization\"",
        "\"resources\"",
        "\"msgs_per_commit\"",
        "\"waits\"",
        "\"histograms\"",
        "\"shards\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Single-type workloads still label their one response entry.
    assert_eq!(r.resp_by_type.len(), 1);
    assert_eq!(r.resp_by_type[0].label, "type-0");
    assert_eq!(r.resp_by_type[0].commits, r.commits);
    // The bottleneck helper names a real resource.
    let b = r.bottleneck().expect("resources reported");
    assert!(r.resources.iter().any(|res| res.name == b.name));
}

/// A rendered v3 report round-trips through the reader: the summary
/// recovers the exact headline figures, the full wait profile, and the
/// latency histograms bit-for-bit.
#[test]
fn v3_report_round_trips_through_report_summary() {
    let r = run_simulation(quick(Algorithm::Callback, 9));
    let text = r.to_json().render();
    let s = ccdb::core::ReportSummary::from_json(&text).expect("v3 report parses");
    assert_eq!(s.schema, "ccdb.run_report/v3");
    assert_eq!(s.commits, r.commits);
    assert_eq!(s.resp_mean_s, r.resp_time_mean);
    assert_eq!(s.throughput_tps, r.throughput);
    assert_eq!(s.waits.len(), r.wait_profile.len());
    for (got, want) in s.waits.iter().zip(&r.wait_profile) {
        assert_eq!(got.label, want.label);
        assert_eq!(got.mean_s, want.mean_s);
    }
    assert_eq!(s.hists, r.hists, "histograms survive the round trip");
}

/// The response histogram counts exactly the committed (measured)
/// transactions, and its quantiles are ordered.
#[test]
fn response_histogram_counts_commits() {
    let r = run_simulation(quick(Algorithm::Callback, 9));
    let (label, resp) = &r.hists[0];
    assert_eq!(label, "response");
    assert_eq!(resp.count(), r.commits);
    assert!(resp.p50() <= resp.p90());
    assert!(resp.p90() <= resp.p99());
    assert!(
        resp.p99() <= resp.max() * 1.001,
        "p99 within the max bucket"
    );
    // Per-class wait histograms ride along under stable labels.
    assert!(r.hists.iter().any(|(l, _)| l == "lock_wait"));
    assert!(r.hists.iter().any(|(l, _)| l.starts_with("wait.")));
}

/// `ccdb trace --chrome`: the exported trace-event JSON is byte-identical
/// across reruns of the same configuration and structurally valid.
#[test]
fn chrome_trace_export_is_byte_identical_and_valid() {
    let export = |seed: u64| {
        let trace = Trace::enabled(50_000);
        run_simulation_traced(quick(Algorithm::Callback, seed), trace.clone());
        trace.to_chrome_json()
    };
    let a = export(21);
    assert_eq!(a, export(21), "chrome export must be deterministic");
    assert_ne!(a, export(22), "the seed must reach the trace");
    common::assert_valid_json(&a);

    let doc = Json::parse(&a).expect("parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc.get("traceEvents").expect("traceEvents present");
    let Json::Arr(items) = events else {
        panic!("traceEvents is an array")
    };
    assert!(items.len() > 100, "a 25s run produces a rich trace");
    for item in items {
        assert!(item.get("name").is_some(), "every record is named");
        let ph = item.get("ph").and_then(|v| v.as_str()).expect("ph");
        assert!(matches!(ph, "M" | "X" | "i"), "known phase, got {ph}");
    }
    // Lifecycle spans, instants, and thread metadata all present.
    assert!(a.contains("\"ph\":\"X\""));
    assert!(a.contains("\"ph\":\"i\""));
    assert!(a.contains("\"name\":\"client 0\""));
    assert!(a.contains("\"name\":\"txn-begin\""));
}

#[test]
fn emitted_json_is_syntactically_valid() {
    let o = observed(Algorithm::TwoPhase { inter: true }, 13, 5);
    common::assert_valid_json(&document(&o));
}
