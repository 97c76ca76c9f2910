//! Golden run-report digests: the end-to-end determinism contract.
//!
//! For every algorithm the full run report — rendered as its versioned
//! JSON document — must hash to the same value whether the lock table has
//! 1, 2 or 4 shards. The digests are committed in
//! `tests/golden_digests.json`, so any change to simulation dynamics
//! (event order, stats arithmetic, report shape) fails loudly here and
//! has to be accompanied by a deliberate refresh:
//!
//! ```text
//! CCDB_UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! Per-shard lock counters are the one projection that legitimately
//! differs by shard count (they partition the same totals), so they are
//! cleared before hashing; everything else must match bit-for-bit.

use ccdb::{
    run_simulation_observed, Algorithm, Json, ObsOptions, RunReport, SimConfig, SimDuration, Trace,
};

const DIGEST_FILE: &str = "tests/golden_digests.json";

/// The pinned configuration: small enough for tier-1, busy enough that
/// every subsystem (locks, callbacks, log, cache) sees traffic.
fn golden_config(alg: Algorithm, lock_shards: u32) -> SimConfig {
    let mut cfg = SimConfig::table5(alg)
        .with_clients(8)
        .with_locality(0.5)
        .with_prob_write(0.3)
        .with_seed(0x601D)
        .with_horizon(SimDuration::from_secs(1), SimDuration::from_secs(4));
    cfg.sys.lock_shards = lock_shards;
    cfg
}

fn run_digest(alg: Algorithm, lock_shards: u32) -> u64 {
    let mut report: RunReport = run_simulation_observed(
        golden_config(alg, lock_shards),
        Trace::disabled(),
        ObsOptions::default(),
    )
    .report;
    // Shard-invariant projection: per-shard lock counters and per-shard
    // wait attribution partition the same totals differently per shard
    // count; drop them. Total lock stats, the `lock_wait` histogram, and
    // every other field stay in the digest.
    report.lock_shard_stats.clear();
    report
        .wait_profile
        .retain(|w| !w.label.starts_with("lock-shard-"));
    report
        .hists
        .retain(|(label, _)| !label.starts_with("wait.lock-shard-"));
    fnv1a(report.to_json().render().as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn reports_are_identical_across_lock_shards() {
    let committed: Option<Json> = std::fs::read_to_string(DIGEST_FILE)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let update = std::env::var_os("CCDB_UPDATE_GOLDEN").is_some();

    let mut digests = Json::obj();
    for alg in Algorithm::ALL {
        let digest = run_digest(alg, 1);
        // Every shard count must reproduce the single-shard run exactly:
        // lock sharding is a partitioning of the same table, not a
        // protocol change.
        for shards in [2, 4] {
            assert_eq!(
                run_digest(alg, shards),
                digest,
                "{}: report diverged with lock_shards={shards}",
                alg.label(),
            );
        }
        digests.set(alg.label(), format!("{digest:016x}"));

        if !update {
            let want = committed
                .as_ref()
                .and_then(|c| c.get("digests"))
                .and_then(|d| d.get(alg.label()))
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| panic!("{DIGEST_FILE} has no digest for {}", alg.label()))
                .to_string();
            assert_eq!(
                format!("{digest:016x}"),
                want,
                "{}: run report no longer reproduces the committed golden digest; \
                 if the change is deliberate, refresh with \
                 CCDB_UPDATE_GOLDEN=1 cargo test --test golden",
                alg.label(),
            );
        }
    }

    if update {
        let mut doc = Json::obj();
        doc.set("schema", "ccdb.golden/v1").set("digests", digests);
        std::fs::write(DIGEST_FILE, doc.render_pretty()).expect("write golden digests");
        eprintln!("golden: refreshed {DIGEST_FILE}");
    }
}
