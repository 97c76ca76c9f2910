//! End-to-end test of the real TCP page-server: start `serve` on an
//! ephemeral loopback port, run the load driver's workload generator
//! against it over real sockets, then replay the recorded wire trace
//! through a fresh sans-io engine and require *zero* protocol-decision
//! diffs — the live server must have done exactly what the
//! simulator-validated core would do, message for message.
//!
//! Every algorithm runs against the nonblocking reactor with both 1 and
//! 4 engine shards (v2 traces, checked per shard), and a threaded-server
//! baseline keeps the v1 path honest. The load driver verifies every
//! shipped page image byte-for-byte, so these rounds also prove real
//! payloads round-trip.

use std::fs::File;
use std::io::BufReader;
use std::thread;

use ccdb::server::{load, replay, serve, LoadOptions, ServeOptions};
use ccdb::Algorithm;

/// One live round; asserts the run commits its quota, verified real
/// page payloads, and replays with zero decision diffs on every shard.
fn round_trip_on(alg: Algorithm, clients: u32, txns: u32, engine_shards: u32, threaded: bool) {
    let dir = std::env::temp_dir().join(format!(
        "ccdb-e2e-{}-s{engine_shards}-t{}-{}",
        alg.name(),
        u8::from(threaded),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace_path = dir.join("trace.jsonl");
    let port_file = dir.join("port");

    let mut sopts = ServeOptions::new(alg);
    sopts.clients = clients;
    sopts.port = 0;
    sopts.once = true;
    sopts.trace = Some(trace_path.clone());
    sopts.port_file = Some(port_file.clone());
    sopts.engine_shards = engine_shards;
    sopts.threaded = threaded;
    let server = thread::spawn(move || serve(&sopts));

    // Wait for the server to publish its ephemeral port.
    let port: u16 = {
        let mut tries = 0;
        loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = s.trim().parse() {
                    break p;
                }
            }
            tries += 1;
            assert!(tries < 1_000, "server never published its port");
            thread::sleep(std::time::Duration::from_millis(5));
        }
    };

    let summary = load(&LoadOptions {
        addr: format!("127.0.0.1:{port}"),
        clients,
        txns,
        seed: 7,
    })
    .expect("load run failed");
    assert_eq!(
        summary.alg,
        alg.label(),
        "server advertised wrong algorithm"
    );
    assert_eq!(
        summary.commits,
        clients as u64 * txns as u64,
        "every client must commit its quota"
    );
    assert!(
        summary.pages_verified > 0,
        "the run must have verified real page payloads"
    );

    let commits = server
        .join()
        .expect("server thread panicked")
        .expect("serve failed");
    // Read-only callback transactions that hit every page in cache commit
    // at the client and never reach the server.
    assert_eq!(
        commits,
        summary.commits - summary.local_commits,
        "server and driver disagree on commits"
    );

    // The oracle step: replay the recorded trace through a fresh engine.
    let report = replay(BufReader::new(
        File::open(&trace_path).expect("trace file missing"),
    ))
    .expect("trace unreadable");
    assert!(
        report.ok(),
        "replay diverged for {} ({engine_shards} shards):\n{}",
        alg.label(),
        report.diffs.join("\n")
    );
    assert_eq!(report.commits, commits, "replayed commit count diverges");
    if !threaded {
        assert_eq!(
            report.shard_diffs.len(),
            engine_shards as usize + 1,
            "v2 replay reports one verdict per shard plus the wide lane"
        );
    }
    for (shard, diffs) in &report.shard_diffs {
        assert_eq!(*diffs, 0, "shard {shard} saw decision diffs");
    }

    std::fs::remove_dir_all(&dir).ok();
}

macro_rules! reactor_rounds {
    ($($name1:ident, $name4:ident: $alg:expr;)+) => {
        $(
            #[test]
            fn $name1() {
                round_trip_on($alg, 3, 6, 1, false);
            }
            #[test]
            fn $name4() {
                round_trip_on($alg, 3, 6, 4, false);
            }
        )+
    };
}

reactor_rounds! {
    reactor_replays_clean_b2pl_shard1, reactor_replays_clean_b2pl_shard4:
        Algorithm::TwoPhase { inter: false };
    reactor_replays_clean_c2pl_shard1, reactor_replays_clean_c2pl_shard4:
        Algorithm::TwoPhase { inter: true };
    reactor_replays_clean_occ_shard1, reactor_replays_clean_occ_shard4:
        Algorithm::Certification { inter: false };
    reactor_replays_clean_cocc_shard1, reactor_replays_clean_cocc_shard4:
        Algorithm::Certification { inter: true };
    reactor_replays_clean_cb_shard1, reactor_replays_clean_cb_shard4:
        Algorithm::Callback;
    reactor_replays_clean_nw_shard1, reactor_replays_clean_nw_shard4:
        Algorithm::NoWait { notify: false };
    reactor_replays_clean_nwn_shard1, reactor_replays_clean_nwn_shard4:
        Algorithm::NoWait { notify: true };
}

#[test]
fn threaded_server_replays_clean_b2pl() {
    round_trip_on(Algorithm::TwoPhase { inter: false }, 3, 6, 1, true);
}

#[test]
fn threaded_server_replays_clean_cb() {
    round_trip_on(Algorithm::Callback, 3, 6, 1, true);
}
