//! # ccdb — cache consistency and concurrency control in a client/server DBMS
//!
//! A from-scratch Rust reproduction of **Wang & Rowe, "Cache Consistency
//! and Concurrency Control in a Client/Server DBMS Architecture"**
//! (UCB/ERL M90/120; SIGMOD 1991): a deterministic discrete-event
//! simulation of a page-server DBMS comparing five cache consistency
//! algorithms — two-phase locking, certification, callback locking,
//! no-wait locking, and no-wait locking with notification.
//!
//! This facade re-exports the public API of the workspace crates:
//!
//! * [`des`] — the discrete-event simulation kernel,
//! * [`model`] — database / transaction / system models (Tables 1–3),
//! * [`net`] — the network manager,
//! * [`storage`] — disks, buffer manager, client cache, log manager,
//! * [`lock`] — the page-level lock manager,
//! * [`obs`] — metrics registry, time-series sampler, JSON export,
//! * [`proto`] — the sans-io protocol cores (client/server state
//!   machines and the wire message enums) shared by the simulator and
//!   the real server,
//! * [`core`] — the simulator and the five algorithms,
//! * [`server`] — a real TCP page-server, load driver, and wire-trace
//!   replay over the same protocol cores,
//! * [`sweep`] — parallel experiment orchestration: declarative grids,
//!   a deterministic worker pool, cross-replication merging, and
//!   paper-figure regeneration,
//! * [`mod@bench`] — the figure/table harness machinery and the pinned
//!   `ccdb bench` self-profiling suite (`ccdb.bench/v1` documents).
//!
//! ## Quick start
//!
//! ```no_run
//! use ccdb::{run_simulation, Algorithm, SimConfig};
//!
//! // Callback locking, 30 clients, high locality, moderate updates.
//! let cfg = SimConfig::table5(Algorithm::Callback)
//!     .with_clients(30)
//!     .with_locality(0.75)
//!     .with_prob_write(0.2);
//! let report = run_simulation(cfg);
//! println!(
//!     "mean response {:.3}s, throughput {:.1} txn/s",
//!     report.resp_time_mean, report.throughput
//! );
//! ```

#![warn(missing_docs)]

pub use ccdb_bench as bench;
pub use ccdb_core as core;
pub use ccdb_des as des;
pub use ccdb_lock as lock;
pub use ccdb_model as model;
pub use ccdb_net as net;
pub use ccdb_obs as obs;
pub use ccdb_proto as proto;
pub use ccdb_server as server;
pub use ccdb_storage as storage;
pub use ccdb_sweep as sweep;

pub use ccdb_core::{
    experiments, run_replicated_observed, run_simulation, run_simulation_observed,
    run_simulation_profiled, run_simulation_traced, AbortKind, Algorithm, MetricsHub, ObsOptions,
    Observed, Profiled, ReplicatedObserved, RunReport, SimConfig, Trace, TraceSpan, TypeResponse,
};
pub use ccdb_des::{EventKind, KernelProfile, SimDuration, SimTime};
pub use ccdb_model::{DatabaseSpec, SystemParams, TxnParams};
pub use ccdb_obs::{Json, LatencyHistogram, MergedSeries, Registry, SeriesMerger, SeriesSet};
