//! # ccdb-core — the client/server DBMS cache-consistency simulator
//!
//! This crate is the paper's primary contribution: the five cache
//! consistency / concurrency control algorithms of Wang & Rowe (SIGMOD
//! 1991) running over a simulated page-server DBMS.
//!
//! * [`config`] — algorithm selection ([`Algorithm`]) and run
//!   configuration ([`SimConfig`]).
//! * [`msg`] — the client/server wire protocol.
//! * [`client`] — the client transaction module (cache manager +
//!   per-algorithm protocol).
//! * [`server`] — the server transaction module (lock manager, buffer
//!   manager, log manager, MPL admission, notification directory).
//! * [`metrics`] — response time / throughput / utilisation reporting.
//! * [`runner`] — [`run_simulation`]: one deterministic run → one
//!   [`RunReport`].
//! * [`experiments`] — the predefined configurations for every table and
//!   figure of the paper's evaluation.
//!
//! ```no_run
//! use ccdb_core::{run_simulation, Algorithm, SimConfig};
//!
//! let cfg = SimConfig::table5(Algorithm::Callback)
//!     .with_clients(10)
//!     .with_locality(0.75)
//!     .with_prob_write(0.2);
//! let report = run_simulation(cfg);
//! println!("{report}");
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod experiments;
pub mod metrics;
pub mod msg;
pub mod replication;
pub mod runner;
pub mod server;
pub mod trace;
pub mod wait;

pub use config::{Algorithm, SimConfig};
pub use metrics::{AbortKind, MetricsHub, ReportSummary, RunReport, TypeResponse, WaitRow};
pub use replication::{
    replication_seed, run_replicated, run_replicated_folded, run_replicated_observed,
    ReplicatedObserved, ReplicatedReport, ReplicationAccumulator, ReplicationAggregate,
};
pub use runner::{
    run_simulation, run_simulation_observed, run_simulation_profiled, run_simulation_traced,
    ObsOptions, Observed, Profiled,
};
pub use trace::{Trace, TraceEvent, TraceSpan};
pub use wait::WaitBook;
