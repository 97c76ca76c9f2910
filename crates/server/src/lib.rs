//! A real TCP page-server and load driver over the sans-io protocol
//! cores, with wire tracing and DES-oracle replay.
//!
//! The discrete-event simulator (`ccdb-core`) and this crate are two
//! drivers over the same protocol state machines (`ccdb-proto`):
//!
//! - [`codec`] — length-prefixed binary frames for the shared `C2S`/`S2C`
//!   enums; payload bytes come from the same `payload_bytes` definition
//!   the simulated network charges, so wire size and simulated data
//!   volume cannot drift apart.
//! - [`engine`] — the sans-io session engine: `ServerCore` plus MPL
//!   admission, parked lock continuations, and pending commits. A pure
//!   function of the message sequence.
//! - [`shard`] — the page-hash–sharded engine: decisions run serially
//!   through one engine (preserving the DES-oracle lineage), and
//!   rendering — commit-image checks, page images, frames, trace lines —
//!   follows each decision. Shards partition the page-image stores and
//!   tag trace lines; they add no parallelism.
//! - [`reactor`] — the default server: one thread blocking in `poll(2)`
//!   on the listener and every connection, deciding and rendering each
//!   message inline, with per-connection read/write buffers and
//!   backpressure, and `ccdb.wire_trace/v2` (shard-tagged) traces.
//! - [`server`] — serve entry points; the legacy threaded `std::net`
//!   server (`--threaded`) keeps writing `ccdb.wire_trace/v1`.
//! - [`client`] — a load driver running the repository's workload
//!   generator through `ClientCore` against a live server; it verifies
//!   every shipped page image byte-for-byte.
//! - [`trace`] — trace writer/reader and [`trace::replay`]: rebuilds a
//!   fresh engine from the header, re-applies the recorded messages, and
//!   diffs every protocol decision (grants, blocks, callbacks, aborts,
//!   commit outcomes), every outgoing message, and — for v2 — every
//!   shard tag and cross-shard commit-order stamp. Zero diffs means the
//!   live run did exactly what the simulator-validated core would do.

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod engine;
pub mod reactor;
pub mod server;
pub mod shard;
pub mod trace;

pub use client::{load, LoadOptions, LoadSummary};
pub use codec::{
    decode_frame, decode_frame_with_payload, encode_frame, encode_frame_with_payload, read_frame,
    read_frame_with_payload, write_frame, CodecError, Frame, FrameReader, FrameWriter, MAX_FRAME,
};
pub use engine::{Decision, Effects, Engine};
pub use server::{serve, ServeOptions};
pub use shard::{shard_of_msg, ShardedEngine};
pub use trace::{replay, ReplayReport, TraceHeader, TraceWriter, SCHEMA, SCHEMA_V2};
