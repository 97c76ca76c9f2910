//! # ccdb-des — deterministic discrete-event simulation kernel
//!
//! A process-oriented simulation kernel in the style of CSIM (the simulation
//! language used by Wang & Rowe's original study). Simulation *processes*
//! are ordinary Rust `async` blocks driven by a single-threaded executor
//! whose notion of time is the event calendar, not the wall clock.
//!
//! Primitives:
//!
//! * [`Sim`] / [`Env`] — the executor and the handle processes use to spawn,
//!   read the clock, sleep ([`Env::hold`]) and take same-instant service
//!   slots ([`Env::hop`], [`Env::service`]).
//! * [`Facility`] — an FCFS multi-server resource (CPU, disk, network) with
//!   utilisation statistics.
//! * [`Mailbox`] — unbounded FIFO message queues with blocking receive and
//!   receive-with-deadline.
//! * [`oneshot`] — single-use request/grant signals.
//! * [`Pcg32`] — deterministic random streams with the uniform/exponential
//!   variates the model needs.
//! * [`Tally`] / [`TimeWeighted`] — output statistics.
//!
//! Determinism: events at equal times fire in scheduling order, the RNG is
//! self-contained, and every process runs on one thread, so a run is a pure
//! function of (program, seed).
//!
//! ```
//! use ccdb_des::{Sim, SimDuration, Facility};
//!
//! let sim = Sim::new();
//! let env = sim.env();
//! let cpu = Facility::new(&env, "cpu", 1);
//! for _ in 0..3 {
//!     let cpu = cpu.clone();
//!     sim.spawn(async move {
//!         cpu.use_for(SimDuration::from_millis(10)).await;
//!     });
//! }
//! sim.run();
//! assert_eq!(sim.now().as_nanos(), 30_000_000);
//! ```

#![warn(missing_docs)]

mod arena;
mod calendar;
mod facility;
mod kernel;
mod mailbox;
mod oneshot;
mod pool;
mod rng;
mod stats;
mod sync;
mod time;

pub use facility::{Acquire, Facility, FacilityGuard, FacilitySnapshot, RestartCause, WaitClass};
pub use kernel::{Env, EventKind, Hold, Hop, KernelProfile, ProcId, Sim};
pub use mailbox::{Mailbox, Recv, RecvUntil};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender, Wait};
pub use pool::{CpuGuard, CpuPool, PoolAcquire};
pub use rng::Pcg32;
pub use stats::{BatchMeans, Histogram, Tally, TimeWeighted};
pub use sync::{Gate, GateWait, SemAcquire, Semaphore};
pub use time::{SimDuration, SimTime};
