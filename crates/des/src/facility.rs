//! FCFS multi-server resources ("facilities" in CSIM terminology).
//!
//! A [`Facility`] models a physical resource — a CPU, a disk, the network —
//! with a fixed number of identical servers and a first-come first-served
//! queue. Processes acquire a server, hold it for some service time, and
//! release it (via RAII guard drop). The facility records busy-time and
//! queue-length integrals so utilisation can be reported.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::arena::WaitHandle;
use crate::kernel::{Env, EventKind, ProcId};
use crate::time::{SimDuration, SimTime};

/// Why a transaction restarted — the abort kind its back-off delay is
/// attributed to in wait-decomposition reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RestartCause {
    /// A deadlock victim.
    Deadlock,
    /// A stale cached page was detected.
    StaleRead,
    /// Commit-time certification failed.
    Validation,
}

/// Why a process queued at a facility: the resource class blocked time is
/// attributed to in wait-decomposition reports. Purely descriptive — it
/// never affects scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitClass {
    /// A server CPU core.
    Cpu,
    /// A client workstation CPU.
    ClientCpu,
    /// A data disk.
    DataDisk,
    /// A log disk.
    LogDisk,
    /// The network medium.
    Network,
    /// The server's multiprogramming-level admission gate.
    MplGate,
    /// Lock-table shard `k`.
    LockShard(u32),
    /// Restart back-off after an abort of the named kind.
    Restart(RestartCause),
    /// Anything not otherwise classified.
    Other,
}

impl WaitClass {
    /// Stable label used in reports (`lock-shard-k` for shard `k`,
    /// `restart-<kind>` for restart back-off).
    pub fn label(self) -> String {
        match self {
            WaitClass::Cpu => "cpu".into(),
            WaitClass::ClientCpu => "client-cpu".into(),
            WaitClass::DataDisk => "data-disk".into(),
            WaitClass::LogDisk => "log-disk".into(),
            WaitClass::Network => "network".into(),
            WaitClass::MplGate => "mpl-gate".into(),
            WaitClass::LockShard(k) => format!("lock-shard-{k}"),
            WaitClass::Restart(RestartCause::Deadlock) => "restart-deadlock".into(),
            WaitClass::Restart(RestartCause::StaleRead) => "restart-stale".into(),
            WaitClass::Restart(RestartCause::Validation) => "restart-validation".into(),
            WaitClass::Other => "other".into(),
        }
    }
}

/// Wait-cell words for a queued acquirer. A cancelled waiter has no word:
/// the departing future frees its cell and the queue entry goes stale.
const QUEUED: u32 = 0;
const GRANTED: u32 = 1;

struct Waiter {
    pid: ProcId,
    handle: WaitHandle,
    enqueued_at: SimTime,
}

struct Inner {
    name: String,
    servers: u32,
    wait_class: WaitClass,
    busy: u32,
    queue: VecDeque<Waiter>,
    // Statistics.
    stats_start: SimTime,
    last_change: SimTime,
    busy_integral: f64,  // server-seconds of busy time
    queue_integral: f64, // waiter-seconds of queueing
    completions: u64,
    total_service: SimDuration,
    // Per-waiter wait accounting: exact enqueue→grant intervals for
    // acquisitions that had to queue (immediate grants wait zero and are
    // not counted).
    waits: u64,
    total_wait: SimDuration,
    max_wait: SimDuration,
}

impl Inner {
    fn touch(&mut self, now: SimTime) {
        let dt = now.since(self.last_change).as_secs_f64();
        if dt > 0.0 {
            self.busy_integral += dt * self.busy as f64;
            self.queue_integral += dt * self.queue.len() as f64;
        }
        self.last_change = now;
    }

    // Pure-read integrals: fold the pending `[last_change, now]` segment in
    // on the fly instead of flushing it. Flushing on read would split the
    // f64 sums at every observation instant, making reported utilisation
    // depend on how often a sampler looked — and a sampled run must
    // reproduce an unsampled one bit-for-bit.
    fn busy_integral_at(&self, now: SimTime) -> f64 {
        self.busy_integral + now.since(self.last_change).as_secs_f64() * self.busy as f64
    }

    fn queue_integral_at(&self, now: SimTime) -> f64 {
        self.queue_integral + now.since(self.last_change).as_secs_f64() * self.queue.len() as f64
    }
}

/// A point-in-time copy of one facility's statistics, for reports.
#[derive(Clone, Debug, PartialEq)]
pub struct FacilitySnapshot {
    /// Facility name.
    pub name: String,
    /// Number of identical servers.
    pub servers: u32,
    /// Mean per-server utilisation since the last statistics reset.
    pub utilization: f64,
    /// Time-averaged queue length since the last statistics reset.
    pub mean_queue_len: f64,
    /// Completed service periods since the last statistics reset.
    pub completions: u64,
    /// Acquisitions that had to queue since the last statistics reset.
    pub waits: u64,
    /// Total enqueue→grant wait time (seconds) of those acquisitions.
    pub total_wait_s: f64,
    /// Longest single enqueue→grant wait (seconds).
    pub max_wait_s: f64,
}

/// What a [`Facility`] handle points at.
struct Shared {
    env: Env,
    inner: RefCell<Inner>,
}

/// A first-come first-served multi-server resource. A handle is one
/// `Rc`: cloning it is one reference-count bump.
#[derive(Clone)]
pub struct Facility {
    shared: Rc<Shared>,
}

impl Facility {
    /// Create a facility with `servers` identical servers.
    pub fn new(env: &Env, name: impl Into<String>, servers: u32) -> Self {
        assert!(servers > 0, "facility needs at least one server");
        Facility {
            shared: Rc::new(Shared {
                env: env.clone(),
                inner: RefCell::new(Inner {
                    name: name.into(),
                    servers,
                    wait_class: WaitClass::Other,
                    busy: 0,
                    queue: VecDeque::new(),
                    stats_start: env.now(),
                    last_change: env.now(),
                    busy_integral: 0.0,
                    queue_integral: 0.0,
                    completions: 0,
                    total_service: SimDuration::ZERO,
                    waits: 0,
                    total_wait: SimDuration::ZERO,
                    max_wait: SimDuration::ZERO,
                }),
            }),
        }
    }

    /// Tag this facility with the resource class its queueing time is
    /// attributed to. Returns `self` for builder-style wiring.
    pub fn with_wait_class(self, class: WaitClass) -> Self {
        self.shared.inner.borrow_mut().wait_class = class;
        self
    }

    /// The resource class queueing at this facility is attributed to.
    pub fn wait_class(&self) -> WaitClass {
        self.shared.inner.borrow().wait_class
    }

    /// Facility name (for reports).
    pub fn name(&self) -> String {
        self.shared.inner.borrow().name.clone()
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.shared.inner.borrow().servers
    }

    /// Servers currently busy.
    pub fn busy(&self) -> u32 {
        self.shared.inner.borrow().busy
    }

    /// Processes currently queued (not yet holding a server).
    pub fn queue_len(&self) -> usize {
        self.shared.inner.borrow().queue.len()
    }

    /// Acquire one server; resolves to an RAII guard that releases on drop.
    pub fn acquire(&self) -> Acquire<'_> {
        Acquire {
            facility: self,
            state: AcquireState::Start,
        }
    }

    /// Take a server if one is idle, without a guard; never queues. The
    /// immediate-grant path of [`Facility::acquire`], also used by a CPU
    /// pool, which routes to idle cores without an event, holds a core
    /// through its own borrowing guard and gives it back with
    /// [`Facility::release_one`]. The integrals are touched even when no
    /// server is idle.
    pub(crate) fn try_seize(&self) -> bool {
        let now = self.shared.env.now();
        let mut inner = self.shared.inner.borrow_mut();
        inner.touch(now);
        if inner.busy < inner.servers {
            inner.busy += 1;
            true
        } else {
            false
        }
    }

    /// Materialize the guard for a server previously seized with
    /// [`Facility::try_seize`] or handed over by a release. Dropping it
    /// releases that server.
    pub(crate) fn assume_seized(&self) -> FacilityGuard {
        FacilityGuard {
            facility: self.clone(),
            released: false,
        }
    }

    /// Acquire a server, hold it for `service`, release it. The common case.
    pub async fn use_for(&self, service: SimDuration) {
        let guard = self.acquire().await;
        self.shared.env.hold(service).await;
        drop(guard);
    }

    /// Mean utilisation per server over `[start of sim, now]`. A pure read:
    /// observing never perturbs the busy-time integral, so a sampled run
    /// reports bit-identical utilisation to an unsampled one.
    pub fn utilization(&self) -> f64 {
        let inner = self.shared.inner.borrow();
        let now = self.shared.env.now();
        let elapsed = now.since(inner.stats_start).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            inner.busy_integral_at(now) / (elapsed * inner.servers as f64)
        }
    }

    /// Time-averaged queue length. A pure read, like [`Facility::utilization`].
    pub fn mean_queue_len(&self) -> f64 {
        let inner = self.shared.inner.borrow();
        let now = self.shared.env.now();
        let elapsed = now.since(inner.stats_start).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            inner.queue_integral_at(now) / elapsed
        }
    }

    /// Completed service periods.
    pub fn completions(&self) -> u64 {
        self.shared.inner.borrow().completions
    }

    /// Acquisitions that had to queue since the last statistics reset.
    pub fn waits(&self) -> u64 {
        self.shared.inner.borrow().waits
    }

    /// Total enqueue→grant wait time of queued acquisitions.
    pub fn total_wait(&self) -> SimDuration {
        self.shared.inner.borrow().total_wait
    }

    /// Longest single enqueue→grant wait.
    pub fn max_wait(&self) -> SimDuration {
        self.shared.inner.borrow().max_wait
    }

    /// Snapshot the statistics for a report.
    pub fn snapshot(&self) -> FacilitySnapshot {
        FacilitySnapshot {
            name: self.name(),
            servers: self.servers(),
            utilization: self.utilization(),
            mean_queue_len: self.mean_queue_len(),
            completions: self.completions(),
            waits: self.waits(),
            total_wait_s: self.total_wait().as_secs_f64(),
            max_wait_s: self.max_wait().as_secs_f64(),
        }
    }

    /// Reset the statistics integrals (e.g. at the end of warm-up).
    pub fn reset_stats(&self) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.stats_start = self.shared.env.now();
        inner.last_change = self.shared.env.now();
        inner.busy_integral = 0.0;
        inner.queue_integral = 0.0;
        inner.completions = 0;
        inner.total_service = SimDuration::ZERO;
        inner.waits = 0;
        inner.total_wait = SimDuration::ZERO;
        inner.max_wait = SimDuration::ZERO;
    }

    /// Give back one server: hand it to the first live waiter, or idle it.
    pub(crate) fn release_one(&self) {
        let now = self.shared.env.now();
        let mut inner = self.shared.inner.borrow_mut();
        inner.touch(now);
        debug_assert!(inner.busy > 0, "release without acquire");
        inner.completions += 1;
        // Hand the server straight to the first live waiter (exact FCFS);
        // otherwise the server goes idle.
        loop {
            let Some(w) = inner.queue.pop_front() else {
                inner.busy -= 1;
                return;
            };
            match self.shared.env.wait_word(w.handle) {
                // Stale handle: the waiter departed (cancelled). Skip.
                None => continue,
                Some(QUEUED) => {
                    self.shared.env.set_wait_word(w.handle, GRANTED);
                    let waited = now.since(w.enqueued_at.max(inner.stats_start));
                    inner.waits += 1;
                    inner.total_wait += waited;
                    inner.max_wait = inner.max_wait.max(waited);
                    // busy count unchanged: the server transfers directly.
                    drop(inner);
                    self.shared
                        .env
                        .schedule_wake(now, w.pid, EventKind::Facility);
                    return;
                }
                Some(_) => unreachable!("granted waiter still queued"),
            }
        }
    }
}

/// Progress of an [`Acquire`]. The future owns its wait cell while parked
/// and frees it exactly once (on grant consumption or in its destructor).
enum AcquireState {
    /// Not yet polled.
    Start,
    /// Parked in the facility queue, owning a wait cell.
    Waiting(WaitHandle),
    /// Grant consumed (or immediate): nothing left to clean up.
    Done,
}

/// Future returned by [`Facility::acquire`]; borrows its facility.
pub struct Acquire<'a> {
    facility: &'a Facility,
    state: AcquireState,
}

impl Future for Acquire<'_> {
    type Output = FacilityGuard;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<FacilityGuard> {
        let facility = self.facility;
        let env = &facility.shared.env;
        let now = env.now();
        match self.state {
            AcquireState::Start => {
                if facility.try_seize() {
                    // Mark consumed so our Drop impl doesn't double-release.
                    self.state = AcquireState::Done;
                    return Poll::Ready(facility.assume_seized());
                }
                let handle = env.alloc_wait(QUEUED);
                facility.shared.inner.borrow_mut().queue.push_back(Waiter {
                    pid: env.current(),
                    handle,
                    enqueued_at: now,
                });
                self.state = AcquireState::Waiting(handle);
                Poll::Pending
            }
            AcquireState::Waiting(handle) => {
                match env.wait_word(handle) {
                    Some(GRANTED) => {
                        // Consume the grant and give the cell back.
                        env.free_wait(handle);
                        self.state = AcquireState::Done;
                        Poll::Ready(facility.assume_seized())
                    }
                    Some(_) => Poll::Pending,
                    None => unreachable!("wait cell freed while future still parked"),
                }
            }
            AcquireState::Done => {
                unreachable!("acquire future polled after completion")
            }
        }
    }
}

impl Drop for Acquire<'_> {
    fn drop(&mut self) {
        if let AcquireState::Waiting(handle) = self.state {
            let env = &self.facility.shared.env;
            let granted = env.wait_word(handle) == Some(GRANTED);
            // Freeing the cell turns our queue entry stale (= cancelled).
            env.free_wait(handle);
            if granted {
                // Dropped after the server was handed over but before the
                // guard was constructed: give the server back.
                self.facility.release_one();
            }
        }
    }
}

/// RAII guard for one acquired server. Dropping releases the server and
/// hands it to the next queued waiter.
pub struct FacilityGuard {
    facility: Facility,
    released: bool,
}

impl FacilityGuard {
    /// Release explicitly (equivalent to dropping).
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if !self.released {
            self.released = true;
            self.facility.release_one();
        }
    }
}

impl Drop for FacilityGuard {
    fn drop(&mut self) {
        self.do_release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use std::cell::RefCell;

    #[test]
    fn single_server_serializes_fcfs() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "cpu", 1);
        let log: Rc<RefCell<Vec<(u32, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let fac = fac.clone();
            let env = env.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                fac.use_for(SimDuration::from_millis(10)).await;
                log.borrow_mut().push((i, env.now()));
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(
            *log,
            vec![
                (0, SimTime::from_nanos(10_000_000)),
                (1, SimTime::from_nanos(20_000_000)),
                (2, SimTime::from_nanos(30_000_000)),
            ]
        );
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "cpus", 2);
        let done: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let fac = fac.clone();
            let env = env.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                fac.use_for(SimDuration::from_millis(10)).await;
                done.borrow_mut().push(env.now());
            });
        }
        sim.run();
        let done = done.borrow();
        // Two finish at t=10ms, two at t=20ms.
        assert_eq!(done[0], SimTime::from_nanos(10_000_000));
        assert_eq!(done[1], SimTime::from_nanos(10_000_000));
        assert_eq!(done[2], SimTime::from_nanos(20_000_000));
        assert_eq!(done[3], SimTime::from_nanos(20_000_000));
    }

    #[test]
    fn utilization_is_tracked() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "disk", 1);
        {
            let fac = fac.clone();
            let env = env.clone();
            sim.spawn(async move {
                fac.use_for(SimDuration::from_secs(3)).await;
                env.hold(SimDuration::from_secs(1)).await;
            });
        }
        sim.run();
        // Busy 3s out of 4s elapsed.
        assert!((fac.utilization() - 0.75).abs() < 1e-9);
        assert_eq!(fac.completions(), 1);
    }

    #[test]
    fn observing_utilization_mid_run_has_no_side_effects() {
        // A run that is *watched* (utilization / mean queue read at odd
        // instants, as the time-series sampler does) must report the same
        // final statistics bit-for-bit as an unwatched twin. The old read
        // path flushed the busy-time integral at every observation, which
        // split the f64 sum differently and cost a 1-ulp report divergence.
        let run = |watch: bool| {
            let sim = Sim::new();
            let env = sim.env();
            let fac = Facility::new(&env, "cpu", 1);
            for i in 0..5u64 {
                let fac = fac.clone();
                let env = env.clone();
                sim.spawn(async move {
                    env.hold(SimDuration::from_nanos(i * 777_777)).await;
                    fac.use_for(SimDuration::from_nanos(1_000_003 + i * 333_331))
                        .await;
                });
            }
            {
                // Anchor: both runs end at the same instant.
                let env = env.clone();
                sim.spawn(async move {
                    env.hold(SimDuration::from_millis(20)).await;
                });
            }
            if watch {
                let fac = fac.clone();
                let env = env.clone();
                sim.spawn(async move {
                    for _ in 0..50 {
                        env.hold(SimDuration::from_nanos(123_457)).await;
                        let _ = fac.utilization();
                        let _ = fac.mean_queue_len();
                    }
                });
            }
            sim.run();
            (fac.utilization().to_bits(), fac.mean_queue_len().to_bits())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn guard_drop_releases_and_wakes_waiter() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "cpu", 1);
        let t = Rc::new(RefCell::new(SimTime::ZERO));
        {
            let fac = fac.clone();
            let env = env.clone();
            sim.spawn(async move {
                let g = fac.acquire().await;
                env.hold(SimDuration::from_millis(5)).await;
                drop(g);
                env.hold(SimDuration::from_millis(100)).await;
            });
        }
        {
            let fac = fac.clone();
            let env = env.clone();
            let t = Rc::clone(&t);
            sim.spawn(async move {
                let _g = fac.acquire().await;
                *t.borrow_mut() = env.now();
            });
        }
        sim.run();
        assert_eq!(*t.borrow(), SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn mean_queue_len_reflects_waiting() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "cpu", 1);
        for _ in 0..2 {
            let fac = fac.clone();
            sim.spawn(async move {
                fac.use_for(SimDuration::from_secs(1)).await;
            });
        }
        sim.run();
        // One waiter queued for 1s out of 2s elapsed = 0.5 mean queue.
        assert!((fac.mean_queue_len() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_matches_getters() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "disk", 2);
        {
            let fac = fac.clone();
            sim.spawn(async move {
                fac.use_for(SimDuration::from_secs(1)).await;
            });
        }
        sim.run();
        let snap = fac.snapshot();
        assert_eq!(snap.name, "disk");
        assert_eq!(snap.servers, 2);
        assert_eq!(snap.utilization, fac.utilization());
        assert_eq!(snap.mean_queue_len, fac.mean_queue_len());
        assert_eq!(snap.completions, 1);
    }

    #[test]
    fn wait_stats_are_exact() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "cpu", 1);
        for _ in 0..3 {
            let fac = fac.clone();
            sim.spawn(async move {
                fac.use_for(SimDuration::from_secs(1)).await;
            });
        }
        sim.run();
        // First acquisition is immediate (uncounted); the second waits 1 s,
        // the third 2 s.
        assert_eq!(fac.waits(), 2);
        assert_eq!(fac.total_wait(), SimDuration::from_secs(3));
        assert_eq!(fac.max_wait(), SimDuration::from_secs(2));
        let snap = fac.snapshot();
        assert_eq!(snap.waits, 2);
        assert!((snap.total_wait_s - 3.0).abs() < 1e-12);
        assert!((snap.max_wait_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wait_class_tags_are_descriptive() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "cpu", 1).with_wait_class(WaitClass::Cpu);
        assert_eq!(fac.wait_class(), WaitClass::Cpu);
        assert_eq!(WaitClass::Cpu.label(), "cpu");
        assert_eq!(WaitClass::LockShard(3).label(), "lock-shard-3");
        // Untagged facilities default to Other.
        assert_eq!(Facility::new(&env, "x", 1).wait_class(), WaitClass::Other);
    }

    #[test]
    fn reset_stats_clears_integrals() {
        let sim = Sim::new();
        let env = sim.env();
        let fac = Facility::new(&env, "cpu", 1);
        {
            let fac = fac.clone();
            sim.spawn(async move {
                fac.use_for(SimDuration::from_secs(1)).await;
            });
        }
        sim.run();
        fac.reset_stats();
        assert_eq!(fac.completions(), 0);
        // With no further activity utilisation stays 0 (elapsed time grows
        // but busy integral stays 0)... elapsed is measured from t=0, so we
        // just check the busy integral was cleared via completions+util==0.
        assert!(fac.utilization() <= 1.0);
    }
}
