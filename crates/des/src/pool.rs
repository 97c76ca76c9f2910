//! A pool of per-core CPU facilities behind one multi-server interface.
//!
//! The paper models the server CPU as `NumCPUs` identical FCFS servers.
//! A single multi-server [`Facility`] reproduces the queueing exactly but
//! hides which core ran what, so per-core utilisation cannot be reported.
//! [`CpuPool`] keeps one single-server [`Facility`] per core and routes
//! deterministically: an arriving request takes the **lowest-index idle
//! core**; if every core is busy it enters the pool's own FCFS overflow
//! queue and is handed the core that frees up, woken by exactly one
//! scheduled event at the release instant — the same single wake, at the
//! same execution point, as the multi-server facility's direct handover.
//! With `n` cores this is event-for-event identical to a `Facility` with
//! `n` servers (grant order, busy/queue integrals, wait accounting), which
//! is what keeps seeded runs byte-identical across the refactor.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::arena::WaitHandle;
use crate::facility::{Facility, FacilitySnapshot, WaitClass};
use crate::kernel::{Env, EventKind, ProcId};
use crate::time::{SimDuration, SimTime};

/// Wait-cell words for an overflow waiter: `QUEUED`, or `GRANT_BASE + k`
/// once core `k` (already seized on the waiter's behalf) was handed over.
/// A cancelled waiter has no word: its freed handle reads as stale.
const QUEUED: u32 = 0;
const GRANT_BASE: u32 = 1;

struct PoolWaiter {
    pid: ProcId,
    handle: WaitHandle,
    enqueued_at: SimTime,
}

struct PoolInner {
    name: String,
    queue: VecDeque<PoolWaiter>,
    stats_start: SimTime,
    last_change: SimTime,
    queue_integral: f64,
    waits: u64,
    total_wait: SimDuration,
    max_wait: SimDuration,
}

impl PoolInner {
    fn touch(&mut self, now: SimTime) {
        let dt = now.since(self.last_change).as_secs_f64();
        if dt > 0.0 {
            self.queue_integral += dt * self.queue.len() as f64;
        }
        self.last_change = now;
    }
}

/// What a [`CpuPool`] handle points at.
struct Shared {
    env: Env,
    cores: Vec<Facility>,
    inner: RefCell<PoolInner>,
}

/// An array of per-core CPU [`Facility`]s with least-index-idle routing
/// and an FCFS overflow queue. See the module docs for the equivalence
/// argument with a multi-server facility. A handle is one `Rc`: cloning
/// it is one reference-count bump.
#[derive(Clone)]
pub struct CpuPool {
    shared: Rc<Shared>,
}

impl CpuPool {
    /// A pool of `cores` single-server facilities named `<name>-<i>`,
    /// reported in aggregate under `name`.
    pub fn new(env: &Env, name: impl Into<String>, cores: u32, class: WaitClass) -> Self {
        assert!(cores > 0, "cpu pool needs at least one core");
        let name = name.into();
        let cores = (0..cores)
            .map(|i| Facility::new(env, format!("{name}-{i}"), 1).with_wait_class(class))
            .collect();
        CpuPool {
            shared: Rc::new(Shared {
                env: env.clone(),
                cores,
                inner: RefCell::new(PoolInner {
                    name,
                    queue: VecDeque::new(),
                    stats_start: env.now(),
                    last_change: env.now(),
                    queue_integral: 0.0,
                    waits: 0,
                    total_wait: SimDuration::ZERO,
                    max_wait: SimDuration::ZERO,
                }),
            }),
        }
    }

    /// Pool name (aggregate reporting).
    pub fn name(&self) -> String {
        self.shared.inner.borrow().name.clone()
    }

    /// Number of cores.
    pub fn servers(&self) -> u32 {
        self.shared.cores.len() as u32
    }

    /// The per-core facilities, in routing (index) order.
    pub fn cores(&self) -> &[Facility] {
        &self.shared.cores
    }

    /// Requests waiting in the overflow queue.
    pub fn queue_len(&self) -> usize {
        self.shared.inner.borrow().queue.len()
    }

    /// Acquire a core; resolves to an RAII guard that releases on drop.
    pub fn acquire(&self) -> PoolAcquire<'_> {
        PoolAcquire {
            pool: self,
            state: PoolState::Start,
        }
    }

    /// Acquire a core, hold it for `service`, release it.
    pub async fn use_for(&self, service: SimDuration) {
        let guard = self.acquire().await;
        self.shared.env.hold(service).await;
        drop(guard);
    }

    /// Mean utilisation across cores (equals the multi-server facility's
    /// per-server utilisation).
    pub fn utilization(&self) -> f64 {
        let n = self.shared.cores.len() as f64;
        self.shared
            .cores
            .iter()
            .map(|c| c.utilization())
            .sum::<f64>()
            / n
    }

    /// Time-averaged overflow-queue length. A pure read: the pending
    /// `[last_change, now]` segment is folded in without flushing, so
    /// observing (e.g. the time-series sampler) never changes what a later
    /// read reports.
    pub fn mean_queue_len(&self) -> f64 {
        let inner = self.shared.inner.borrow();
        let now = self.shared.env.now();
        let elapsed = now.since(inner.stats_start).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            let integral = inner.queue_integral
                + now.since(inner.last_change).as_secs_f64() * inner.queue.len() as f64;
            integral / elapsed
        }
    }

    /// Completed service periods, summed across cores.
    pub fn completions(&self) -> u64 {
        self.shared.cores.iter().map(|c| c.completions()).sum()
    }

    /// Acquisitions that had to queue.
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

    /// Aggregate snapshot under the pool name (the multi-server view).
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

    /// Per-core snapshots, in routing order.
    pub fn core_snapshots(&self) -> Vec<FacilitySnapshot> {
        self.shared.cores.iter().map(|c| c.snapshot()).collect()
    }

    /// Reset all statistics (end of warm-up), pool and cores.
    pub fn reset_stats(&self) {
        for c in self.shared.cores.iter() {
            c.reset_stats();
        }
        let mut inner = self.shared.inner.borrow_mut();
        inner.stats_start = self.shared.env.now();
        inner.last_change = self.shared.env.now();
        inner.queue_integral = 0.0;
        inner.waits = 0;
        inner.total_wait = SimDuration::ZERO;
        inner.max_wait = SimDuration::ZERO;
    }

    /// Release `core` (its facility hands it to a waiter queued on the
    /// core itself, if any), then hand it to the first live overflow
    /// waiter.
    fn release(&self, core: usize) {
        self.shared.cores[core].release_one();
        self.grant_next(core);
    }

    /// `core` is idle: hand it to the first live overflow waiter (exact
    /// FCFS, one wake at the release instant).
    fn grant_next(&self, core: usize) {
        let now = self.shared.env.now();
        let mut inner = self.shared.inner.borrow_mut();
        inner.touch(now);
        loop {
            let Some(w) = inner.queue.pop_front() else {
                return;
            };
            if self.shared.env.wait_word(w.handle) != Some(QUEUED) {
                // Stale handle: the waiter departed (cancelled). Skip.
                continue;
            }
            assert!(
                self.shared.cores[core].try_seize(),
                "core freed by the dropping guard"
            );
            let waited = now.since(w.enqueued_at.max(inner.stats_start));
            inner.waits += 1;
            inner.total_wait += waited;
            inner.max_wait = inner.max_wait.max(waited);
            self.shared
                .env
                .set_wait_word(w.handle, GRANT_BASE + core as u32);
            drop(inner);
            self.shared.env.schedule_wake(now, w.pid, EventKind::Pool);
            return;
        }
    }
}

/// Progress of a [`PoolAcquire`]. The future owns its wait cell while
/// parked and frees it exactly once (on grant consumption or in its
/// destructor).
enum PoolState {
    /// Not yet polled.
    Start,
    /// Parked in the overflow queue, owning a wait cell.
    Waiting(WaitHandle),
    /// Grant consumed (or immediate): nothing left to clean up.
    Done,
}

/// Future returned by [`CpuPool::acquire`]; borrows its pool.
pub struct PoolAcquire<'a> {
    pool: &'a CpuPool,
    state: PoolState,
}

impl<'a> Future for PoolAcquire<'a> {
    type Output = CpuGuard<'a>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<CpuGuard<'a>> {
        let pool = self.pool;
        let env = &pool.shared.env;
        match self.state {
            PoolState::Start => {
                // Least-index-idle routing.
                for (core, c) in pool.shared.cores.iter().enumerate() {
                    if c.try_seize() {
                        self.state = PoolState::Done;
                        return Poll::Ready(CpuGuard { pool, core });
                    }
                }
                // All cores busy: enter the overflow queue.
                let now = env.now();
                let mut inner = pool.shared.inner.borrow_mut();
                inner.touch(now);
                let handle = env.alloc_wait(QUEUED);
                inner.queue.push_back(PoolWaiter {
                    pid: env.current(),
                    handle,
                    enqueued_at: now,
                });
                drop(inner);
                self.state = PoolState::Waiting(handle);
                Poll::Pending
            }
            PoolState::Waiting(handle) => match env.wait_word(handle) {
                Some(QUEUED) => Poll::Pending,
                Some(word) => {
                    let core = (word - GRANT_BASE) as usize;
                    env.free_wait(handle);
                    self.state = PoolState::Done;
                    Poll::Ready(CpuGuard { pool, core })
                }
                None => unreachable!("wait cell freed while future still parked"),
            },
            PoolState::Done => unreachable!("acquire future polled after completion"),
        }
    }
}

impl Drop for PoolAcquire<'_> {
    fn drop(&mut self) {
        if let PoolState::Waiting(handle) = self.state {
            let env = &self.pool.shared.env;
            let word = env.wait_word(handle);
            // Freeing the cell turns our queue entry stale (= cancelled).
            env.free_wait(handle);
            if let Some(word) = word {
                if word >= GRANT_BASE {
                    // Dropped after handover but before the guard was taken:
                    // free the core and pass it on.
                    self.pool.release((word - GRANT_BASE) as usize);
                }
            }
        }
    }
}

/// RAII guard for one acquired core; borrows its pool. Dropping releases
/// the core and hands it to the next overflow waiter.
pub struct CpuGuard<'a> {
    pool: &'a CpuPool,
    core: usize,
}

impl CpuGuard<'_> {
    /// The core index this guard holds (for attribution / tests).
    pub fn core(&self) -> usize {
        self.core
    }

    /// Release explicitly (equivalent to dropping).
    pub fn release(self) {}
}

impl Drop for CpuGuard<'_> {
    fn drop(&mut self) {
        self.pool.release(self.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    /// The pool must reproduce a multi-server facility event-for-event:
    /// run the same arrival pattern through both and compare completion
    /// times, utilisation, queueing, and wait accounting.
    #[test]
    fn pool_matches_multi_server_facility() {
        let run_pool = |n: u32| {
            let sim = Sim::new();
            let env = sim.env();
            let pool = CpuPool::new(&env, "cpu", n, WaitClass::Cpu);
            let done: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..7u64 {
                let pool = pool.clone();
                let env = env.clone();
                let done = Rc::clone(&done);
                sim.spawn(async move {
                    env.hold(SimDuration::from_millis(i)).await;
                    pool.use_for(SimDuration::from_millis(10 + i)).await;
                    done.borrow_mut().push(env.now());
                });
            }
            sim.run();
            let snap = pool.snapshot();
            let times = done.borrow().clone();
            (times, snap)
        };
        let run_fac = |n: u32| {
            let sim = Sim::new();
            let env = sim.env();
            let fac = Facility::new(&env, "cpu", n);
            let done: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..7u64 {
                let fac = fac.clone();
                let env = env.clone();
                let done = Rc::clone(&done);
                sim.spawn(async move {
                    env.hold(SimDuration::from_millis(i)).await;
                    fac.use_for(SimDuration::from_millis(10 + i)).await;
                    done.borrow_mut().push(env.now());
                });
            }
            sim.run();
            let snap = fac.snapshot();
            let times = done.borrow().clone();
            (times, snap)
        };
        for n in [1u32, 2, 3] {
            let (pool_done, pool_snap) = run_pool(n);
            let (fac_done, fac_snap) = run_fac(n);
            assert_eq!(pool_done, fac_done, "{n}-core completion times");
            // Integrals are summed over different segment boundaries, so
            // allow float-associativity noise; counts stay exact.
            assert!((pool_snap.utilization - fac_snap.utilization).abs() < 1e-12);
            assert!((pool_snap.mean_queue_len - fac_snap.mean_queue_len).abs() < 1e-12);
            assert_eq!(pool_snap.completions, fac_snap.completions);
            assert_eq!(pool_snap.waits, fac_snap.waits);
            assert!((pool_snap.total_wait_s - fac_snap.total_wait_s).abs() < 1e-12);
            assert!((pool_snap.max_wait_s - fac_snap.max_wait_s).abs() < 1e-12);
        }
    }

    #[test]
    fn routing_is_least_index_idle() {
        let sim = Sim::new();
        let env = sim.env();
        let pool = CpuPool::new(&env, "cpu", 3, WaitClass::Cpu);
        let cores: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        {
            // Two overlapping holders, then a third after core 0 frees.
            let pool = pool.clone();
            let env = env.clone();
            let cores = Rc::clone(&cores);
            sim.spawn(async move {
                let g = pool.acquire().await;
                cores.borrow_mut().push(g.core());
                env.hold(SimDuration::from_millis(5)).await;
            });
        }
        {
            let pool = pool.clone();
            let env = env.clone();
            let cores = Rc::clone(&cores);
            sim.spawn(async move {
                let g = pool.acquire().await;
                cores.borrow_mut().push(g.core());
                env.hold(SimDuration::from_millis(20)).await;
            });
        }
        {
            let pool = pool.clone();
            let env = env.clone();
            let cores = Rc::clone(&cores);
            sim.spawn(async move {
                env.hold(SimDuration::from_millis(10)).await;
                let g = pool.acquire().await;
                cores.borrow_mut().push(g.core());
            });
        }
        sim.run();
        // First two take cores 0 and 1; at t=10ms core 0 is idle again and
        // core 1 still busy, so the third lands on core 0 (not 2).
        assert_eq!(*cores.borrow(), vec![0, 1, 0]);
        assert_eq!(pool.core_snapshots()[2].completions, 0);
    }

    #[test]
    fn per_core_snapshots_split_the_aggregate() {
        let sim = Sim::new();
        let env = sim.env();
        let pool = CpuPool::new(&env, "cpu", 2, WaitClass::Cpu);
        for _ in 0..4 {
            let pool = pool.clone();
            sim.spawn(async move {
                pool.use_for(SimDuration::from_secs(1)).await;
            });
        }
        sim.run();
        let per = pool.core_snapshots();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].name, "cpu-0");
        assert_eq!(per[1].name, "cpu-1");
        assert_eq!(
            per.iter().map(|s| s.completions).sum::<u64>(),
            pool.completions()
        );
        // Two waiters queued 1 s each in the pool's overflow queue.
        assert_eq!(pool.waits(), 2);
        assert_eq!(pool.total_wait(), SimDuration::from_secs(2));
    }
}
