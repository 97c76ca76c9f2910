//! The simulation executor.
//!
//! A simulation is a set of cooperatively-scheduled *processes* (plain Rust
//! futures) driven by a single event calendar. A process suspends by awaiting
//! one of the kernel's primitive futures ([`Env::hold`], facility acquisition,
//! mailbox receive, one-shot waits); the kernel resumes it when the
//! corresponding simulated event fires.
//!
//! Determinism: all events are ordered by `(time, sequence-number)` where the
//! sequence number is a global monotonic counter, so simultaneous events fire
//! in the order they were scheduled. Given the same seed and the same spawn
//! order, a simulation run is bit-for-bit reproducible.
//!
//! # Split-borrow layout
//!
//! Kernel state is not one `RefCell<Kernel>`: [`KernelShared`] splits it into
//! independently borrowable components — `Cell`s for the clock, sequence
//! counter and current-process register, and separate `RefCell`s for the
//! calendar, the process arena and the wait-cell arena. A primitive that
//! parks a waiter touches only the wait arena and the calendar; reading the
//! clock is a `Cell` load. No code path ever holds the "whole kernel"
//! across a user poll, so a process may freely call back into the kernel
//! through its [`Env`].

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::arena::{Slab, SlabId, WaitArena, WaitHandle};
use crate::calendar::{Calendar, Entry};
use crate::time::{SimDuration, SimTime};

/// Identifies a spawned process. Includes a generation counter so that a
/// stale id left in a wait queue can never resume an unrelated process that
/// happens to reuse the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl ProcId {
    #[inline]
    fn slab_id(self) -> SlabId {
        SlabId {
            slot: self.slot,
            generation: self.generation,
        }
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}.{}", self.slot, self.generation)
    }
}

pub(crate) type ProcFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Which primitive scheduled a calendar event. Purely diagnostic — the
/// kernel's self-profiler attributes dispatch counts and wall-clock time
/// per kind; scheduling order never depends on it (the calendar orders on
/// `(time, seq)` alone; see `calendar.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// First wake of a freshly spawned process.
    Spawn,
    /// Timer expiry scheduled by [`Env::hold`] / [`Env::hold_until`].
    Hold,
    /// A facility server handed to a queued waiter.
    Facility,
    /// A CPU-pool core handed to an overflow waiter.
    Pool,
    /// A mailbox message waking a parked receiver.
    Mailbox,
    /// A mailbox receive-deadline timer.
    Timer,
    /// A gate opening (broadcast wake).
    Gate,
    /// A semaphore permit handed to a waiter.
    Semaphore,
    /// A one-shot signal firing.
    Oneshot,
    /// A service hop ([`Env::hop`], [`Env::service`]) resuming its
    /// process at its own same-instant slot.
    Task,
}

impl EventKind {
    /// Every kind, in reporting order.
    pub const ALL: [EventKind; 10] = [
        EventKind::Spawn,
        EventKind::Hold,
        EventKind::Facility,
        EventKind::Pool,
        EventKind::Mailbox,
        EventKind::Timer,
        EventKind::Gate,
        EventKind::Semaphore,
        EventKind::Oneshot,
        EventKind::Task,
    ];

    /// Stable label used in profiles and bench reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Spawn => "spawn",
            EventKind::Hold => "hold",
            EventKind::Facility => "facility",
            EventKind::Pool => "pool",
            EventKind::Mailbox => "mailbox",
            EventKind::Timer => "timer",
            EventKind::Gate => "gate",
            EventKind::Semaphore => "semaphore",
            EventKind::Oneshot => "oneshot",
            EventKind::Task => "task",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Per-event-kind dispatch counts and wall-clock polling time, gathered
/// when [`Sim::enable_profiling`] was called before running.
///
/// The **counts** are a pure function of the simulation (exact and
/// reproducible); the **nanoseconds** are host wall-clock time and must
/// never feed a deterministic report — they exist for `ccdb bench`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelProfile {
    pub(crate) counts: [u64; EventKind::ALL.len()],
    pub(crate) nanos: [u64; EventKind::ALL.len()],
}

impl KernelProfile {
    /// Dispatches of `kind`.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Wall-clock nanoseconds spent polling processes woken by `kind`.
    pub fn nanos(&self, kind: EventKind) -> u64 {
        self.nanos[kind.index()]
    }

    /// Total dispatches across all kinds.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total wall-clock nanoseconds across all kinds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// The split-borrow kernel state shared by [`Sim`] and every [`Env`].
///
/// Scalar registers are `Cell`s (a clock read never conflicts with anything)
/// and each component gets its own `RefCell`, so borrows are narrow and
/// disjoint: scheduling a wake borrows only the calendar, parking a waiter
/// only the wait arena, polling a process only the process arena — and none
/// of them is held across a user future's `poll`.
pub(crate) struct KernelShared {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    /// Process currently being polled; primitive futures read this to learn
    /// which process to park.
    current: Cell<Option<ProcId>>,
    /// Sequence number of the calendar entry being dispatched, so a
    /// [`Hop`] can tell its own slot from any other wake of its process.
    dispatching: Cell<u64>,
    events_processed: Cell<u64>,
    /// Self-profiling switch; checked once per `run_until`, not per event.
    profiling: Cell<bool>,
    calendar: RefCell<Calendar>,
    procs: RefCell<Slab<ProcFuture>>,
    waits: RefCell<WaitArena>,
    profile: RefCell<KernelProfile>,
}

impl KernelShared {
    fn new() -> Self {
        KernelShared {
            now: Cell::new(SimTime::ZERO),
            seq: Cell::new(0),
            current: Cell::new(None),
            dispatching: Cell::new(u64::MAX),
            events_processed: Cell::new(0),
            profiling: Cell::new(false),
            calendar: RefCell::new(Calendar::new()),
            procs: RefCell::new(Slab::new()),
            waits: RefCell::new(WaitArena::new()),
            profile: RefCell::new(KernelProfile::default()),
        }
    }

    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    #[inline]
    fn count_event(&self) {
        self.events_processed.set(self.events_processed.get() + 1);
    }

    #[inline]
    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Schedule a wake of `proc` and return its sequence number; borrows
    /// only the calendar. A wake due now joins the calendar's same-instant
    /// lane, any later one its heap.
    pub(crate) fn schedule(&self, at: SimTime, proc: ProcId, kind: EventKind) -> u64 {
        debug_assert!(at >= self.now.get(), "cannot schedule a wake in the past");
        let seq = self.next_seq();
        self.calendar
            .borrow_mut()
            .push(Entry::new(at, seq, proc, kind), self.now.get());
        seq
    }

    /// Advance the clock to `deadline` when the calendar ran dry first.
    fn finish_at_deadline(&self, deadline: SimTime) {
        if deadline != SimTime::MAX && deadline > self.now.get() {
            self.now.set(deadline);
        }
    }

    fn record_profile(&self, kind: EventKind, nanos: u64) {
        let mut p = self.profile.borrow_mut();
        let ix = kind.index();
        p.counts[ix] += 1;
        p.nanos[ix] += nanos;
    }
}

/// A no-op waker: the kernel resumes processes through its own calendar, so
/// futures never need the standard waker mechanism.
fn noop_waker() -> Waker {
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        |_| RawWaker::new(std::ptr::null(), &VTABLE),
        |_| {},
        |_| {},
        |_| {},
    );
    // SAFETY: the vtable functions never dereference the data pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

/// Owns a simulation. Spawn processes, then [`Sim::run`] (or
/// [`Sim::run_until`]) to execute them.
pub struct Sim {
    pub(crate) shared: Rc<KernelShared>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at time zero.
    pub fn new() -> Self {
        Sim {
            shared: Rc::new(KernelShared::new()),
        }
    }

    /// A cloneable handle for use inside processes.
    pub fn env(&self) -> Env {
        Env {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Spawn a process; it first runs at the current simulation time, after
    /// already-scheduled same-time events.
    pub fn spawn<F: Future<Output = ()> + 'static>(&self, fut: F) -> ProcId {
        self.env().spawn(fut)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Number of calendar events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.shared.events_processed.get()
    }

    /// Number of live (unfinished) processes.
    pub fn live_processes(&self) -> usize {
        self.shared.procs.borrow().live()
    }

    /// Run until the calendar is empty.
    pub fn run(&self) {
        self.run_until(SimTime::MAX);
    }

    /// Turn on kernel self-profiling: every subsequent dispatch is counted
    /// per [`EventKind`] and its process poll timed with the host clock.
    /// Off by default; the off path is the exact pre-profiling loop (the
    /// flag is checked once per `run_until`, not once per event).
    pub fn enable_profiling(&self) {
        self.shared.profiling.set(true);
    }

    /// The self-profile gathered so far (all zeros unless
    /// [`Sim::enable_profiling`] was called before running).
    pub fn profile(&self) -> KernelProfile {
        self.shared.profile.borrow().clone()
    }

    /// Run until the first event strictly after `deadline`, leaving `now` at
    /// `deadline` (or at the last event time if the calendar empties first
    /// and that is later — it cannot be).
    pub fn run_until(&self, deadline: SimTime) {
        // Monomorphized on the profiling flag so the off path carries no
        // clock reads or profile stores at all.
        if self.shared.profiling.get() {
            self.run_loop::<true>(deadline);
        } else {
            self.run_loop::<false>(deadline);
        }
    }

    fn run_loop<const PROFILE: bool>(&self, deadline: SimTime) {
        // One clock read per event, not two: the end of event N's window is
        // the start of event N+1's, so each kind is charged its dispatch
        // plus the following calendar pop. Total profiled nanos therefore
        // cover the whole loop, and the measurement overhead is half of
        // what bracketing every dispatch would cost.
        let mut last = if PROFILE {
            Some(std::time::Instant::now())
        } else {
            None
        };
        loop {
            let next = self.shared.calendar.borrow_mut().pop_due(deadline);
            let Some(e) = next else {
                self.shared.finish_at_deadline(deadline);
                break;
            };
            self.shared.now.set(e.time());
            self.shared.dispatching.set(e.seq());
            self.shared.count_event();
            self.poll_process(e.proc);
            if PROFILE {
                let now = std::time::Instant::now();
                let spent = now.duration_since(last.unwrap_or(now)).as_nanos() as u64;
                self.shared.record_profile(e.kind, spent);
                last = Some(now);
            }
        }
    }

    fn poll_process(&self, id: ProcId) {
        // Move the future out so the process arena is not borrowed during
        // the poll (the future will call back into the kernel through its
        // Env — but only ever into *other* components).
        let Some(mut fut) = self.shared.procs.borrow_mut().take(id.slab_id()) else {
            // Stale wake for a finished process (or a re-entrant wake for
            // one already being polled): skip.
            return;
        };
        self.shared.current.set(Some(id));
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let poll = fut.as_mut().poll(&mut cx);
        self.shared.current.set(None);
        match poll {
            Poll::Ready(()) => {
                self.shared.procs.borrow_mut().retire(id.slab_id());
                // `fut` drops here, after the arena borrow is released: its
                // destructors may re-enter the calendar or wait arena.
                drop(fut);
            }
            Poll::Pending => self.shared.procs.borrow_mut().restore(id.slab_id(), fut),
        }
    }
}

impl Drop for Sim {
    /// Free the simulated world. Parked processes hold [`Env`] clones,
    /// i.e. strong references to the kernel that owns them, so without
    /// this the kernel and everything they own would leak as a cycle.
    /// Their destructors may re-enter the kernel (a dropped
    /// [`crate::FacilityGuard`] hands its server on, a dropped future may
    /// spawn), so the process slab is moved out and dropped with no borrow
    /// held, until it no longer refills.
    fn drop(&mut self) {
        loop {
            let procs = std::mem::replace(&mut *self.shared.procs.borrow_mut(), Slab::new());
            if procs.live() == 0 {
                break;
            }
            drop(procs);
        }
    }
}

/// Cloneable handle to the simulation, usable from inside processes.
#[derive(Clone)]
pub struct Env {
    pub(crate) shared: Rc<KernelShared>,
}

impl Env {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Spawn a new process; it first runs at the current time, after events
    /// already scheduled for this instant.
    pub fn spawn<F: Future<Output = ()> + 'static>(&self, fut: F) -> ProcId {
        let slab_id = self.shared.procs.borrow_mut().insert(Box::pin(fut));
        let id = ProcId {
            slot: slab_id.slot,
            generation: slab_id.generation,
        };
        self.shared
            .schedule(self.shared.now(), id, EventKind::Spawn);
        id
    }

    /// A *service hop*: reschedule the calling process at the **current
    /// instant**, in its own calendar slot after everything already due
    /// now, and resume it there. Costs zero simulated time and allocates
    /// nothing; the slot is dispatched as [`EventKind::Task`].
    ///
    /// A hop exists for its calendar position alone: it fixes the
    /// `(time, seq)` interleaving of what the process does next with the
    /// other same-instant events. Only the hop's own slot resumes it;
    /// any other wake of the process while it hops is ignored.
    pub fn hop(&self) -> Hop<'_> {
        Hop {
            env: self,
            seq: None,
        }
    }

    /// Hop, run `compute` at the hop's slot, then hop again and yield its
    /// output: two same-instant slots, zero simulated time, so a blocking
    /// caller can make its variate draws at service slots without
    /// perturbing its own timing or wait attribution. The model's draws
    /// here (disk seeks) each come from an RNG stream split at submission,
    /// so a draw never depends on where its slot falls.
    pub async fn service<O>(&self, compute: impl FnOnce(SimTime) -> O) -> O {
        self.hop().await;
        let out = compute(self.now());
        self.hop().await;
        out
    }

    /// Suspend the calling process for `d` simulated time.
    pub fn hold(&self, d: SimDuration) -> Hold<'_> {
        Hold {
            env: self,
            duration: d,
            wake_at: None,
        }
    }

    /// Suspend the calling process until absolute time `at`. If `at` is in
    /// the past, resumes at the current time (still yields once).
    pub fn hold_until(&self, at: SimTime) -> Hold<'_> {
        let now = self.now();
        let d = at.since(now);
        self.hold(d)
    }

    pub(crate) fn schedule_wake(&self, at: SimTime, id: ProcId, kind: EventKind) {
        self.shared.schedule(at, id, kind);
    }

    pub(crate) fn current(&self) -> ProcId {
        self.shared
            .current
            .get()
            .expect("kernel primitive polled outside of a simulation process")
    }

    /// Allocate a wait cell initialized to `word` (allocation-free after
    /// warmup: cells are recycled).
    pub(crate) fn alloc_wait(&self, word: u32) -> WaitHandle {
        self.shared.waits.borrow_mut().alloc(word)
    }

    /// Read a wait cell; `None` once the owning future freed it.
    pub(crate) fn wait_word(&self, h: WaitHandle) -> Option<u32> {
        self.shared.waits.borrow().get(h)
    }

    /// Write a wait cell; `false` once the owning future freed it.
    pub(crate) fn set_wait_word(&self, h: WaitHandle, word: u32) -> bool {
        self.shared.waits.borrow_mut().set(h, word)
    }

    /// Free a wait cell. Only the owning future may call this, exactly once.
    pub(crate) fn free_wait(&self, h: WaitHandle) {
        self.shared.waits.borrow_mut().free(h);
    }
}

/// Future returned by [`Env::hop`].
pub struct Hop<'a> {
    env: &'a Env,
    /// Sequence number of the hop's own slot, once scheduled.
    seq: Option<u64>,
}

impl Future for Hop<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        match self.seq {
            None => {
                let shared = &self.env.shared;
                let id = self.env.current();
                self.seq = Some(shared.schedule(shared.now(), id, EventKind::Task));
                Poll::Pending
            }
            Some(seq) if self.env.shared.dispatching.get() == seq => Poll::Ready(()),
            // Some other wake of this process (a stale timer, say).
            Some(_) => Poll::Pending,
        }
    }
}

/// Future returned by [`Env::hold`].
pub struct Hold<'a> {
    env: &'a Env,
    duration: SimDuration,
    wake_at: Option<SimTime>,
}

impl Future for Hold<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        match self.wake_at {
            None => {
                let at = self.env.now() + self.duration;
                let id = self.env.current();
                self.env.schedule_wake(at, id, EventKind::Hold);
                self.wake_at = Some(at);
                Poll::Pending
            }
            Some(at) => {
                if self.env.now() >= at {
                    Poll::Ready(())
                } else {
                    // Spurious wake (e.g. shared wake target); keep waiting.
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn empty_sim_runs() {
        let sim = Sim::new();
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn hold_advances_time() {
        let sim = Sim::new();
        let env = sim.env();
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            env.hold(SimDuration::from_millis(5)).await;
            env.hold(SimDuration::from_millis(7)).await;
            done2.set(env.now());
        });
        sim.run();
        assert_eq!(done.get(), SimTime::from_nanos(12_000_000));
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn simultaneous_events_fire_in_spawn_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let env = sim.env();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                env.hold(SimDuration::from_millis(1)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let env = sim.env();
        let fired = Rc::new(Cell::new(false));
        let fired2 = Rc::clone(&fired);
        sim.spawn(async move {
            env.hold(SimDuration::from_secs(10)).await;
            fired2.set(true);
        });
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000_000));
        assert_eq!(sim.live_processes(), 1);
        sim.run();
        assert!(fired.get());
    }

    #[test]
    fn nested_spawn_runs_at_same_time() {
        let sim = Sim::new();
        let env = sim.env();
        let log = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        sim.spawn(async move {
            env.hold(SimDuration::from_millis(3)).await;
            let inner_env = env.clone();
            let log3 = Rc::clone(&log2);
            env.spawn(async move {
                log3.borrow_mut().push(("child", inner_env.now()));
            });
            log2.borrow_mut().push(("parent", env.now()));
            env.hold(SimDuration::from_millis(1)).await;
        });
        sim.run();
        let log = log.borrow();
        assert_eq!(log[0], ("parent", SimTime::from_nanos(3_000_000)));
        assert_eq!(log[1], ("child", SimTime::from_nanos(3_000_000)));
    }

    #[test]
    fn hold_until_past_does_not_go_backwards() {
        let sim = Sim::new();
        let env = sim.env();
        let t = Rc::new(Cell::new(SimTime::ZERO));
        let t2 = Rc::clone(&t);
        sim.spawn(async move {
            env.hold(SimDuration::from_secs(1)).await;
            env.hold_until(SimTime::ZERO).await; // already in the past
            t2.set(env.now());
        });
        sim.run();
        assert_eq!(t.get(), SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn process_slots_are_reused_without_confusion() {
        let sim = Sim::new();
        // Spawn waves of short-lived processes to force slot reuse.
        for wave in 0..5u64 {
            let env = sim.env();
            sim.spawn(async move {
                env.hold(SimDuration::from_millis(wave)).await;
            });
        }
        sim.run();
        assert_eq!(sim.live_processes(), 0);
        // And a second generation in reused slots still completes.
        let env = sim.env();
        let ok = Rc::new(Cell::new(false));
        let ok2 = Rc::clone(&ok);
        sim.spawn(async move {
            env.hold(SimDuration::from_millis(1)).await;
            ok2.set(true);
        });
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn events_processed_counts() {
        let sim = Sim::new();
        let env = sim.env();
        sim.spawn(async move {
            for _ in 0..4 {
                env.hold(SimDuration::from_millis(1)).await;
            }
        });
        sim.run();
        // 1 spawn wake + 4 hold wakes.
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn profiling_counts_dispatches_per_kind() {
        let sim = Sim::new();
        sim.enable_profiling();
        let env = sim.env();
        sim.spawn(async move {
            for _ in 0..4 {
                env.hold(SimDuration::from_millis(1)).await;
            }
        });
        sim.run();
        let p = sim.profile();
        assert_eq!(p.count(EventKind::Spawn), 1);
        assert_eq!(p.count(EventKind::Hold), 4);
        assert_eq!(p.count(EventKind::Facility), 0);
        assert_eq!(p.total_events(), sim.events_processed());
    }

    #[test]
    fn profiling_off_gathers_nothing() {
        let sim = Sim::new();
        let env = sim.env();
        sim.spawn(async move {
            env.hold(SimDuration::from_millis(1)).await;
        });
        sim.run();
        let p = sim.profile();
        assert_eq!(p.total_events(), 0);
        assert_eq!(p.total_nanos(), 0);
    }

    #[test]
    fn profiling_does_not_change_the_simulation() {
        let run = |profile: bool| {
            let sim = Sim::new();
            if profile {
                sim.enable_profiling();
            }
            let env = sim.env();
            sim.spawn(async move {
                for _ in 0..3 {
                    env.hold(SimDuration::from_millis(2)).await;
                }
            });
            sim.run();
            (sim.now(), sim.events_processed())
        };
        assert_eq!(run(false), run(true));
    }

    /// The awaitable service round trip costs zero simulated time: two
    /// hop slots at the current instant, both dispatched as `Task`.
    #[test]
    fn env_service_round_trip_is_instant() {
        let sim = Sim::new();
        sim.enable_profiling();
        let env = sim.env();
        let got = Rc::new(Cell::new((SimTime::MAX, 0u64)));
        {
            let got = Rc::clone(&got);
            sim.spawn(async move {
                env.hold(SimDuration::from_millis(7)).await;
                let out = env.service(|now| now.as_nanos() * 2).await;
                got.set((env.now(), out));
            });
        }
        sim.run();
        assert_eq!(got.get(), (SimTime::from_nanos(7_000_000), 14_000_000));
        assert_eq!(sim.profile().count(EventKind::Task), 2);
        assert_eq!(sim.events_processed(), 4);
    }

    /// Each hop takes its own calendar slot at the current instant, so
    /// same-instant hops and spawns run in seq order: a hop scheduled at a
    /// spawn's dispatch runs after every spawn already due, and what a hop
    /// spawns runs after every hop already due.
    #[test]
    fn same_instant_services_and_processes_run_in_seq_order() {
        let sim = Sim::new();
        sim.enable_profiling();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let (env, log2) = (sim.env(), Rc::clone(&log));
            sim.spawn(async move {
                log2.borrow_mut().push(format!("svc{i}"));
                env.hop().await;
                log2.borrow_mut().push(format!("hop{i}"));
                // A hopping process may spawn; the child takes the next slot.
                let log3 = Rc::clone(&log2);
                env.spawn(async move { log3.borrow_mut().push(format!("child{i}")) });
            });
            let log2 = Rc::clone(&log);
            sim.spawn(async move { log2.borrow_mut().push(format!("proc{i}")) });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            [
                "svc0", "proc0", "svc1", "proc1", "svc2", "proc2", "hop0", "hop1", "hop2",
                "child0", "child1", "child2"
            ]
        );
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.profile().count(EventKind::Task), 3);
        assert_eq!(sim.profile().count(EventKind::Spawn), 9);
    }

    /// Holds scheduled at t=0 to expire at t=5 sit on the heap; what the
    /// first of them schedules *at* t=5 (a spawn, a service hop, a zero
    /// hold) joins the same-instant lane. The heap entries carry the
    /// smaller seqs, so both remaining holds fire before any lane entry,
    /// and the lane entries then fire in seq order.
    #[test]
    fn holds_due_now_fire_before_same_instant_wakes() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let t5 = SimTime::from_nanos(5);
        {
            let (env, log) = (sim.env(), Rc::clone(&log));
            sim.spawn(async move {
                env.hold(SimDuration::from_nanos(5)).await;
                log.borrow_mut().push(("first", env.now()));
                let log2 = Rc::clone(&log);
                let env2 = env.clone();
                env.spawn(async move { log2.borrow_mut().push(("child", env2.now())) });
                env.service(|now| log.borrow_mut().push(("service", now)))
                    .await;
                env.hold(SimDuration::ZERO).await;
                log.borrow_mut().push(("zero-hold", env.now()));
            });
        }
        for name in ["second", "third"] {
            let (env, log) = (sim.env(), Rc::clone(&log));
            sim.spawn(async move {
                env.hold(SimDuration::from_nanos(5)).await;
                log.borrow_mut().push((name, env.now()));
            });
        }
        sim.run();
        let want: Vec<_> = ["first", "second", "third", "child", "service", "zero-hold"]
            .into_iter()
            .map(|name| (name, t5))
            .collect();
        assert_eq!(*log.borrow(), want);
    }

    /// A hop resumes only at its own slot. Here a receive deadline's timer
    /// wakes the process one slot before its hold's own wake, so that
    /// stale hold wake arrives while the process hops; it must not cut
    /// the hop short ahead of the marker spawned just before it.
    #[test]
    fn a_hop_ignores_other_wakes_of_its_process() {
        let sim = Sim::new();
        let env = sim.env();
        let mb = crate::Mailbox::<u32>::new(&env);
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let (env, mb, log) = (env.clone(), mb.clone(), Rc::clone(&log));
            sim.spawn(async move {
                let t5 = SimTime::from_nanos(5);
                assert_eq!(mb.recv_until(t5).await, Some(1));
                env.hold_until(t5).await;
                let log2 = Rc::clone(&log);
                env.spawn(async move { log2.borrow_mut().push("marker") });
                env.hop().await;
                log.borrow_mut().push("hopped");
            });
        }
        {
            let (env, mb) = (env.clone(), mb.clone());
            sim.spawn(async move {
                env.hold(SimDuration::from_nanos(1)).await;
                mb.send(1);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), ["marker", "hopped"]);
    }

    /// Sets its flag when dropped.
    struct Sentinel(Rc<Cell<bool>>);

    impl Drop for Sentinel {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    /// Parked processes hold `Env` clones; dropping the `Sim` must still
    /// free them (and whatever they own).
    #[test]
    fn dropping_the_sim_frees_parked_processes() {
        let sim = Sim::new();
        let env = sim.env();
        let proc_dropped = Rc::new(Cell::new(false));
        {
            let sentinel = Sentinel(Rc::clone(&proc_dropped));
            let env = env.clone();
            sim.spawn(async move {
                let _sentinel = sentinel;
                env.hold(SimDuration::from_secs(10)).await;
            });
        }
        sim.run_until(SimTime::from_nanos(1));
        assert_eq!(sim.live_processes(), 1, "the process is parked");
        drop(env);
        drop(sim);
        assert!(proc_dropped.get(), "parked process leaked");
    }
}
