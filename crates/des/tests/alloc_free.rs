//! The kernel's steady-state paths allocate nothing.
//!
//! A counting global allocator (legal here: an integration test is its own
//! binary) tallies heap allocations per thread. Each case runs a loop in a
//! simulation process, lets it warm up (slabs, wait cells, calendar and
//! queue buffers reach their working size), then counts the allocations
//! made by everything the kernel dispatches over the next `STEADY`
//! iterations. Only spawning a process may allocate, and exactly once:
//! the boxed future.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use ccdb_des::{CpuPool, Env, Facility, Mailbox, Sim, SimDuration, WaitClass};

/// Forwards to the system allocator, counting allocations on the calling
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim (see the impl's comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARMUP: u32 = 200;
const STEADY: u32 = 2_000;

/// Run `step` `WARMUP + STEADY` times in one process of `sim` (after the
/// processes already spawned there) and return the allocations made by
/// the whole simulation during the last `STEADY` iterations.
fn steady_allocs<F, Fut>(sim: &Sim, mut step: F) -> u64
where
    F: FnMut(Env) -> Fut + 'static,
    Fut: std::future::Future<Output = ()>,
{
    let counted = Rc::new(Cell::new(u64::MAX));
    {
        let (env, counted) = (sim.env(), Rc::clone(&counted));
        sim.spawn(async move {
            for _ in 0..WARMUP {
                step(env.clone()).await;
            }
            let before = allocs();
            for _ in 0..STEADY {
                step(env.clone()).await;
            }
            counted.set(allocs() - before);
        });
    }
    sim.run();
    assert_ne!(counted.get(), u64::MAX, "the measuring loop finished");
    counted.get()
}

/// A background process that runs `body` `rounds` times, keeping a resource
/// contended while the measuring loop runs.
fn keep_busy<Fut: std::future::Future<Output = ()> + 'static>(
    sim: &Sim,
    rounds: u32,
    mut body: impl FnMut() -> Fut + 'static,
) {
    sim.spawn(async move {
        for _ in 0..rounds {
            body().await;
        }
    });
}

#[test]
fn hold_allocates_nothing() {
    let sim = Sim::new();
    let n = steady_allocs(&sim, |env| async move {
        env.hold(SimDuration::from_nanos(3)).await;
        env.hold(SimDuration::ZERO).await;
    });
    assert_eq!(n, 0);
}

#[test]
fn contended_facility_allocates_nothing() {
    let sim = Sim::new();
    let fac = Facility::new(&sim.env(), "disk", 1);
    for _ in 0..3 {
        let fac = fac.clone();
        keep_busy(&sim, 4 * (WARMUP + STEADY), move || {
            let fac = fac.clone();
            async move { fac.use_for(SimDuration::from_nanos(5)).await }
        });
    }
    let n = steady_allocs(&sim, move |_| {
        let fac = fac.clone();
        async move { fac.use_for(SimDuration::from_nanos(5)).await }
    });
    assert_eq!(n, 0);
}

#[test]
fn cpu_pool_overflow_allocates_nothing() {
    let sim = Sim::new();
    let pool = CpuPool::new(&sim.env(), "cpu", 2, WaitClass::Cpu);
    for _ in 0..4 {
        let pool = pool.clone();
        keep_busy(&sim, 4 * (WARMUP + STEADY), move || {
            let pool = pool.clone();
            async move { pool.use_for(SimDuration::from_nanos(7)).await }
        });
    }
    let probe = pool.clone();
    let n = steady_allocs(&sim, move |_| {
        let pool = pool.clone();
        async move { pool.use_for(SimDuration::from_nanos(7)).await }
    });
    assert_eq!(n, 0);
    assert!(
        probe.waits() > u64::from(STEADY),
        "the overflow queue was used"
    );
}

#[test]
fn mailbox_send_recv_and_recv_until_allocate_nothing() {
    let sim = Sim::new();
    let env = sim.env();
    let (ping, pong) = (Mailbox::<u64>::new(&env), Mailbox::<u64>::new(&env));
    {
        // Echo every ping, with a deadline that sometimes catches the
        // ping and sometimes times out first.
        let (env, ping, pong) = (env.clone(), ping.clone(), pong.clone());
        sim.spawn(async move {
            let mut echoed = 0;
            while echoed < WARMUP + STEADY {
                let deadline = env.now() + SimDuration::from_nanos(4);
                if let Some(m) = ping.recv_until(deadline).await {
                    pong.send(m);
                    echoed += 1;
                }
            }
        });
    }
    let sent = Rc::new(Cell::new(0u64));
    let n = {
        let (ping, pong, sent) = (ping.clone(), pong.clone(), Rc::clone(&sent));
        steady_allocs(&sim, move |env| {
            let (ping, pong, sent) = (ping.clone(), pong.clone(), Rc::clone(&sent));
            async move {
                let i = sent.get();
                sent.set(i + 1);
                env.hold(SimDuration::from_nanos(i % 7)).await;
                ping.send(i);
                assert_eq!(pong.recv().await, i);
            }
        })
    };
    assert_eq!(n, 0);
}

#[test]
fn service_and_hop_allocate_nothing() {
    let sim = Sim::new();
    let n = steady_allocs(&sim, |env| async move {
        let doubled = env.service(|now| now.as_nanos() * 2).await;
        assert_eq!(doubled, env.now().as_nanos() * 2);
        env.hop().await;
        env.hold(SimDuration::from_nanos(1)).await;
    });
    assert_eq!(n, 0);
}

#[test]
fn spawn_allocates_exactly_its_box() {
    let sim = Sim::new();
    let ran = Rc::new(Cell::new(0u32));
    let n = {
        let ran = Rc::clone(&ran);
        steady_allocs(&sim, move |env| {
            let ran = Rc::clone(&ran);
            async move {
                // A future with state, so its box is a real allocation.
                env.spawn(async move { ran.set(ran.get() + 1) });
                env.hold(SimDuration::ZERO).await;
            }
        })
    };
    assert_eq!(n, u64::from(STEADY));
    assert_eq!(ran.get(), WARMUP + STEADY);
}
