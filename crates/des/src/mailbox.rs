//! FIFO message queues between processes.
//!
//! A [`Mailbox`] is an unbounded queue: sends never block, receives suspend
//! the caller until a message arrives. Used for client inboxes and the server
//! request queue of the simulated DBMS.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::arena::WaitHandle;
use crate::kernel::{Env, EventKind, ProcId};
use crate::time::SimTime;

/// Wait-cell words for a parked receiver. A woken (or superseded) waiter's
/// cell reads `IDLE`; a departed receiver's handle is stale.
const IDLE: u32 = 0;
const ACTIVE: u32 = 1;

struct RecvWaiter {
    pid: ProcId,
    handle: WaitHandle,
}

struct Inner<T> {
    queue: VecDeque<T>,
    waiters: VecDeque<RecvWaiter>,
    total_sent: u64,
}

/// What a [`Mailbox`] handle points at.
struct Shared<T> {
    env: Env,
    inner: RefCell<Inner<T>>,
}

/// An unbounded FIFO channel for simulation messages. A handle is one
/// `Rc`: cloning it is one reference-count bump.
pub struct Mailbox<T> {
    shared: Rc<Shared<T>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T> Mailbox<T> {
    /// Create an empty mailbox.
    pub fn new(env: &Env) -> Self {
        Mailbox {
            shared: Rc::new(Shared {
                env: env.clone(),
                inner: RefCell::new(Inner {
                    queue: VecDeque::new(),
                    waiters: VecDeque::new(),
                    total_sent: 0,
                }),
            }),
        }
    }

    /// Deposit a message. Never blocks. If a process is waiting, it is
    /// resumed at the current simulation time.
    pub fn send(&self, msg: T) {
        let env = &self.shared.env;
        let mut inner = self.shared.inner.borrow_mut();
        inner.queue.push_back(msg);
        inner.total_sent += 1;
        // Wake the frontmost live waiter (one message wakes one receiver).
        // The waiter leaves the queue now; clearing its cell makes it
        // re-register if some other process takes the message first.
        while let Some(w) = inner.waiters.pop_front() {
            if env.wait_word(w.handle) == Some(ACTIVE) {
                env.set_wait_word(w.handle, IDLE);
                let pid = w.pid;
                drop(inner);
                env.schedule_wake(env.now(), pid, EventKind::Mailbox);
                return;
            }
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.inner.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.shared.inner.borrow().queue.is_empty()
    }

    /// Total messages ever sent.
    pub fn total_sent(&self) -> u64 {
        self.shared.inner.borrow().total_sent
    }

    /// Take a message if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.inner.borrow_mut().queue.pop_front()
    }

    /// Suspend until a message is available, then take it.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv {
            mailbox: self,
            waiter: None,
        }
    }

    /// Suspend until a message is available or until absolute time
    /// `deadline`. Resolves to `Some(msg)` or `None` on timeout.
    pub fn recv_until(&self, deadline: SimTime) -> RecvUntil<'_, T> {
        RecvUntil {
            mailbox: self,
            deadline,
            waiter: None,
            timer_set: false,
        }
    }
}

/// Future returned by [`Mailbox::recv`]; borrows its mailbox.
pub struct Recv<'a, T> {
    mailbox: &'a Mailbox<T>,
    waiter: Option<WaitHandle>,
}

impl<T> Future for Recv<'_, T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let shared = &self.mailbox.shared;
        let env = &shared.env;
        let msg = shared.inner.borrow_mut().queue.pop_front();
        if let Some(msg) = msg {
            if let Some(h) = self.waiter.take() {
                env.free_wait(h);
            }
            return Poll::Ready(msg);
        }
        // (Re-)register as a waiter. The cell is allocated once and reused
        // across re-registrations: a woken waiter's entry already left the
        // queue, so re-arming the same cell never leaves a live duplicate.
        let armed = matches!(self.waiter, Some(h) if env.wait_word(h) == Some(ACTIVE));
        if !armed {
            let handle = match self.waiter {
                Some(h) => {
                    env.set_wait_word(h, ACTIVE);
                    h
                }
                None => {
                    let h = env.alloc_wait(ACTIVE);
                    self.waiter = Some(h);
                    h
                }
            };
            shared.inner.borrow_mut().waiters.push_back(RecvWaiter {
                pid: env.current(),
                handle,
            });
        }
        Poll::Pending
    }
}

impl<T> Drop for Recv<'_, T> {
    fn drop(&mut self) {
        if let Some(h) = self.waiter.take() {
            // Any queue entry pointing at the cell goes stale.
            self.mailbox.shared.env.free_wait(h);
        }
    }
}

/// Future returned by [`Mailbox::recv_until`]; borrows its mailbox.
pub struct RecvUntil<'a, T> {
    mailbox: &'a Mailbox<T>,
    deadline: SimTime,
    waiter: Option<WaitHandle>,
    timer_set: bool,
}

impl<T> Future for RecvUntil<'_, T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Option<T>> {
        let shared = &self.mailbox.shared;
        let env = &shared.env;
        let now = env.now();
        let msg = shared.inner.borrow_mut().queue.pop_front();
        if let Some(msg) = msg {
            if let Some(h) = self.waiter.take() {
                env.free_wait(h);
            }
            return Poll::Ready(Some(msg));
        }
        if now >= self.deadline {
            if let Some(h) = self.waiter.take() {
                // A queue entry may still point at the cell; it goes stale.
                env.free_wait(h);
            }
            return Poll::Ready(None);
        }
        let armed = matches!(self.waiter, Some(h) if env.wait_word(h) == Some(ACTIVE));
        if !armed {
            let handle = match self.waiter {
                Some(h) => {
                    env.set_wait_word(h, ACTIVE);
                    h
                }
                None => {
                    let h = env.alloc_wait(ACTIVE);
                    self.waiter = Some(h);
                    h
                }
            };
            shared.inner.borrow_mut().waiters.push_back(RecvWaiter {
                pid: env.current(),
                handle,
            });
        }
        if !self.timer_set {
            let pid = env.current();
            env.schedule_wake(self.deadline, pid, EventKind::Timer);
            self.timer_set = true;
        }
        Poll::Pending
    }
}

impl<T> Drop for RecvUntil<'_, T> {
    fn drop(&mut self) {
        if let Some(h) = self.waiter.take() {
            self.mailbox.shared.env.free_wait(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn send_then_recv_is_immediate() {
        let sim = Sim::new();
        let env = sim.env();
        let mb: Mailbox<u32> = Mailbox::new(&env);
        mb.send(7);
        let got = Rc::new(Cell::new(0));
        {
            let mb = mb.clone();
            let got = Rc::clone(&got);
            sim.spawn(async move {
                got.set(mb.recv().await);
            });
        }
        sim.run();
        assert_eq!(got.get(), 7);
    }

    #[test]
    fn recv_blocks_until_send() {
        let sim = Sim::new();
        let env = sim.env();
        let mb: Mailbox<&'static str> = Mailbox::new(&env);
        let at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let mb = mb.clone();
            let env = env.clone();
            let at = Rc::clone(&at);
            sim.spawn(async move {
                let _ = mb.recv().await;
                at.set(env.now());
            });
        }
        {
            let mb = mb.clone();
            let env = env.clone();
            sim.spawn(async move {
                env.hold(SimDuration::from_millis(42)).await;
                mb.send("hello");
            });
        }
        sim.run();
        assert_eq!(at.get(), SimTime::from_nanos(42_000_000));
    }

    #[test]
    fn messages_are_fifo() {
        let sim = Sim::new();
        let env = sim.env();
        let mb: Mailbox<u32> = Mailbox::new(&env);
        for i in 0..5 {
            mb.send(i);
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let mb = mb.clone();
            let got = Rc::clone(&got);
            sim.spawn(async move {
                for _ in 0..5 {
                    let v = mb.recv().await;
                    got.borrow_mut().push(v);
                }
            });
        }
        sim.run();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_until_times_out() {
        let sim = Sim::new();
        let env = sim.env();
        let mb: Mailbox<u32> = Mailbox::new(&env);
        let result = Rc::new(RefCell::new(Some(99)));
        {
            let mb = mb.clone();
            let env = env.clone();
            let result = Rc::clone(&result);
            sim.spawn(async move {
                let deadline = env.now() + SimDuration::from_millis(10);
                *result.borrow_mut() = mb.recv_until(deadline).await;
            });
        }
        sim.run();
        assert_eq!(*result.borrow(), None);
        assert_eq!(sim.now(), SimTime::from_nanos(10_000_000));
    }

    #[test]
    fn recv_until_gets_message_before_deadline() {
        let sim = Sim::new();
        let env = sim.env();
        let mb: Mailbox<u32> = Mailbox::new(&env);
        let result = Rc::new(RefCell::new(None));
        {
            let mb = mb.clone();
            let env = env.clone();
            let result = Rc::clone(&result);
            sim.spawn(async move {
                let deadline = env.now() + SimDuration::from_secs(10);
                *result.borrow_mut() = mb.recv_until(deadline).await;
            });
        }
        {
            let mb = mb.clone();
            let env = env.clone();
            sim.spawn(async move {
                env.hold(SimDuration::from_millis(3)).await;
                mb.send(5);
            });
        }
        sim.run();
        assert_eq!(*result.borrow(), Some(5));
        // Timer wake at t=10s still fires but is a no-op for a finished
        // process; the sim simply ends there.
    }

    #[test]
    fn two_receivers_each_get_one_message() {
        let sim = Sim::new();
        let env = sim.env();
        let mb: Mailbox<u32> = Mailbox::new(&env);
        let got = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let mb = mb.clone();
            let got = Rc::clone(&got);
            sim.spawn(async move {
                let v = mb.recv().await;
                got.borrow_mut().push(v);
            });
        }
        {
            let mb = mb.clone();
            let env = env.clone();
            sim.spawn(async move {
                env.hold(SimDuration::from_millis(1)).await;
                mb.send(1);
                env.hold(SimDuration::from_millis(1)).await;
                mb.send(2);
            });
        }
        sim.run();
        let mut got = got.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn try_recv_and_len() {
        let sim = Sim::new();
        let env = sim.env();
        let mb: Mailbox<u32> = Mailbox::new(&env);
        assert!(mb.is_empty());
        assert_eq!(mb.try_recv(), None);
        mb.send(3);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.total_sent(), 1);
        assert_eq!(mb.try_recv(), Some(3));
        assert!(mb.is_empty());
    }
}
