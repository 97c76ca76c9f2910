//! # ccdb-net — the network manager (paper §3.3.1)
//!
//! Messages between clients and the server are broken into packets of at
//! most `PacketSize` bytes. Every packet costs `MsgCost` instructions of
//! CPU at both the sending and the receiving site, and an exponentially
//! distributed delay (mean `NetDelay`) on the shared FCFS network.
//!
//! [`NetworkNode`] couples a CPU facility with a station identity;
//! [`Network::send`] runs the full pipeline — sender CPU, network, receiver
//! CPU — as a background delivery process and finally deposits the message
//! into the destination mailbox, so a sender is never blocked by delivery
//! (asynchronous sends are what no-wait locking and callbacks rely on; a
//! synchronous request simply awaits the reply mailbox).
//!
//! [`Network::send`] spawns the delivery process at once; the process's
//! first act is a service hop (`Env::hop`), which gives the message's
//! *send part* its own same-instant calendar slot. Each packet's service
//! time is then drawn as the packet is served, from the message's own RNG
//! stream split at submission, so the draws do not depend on where any
//! slot falls. A message costs one allocation: the delivery process.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use ccdb_des::{Env, Facility, Mailbox, Pcg32, SimDuration, WaitClass};
use ccdb_model::SystemParams;

pub use ccdb_des::{CpuGuard, CpuPool, PoolAcquire};

/// One end of the network: a station with CPUs and an inbox.
pub struct NetworkNode<T> {
    /// The station's CPU pool (also used to charge page-processing
    /// costs by the client/server runtimes).
    pub cpu: CpuPool,
    /// CPU speed in MIPS.
    pub mips: f64,
    /// Incoming messages.
    pub inbox: Mailbox<T>,
}

impl<T> Clone for NetworkNode<T> {
    fn clone(&self) -> Self {
        NetworkNode {
            cpu: self.cpu.clone(),
            mips: self.mips,
            inbox: self.inbox.clone(),
        }
    }
}

impl<T> NetworkNode<T> {
    /// Create a station with `n_cpus` CPUs at `mips`; queueing for the
    /// CPUs is attributed to `class`.
    pub fn new(
        env: &Env,
        name: impl Into<String>,
        n_cpus: u32,
        mips: f64,
        class: WaitClass,
    ) -> Self {
        NetworkNode {
            cpu: CpuPool::new(env, name, n_cpus, class),
            mips,
            inbox: Mailbox::new(env),
        }
    }

    /// Charge `instructions` of CPU work (queues FCFS on the CPUs).
    pub async fn charge_cpu(&self, instructions: u64) {
        if instructions == 0 {
            return;
        }
        self.cpu
            .use_for(SimDuration::from_instructions(instructions, self.mips))
            .await;
    }
}

/// Per-network statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Messages sent.
    pub messages: u64,
    /// Packets transferred.
    pub packets: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

struct NetInner {
    rng: Pcg32,
    stats: NetStats,
}

/// What a [`Network`] handle points at.
struct Shared {
    env: Env,
    medium: Facility,
    msg_cost: u64,
    packet_size: u32,
    net_delay: SimDuration,
    inner: RefCell<NetInner>,
}

/// The shared FCFS network. A handle is one `Rc`: cloning it (once per
/// message, into the delivery process) is one reference-count bump.
#[derive(Clone)]
pub struct Network {
    shared: Rc<Shared>,
}

impl Network {
    /// Build the network from the system parameters.
    pub fn new(env: &Env, params: &SystemParams, rng: Pcg32) -> Self {
        Network {
            shared: Rc::new(Shared {
                env: env.clone(),
                medium: Facility::new(env, "network", 1).with_wait_class(WaitClass::Network),
                msg_cost: params.msg_cost,
                packet_size: params.packet_size,
                net_delay: params.net_delay,
                inner: RefCell::new(NetInner {
                    rng,
                    stats: NetStats::default(),
                }),
            }),
        }
    }

    /// Statistics counters.
    pub fn stats(&self) -> NetStats {
        self.shared.inner.borrow().stats
    }

    /// Network medium utilisation.
    pub fn utilization(&self) -> f64 {
        self.shared.medium.utilization()
    }

    /// The shared medium facility (reports and sampling).
    pub fn medium(&self) -> &Facility {
        &self.shared.medium
    }

    /// Register the medium's gauges (`net.util`, `net.qlen`) and traffic
    /// counters (`net.messages`, `net.packets`, `net.bytes`).
    pub fn register_metrics(&self, registry: &ccdb_obs::Registry) {
        registry.facility("net", self.medium());
        let this = self.clone();
        registry.counter_fn("net.messages", move || this.stats().messages);
        let this = self.clone();
        registry.counter_fn("net.packets", move || this.stats().packets);
        let this = self.clone();
        registry.counter_fn("net.bytes", move || this.stats().bytes);
    }

    /// Reset medium statistics (end of warm-up).
    pub fn reset_stats(&self) {
        self.shared.medium.reset_stats();
    }

    /// Packets for a payload of `bytes`.
    pub fn packets_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.shared.packet_size as u64)
        }
    }

    /// Send `msg` with a `payload_bytes` body from `from` to `to`.
    ///
    /// Returns immediately, having spawned the delivery process: a service
    /// hop, sender CPU, per-packet FCFS network occupancy, receiver CPU,
    /// mailbox deposit. Each packet's exponential service time is drawn as
    /// it is served, from the message's own split RNG stream (stream id =
    /// the message's submission index), so a sender is never blocked by
    /// delivery. Message ordering between the same pair of stations is
    /// preserved only as far as the FCFS facilities enforce it, exactly
    /// as in the paper's model.
    pub fn send<S, R>(&self, from: &NetworkNode<S>, to: &NetworkNode<R>, msg: R, payload_bytes: u64)
    where
        S: 'static,
        R: 'static,
    {
        let packets = self.packets_for(payload_bytes);
        let mut msg_rng = {
            let mut inner = self.shared.inner.borrow_mut();
            inner.stats.messages += 1;
            inner.stats.packets += packets;
            inner.stats.bytes += payload_bytes;
            // Split at submission: the parent draw happens here, in the
            // deterministic serial order of send() calls, and the packet
            // draws below consume only the message's own stream.
            let ix = inner.stats.messages;
            inner.rng.split(ix)
        };
        let this = self.clone();
        let (sender_cpu, sender_mips) = (from.cpu.clone(), from.mips);
        let (receiver_cpu, receiver_mips) = (to.cpu.clone(), to.mips);
        let dest = to.inbox.clone();
        self.shared.env.spawn(async move {
            let net = &*this.shared;
            // The send part's slot.
            net.env.hop().await;
            // Sender CPU cost for all packets of the message.
            if net.msg_cost > 0 {
                let cost = SimDuration::from_instructions(net.msg_cost * packets, sender_mips);
                sender_cpu.use_for(cost).await;
            }
            // Each packet occupies the network for its drawn service
            // time. A zero draw still passes through the facility
            // queue: a zero-cost packet waits its FCFS turn behind
            // packets already in flight rather than jumping ahead.
            for _ in 0..packets {
                let service = msg_rng.exp_duration(net.net_delay);
                net.medium.use_for(service).await;
            }
            // Receiver CPU cost.
            if net.msg_cost > 0 {
                let cost = SimDuration::from_instructions(net.msg_cost * packets, receiver_mips);
                receiver_cpu.use_for(cost).await;
            }
            dest.send(msg);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_des::{Sim, SimTime};
    use std::cell::{Cell, RefCell};

    fn setup(
        net_delay_ms: u64,
        msg_cost: u64,
    ) -> (
        Sim,
        Network,
        NetworkNode<&'static str>,
        NetworkNode<&'static str>,
    ) {
        let sim = Sim::new();
        let env = sim.env();
        let mut params = SystemParams::table5();
        params.net_delay = SimDuration::from_millis(net_delay_ms);
        params.msg_cost = msg_cost;
        let net = Network::new(&env, &params, Pcg32::new(1, 1));
        let client = NetworkNode::new(&env, "client-cpu", 1, 1.0, WaitClass::ClientCpu);
        let server = NetworkNode::new(&env, "server-cpu", 1, 2.0, WaitClass::Cpu);
        (sim, net, client, server)
    }

    #[test]
    fn message_arrives_with_cpu_costs() {
        let (sim, net, client, server) = setup(0, 5_000);
        let at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let server = server.clone();
            let env = sim.env();
            let at = Rc::clone(&at);
            sim.spawn(async move {
                let _ = server.inbox.recv().await;
                at.set(env.now());
            });
        }
        net.send(&client, &server, "req", 0);
        sim.run();
        // 5000 instr at 1 MIPS (5ms) + 5000 at 2 MIPS (2.5ms), no net delay.
        assert_eq!(at.get(), SimTime::from_nanos(7_500_000));
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().packets, 1);
    }

    #[test]
    fn large_message_splits_into_packets() {
        let (sim, net, client, server) = setup(0, 1_000);
        {
            let server = server.clone();
            sim.spawn(async move {
                let _ = server.inbox.recv().await;
            });
        }
        // 3 pages of 4096 bytes = 3 packets.
        net.send(&client, &server, "pages", 3 * 4096);
        sim.run();
        assert_eq!(net.stats().packets, 3);
        assert_eq!(net.stats().bytes, 3 * 4096);
        // Sender 3*1000 instr at 1 MIPS = 3ms; receiver 1.5ms.
        assert_eq!(sim.now(), SimTime::from_nanos(4_500_000));
    }

    #[test]
    fn network_is_a_shared_fcfs_resource() {
        let (sim, net, client, server) = setup(2, 0);
        let got = Rc::new(Cell::new(0u32));
        {
            let server = server.clone();
            let got = Rc::clone(&got);
            sim.spawn(async move {
                for _ in 0..20 {
                    let _ = server.inbox.recv().await;
                    got.set(got.get() + 1);
                }
            });
        }
        for _ in 0..20 {
            net.send(&client, &server, "m", 100);
        }
        sim.run();
        assert_eq!(got.get(), 20);
        // 20 packets with mean 2ms exponential service serialised: the
        // total elapsed is the sum of the service draws, so well above a
        // single delay and the medium shows contention.
        assert!(sim.now() > SimTime::from_nanos(10_000_000));
        assert_eq!(net.stats().packets, 20);
    }

    #[test]
    fn zero_delay_zero_cost_is_instant() {
        let (sim, net, client, server) = setup(0, 0);
        let at = Rc::new(Cell::new(SimTime::from_nanos(99)));
        {
            let server = server.clone();
            let env = sim.env();
            let at = Rc::clone(&at);
            sim.spawn(async move {
                let _ = server.inbox.recv().await;
                at.set(env.now());
            });
        }
        net.send(&client, &server, "free", 4096);
        sim.run();
        assert_eq!(at.get(), SimTime::ZERO);
    }

    #[test]
    fn zero_service_packets_wait_their_fcfs_turn() {
        // Regression: a zero exponential draw used to skip the medium
        // entirely, letting a zero-cost packet jump ahead of queued ones.
        let (sim, net, client, server) = setup(0, 0);
        {
            // Occupy the medium for 5ms starting at t=0, before the send.
            let net = net.clone();
            sim.spawn(async move {
                net.medium().use_for(SimDuration::from_millis(5)).await;
            });
        }
        let at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let server = server.clone();
            let env = sim.env();
            let at = Rc::clone(&at);
            sim.spawn(async move {
                let _ = server.inbox.recv().await;
                at.set(env.now());
            });
        }
        net.send(&client, &server, "queued", 0);
        sim.run();
        assert_eq!(
            at.get(),
            SimTime::from_nanos(5_000_000),
            "zero-service packet must queue FCFS behind the busy medium"
        );
    }

    #[test]
    fn register_metrics_exposes_medium_and_counters() {
        let (sim, net, client, server) = setup(2, 0);
        let reg = ccdb_obs::Registry::new();
        net.register_metrics(&reg);
        assert_eq!(
            reg.names(),
            vec![
                "net.util",
                "net.qlen",
                "net.messages",
                "net.packets",
                "net.bytes"
            ]
        );
        {
            let server = server.clone();
            sim.spawn(async move {
                let _ = server.inbox.recv().await;
            });
        }
        net.send(&client, &server, "m", 100);
        sim.run();
        let vals = reg.read_all();
        assert_eq!(vals[2], 1.0, "one message");
        assert_eq!(vals[3], 1.0, "one packet");
        assert_eq!(vals[4], 100.0, "payload bytes");
        assert_eq!(vals[0], net.utilization());
    }

    #[test]
    fn charge_cpu_scales_with_mips() {
        let sim = Sim::new();
        let env = sim.env();
        let node: NetworkNode<()> = NetworkNode::new(&env, "cpu", 1, 2.0, WaitClass::Cpu);
        {
            let node = node.clone();
            sim.spawn(async move {
                node.charge_cpu(10_000).await; // 5ms at 2 MIPS
            });
        }
        sim.run();
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn sends_do_not_block_the_sender() {
        let (sim, net, client, server) = setup(50, 0);
        let sender_done_at = Rc::new(Cell::new(SimTime::MAX));
        {
            let net = net.clone();
            let client = client.clone();
            let server = server.clone();
            let env = sim.env();
            let t = Rc::clone(&sender_done_at);
            sim.spawn(async move {
                for _ in 0..5 {
                    net.send(&client, &server, "async", 0);
                }
                t.set(env.now());
            });
        }
        {
            let server = server.clone();
            sim.spawn(async move {
                for _ in 0..5 {
                    let _ = server.inbox.recv().await;
                }
            });
        }
        sim.run();
        assert_eq!(sender_done_at.get(), SimTime::ZERO, "send is asynchronous");
    }

    /// A send's slots (the delivery's spawn and hop, its packet hand-offs,
    /// the deposit) interleave with same-instant spawns and zero holds in
    /// `(time, seq)` order. The order and per-kind counts below are pinned
    /// from the earlier layout, in which a boxed service task drew the
    /// packet train and then spawned the delivery; the hop layout must
    /// dispatch exactly the same events.
    #[test]
    fn send_interleaves_with_same_instant_work_in_a_pinned_order() {
        use ccdb_des::EventKind;
        let (sim, net, client, server) = setup(0, 0);
        sim.enable_profiling();
        let log = Rc::new(RefCell::new(Vec::<String>::new()));
        let push = |log: &Rc<RefCell<Vec<String>>>, s: String| log.borrow_mut().push(s);
        {
            let (server, log) = (server.clone(), Rc::clone(&log));
            sim.spawn(async move {
                for _ in 0..3 {
                    let m = server.inbox.recv().await;
                    push(&log, format!("recv-{m}"));
                }
            });
        }
        {
            let (env, log) = (sim.env(), Rc::clone(&log));
            sim.spawn(async move {
                for i in 0..8 {
                    push(&log, format!("a{i}"));
                    env.hold(SimDuration::ZERO).await;
                }
            });
        }
        net.send(&client, &server, "m1", 0);
        {
            let (env, log) = (sim.env(), Rc::clone(&log));
            sim.spawn(async move {
                env.hold(SimDuration::ZERO).await;
                for i in 0..8 {
                    push(&log, format!("b{i}"));
                    env.hold(SimDuration::ZERO).await;
                }
            });
        }
        {
            let (env, log) = (sim.env(), Rc::clone(&log));
            let (net, client, server) = (net.clone(), client.clone(), server.clone());
            sim.spawn(async move {
                push(&log, "s".into());
                net.send(&client, &server, "m2", 3 * 4096);
                let log2 = Rc::clone(&log);
                env.spawn(async move { push(&log2, "child".into()) });
                env.hold(SimDuration::ZERO).await;
                push(&log, "s'".into());
                net.send(&client, &server, "m3", 0);
            });
        }
        sim.run();
        assert_eq!(
            log.borrow().join(" "),
            "a0 s a1 b0 child s' a2 b1 a3 recv-m1 b2 a4 b3 a5 b4 a6 b5 a7 b6 recv-m3 b7 recv-m2"
        );
        let p = sim.profile();
        let counts: Vec<u64> = EventKind::ALL.iter().map(|k| p.count(*k)).collect();
        // spawn, hold, facility, pool, mailbox, timer, gate, semaphore,
        // oneshot, task.
        assert_eq!(counts, [8, 23, 2, 0, 3, 0, 0, 0, 0, 3]);
        assert_eq!(sim.now(), SimTime::ZERO);
    }
}
