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
//! The per-packet service draws are the message's *send part*: a service
//! task (`Env::spawn_service`) computes the whole packet train's schedule
//! from the message's own split RNG stream in its own calendar slot, and
//! the delivery process merely replays that schedule against the FCFS
//! medium.

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

/// The shared FCFS network.
#[derive(Clone)]
pub struct Network {
    env: Env,
    medium: Facility,
    msg_cost: u64,
    packet_size: u32,
    net_delay: SimDuration,
    inner: Rc<RefCell<NetInner>>,
}

impl Network {
    /// Build the network from the system parameters.
    pub fn new(env: &Env, params: &SystemParams, rng: Pcg32) -> Self {
        Network {
            env: env.clone(),
            medium: Facility::new(env, "network", 1).with_wait_class(WaitClass::Network),
            msg_cost: params.msg_cost,
            packet_size: params.packet_size,
            net_delay: params.net_delay,
            inner: Rc::new(RefCell::new(NetInner {
                rng,
                stats: NetStats::default(),
            })),
        }
    }

    /// Statistics counters.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }

    /// Network medium utilisation.
    pub fn utilization(&self) -> f64 {
        self.medium.utilization()
    }

    /// The shared medium facility (reports and sampling).
    pub fn medium(&self) -> &Facility {
        &self.medium
    }

    /// Register the medium's gauges (`net.util`, `net.qlen`) and traffic
    /// counters (`net.messages`, `net.packets`, `net.bytes`).
    pub fn register_metrics(&self, registry: &ccdb_obs::Registry) {
        registry.facility("net", &self.medium);
        let this = self.clone();
        registry.counter_fn("net.messages", move || this.stats().messages);
        let this = self.clone();
        registry.counter_fn("net.packets", move || this.stats().packets);
        let this = self.clone();
        registry.counter_fn("net.bytes", move || this.stats().bytes);
    }

    /// Reset medium statistics (end of warm-up).
    pub fn reset_stats(&self) {
        self.medium.reset_stats();
    }

    /// Packets for a payload of `bytes`.
    pub fn packets_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.packet_size as u64)
        }
    }

    /// Send `msg` with a `payload_bytes` body from `from` to `to`.
    ///
    /// Returns immediately. A service task draws the message's per-packet
    /// exponential service times on its own split RNG stream (stream id =
    /// the message's submission index) and spawns the delivery process —
    /// sender CPU, per-packet FCFS network occupancy from the drawn
    /// schedule, receiver CPU, mailbox deposit — so a sender is never
    /// blocked by delivery. Message ordering between the same pair of
    /// stations is preserved only as far as the FCFS facilities enforce
    /// it, exactly as in the paper's model.
    pub fn send<S, R>(&self, from: &NetworkNode<S>, to: &NetworkNode<R>, msg: R, payload_bytes: u64)
    where
        S: 'static,
        R: 'static,
    {
        let packets = self.packets_for(payload_bytes);
        let mut msg_rng = {
            let mut inner = self.inner.borrow_mut();
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
        let sender_cpu = from.cpu.clone();
        let sender_mips = from.mips;
        let receiver_cpu = to.cpu.clone();
        let receiver_mips = to.mips;
        let dest = to.inbox.clone();
        let net_delay = self.net_delay;
        self.env.spawn_service(move |env| {
            // Send part: the packet train's service-time schedule.
            let schedule: Vec<SimDuration> = (0..packets)
                .map(|_| msg_rng.exp_duration(net_delay))
                .collect();
            env.spawn(async move {
                // Sender CPU cost for all packets of the message.
                if this.msg_cost > 0 {
                    sender_cpu
                        .use_for(SimDuration::from_instructions(
                            this.msg_cost * packets,
                            sender_mips,
                        ))
                        .await;
                }
                // Each packet occupies the network for its drawn service
                // time. A zero draw still passes through the facility
                // queue: a zero-cost packet waits its FCFS turn behind
                // packets already in flight rather than jumping ahead.
                for service in schedule {
                    this.medium.use_for(service).await;
                }
                // Receiver CPU cost.
                if this.msg_cost > 0 {
                    receiver_cpu
                        .use_for(SimDuration::from_instructions(
                            this.msg_cost * packets,
                            receiver_mips,
                        ))
                        .await;
                }
                dest.send(msg);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_des::{Sim, SimTime};
    use std::cell::Cell;

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
}
