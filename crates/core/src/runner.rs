//! Assembling and running one simulation (Figure 1's physical structure).

use std::cell::Cell;
use std::rc::Rc;

use ccdb_des::{FacilitySnapshot, KernelProfile, Pcg32, Sim, SimDuration, SimTime, WaitClass};
use ccdb_lock::ClientId;
use ccdb_model::Workload;
use ccdb_net::{Network, NetworkNode};
use ccdb_obs::{run_sampler, Registry, SeriesRing, SeriesSet};
use ccdb_storage::ClientCache;

use crate::client::{run_client, Client};
use crate::config::SimConfig;
use crate::metrics::{MetricsHub, RunReport};
use crate::msg::S2C;
use crate::server::Server;
use crate::trace::Trace;
use crate::wait::WaitBook;

/// Observability options for a run.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Snapshot every registered metric at this simulated-time interval.
    /// `None` disables sampling (no sampler process is spawned).
    pub sample_interval: Option<SimDuration>,
    /// Retained points per metric; beyond this the sampler doubles its
    /// interval and folds adjacent samples instead of evicting (must be
    /// at least 3).
    pub ring_capacity: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            sample_interval: None,
            ring_capacity: 4096,
        }
    }
}

/// What an observed run returns: the aggregate report plus the sampled
/// time series (when sampling was enabled).
pub struct Observed {
    /// End-of-run aggregates.
    pub report: RunReport,
    /// Adaptively-sampled metric trajectories, frozen into owned `Send`
    /// data; `None` without a sample interval.
    pub series: Option<SeriesSet>,
    /// Every registered metric frozen at the horizon: plain `Send` data,
    /// so callers (the sweep orchestrator in particular) can carry it out
    /// of a worker thread and merge it across replications.
    pub snapshot: ccdb_obs::Snapshot,
}

/// Run one simulation to completion and report.
///
/// The run is a pure function of the configuration (including its seed):
/// rerunning with the same `SimConfig` yields an identical report.
pub fn run_simulation(cfg: SimConfig) -> RunReport {
    run_simulation_traced(cfg, Trace::disabled())
}

/// [`run_simulation`] with protocol tracing: every client/server protocol
/// event is recorded into `trace` (bounded by its capacity).
pub fn run_simulation_traced(cfg: SimConfig, trace: Trace) -> RunReport {
    run_simulation_observed(cfg, trace, ObsOptions::default()).report
}

/// What a profiled run returns: the report plus the kernel's own
/// dispatch statistics (see [`Sim::enable_profiling`]).
pub struct Profiled {
    /// End-of-run aggregates, identical to an unprofiled run's.
    pub report: RunReport,
    /// Per-[`ccdb_des::EventKind`] dispatch counts and wall-clock nanos.
    pub profile: KernelProfile,
}

/// [`run_simulation`] with kernel self-profiling: the event loop counts
/// and times every dispatch by [`ccdb_des::EventKind`]. Profiling only
/// watches the kernel — the simulated outcome (and thus the report) is
/// bit-identical to an unprofiled run; only wall-clock cost changes.
pub fn run_simulation_profiled(cfg: SimConfig) -> Profiled {
    let sim = Sim::new();
    sim.enable_profiling();
    let observed = run_observed_on(&sim, cfg, Trace::disabled(), ObsOptions::default());
    Profiled {
        report: observed.report,
        profile: sim.profile(),
    }
}

/// [`run_simulation_traced`] with metric sampling: every component's
/// gauges and counters are registered into a [`Registry`] and, when
/// `obs.sample_interval` is set, a sampler process snapshots them into
/// an adaptively-folding series over the whole run.
///
/// The sampler only reads, so enabling it does not change the simulated
/// outcome: the report is identical with sampling on or off.
pub fn run_simulation_observed(cfg: SimConfig, trace: Trace, obs: ObsOptions) -> Observed {
    run_observed_on(&Sim::new(), cfg, trace, obs)
}

/// The body shared by every entry point: build the world on `sim`, run
/// to the horizon, and collect the report.
fn run_observed_on(sim: &Sim, cfg: SimConfig, trace: Trace, obs: ObsOptions) -> Observed {
    cfg.validate();
    let env = sim.env();
    let mut root_rng = Pcg32::new(cfg.seed, 0x5EED);

    let net = Network::new(&env, &cfg.sys, root_rng.split(1));
    let n_clients = cfg.sys.n_clients;
    let client_nodes: Rc<Vec<NetworkNode<S2C>>> = Rc::new(
        (0..n_clients)
            .map(|i| {
                NetworkNode::new(
                    &env,
                    format!("client-cpu-{i}"),
                    cfg.sys.n_client_cpus,
                    cfg.sys.client_mips,
                    WaitClass::ClientCpu,
                )
            })
            .collect(),
    );
    let cfg = Rc::new(cfg);
    let book = WaitBook::new();
    let server = Server::spawn(
        &env,
        Rc::clone(&cfg),
        net.clone(),
        Rc::clone(&client_nodes),
        &mut root_rng,
        book.clone(),
        trace.clone(),
    );

    let warmup_end = SimTime::ZERO + cfg.warmup;
    let hub = MetricsHub::new(warmup_end);

    // Clients.
    let mut caches = Vec::with_capacity(n_clients as usize);
    for i in 0..n_clients {
        let workload_rng = root_rng.split(10_000 + i as u64);
        let client_rng = root_rng.split(20_000 + i as u64);
        let workload = if cfg.txn_mix.is_empty() {
            Workload::new(cfg.db.clone(), cfg.txn.clone(), workload_rng)
        } else {
            Workload::with_mix(cfg.db.clone(), cfg.txn_mix.clone(), workload_rng)
        };
        let client = Client::new(
            &env,
            ClientId(i),
            Rc::clone(&cfg),
            client_nodes[i as usize].clone(),
            server.node.clone(),
            net.clone(),
            workload,
            client_rng,
            hub.clone(),
            book.clone(),
            trace.clone(),
        );
        caches.push(Rc::clone(&client.cache));
        env.spawn(run_client(client));
    }

    // Warm-up boundary: reset all resource statistics so utilisations and
    // counters cover the measurement window only.
    let msgs_at_warmup = Rc::new(Cell::new(0u64));
    {
        let env2 = env.clone();
        let cfg2 = Rc::clone(&cfg);
        let net2 = net.clone();
        let server2 = server.clone();
        let client_nodes2 = Rc::clone(&client_nodes);
        let caches2 = caches.clone();
        let msgs_at_warmup2 = Rc::clone(&msgs_at_warmup);
        env.spawn(async move {
            env2.hold(cfg2.warmup).await;
            server2.node.cpu.reset_stats();
            net2.reset_stats();
            server2.data_disks.reset_stats();
            server2.log.reset_stats();
            for node in client_nodes2.iter() {
                node.cpu.reset_stats();
            }
            for cache in &caches2 {
                cache.borrow_mut().reset_stats();
            }
            server2.state.borrow_mut().buffer.reset_stats();
            msgs_at_warmup2.set(net2.stats().messages);
        });
    }

    // Every component registers its metrics; the sampler (spawned last so
    // it perturbs nothing that came before) snapshots them periodically.
    let registry = Registry::new();
    register_all(&registry, &server, &net, &client_nodes, &caches, &hub);
    let ring = obs.sample_interval.map(|interval| {
        let ring = SeriesRing::new(&registry, interval, obs.ring_capacity);
        env.spawn(run_sampler(env.clone(), registry.clone(), ring.clone()));
        ring
    });

    let horizon = SimTime::ZERO + cfg.warmup + cfg.measure;
    sim.run_until(horizon);
    if std::env::var_os("CCDB_DEBUG").is_some() {
        eprintln!("live processes at horizon: {}", sim.live_processes());
        server.debug_dump();
    }
    // One final sample exactly at the horizon, so series endpoints equal
    // the report's end-of-run figures (a no-op if the last sampler tick
    // already landed there).
    if let Some(ring) = &ring {
        ring.sample(&registry, sim.now());
    }
    let series = ring.map(SeriesRing::into_set);

    // Collect.
    let measure_secs = cfg.measure.as_secs_f64();
    let msgs = net.stats().messages - msgs_at_warmup.get();
    let server_cpu_util = server.node.cpu.utilization();
    let client_cpu_util = if client_nodes.is_empty() {
        0.0
    } else {
        client_nodes
            .iter()
            .map(|n| n.cpu.utilization())
            .sum::<f64>()
            / client_nodes.len() as f64
    };
    let net_util = net.utilization();
    let data_disk_util = server.data_disks.max_utilization();
    let log_disk_util = server.log.max_utilization();
    let mut cache_stats = ccdb_storage::CacheStats::default();
    for c in &caches {
        let s = c.borrow().stats();
        cache_stats.hits += s.hits;
        cache_stats.misses += s.misses;
        cache_stats.evictions += s.evictions;
    }
    let (buffer_stats, lock_stats, lock_shard_stats) = {
        let state = server.state.borrow();
        (
            state.buffer.stats(),
            state.core.lock_stats(),
            state.core.per_shard_lock_stats(),
        )
    };
    let log_stats = server.log.stats();

    let mut resources: Vec<FacilitySnapshot> = vec![server.node.cpu.snapshot()];
    // With more than one server CPU the pool also reports each core, so
    // per-core imbalance is visible next to the aggregate.
    if server.node.cpu.servers() > 1 {
        resources.extend(server.node.cpu.core_snapshots());
    }
    resources.push(server.mpl().snapshot());
    resources.push(net.medium().snapshot());
    resources.extend(server.data_disks.snapshots());
    resources.extend(server.log.snapshots());

    let n_types = cfg.txn_mix.len().max(1);
    let type_labels = (0..n_types).map(|i| cfg.type_label(i)).collect();

    let report = RunReport::assemble(
        cfg.algorithm,
        &cfg.sys,
        cfg.txn.prob_write,
        cfg.txn.inter_xact_loc,
        cfg.seed,
        cfg.warmup.as_secs_f64(),
        type_labels,
        resources,
        &hub,
        measure_secs,
        msgs,
        server_cpu_util,
        client_cpu_util,
        net_util,
        data_disk_util,
        log_disk_util,
        cache_stats,
        buffer_stats,
        lock_stats,
        lock_shard_stats,
        log_stats,
        sim.events_processed(),
    );
    let snapshot = registry.snapshot();
    Observed {
        report,
        series,
        snapshot,
    }
}

/// Wire every component's statistics into the registry. Registration
/// order is export order, so keep it stable: server, network, disks,
/// clients, lock/buffer state, transaction counters.
fn register_all(
    registry: &Registry,
    server: &Server,
    net: &Network,
    client_nodes: &Rc<Vec<NetworkNode<S2C>>>,
    caches: &[Rc<std::cell::RefCell<ClientCache>>],
    hub: &MetricsHub,
) {
    // The server CPU is a pool of per-core facilities, not a single
    // Facility; register the same `server.cpu.util` / `server.cpu.qlen`
    // gauges (same names, same order) by hand over the aggregate.
    {
        let pool = server.node.cpu.clone();
        registry.gauge("server.cpu.util", move || pool.utilization());
    }
    {
        let pool = server.node.cpu.clone();
        registry.gauge("server.cpu.qlen", move || pool.queue_len() as f64);
    }
    registry.facility("server.mpl", server.mpl());
    net.register_metrics(registry);
    server.data_disks.register_metrics(registry);
    server.log.register_metrics(registry);

    {
        let nodes = Rc::clone(client_nodes);
        registry.gauge("client.cpu.mean_util", move || {
            if nodes.is_empty() {
                0.0
            } else {
                nodes.iter().map(|n| n.cpu.utilization()).sum::<f64>() / nodes.len() as f64
            }
        });
    }
    {
        let caches: Vec<_> = caches.to_vec();
        registry.gauge("client.cache.hit_ratio", move || {
            let (mut hits, mut total) = (0u64, 0u64);
            for c in &caches {
                let s = c.borrow().stats();
                hits += s.hits;
                total += s.hits + s.misses;
            }
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        });
    }

    {
        let state = Rc::clone(&server.state);
        registry.gauge("server.lock.table_pages", move || {
            state.borrow().core.lock_table_len() as f64
        });
    }
    {
        let state = Rc::clone(&server.state);
        registry.gauge("server.lock.blocked_txns", move || {
            state.borrow().core.blocked_txn_count() as f64
        });
    }
    {
        let state = Rc::clone(&server.state);
        registry.gauge("server.buffer.resident", move || {
            state.borrow().buffer.len() as f64
        });
    }
    {
        let state = Rc::clone(&server.state);
        registry.gauge("server.buffer.dirty", move || {
            state.borrow().buffer.dirty_count() as f64
        });
    }
    {
        let state = Rc::clone(&server.state);
        registry.gauge("server.buffer.hit_ratio", move || {
            let s = state.borrow().buffer.stats();
            let total = s.hits + s.misses;
            if total == 0 {
                0.0
            } else {
                s.hits as f64 / total as f64
            }
        });
    }

    {
        let hub = hub.clone();
        registry.counter_fn("txn.commits", move || hub.commits());
    }
    {
        let hub = hub.clone();
        registry.counter_fn("txn.aborts", move || hub.aborts());
    }
    {
        let hub = hub.clone();
        registry.counter_fn("txn.callbacks", move || hub.callbacks());
    }
}
