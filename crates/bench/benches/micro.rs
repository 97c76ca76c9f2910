//! Criterion micro-benchmarks of the substrates: simulation-kernel event
//! throughput, lock-manager operations, LRU/buffer operations, RNG
//! variates, and a small end-to-end simulation. These are engineering
//! benchmarks (not paper figures); they track the cost of the machinery
//! the experiments run on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ccdb_core::{run_simulation, Algorithm, SimConfig};
use ccdb_des::{Facility, Mailbox, Pcg32, Sim, SimDuration};
use ccdb_lock::{ClientId, LockManager, Mode, TxnId};
use ccdb_model::{ClassId, PageId};
use ccdb_storage::{BufferManager, LruCore};

fn page(n: u32) -> PageId {
    PageId {
        class: ClassId(0),
        atom: n,
    }
}

fn kernel_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    const EVENTS: u64 = 100_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("hold_chain", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let env = sim.env();
            sim.spawn(async move {
                for _ in 0..EVENTS {
                    env.hold(SimDuration::from_nanos(10)).await;
                }
            });
            sim.run();
            black_box(sim.events_processed())
        })
    });
    // Everything here is scheduled at the current instant, so it runs on
    // the calendar's same-instant lane; `hold_chain` is the heap path.
    g.bench_function("same_instant_fanout", |b| {
        // Per round: one child spawn, one service hop and one zero hold;
        // plus the parent's own spawn, EVENTS in total.
        const ROUNDS: u64 = (EVENTS - 1) / 3;
        b.iter(|| {
            let sim = Sim::new();
            let env = sim.env();
            sim.spawn(async move {
                for _ in 0..ROUNDS {
                    env.spawn(async {});
                    env.hop().await;
                    env.hold(SimDuration::ZERO).await;
                }
            });
            sim.run();
            black_box(sim.events_processed())
        })
    });
    g.bench_function("facility_contention", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let env = sim.env();
            let cpu = Facility::new(&env, "cpu", 2);
            for _ in 0..10 {
                let cpu = cpu.clone();
                sim.spawn(async move {
                    for _ in 0..1_000 {
                        cpu.use_for(SimDuration::from_nanos(50)).await;
                    }
                });
            }
            sim.run();
            black_box(cpu.completions())
        })
    });
    g.bench_function("mailbox_ping_pong", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let env = sim.env();
            let a: Mailbox<u32> = Mailbox::new(&env);
            let z: Mailbox<u32> = Mailbox::new(&env);
            {
                let (a, z) = (a.clone(), z.clone());
                sim.spawn(async move {
                    for i in 0..5_000 {
                        a.send(i);
                        let _ = z.recv().await;
                    }
                });
            }
            {
                let (a, z) = (a.clone(), z.clone());
                sim.spawn(async move {
                    for _ in 0..5_000 {
                        let v = a.recv().await;
                        z.send(v);
                    }
                });
            }
            sim.run();
            black_box(a.total_sent())
        })
    });
    g.finish();
}

fn lock_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock");
    g.bench_function("grant_release_cycle", |b| {
        b.iter(|| {
            let mut lm = LockManager::new();
            for t in 0..100u64 {
                for p in 0..10u32 {
                    let _ = lm.request(TxnId(t), ClientId(t as u32), page(p * 7), Mode::S);
                }
                let _ = lm.release_all(TxnId(t), None);
            }
            black_box(lm.stats().requests)
        })
    });
    g.bench_function("conflict_queue_churn", |b| {
        b.iter(|| {
            let mut lm = LockManager::new();
            for round in 0..50u64 {
                let writer = TxnId(round * 3);
                let _ = lm.request(writer, ClientId(0), page(1), Mode::X);
                let _ = lm.request(TxnId(round * 3 + 1), ClientId(1), page(1), Mode::S);
                let _ = lm.request(TxnId(round * 3 + 2), ClientId(2), page(1), Mode::S);
                let (wakes, _) = lm.release_all(writer, None);
                for w in wakes {
                    let _ = lm.release_all(w.txn, None);
                }
            }
            black_box(lm.table_len())
        })
    });
    g.finish();
}

fn storage_structures(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("lru_mixed_ops", |b| {
        b.iter(|| {
            let mut lru: LruCore<u32, u32> = LruCore::new();
            for i in 0..10_000u32 {
                lru.insert(i % 512, i);
                if i % 3 == 0 {
                    lru.touch(&(i % 512));
                }
                if i % 7 == 0 {
                    let _ = lru.pop_lru_where(|_, _| true);
                }
            }
            black_box(lru.len())
        })
    });
    g.bench_function("buffer_thrash", |b| {
        b.iter(|| {
            let mut buf = BufferManager::new(400);
            let mut rng = Pcg32::new(1, 1);
            for _ in 0..10_000 {
                let p = page(rng.below(2_000) as u32);
                if !buf.lookup(p) {
                    let _ = buf.admit(p);
                }
            }
            black_box(buf.stats().hits)
        })
    });
    g.finish();
}

fn rng_variates(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("exp_durations", |b| {
        let mut rng = Pcg32::new(7, 7);
        let mean = SimDuration::from_millis(2);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(rng.exp_duration(mean).as_nanos());
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for alg in [Algorithm::TwoPhase { inter: true }, Algorithm::Callback] {
        g.bench_function(format!("sim_20s_{}", alg.label()), |b| {
            b.iter(|| {
                let cfg = SimConfig::table5(alg)
                    .with_clients(10)
                    .with_locality(0.5)
                    .with_prob_write(0.2)
                    .with_horizon(SimDuration::from_secs(2), SimDuration::from_secs(18));
                black_box(run_simulation(cfg).commits)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    kernel_events,
    lock_manager,
    storage_structures,
    rng_variates,
    end_to_end
);
criterion_main!(benches);
