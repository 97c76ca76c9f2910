//! The log manager (paper §3.3.4).
//!
//! A log-based recovery scheme on dedicated log disks. At commit the
//! transaction's log records (after-images of its updated pages) are forced
//! to a log disk; log appends are sequential, so they cost transfer time
//! only. Because the buffer manager *steals* (uncommitted dirty frames may
//! be flushed to make room), an abort whose pages reached disk must read
//! the log and rewrite the before-images — the paper's point that
//! "protocols that cause more transaction aborts are charged for them".

use ccdb_model::FxHashMap as HashMap;
use std::cell::RefCell;
use std::rc::Rc;

use ccdb_des::{Env, Pcg32, WaitClass};
use ccdb_model::{PageId, SystemParams};

use crate::disk::Disk;

/// Per-run log statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogStats {
    /// Commit records forced.
    pub commits_forced: u64,
    /// Log pages written.
    pub pages_written: u64,
    /// Aborts that required undo I/O.
    pub undo_aborts: u64,
    /// Pages undone on disk.
    pub pages_undone: u64,
}

struct Inner {
    /// Pages of each active transaction that were stolen (flushed while
    /// uncommitted); undo for these costs I/O.
    flushed: HashMap<u64, Vec<PageId>>,
    next_disk: usize,
    stats: LogStats,
}

/// The log manager: owns the log disks and the flushed-uncommitted-page
/// bookkeeping. When `NLogDisks` is 0 the log manager is disabled (the
/// Table 4 ACL configuration) and commits are free. Cheap to clone; clones
/// share state.
#[derive(Clone)]
pub struct LogManager {
    disks: Rc<Vec<Disk>>,
    inner: Rc<RefCell<Inner>>,
}

impl LogManager {
    /// Build the log manager from the system parameters.
    pub fn new(env: &Env, params: &SystemParams, rng: &mut Pcg32) -> Self {
        let disks = (0..params.n_log_disks)
            .map(|i| {
                Disk::new(
                    env,
                    format!("log-disk-{i}"),
                    params,
                    rng.split(1000 + i as u64),
                )
                .with_wait_class(WaitClass::LogDisk)
            })
            .collect();
        LogManager {
            disks: Rc::new(disks),
            inner: Rc::new(RefCell::new(Inner {
                flushed: HashMap::default(),
                next_disk: 0,
                stats: LogStats::default(),
            })),
        }
    }

    /// True if logging is disabled (`NLogDisks == 0`).
    pub fn disabled(&self) -> bool {
        self.disks.is_empty()
    }

    /// Statistics counters.
    pub fn stats(&self) -> LogStats {
        self.inner.borrow().stats
    }

    /// Record that `txn`'s uncommitted update to `page` was flushed to the
    /// data disk (buffer steal).
    pub fn note_stolen_flush(&self, txn: u64, page: PageId) {
        self.inner
            .borrow_mut()
            .flushed
            .entry(txn)
            .or_default()
            .push(page);
    }

    /// Pages of `txn` currently flushed-uncommitted (tests).
    pub fn stolen_pages(&self, txn: u64) -> usize {
        self.inner
            .borrow()
            .flushed
            .get(&txn)
            .map(|v| v.len())
            .unwrap_or(0)
    }

    /// Force the commit record: one sequential log write per updated page
    /// (after-images) plus one for the commit record itself. Returns after
    /// the force completes. A read-only transaction writes just the commit
    /// record. The force rides [`Disk::access_many`], so the block-train
    /// computation runs at a service slot.
    ///
    /// [`Disk::access_many`]: crate::Disk::access_many
    pub async fn force_commit(&self, txn: u64, pages_updated: u64) {
        let disk = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.commits_forced += 1;
            inner.flushed.remove(&txn);
            if self.disks.is_empty() {
                return;
            }
            inner.stats.pages_written += pages_updated + 1;
            self.pick_disk(&mut inner)
        };
        disk.access_many(pages_updated + 1, true).await;
    }

    /// Process an abort: read the log to undo any stolen flushes. Each
    /// stolen page costs one sequential log read; the caller must then
    /// rewrite the returned before-images to the data disks.
    pub async fn process_abort(&self, txn: u64) -> Vec<PageId> {
        let (pages, disk) = {
            let mut inner = self.inner.borrow_mut();
            let pages = inner.flushed.remove(&txn).unwrap_or_default();
            if pages.is_empty() {
                return pages;
            }
            inner.stats.undo_aborts += 1;
            inner.stats.pages_undone += pages.len() as u64;
            if self.disks.is_empty() {
                return pages;
            }
            let disk = self.pick_disk(&mut inner);
            (pages, disk)
        };
        disk.access_many(pages.len() as u64, true).await;
        pages
    }

    fn pick_disk(&self, inner: &mut Inner) -> Disk {
        let d = self.disks[inner.next_disk].clone();
        inner.next_disk = (inner.next_disk + 1) % self.disks.len();
        d
    }

    /// Utilisation of the busiest log disk.
    pub fn max_utilization(&self) -> f64 {
        self.disks
            .iter()
            .map(|d| d.utilization())
            .fold(0.0, f64::max)
    }

    /// Reset disk statistics (end of warm-up).
    pub fn reset_stats(&self) {
        for d in self.disks.iter() {
            d.reset_stats();
        }
    }

    /// The log disks (reports).
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// Snapshot every log disk's statistics for a report.
    pub fn snapshots(&self) -> Vec<ccdb_des::FacilitySnapshot> {
        self.disks.iter().map(|d| d.snapshot()).collect()
    }

    /// Register per-disk gauges, `disk.log.max_util`, and the log's
    /// commit-force / page-write counters.
    pub fn register_metrics(&self, registry: &ccdb_obs::Registry) {
        for d in self.disks.iter() {
            d.register_metrics(registry);
        }
        let this = self.clone();
        registry.gauge("disk.log.max_util", move || this.max_utilization());
        let this = self.clone();
        registry.counter_fn("log.commits_forced", move || this.stats().commits_forced);
        let this = self.clone();
        registry.counter_fn("log.pages_written", move || this.stats().pages_written);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_des::{Sim, SimTime};
    use ccdb_model::ClassId;

    fn page(n: u32) -> PageId {
        PageId {
            class: ClassId(0),
            atom: n,
        }
    }

    fn log_mgr(env: &Env, n_log_disks: u32) -> LogManager {
        let mut rng = Pcg32::new(1, 1);
        let mut params = SystemParams::table5();
        params.n_log_disks = n_log_disks;
        LogManager::new(env, &params, &mut rng)
    }

    #[test]
    fn commit_force_costs_sequential_transfers() {
        let sim = Sim::new();
        let env = sim.env();
        let lm = log_mgr(&env, 1);
        {
            let lm = lm.clone();
            sim.spawn(async move {
                lm.force_commit(1, 3).await;
            });
        }
        sim.run();
        // 4 blocks x 2ms transfer, no seek.
        assert_eq!(sim.now(), SimTime::from_nanos(8_000_000));
        assert_eq!(lm.stats().commits_forced, 1);
        assert_eq!(lm.stats().pages_written, 4);
    }

    #[test]
    fn disabled_log_is_free() {
        let sim = Sim::new();
        let env = sim.env();
        let lm = log_mgr(&env, 0);
        assert!(lm.disabled());
        {
            let lm = lm.clone();
            sim.spawn(async move {
                lm.force_commit(1, 5).await;
            });
        }
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(lm.stats().commits_forced, 1);
    }

    #[test]
    fn abort_without_stolen_pages_is_free() {
        let sim = Sim::new();
        let env = sim.env();
        let lm = log_mgr(&env, 1);
        let got = std::rc::Rc::new(RefCell::new(vec![page(0)]));
        {
            let lm = lm.clone();
            let got = std::rc::Rc::clone(&got);
            sim.spawn(async move {
                *got.borrow_mut() = lm.process_abort(9).await;
            });
        }
        sim.run();
        assert!(got.borrow().is_empty());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(lm.stats().undo_aborts, 0);
    }

    #[test]
    fn abort_with_stolen_pages_reads_log_and_reports_undo() {
        let sim = Sim::new();
        let env = sim.env();
        let lm = log_mgr(&env, 1);
        lm.note_stolen_flush(5, page(1));
        lm.note_stolen_flush(5, page(2));
        assert_eq!(lm.stolen_pages(5), 2);
        let got = std::rc::Rc::new(RefCell::new(Vec::new()));
        {
            let lm = lm.clone();
            let got = std::rc::Rc::clone(&got);
            sim.spawn(async move {
                *got.borrow_mut() = lm.process_abort(5).await;
            });
        }
        sim.run();
        assert_eq!(got.borrow().len(), 2);
        // Two sequential log reads: 4ms.
        assert_eq!(sim.now(), SimTime::from_nanos(4_000_000));
        assert_eq!(lm.stats().pages_undone, 2);
        assert_eq!(lm.stolen_pages(5), 0);
    }

    #[test]
    fn commit_clears_stolen_bookkeeping() {
        let sim = Sim::new();
        let env = sim.env();
        let lm = log_mgr(&env, 1);
        lm.note_stolen_flush(7, page(1));
        {
            let lm = lm.clone();
            sim.spawn(async move {
                lm.force_commit(7, 1).await;
            });
        }
        sim.run();
        assert_eq!(lm.stolen_pages(7), 0);
    }

    #[test]
    fn multiple_log_disks_round_robin() {
        let sim = Sim::new();
        let env = sim.env();
        let lm = log_mgr(&env, 2);
        for i in 0..4u64 {
            let lm = lm.clone();
            sim.spawn(async move {
                lm.force_commit(i, 1).await;
            });
        }
        sim.run();
        // Four 2-block forces over two disks in parallel: 8ms not 16ms.
        assert_eq!(sim.now(), SimTime::from_nanos(8_000_000));
    }
}
