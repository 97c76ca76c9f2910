//! The disk model (paper §3.3.2).
//!
//! Each disk is an FCFS facility. A random access costs a uniformly
//! distributed seek (`SeekLow..=SeekHigh`, including rotation) plus one
//! block transfer (`DiskTran`); an access flagged *sequential* (the next
//! atom of a clustered object, or a log append) costs the transfer only.
//! The CPU cost of initiating an access (`InitDiskCost`) is charged by the
//! caller on the appropriate CPU facility, not here.
//!
//! Each access's *send part* — the seek/clustering variate draws and the
//! block-train arithmetic — runs at a service slot (`Env::service`: a
//! same-instant hop, the draws, a second hop) on a split RNG stream of its
//! own (stream id = the disk's access counter at submission), then the
//! process queues at the FCFS facility. A disk access allocates nothing.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ccdb_des::{Env, Facility, FacilitySnapshot, Pcg32, SimDuration, WaitClass};
use ccdb_model::{PageId, SystemParams};
use ccdb_obs::Registry;

/// One disk: an FCFS queue of block accesses.
#[derive(Clone)]
pub struct Disk {
    env: Env,
    facility: Facility,
    rng: Rc<RefCell<Pcg32>>,
    /// Accesses submitted so far: the next access's RNG stream id.
    accesses: Rc<Cell<u64>>,
    seek_low: SimDuration,
    seek_high: SimDuration,
    tran: SimDuration,
    /// Arm position: the page most recently submitted to this disk, for
    /// the clustering model.
    last_page: Rc<RefCell<Option<PageId>>>,
}

impl Disk {
    /// Create a disk from the system parameters.
    pub fn new(env: &Env, name: impl Into<String>, params: &SystemParams, rng: Pcg32) -> Self {
        Disk {
            env: env.clone(),
            facility: Facility::new(env, name, 1),
            rng: Rc::new(RefCell::new(rng)),
            accesses: Rc::new(Cell::new(0)),
            seek_low: params.seek_low,
            seek_high: params.seek_high,
            tran: params.disk_tran,
            last_page: Rc::new(RefCell::new(None)),
        }
    }

    /// Tag the underlying facility with the resource class its queueing
    /// time is attributed to (builder style).
    pub fn with_wait_class(self, class: WaitClass) -> Self {
        Disk {
            facility: self.facility.with_wait_class(class),
            ..self
        }
    }

    /// Split a fresh RNG stream for one access, drawn from the disk's
    /// parent stream in submission order; the access's variates then
    /// consume only its own stream, wherever its service slot falls.
    fn split_access_rng(&self) -> Pcg32 {
        let ix = self.accesses.get();
        self.accesses.set(ix + 1);
        self.rng.borrow_mut().split(ix)
    }

    /// Service one block access; `sequential` skips the seek.
    pub async fn access(&self, sequential: bool) {
        let tran = self.tran;
        let service = if sequential {
            self.env.service(move |_| tran).await
        } else {
            let mut arng = self.split_access_rng();
            let (lo, hi) = (self.seek_low, self.seek_high);
            self.env
                .service(move |_| arng.uniform_duration(lo, hi) + tran)
                .await
        };
        self.facility.use_for(service).await;
    }

    /// Service one *page* access under the clustering model (paper §3.1):
    /// if the page is the next atom of the one this disk touched last,
    /// clustering placed them adjacently with probability
    /// `cluster_factor`, and the access is sequential (no seek).
    ///
    /// Adjacency is decided at submission time; interleaved requests
    /// from other transactions break runs, exactly as a real arm would be
    /// stolen away. The clustering and seek draws run at the access's
    /// service slot, on its own stream.
    pub async fn access_page(&self, page: PageId, cluster_factor: f64) {
        let adjacent = {
            let mut last = self.last_page.borrow_mut();
            let adjacent = matches!(
                *last,
                Some(prev) if prev.class == page.class && prev.atom + 1 == page.atom
            );
            *last = Some(page);
            adjacent && cluster_factor > 0.0
        };
        let mut arng = self.split_access_rng();
        let (lo, hi, tran) = (self.seek_low, self.seek_high, self.tran);
        let service = self
            .env
            .service(move |_| {
                if adjacent && arng.chance(cluster_factor) {
                    tran
                } else {
                    arng.uniform_duration(lo, hi) + tran
                }
            })
            .await;
        self.facility.use_for(service).await;
    }

    /// Service several blocks in one queue visit (e.g. a multi-page log
    /// force): one seek (unless sequential) plus `blocks` transfers. The
    /// block-train arithmetic runs at a service slot too, like the seek
    /// draws.
    pub async fn access_many(&self, blocks: u64, sequential: bool) {
        if blocks == 0 {
            return;
        }
        let tran = self.tran;
        let service = if sequential {
            self.env.service(move |_| tran * blocks).await
        } else {
            let mut arng = self.split_access_rng();
            let (lo, hi) = (self.seek_low, self.seek_high);
            self.env
                .service(move |_| arng.uniform_duration(lo, hi) + tran * blocks)
                .await
        };
        self.facility.use_for(service).await;
    }

    /// Utilisation since the last statistics reset.
    pub fn utilization(&self) -> f64 {
        self.facility.utilization()
    }

    /// Completed accesses.
    pub fn completions(&self) -> u64 {
        self.facility.completions()
    }

    /// Snapshot the disk facility's statistics for a report.
    pub fn snapshot(&self) -> FacilitySnapshot {
        self.facility.snapshot()
    }

    /// Register the disk's gauges as `<name>.util` / `<name>.qlen`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.facility(&self.facility.name(), &self.facility);
    }

    /// Reset utilisation statistics (end of warm-up).
    pub fn reset_stats(&self) {
        self.facility.reset_stats();
    }
}

/// The server's array of data disks; classes map to disks round-robin.
#[derive(Clone)]
pub struct DiskArray {
    disks: Vec<Disk>,
}

impl DiskArray {
    /// Create `n` data disks.
    pub fn new(env: &Env, params: &SystemParams, rng: &mut Pcg32) -> Self {
        let disks = (0..params.n_data_disks)
            .map(|i| {
                Disk::new(env, format!("data-disk-{i}"), params, rng.split(i as u64))
                    .with_wait_class(WaitClass::DataDisk)
            })
            .collect();
        DiskArray { disks }
    }

    /// The disk holding `class` (classes round-robin over disks, §3.3.2).
    pub fn for_class(&self, class: u16) -> &Disk {
        &self.disks[class as usize % self.disks.len()]
    }

    /// All disks (reports).
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// Highest per-disk utilisation.
    pub fn max_utilization(&self) -> f64 {
        self.disks
            .iter()
            .map(|d| d.utilization())
            .fold(0.0, f64::max)
    }

    /// Reset utilisation statistics on every disk.
    pub fn reset_stats(&self) {
        for d in &self.disks {
            d.reset_stats();
        }
    }

    /// Snapshot every disk's statistics for a report.
    pub fn snapshots(&self) -> Vec<FacilitySnapshot> {
        self.disks.iter().map(|d| d.snapshot()).collect()
    }

    /// Register per-disk gauges plus the array-wide `disk.data.max_util`.
    pub fn register_metrics(&self, registry: &Registry) {
        for d in &self.disks {
            d.register_metrics(registry);
        }
        let this = self.clone();
        registry.gauge("disk.data.max_util", move || this.max_utilization());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_des::{Sim, SimTime};
    use std::cell::Cell;

    fn params() -> SystemParams {
        SystemParams::table5()
    }

    #[test]
    fn fixed_seek_access_time() {
        let sim = Sim::new();
        let env = sim.env();
        let mut p = params();
        p.seek_low = SimDuration::from_millis(10);
        p.seek_high = SimDuration::from_millis(10);
        let d = Disk::new(&env, "d", &p, Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                d.access(false).await;
            });
        }
        sim.run();
        // 10ms seek + 2ms transfer.
        assert_eq!(sim.now(), SimTime::from_nanos(12_000_000));
    }

    #[test]
    fn sequential_access_skips_seek() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &params(), Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                d.access(true).await;
            });
        }
        sim.run();
        assert_eq!(sim.now(), SimTime::from_nanos(2_000_000));
    }

    #[test]
    fn accesses_queue_fcfs() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &params(), Pcg32::new(1, 1));
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let d = d.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                d.access(true).await;
                done.set(done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 3);
        // Three sequential transfers serialised: 6ms.
        assert_eq!(sim.now(), SimTime::from_nanos(6_000_000));
        assert_eq!(d.completions(), 3);
    }

    #[test]
    fn access_many_charges_one_seek() {
        let sim = Sim::new();
        let env = sim.env();
        let mut p = params();
        p.seek_low = SimDuration::from_millis(20);
        p.seek_high = SimDuration::from_millis(20);
        let d = Disk::new(&env, "d", &p, Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                d.access_many(4, false).await;
            });
        }
        sim.run();
        // 20ms + 4 x 2ms.
        assert_eq!(sim.now(), SimTime::from_nanos(28_000_000));
    }

    #[test]
    fn access_many_zero_blocks_is_free() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &params(), Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                d.access_many(0, false).await;
            });
        }
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn seek_times_within_bounds() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &params(), Pcg32::new(5, 2));
        // Access repeatedly; each completes within [2ms, 46ms].
        let times = Rc::new(RefCell::new(Vec::new()));
        {
            let d = d.clone();
            let env = env.clone();
            let times = Rc::clone(&times);
            sim.spawn(async move {
                for _ in 0..200 {
                    let t0 = env.now();
                    d.access(false).await;
                    times.borrow_mut().push(env.now().since(t0));
                }
            });
        }
        sim.run();
        for &t in times.borrow().iter() {
            assert!(t >= SimDuration::from_millis(2));
            assert!(t <= SimDuration::from_millis(46));
        }
    }

    #[test]
    fn disk_array_maps_classes_round_robin() {
        let sim = Sim::new();
        let env = sim.env();
        let mut rng = Pcg32::new(1, 1);
        let arr = DiskArray::new(&env, &params(), &mut rng);
        assert_eq!(arr.disks().len(), 2);
        // Same disk object for classes 0 and 2.
        let d0 = arr.for_class(0);
        let d2 = arr.for_class(2);
        assert_eq!(d0.facility.name(), d2.facility.name());
        let d1 = arr.for_class(1);
        assert_ne!(d0.facility.name(), d1.facility.name());
    }
}

#[cfg(test)]
mod cluster_tests {
    use super::*;
    use ccdb_des::{Sim, SimTime};
    use ccdb_model::ClassId;

    fn page(class: u16, atom: u32) -> PageId {
        PageId {
            class: ClassId(class),
            atom,
        }
    }

    fn fixed_seek_params(ms: u64) -> SystemParams {
        let mut p = SystemParams::table5();
        p.seek_low = SimDuration::from_millis(ms);
        p.seek_high = SimDuration::from_millis(ms);
        p
    }

    #[test]
    fn clustered_run_pays_one_seek() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &fixed_seek_params(10), Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                for atom in 5..9 {
                    d.access_page(page(0, atom), 1.0).await;
                }
            });
        }
        sim.run();
        // One 10ms seek + four 2ms transfers.
        assert_eq!(sim.now(), SimTime::from_nanos(18_000_000));
    }

    #[test]
    fn unclustered_pages_always_seek() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &fixed_seek_params(10), Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                for atom in 5..9 {
                    d.access_page(page(0, atom), 0.0).await;
                }
            });
        }
        sim.run();
        // Four seeks + four transfers despite adjacency.
        assert_eq!(sim.now(), SimTime::from_nanos(48_000_000));
    }

    #[test]
    fn non_adjacent_or_cross_class_accesses_seek() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &fixed_seek_params(10), Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                d.access_page(page(0, 5), 1.0).await;
                d.access_page(page(0, 7), 1.0).await; // gap
                d.access_page(page(1, 8), 1.0).await; // other class
            });
        }
        sim.run();
        assert_eq!(sim.now(), SimTime::from_nanos(36_000_000));
    }

    #[test]
    fn interleaved_requests_break_runs() {
        let sim = Sim::new();
        let env = sim.env();
        let d = Disk::new(&env, "d", &fixed_seek_params(10), Pcg32::new(1, 1));
        {
            let d = d.clone();
            sim.spawn(async move {
                d.access_page(page(0, 5), 1.0).await;
                d.access_page(page(0, 6), 1.0).await;
            });
        }
        {
            let d = d.clone();
            sim.spawn(async move {
                d.access_page(page(3, 40), 1.0).await;
            });
        }
        sim.run();
        // The interloper submits before page (0,6): all three seek... the
        // exact total depends on submission order; just require more than
        // the fully-clustered time for three transfers.
        assert!(sim.now() > SimTime::from_nanos(26_000_000));
    }
}
