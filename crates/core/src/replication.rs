//! Replicated runs: independent replications with cross-seed confidence
//! intervals — the standard output-analysis methodology for terminating
//! simulations (the per-run CI in [`RunReport`] treats transaction
//! response times as independent, which under heavy contention they are
//! not; replication does not need that assumption).
//!
//! Two consumption styles:
//!
//! * [`run_replicated`] keeps every [`RunReport`] (callers that inspect
//!   individual replications);
//! * [`run_replicated_folded`] / [`ReplicationAccumulator`] fold each
//!   report into O(1) aggregate state as it completes, so arbitrarily
//!   long replication series never buffer all reports in memory — this
//!   is the path the sweep orchestrator and the CLI use.

use ccdb_des::Tally;
use ccdb_obs::{MergedSeries, MergedSnapshot, SeriesMerger, SnapshotMerger};

use crate::config::SimConfig;
use crate::metrics::RunReport;
use crate::runner::{run_simulation, run_simulation_observed, ObsOptions};
use crate::trace::Trace;

/// Streaming aggregation of replications: push per-run reports, read the
/// cross-seed aggregate at any point. Memory is O(1) in the number of
/// replications.
#[derive(Clone, Debug, Default)]
pub struct ReplicationAccumulator {
    resp: Tally,
    tput: Tally,
    commits: u64,
    aborts: u64,
}

impl ReplicationAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        ReplicationAccumulator::default()
    }

    /// Fold one replication's report in.
    pub fn push(&mut self, r: &RunReport) {
        self.push_values(r.resp_time_mean, r.throughput, r.commits, r.aborts);
    }

    /// Fold one replication's headline values in without a full
    /// [`RunReport`] — the replay path for checkpointed sweep records,
    /// which persist exactly these four quantities. Folding replayed
    /// values produces bit-identical aggregates to folding the original
    /// reports (the JSONL writer uses shortest-round-trip floats).
    pub fn push_values(&mut self, resp_time_mean: f64, throughput: f64, commits: u64, aborts: u64) {
        self.resp.record(resp_time_mean);
        self.tput.record(throughput);
        self.commits += commits;
        self.aborts += aborts;
    }

    /// Number of replications folded so far.
    pub fn count(&self) -> u32 {
        self.resp.count() as u32
    }

    /// The cross-replication aggregate at this point.
    pub fn aggregate(&self) -> ReplicationAggregate {
        ReplicationAggregate {
            replications: self.count(),
            resp_time_mean: self.resp.mean(),
            resp_time_ci95: self.resp.ci95_half_width(),
            throughput_mean: self.tput.mean(),
            throughput_ci95: self.tput.ci95_half_width(),
            commits: self.commits,
            aborts: self.aborts,
        }
    }
}

/// Cross-seed aggregate of `replications` independent runs, without the
/// per-run reports (see [`ReplicatedReport`] for the buffered variant).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicationAggregate {
    /// Number of replications aggregated.
    pub replications: u32,
    /// Mean of the per-run mean response times.
    pub resp_time_mean: f64,
    /// 95% half-width of the response-time mean across replications.
    pub resp_time_ci95: f64,
    /// Mean throughput across replications.
    pub throughput_mean: f64,
    /// 95% half-width of the throughput across replications.
    pub throughput_ci95: f64,
    /// Total commits across replications.
    pub commits: u64,
    /// Total aborts across replications.
    pub aborts: u64,
}

impl ReplicationAggregate {
    /// Relative half-width of the response-time estimate (0 when the mean
    /// is 0); the usual stopping criterion for adding replications.
    pub fn resp_relative_precision(&self) -> f64 {
        if self.resp_time_mean == 0.0 {
            0.0
        } else {
            self.resp_time_ci95 / self.resp_time_mean
        }
    }
}

/// Aggregate of `n` independent replications of one configuration,
/// retaining every per-run report.
#[derive(Clone, Debug)]
pub struct ReplicatedReport {
    /// The reports of the individual replications, in seed order.
    pub runs: Vec<RunReport>,
    /// Mean of the per-run mean response times.
    pub resp_time_mean: f64,
    /// 95% half-width of the response-time mean across replications.
    pub resp_time_ci95: f64,
    /// Mean throughput across replications.
    pub throughput_mean: f64,
    /// 95% half-width of the throughput across replications.
    pub throughput_ci95: f64,
    /// Total commits across replications.
    pub commits: u64,
    /// Total aborts across replications.
    pub aborts: u64,
}

impl ReplicatedReport {
    /// Relative half-width of the response-time estimate (0 when the mean
    /// is 0); the usual stopping criterion for adding replications.
    pub fn resp_relative_precision(&self) -> f64 {
        if self.resp_time_mean == 0.0 {
            0.0
        } else {
            self.resp_time_ci95 / self.resp_time_mean
        }
    }
}

/// The seed of replication `k` of a base configuration: `cfg.seed + k`
/// (wrapping). Centralised so every replication consumer — serial,
/// folded, and the parallel sweep — derives identical seeds.
pub fn replication_seed(base_seed: u64, k: u32) -> u64 {
    base_seed.wrapping_add(k as u64)
}

/// Run `replications` independent copies of `cfg`, differing only in the
/// seed (derived as `cfg.seed + k`), and aggregate, keeping every report.
pub fn run_replicated(cfg: SimConfig, replications: u32) -> ReplicatedReport {
    assert!(replications > 0, "need at least one replication");
    let base_seed = cfg.seed;
    let mut runs = Vec::with_capacity(replications as usize);
    let mut acc = ReplicationAccumulator::new();
    for k in 0..replications {
        let r = run_simulation(cfg.clone().with_seed(replication_seed(base_seed, k)));
        acc.push(&r);
        runs.push(r);
    }
    let agg = acc.aggregate();
    ReplicatedReport {
        runs,
        resp_time_mean: agg.resp_time_mean,
        resp_time_ci95: agg.resp_time_ci95,
        throughput_mean: agg.throughput_mean,
        throughput_ci95: agg.throughput_ci95,
        commits: agg.commits,
        aborts: agg.aborts,
    }
}

/// [`run_replicated`] without buffering: each report is folded into the
/// accumulator and dropped, so memory stays O(1) however long the series.
pub fn run_replicated_folded(cfg: SimConfig, replications: u32) -> ReplicationAggregate {
    assert!(replications > 0, "need at least one replication");
    let base_seed = cfg.seed;
    let mut acc = ReplicationAccumulator::new();
    for k in 0..replications {
        acc.push(&run_simulation(
            cfg.clone().with_seed(replication_seed(base_seed, k)),
        ));
    }
    acc.aggregate()
}

/// Cross-replication aggregate carrying the full observability fold:
/// headline aggregate, merged end-of-run metrics, and (when sampling was
/// enabled) the merged time series.
#[derive(Clone, Debug)]
pub struct ReplicatedObserved {
    /// Headline cross-seed aggregate (same fold as
    /// [`run_replicated_folded`]).
    pub aggregate: ReplicationAggregate,
    /// Every registered metric merged across replications.
    pub metrics: MergedSnapshot,
    /// Merged metric trajectories; `None` when `obs.sample_interval` was
    /// unset.
    pub series: Option<MergedSeries>,
}

/// [`run_replicated_folded`] with the observability fold: each
/// replication's end-of-run snapshot goes through a
/// [`SnapshotMerger`] and, when sampling is enabled, its series through
/// a [`SeriesMerger`] — O(1) memory in the number of replications.
pub fn run_replicated_observed(
    cfg: SimConfig,
    replications: u32,
    obs: ObsOptions,
) -> ReplicatedObserved {
    assert!(replications > 0, "need at least one replication");
    let base_seed = cfg.seed;
    let mut acc = ReplicationAccumulator::new();
    let mut snapshots = SnapshotMerger::new();
    let mut series = SeriesMerger::new();
    for k in 0..replications {
        let observed = run_simulation_observed(
            cfg.clone().with_seed(replication_seed(base_seed, k)),
            Trace::disabled(),
            obs.clone(),
        );
        acc.push(&observed.report);
        snapshots.push(&observed.snapshot);
        if let Some(set) = &observed.series {
            series.push(set);
        }
    }
    ReplicatedObserved {
        aggregate: acc.aggregate(),
        metrics: snapshots.finish().expect("at least one replication ran"),
        series: series.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use ccdb_des::SimDuration;

    fn quick() -> SimConfig {
        SimConfig::table5(Algorithm::TwoPhase { inter: true })
            .with_clients(5)
            .with_locality(0.5)
            .with_prob_write(0.2)
            .with_horizon(SimDuration::from_secs(2), SimDuration::from_secs(15))
    }

    #[test]
    fn replications_differ_but_agree_statistically() {
        let rep = run_replicated(quick(), 4);
        assert_eq!(rep.runs.len(), 4);
        // Distinct seeds -> distinct trajectories.
        assert!(
            rep.runs.windows(2).any(|w| w[0].events != w[1].events),
            "replications must not be identical"
        );
        // But the same regime.
        assert!(rep.resp_relative_precision() < 0.5);
        assert_eq!(rep.commits, rep.runs.iter().map(|r| r.commits).sum::<u64>());
    }

    #[test]
    fn single_replication_has_no_ci() {
        let rep = run_replicated(quick(), 1);
        assert_eq!(rep.resp_time_ci95, 0.0);
        assert_eq!(rep.runs.len(), 1);
    }

    #[test]
    fn ci_shrinks_with_more_replications() {
        let few = run_replicated(quick(), 2);
        let many = run_replicated(quick(), 6);
        // Not guaranteed pointwise, but with identical seeds prefixes the
        // 6-rep CI uses the same spread over more samples.
        assert!(many.resp_time_ci95 <= few.resp_time_ci95 * 2.0);
        assert!(many.resp_time_mean > 0.0);
    }

    #[test]
    fn folded_path_matches_buffered_aggregates() {
        let buffered = run_replicated(quick(), 3);
        let folded = run_replicated_folded(quick(), 3);
        assert_eq!(folded.replications, 3);
        assert_eq!(folded.resp_time_mean, buffered.resp_time_mean);
        assert_eq!(folded.resp_time_ci95, buffered.resp_time_ci95);
        assert_eq!(folded.throughput_mean, buffered.throughput_mean);
        assert_eq!(folded.throughput_ci95, buffered.throughput_ci95);
        assert_eq!(folded.commits, buffered.commits);
        assert_eq!(folded.aborts, buffered.aborts);
    }

    #[test]
    fn accumulator_counts_and_precision() {
        let mut acc = ReplicationAccumulator::new();
        assert_eq!(acc.count(), 0);
        for k in 0..2 {
            acc.push(&crate::runner::run_simulation(
                quick().with_seed(replication_seed(0xCCDB, k)),
            ));
        }
        assert_eq!(acc.count(), 2);
        let agg = acc.aggregate();
        assert!(agg.resp_time_mean > 0.0);
        assert!(agg.resp_relative_precision() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = run_replicated(quick(), 0);
    }

    #[test]
    fn observed_fold_matches_folded_and_merges_series() {
        let obs = ObsOptions {
            sample_interval: Some(SimDuration::from_secs(1)),
            ring_capacity: 8,
        };
        let observed = run_replicated_observed(quick(), 2, obs);
        assert_eq!(observed.aggregate, run_replicated_folded(quick(), 2));
        assert_eq!(observed.metrics.replications, 2);
        let series = observed.series.expect("sampling was enabled");
        assert_eq!(series.replications, 2);
        assert!(!series.is_empty());
        assert!(series.len() <= 8);
        // Every replication ran to the same 17s horizon, so the merged
        // grid ends exactly there.
        assert_eq!(series.times.last(), Some(&17.0));
        assert!(series.col("server.cpu.util").is_some());
    }

    #[test]
    fn observed_without_sampling_has_no_series() {
        let observed = run_replicated_observed(quick(), 1, ObsOptions::default());
        assert!(observed.series.is_none());
        assert!(!observed.metrics.entries.is_empty());
    }
}
