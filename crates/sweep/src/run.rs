//! Executing a [`SweepSpec`]: wave-based scheduling, streaming per-job
//! records, and per-cell cross-replication merging.
//!
//! A sweep runs in **waves**. The first wave holds
//! [`Replication::initial`] jobs per cell; after each wave every cell's
//! aggregate is consulted and cells still failing the stopping rule
//! contribute one more job to the next wave. Because each run is a pure
//! function of its configuration, the set of follow-up jobs — and the
//! final output — is identical for every worker count; only wall-clock
//! time and the completion order of the streaming callback vary.

use std::collections::BTreeMap;

use ccdb_core::runner::{run_simulation_observed, ObsOptions};
use ccdb_core::trace::Trace;
use ccdb_core::{replication_seed, ReplicationAccumulator, ReplicationAggregate, RunReport};
use ccdb_obs::{
    LatencyHistogram, MergedSeries, MergedSnapshot, SeriesMerger, SeriesSet, Snapshot,
    SnapshotMerger,
};

use crate::scheduler::run_indexed_catching;
use crate::spec::{Cell, SweepSpec};

/// Per-replication summary kept in the per-cell record (the full
/// [`RunReport`] is folded and dropped, not buffered).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    /// The seed this replication ran with.
    pub seed: u64,
    /// Mean response time (s).
    pub resp_time_mean: f64,
    /// Throughput (committed txns per second).
    pub throughput: f64,
    /// Commits in the measurement window.
    pub commits: u64,
    /// Aborts in the measurement window.
    pub aborts: u64,
}

impl RunSummary {
    fn from_report(r: &RunReport) -> RunSummary {
        RunSummary {
            seed: r.seed,
            resp_time_mean: r.resp_time_mean,
            throughput: r.throughput,
            commits: r.commits,
            aborts: r.aborts,
        }
    }
}

/// One completed cell: its axes, the cross-replication aggregate, the
/// per-replication summaries (seed order), and the merged metrics
/// snapshot.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The cell's grid coordinates.
    pub cell: Cell,
    /// Cross-replication aggregate (means, 95% CIs, totals).
    pub aggregate: ReplicationAggregate,
    /// Per-replication summaries, in seed order.
    pub runs: Vec<RunSummary>,
    /// Every registry metric merged across the cell's replications
    /// (counters summed, gauges averaged).
    pub metrics: MergedSnapshot,
    /// Metric trajectories merged across the cell's replications onto a
    /// common grid; `None` unless the spec enabled series sampling.
    pub series: Option<MergedSeries>,
    /// Labelled latency histograms merged (bucket-wise) across the
    /// cell's replications, in first-seen label order.
    pub hists: Vec<(String, LatencyHistogram)>,
}

/// One finished job, handed to the streaming callback as it completes.
///
/// Carries everything needed to *replay* the job into the per-cell
/// accumulators without re-running it — which is what makes the JSONL
/// stream of these records a write-ahead log (`crate::checkpoint`) and
/// shard streams mergeable (`crate::merge`).
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Global job index: deterministic (assigned at wave construction),
    /// even though completion order is not.
    pub job: usize,
    /// Index of the cell in [`SweepSpec::cells`] order.
    pub cell_index: usize,
    /// Replication number within the cell (0-based).
    pub replication: u32,
    /// The cell's grid coordinates.
    pub cell: Cell,
    /// This replication's results.
    pub summary: RunSummary,
    /// The run's end-of-run metrics snapshot (feeds the cell's
    /// `SnapshotMerger` on replay).
    pub snapshot: Snapshot,
    /// The run's sampled series (feeds the cell's `SeriesMerger` on
    /// replay); present exactly when the spec enables series sampling.
    pub series: Option<SeriesSet>,
    /// The run's labelled latency histograms (feed the cell's histogram
    /// fold on replay). Always present for freshly executed jobs; `None`
    /// only when parsed from a stream written before histograms existed
    /// — such a record cannot resume a current sweep.
    pub hists: Option<Vec<(String, LatencyHistogram)>>,
}

/// Checkpointed job records keyed by global job index — the replay input
/// of [`run_sweep_resumed`] (parsed from a stream by
/// `crate::checkpoint::parse_log`).
pub type JobCache = BTreeMap<usize, JobRecord>;

/// Everything a finished sweep produced.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The spec that ran.
    pub spec: SweepSpec,
    /// One report per cell, in [`SweepSpec::cells`] order.
    pub cells: Vec<CellReport>,
    /// Total number of jobs (simulation runs) executed.
    pub jobs: usize,
}

struct CellState {
    acc: ReplicationAccumulator,
    merger: SnapshotMerger,
    series: SeriesMerger,
    hists: Vec<(String, LatencyHistogram)>,
    runs: Vec<RunSummary>,
}

/// Merge labelled histograms into a cell's accumulator, unioning labels
/// in first-seen order. Deterministic because the fold walks jobs in
/// job-index order, and bit-exact for any fold split because histogram
/// merging is associative (integer bucket counts, max of maxima).
fn fold_hists(into: &mut Vec<(String, LatencyHistogram)>, hists: &[(String, LatencyHistogram)]) {
    for (label, h) in hists {
        match into.iter_mut().find(|(l, _)| l == label) {
            Some((_, acc)) => acc.merge(h),
            None => into.push((label.clone(), h.clone())),
        }
    }
}

/// Run every job of `spec` on `workers` threads; `on_job` observes each
/// job as it completes (streaming, completion order). The returned
/// result is byte-identical for any `workers` value.
pub fn run_sweep(spec: &SweepSpec, workers: usize, on_job: impl FnMut(&JobRecord)) -> SweepResult {
    run_sweep_sharded(spec, workers, None, on_job).expect("an unsharded sweep cannot fail")
}

/// [`run_sweep`] restricted to a slice of the job grid: with
/// `shard = Some((i, n))` (1-based `i`), only jobs whose global index
/// satisfies `job % n == i - 1` run on this invocation. Job indices,
/// replication numbers, and per-run seeds are identical to the unsharded
/// sweep, so the streamed [`JobRecord`]s from all `n` shards are disjoint
/// and their union is exactly the unsharded job set — separate machines
/// can each take a shard and the merged JSONL is the same corpus.
///
/// Sharding requires [`Replication::Fixed`](crate::Replication::Fixed):
/// the adaptive stopping rule
/// inspects every replication of a cell, which a single shard does not
/// hold. Cells that end up with zero jobs on this shard are omitted from
/// [`SweepResult::cells`]; [`SweepResult::jobs`] counts only the jobs
/// this shard ran.
pub fn run_sweep_sharded(
    spec: &SweepSpec,
    workers: usize,
    shard: Option<(u32, u32)>,
    on_job: impl FnMut(&JobRecord),
) -> Result<SweepResult, String> {
    run_sweep_resumed(spec, workers, shard, &JobCache::new(), on_job)
}

/// [`run_sweep_sharded`] resuming from a checkpoint: jobs present in
/// `cache` are not re-run — their records are replayed into the per-cell
/// accumulators at exactly the point of the fold where the live run
/// would have put them, so the result (and the rendered document) is
/// **byte-identical to an uninterrupted run**. `on_job` fires only for
/// freshly executed jobs; replayed ones are already in the log the cache
/// came from.
///
/// Fails if a cached record contradicts the spec's grid (wrong cell
/// axes, replication number, or seed for its job index) — the cache was
/// written by a different sweep and must not be stitched into this one.
///
/// A panicking simulation job aborts the sweep, but only after every
/// other job of its wave has finished and streamed through `on_job` (so
/// a checkpoint retains them); the re-raised panic names the job index
/// and its cell axes.
pub fn run_sweep_resumed(
    spec: &SweepSpec,
    workers: usize,
    shard: Option<(u32, u32)>,
    cache: &JobCache,
    mut on_job: impl FnMut(&JobRecord),
) -> Result<SweepResult, String> {
    if let Some((i, n)) = shard {
        if n == 0 || i == 0 || i > n {
            return Err(format!("shard {i}/{n}: need 1 <= i <= n"));
        }
        if !matches!(spec.replication, crate::spec::Replication::Fixed(_)) {
            return Err(
                "sharding requires fixed replication; the adaptive stopping rule \
                 needs every replication of a cell on one machine"
                    .to_string(),
            );
        }
    }

    let cells = spec.cells();
    let mut states: Vec<CellState> = cells
        .iter()
        .map(|_| CellState {
            acc: ReplicationAccumulator::new(),
            merger: SnapshotMerger::new(),
            series: SeriesMerger::new(),
            hists: Vec::new(),
            runs: Vec::new(),
        })
        .collect();
    let obs = ObsOptions {
        sample_interval: spec.series.map(|s| s.interval),
        ring_capacity: spec
            .series
            .map(|s| s.capacity)
            .unwrap_or_else(|| ObsOptions::default().ring_capacity),
    };

    // First wave: the initial replication count for every cell. Global
    // job indices are assigned over the FULL grid before the shard filter
    // drops the other shards' jobs, so indices (and with them seeds and
    // JSONL identity) match the unsharded sweep.
    let initial = spec.replication.initial();
    let mut next_job = 0usize;
    let mut wave: Vec<(usize, usize, u32)> = Vec::new();
    for (ci, _) in cells.iter().enumerate() {
        for k in 0..initial {
            let job = next_job;
            next_job += 1;
            let mine = match shard {
                None => true,
                Some((i, n)) => job as u64 % n as u64 == (i - 1) as u64,
            };
            if mine {
                wave.push((job, ci, k));
            }
        }
    }

    let mut jobs = 0usize;
    while !wave.is_empty() {
        // Split the wave: jobs with a cached record replay, the rest run.
        // A cached record must agree with the grid position its job index
        // implies, or the cache belongs to some other sweep.
        let mut to_run: Vec<(usize, usize, u32)> = Vec::new();
        for &(job, ci, k) in &wave {
            match cache.get(&job) {
                None => to_run.push((job, ci, k)),
                Some(rec) => {
                    if rec.cell_index != ci
                        || rec.replication != k
                        || rec.cell != cells[ci]
                        || rec.summary.seed != replication_seed(spec.seed, k)
                        || rec.series.is_some() != spec.series.is_some()
                        || rec.hists.is_none()
                    {
                        return Err(format!(
                            "checkpoint record for job {job} does not match this \
                             sweep's grid (expected cell {ci}, replication {k}, \
                             seed {}) — was the log written by a different spec?",
                            replication_seed(spec.seed, k)
                        ));
                    }
                }
            }
        }

        let mut fresh = run_indexed_catching(
            &to_run,
            workers,
            |_, &(_job, ci, k)| {
                let cfg = spec.config_for(&cells[ci], k);
                let observed = run_simulation_observed(cfg, Trace::disabled(), obs.clone());
                (observed.report, observed.snapshot, observed.series)
            },
            |i, (report, snapshot, series): &(RunReport, Snapshot, Option<SeriesSet>)| {
                let (job, ci, k) = to_run[i];
                on_job(&JobRecord {
                    job,
                    cell_index: ci,
                    replication: k,
                    cell: cells[ci],
                    summary: RunSummary::from_report(report),
                    snapshot: snapshot.clone(),
                    series: series.clone(),
                    hists: Some(report.hists.clone()),
                });
            },
        );

        // Surface the first panic — with job index and cell axes — only
        // now, after every sibling job has finished and streamed through
        // `on_job` (so a checkpoint log retains their results).
        for (&(job, ci, _), out) in to_run.iter().zip(&fresh) {
            if let Err(msg) = out {
                let cell = &cells[ci];
                panic!(
                    "sweep job {job} ({} clients={} locality={} write_prob={}) panicked: {msg}",
                    cell.algorithm.label(),
                    cell.clients,
                    cell.locality,
                    cell.prob_write,
                );
            }
        }
        jobs += wave.len();

        // Fold results in job-index (= seed) order, interleaving cached
        // replays with fresh outputs: merging is order-sensitive only in
        // floating-point rounding, and this order is the same for every
        // worker count — and for every resume point, because replayed
        // values round-trip bit-exactly through the JSONL log.
        let mut fresh_iter = fresh.drain(..);
        for &(job, ci, _) in &wave {
            let state = &mut states[ci];
            match cache.get(&job) {
                Some(rec) => {
                    state.acc.push_values(
                        rec.summary.resp_time_mean,
                        rec.summary.throughput,
                        rec.summary.commits,
                        rec.summary.aborts,
                    );
                    state.merger.push(&rec.snapshot);
                    if let Some(set) = &rec.series {
                        state.series.push(set);
                    }
                    fold_hists(
                        &mut state.hists,
                        rec.hists.as_ref().expect("validated when the wave split"),
                    );
                    state.runs.push(rec.summary);
                }
                None => {
                    let (report, snapshot, series) = fresh_iter
                        .next()
                        .expect("one output per to-run job")
                        .expect("panics surfaced above");
                    state.acc.push(&report);
                    state.merger.push(&snapshot);
                    if let Some(set) = &series {
                        state.series.push(set);
                    }
                    fold_hists(&mut state.hists, &report.hists);
                    state.runs.push(RunSummary::from_report(&report));
                }
            }
        }

        // A shard runs exactly its slice of the first wave: the stopping
        // rule would otherwise "top up" cells whose other replications
        // deliberately live on other shards.
        if shard.is_some() {
            break;
        }

        // Next wave: one more replication for each cell the stopping rule
        // keeps open. Deterministic because the folded aggregates are.
        wave = states
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let agg = s.acc.aggregate();
                spec.replication
                    .needs_more(s.acc.count(), agg.resp_relative_precision())
            })
            .map(|(ci, s)| {
                let job = next_job;
                next_job += 1;
                (job, ci, s.acc.count())
            })
            .collect();
    }

    let reports = cells
        .iter()
        .zip(states)
        .filter(|(_, state)| state.acc.count() > 0)
        .map(|(cell, state)| CellReport {
            cell: *cell,
            aggregate: state.acc.aggregate(),
            series: state.series.finish(),
            hists: state.hists,
            runs: state.runs,
            metrics: state
                .merger
                .finish()
                .expect("every retained cell ran at least one replication"),
        })
        .collect();
    Ok(SweepResult {
        spec: spec.clone(),
        cells: reports,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Family, Replication, SweepSpec};
    use ccdb_core::{replication_seed, Algorithm};
    use ccdb_des::SimDuration;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            algorithms: vec![Algorithm::TwoPhase { inter: true }, Algorithm::Callback],
            clients: vec![2, 5],
            localities: vec![0.5],
            write_probs: vec![0.2],
            seed: 0xCCDB,
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(10),
            replication: Replication::Fixed(2),
            ..SweepSpec::new(Family::Short)
        }
    }

    #[test]
    fn runs_every_cell_with_fixed_replications() {
        let spec = tiny_spec();
        let mut streamed = Vec::new();
        let result = run_sweep(&spec, 1, |job| streamed.push(job.job));
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.jobs, 8);
        streamed.sort_unstable();
        assert_eq!(streamed, (0..8).collect::<Vec<_>>());
        for cell in &result.cells {
            assert_eq!(cell.aggregate.replications, 2);
            assert_eq!(cell.runs.len(), 2);
            // Replication seeds follow the shared convention.
            assert_eq!(cell.runs[0].seed, replication_seed(spec.seed, 0));
            assert_eq!(cell.runs[1].seed, replication_seed(spec.seed, 1));
            assert!(cell.aggregate.resp_time_mean > 0.0);
            assert_eq!(cell.metrics.replications, 2);
            // Histograms merge across replications: the response
            // histogram holds every committed transaction of the cell.
            let (label, resp) = &cell.hists[0];
            assert_eq!(label, "response");
            assert_eq!(resp.count(), cell.aggregate.commits);
        }
    }

    #[test]
    fn seed_zero_replication_convention_matches_run_replicated() {
        let spec = SweepSpec {
            algorithms: vec![Algorithm::Callback],
            clients: vec![5],
            replication: Replication::Fixed(2),
            ..tiny_spec()
        };
        let result = run_sweep(&spec, 1, |_| {});
        let cfg = spec.config_for(&spec.cells()[0], 0);
        let rep = ccdb_core::run_replicated(cfg.with_seed(spec.seed), 2);
        let agg = result.cells[0].aggregate;
        assert_eq!(agg.resp_time_mean, rep.resp_time_mean);
        assert_eq!(agg.resp_time_ci95, rep.resp_time_ci95);
        assert_eq!(agg.commits, rep.commits);
    }

    #[test]
    fn shards_partition_the_job_grid_exactly() {
        let spec = tiny_spec();
        let full = {
            let mut jobs = Vec::new();
            run_sweep(&spec, 1, |j| {
                jobs.push((j.job, j.cell_index, j.replication))
            });
            jobs.sort_unstable();
            jobs
        };

        let n = 3u32;
        let mut merged = Vec::new();
        let mut per_shard = Vec::new();
        for i in 1..=n {
            let mut jobs = Vec::new();
            let result = run_sweep_sharded(&spec, 2, Some((i, n)), |j| {
                jobs.push((j.job, j.cell_index, j.replication))
            })
            .unwrap();
            assert_eq!(result.jobs, jobs.len(), "jobs counts only this shard");
            // Every retained cell actually ran something.
            for cell in &result.cells {
                assert!(!cell.runs.is_empty());
            }
            per_shard.push(jobs.clone());
            merged.extend(jobs);
        }

        // Disjoint: a job index appears on exactly one shard.
        for a in 0..per_shard.len() {
            for b in a + 1..per_shard.len() {
                for job in &per_shard[a] {
                    assert!(!per_shard[b].contains(job), "job {job:?} ran twice");
                }
            }
        }
        // Union: the merged stream is exactly the unsharded job set, with
        // identical global indices, cell indices, and replication numbers.
        merged.sort_unstable();
        assert_eq!(merged, full);
    }

    #[test]
    fn sharding_rejects_bad_ranges_and_adaptive_replication() {
        let spec = tiny_spec();
        assert!(run_sweep_sharded(&spec, 1, Some((0, 3)), |_| {}).is_err());
        assert!(run_sweep_sharded(&spec, 1, Some((4, 3)), |_| {}).is_err());
        let adaptive = SweepSpec {
            replication: Replication::Adaptive {
                min: 2,
                max: 4,
                target_rel_precision: 0.5,
            },
            ..tiny_spec()
        };
        assert!(run_sweep_sharded(&adaptive, 1, Some((1, 2)), |_| {}).is_err());
    }

    #[test]
    fn resumed_run_matches_uninterrupted_bitwise() {
        let spec = tiny_spec();
        let mut records = Vec::new();
        let full = run_sweep(&spec, 2, |j| records.push(j.clone()));
        // Cache the first half of the jobs; the resumed run must execute
        // (and stream) only the remainder and still agree bit-for-bit.
        let cache: JobCache = records
            .iter()
            .filter(|r| r.job < 4)
            .map(|r| (r.job, r.clone()))
            .collect();
        let mut streamed = Vec::new();
        let resumed = run_sweep_resumed(&spec, 2, None, &cache, |j| streamed.push(j.job)).unwrap();
        streamed.sort_unstable();
        assert_eq!(streamed, (4..8).collect::<Vec<_>>());
        assert_eq!(resumed.jobs, full.jobs);
        for (a, b) in full.cells.iter().zip(&resumed.cells) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.aggregate, b.aggregate);
            assert_eq!(a.runs, b.runs);
            assert_eq!(a.metrics.replications, b.metrics.replications);
            assert_eq!(a.hists, b.hists, "histograms replay bit-exactly");
        }
    }

    #[test]
    fn resume_rejects_histogram_free_records() {
        // A record from a stream written before histograms existed would
        // make the resumed fold diverge from an uninterrupted run.
        let spec = tiny_spec();
        let mut records = Vec::new();
        run_sweep(&spec, 1, |j| records.push(j.clone()));
        let mut stripped = records[0].clone();
        stripped.hists = None;
        let cache: JobCache = [(stripped.job, stripped)].into_iter().collect();
        let err = run_sweep_resumed(&spec, 1, None, &cache, |_| {}).unwrap_err();
        assert!(err.contains("job 0"), "{err}");
    }

    #[test]
    fn resume_rejects_records_from_another_grid() {
        let spec = tiny_spec();
        let mut records = Vec::new();
        run_sweep(&spec, 1, |j| records.push(j.clone()));
        let mut bad = records[0].clone();
        bad.summary.seed ^= 1;
        let cache: JobCache = [(bad.job, bad)].into_iter().collect();
        let err = run_sweep_resumed(&spec, 1, None, &cache, |_| {}).unwrap_err();
        assert!(err.contains("job 0"), "{err}");
    }

    #[test]
    fn series_sampling_merges_per_cell_and_survives_resume() {
        let spec = SweepSpec {
            series: Some(crate::spec::SeriesSampling {
                interval: SimDuration::from_secs(1),
                capacity: 8,
            }),
            ..tiny_spec()
        };
        let mut records = Vec::new();
        let full = run_sweep(&spec, 2, |j| records.push(j.clone()));
        for rec in &records {
            let set = rec.series.as_ref().expect("sampling was enabled");
            assert_eq!(set.dropped(), 0);
            assert!(set.len() <= 8);
        }
        for cell in &full.cells {
            let merged = cell.series.as_ref().expect("sampling was enabled");
            assert_eq!(merged.replications, 2);
            // Both replications share the 12s horizon grid.
            assert_eq!(merged.times.last(), Some(&12.0));
        }
        // Resuming from cached records (series replayed, not re-run)
        // reproduces the merged series exactly.
        let cache: JobCache = records.iter().map(|r| (r.job, r.clone())).collect();
        let resumed =
            run_sweep_resumed(&spec, 1, None, &cache, |_| panic!("everything was cached")).unwrap();
        for (a, b) in full.cells.iter().zip(&resumed.cells) {
            assert_eq!(a.series, b.series);
        }
        // A series-free cache cannot resume a series-enabled sweep.
        let mut stripped = records[0].clone();
        stripped.series = None;
        let cache: JobCache = [(stripped.job, stripped)].into_iter().collect();
        assert!(run_sweep_resumed(&spec, 1, None, &cache, |_| {}).is_err());
    }

    #[test]
    fn adaptive_replication_stops_between_min_and_max() {
        let spec = SweepSpec {
            algorithms: vec![Algorithm::Callback],
            clients: vec![5],
            replication: Replication::Adaptive {
                min: 2,
                max: 4,
                // Loose target: the min wave should already satisfy it in
                // most cells; the cap bounds the rest.
                target_rel_precision: 0.5,
            },
            ..tiny_spec()
        };
        let result = run_sweep(&spec, 2, |_| {});
        let n = result.cells[0].aggregate.replications;
        assert!((2..=4).contains(&n), "got {n} replications");
        // And the adaptive run is itself deterministic.
        let again = run_sweep(&spec, 1, |_| {});
        assert_eq!(again.cells[0].aggregate.replications, n);
        assert_eq!(
            again.cells[0].aggregate.resp_time_mean,
            result.cells[0].aggregate.resp_time_mean
        );
    }
}
