//! MemMinMin — Algorithm 2 of the paper.
//!
//! MemMinMin has no static prioritizing phase: at every step it looks at the
//! whole set of *ready* tasks (all predecessors already scheduled), evaluates
//! the memory-aware earliest finish time of each of them on both memories,
//! and commits the task/memory pair with the globally smallest EFT. It fails
//! when no ready task fits in either memory.

use crate::error::ScheduleError;
use crate::incremental::EstCache;
use crate::partial::PartialSchedule;
use crate::traits::Scheduler;
use mals_dag::{TaskGraph, TaskId};
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::{CancelSignal, WorkerPool};

/// The MemMinMin scheduler (Algorithm 2 of the paper).
///
/// Every selection step evaluates the whole ready list; solved through
/// [`Solver`](crate::Solver), those evaluations are spread over
/// `SolveCtx::pool` and the schedule stays bit-identical to the sequential
/// run of the [`Scheduler`] entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemMinMin;

impl MemMinMin {
    /// Creates a MemMinMin scheduler.
    pub fn new() -> Self {
        MemMinMin
    }

    /// Runs the selection loop on an externally owned worker pool (`None` or
    /// a 1-thread pool: sequential). The schedule is bit-identical for every
    /// pool size; callers solving many graphs hold one pool (e.g. via an
    /// `Engine`) to amortise the thread startup.
    ///
    /// The loop is incremental: per-memory evaluations are cached in an
    /// exact [`EstCache`] and only the sides a commit actually touched are
    /// re-evaluated — after a same-memory placement with no cross-memory
    /// transfer, the whole ready list keeps its other-memory evaluations.
    /// The selection itself still scans the ready list in task-id order with
    /// the exact comparison of [`PartialSchedule::best_ready_choice`], so
    /// the chosen placements are unchanged.
    ///
    /// `cancel` is polled once per committed task: when it trips, the loop
    /// returns [`ScheduleError::Cancelled`] instead of committing anything
    /// further. [`CancelSignal::default`] never trips.
    pub fn schedule_pooled(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        pool: Option<&WorkerPool>,
        cancel: CancelSignal<'_>,
    ) -> Result<Schedule, ScheduleError> {
        graph.validate()?;
        let mut partial = PartialSchedule::new(graph, platform);
        let mut cache = EstCache::new(graph.n_tasks());
        let pool = pool.filter(|p| p.threads() > 1);
        // Per-schedule scratch (the allocation-free commit path): the ready
        // snapshot, the stale fan-out and the commit record are refilled in
        // place every step, so steady state allocates nothing per commit.
        let mut ready: Vec<TaskId> = Vec::new();
        let mut stale: Vec<TaskId> = Vec::new();
        let mut pairs = Vec::new();
        let mut effects = crate::partial::CommitEffects::empty();
        while !partial.is_complete() {
            if cancel.is_cancelled() {
                return Err(ScheduleError::Cancelled {
                    scheduled: partial.n_scheduled(),
                    total: graph.n_tasks(),
                });
            }
            ready.clear();
            ready.extend(partial.ready_iter());
            if let Some(pool) = pool {
                // Refresh every stale candidate in one fan-out, then reduce
                // over the (now fresh) cache on the calling thread.
                stale.clear();
                stale.extend(ready.iter().copied().filter(|&task| !cache.is_fresh(task)));
                partial.evaluate_pairs_into(&stale, pool, &mut pairs);
                for (&task, &pair) in stale.iter().zip(pairs.iter()) {
                    cache.store_pair(task, pair);
                }
            }
            let mut best = None;
            for &task in &ready {
                if let Some(breakdown) = cache.best(&partial, task, false) {
                    if PartialSchedule::is_better_choice(&best, task, &breakdown) {
                        best = Some((task, breakdown));
                    }
                }
            }
            match best {
                Some((task, breakdown)) => {
                    partial.commit_into(task, &breakdown, &mut effects);
                    cache.apply(&effects);
                }
                None => return partial.finish_or_error(),
            }
        }
        partial.finish_or_error()
    }
}

impl Scheduler for MemMinMin {
    fn name(&self) -> &'static str {
        "MemMinMin"
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        self.schedule_pooled(graph, platform, None, CancelSignal::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_sim::validate;
    use mals_util::{ParallelConfig, Pcg64};

    #[test]
    fn schedules_dex_within_bounds() {
        let (g, _) = dex();
        for bound in [5.0, 6.0, 10.0] {
            let platform = Platform::single_pair(bound, bound);
            let s = MemMinMin::new().schedule(&g, &platform).unwrap();
            let report = validate(&g, &platform, &s);
            assert!(report.is_valid(), "bound {bound}: {:?}", report.errors);
            assert!(report.peaks.blue <= bound + 1e-9);
            assert!(report.peaks.red <= bound + 1e-9);
        }
    }

    #[test]
    fn fails_cleanly_when_memory_is_hopeless() {
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let err = MemMinMin::new().schedule(&g, &platform).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn greedy_choice_picks_fastest_first_task() {
        // T1 runs in 1 unit on red vs 3 on blue: the first committed task
        // must be T1 on the red memory (it is the only source).
        let (g, [t1, ..]) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let partial = PartialSchedule::new(&g, &platform);
        let (task, bd) = partial.best_ready_choice().unwrap();
        assert_eq!(task, t1);
        assert_eq!(bd.memory, mals_platform::Memory::Red);
        assert_eq!(bd.eft, 1.0);
    }

    #[test]
    fn parallel_schedule_is_bit_identical_to_sequential() {
        let mut rng = Pcg64::new(1234);
        for _ in 0..4 {
            let g = mals_gen::daggen::generate(
                &DaggenParams::small_rand(),
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
            let sequential = MemMinMin::new().schedule(&g, &platform);
            assert!(sequential.is_ok());
            for threads in [2, 4, 8] {
                let pool = WorkerPool::new(ParallelConfig::with_threads(threads));
                let parallel = MemMinMin::new().schedule_pooled(
                    &g,
                    &platform,
                    Some(&pool),
                    CancelSignal::default(),
                );
                assert_eq!(sequential, parallel, "{threads} threads diverged");
            }
        }
    }

    #[test]
    fn random_graphs_produce_valid_schedules() {
        let mut rng = Pcg64::new(21);
        for i in 0..10 {
            let g = mals_gen::daggen::generate(
                &DaggenParams::small_rand(),
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
            let s = MemMinMin::new().schedule(&g, &platform).unwrap();
            let report = validate(&g, &platform, &s);
            assert!(report.is_valid(), "graph {i}: {:?}", report.errors);
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MemMinMin::new().name(), "MemMinMin");
    }

    #[test]
    fn rejects_cyclic_graph() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        let err = MemMinMin::new()
            .schedule(&g, &Platform::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidGraph(_)));
    }
}
