//! MemHEFT — Algorithm 1 of the paper.
//!
//! MemHEFT keeps HEFT's two phases:
//!
//! 1. **task prioritizing** — tasks are sorted by non-increasing upward rank
//!    (mean processing times, half communication costs);
//! 2. **memory selection** — the highest-priority schedulable task is mapped
//!    to the memory minimising its earliest finish time `EFT⁽µ⁾`, where the
//!    earliest start time now also accounts for memory availability
//!    (`task_mem_EST`, `comm_mem_EST`), and then to the processor of that
//!    memory wasting the least idle time.
//!
//! When the highest-priority task fits in neither memory (its `EFT` is `+∞`
//! on both sides), MemHEFT moves down the priority list and tries the next
//! task; it fails — "the graph cannot be processed within the memory
//! bounds" — only when no remaining task can be placed.

use crate::error::ScheduleError;
use crate::incremental::EstCache;
use crate::partial::{CommitEffects, EstBreakdown, PartialSchedule};
use crate::traits::Scheduler;
use mals_dag::{rank, TaskGraph, TaskId};
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::{CancelSignal, ChunkedIndexSet, WorkerPool};

/// Per-schedule scratch buffers of the selection loop: reused across every
/// step so steady state allocates nothing per commit (the allocation-free
/// commit path). `block` holds the priority positions of one parallel probe
/// block, `stale`/`pairs` the cache-refresh fan-out, `effects` the commit
/// record.
#[derive(Debug, Default)]
struct SelectScratch {
    block: Vec<u32>,
    stale: Vec<TaskId>,
    pairs: Vec<[Option<EstBreakdown>; 2]>,
    effects: CommitEffects,
}

/// The MemHEFT scheduler (Algorithm 1 of the paper).
///
/// Solved through [`Solver`](crate::Solver), the per-step scan of the
/// priority list evaluates the ready candidates on `SolveCtx::pool`; the
/// committed placements — and therefore the schedule — stay bit-identical
/// to the sequential run of the [`Scheduler`] entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemHeft;

impl MemHeft {
    /// Creates a MemHEFT scheduler.
    pub fn new() -> Self {
        MemHeft
    }
}

/// The shared MemHEFT-family selection engine: scan `order` from the front,
/// commit the first task that is both ready and memory-feasible, restart.
///
/// `order` must contain every task exactly once. This entry point is shared
/// with the ablation variants (`mals_sched::ablation`), which only change
/// how the priority list is built; `prefer_red` flips the memory chosen on
/// exact EFT ties (the ablation variants exercise both policies).
///
/// `pool` spreads the EST evaluations of the ready candidates over an
/// externally owned worker pool (`None` or a 1-thread pool: sequential
/// scan). The committed placements — and therefore the schedule — are
/// bit-identical for every pool size, because the parallel scan evaluates
/// the same candidates against the same immutable state and keeps the first
/// feasible one in priority order.
///
/// The loop is incremental (the tentpole of the scaling refactor): the ready
/// candidates are kept in a priority-position-ordered set maintained by
/// [`PartialSchedule::commit`] instead of being rediscovered by an `O(n)`
/// scan of the whole priority list at every step, and every EST evaluation
/// goes through an exact [`EstCache`] that survives commits which did not
/// touch the state the evaluation read. The committed task is still, at
/// every step, the first ready task in priority order whose evaluation is
/// feasible — the cache returns the same bits a fresh evaluation would — so
/// the schedule is unchanged from the scan-everything engine.
///
/// `cancel` is polled once per committed task: when it trips, the loop
/// returns [`ScheduleError::Cancelled`] without committing anything further
/// (partial placements are discarded — a prefix of a schedule is not a
/// schedule). [`CancelSignal::default`] never trips.
pub fn schedule_with_priority_pooled(
    graph: &TaskGraph,
    platform: &Platform,
    order: &[TaskId],
    pool: Option<&WorkerPool>,
    prefer_red: bool,
    cancel: CancelSignal<'_>,
) -> Result<Schedule, ScheduleError> {
    graph.validate()?;
    debug_assert_eq!(
        order.len(),
        graph.n_tasks(),
        "priority list must cover every task"
    );
    let mut position_of = vec![u32::MAX; graph.n_tasks()];
    for (position, &task) in order.iter().enumerate() {
        position_of[task.index()] = position as u32;
    }
    let mut partial = PartialSchedule::new(graph, platform);
    // The ready candidates, keyed by priority-list position (chunked storage
    // for the same reason `PartialSchedule` uses it: at 10⁵ tasks the
    // frontier holds thousands of candidates, past the point where a flat
    // vector's insert memmove dominates).
    let mut positions: Vec<u32> = partial
        .ready_iter()
        .map(|task| position_of[task.index()])
        .collect();
    positions.sort_unstable();
    let mut ready = ChunkedIndexSet::from_sorted(positions);
    let mut cache = EstCache::new(graph.n_tasks());
    let mut scratch = SelectScratch::default();
    let pool = pool.filter(|p| p.threads() > 1);

    while !partial.is_complete() {
        if cancel.is_cancelled() {
            return Err(ScheduleError::Cancelled {
                scheduled: partial.n_scheduled(),
                total: graph.n_tasks(),
            });
        }
        let mut chosen = None;
        match pool {
            None => {
                // Scan the ready candidates in priority order; the cache
                // skips every evaluation whose inputs no commit touched.
                for position in ready.iter() {
                    let task = order[position as usize];
                    if let Some(breakdown) = cache.best(&partial, task, prefer_red) {
                        chosen = Some((position, task, breakdown));
                        break;
                    }
                }
            }
            Some(pool) => {
                chosen = first_feasible_par(
                    &partial,
                    order,
                    &ready,
                    &mut cache,
                    prefer_red,
                    pool,
                    &mut scratch,
                );
            }
        }
        // No ready task fits in either memory, now or ever.
        let Some((position, task, breakdown)) = chosen else {
            return partial.finish_or_error();
        };
        partial.commit_into(task, &breakdown, &mut scratch.effects);
        ready.remove(position);
        for &child in &scratch.effects.newly_ready {
            ready.insert(position_of[child.index()]);
        }
        cache.apply(&scratch.effects);
    }
    partial.finish_or_error()
}

/// The parallel variant of one selection step: probe the head of the ready
/// list inline (with ample memory it is almost always feasible, making the
/// step as cheap as the sequential scan), then evaluate the stale candidates
/// in pool-sized blocks — a block bounds the work wasted past the first
/// feasible task while still giving every thread work per step.
fn first_feasible_par(
    partial: &PartialSchedule<'_>,
    order: &[TaskId],
    ready: &ChunkedIndexSet,
    cache: &mut EstCache,
    prefer_red: bool,
    pool: &WorkerPool,
    scratch: &mut SelectScratch,
) -> Option<(u32, TaskId, EstBreakdown)> {
    let head = ready.first()?;
    let head_task = order[head as usize];
    if let Some(breakdown) = cache.best(partial, head_task, prefer_red) {
        return Some((head, head_task, breakdown));
    }
    let block = (pool.threads() * 4).max(crate::partial::PAR_EVAL_CUTOFF);
    let mut rest = ready.iter().skip(1);
    loop {
        scratch.block.clear();
        scratch.block.extend(rest.by_ref().take(block));
        if scratch.block.is_empty() {
            return None;
        }
        // Fill the cache for the block's stale candidates in one fan-out;
        // fresh entries are reused as-is (their bits cannot differ from a
        // recomputation).
        scratch.stale.clear();
        scratch.stale.extend(
            scratch
                .block
                .iter()
                .map(|&position| order[position as usize])
                .filter(|&task| !cache.is_fresh(task)),
        );
        partial.evaluate_pairs_into(&scratch.stale, pool, &mut scratch.pairs);
        for (&task, &pair) in scratch.stale.iter().zip(scratch.pairs.iter()) {
            cache.store_pair(task, pair);
        }
        for &position in &scratch.block {
            let task = order[position as usize];
            if let Some(breakdown) = cache.best(partial, task, prefer_red) {
                return Some((position, task, breakdown));
            }
        }
    }
}

impl Scheduler for MemHeft {
    fn name(&self) -> &'static str {
        "MemHEFT"
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        // The rank computation itself requires acyclicity.
        graph.validate()?;
        let order = rank::rank_sorted_tasks(graph);
        let cancel = CancelSignal::default();
        schedule_with_priority_pooled(graph, platform, &order, None, false, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_sim::{memory_peaks, validate};
    use mals_util::{ParallelConfig, Pcg64};

    #[test]
    fn schedules_dex_with_ample_memory() {
        let (g, _) = dex();
        let platform = Platform::single_pair(100.0, 100.0);
        let s = MemHeft::new().schedule(&g, &platform).unwrap();
        let report = validate(&g, &platform, &s);
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(s.is_complete(&g));
        // The optimal makespan with both memories >= 5 is 6 (paper, Fig. 3);
        // MemHEFT must at least produce a valid schedule no faster than that.
        assert!(report.makespan >= 6.0 - 1e-9);
    }

    #[test]
    fn respects_memory_bounds_on_dex() {
        let (g, _) = dex();
        for bound in [4.0, 5.0, 6.0, 8.0] {
            let platform = Platform::single_pair(bound, bound);
            match MemHeft::new().schedule(&g, &platform) {
                Ok(s) => {
                    let report = validate(&g, &platform, &s);
                    assert!(report.is_valid(), "bound {bound}: {:?}", report.errors);
                    assert!(report.peaks.blue <= bound + 1e-9);
                    assert!(report.peaks.red <= bound + 1e-9);
                }
                Err(ScheduleError::Infeasible { .. }) => {
                    // Acceptable for tight bounds; the exact solver decides
                    // whether a schedule exists at all.
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn fails_cleanly_when_memory_is_hopeless() {
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let err = MemHeft::new().schedule(&g, &platform).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn matches_unbounded_behaviour_when_memory_is_large() {
        // With memory bounds at least as large as the peaks of the unbounded
        // run, MemHEFT must take exactly the same decisions (paper, §6.2.1).
        let mut rng = Pcg64::new(99);
        let g = mals_gen::daggen::generate(
            &DaggenParams::small_rand(),
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let unbounded = Platform::single_pair(f64::INFINITY, f64::INFINITY);
        let free = MemHeft::new().schedule(&g, &unbounded).unwrap();
        let peaks = memory_peaks(&g, &unbounded, &free);
        let bounded = Platform::single_pair(peaks.blue, peaks.red);
        let constrained = MemHeft::new().schedule(&g, &bounded).unwrap();
        assert_eq!(free, constrained);
    }

    #[test]
    fn random_graphs_produce_valid_schedules() {
        let mut rng = Pcg64::new(7);
        for i in 0..10 {
            let g = mals_gen::daggen::generate(
                &DaggenParams::small_rand(),
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let platform = Platform::new(2, 2, 200.0, 200.0).unwrap();
            let s = MemHeft::new().schedule(&g, &platform).unwrap();
            let report = validate(&g, &platform, &s);
            assert!(report.is_valid(), "graph {i}: {:?}", report.errors);
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MemHeft::new().name(), "MemHEFT");
    }

    /// MemHEFT on a fresh pool of `threads` workers.
    fn memheft_on(
        threads: usize,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<Schedule, ScheduleError> {
        let pool = WorkerPool::new(ParallelConfig::with_threads(threads));
        let order = rank::rank_sorted_tasks(graph);
        let cancel = CancelSignal::default();
        schedule_with_priority_pooled(graph, platform, &order, Some(&pool), false, cancel)
    }

    #[test]
    fn parallel_schedule_is_bit_identical_to_sequential() {
        let mut rng = Pcg64::new(4321);
        for _ in 0..4 {
            let g = mals_gen::daggen::generate(
                &DaggenParams::small_rand(),
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let platform = Platform::new(2, 2, 180.0, 180.0).unwrap();
            let sequential = MemHeft::new().schedule(&g, &platform);
            assert!(sequential.is_ok());
            for threads in [2, 4, 8] {
                let parallel = memheft_on(threads, &g, &platform);
                assert_eq!(sequential, parallel, "{threads} threads diverged");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_agree_on_infeasible_instances() {
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let seq = MemHeft::new().schedule(&g, &platform);
        let par = memheft_on(4, &g, &platform);
        assert!(matches!(seq, Err(ScheduleError::Infeasible { .. })));
        // The whole error, placed-task count included, agrees.
        assert_eq!(seq, par);
    }

    #[test]
    fn rejects_cyclic_graph() {
        let mut g = mals_dag::TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        let platform = Platform::default();
        // The engine rejects it for any priority list, and the ranked entry
        // points reject it before the rank computation (which would panic).
        let cancel = CancelSignal::default();
        let err =
            schedule_with_priority_pooled(&g, &platform, &[a, b], None, false, cancel).unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidGraph(_)));
        for scheduler in [&MemHeft::new() as &dyn Scheduler, &crate::Heft::new()] {
            let err = scheduler.schedule(&g, &platform).unwrap_err();
            assert!(matches!(err, ScheduleError::InvalidGraph(_)));
        }
    }
}
