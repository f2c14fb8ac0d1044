//! Branch-and-bound optimal scheduler.
//!
//! The paper computes optimal makespans for small instances by solving the
//! ILP of Section 4 with CPLEX. This module provides the workspace's
//! stand-in: an exhaustive search over the list-scheduling decision space —
//! at every step, which ready task to commit next and on which memory — using
//! the same placement engine (`mals_sched::PartialSchedule`) as the
//! heuristics, so every leaf is a valid schedule under the memory bounds.
//!
//! Pruning:
//!
//! * the incumbent is initialised with the best of MemHEFT and MemMinMin
//!   (when they succeed), so the search starts with a good upper bound;
//! * a node is cut when `max(makespan so far, ready task earliest start +
//!   its optimistic remaining critical path)` reaches the incumbent;
//! * children are explored best-first (smallest optimistic completion time
//!   first), which makes the node limit graceful: even a truncated search
//!   returns a high-quality schedule.
//!
//! Within this decision space the returned makespan is optimal when the
//! search completes (status `Optimal`). The space excludes schedules that
//! insert deliberate idle time or start transfers earlier than necessary, a
//! restriction shared with all list schedulers; `DESIGN.md` discusses why
//! this is an adequate substitute for the CPLEX runs of the paper.

use crate::bounds::{
    makespan_lower_bound_with_memory, memory_feasibility, optimistic_bottom_levels,
};
use mals_dag::{TaskGraph, TaskId};
use mals_platform::{Memory, Platform};
use mals_sched::{
    MemHeft, MemMinMin, OptimalityStatus, PartialSchedule, SolveCtx, SolveLimits, SolveOutcome,
    Solver,
};
use mals_sim::Schedule;
use mals_util::{CancelSignal, EPSILON};

/// The branch-and-bound optimal scheduler. Its node budget is
/// `ctx.limits.node_limit` of the [`SolveCtx`] it is solved under; past the
/// budget the best schedule found so far is still returned, as
/// [`OptimalityStatus::Feasible`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBound;

struct SearchState<'a> {
    graph: &'a TaskGraph,
    bottom_level: Vec<f64>,
    best_makespan: f64,
    best_schedule: Option<Schedule>,
    nodes: u64,
    node_limit: u64,
    complete: bool,
    cancel: CancelSignal<'a>,
}

impl SearchState<'_> {
    /// True when the search must wind down: node budget exhausted or the
    /// cancel signal tripped. Both lose the optimality proof but keep the
    /// incumbent.
    fn out_of_budget(&mut self) -> bool {
        if self.nodes >= self.node_limit || self.cancel.is_cancelled() {
            self.complete = false;
            true
        } else {
            false
        }
    }
}

/// Maps what a search found onto the unified outcome: a schedule is
/// `Optimal` when the search space was exhausted (`proven`), `Feasible`
/// otherwise; no schedule is `Infeasible` when proven, `LimitHit` otherwise.
pub(crate) fn exact_outcome(schedule: Option<Schedule>, proven: bool, nodes: u64) -> SolveOutcome {
    match (schedule, proven) {
        (Some(schedule), true) => {
            SolveOutcome::with_schedule(schedule, OptimalityStatus::Optimal, nodes)
        }
        (Some(schedule), false) => {
            SolveOutcome::with_schedule(schedule, OptimalityStatus::Feasible, nodes)
        }
        (None, true) => SolveOutcome::without_schedule(OptimalityStatus::Infeasible, nodes),
        (None, false) => SolveOutcome::without_schedule(OptimalityStatus::LimitHit, nodes),
    }
}

impl Solver for BranchAndBound {
    fn name(&self) -> &str {
        "Optimal(B&B)"
    }

    /// The combinatorial search under `ctx.limits.node_limit`, polling
    /// `ctx.cancel` once per expanded node (and inside the heuristic
    /// incumbent seeding, once per commit): when the signal trips, the
    /// search stops without a proof and returns the incumbent found so far,
    /// if any. The pool is unused: the search is sequential by
    /// construction.
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        if let Err(e) = graph.validate() {
            return SolveOutcome::from_heuristic(Err(e.into()));
        }
        if graph.is_empty() {
            return exact_outcome(Some(Schedule::for_graph(graph)), true, 0);
        }

        // Static memory analysis (shared with the MILP backend): a task
        // whose files fit in neither memory proves infeasibility without
        // expanding a single node.
        if memory_feasibility(graph, platform).is_infeasible() {
            return exact_outcome(None, true, 0);
        }

        // A pre-tripped signal stops the solve before the (potentially
        // expensive on large graphs) incumbent seeding.
        let cancel = ctx.cancel;
        if cancel.is_cancelled() {
            return exact_outcome(None, false, 0);
        }

        // Optimistic remaining work below each task (zero communications,
        // faster resource): a valid completion-time bound for any descendant
        // chain of the task.
        let bottom_level = optimistic_bottom_levels(graph);

        // Incumbent: best heuristic schedule, if any. The heuristics observe
        // the same cancel signal per commit, so a mid-seeding trip falls
        // through to the (immediately truncated) search below.
        let mut best_makespan = f64::INFINITY;
        let mut best_schedule = None;
        let seed_ctx = SolveCtx {
            limits: SolveLimits::default(),
            pool: None,
            cancel,
        };
        for heuristic in [&MemHeft::new() as &dyn Solver, &MemMinMin::new()] {
            if let Some(s) = heuristic.solve(graph, platform, &seed_ctx).schedule {
                if s.makespan() < best_makespan {
                    best_makespan = s.makespan();
                    best_schedule = Some(s);
                }
            }
        }

        let mut state = SearchState {
            graph,
            bottom_level,
            best_makespan,
            best_schedule,
            nodes: 0,
            node_limit: ctx.limits.node_limit,
            complete: true,
            cancel,
        };

        // Quick optimality check: the incumbent may already match the global
        // lower bound (strengthened by forced memory placements).
        let global_lb = makespan_lower_bound_with_memory(graph, platform);
        if state.best_makespan <= global_lb + EPSILON {
            return exact_outcome(state.best_schedule, true, 0);
        }

        let root = PartialSchedule::new(graph, platform);
        explore(&root, &mut state);
        exact_outcome(state.best_schedule, state.complete, state.nodes)
    }
}

/// Lower bound on the completion time of any extension of `partial`.
fn partial_lower_bound(partial: &PartialSchedule<'_>, state: &SearchState<'_>) -> f64 {
    let mut lb = partial.makespan();
    for task in state.graph.task_ids() {
        if partial.is_scheduled(task) {
            continue;
        }
        // Earliest conceivable start: every scheduled parent must have
        // finished (communications and memory waits ignored — optimistic).
        let ready_after = state
            .graph
            .parents(task)
            .filter_map(|p| partial.finish_time(p))
            .fold(0.0, f64::max);
        lb = lb.max(ready_after + state.bottom_level[task.index()]);
    }
    lb
}

fn explore(partial: &PartialSchedule<'_>, state: &mut SearchState<'_>) {
    if partial.is_complete() {
        let makespan = partial.makespan();
        if makespan < state.best_makespan - EPSILON {
            state.best_makespan = makespan;
            state.best_schedule = Some(partial.clone().into_schedule());
        }
        return;
    }
    if state.out_of_budget() {
        return;
    }
    state.nodes += 1;

    if partial_lower_bound(partial, state) >= state.best_makespan - EPSILON {
        return; // cannot improve on the incumbent
    }

    // Candidate moves: every (ready task, memory) pair that fits.
    let mut moves: Vec<(TaskId, mals_sched::EstBreakdown)> = Vec::new();
    for task in partial.ready_tasks() {
        for mem in Memory::BOTH {
            if let Some(bd) = partial.evaluate(task, mem) {
                moves.push((task, bd));
            }
        }
    }
    if moves.is_empty() {
        // Dead end: no remaining task fits in either memory.
        return;
    }
    // Best-first: smallest optimistic completion of the committed task.
    moves.sort_by(|a, b| {
        let ka = a.1.eft + state.bottom_level[a.0.index()] - state.graph.task(a.0).min_work();
        let kb = b.1.eft + state.bottom_level[b.0.index()] - state.graph.task(b.0).min_work();
        ka.total_cmp(&kb)
    });

    for (task, bd) in moves {
        let mut child = partial.clone();
        child.commit(task, &bd);
        explore(&child, state);
        if state.out_of_budget() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::makespan_lower_bound;
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_sched::Scheduler;
    use mals_sim::validate;
    use mals_util::Pcg64;

    fn solve(graph: &TaskGraph, platform: &Platform) -> SolveOutcome {
        BranchAndBound.solve(graph, platform, &SolveCtx::sequential())
    }

    #[test]
    fn dex_optimum_with_memory_5_is_6() {
        // The paper (Figures 3/4) states the optimal makespan of D_ex on a
        // 1 blue + 1 red platform with both memory bounds equal to 5 is 6.
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let result = solve(&g, &platform);
        assert!(result.is_optimal());
        assert_eq!(result.makespan(), Some(6.0));
        let report = validate(&g, &platform, &result.schedule.unwrap());
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.peaks.blue <= 5.0 && report.peaks.red <= 5.0);
    }

    #[test]
    fn dex_optimum_with_memory_4_is_slower() {
        // Tightening both bounds to 4 forces a slower schedule (the paper's
        // s2 has makespan 7).
        let (g, _) = dex();
        let platform = Platform::single_pair(4.0, 4.0);
        let result = solve(&g, &platform);
        assert!(result.is_optimal());
        let makespan = result.makespan().expect("a schedule exists with bound 4");
        assert!(
            makespan > 6.0,
            "makespan {makespan} should exceed the bound-5 optimum"
        );
        assert!(
            makespan <= 7.0 + 1e-9,
            "the paper exhibits a schedule of makespan 7"
        );
        let report = validate(&g, &platform, &result.schedule.unwrap());
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(report.peaks.blue <= 4.0 && report.peaks.red <= 4.0);
    }

    #[test]
    fn optimum_never_exceeds_heuristics() {
        let mut rng = Pcg64::new(3);
        for _ in 0..5 {
            let g = mals_gen::daggen::generate(
                &DaggenParams {
                    size: 8,
                    width: 0.4,
                    density: 0.5,
                    jumps: 3,
                },
                &WeightRanges::small_rand(),
                &mut rng,
            );
            let platform = Platform::single_pair(60.0, 60.0);
            let opt = solve(&g, &platform)
                .makespan()
                .expect("feasible with ample memory");
            for heuristic in [&MemHeft::new() as &dyn Scheduler, &MemMinMin::new()] {
                let h = heuristic.schedule(&g, &platform).unwrap();
                assert!(
                    opt <= h.makespan() + 1e-9,
                    "optimal {opt} must not exceed {} ({})",
                    h.makespan(),
                    heuristic.name()
                );
            }
            assert!(opt >= makespan_lower_bound(&g, &platform) - 1e-9);
        }
    }

    #[test]
    fn infeasible_instance_is_proven() {
        let (g, _) = dex();
        // T1's output files alone need 3 units: bound 2 is hopeless.
        let platform = Platform::single_pair(2.0, 2.0);
        let result = solve(&g, &platform);
        assert!(result.schedule.is_none());
        assert_eq!(
            result.status,
            OptimalityStatus::Infeasible,
            "exhaustive search proves infeasibility"
        );
        assert!(result.error.is_none());
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let mut rng = Pcg64::new(9);
        let g = mals_gen::daggen::generate(
            &DaggenParams {
                size: 12,
                width: 0.5,
                density: 0.5,
                jumps: 3,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let platform = Platform::single_pair(100.0, 100.0);
        let ctx = SolveCtx::with_limits(SolveLimits::with_node_limit(50));
        let truncated = BranchAndBound.solve(&g, &platform, &ctx);
        // Even with a tiny budget the incumbent (heuristic) schedule remains.
        assert!(truncated.schedule.is_some());
        assert!(truncated.nodes <= 51);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let r = solve(&g, &Platform::default());
        assert_eq!(r.makespan(), Some(0.0));
        assert!(r.is_optimal());
    }

    #[test]
    fn exact_can_beat_memory_oblivious_ordering_under_tight_memory() {
        // On D_ex with asymmetric bounds the B&B should find a schedule at
        // least as good as both heuristics.
        let (g, _) = dex();
        let platform = Platform::single_pair(4.0, 5.0);
        let opt = solve(&g, &platform).makespan().expect("feasible");
        for heuristic in [&MemHeft::new() as &dyn Scheduler, &MemMinMin::new()] {
            if let Ok(s) = heuristic.schedule(&g, &platform) {
                assert!(opt <= s.makespan() + 1e-9);
            }
        }
    }
}
