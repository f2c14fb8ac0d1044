//! The unified solver interface.
//!
//! Every solving algorithm of the workspace — heuristic or exact — is a
//! [`Solver`]: a solve takes a task graph, a platform and a [`SolveCtx`]
//! and returns a [`SolveOutcome`] — the schedule, if any, together with an
//! [`OptimalityStatus`] saying *what was proven about it*. The context is
//! the only place a solve reads its budgets, worker pool and cancel signal
//! from; the solvers themselves carry no such knobs.
//!
//! * heuristics return [`OptimalityStatus::Heuristic`] schedules;
//! * exact solvers (`mals_exact`'s `bb` and `milp`) return `Optimal`,
//!   `Feasible` (incumbent without a proof), `Infeasible` or `LimitHit`;
//! * every solver reports an invalid graph alike: `Infeasible` with
//!   [`SolveOutcome::error`] naming the defect.
//!
//! The older [`Scheduler`] trait remains for the heuristics only, as their
//! sequential entry point returning the typed [`ScheduleError`].
//!
//! Solvers are instantiated by name through the
//! [`SolverRegistry`](crate::SolverRegistry) and driven by an
//! [`Engine`](crate::Engine) session that owns the worker pool and the
//! default limits, so callers select algorithms with strings instead of
//! concrete types.

use crate::ablation::MemHeftVariant;
use crate::error::ScheduleError;
use crate::memheft::{schedule_with_priority_pooled, MemHeft};
use crate::memminmin::MemMinMin;
use crate::traits::Scheduler;
use crate::unbounded::Unbounded;
use mals_dag::{rank, TaskGraph};
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::{CancelSignal, CancelToken, Deadline, WorkerPool};

/// Budgets shared by every solver (the heuristics ignore them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveLimits {
    /// Maximum number of search-tree nodes (combinatorial nodes for the
    /// branch-and-bound backend, LP solves for the MILP backend). The MILP
    /// backend's lazy-repair searches draw from a *second* budget of the
    /// same size, so its reported node total is bounded by `2 ×
    /// node_limit`.
    pub node_limit: u64,
    /// Simplex iteration budget per LP solve (MILP backend only).
    pub lp_iteration_limit: u64,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits {
            node_limit: 500_000,
            lp_iteration_limit: 20_000,
        }
    }
}

impl SolveLimits {
    /// Limits with the given node budget and the default LP budget.
    pub fn with_node_limit(node_limit: u64) -> Self {
        SolveLimits {
            node_limit,
            ..SolveLimits::default()
        }
    }
}

/// Per-solve context handed to every [`Solver`]: the budgets, the shared
/// worker pool, and the cooperative cancellation signal, owned by the caller
/// (typically an [`Engine`](crate::Engine)) so that pool startup is
/// amortised across many solves.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveCtx<'a> {
    /// Budgets for exact solvers.
    pub limits: SolveLimits,
    /// Worker pool for within-schedule parallelism (`None`: run
    /// sequentially). A pool of 1 thread is equivalent to `None`.
    pub pool: Option<&'a WorkerPool>,
    /// Cooperative cancellation: solvers poll this once per committed task
    /// (heuristics) or explored node (exact backends) and return
    /// [`OptimalityStatus::LimitHit`] — with the incumbent-so-far, if any —
    /// once it trips. Default: never cancelled.
    pub cancel: CancelSignal<'a>,
}

impl<'a> SolveCtx<'a> {
    /// A sequential context with default limits.
    pub fn sequential() -> SolveCtx<'static> {
        SolveCtx::default()
    }

    /// A sequential context with the given limits.
    pub fn with_limits(limits: SolveLimits) -> SolveCtx<'static> {
        SolveCtx {
            limits,
            ..SolveCtx::default()
        }
    }

    /// A context evaluating on `pool` with the given limits.
    pub fn pooled(limits: SolveLimits, pool: &'a WorkerPool) -> SolveCtx<'a> {
        SolveCtx {
            limits,
            pool: Some(pool),
            cancel: CancelSignal::default(),
        }
    }

    /// Returns a copy observing `token` (replacing any previous token).
    pub fn with_cancel_token(mut self, token: &'a CancelToken) -> SolveCtx<'a> {
        self.cancel.token = Some(token);
        self
    }

    /// Returns a copy observing `deadline` (replacing any previous one).
    pub fn with_deadline(mut self, deadline: Deadline) -> SolveCtx<'a> {
        self.cancel.deadline = Some(deadline);
        self
    }

    /// True once the solve should wind down (token tripped or deadline
    /// passed). Solvers poll this at their per-commit / per-node check
    /// points.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The pool, if it would actually parallelise anything.
    pub fn parallel_pool(&self) -> Option<&'a WorkerPool> {
        self.pool.filter(|p| p.threads() > 1)
    }
}

/// What a [`SolveOutcome`] proves about its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimalityStatus {
    /// The schedule is provably optimal (within the solver's decision
    /// space).
    Optimal,
    /// The schedule was produced by a polynomial heuristic; no optimality
    /// claim is made.
    Heuristic,
    /// The schedule is feasible but a budget ran out before the optimality
    /// proof closed.
    Feasible,
    /// No schedule exists within the memory bounds (within the solver's
    /// decision space) — or the instance was rejected outright (see
    /// [`SolveOutcome::error`]).
    Infeasible,
    /// A budget ran out before any schedule was found; nothing is proven.
    LimitHit,
}

impl OptimalityStatus {
    /// Stable lower-case identifier (used in the JSON service surface).
    pub fn as_str(self) -> &'static str {
        match self {
            OptimalityStatus::Optimal => "optimal",
            OptimalityStatus::Heuristic => "heuristic",
            OptimalityStatus::Feasible => "feasible",
            OptimalityStatus::Infeasible => "infeasible",
            OptimalityStatus::LimitHit => "limit_hit",
        }
    }

    /// Parses [`OptimalityStatus::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "optimal" => OptimalityStatus::Optimal,
            "heuristic" => OptimalityStatus::Heuristic,
            "feasible" => OptimalityStatus::Feasible,
            "infeasible" => OptimalityStatus::Infeasible,
            "limit_hit" => OptimalityStatus::LimitHit,
            _ => return None,
        })
    }

    /// `true` for the statuses that must carry a schedule.
    pub fn carries_schedule(self) -> bool {
        matches!(
            self,
            OptimalityStatus::Optimal | OptimalityStatus::Heuristic | OptimalityStatus::Feasible
        )
    }
}

impl std::fmt::Display for OptimalityStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The result of one [`Solver::solve`] call.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The schedule, present exactly when
    /// [`status.carries_schedule()`](OptimalityStatus::carries_schedule).
    pub schedule: Option<Schedule>,
    /// What is proven about the schedule (or its absence).
    pub status: OptimalityStatus,
    /// Search effort (nodes expanded / LPs solved); 0 for heuristics.
    pub nodes: u64,
    /// Why the instance was rejected, when it never reached the solver
    /// proper (e.g. a cyclic graph). `None` for ordinary outcomes.
    pub error: Option<String>,
}

impl SolveOutcome {
    /// An outcome carrying `schedule` with the given status.
    pub fn with_schedule(schedule: Schedule, status: OptimalityStatus, nodes: u64) -> Self {
        debug_assert!(status.carries_schedule());
        SolveOutcome {
            schedule: Some(schedule),
            status,
            nodes,
            error: None,
        }
    }

    /// A schedule-less outcome with the given status.
    pub fn without_schedule(status: OptimalityStatus, nodes: u64) -> Self {
        debug_assert!(!status.carries_schedule());
        SolveOutcome {
            schedule: None,
            status,
            nodes,
            error: None,
        }
    }

    /// Maps a [`Scheduler`] result to a heuristic outcome:
    /// success → [`OptimalityStatus::Heuristic`], infeasibility →
    /// [`OptimalityStatus::Infeasible`], cancellation →
    /// [`OptimalityStatus::LimitHit`] (a heuristic has no incumbent to
    /// salvage: a prefix of a schedule is not a schedule), and any other
    /// scheduling error → `Infeasible` with [`SolveOutcome::error`]
    /// recording the cause.
    pub fn from_heuristic(result: Result<Schedule, ScheduleError>) -> Self {
        match result {
            Ok(schedule) => SolveOutcome::with_schedule(schedule, OptimalityStatus::Heuristic, 0),
            Err(ScheduleError::Infeasible { .. }) => {
                SolveOutcome::without_schedule(OptimalityStatus::Infeasible, 0)
            }
            Err(ScheduleError::Cancelled { .. }) => {
                SolveOutcome::without_schedule(OptimalityStatus::LimitHit, 0)
            }
            Err(e) => SolveOutcome {
                schedule: None,
                status: OptimalityStatus::Infeasible,
                nodes: 0,
                error: Some(e.to_string()),
            },
        }
    }

    /// The makespan of the carried schedule, if any.
    pub fn makespan(&self) -> Option<f64> {
        self.schedule.as_ref().map(|s| s.makespan())
    }

    /// `true` for [`OptimalityStatus::Optimal`].
    pub fn is_optimal(&self) -> bool {
        self.status == OptimalityStatus::Optimal
    }
}

/// A solving algorithm — heuristic or exact — behind one interface.
///
/// `Sync` is required so a solver instance can be shared across the worker
/// threads of a campaign; every solver in the workspace is a small value
/// type, so this costs nothing.
pub trait Solver: Sync {
    /// The display name used as the series label in experiment outputs
    /// (e.g. `"MemHEFT"`, `"Optimal(MILP)"`). Registry *keys* (`"memheft"`,
    /// `"milp"`) are separate; see [`crate::SolverRegistry`].
    fn name(&self) -> &str;

    /// Solves `graph` on `platform` under `ctx`.
    ///
    /// Implementations must return schedules that pass `mals_sim::validate`
    /// (checked by the registry conformance suite) and must not claim a
    /// status stronger than what they proved.
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome;
}

impl<S: Solver + ?Sized> Solver for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        (**self).solve(graph, platform, ctx)
    }
}

impl<S: Solver + ?Sized> Solver for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        (**self).solve(graph, platform, ctx)
    }
}

impl Solver for MemHeft {
    fn name(&self) -> &str {
        "MemHEFT"
    }

    /// MemHEFT with the ready-candidate evaluations spread over `ctx.pool`
    /// (bit-identical to the sequential run for any thread count).
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        // The rank computation itself requires acyclicity, so reject
        // invalid graphs before building the priority list.
        if let Err(e) = graph.validate() {
            return SolveOutcome::from_heuristic(Err(e.into()));
        }
        let order = rank::rank_sorted_tasks(graph);
        SolveOutcome::from_heuristic(schedule_with_priority_pooled(
            graph,
            platform,
            &order,
            ctx.parallel_pool(),
            false,
            ctx.cancel,
        ))
    }
}

impl Solver for MemMinMin {
    fn name(&self) -> &str {
        "MemMinMin"
    }

    /// MemMinMin with the ready-list evaluations spread over `ctx.pool`
    /// (bit-identical to the sequential run for any thread count).
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        SolveOutcome::from_heuristic(self.schedule_pooled(
            graph,
            platform,
            ctx.parallel_pool(),
            ctx.cancel,
        ))
    }
}

impl Solver for MemHeftVariant {
    fn name(&self) -> &str {
        Scheduler::name(self)
    }

    /// The variant's selection engine on `ctx.pool`.
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        if let Err(e) = graph.validate() {
            return SolveOutcome::from_heuristic(Err(e.into()));
        }
        let order = self.priority_list(graph);
        SolveOutcome::from_heuristic(schedule_with_priority_pooled(
            graph,
            platform,
            &order,
            ctx.parallel_pool(),
            self.memory_preference == crate::ablation::MemoryPreference::Red,
            ctx.cancel,
        ))
    }
}

impl<S: Solver + Sync> Solver for Unbounded<S> {
    fn name(&self) -> &str {
        self.display_name()
    }

    /// Solves on the unbounded copy of the platform (the memory-oblivious
    /// baselines ignore the bounds by construction).
    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        self.inner().solve(graph, &platform.unbounded(), ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heft, MinMin};
    use mals_gen::dex;
    use mals_sim::validate;
    use mals_util::ParallelConfig;

    #[test]
    fn status_string_roundtrip() {
        for status in [
            OptimalityStatus::Optimal,
            OptimalityStatus::Heuristic,
            OptimalityStatus::Feasible,
            OptimalityStatus::Infeasible,
            OptimalityStatus::LimitHit,
        ] {
            assert_eq!(OptimalityStatus::parse(status.as_str()), Some(status));
            assert_eq!(status.to_string(), status.as_str());
        }
        assert_eq!(OptimalityStatus::parse("bogus"), None);
    }

    #[test]
    fn heuristic_solver_outcomes_match_scheduler_results() {
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let ctx = SolveCtx::sequential();
        for solver in [&MemHeft::new() as &dyn Solver, &MemMinMin::new()] {
            let outcome = solver.solve(&g, &platform, &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Heuristic);
            assert_eq!(outcome.nodes, 0);
            let schedule = outcome.schedule.as_ref().unwrap();
            assert!(validate(&g, &platform, schedule).is_valid());
        }
        let tight = Platform::single_pair(2.0, 2.0);
        let outcome = Solver::solve(&MemHeft::new(), &g, &tight, &ctx);
        assert_eq!(outcome.status, OptimalityStatus::Infeasible);
        assert!(outcome.schedule.is_none());
        assert!(outcome.error.is_none());
    }

    #[test]
    fn pooled_solve_is_bit_identical_to_sequential() {
        let (g, _) = dex();
        let platform = Platform::single_pair(6.0, 6.0);
        let sequential = SolveCtx::sequential();
        let pool = WorkerPool::new(ParallelConfig::with_threads(4));
        let pooled = SolveCtx::pooled(SolveLimits::default(), &pool);
        for solver in [
            &MemHeft::new() as &dyn Solver,
            &MemMinMin::new(),
            &Heft::new(),
            &MinMin::new(),
        ] {
            let a = solver.solve(&g, &platform, &sequential);
            let b = solver.solve(&g, &platform, &pooled);
            assert_eq!(a.schedule, b.schedule, "{} diverged", solver.name());
        }
    }

    #[test]
    fn unbounded_solvers_ignore_memory_bounds() {
        let (g, _) = dex();
        let hopeless = Platform::single_pair(1.0, 1.0);
        let ctx = SolveCtx::sequential();
        let outcome = Solver::solve(&Heft::new(), &g, &hopeless, &ctx);
        assert_eq!(outcome.status, OptimalityStatus::Heuristic);
        let schedule = outcome.schedule.unwrap();
        assert!(validate(&g, &hopeless.unbounded(), &schedule).is_valid());
        assert_eq!(Solver::name(&Heft::new()), "HEFT");
        assert_eq!(Solver::name(&MinMin::new()), "MinMin");
    }

    #[test]
    fn invalid_graph_reports_an_error() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        let ctx = SolveCtx::sequential();
        for solver in [&MemHeft::new() as &dyn Solver, &MemMinMin::new()] {
            let outcome = solver.solve(&g, &Platform::default(), &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Infeasible);
            assert!(outcome.error.is_some(), "{}", solver.name());
        }
    }

    #[test]
    fn limits_constructors() {
        let limits = SolveLimits::with_node_limit(42);
        assert_eq!(limits.node_limit, 42);
        assert_eq!(
            limits.lp_iteration_limit,
            SolveLimits::default().lp_iteration_limit
        );
    }
}
