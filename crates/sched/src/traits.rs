//! The sequential entry point of the list-scheduling heuristics.

use crate::error::ScheduleError;
use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sim::Schedule;

/// A list-scheduling heuristic mapping a task graph onto a dual-memory
/// platform, run sequentially.
///
/// Only the heuristics implement it (`MemHeft`, `MemMinMin`,
/// `MemHeftVariant`, `Unbounded<S>` and therefore `Heft` / `MinMin`). It is
/// kept next to [`Solver`](crate::Solver) because it returns the typed
/// [`ScheduleError`] — how many tasks were placed before a failure — that
/// [`SolveOutcome`](crate::SolveOutcome) flattens into a status, and because
/// code that only needs one sequential heuristic schedule (memory-oblivious
/// baselines, benchmarks) reads best as `Heft::new().schedule(..)`. Exact
/// solvers, pools, budgets and cancellation go through `Solver` only.
///
/// Implementations must produce schedules that satisfy the flow, resource and
/// memory constraints of the model (this is checked independently by
/// `mals_sim::validate` in the test suites), or return
/// [`ScheduleError::Infeasible`] when they cannot.
pub trait Scheduler {
    /// A short human-readable name, used in experiment outputs
    /// (e.g. `"MemHEFT"`).
    fn name(&self) -> &'static str;

    /// Computes a schedule of `graph` on `platform`.
    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError>;
}

/// Blanket implementation so `&S` can be used wherever a `Scheduler` is
/// expected (e.g. storing `&dyn Scheduler` lists in the experiment drivers).
impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        (**self).schedule(graph, platform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Scheduler for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn schedule(
            &self,
            graph: &TaskGraph,
            _platform: &Platform,
        ) -> Result<Schedule, ScheduleError> {
            Ok(Schedule::for_graph(graph))
        }
    }

    #[test]
    fn reference_impl_delegates() {
        let d = Dummy;
        let r: &dyn Scheduler = &d;
        assert_eq!(r.name(), "dummy");
        let g = TaskGraph::new();
        let p = Platform::default();
        assert!(Scheduler::schedule(&r, &g, &p).is_ok());
    }
}
