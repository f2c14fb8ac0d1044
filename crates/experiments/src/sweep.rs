//! Per-DAG memory sweeps.
//!
//! The experiments of the paper all have the same skeleton: take a DAG,
//! measure the memory footprint of the memory-oblivious HEFT schedule, then
//! re-schedule the DAG with the memory-aware solvers under increasingly
//! tight memory bounds and record the makespan (or the failure) of each
//! solver at each bound. Solvers are addressed through the unified
//! [`Solver`] interface, so heuristics and exact backends ride the same
//! sweeps.

use mals_dag::TaskGraph;
use mals_platform::Platform;
use mals_sched::{Heft, MinMin, Scheduler, SolveCtx, Solver};
use mals_sim::{memory_peaks, MemoryPeaks};

/// One memory-oblivious baseline schedule of a DAG, summarised: its
/// makespan and its memory peaks.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// Makespan of the schedule (memory ignored).
    pub makespan: f64,
    /// Memory peaks of that schedule.
    pub peaks: MemoryPeaks,
}

/// The memory-oblivious reference for one DAG: HEFT's makespan and memory
/// peaks (used to normalise both axes of Figures 10 and 12), plus MinMin's.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Makespan of the HEFT schedule (memory ignored).
    pub heft_makespan: f64,
    /// Memory peaks of that schedule.
    pub heft_peaks: MemoryPeaks,
    /// Makespan of the MinMin schedule (memory ignored).
    pub minmin_makespan: f64,
    /// Memory peaks of that schedule.
    pub minmin_peaks: MemoryPeaks,
}

/// Runs `scheduler` on the unbounded version of `platform` and measures the
/// peaks of its schedule.
fn baseline(scheduler: &impl Scheduler, graph: &TaskGraph, platform: &Platform) -> Baseline {
    let unbounded = platform.unbounded();
    let schedule = scheduler
        .schedule(graph, &unbounded)
        .unwrap_or_else(|e| panic!("{} cannot fail: {e}", scheduler.name()));
    Baseline {
        makespan: schedule.makespan(),
        peaks: memory_peaks(graph, &unbounded, &schedule),
    }
}

/// The HEFT baseline of a DAG on `platform` (whose memory bounds are
/// ignored): the `α = 1` reference. `α · peaks.max()` is the memory bound
/// of campaign point `α`, and `makespan` normalises its makespans. Callers
/// that never read MinMin use this rather than [`heft_reference`].
pub fn heft_baseline(graph: &TaskGraph, platform: &Platform) -> Baseline {
    baseline(&Heft::new(), graph, platform)
}

/// Computes the HEFT / MinMin references of a DAG on `platform` (the memory
/// bounds of `platform` are ignored).
pub fn heft_reference(graph: &TaskGraph, platform: &Platform) -> Reference {
    let heft = heft_baseline(graph, platform);
    let minmin = baseline(&MinMin::new(), graph, platform);
    Reference {
        heft_makespan: heft.makespan,
        heft_peaks: heft.peaks,
        minmin_makespan: minmin.makespan,
        minmin_peaks: minmin.peaks,
    }
}

/// Result of one solver at one memory bound.
#[derive(Debug, Clone)]
pub struct SchedulerOutcome {
    /// Solver display name.
    pub name: String,
    /// Makespan, or `None` when the solver failed within the bounds.
    pub makespan: Option<f64>,
}

/// One point of an absolute memory sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Memory bound applied to both memories.
    pub memory_bound: f64,
    /// Outcome of every solver at that bound.
    pub outcomes: Vec<SchedulerOutcome>,
}

impl SweepPoint {
    /// The outcome of a solver, looked up by display name.
    pub fn outcome(&self, name: &str) -> Option<&SchedulerOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }
}

/// Runs a memory-oblivious solver and reports its makespan only when its
/// own memory peaks fit in the bounds of `platform` (this is how the HEFT /
/// MinMin series of Figures 11 and 13–15 are drawn: the baseline simply
/// cannot run below its own memory requirement).
pub fn memory_oblivious_result(
    graph: &TaskGraph,
    platform: &Platform,
    solver: &dyn Solver,
    ctx: &SolveCtx,
) -> Option<f64> {
    let unbounded = platform.unbounded();
    let schedule = solver.solve(graph, &unbounded, ctx).schedule?;
    let peaks = memory_peaks(graph, &unbounded, &schedule);
    let fits = peaks.blue <= platform.mem_blue + mals_util::EPSILON
        && peaks.red <= platform.mem_red + mals_util::EPSILON;
    fits.then(|| schedule.makespan())
}

/// Solves and returns the makespan, distinguishing honest infeasibility
/// (`None`) from an instance the solver *rejected* (cyclic graph, …), which
/// panics with the recorded cause — a rejected instance must never be
/// reported as "infeasible at this memory bound" by the experiment drivers.
pub(crate) fn checked_makespan(
    solver: &dyn Solver,
    graph: &TaskGraph,
    platform: &Platform,
    ctx: &SolveCtx,
) -> Option<f64> {
    let outcome = solver.solve(graph, platform, ctx);
    if let Some(error) = &outcome.error {
        panic!("solver {} rejected the instance: {error}", solver.name());
    }
    outcome.makespan()
}

/// Runs a memory-aware solver under the bounds of `platform`.
fn memory_aware_result(
    graph: &TaskGraph,
    platform: &Platform,
    solver: &dyn Solver,
    ctx: &SolveCtx,
) -> Option<f64> {
    checked_makespan(solver, graph, platform, ctx)
}

/// Streaming core of the absolute memory sweeps: computes one point per
/// bound and hands it to `on_point` as soon as it exists, so drivers can
/// emit rows (or fold aggregates) without holding the whole sweep — at each
/// bound, the memory-aware solvers run under the bound, and the
/// memory-oblivious baselines are reported only where their own footprint
/// fits.
pub fn sweep_absolute_streaming(
    graph: &TaskGraph,
    platform: &Platform,
    memory_bounds: &[f64],
    memory_aware: &[&dyn Solver],
    memory_oblivious: &[&dyn Solver],
    ctx: &SolveCtx,
    mut on_point: impl FnMut(SweepPoint),
) {
    for &bound in memory_bounds {
        let bounded = platform.with_memory_bounds(bound, bound);
        let mut outcomes = Vec::new();
        for s in memory_oblivious {
            outcomes.push(SchedulerOutcome {
                name: s.name().to_string(),
                makespan: memory_oblivious_result(graph, &bounded, s, ctx),
            });
        }
        for s in memory_aware {
            outcomes.push(SchedulerOutcome {
                name: s.name().to_string(),
                makespan: memory_aware_result(graph, &bounded, s, ctx),
            });
        }
        on_point(SweepPoint {
            memory_bound: bound,
            outcomes,
        });
    }
}

/// Sweeps absolute memory bounds for one DAG (the skeleton of Figures 11, 13,
/// 14 and 15), collecting every point — the convenience wrapper over
/// [`sweep_absolute_streaming`] for sweeps small enough to hold.
pub fn sweep_absolute(
    graph: &TaskGraph,
    platform: &Platform,
    memory_bounds: &[f64],
    memory_aware: &[&dyn Solver],
    memory_oblivious: &[&dyn Solver],
    ctx: &SolveCtx,
) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(memory_bounds.len());
    sweep_absolute_streaming(
        graph,
        platform,
        memory_bounds,
        memory_aware,
        memory_oblivious,
        ctx,
        |point| points.push(point),
    );
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::dex;
    use mals_sched::{MemHeft, MemMinMin};

    #[test]
    fn reference_of_dex() {
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let reference = heft_reference(&g, &platform);
        assert!(reference.heft_makespan > 0.0);
        assert!(reference.heft_peaks.max() > 0.0);
        assert!(reference.minmin_makespan > 0.0);
        // Total file volume bounds any peak.
        assert!(reference.heft_peaks.max() <= g.total_file_size());
        // The HEFT half is the HEFT-only baseline, bit for bit.
        let heft = heft_baseline(&g, &platform);
        assert_eq!(heft.makespan.to_bits(), reference.heft_makespan.to_bits());
        assert_eq!(heft.peaks, reference.heft_peaks);
    }

    #[test]
    fn memory_oblivious_result_gated_by_footprint() {
        let (g, _) = dex();
        let ctx = SolveCtx::sequential();
        let platform = Platform::single_pair(100.0, 100.0);
        let heft = Heft::new();
        assert!(memory_oblivious_result(&g, &platform, &heft, &ctx).is_some());
        let tiny = Platform::single_pair(1.0, 1.0);
        assert!(memory_oblivious_result(&g, &tiny, &heft, &ctx).is_none());
    }

    #[test]
    fn sweep_absolute_monotone_success() {
        let (g, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let memheft = MemHeft::new();
        let memminmin = MemMinMin::new();
        let heft = Heft::new();
        let minmin = MinMin::new();
        let bounds: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let sweep = sweep_absolute(
            &g,
            &platform,
            &bounds,
            &[&memheft, &memminmin],
            &[&heft, &minmin],
            &ctx,
        );
        assert_eq!(sweep.len(), bounds.len());
        // Success is monotone in the memory bound for each solver.
        for name in ["MemHEFT", "MemMinMin", "HEFT", "MinMin"] {
            let mut seen_success = false;
            for point in &sweep {
                let ok = point.outcome(name).unwrap().makespan.is_some();
                if seen_success {
                    assert!(
                        ok,
                        "{name} succeeded at a smaller bound but failed at {}",
                        point.memory_bound
                    );
                }
                seen_success |= ok;
            }
            assert!(seen_success, "{name} should succeed with bound 10 on D_ex");
        }
        // With ample memory every solver matches or beats nothing smaller
        // than the critical path.
        let last = sweep.last().unwrap();
        for o in &last.outcomes {
            assert!(o.makespan.unwrap() >= 5.0 - 1e-9);
        }
    }

    #[test]
    fn makespan_non_increasing_with_memory_for_memory_aware() {
        let (g, _) = dex();
        let platform = Platform::single_pair(0.0, 0.0);
        let ctx = SolveCtx::sequential();
        let memheft = MemHeft::new();
        let bounds: Vec<f64> = (3..=12).map(|i| i as f64).collect();
        let sweep = sweep_absolute(&g, &platform, &bounds, &[&memheft], &[], &ctx);
        let mut last = f64::INFINITY;
        for point in &sweep {
            if let Some(mk) = point.outcome("MemHEFT").unwrap().makespan {
                assert!(
                    mk <= last + 1e-9,
                    "more memory should never slow MemHEFT down on D_ex (bound {})",
                    point.memory_bound
                );
                last = mk;
            }
        }
    }
}
