//! Equivalence guard for the incremental scheduling engine.
//!
//! PR 5 reworked the MemHEFT / MemMinMin / ablation selection loops around
//! an incrementally maintained ready-set and an epoch-based EST cache
//! (`mals_sched::EstCache`), and made the staircase queries indexed. None of
//! that may change a single placement: this suite re-implements the
//! pre-refactor loops *verbatim* on the public `PartialSchedule` API —
//! scan-everything, fresh evaluation at every step, no cache — and asserts
//! that every production scheduler produces **bit-identical** schedules (and
//! identical failures) across random DAGs, thread counts 1/2/4, and memory
//! bounds from hopeless to ample.

use mals::dag::rank;
use mals::gen::{DaggenParams, WeightRanges};
use mals::prelude::*;
use mals::sched::memheft::schedule_with_priority_pooled;
use mals::sched::{MemHeftVariant, MemoryPreference, PartialSchedule, PriorityScheme};
use mals::sim::memory_peaks;
use mals::util::{CancelSignal, ParallelConfig, WorkerPool};
use proptest::prelude::*;

/// The pre-refactor MemHEFT selection engine: scan the priority list from
/// the front at every step, evaluate every ready candidate from scratch,
/// commit the first feasible one.
fn reference_priority_schedule(
    graph: &TaskGraph,
    platform: &Platform,
    order: &[TaskId],
    prefer_red: bool,
) -> Result<Schedule, String> {
    graph.validate().map_err(|e| e.to_string())?;
    let mut partial = PartialSchedule::new(graph, platform);
    let mut remaining: Vec<TaskId> = order.to_vec();
    while !remaining.is_empty() {
        let mut committed = None;
        for (position, &task) in remaining.iter().enumerate() {
            if !partial.is_ready(task) {
                continue;
            }
            if let Some(breakdown) = partial.evaluate_best_with(task, prefer_red) {
                partial.commit(task, &breakdown);
                committed = Some(position);
                break;
            }
        }
        match committed {
            Some(position) => {
                remaining.remove(position);
            }
            None => return partial.finish_or_error().map_err(|e| e.to_string()),
        }
    }
    partial.finish_or_error().map_err(|e| e.to_string())
}

/// The pre-refactor MemMinMin loop: evaluate the whole ready list from
/// scratch at every step, commit the globally smallest EFT.
fn reference_memminmin(graph: &TaskGraph, platform: &Platform) -> Result<Schedule, String> {
    graph.validate().map_err(|e| e.to_string())?;
    let mut partial = PartialSchedule::new(graph, platform);
    while !partial.is_complete() {
        match partial.best_ready_choice() {
            Some((task, breakdown)) => {
                partial.commit(task, &breakdown);
            }
            None => return partial.finish_or_error().map_err(|e| e.to_string()),
        }
    }
    partial.finish_or_error().map_err(|e| e.to_string())
}

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 8usize..=40, 2usize..=6).prop_map(|(seed, size, jumps)| {
        let mut rng = Pcg64::new(seed);
        mals::gen::daggen::generate(
            &DaggenParams {
                size,
                width: 0.4,
                density: 0.5,
                jumps,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        )
    })
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    (1usize..=3, 1usize..=3).prop_map(|(p1, p2)| Platform::new(p1, p2, 0.0, 0.0).unwrap())
}

/// Bounds both memories at `fraction` of the memory-oblivious HEFT
/// footprint (the campaign normalisation), from binding to ample.
fn bounded(graph: &TaskGraph, platform: &Platform, fraction: f64) -> Platform {
    let unbounded = platform.unbounded();
    let peaks = memory_peaks(
        graph,
        &unbounded,
        &Heft::new().schedule(graph, &unbounded).unwrap(),
    );
    let bound = (peaks.max() * fraction).ceil();
    platform.with_memory_bounds(bound, bound)
}

/// Runs a production selection engine on a fresh pool of 1, 2 and 4
/// workers and asserts each whole result — schedule, or error with its
/// placed-task count — equals the reference run.
fn assert_matches_reference(
    name: &str,
    run: impl Fn(Option<&WorkerPool>) -> Result<Schedule, ScheduleError>,
    reference: &Result<Schedule, String>,
) {
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(ParallelConfig::with_threads(threads));
        let outcome = run(Some(&pool)).map_err(|e| e.to_string());
        assert!(
            outcome == *reference,
            "{name} with {threads} threads diverged from the pre-refactor engine"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// MemHEFT and MemMinMin are bit-identical to the scan-everything
    /// engines on tight (0.3–0.8) and loose (≥ 1.0) memory bounds.
    #[test]
    fn memheft_and_memminmin_match_pre_refactor(
        graph in arb_graph(),
        platform in arb_platform(),
        tight in 0.3f64..0.8,
    ) {
        for fraction in [tight, 1.0 + tight] {
            let bounded = bounded(&graph, &platform, fraction);
            let order = rank::rank_sorted_tasks(&graph);
            let memheft_ref = reference_priority_schedule(&graph, &bounded, &order, false);
            let cancel = CancelSignal::default();
            assert_matches_reference(
                "MemHEFT",
                |pool| schedule_with_priority_pooled(&graph, &bounded, &order, pool, false, cancel),
                &memheft_ref,
            );
            let memminmin_ref = reference_memminmin(&graph, &bounded);
            assert_matches_reference(
                "MemMinMin",
                |pool| MemMinMin::new().schedule_pooled(&graph, &bounded, pool, cancel),
                &memminmin_ref,
            );
        }
    }

    /// Every ablation variant rides the same engine: each priority scheme
    /// and the red-preference tie-break must match the reference run on its
    /// own priority list.
    #[test]
    fn ablation_variants_match_pre_refactor(
        graph in arb_graph(),
        platform in arb_platform(),
        fraction in 0.4f64..1.4,
    ) {
        let bounded = bounded(&graph, &platform, fraction);
        for (priority, preference) in [
            (PriorityScheme::UpwardRank, MemoryPreference::Blue),
            (PriorityScheme::CriticalPathSum, MemoryPreference::Blue),
            (PriorityScheme::MemoryRequirement, MemoryPreference::Blue),
            (PriorityScheme::UpwardRank, MemoryPreference::Red),
        ] {
            let variant = MemHeftVariant {
                priority,
                memory_preference: preference,
                ..Default::default()
            };
            let order = variant.priority_list(&graph);
            let prefer_red = preference == MemoryPreference::Red;
            let reference = reference_priority_schedule(&graph, &bounded, &order, prefer_red);
            let cancel = CancelSignal::default();
            assert_matches_reference(
                Scheduler::name(&variant),
                |pool| schedule_with_priority_pooled(&graph, &bounded, &order, pool, prefer_red, cancel),
                &reference,
            );
        }
    }
}

/// The paper-scale fixture: the exact 1000-task LargeRandSet instance the
/// benches measure, scheduled at a binding 70% bound — the incremental
/// engine must reproduce the scan-everything schedule bit for bit.
#[test]
fn large_rand_1000_tasks_matches_pre_refactor() {
    let graph = mals_bench::large_rand_dag(
        mals_bench::WITHIN_SCHEDULE_TASKS,
        mals_bench::WITHIN_SCHEDULE_SEED,
    );
    let platform = Platform::single_pair(0.0, 0.0);
    let bounded = bounded(&graph, &platform, 0.7);
    let order = rank::rank_sorted_tasks(&graph);
    let reference =
        reference_priority_schedule(&graph, &bounded, &order, false).expect("feasible at 70%");
    let incremental = MemHeft::new().schedule(&graph, &bounded).unwrap();
    assert_eq!(reference, incremental, "n=1000 MemHEFT diverged");
    let reference = reference_memminmin(&graph, &bounded).expect("feasible at 70%");
    let incremental = MemMinMin::new().schedule(&graph, &bounded).unwrap();
    assert_eq!(reference, incremental, "n=1000 MemMinMin diverged");
}

/// An unbounded memory keeps no usage profile (`MemoryState` drops its
/// reservations, since no fit query reads them), so the memory-oblivious
/// baselines must schedule exactly as the memory-aware solvers do on a
/// finite bound that never binds — twice the total file volume per memory,
/// where the staircases are still maintained and queried.
#[test]
fn unbounded_baselines_match_never_binding_bounds() {
    let sets = [
        mals::gen::SetParams::small_rand().scaled(12, 30),
        mals::gen::SetParams::large_rand().scaled(3, 400),
    ];
    for (p_blue, p_red) in [(1, 1), (2, 1)] {
        let open = Platform::new(p_blue, p_red, 0.0, 0.0).unwrap().unbounded();
        for graph in sets.iter().flat_map(|set| set.generate()) {
            let ample = 2.0 * graph.total_file_size();
            let bounded = open.with_memory_bounds(ample, ample);
            let tasks = graph.n_tasks();
            assert_eq!(
                Heft::new().schedule(&graph, &open).unwrap(),
                MemHeft::new().schedule(&graph, &bounded).unwrap(),
                "HEFT vs never-binding MemHEFT, {tasks} tasks on {p_blue}+{p_red}"
            );
            assert_eq!(
                MinMin::new().schedule(&graph, &open).unwrap(),
                MemMinMin::new().schedule(&graph, &bounded).unwrap(),
                "MinMin vs never-binding MemMinMin, {tasks} tasks on {p_blue}+{p_red}"
            );
        }
    }
}
