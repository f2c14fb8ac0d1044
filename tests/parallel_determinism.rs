//! Determinism of the within-schedule parallel engine: for any random DAG,
//! platform and memory bound, the schedules produced with the ready-list
//! evaluation spread over 1 / 2 / 4 / 8 threads are **bit-identical** to the
//! sequential engine, and every emitted schedule passes the independent
//! validator. This is the contract that lets the experiment campaigns use
//! `--threads` freely without perturbing any figure of the paper.

use mals::dag::rank::rank_sorted_tasks;
use mals::gen::{DaggenParams, WeightRanges};
use mals::prelude::*;
use mals::sched::memheft::schedule_with_priority_pooled;
use mals::sched::{MemHeftVariant, MemoryPreference};
use mals::sim::memory_peaks;
use mals::util::{CancelSignal, ParallelConfig, WorkerPool};
use proptest::prelude::*;

const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Strategy: a seeded random DAG of 8..=40 tasks with SmallRandSet-style
/// weights (the seed is the replayable quantity).
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

/// A selection engine run on an externally owned pool.
type Engine = fn(&TaskGraph, &Platform, Option<&WorkerPool>) -> Result<Schedule, ScheduleError>;

/// MemHEFT's engine on its upward-rank priority list.
fn memheft(
    graph: &TaskGraph,
    platform: &Platform,
    pool: Option<&WorkerPool>,
) -> Result<Schedule, ScheduleError> {
    let order = rank_sorted_tasks(graph);
    let cancel = CancelSignal::default();
    schedule_with_priority_pooled(graph, platform, &order, pool, false, cancel)
}

/// MemMinMin's engine.
fn memminmin(
    graph: &TaskGraph,
    platform: &Platform,
    pool: Option<&WorkerPool>,
) -> Result<Schedule, ScheduleError> {
    MemMinMin::new().schedule_pooled(graph, platform, pool, CancelSignal::default())
}

/// The red-preference ablation variant's engine.
fn memheft_red(
    graph: &TaskGraph,
    platform: &Platform,
    pool: Option<&WorkerPool>,
) -> Result<Schedule, ScheduleError> {
    let variant = MemHeftVariant {
        memory_preference: MemoryPreference::Red,
        ..Default::default()
    };
    let order = variant.priority_list(graph);
    let cancel = CancelSignal::default();
    schedule_with_priority_pooled(graph, platform, &order, pool, true, cancel)
}

/// Runs one engine across the thread ladder, each rung on a fresh pool, and
/// asserts every whole result agrees bit-for-bit with the 1-thread run (the
/// schedules, and the failures with their placed-task counts), validating
/// every schedule that comes out.
fn assert_thread_invariant(name: &str, engine: Engine, graph: &TaskGraph, platform: &Platform) {
    let mut reference: Option<Result<Schedule, ScheduleError>> = None;
    for threads in THREAD_LADDER {
        let pool = WorkerPool::new(ParallelConfig::with_threads(threads));
        let outcome = engine(graph, platform, Some(&pool));
        if let Ok(schedule) = &outcome {
            let report = validate(graph, platform, schedule);
            assert!(
                report.is_valid(),
                "{name} with {threads} threads emitted an invalid schedule: {:?}",
                report.errors
            );
        }
        match &reference {
            None => reference = Some(outcome),
            Some(expected) => assert!(*expected == outcome, "{name} diverged at {threads} threads"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MemHEFT and MemMinMin are thread-count invariant on random DAGs and
    /// memory bounds from hopeless to ample.
    #[test]
    fn memory_aware_heuristics_are_thread_count_invariant(
        graph in arb_graph(),
        platform in arb_platform(),
        fraction in 0.2f64..1.5,
    ) {
        let unbounded = platform.unbounded();
        let reference = memory_peaks(
            &graph,
            &unbounded,
            &Heft::new().schedule(&graph, &unbounded).unwrap(),
        );
        let bound = (reference.max() * fraction).ceil();
        let bounded = platform.with_memory_bounds(bound, bound);
        assert_thread_invariant("MemHEFT", memheft, &graph, &bounded);
        assert_thread_invariant("MemMinMin", memminmin, &graph, &bounded);
    }

    /// The memory-oblivious baselines (HEFT, MinMin) are the same engines
    /// on the unbounded platform and must be equally invariant; they are
    /// exercised (and validated) there.
    #[test]
    fn oblivious_baselines_are_thread_count_invariant(
        graph in arb_graph(),
        platform in arb_platform(),
    ) {
        let unbounded = platform.unbounded();
        assert_thread_invariant("HEFT", memheft, &graph, &unbounded);
        assert_thread_invariant("MinMin", memminmin, &graph, &unbounded);
    }

    /// The red-preference ablation variant exercises the engine's other
    /// tie-breaking branch; it must be thread-count invariant too.
    #[test]
    fn red_preference_variant_is_thread_count_invariant(
        graph in arb_graph(),
        platform in arb_platform(),
    ) {
        assert_thread_invariant("MemHEFT(rank, red)", memheft_red, &graph, &platform);
    }
}

/// The paper-scale fixture: the exact 1000-task LargeRandSet instance the
/// `scaling_within_schedule` bench and the `bench_json` CI runner measure
/// (same seed, via `mals_bench`), scheduled at a binding 70% memory bound
/// across the full thread ladder. Debug-build friendly: only MemMinMin,
/// whose every step evaluates the whole ready list.
#[test]
fn large_rand_1000_tasks_is_thread_count_invariant() {
    let graph = mals_bench::large_rand_dag(
        mals_bench::WITHIN_SCHEDULE_TASKS,
        mals_bench::WITHIN_SCHEDULE_SEED,
    );
    let platform = Platform::single_pair(0.0, 0.0);
    let unbounded = platform.unbounded();
    let peaks = memory_peaks(
        &graph,
        &unbounded,
        &Heft::new().schedule(&graph, &unbounded).unwrap(),
    );
    let bound = 0.7 * peaks.max();
    let bounded = platform.with_memory_bounds(bound, bound);

    let reference = MemMinMin::new().schedule(&graph, &bounded).unwrap();
    let report = validate(&graph, &bounded, &reference);
    assert!(report.is_valid(), "sequential: {:?}", report.errors);
    for threads in THREAD_LADDER {
        let pool = WorkerPool::new(ParallelConfig::with_threads(threads));
        let parallel = memminmin(&graph, &bounded, Some(&pool)).unwrap();
        assert_eq!(reference, parallel, "{threads} threads diverged at n=1000");
    }
}
