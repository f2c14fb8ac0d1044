//! Ablation benchmarks for the design choices called out in `DESIGN.md`:
//! the MemHEFT priority scheme, tie-breaking policy and memory preference,
//! and the pruning budget of the branch-and-bound solver.
//!
//! Criterion reports throughput; the companion makespans are printed once at
//! the start so the quality impact of each choice is visible alongside its
//! cost.

use criterion::{criterion_group, criterion_main, Criterion};
use mals_bench::{single_pair, small_rand_dag};
use mals_exact::BranchAndBound;
use mals_experiments::heft_baseline;
use mals_sched::ablation::{MemHeftVariant, MemoryPreference, PriorityScheme, TieBreak};
use mals_sched::Scheduler;
use std::hint::black_box;
use std::time::Duration;

fn variants() -> Vec<(&'static str, MemHeftVariant)> {
    vec![
        ("priority_upward_rank", MemHeftVariant::paper_default()),
        (
            "priority_cp_sum",
            MemHeftVariant {
                priority: PriorityScheme::CriticalPathSum,
                ..Default::default()
            },
        ),
        (
            "priority_mem_req",
            MemHeftVariant {
                priority: PriorityScheme::MemoryRequirement,
                ..Default::default()
            },
        ),
        (
            "tiebreak_random",
            MemHeftVariant {
                tie_break: TieBreak::Random(42),
                ..Default::default()
            },
        ),
        (
            "prefer_red_memory",
            MemHeftVariant {
                memory_preference: MemoryPreference::Red,
                ..Default::default()
            },
        ),
    ]
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let graph = small_rand_dag(24, 0xAB);
    let platform = single_pair(0.0);
    let heft = heft_baseline(&graph, &platform);
    // Pick the tightest bound (as a fraction of HEFT's footprint) at which the
    // paper-default variant still succeeds, so the ablation compares real
    // schedules rather than failure paths.
    let bound = [0.6, 0.7, 0.8, 0.9, 1.0]
        .iter()
        .map(|f| f * heft.peaks.max())
        .find(|&b| {
            MemHeftVariant::paper_default()
                .schedule(&graph, &platform.with_memory_bounds(b, b))
                .is_ok()
        })
        .unwrap_or(heft.peaks.max());
    let bounded = platform.with_memory_bounds(bound, bound);
    eprintln!(
        "# ablation memory bound: {bound:.1} ({:.0}% of HEFT's footprint)",
        100.0 * bound / heft.peaks.max()
    );

    // Report the makespan impact of each variant once.
    for (name, variant) in variants() {
        let makespan = variant
            .schedule(&graph, &bounded)
            .map(|s| s.makespan())
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|_| "infeasible".to_string());
        eprintln!("# ablation makespan [{name}] = {makespan}");
    }

    for (name, variant) in variants() {
        group.bench_function(name, |b| {
            b.iter(|| variant.schedule(black_box(&graph), black_box(&bounded)))
        });
    }

    // Branch-and-bound pruning budget ablation.
    let tiny = small_rand_dag(10, 0xAC);
    for budget in [1_000u64, 10_000, 100_000] {
        group.bench_function(format!("bb_node_budget_{budget}"), |b| {
            b.iter(|| {
                BranchAndBound::with_node_limit(budget).solve(black_box(&tiny), black_box(&bounded))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
