//! Mutual-oracle property tests: the in-tree MILP backend and the
//! combinatorial branch-and-bound are two completely independent exact
//! solvers, so on small instances they must arrive at the same optimum —
//! each one vouches for the other (the role CPLEX plays for the paper's
//! Figure 10).

use mals_exact::{solver_registry, BranchAndBound, MilpBackend};
use mals_gen::{dex, DaggenParams, WeightRanges};
use mals_platform::Platform;
use mals_sched::{Heft, OptimalityStatus, Scheduler, SolveCtx, SolveLimits, SolveOutcome, Solver};
use mals_sim::{memory_peaks, validate, Schedule};
use mals_util::Pcg64;
use proptest::prelude::*;

/// Solves under the default limits.
fn solve(solver: &dyn Solver, graph: &mals_dag::TaskGraph, platform: &Platform) -> SolveOutcome {
    solver.solve(graph, platform, &SolveCtx::sequential())
}

/// `true` when the outcome settles the instance (optimal schedule or
/// infeasibility proof).
fn is_proven(outcome: &SolveOutcome) -> bool {
    matches!(
        outcome.status,
        OptimalityStatus::Optimal | OptimalityStatus::Infeasible
    )
}

/// A seeded random DAG of at most 10 tasks with SmallRandSet-style weights.
fn arb_small_graph() -> impl Strategy<Value = mals_dag::TaskGraph> {
    (any::<u64>(), 4usize..=10, 1usize..=3).prop_map(|(seed, size, jumps)| {
        let mut rng = Pcg64::new(seed);
        mals_gen::daggen::generate(
            &DaggenParams {
                size,
                width: 0.5,
                density: 0.5,
                jumps,
            },
            &WeightRanges::small_rand(),
            &mut rng,
        )
    })
}

/// Solves with both backends and checks agreement + validator cleanliness.
fn assert_mutual_oracle(graph: &mals_dag::TaskGraph, platform: &Platform) {
    let milp = solve(&MilpBackend, graph, platform);
    let bb = solve(&BranchAndBound, graph, platform);
    assert!(
        is_proven(&milp),
        "MILP backend must settle small instances: {milp:?}"
    );
    assert!(
        is_proven(&bb),
        "B&B backend must settle small instances: {bb:?}"
    );
    match (milp.makespan(), bb.makespan()) {
        (Some(a), Some(b)) => {
            assert!(
                (a - b).abs() < 1e-6,
                "optimal makespans disagree: MILP {a} vs B&B {b}"
            );
            for (name, outcome) in [("MILP", &milp), ("B&B", &bb)] {
                let report = validate(graph, platform, outcome.schedule.as_ref().unwrap());
                assert!(
                    report.is_valid(),
                    "{name} schedule rejected by the validator: {:?}",
                    report.errors
                );
                assert!(report.peaks.blue <= platform.mem_blue + 1e-6);
                assert!(report.peaks.red <= platform.mem_red + 1e-6);
            }
        }
        (None, None) => {} // both proved infeasibility
        (a, b) => panic!("feasibility verdicts disagree: MILP {a:?} vs B&B {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// The acceptance sweep: on random DAGs of ≤ 10 tasks with ample memory
    /// (every file fits simultaneously), both exact backends return Optimal
    /// with the same makespan and both schedules pass the validator under
    /// both memory bounds.
    #[test]
    fn milp_and_bb_agree_on_small_instances(graph in arb_small_graph()) {
        let ample = graph.total_file_size().max(1.0);
        let platform = Platform::single_pair(ample, ample);
        assert_mutual_oracle(&graph, &platform);
    }

    /// Under moderately tight symmetric bounds (60% of the total file
    /// volume) the MILP backend must never be *worse* than B&B — its search
    /// space contains every list schedule B&B can reach — and whatever it
    /// returns must validate. (Under tight memory the LP-certified path may
    /// legitimately beat the list-scheduling space, hence ≤, not =.)
    #[test]
    fn milp_never_worse_than_bb_under_tight_memory(graph in arb_small_graph()) {
        let bound = (0.6 * graph.total_file_size()).max(graph.max_mem_req());
        let platform = Platform::single_pair(bound, bound);
        let milp = solve(&MilpBackend, &graph, &platform);
        let bb = solve(&BranchAndBound, &graph, &platform);
        if let (Some(a), Some(b)) = (milp.makespan(), bb.makespan()) {
            assert!(a <= b + 1e-6, "MILP {a} worse than B&B {b}");
            let report = validate(&graph, &platform, milp.schedule.as_ref().unwrap());
            assert!(report.is_valid(), "{:?}", report.errors);
        }
        if bb.makespan().is_some() {
            assert!(
                milp.makespan().is_some(),
                "B&B found a schedule the MILP backend missed: {milp:?}"
            );
        }
    }
}

#[test]
fn toy_instances_agree_across_the_memory_range() {
    // Every interesting bound of the paper's toy DAG, including the
    // infeasible end: the two backends must agree point by point.
    let (g, _) = dex();
    for bound in [2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 100.0] {
        let platform = Platform::single_pair(bound, bound);
        assert_mutual_oracle(&g, &platform);
    }
}

/// FNV-1a over every task and communication placement of a schedule (the
/// bit patterns of the times).
fn fingerprint(schedule: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in schedule.task_placements() {
        mix(p.task.index() as u64);
        mix(p.proc as u64);
        mix(p.start.to_bits());
        mix(p.finish.to_bits());
    }
    for c in schedule.comm_placements() {
        mix(c.edge.index() as u64);
        mix(c.start.to_bits());
        mix(c.finish.to_bits());
    }
    h
}

/// One line per solve: `seed α node_limit key status nodes makespan-bits
/// schedule-fingerprint` (`-` for the last two when there is no schedule).
fn pinned_line(
    seed: u64,
    alpha: f64,
    node_limit: u64,
    key: &str,
    outcome: &SolveOutcome,
) -> String {
    let (makespan, print) = match &outcome.schedule {
        Some(s) => (
            format!("{:#x}", s.makespan().to_bits()),
            format!("{:#x}", fingerprint(s)),
        ),
        None => ("-".to_string(), "-".to_string()),
    };
    format!(
        "{seed} {alpha} {node_limit} {key} {} {} {makespan} {print}",
        outcome.status, outcome.nodes
    )
}

/// Status, node count, makespan bits and schedule fingerprint of `bb` and
/// `milp` on 24 seeded 5–9-task DAGs (SmallRand weights; width 0.8, so that
/// bounds below HEFT's peak still leave feasible instances) at memory bounds
/// α ∈ {0.5, 0.8, 1.0} × HEFT's peak and node budgets of 50 and 200 000.
/// Recorded before the exact solvers became plain `Solver`s; any change to
/// their search, their budget plumbing or their outcome mapping moves a
/// line.
const PINNED: &[&str] = &[
    "0 0.5 50 bb infeasible 0 - -",
    "0 0.5 50 milp infeasible 0 - -",
    "0 0.5 200000 bb infeasible 0 - -",
    "0 0.5 200000 milp infeasible 0 - -",
    "0 0.8 50 bb feasible 50 0x4042000000000000 0xb446f3f8e4ede66f",
    "0 0.8 50 milp optimal 47 0x4042000000000000 0xb446f3f8e4ede66f",
    "0 0.8 200000 bb optimal 65 0x4042000000000000 0xb446f3f8e4ede66f",
    "0 0.8 200000 milp optimal 47 0x4042000000000000 0xb446f3f8e4ede66f",
    "0 1 50 bb optimal 41 0x4040800000000000 0x531ab854665498d2",
    "0 1 50 milp optimal 1 0x4040800000000000 0x531ab854665498d2",
    "0 1 200000 bb optimal 41 0x4040800000000000 0x531ab854665498d2",
    "0 1 200000 milp optimal 1 0x4040800000000000 0x531ab854665498d2",
    "1 0.5 50 bb infeasible 0 - -",
    "1 0.5 50 milp infeasible 0 - -",
    "1 0.5 200000 bb infeasible 0 - -",
    "1 0.5 200000 milp infeasible 0 - -",
    "1 0.8 50 bb infeasible 0 - -",
    "1 0.8 50 milp infeasible 0 - -",
    "1 0.8 200000 bb infeasible 0 - -",
    "1 0.8 200000 milp infeasible 0 - -",
    "1 1 50 bb feasible 50 0x4044000000000000 0x57a41cca99e864d5",
    "1 1 50 milp optimal 15 0x4042000000000000 0xaae4ae7bd7a49a54",
    "1 1 200000 bb optimal 377 0x4042000000000000 0xaae4ae7bd7a49a54",
    "1 1 200000 milp optimal 15 0x4042000000000000 0xaae4ae7bd7a49a54",
    "2 0.5 50 bb infeasible 0 - -",
    "2 0.5 50 milp infeasible 0 - -",
    "2 0.5 200000 bb infeasible 0 - -",
    "2 0.5 200000 milp infeasible 0 - -",
    "2 0.8 50 bb infeasible 0 - -",
    "2 0.8 50 milp infeasible 0 - -",
    "2 0.8 200000 bb infeasible 0 - -",
    "2 0.8 200000 milp infeasible 0 - -",
    "2 1 50 bb optimal 25 0x4046000000000000 0x82f0f99746eef61d",
    "2 1 50 milp optimal 1 0x4046000000000000 0x82f0f99746eef61d",
    "2 1 200000 bb optimal 25 0x4046000000000000 0x82f0f99746eef61d",
    "2 1 200000 milp optimal 1 0x4046000000000000 0x82f0f99746eef61d",
    "3 0.5 50 bb infeasible 0 - -",
    "3 0.5 50 milp infeasible 0 - -",
    "3 0.5 200000 bb infeasible 0 - -",
    "3 0.5 200000 milp infeasible 0 - -",
    "3 0.8 50 bb feasible 50 0x4047000000000000 0x239801d26d896ac9",
    "3 0.8 50 milp feasible 50 0x4047000000000000 0x239801d26d896ac9",
    "3 0.8 200000 bb optimal 6615 0x4044800000000000 0xa1c649b7f4f5d643",
    "3 0.8 200000 milp optimal 350 0x4044800000000000 0xa1c649b7f4f5d643",
    "3 1 50 bb feasible 50 0x4046000000000000 0x119586cd3529a25a",
    "3 1 50 milp feasible 50 0x4046000000000000 0x119586cd3529a25a",
    "3 1 200000 bb optimal 8691 0x4044000000000000 0x602e36e2ed25cb00",
    "3 1 200000 milp optimal 104 0x4044000000000000 0x1c3e0e342755b060",
    "4 0.5 50 bb infeasible 0 - -",
    "4 0.5 50 milp infeasible 0 - -",
    "4 0.5 200000 bb infeasible 0 - -",
    "4 0.5 200000 milp infeasible 0 - -",
    "4 0.8 50 bb feasible 50 0x404b000000000000 0xd0059065d3c16ded",
    "4 0.8 50 milp feasible 50 0x404b800000000000 0xe3b7c94187a285bf",
    "4 0.8 200000 bb optimal 4019 0x4048000000000000 0x5e8197de01bd4775",
    "4 0.8 200000 milp optimal 299 0x4048000000000000 0x5e8197de01bd4775",
    "4 1 50 bb feasible 50 0x404b000000000000 0xd0059065d3c16ded",
    "4 1 50 milp feasible 50 0x404b800000000000 0xe3b7c94187a285bf",
    "4 1 200000 bb optimal 8994 0x4048000000000000 0xead41aa70b59d43c",
    "4 1 200000 milp optimal 94 0x4048000000000000 0xead41aa70b59d43c",
    "5 0.5 50 bb infeasible 0 - -",
    "5 0.5 50 milp infeasible 0 - -",
    "5 0.5 200000 bb infeasible 0 - -",
    "5 0.5 200000 milp infeasible 0 - -",
    "5 0.8 50 bb infeasible 0 - -",
    "5 0.8 50 milp infeasible 0 - -",
    "5 0.8 200000 bb infeasible 0 - -",
    "5 0.8 200000 milp infeasible 0 - -",
    "5 1 50 bb optimal 0 0x402a000000000000 0x2fcd0a430aabd45a",
    "5 1 50 milp optimal 0 0x402a000000000000 0x2fcd0a430aabd45a",
    "5 1 200000 bb optimal 0 0x402a000000000000 0x2fcd0a430aabd45a",
    "5 1 200000 milp optimal 0 0x402a000000000000 0x2fcd0a430aabd45a",
    "6 0.5 50 bb infeasible 0 - -",
    "6 0.5 50 milp infeasible 0 - -",
    "6 0.5 200000 bb infeasible 0 - -",
    "6 0.5 200000 milp infeasible 0 - -",
    "6 0.8 50 bb feasible 50 0x403b000000000000 0x2769f6545556f505",
    "6 0.8 50 milp optimal 10 0x4038000000000000 0xd5f9c1aa1219b1b5",
    "6 0.8 200000 bb optimal 259 0x4038000000000000 0x3cf1fe1e49bf8d5",
    "6 0.8 200000 milp optimal 10 0x4038000000000000 0xd5f9c1aa1219b1b5",
    "6 1 50 bb feasible 50 0x403b000000000000 0xa29ec7a5548e0198",
    "6 1 50 milp optimal 10 0x4038000000000000 0xd5f9c1aa1219b1b5",
    "6 1 200000 bb optimal 305 0x4038000000000000 0x3cf1fe1e49bf8d5",
    "6 1 200000 milp optimal 10 0x4038000000000000 0xd5f9c1aa1219b1b5",
    "7 0.5 50 bb infeasible 0 - -",
    "7 0.5 50 milp infeasible 0 - -",
    "7 0.5 200000 bb infeasible 0 - -",
    "7 0.5 200000 milp infeasible 0 - -",
    "7 0.8 50 bb infeasible 0 - -",
    "7 0.8 50 milp infeasible 0 - -",
    "7 0.8 200000 bb infeasible 0 - -",
    "7 0.8 200000 milp infeasible 0 - -",
    "7 1 50 bb feasible 50 0x4046800000000000 0xd9635117046f176f",
    "7 1 50 milp feasible 50 0x4048000000000000 0x9795f35030e5197f",
    "7 1 200000 bb optimal 781 0x4046800000000000 0xd9635117046f176f",
    "7 1 200000 milp optimal 63 0x4046800000000000 0xf750396db3deb046",
    "8 0.5 50 bb infeasible 0 - -",
    "8 0.5 50 milp infeasible 0 - -",
    "8 0.5 200000 bb infeasible 0 - -",
    "8 0.5 200000 milp infeasible 0 - -",
    "8 0.8 50 bb infeasible 0 - -",
    "8 0.8 50 milp infeasible 0 - -",
    "8 0.8 200000 bb infeasible 0 - -",
    "8 0.8 200000 milp infeasible 0 - -",
    "8 1 50 bb feasible 50 0x4040800000000000 0x6512368da78a5187",
    "8 1 50 milp optimal 38 0x403f000000000000 0xffc914c3c8f77fb4",
    "8 1 200000 bb optimal 1249 0x403f000000000000 0xffc914c3c8f77fb4",
    "8 1 200000 milp optimal 38 0x403f000000000000 0xffc914c3c8f77fb4",
    "9 0.5 50 bb infeasible 0 - -",
    "9 0.5 50 milp infeasible 0 - -",
    "9 0.5 200000 bb infeasible 0 - -",
    "9 0.5 200000 milp infeasible 0 - -",
    "9 0.8 50 bb feasible 50 0x4045800000000000 0x970f9080611dcc2d",
    "9 0.8 50 milp feasible 50 0x4047800000000000 0x1045d10287ad0f0",
    "9 0.8 200000 bb optimal 4143 0x4044800000000000 0x21f8f1adfb72c49e",
    "9 0.8 200000 milp optimal 152 0x4044800000000000 0xf19655300c1abb2e",
    "9 1 50 bb feasible 50 0x4047000000000000 0x25acd0f37b280813",
    "9 1 50 milp feasible 50 0x4047000000000000 0x25acd0f37b280813",
    "9 1 200000 bb optimal 11123 0x4044800000000000 0x13004e109945bfe8",
    "9 1 200000 milp optimal 68 0x4044800000000000 0xc04338cf8626e2ab",
    "10 0.5 50 bb infeasible 0 - -",
    "10 0.5 50 milp infeasible 0 - -",
    "10 0.5 200000 bb infeasible 0 - -",
    "10 0.5 200000 milp infeasible 0 - -",
    "10 0.8 50 bb infeasible 0 - -",
    "10 0.8 50 milp infeasible 0 - -",
    "10 0.8 200000 bb infeasible 0 - -",
    "10 0.8 200000 milp infeasible 0 - -",
    "10 1 50 bb optimal 0 0x403d000000000000 0xed81a636922575b8",
    "10 1 50 milp optimal 0 0x403d000000000000 0xed81a636922575b8",
    "10 1 200000 bb optimal 0 0x403d000000000000 0xed81a636922575b8",
    "10 1 200000 milp optimal 0 0x403d000000000000 0xed81a636922575b8",
    "11 0.5 50 bb infeasible 0 - -",
    "11 0.5 50 milp infeasible 0 - -",
    "11 0.5 200000 bb infeasible 0 - -",
    "11 0.5 200000 milp infeasible 0 - -",
    "11 0.8 50 bb infeasible 0 - -",
    "11 0.8 50 milp infeasible 0 - -",
    "11 0.8 200000 bb infeasible 0 - -",
    "11 0.8 200000 milp infeasible 0 - -",
    "11 1 50 bb feasible 50 0x403e000000000000 0xac823ce5af3a9be9",
    "11 1 50 milp optimal 21 0x403c000000000000 0x32f03f0f39ec6682",
    "11 1 200000 bb optimal 593 0x403c000000000000 0x32f03f0f39ec6682",
    "11 1 200000 milp optimal 21 0x403c000000000000 0x32f03f0f39ec6682",
    "12 0.5 50 bb infeasible 0 - -",
    "12 0.5 50 milp infeasible 0 - -",
    "12 0.5 200000 bb infeasible 0 - -",
    "12 0.5 200000 milp infeasible 0 - -",
    "12 0.8 50 bb feasible 50 0x4042000000000000 0x45e5e77b26a76be6",
    "12 0.8 50 milp optimal 72 0x403f000000000000 0x16c2c743a8326c1c",
    "12 0.8 200000 bb optimal 959 0x403f000000000000 0x16c2c743a8326c1c",
    "12 0.8 200000 milp optimal 72 0x403f000000000000 0x16c2c743a8326c1c",
    "12 1 50 bb feasible 50 0x403e000000000000 0x5467df8bfd5b064e",
    "12 1 50 milp optimal 11 0x403e000000000000 0x5467df8bfd5b064e",
    "12 1 200000 bb optimal 2347 0x403e000000000000 0x5467df8bfd5b064e",
    "12 1 200000 milp optimal 11 0x403e000000000000 0x5467df8bfd5b064e",
    "13 0.5 50 bb infeasible 0 - -",
    "13 0.5 50 milp infeasible 0 - -",
    "13 0.5 200000 bb infeasible 0 - -",
    "13 0.5 200000 milp infeasible 0 - -",
    "13 0.8 50 bb feasible 50 0x4042000000000000 0x25aa2b66bdba6ca6",
    "13 0.8 50 milp feasible 100 0x4041000000000000 0xd348ace62db3103",
    "13 0.8 200000 bb optimal 859 0x4040800000000000 0x6621f4399e0e82cf",
    "13 0.8 200000 milp optimal 218 0x4040800000000000 0x6621f4399e0e82cf",
    "13 1 50 bb feasible 50 0x403b000000000000 0xb27a636956195a5a",
    "13 1 50 milp optimal 21 0x4039000000000000 0xc53b30c124b2d1fd",
    "13 1 200000 bb optimal 1024 0x4039000000000000 0x5e6dc2adce66a317",
    "13 1 200000 milp optimal 21 0x4039000000000000 0xc53b30c124b2d1fd",
    "14 0.5 50 bb infeasible 0 - -",
    "14 0.5 50 milp infeasible 0 - -",
    "14 0.5 200000 bb infeasible 0 - -",
    "14 0.5 200000 milp infeasible 0 - -",
    "14 0.8 50 bb infeasible 0 - -",
    "14 0.8 50 milp infeasible 0 - -",
    "14 0.8 200000 bb infeasible 0 - -",
    "14 0.8 200000 milp infeasible 0 - -",
    "14 1 50 bb feasible 50 0x403a000000000000 0x3f5e405e141c4e4a",
    "14 1 50 milp optimal 19 0x403a000000000000 0x3f5e405e141c4e4a",
    "14 1 200000 bb optimal 1559 0x403a000000000000 0x3f5e405e141c4e4a",
    "14 1 200000 milp optimal 19 0x403a000000000000 0x3f5e405e141c4e4a",
    "15 0.5 50 bb infeasible 0 - -",
    "15 0.5 50 milp infeasible 0 - -",
    "15 0.5 200000 bb infeasible 0 - -",
    "15 0.5 200000 milp infeasible 0 - -",
    "15 0.8 50 bb infeasible 0 - -",
    "15 0.8 50 milp infeasible 0 - -",
    "15 0.8 200000 bb infeasible 0 - -",
    "15 0.8 200000 milp infeasible 0 - -",
    "15 1 50 bb feasible 50 0x4044000000000000 0x6aaa3d83b61ae496",
    "15 1 50 milp optimal 1 0x4044000000000000 0x6aaa3d83b61ae496",
    "15 1 200000 bb optimal 77 0x4044000000000000 0x6aaa3d83b61ae496",
    "15 1 200000 milp optimal 1 0x4044000000000000 0x6aaa3d83b61ae496",
    "16 0.5 50 bb infeasible 0 - -",
    "16 0.5 50 milp infeasible 0 - -",
    "16 0.5 200000 bb infeasible 0 - -",
    "16 0.5 200000 milp infeasible 0 - -",
    "16 0.8 50 bb feasible 50 0x4048000000000000 0xd829e65bb622636b",
    "16 0.8 50 milp optimal 1 0x4048000000000000 0xd829e65bb622636b",
    "16 0.8 200000 bb optimal 113 0x4048000000000000 0xd829e65bb622636b",
    "16 0.8 200000 milp optimal 1 0x4048000000000000 0xd829e65bb622636b",
    "16 1 50 bb feasible 50 0x4048000000000000 0xa6b56d674f984363",
    "16 1 50 milp optimal 1 0x4048000000000000 0xa6b56d674f984363",
    "16 1 200000 bb optimal 147 0x4048000000000000 0xa6b56d674f984363",
    "16 1 200000 milp optimal 1 0x4048000000000000 0xa6b56d674f984363",
    "17 0.5 50 bb infeasible 0 - -",
    "17 0.5 50 milp infeasible 0 - -",
    "17 0.5 200000 bb infeasible 0 - -",
    "17 0.5 200000 milp infeasible 0 - -",
    "17 0.8 50 bb feasible 50 0x4046800000000000 0xc7818bae5d59cc82",
    "17 0.8 50 milp feasible 50 0x4048000000000000 0x337d70fbd7495ba4",
    "17 0.8 200000 bb optimal 1896 0x4045000000000000 0xe3883badcc3b3e5d",
    "17 0.8 200000 milp optimal 293 0x4045000000000000 0xceb4b4fd137f19e0",
    "17 1 50 bb feasible 50 0x4046000000000000 0x8142752e3186a670",
    "17 1 50 milp feasible 50 0x4046000000000000 0x8142752e3186a670",
    "17 1 200000 bb optimal 5745 0x4045000000000000 0xe3883badcc3b3e5d",
    "17 1 200000 milp optimal 134 0x4045000000000000 0x403ba03b33f2011d",
    "18 0.5 50 bb infeasible 0 - -",
    "18 0.5 50 milp infeasible 0 - -",
    "18 0.5 200000 bb infeasible 0 - -",
    "18 0.5 200000 milp infeasible 0 - -",
    "18 0.8 50 bb infeasible 0 - -",
    "18 0.8 50 milp infeasible 0 - -",
    "18 0.8 200000 bb infeasible 0 - -",
    "18 0.8 200000 milp infeasible 0 - -",
    "18 1 50 bb feasible 50 0x4041800000000000 0x1c4f6087820af82b",
    "18 1 50 milp optimal 1 0x4041800000000000 0x1c4f6087820af82b",
    "18 1 200000 bb optimal 79 0x4041800000000000 0x1c4f6087820af82b",
    "18 1 200000 milp optimal 1 0x4041800000000000 0x1c4f6087820af82b",
    "19 0.5 50 bb infeasible 0 - -",
    "19 0.5 50 milp infeasible 0 - -",
    "19 0.5 200000 bb infeasible 0 - -",
    "19 0.5 200000 milp infeasible 0 - -",
    "19 0.8 50 bb infeasible 0 - -",
    "19 0.8 50 milp infeasible 0 - -",
    "19 0.8 200000 bb infeasible 0 - -",
    "19 0.8 200000 milp infeasible 0 - -",
    "19 1 50 bb feasible 50 0x4043800000000000 0x973189d2b8be04c",
    "19 1 50 milp optimal 9 0x4043800000000000 0x973189d2b8be04c",
    "19 1 200000 bb optimal 3251 0x4043800000000000 0x973189d2b8be04c",
    "19 1 200000 milp optimal 9 0x4043800000000000 0x973189d2b8be04c",
    "20 0.5 50 bb infeasible 0 - -",
    "20 0.5 50 milp infeasible 0 - -",
    "20 0.5 200000 bb infeasible 0 - -",
    "20 0.5 200000 milp infeasible 0 - -",
    "20 0.8 50 bb infeasible 0 - -",
    "20 0.8 50 milp infeasible 0 - -",
    "20 0.8 200000 bb infeasible 0 - -",
    "20 0.8 200000 milp infeasible 0 - -",
    "20 1 50 bb optimal 31 0x403f000000000000 0x42cb6e96042f9f10",
    "20 1 50 milp optimal 59 0x403f000000000000 0x42cb6e96042f9f10",
    "20 1 200000 bb optimal 31 0x403f000000000000 0x42cb6e96042f9f10",
    "20 1 200000 milp optimal 59 0x403f000000000000 0x42cb6e96042f9f10",
    "21 0.5 50 bb infeasible 0 - -",
    "21 0.5 50 milp infeasible 0 - -",
    "21 0.5 200000 bb infeasible 0 - -",
    "21 0.5 200000 milp infeasible 0 - -",
    "21 0.8 50 bb infeasible 0 - -",
    "21 0.8 50 milp infeasible 0 - -",
    "21 0.8 200000 bb infeasible 0 - -",
    "21 0.8 200000 milp infeasible 0 - -",
    "21 1 50 bb feasible 50 0x4045000000000000 0xbbf69760facd6445",
    "21 1 50 milp feasible 50 0x4046000000000000 0xd917c200b90a5b3d",
    "21 1 200000 bb optimal 513 0x4045000000000000 0xbbf69760facd6445",
    "21 1 200000 milp optimal 67 0x4045000000000000 0x7e15365c0e8d9fda",
    "22 0.5 50 bb infeasible 0 - -",
    "22 0.5 50 milp infeasible 0 - -",
    "22 0.5 200000 bb infeasible 0 - -",
    "22 0.5 200000 milp infeasible 0 - -",
    "22 0.8 50 bb feasible 50 0x403a000000000000 0x8eb3b54293ae3bf6",
    "22 0.8 50 milp feasible 100 0x403a000000000000 0x8eb3b54293ae3bf6",
    "22 0.8 200000 bb optimal 137 0x403a000000000000 0x8eb3b54293ae3bf6",
    "22 0.8 200000 milp optimal 155 0x403a000000000000 0x8eb3b54293ae3bf6",
    "22 1 50 bb feasible 50 0x403a000000000000 0x635a5dfa88c1bef0",
    "22 1 50 milp optimal 19 0x4038000000000000 0x5e3795beeb8b5db9",
    "22 1 200000 bb optimal 152 0x4038000000000000 0x5e3795beeb8b5db9",
    "22 1 200000 milp optimal 19 0x4038000000000000 0x5e3795beeb8b5db9",
    "23 0.5 50 bb infeasible 0 - -",
    "23 0.5 50 milp infeasible 0 - -",
    "23 0.5 200000 bb infeasible 0 - -",
    "23 0.5 200000 milp infeasible 0 - -",
    "23 0.8 50 bb feasible 50 0x404b800000000000 0xee51eb8db21dcc2",
    "23 0.8 50 milp feasible 73 0x404b800000000000 0xee51eb8db21dcc2",
    "23 0.8 200000 bb optimal 609 0x404b800000000000 0xee51eb8db21dcc2",
    "23 0.8 200000 milp optimal 2711 0x404b800000000000 0xee51eb8db21dcc2",
    "23 1 50 bb optimal 31 0x4044000000000000 0x2783b07514958417",
    "23 1 50 milp optimal 7 0x4044000000000000 0x2783b07514958417",
    "23 1 200000 bb optimal 31 0x4044000000000000 0x2783b07514958417",
    "23 1 200000 milp optimal 7 0x4044000000000000 0x2783b07514958417",
];

#[test]
fn exact_solvers_reproduce_pinned_outcomes() {
    let registry = solver_registry();
    let mut lines = Vec::new();
    for seed in 0..24u64 {
        let mut rng = Pcg64::new(seed);
        let graph = mals_gen::daggen::generate(
            &DaggenParams {
                size: 5 + (seed % 5) as usize,
                width: 0.8,
                ..DaggenParams::small_rand()
            },
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let unbounded = Platform::single_pair(f64::INFINITY, f64::INFINITY);
        let heft = Heft::new().schedule(&graph, &unbounded).unwrap();
        let peak = memory_peaks(&graph, &unbounded, &heft).max();
        for alpha in [0.5, 0.8, 1.0] {
            let platform = Platform::single_pair(alpha * peak, alpha * peak);
            for node_limit in [50u64, 200_000] {
                let ctx = SolveCtx::with_limits(SolveLimits::with_node_limit(node_limit));
                for key in ["bb", "milp"] {
                    let outcome = registry.build(key).unwrap().solve(&graph, &platform, &ctx);
                    lines.push(pinned_line(seed, alpha, node_limit, key, &outcome));
                }
            }
        }
    }
    let mismatches: Vec<_> = lines
        .iter()
        .zip(PINNED)
        .filter(|(got, want)| got != *want)
        .collect();
    assert!(
        mismatches.is_empty() && lines.len() == PINNED.len(),
        "{} of {} lines moved (got, pinned): {mismatches:#?}",
        mismatches.len(),
        PINNED.len()
    );
}
