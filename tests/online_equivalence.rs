//! Equivalence and determinism guard for the online rolling-horizon layer.
//!
//! The online engine (`mals::sched::online`) replays an arrival trace
//! through an event-driven simulator and re-plans the unscheduled suffix.
//! Its built-in oracle: a trace that releases the whole DAG at `t = 0`,
//! replayed with re-plan-on-every-arrival, must reproduce the static
//! solver's schedule **bit for bit** — same placements, same makespan, same
//! memory peaks, and the same `Infeasible` counts on hopeless instances —
//! at thread counts 1, 2 and 4. This suite pins that oracle on random
//! instances (proptest) and a 1000-task fixture, checks the trace JSON
//! round-trip (serialize → parse → byte-identical re-serialization and an
//! identical replay), and verifies that staggered arrivals are honoured:
//! no task ever starts before its release instant. Staggered traces have
//! no static counterpart, so their schedules are pinned by placement
//! fingerprints recorded on the engine that re-ranked from scratch on
//! every arrival.

use mals::gen::{ArrivalProcess, ArrivalTrace, DaggenParams, WeightRanges};
use mals::prelude::*;
use mals::sched::{online, OnlineConfig, OnlineFlavor, OnlineOutcome, ReplanPolicy};
use mals::sim::memory_peaks;
use mals::util::{ParallelConfig, WorkerPool};
use proptest::prelude::*;

fn generated(seed: u64, size: usize) -> TaskGraph {
    let mut rng = Pcg64::new(seed);
    mals::gen::daggen::generate(
        &DaggenParams::large_rand().with_size(size),
        &WeightRanges::small_rand(),
        &mut rng,
    )
}

/// Bounds both memories at `fraction` of the memory-oblivious HEFT
/// footprint (the campaign normalisation).
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

fn replay_with_threads(
    graph: &TaskGraph,
    platform: &Platform,
    trace: &ArrivalTrace,
    config: OnlineConfig,
    threads: usize,
) -> Result<OnlineOutcome, String> {
    if threads <= 1 {
        online::replay(graph, platform, trace, config, &SolveCtx::sequential())
            .map_err(|e| e.to_string())
    } else {
        let pool = WorkerPool::new(ParallelConfig::with_threads(threads));
        let ctx = SolveCtx::pooled(SolveLimits::default(), &pool);
        online::replay(graph, platform, trace, config, &ctx).map_err(|e| e.to_string())
    }
}

/// The oracle: at-once trace + every-arrival re-planning must equal the
/// static solver exactly — schedule, makespan, peaks and failures alike —
/// at 1, 2 and 4 threads.
fn assert_static_equivalence(graph: &TaskGraph, platform: &Platform) {
    let trace = ArrivalTrace::at_once(graph.n_tasks());
    for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
        let config = OnlineConfig::new(flavor, ReplanPolicy::EveryArrival);
        let static_result = match flavor {
            OnlineFlavor::MemHeft => MemHeft::new().schedule(graph, platform),
            OnlineFlavor::MemMinMin => MemMinMin::new().schedule(graph, platform),
        }
        .map_err(|e| e.to_string());
        for threads in [1usize, 2, 4] {
            let online_result = replay_with_threads(graph, platform, &trace, config, threads)
                .map(|outcome| outcome.schedule);
            match (&online_result, &static_result) {
                (Ok(online_schedule), Ok(static_schedule)) => {
                    assert_eq!(
                        online_schedule, static_schedule,
                        "{flavor:?} at {threads} threads diverged from the static solver"
                    );
                    assert_eq!(
                        memory_peaks(graph, platform, online_schedule),
                        memory_peaks(graph, platform, static_schedule),
                    );
                }
                (Err(online_err), Err(static_err)) => {
                    assert_eq!(
                        online_err, static_err,
                        "{flavor:?} at {threads} threads failed differently"
                    );
                }
                _ => panic!(
                    "{flavor:?} at {threads} threads: online {online_result:?} \
                     vs static {static_result:?}"
                ),
            }
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Static equivalence on random instances, from binding (possibly
    /// infeasible) to ample memory bounds.
    #[test]
    fn at_once_replay_matches_static_solvers(
        graph in arb_graph(),
        platform in arb_platform(),
        tight in 0.3f64..0.8,
    ) {
        for fraction in [tight, 1.0 + tight] {
            let bounded = bounded(&graph, &platform, fraction);
            assert_static_equivalence(&graph, &bounded);
        }
    }

    /// A staggered trace never lets a task start before its release, and
    /// the replay is a pure function of (graph, trace, config).
    #[test]
    fn staggered_replay_respects_arrivals_and_is_deterministic(
        seed in any::<u64>(),
        rate in 0.2f64..5.0,
    ) {
        let graph = generated(seed, 60);
        let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.2);
        let trace = ArrivalProcess::Poisson { rate }.generate(&graph, seed ^ 0xF00D);
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let config = OnlineConfig::new(flavor, ReplanPolicy::EveryArrival);
            let first = replay_with_threads(&graph, &platform, &trace, config, 1).unwrap();
            let second = replay_with_threads(&graph, &platform, &trace, config, 1).unwrap();
            prop_assert_eq!(&first.schedule, &second.schedule);
            let report = validate(&graph, &platform, &first.schedule);
            prop_assert!(report.is_valid(), "{:?}", report.errors);
            let mut released = vec![0.0f64; graph.n_tasks()];
            for event in trace.events() {
                for &t in &event.tasks {
                    released[t.index()] = event.at;
                }
            }
            for t in graph.task_ids() {
                let placement = first.schedule.task(t).unwrap();
                prop_assert!(placement.start >= released[t.index()] - 1e-12);
            }
        }
    }

    /// Trace JSON round-trip: parse(serialize(trace)) is the same trace,
    /// re-serializes to the identical byte string, and replays to the
    /// identical schedule.
    #[test]
    fn trace_round_trips_through_json(seed in any::<u64>(), batch in 1usize..8) {
        let graph = generated(seed, 40);
        let trace = ArrivalProcess::Bursty { batch, rate: 1.0 }.generate(&graph, seed);
        let text = trace.to_json().to_pretty();
        let parsed = ArrivalTrace::parse(&text).unwrap();
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_json().to_pretty(), text);
        let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.5);
        let config = OnlineConfig::new(OnlineFlavor::MemHeft, ReplanPolicy::EveryArrival);
        let original = replay_with_threads(&graph, &platform, &trace, config, 1).unwrap();
        let reparsed = replay_with_threads(&graph, &platform, &parsed, config, 1).unwrap();
        prop_assert_eq!(original.schedule, reparsed.schedule);
    }
}

/// The 1000-task fixture of the issue's acceptance criteria: static
/// equivalence at threads 1/2/4 on a LargeRandSet-shaped instance.
#[test]
fn thousand_task_fixture_matches_static_solvers() {
    let graph = generated(7, 1000);
    let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.0);
    assert_static_equivalence(&graph, &platform);
}

/// Every re-plan policy yields a complete, validator-clean schedule on a
/// staggered trace (policies may trade makespan, never correctness).
#[test]
fn all_policies_produce_valid_schedules() {
    let graph = generated(11, 120);
    let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.2);
    let trace = ArrivalProcess::Bursty {
        batch: 10,
        rate: 0.5,
    }
    .generate(&graph, 9);
    for policy in [
        ReplanPolicy::EveryArrival,
        ReplanPolicy::EveryK(1),
        ReplanPolicy::EveryK(8),
        ReplanPolicy::Horizon(0.0),
        ReplanPolicy::Horizon(10.0),
    ] {
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let outcome = replay_with_threads(
                &graph,
                &platform,
                &trace,
                OnlineConfig::new(flavor, policy),
                1,
            )
            .unwrap();
            let report = validate(&graph, &platform, &outcome.schedule);
            assert!(
                report.is_valid(),
                "{flavor:?}/{policy:?}: {:?}",
                report.errors
            );
            assert_eq!(outcome.completions as usize, graph.n_tasks());
        }
    }
}

/// The registry's `online-*` keys go through the full replay machinery and
/// still match their static counterparts through the engine surface.
#[test]
fn registry_online_solvers_match_static_keys() {
    let registry = solver_registry();
    let graph = generated(3, 200);
    let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), 1.0);
    let ctx = SolveCtx::sequential();
    for (online_key, static_key) in [
        ("online-memheft", "memheft"),
        ("online-memminmin", "memminmin"),
    ] {
        let online_outcome = registry
            .build(online_key)
            .unwrap()
            .solve(&graph, &platform, &ctx);
        let static_outcome = registry
            .build(static_key)
            .unwrap()
            .solve(&graph, &platform, &ctx);
        assert_eq!(
            online_outcome.schedule, static_outcome.schedule,
            "{online_key} diverged from {static_key}"
        );
    }
}

/// FNV-1a over every task and communication placement of a replay (the bit
/// patterns of the times), or over the error text of a failed one.
fn replay_fingerprint(result: &Result<OnlineOutcome, String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match result {
        Ok(outcome) => {
            for p in outcome.schedule.task_placements() {
                mix(p.task.index() as u64);
                mix(p.proc as u64);
                mix(p.start.to_bits());
                mix(p.finish.to_bits());
            }
            for c in outcome.schedule.comm_placements() {
                mix(c.edge.index() as u64);
                mix(c.start.to_bits());
                mix(c.finish.to_bits());
            }
        }
        Err(message) => message.bytes().for_each(|b| mix(u64::from(b))),
    }
    h
}

/// Placement fingerprints of seeded staggered replays — Poisson and bursty
/// traces, both flavours, all three policies, at a binding and an ample
/// memory bound — recorded on the engine that re-walked and re-sorted the
/// whole arrived subgraph on every arrival. Any change to the candidate
/// order (a rank-maintenance bug, a re-plan that commits differently)
/// moves a fingerprint.
#[test]
fn staggered_replays_match_recorded_fingerprints() {
    const EXPECTED: &[(&str, u64)] = &[
        ("s1/poisson/a0.3/every-arrival/memheft", 0xb336d3d487a33956),
        (
            "s1/poisson/a0.3/every-arrival/memminmin",
            0xb336d3d487a33956,
        ),
        ("s1/poisson/a0.3/every-k:7/memheft", 0x7482d8062c85a2d4),
        ("s1/poisson/a0.3/every-k:7/memminmin", 0x06e5a2a06317a430),
        ("s1/poisson/a0.3/horizon:2/memheft", 0x5601ea9c3be67b76),
        ("s1/poisson/a0.3/horizon:2/memminmin", 0x99ace9ea738bd5f7),
        ("s1/poisson/a1/every-arrival/memheft", 0xd8aaad6f13b8f5bf),
        ("s1/poisson/a1/every-arrival/memminmin", 0xd8aaad6f13b8f5bf),
        ("s1/poisson/a1/every-k:7/memheft", 0x6ecd501e01e93451),
        ("s1/poisson/a1/every-k:7/memminmin", 0xb941dd06c0ce36a9),
        ("s1/poisson/a1/horizon:2/memheft", 0x4f5cc7663830cb6b),
        ("s1/poisson/a1/horizon:2/memminmin", 0xc963419708ab1b21),
        ("s1/bursty/a0.3/every-arrival/memheft", 0x4265cc0e2c2fc187),
        ("s1/bursty/a0.3/every-arrival/memminmin", 0x80447e5d9e1daba7),
        ("s1/bursty/a0.3/every-k:7/memheft", 0xc0394cbc36885f4c),
        ("s1/bursty/a0.3/every-k:7/memminmin", 0x7ddc880f138ef254),
        ("s1/bursty/a0.3/horizon:2/memheft", 0x74584db482180a9f),
        ("s1/bursty/a0.3/horizon:2/memminmin", 0x5efc4fe1964c789e),
        ("s1/bursty/a1/every-arrival/memheft", 0x499c08b3c36fd3be),
        ("s1/bursty/a1/every-arrival/memminmin", 0x7fb158dcda70c8c8),
        ("s1/bursty/a1/every-k:7/memheft", 0x44568d4aa4d210d1),
        ("s1/bursty/a1/every-k:7/memminmin", 0xf7012f2f0ee0e412),
        ("s1/bursty/a1/horizon:2/memheft", 0x8cb8ec7d6672811c),
        ("s1/bursty/a1/horizon:2/memminmin", 0x83430193849650e0),
        ("s2/poisson/a0.3/every-arrival/memheft", 0xb71efe31f554afd5),
        (
            "s2/poisson/a0.3/every-arrival/memminmin",
            0x7fd2e5c0c411b5f5,
        ),
        ("s2/poisson/a0.3/every-k:7/memheft", 0x8dfad630d10983f6),
        ("s2/poisson/a0.3/every-k:7/memminmin", 0x8ee788754a3fc801),
        ("s2/poisson/a0.3/horizon:2/memheft", 0x4d92e78ce25f44f1),
        ("s2/poisson/a0.3/horizon:2/memminmin", 0x76d882af589cbe39),
        ("s2/poisson/a1/every-arrival/memheft", 0xb20831a38680ae9f),
        ("s2/poisson/a1/every-arrival/memminmin", 0xb20831a38680ae9f),
        ("s2/poisson/a1/every-k:7/memheft", 0xde099b8844a5d67f),
        ("s2/poisson/a1/every-k:7/memminmin", 0x1138935fe8a3b36a),
        ("s2/poisson/a1/horizon:2/memheft", 0xb1af2b222b650dc6),
        ("s2/poisson/a1/horizon:2/memminmin", 0x895ea425bf48f59f),
        ("s2/bursty/a0.3/every-arrival/memheft", 0xfd6d1e6041e7f185),
        ("s2/bursty/a0.3/every-arrival/memminmin", 0xd770b31b7bbe2c41),
        ("s2/bursty/a0.3/every-k:7/memheft", 0x154578960e8724c3),
        ("s2/bursty/a0.3/every-k:7/memminmin", 0x663b3d3269f3778c),
        ("s2/bursty/a0.3/horizon:2/memheft", 0x4d92e78ce25f44f1),
        ("s2/bursty/a0.3/horizon:2/memminmin", 0x79c34ea0d6e74a7f),
        ("s2/bursty/a1/every-arrival/memheft", 0x13019f3d2da3fc0e),
        ("s2/bursty/a1/every-arrival/memminmin", 0xe68381a2fffebe9e),
        ("s2/bursty/a1/every-k:7/memheft", 0x1ef4542b671c8f3e),
        ("s2/bursty/a1/every-k:7/memminmin", 0x1d1946402b010396),
        ("s2/bursty/a1/horizon:2/memheft", 0x4ca7402de8512b02),
        ("s2/bursty/a1/horizon:2/memminmin", 0xb54e4086009370a6),
    ];
    let mut actual = Vec::new();
    for seed in [1u64, 2] {
        let graph = generated(seed, 200);
        for (trace_name, process) in [
            ("poisson", ArrivalProcess::Poisson { rate: 10.0 }),
            (
                "bursty",
                ArrivalProcess::Bursty {
                    batch: 8,
                    rate: 1.0,
                },
            ),
        ] {
            let trace = process.generate(&graph, seed ^ 0xA11);
            for alpha in [0.3, 1.0] {
                let platform = bounded(&graph, &Platform::new(2, 2, 0.0, 0.0).unwrap(), alpha);
                for policy in [
                    ReplanPolicy::EveryArrival,
                    ReplanPolicy::EveryK(7),
                    ReplanPolicy::Horizon(2.0),
                ] {
                    for (flavor_name, flavor) in [
                        ("memheft", OnlineFlavor::MemHeft),
                        ("memminmin", OnlineFlavor::MemMinMin),
                    ] {
                        let config = OnlineConfig::new(flavor, policy);
                        let result = replay_with_threads(&graph, &platform, &trace, config, 1);
                        actual.push((
                            format!(
                                "s{seed}/{trace_name}/a{alpha}/{}/{flavor_name}",
                                policy.key()
                            ),
                            replay_fingerprint(&result),
                        ));
                    }
                }
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, fp)| format!("        (\"{name}\", 0x{fp:016x}),\n"))
        .collect();
    assert_eq!(actual.len(), EXPECTED.len(), "fingerprint table:\n{table}");
    for ((name, fp), (expected_name, expected_fp)) in actual.iter().zip(EXPECTED) {
        assert_eq!(name, expected_name, "fingerprint table:\n{table}");
        assert_eq!(
            fp, expected_fp,
            "{name} diverged; fingerprint table:\n{table}"
        );
    }
}
