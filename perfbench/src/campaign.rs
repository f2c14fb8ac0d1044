//! `campaign-1k`: the Figure-12 streaming campaign (`run_streaming_campaign`
//! over the `Fig12Config::paper()` shape, which is what `fig12_with_io`
//! runs) seeded from the benchmark's seed, on a quarter of its set: 25
//! LargeRandSet DAGs of 1000 tasks, α ∈ {0, 0.1, …, 1}, solvers {memheft,
//! memminmin}, on every core.
//!
//! The α grid runs as two campaigns over the same DAGs, so the tight half
//! (α ≤ 0.5, where the memory bounds bind and solves can be infeasible) and
//! the loose half (α > 0.5) are timed apart:
//!
//! * set-up: building the instances — the 25 DAGs and each one's HEFT
//!   reference peak, which the α values scale into memory bounds;
//! * `part_a_ms`: the tight campaign;
//! * `part_b_ms`: the loose campaign.
//!
//! A pass (set-up and both campaigns) takes ~1 s, so a run makes dozens
//! and reports the lower decile of each campaign's wall time.

use crate::census::{self, Chains};
use crate::stats::{fnv1a, lower_decile, median};
use crate::trace::Tracer;
use crate::{print_passes, repeat, Args, Checks, Outcome};
use mals_dag::TaskGraph;
use mals_experiments::csv::campaign_to_csv;
use mals_experiments::{
    run_streaming_campaign, CampaignConfig, CampaignIo, CampaignPoint, Service, SolveRequest,
};
use mals_gen::SetParams;
use mals_platform::Platform;
use mals_sched::SolveCtx;
use mals_util::{ParallelConfig, Pcg64};
use std::time::Instant;

const DAGS: usize = 25;
/// Passes a run makes at least, even past its time budget, so the lower
/// decile is not one pass.
const MIN_PASSES: usize = 20;
const TASKS: usize = 1000;
const SOLVERS: [&str; 2] = ["memheft", "memminmin"];
/// DAGs of the set the traced run also puts through the request layers.
const CHAIN_DAGS: u64 = 4;

fn alphas(tight: bool) -> Vec<f64> {
    (0..=10)
        .map(|i| f64::from(i) / 10.0)
        .filter(|&a| (a <= 0.5) == tight)
        .collect()
}

fn config(tight: bool, parallel: ParallelConfig) -> CampaignConfig {
    CampaignConfig {
        alphas: alphas(tight),
        solvers: SOLVERS.iter().map(|s| s.to_string()).collect(),
        optimal_node_limit: 200_000,
        parallel,
    }
}

/// The campaign's instances: every DAG of the set with its α = 1 memory,
/// HEFT's peak, which each α scales into the bounds — what the campaign
/// builds for a DAG before its first bounded solve.
fn instances(tracer: &mut Tracer, set: &SetParams) -> Vec<(TaskGraph, f64)> {
    let mut master = Pcg64::new(set.seed);
    (0..set.count as u64)
        .map(|id| {
            let graph = census::generate(tracer, id, TASKS, &mut master.fork(id));
            let peak = census::reference(tracer, id, &graph).heft_peaks.max();
            (graph, peak)
        })
        .collect()
}

/// One campaign over the set: its wall time and its points.
fn campaign(
    tracer: &mut Tracer,
    id: u64,
    set: &SetParams,
    config: &CampaignConfig,
    checks: &mut Checks,
) -> (f64, Vec<CampaignPoint>) {
    let platform = Platform::single_pair(0.0, 0.0);
    let started = Instant::now();
    let run = tracer.span("campaign.run", id, |_| {
        run_streaming_campaign(set, &platform, config, &CampaignIo::default())
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let points = run.ok().and_then(|r| r.points).unwrap_or_default();
    checks.check(points.len() == config.alphas.len(), || {
        format!("campaign {id} did not complete")
    });
    (wall_ms, points)
}

/// The campaign's CSV: the tight rows then the loose rows under one header.
fn csv(tight: &[CampaignPoint], loose: &[CampaignPoint]) -> String {
    let mut out = campaign_to_csv(tight);
    out.extend(
        campaign_to_csv(loose)
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n")),
    );
    out
}

/// `(successes, solves, Σ normalised makespan over successes)`.
fn tally(points: &[CampaignPoint]) -> (f64, f64, f64) {
    let mut acc = (0.0, 0.0, 0.0);
    for method in points.iter().flat_map(|p| &p.methods) {
        let successes = (method.success_rate * DAGS as f64).round();
        acc.0 += successes;
        acc.1 += DAGS as f64;
        acc.2 += method.mean_normalized_makespan.unwrap_or(0.0) * successes;
    }
    acc
}

/// The campaign again, one DAG and one solve at a time on this thread,
/// each call in its own span: per-solve times for the tight and loose
/// halves, and the work the pool spread over its threads. Returns the
/// feasible-solve count and solve time (ms) per half, and the summed
/// per-DAG time (ms).
fn replica(tracer: &mut Tracer, set: &SetParams) -> ([u64; 2], [f64; 2], f64) {
    let solvers: Vec<_> = SOLVERS
        .iter()
        .map(|k| mals_exact::solver_registry().build(k).expect("registered"))
        .collect();
    let ctx = SolveCtx::with_limits(mals_sched::SolveLimits::with_node_limit(200_000));
    let mut master = Pcg64::new(set.seed);
    let mut feasible = [0u64; 2];
    let mut solve_ms = [0.0; 2];
    let started = Instant::now();
    for i in 0..set.count {
        let id = i as u64;
        tracer.span("campaign.dag", id, |t| {
            let mut rng = master.fork(id);
            let graph = census::generate(t, id, TASKS, &mut rng);
            let reference = census::reference(t, id, &graph);
            for (half, tight) in [(0, true), (1, false)] {
                for alpha in alphas(tight) {
                    let bound = alpha * reference.heft_peaks.max();
                    let platform = Platform::single_pair(0.0, 0.0).with_memory_bounds(bound, bound);
                    for solver in &solvers {
                        let solving = Instant::now();
                        let outcome =
                            t.span("sched.solve", id, |_| solver.solve(&graph, &platform, &ctx));
                        solve_ms[half] += solving.elapsed().as_secs_f64() * 1e3;
                        feasible[half] += u64::from(outcome.schedule.is_some());
                    }
                }
            }
        });
    }
    (feasible, solve_ms, started.elapsed().as_secs_f64() * 1e3)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let checks = &mut outcome.checks;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = ParallelConfig::with_threads(threads);
    let set = SetParams {
        seed: args.seed,
        ..SetParams::large_rand().scaled(DAGS, TASKS)
    };

    // One set-up before every pass, so their median sees the same machine
    // as the passes do; every set-up must build the same instances.
    let mut setup_s = Vec::new();
    let mut first_peaks: Option<Vec<f64>> = None;
    let (tight_config, loose_config) = (config(true, parallel), config(false, parallel));
    let since = Instant::now();
    let passes = repeat(MIN_PASSES, args.seconds, since, |i| {
        let started = Instant::now();
        let built = tracer.span("campaign.setup", i as u64, |t| instances(t, &set));
        setup_s.push(started.elapsed().as_secs_f64());
        let peaks: Vec<f64> = built.iter().map(|(_, peak)| *peak).collect();
        checks.check(
            built.iter().all(|(g, _)| g.n_tasks() == TASKS)
                && peaks.len() == DAGS
                && first_peaks.get_or_insert_with(|| peaks.clone()) == &peaks,
            || "set-up built other instances".into(),
        );
        let (tight_ms, tight) = campaign(tracer, 2 * i as u64, &set, &tight_config, checks);
        let (loose_ms, loose) = campaign(tracer, 2 * i as u64 + 1, &set, &loose_config, checks);
        (tight_ms, loose_ms, tight, loose)
    });

    // Correctness: every pass prints the same CSV, and MemHEFT schedules
    // every DAG at α = 1 (its bound is HEFT's own peak there).
    let text = csv(&passes[0].2, &passes[0].3);
    let fingerprint = fnv1a(text.as_bytes());
    for (i, pass) in passes.iter().enumerate() {
        checks.check(csv(&pass.2, &pass.3) == text, || {
            format!("campaign pass {i} printed a different CSV")
        });
    }
    let at_one = passes[0].3.last().and_then(|p| p.methods.first());
    checks.check(at_one.is_some_and(|m| m.success_rate == 1.0), || {
        "MemHEFT failed a DAG at alpha = 1".into()
    });
    let (tight, loose) = (&passes[0].2, &passes[0].3);
    let (ok_t, n_t, sum_t) = tally(tight);
    let (ok_l, n_l, sum_l) = tally(loose);
    print_passes("campaign.tight", passes.iter().map(|p| p.0));
    print_passes("campaign.loose", passes.iter().map(|p| p.1));
    let tight_ms = lower_decile(&passes.iter().map(|p| p.0).collect::<Vec<_>>());
    let loose_ms = lower_decile(&passes.iter().map(|p| p.1).collect::<Vec<_>>());
    println!(
        "campaign.wall_s {:.3} s (tight {:.3} + loose {:.3}) | {} passes on {threads} threads | csv fnv1a {fingerprint:016x}",
        (tight_ms + loose_ms) / 1e3,
        tight_ms / 1e3,
        loose_ms / 1e3,
        passes.len()
    );
    print!("{text}");

    let m = &mut outcome.metrics;
    if tracer.enabled() {
        let (feasible, solve_ms, work_ms) = replica(tracer, &set);
        checks.check(feasible == [ok_t as u64, ok_l as u64], || {
            format!("replica feasible counts {feasible:?} differ from the campaign's {ok_t}/{ok_l}")
        });
        let mut chains = Chains::default();
        let mut master = Pcg64::new(set.seed);
        for id in 0..CHAIN_DAGS {
            let graph = census::generate(tracer, id, TASKS, &mut master.fork(id));
            let bound = census::reference(tracer, id, &graph).heft_peaks.max();
            let platform = Platform::single_pair(0.0, 0.0).with_memory_bounds(bound, bound);
            let request = SolveRequest::new(graph, platform, "memheft");
            let service = Service::for_request(&request);
            census::chain(tracer, id, &request, &service, &mut chains, checks);
        }
        let outer = (tight_ms + loose_ms) * threads as f64;
        println!(
            "pool.efficiency {:.3} (replica work {work_ms:.1} ms / ({:.1} ms x {threads} threads)) | solves: tight {:.1} ms, loose {:.1} ms",
            work_ms / outer,
            tight_ms + loose_ms,
            solve_ms[0],
            solve_ms[1],
        );
        m.push("path.outer_ms", outer, "ms");
        m.push("path.inner_ms", work_ms, "ms");
        m.push("path.overhead_ms", outer - work_ms, "ms");
        m.push("path.busy_ratio", work_ms / outer, "ratio");
        chains.solves += n_t as u64 + n_l as u64;
        chains.infeasible += (n_t - ok_t) as u64 + (n_l - ok_l) as u64;
        census::push_counts(m, &chains);
        m.push("online.replans", 0.0, "count");
        m.push("online.events", 0.0, "count");
        m.push("serve.backlog_max", 0.0, "count");
        m.push("serve.rejected", 0.0, "count");
        m.push("serve.max_rps", 0.0, "1/s");
    } else {
        m.push("setup_s", median(&setup_s), "s");
        m.push("part_a_ms", tight_ms, "ms");
        m.push("part_b_ms", loose_ms, "ms");
        m.push("makespan_ratio", (sum_t + sum_l) / (ok_t + ok_l), "ratio");
        m.push("success_rate", (ok_t + ok_l) / (n_t + n_l), "ratio");
    }
    outcome
}
