//! `replay-3k`: `mals_sched::online::replay` of a 3000-task DAG at
//! α = 1, on a Poisson arrival trace at the `replay` binary's default rate
//! (50 tasks per virtual second), re-planning at every arrival.
//!
//! * set-up: the DAG, its HEFT reference (which pins the α = 1 bounds) and
//!   the arrival trace, as the `replay` binary builds them;
//! * `part_a_ms`: one replay with the MemHEFT flavour, which recomputes
//!   upward ranks over the arrived subgraph on every arrival;
//! * `part_b_ms`: one replay with the MemMinMin flavour, which does not —
//!   the control for a change to ranking or admission.
//!
//! A MemHEFT replay takes ~0.5 s, so a run makes dozens of each and
//! reports the lower decile.

use crate::census::{self, Chains};
use crate::stats::{lower_decile, median};
use crate::trace::Tracer;
use crate::{print_passes, repeat, Args, Checks, Outcome};
use mals_dag::TaskGraph;
use mals_experiments::{Service, SolveRequest};
use mals_gen::{ArrivalProcess, ArrivalTrace};
use mals_platform::Platform;
use mals_sched::{online, OnlineConfig, OnlineFlavor, OnlineOutcome, ReplanPolicy, SolveCtx};
use mals_sim::validate;
use mals_util::Pcg64;
use std::time::Instant;

const TASKS: usize = 3000;
/// The `replay` binary's default arrival rate.
const RATE: f64 = 50.0;
/// Passes a run makes at least, even past its time budget, so the lower
/// decile is not one pass.
const MIN_PASSES: usize = 20;
/// MemMinMin-flavour replays per pass (each is a few times shorter than a
/// MemHEFT one); every one is a sample.
const MINMIN_REPEATS: usize = 3;

#[derive(PartialEq)]
struct Instance {
    graph: TaskGraph,
    platform: Platform,
    trace: ArrivalTrace,
    heft_makespan: f64,
}

fn setup(tracer: &mut Tracer, seed: u64) -> Instance {
    let graph = census::generate(tracer, 0, TASKS, &mut Pcg64::new(seed));
    let reference = census::reference(tracer, 0, &graph);
    let bound = reference.heft_peaks.max();
    let platform = Platform::single_pair(0.0, 0.0).with_memory_bounds(bound, bound);
    let trace = tracer.span("gen.arrivals", 0, |_| {
        ArrivalProcess::Poisson { rate: RATE }.generate(&graph, seed)
    });
    Instance {
        graph,
        platform,
        trace,
        heft_makespan: reference.heft_makespan,
    }
}

/// One replay in its own span, with the replayer's own replan total
/// recorded as a child so the span's self time is admission.
fn replay_once(
    tracer: &mut Tracer,
    id: u64,
    instance: &Instance,
    flavor: OnlineFlavor,
    checks: &mut Checks,
) -> (f64, Option<OnlineOutcome>) {
    let config = OnlineConfig::new(flavor, ReplanPolicy::EveryArrival);
    let started = Instant::now();
    let result = tracer.span("online.replay", id, |t| {
        let result = online::replay(
            &instance.graph,
            &instance.platform,
            &instance.trace,
            config,
            &SolveCtx::sequential(),
        );
        if let Ok(outcome) = &result {
            t.record("online.replan", id, started, started + outcome.replan_total);
        }
        result
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let outcome = result.ok();
    let valid = outcome
        .as_ref()
        .is_some_and(|o| validate(&instance.graph, &instance.platform, &o.schedule).is_valid());
    checks.check(valid, || {
        format!("{flavor:?} replay {id} failed or is invalid")
    });
    (wall_ms, outcome)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let checks = &mut outcome.checks;

    // One set-up builds the instance; one more before every pass keeps the
    // set-up median on the same machine as the passes.
    let started = Instant::now();
    let instance = tracer.span("replay.setup", 0, |t| setup(t, args.seed));
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    let since = Instant::now();
    let mut heft_outcome: Option<OnlineOutcome> = None;
    let mut makespans = Vec::new();
    let passes = repeat(MIN_PASSES, args.seconds, since, |i| {
        let started = Instant::now();
        let rebuilt = tracer.span("replay.setup", i as u64 + 1, |t| setup(t, args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
        checks.check(rebuilt == instance, || "set-up is not deterministic".into());
        let (heft_ms, heft) = replay_once(
            tracer,
            2 * i as u64,
            &instance,
            OnlineFlavor::MemHeft,
            checks,
        );
        let mut minmin_ms = Vec::new();
        for _ in 0..MINMIN_REPEATS {
            let (ms, minmin) = replay_once(
                tracer,
                2 * i as u64 + 1,
                &instance,
                OnlineFlavor::MemMinMin,
                checks,
            );
            minmin_ms.push(ms);
            makespans.push((OnlineFlavor::MemMinMin, minmin.map(|o| o.makespan)));
        }
        makespans.push((OnlineFlavor::MemHeft, heft.as_ref().map(|o| o.makespan)));
        heft_outcome = heft_outcome.take().or(heft);
        (heft_ms, minmin_ms)
    });
    for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
        let of: Vec<_> = makespans.iter().filter(|(f, _)| *f == flavor).collect();
        checks.check(of.iter().all(|(_, m)| m.is_some() && *m == of[0].1), || {
            format!("{flavor:?} replays disagree on the makespan")
        });
    }

    print_passes("replay.memheft", passes.iter().map(|p| p.0));
    let minmin_all: Vec<f64> = passes.iter().flat_map(|p| p.1.iter().copied()).collect();
    print_passes("replay.memminmin", minmin_all.iter().copied());
    let heft_ms = lower_decile(&passes.iter().map(|p| p.0).collect::<Vec<_>>());
    let minmin_ms = lower_decile(&minmin_all);
    let online = heft_outcome.as_ref();
    let makespan = online.map_or(f64::NAN, |o| o.makespan);
    println!(
        "replay.memheft_s {:.3} s | replay.memminmin_s {:.3} s | {} passes | replans {} (MemHEFT flavour, {:.1} ms re-planning)",
        heft_ms / 1e3,
        minmin_ms / 1e3,
        passes.len(),
        online.map_or(0, |o| o.replans),
        online.map_or(0.0, |o| o.replan_total.as_secs_f64() * 1e3),
    );

    let m = &mut outcome.metrics;
    if tracer.enabled() {
        // The 10k instance through the request layers: the clairvoyant
        // static solve the replay is compared against.
        let mut chains = Chains::default();
        let request =
            SolveRequest::new(instance.graph.clone(), instance.platform.clone(), "memheft");
        let service = Service::for_request(&request);
        let report = census::chain(tracer, 1 << 32, &request, &service, &mut chains, checks);
        let replan_ms = online.map_or(0.0, |o| o.replan_total.as_secs_f64() * 1e3);
        println!(
            "online.admit_ms.memheft {:.1} ms of {heft_ms:.1} ms | static MemHEFT makespan {:?}",
            heft_ms - replan_ms,
            report.makespan
        );
        m.push("path.outer_ms", heft_ms, "ms");
        m.push("path.inner_ms", replan_ms, "ms");
        m.push("path.overhead_ms", heft_ms - replan_ms, "ms");
        m.push("path.busy_ratio", replan_ms / heft_ms, "ratio");
        census::push_counts(m, &chains);
        m.push(
            "online.replans",
            online.map_or(0, |o| o.replans) as f64,
            "count",
        );
        m.push(
            "online.events",
            online.map_or(0, |o| o.events) as f64,
            "count",
        );
        m.push("serve.backlog_max", 0.0, "count");
        m.push("serve.rejected", 0.0, "count");
        m.push("serve.max_rps", 0.0, "1/s");
    } else {
        m.push("setup_s", median(&setup_s), "s");
        m.push("part_a_ms", heft_ms, "ms");
        m.push("part_b_ms", minmin_ms, "ms");
        m.push("makespan_ratio", makespan / instance.heft_makespan, "ratio");
        let ok = makespans.iter().filter(|(_, m)| m.is_some()).count();
        m.push("success_rate", ok as f64 / makespans.len() as f64, "ratio");
    }
    outcome
}
