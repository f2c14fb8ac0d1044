//! Layer calls shared by the workloads: a traced copy of
//! `generated_request`, and the single-request layer chain the traced runs
//! put every workload's instances through.

use crate::stats::Metrics;
use crate::trace::Tracer;
use crate::Checks;
use mals_dag::rank::rank_sorted_tasks;
use mals_dag::TaskGraph;
use mals_experiments::{
    generated_request, heft_reference, Reference, Service, SolveReport, SolveRequest,
};
use mals_gen::{daggen, DaggenParams, WeightRanges};
use mals_platform::Platform;
use mals_sched::{Heft, MinMin, Scheduler, SolveCtx};
use mals_sim::{memory_peaks, validate};
use mals_util::{Json, Pcg64};

/// `mals_experiments::heft_reference` on the 1 + 1 platform the
/// generated instances use. Traced, the same calls are made one span at a
/// time: HEFT and MinMin on the unbounded platform, then the memory peaks
/// of both schedules.
pub fn reference(tracer: &mut Tracer, id: u64, graph: &TaskGraph) -> Reference {
    let platform = Platform::single_pair(0.0, 0.0);
    if !tracer.enabled() {
        return heft_reference(graph, &platform);
    }
    let unbounded = platform.unbounded();
    let heft = tracer.span("ref.heft", id, |_| {
        Heft::new()
            .schedule(graph, &unbounded)
            .expect("HEFT cannot fail")
    });
    let minmin = tracer.span("ref.minmin", id, |_| {
        MinMin::new()
            .schedule(graph, &unbounded)
            .expect("MinMin cannot fail")
    });
    let (heft_peaks, minmin_peaks) = tracer.span("ref.peaks", id, |_| {
        (
            memory_peaks(graph, &unbounded, &heft),
            memory_peaks(graph, &unbounded, &minmin),
        )
    });
    Reference {
        heft_makespan: heft.makespan(),
        heft_peaks,
        minmin_makespan: minmin.makespan(),
        minmin_peaks,
    }
}

/// A seeded LargeRandSet-shaped DAG of `tasks` tasks (the generator call
/// `generated_request`, `replay` and the campaigns make).
pub fn generate(
    tracer: &mut Tracer,
    id: u64,
    tasks: usize,
    rng: &mut Pcg64,
) -> mals_dag::TaskGraph {
    tracer.span("gen.daggen", id, |_| {
        daggen::generate(
            &DaggenParams::large_rand().with_size(tasks),
            &WeightRanges::large_rand(),
            rng,
        )
    })
}

/// `generated_request(tasks, seed)`. Untraced, the library function itself
/// is called; traced, the same calls are made one span at a time (a unit
/// test pins the two to the same request).
pub fn request(tracer: &mut Tracer, id: u64, tasks: usize, seed: u64) -> SolveRequest {
    if !tracer.enabled() {
        return generated_request(tasks, seed);
    }
    let graph = generate(tracer, id, tasks, &mut Pcg64::new(seed));
    let bound = reference(tracer, id, &graph).heft_peaks.max();
    let platform = Platform::single_pair(0.0, 0.0).with_memory_bounds(bound, bound);
    let mut request = SolveRequest::new(graph, platform, "memheft");
    request.seed = Some(seed);
    request
}

/// Counts and times of the layer chains run so far.
#[derive(Debug, Default)]
pub struct Chains {
    /// Solver calls made (`sched.solve` spans).
    pub solves: u64,
    /// Of those, solves that found no schedule within the bounds.
    pub infeasible: u64,
    /// Request JSON bytes emitted.
    pub request_bytes: u64,
    /// Report JSON bytes emitted.
    pub report_bytes: u64,
    /// Per chain: parse + build + handle + report emit, in ms (the
    /// server-side work of one request, measured in process).
    pub server_ms: Vec<f64>,
    /// Per chain: solve + validate, in ms (what `Service::handle` wraps).
    pub inner_ms: Vec<f64>,
}

/// Ranking, `Solver::solve` and `validate` on `request`, each in its own
/// span: the calls `Service::handle` wraps, timed on their own. Returns
/// the solve's makespan; checks the schedule is valid.
pub fn solve_and_validate(
    tracer: &mut Tracer,
    id: u64,
    request: &SolveRequest,
    chains: &mut Chains,
    checks: &mut Checks,
) -> Option<f64> {
    tracer.span("dag.rank", id, |_| rank_sorted_tasks(&request.graph));
    let solver = mals_exact::solver_registry()
        .build(&request.solver)
        .expect("benchmark requests name registered solvers");
    let started = std::time::Instant::now();
    let outcome = tracer.span("sched.solve", id, |_| {
        solver.solve(&request.graph, &request.platform, &SolveCtx::sequential())
    });
    let verdict = outcome.schedule.as_ref().map(|s| {
        tracer.span("sim.validate", id, |_| {
            validate(&request.graph, &request.platform, s)
        })
    });
    chains.inner_ms.push(started.elapsed().as_secs_f64() * 1e3);
    chains.solves += 1;
    chains.infeasible += u64::from(outcome.schedule.is_none());
    checks.check(verdict.is_none_or(|v| v.is_valid()), || {
        format!("request {id}: the solver's schedule fails validation")
    });
    outcome.makespan()
}

/// One request through every layer it crosses, each call in its own span:
/// request emit → `Json::parse` → `SolveRequest::from_json` → ranking →
/// `Solver::solve` → `validate` → `Service::handle` → report emit. Checks
/// that the request round-trips, and that the report is valid, clean and
/// carries the direct solve's makespan.
pub fn chain(
    tracer: &mut Tracer,
    id: u64,
    request: &SolveRequest,
    service: &Service,
    chains: &mut Chains,
    checks: &mut Checks,
) -> SolveReport {
    let text = tracer.span("json.emit_request", id, |_| request.to_json().to_compact());
    let t0 = std::time::Instant::now();
    let json = tracer.span("json.parse", id, |_| Json::parse(&text));
    let parsed = tracer.span("json.build", id, |_| {
        json.ok()
            .and_then(|json| SolveRequest::from_json(&json).ok())
    });
    let parse_build = t0.elapsed();
    checks.check(parsed.as_ref() == Some(request), || {
        format!("request {id}: JSON round trip changed the request")
    });
    let request = parsed.as_ref().unwrap_or(request);

    let makespan = solve_and_validate(tracer, id, request, chains, checks);
    let t1 = std::time::Instant::now();
    let report = tracer.span("service.handle", id, |_| service.handle(request));
    let handle = t1.elapsed();
    let t2 = std::time::Instant::now();
    let report_text = tracer.span("json.emit_report", id, |_| report.to_json().to_compact());
    let emit = t2.elapsed();

    checks.check(
        report.valid == Some(true) && report.errors.is_empty() && report.makespan == makespan,
        || format!("request {id}: invalid report, or its makespan is not the solve's"),
    );
    chains.request_bytes += text.len() as u64;
    chains.report_bytes += report_text.len() as u64;
    chains
        .server_ms
        .push((parse_build + handle + emit).as_secs_f64() * 1e3);
    report
}

/// The solve and JSON counters every traced run reports.
pub fn push_counts(m: &mut Metrics, chains: &Chains) {
    m.push("sched.solves", chains.solves as f64, "count");
    m.push("sched.infeasible", chains.infeasible as f64, "count");
    m.push(
        "sched.useful_ratio",
        (chains.solves - chains.infeasible) as f64 / chains.solves.max(1) as f64,
        "ratio",
    );
    m.push("json.request_bytes", chains.request_bytes as f64, "bytes");
    m.push("json.report_bytes", chains.report_bytes as f64, "bytes");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_request_is_the_library_request() {
        let mut tracer = Tracer::new(true);
        for seed in [1, 7] {
            assert_eq!(
                request(&mut tracer, seed, 150, seed),
                generated_request(150, seed)
            );
        }
        let graph = generated_request(150, 1).graph;
        let traced = reference(&mut tracer, 0, &graph);
        let library = heft_reference(&graph, &Platform::single_pair(0.0, 0.0));
        assert_eq!(traced.heft_makespan, library.heft_makespan);
        assert_eq!(traced.minmin_makespan, library.minmin_makespan);
        assert_eq!(traced.heft_peaks.max(), library.heft_peaks.max());
        assert_eq!(traced.minmin_peaks.max(), library.minmin_peaks.max());
        for layer in ["gen.daggen", "ref.heft", "ref.minmin", "ref.peaks"] {
            assert!(tracer.spans().iter().any(|s| s.name == layer), "{layer}");
        }
    }

    #[test]
    fn chain_checks_pass_on_a_generated_request() {
        let mut tracer = Tracer::new(true);
        let request = generated_request(120, 3);
        let service = Service::for_request(&request);
        let (mut chains, mut checks) = (Chains::default(), Checks::default());
        let report = chain(&mut tracer, 0, &request, &service, &mut chains, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert_eq!(checks.attempted, 3);
        assert_eq!(report.valid, Some(true));
        assert_eq!((chains.solves, chains.infeasible), (1, 0));
        assert!(chains.request_bytes > 0 && chains.report_bytes > 0);
    }
}
