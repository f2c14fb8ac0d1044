//! `batch-10k`: one 10 000-task LargeRandSet request at α = 1, the
//! `schedule --gen-tasks 10000` instance, solved by `memheft` on the
//! request's default single thread.
//!
//! * set-up: `generated_request` (generation plus the reference solves the
//!   CLI pays on every run), made once and again before every pass;
//! * ingress (`part_a_ms`): `SolveRequest::to_json().to_compact()`, then the
//!   parse (`Json::parse` + `SolveRequest::from_json`, which is what
//!   `SolveRequest::parse` does);
//! * solve (`part_b_ms`): `Service::handle`, then the report's
//!   `to_json().to_compact()`.
//!
//! A pass takes ~0.3 s, so a run makes dozens and reports the lower decile
//! of each part.

use crate::census::{self, Chains};
use crate::stats::{lower_decile, median};
use crate::trace::Tracer;
use crate::{print_passes, repeat, Args, Checks, Outcome};
use mals_experiments::{Service, SolveRequest};
use mals_sched::{Heft, Scheduler};
use mals_sim::validate;
use mals_util::Json;
use std::time::Instant;

const TASKS: usize = 10_000;
/// Passes a run makes at least, even past its time budget, so the lower
/// decile is not one pass.
const MIN_PASSES: usize = 20;

/// One pass: ingress then solve, timed separately.
struct Pass {
    ingress_ms: f64,
    solve_ms: f64,
    handle_ms: f64,
    request_bytes: usize,
    report_bytes: usize,
    makespan: Option<f64>,
}

fn pass(
    tracer: &mut Tracer,
    id: u64,
    request: &SolveRequest,
    service: &Service,
    checks: &mut Checks,
) -> Pass {
    let t0 = Instant::now();
    let (parsed, request_bytes) = tracer.span("batch.ingress", id, |t| {
        let text = t.span("json.emit_request", id, |_| request.to_json().to_compact());
        let json = t.span("json.parse", id, |_| Json::parse(&text));
        let parsed = t.span("json.build", id, |_| {
            json.ok()
                .and_then(|json| SolveRequest::from_json(&json).ok())
        });
        (parsed, text.len())
    });
    let ingress_ms = t0.elapsed().as_secs_f64() * 1e3;

    let Some(parsed) = parsed else {
        checks.check(false, || "the request did not parse back".into());
        return Pass {
            ingress_ms,
            solve_ms: f64::NAN,
            handle_ms: f64::NAN,
            request_bytes,
            report_bytes: 0,
            makespan: None,
        };
    };
    let t1 = Instant::now();
    let (report, handle_ms, report_bytes) = tracer.span("batch.solve", id, |t| {
        let report = t.span("service.handle", id, |_| service.handle(&parsed));
        let handle_ms = t1.elapsed().as_secs_f64() * 1e3;
        let text = t.span("json.emit_report", id, |_| report.to_json().to_compact());
        (report, handle_ms, text.len())
    });
    let solve_ms = t1.elapsed().as_secs_f64() * 1e3;

    // Correctness, outside the timed regions: the request survived the
    // round trip and the schedule re-validates independently.
    checks.check(parsed == *request, || {
        format!("pass {id}: request changed in transit")
    });
    let revalidated = report
        .schedule
        .as_ref()
        .is_some_and(|s| validate(&parsed.graph, &parsed.platform, s).is_valid());
    checks.check(
        revalidated && report.valid == Some(true) && report.errors.is_empty() && report_bytes > 0,
        || format!("pass {id}: report invalid or carries errors"),
    );
    Pass {
        ingress_ms,
        solve_ms,
        handle_ms,
        request_bytes,
        report_bytes,
        makespan: report.makespan,
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let checks = &mut outcome.checks;

    // One set-up builds the request; one more before every pass keeps the
    // set-up median on the same machine as the passes.
    let t0 = Instant::now();
    let request = tracer.span("batch.setup", 0, |t| {
        census::request(t, 0, TASKS, args.seed)
    });
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let service = Service::for_request(&request);

    let mut chains = Chains::default();
    let since = Instant::now();
    let passes = repeat(MIN_PASSES, args.seconds, since, |i| {
        let id = i as u64 + 1;
        let t0 = Instant::now();
        let rebuilt = tracer.span("batch.setup", id, |t| {
            census::request(t, id, TASKS, args.seed)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        checks.check(rebuilt == request, || "set-up is not deterministic".into());
        let pass = pass(tracer, id, &request, &service, checks);
        if tracer.enabled() {
            // The calls `Service::handle` wraps, timed on their own, so the
            // service's overhead is handle − solve − validate.
            let direct = census::solve_and_validate(tracer, id, &request, &mut chains, checks);
            checks.check(direct == pass.makespan, || {
                format!("pass {id}: service and direct solve disagree")
            });
        }
        pass
    });

    let makespan = passes[0].makespan;
    checks.check(
        makespan.is_some() && passes.iter().all(|p| p.makespan == makespan),
        || "makespan differs between passes".into(),
    );
    print_passes("batch.ingress", passes.iter().map(|p| p.ingress_ms));
    print_passes("batch.solve", passes.iter().map(|p| p.solve_ms));
    let ingress = lower_decile(&passes.iter().map(|p| p.ingress_ms).collect::<Vec<_>>());
    let solve = lower_decile(&passes.iter().map(|p| p.solve_ms).collect::<Vec<_>>());
    let setup_s = median(&setup_s);
    println!(
        "batch.setup_s {setup_s:.3} s | batch.ingress_s {:.3} s | batch.solve_s {:.3} s | {} passes",
        ingress / 1e3,
        solve / 1e3,
        passes.len()
    );

    let m = &mut outcome.metrics;
    if tracer.enabled() {
        let outer = median(&passes.iter().map(|p| p.handle_ms).collect::<Vec<_>>());
        let inner = median(&chains.inner_ms);
        m.push("path.outer_ms", outer, "ms");
        m.push("path.inner_ms", inner, "ms");
        m.push("path.overhead_ms", outer - inner, "ms");
        m.push("path.busy_ratio", inner / outer, "ratio");
        chains.request_bytes = passes.iter().map(|p| p.request_bytes as u64).sum();
        chains.report_bytes = passes.iter().map(|p| p.report_bytes as u64).sum();
        census::push_counts(m, &chains);
        m.push("online.replans", 0.0, "count");
        m.push("online.events", 0.0, "count");
        m.push("serve.backlog_max", 0.0, "count");
        m.push("serve.rejected", 0.0, "count");
        m.push("serve.max_rps", 0.0, "1/s");
    } else {
        let heft = Heft::new()
            .schedule(&request.graph, &request.platform.unbounded())
            .expect("HEFT cannot fail")
            .makespan();
        let ratio = makespan.map_or(f64::NAN, |ms| ms / heft);
        println!("batch.makespan_ratio {ratio:.6} (MemHEFT {makespan:?} / HEFT {heft})");
        m.push("setup_s", setup_s, "s");
        m.push("part_a_ms", ingress, "ms");
        m.push("part_b_ms", solve, "ms");
        m.push("makespan_ratio", ratio, "ratio");
        m.push(
            "success_rate",
            if makespan.is_some() { 1.0 } else { 0.0 },
            "ratio",
        );
    }
    outcome
}
