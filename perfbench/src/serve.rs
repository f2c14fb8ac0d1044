//! `serve-300`: a `malsd` daemon (`Daemon::start` with the `DaemonConfig`
//! defaults) on 127.0.0.1, driven by this benchmark's own client.
//!
//! The client holds one connection with one sender and one reader thread.
//! It sets `TCP_NODELAY` and writes every frame in a single write, so no
//! Nagle / delayed-ACK wait lands in the numbers. Each phase sends on a
//! schedule fixed in advance, regardless of responses; each request's
//! latency is measured from the instant it was *due*, so a stall also
//! charges the requests queued behind it, and every sample is kept. A
//! run's phases, after a warm-up:
//!
//! * [`PROBE_REQUESTS`] requests at a seeded Poisson rate of 100 req/s
//!   (printed with its percentiles; the traced run starts its rate search
//!   here);
//! * single requests for 30% of the budget, each sent once the previous
//!   one was answered: `part_a_ms` is the lower decile of their round
//!   trips, the latency of a request on an idle daemon;
//! * bursts of [`BURST`] requests sent back to back for 30% of the budget:
//!   `part_b_ms` is the lower decile over bursts of the time from the
//!   burst's start to its last response divided by [`BURST`], the
//!   daemon's time per request at saturation (1 / throughput).
//!
//! Neither part is a latency under a fixed high rate: there a moment of a
//! slower host becomes a queue, and the run's figure depends on how many
//! such moments it met (see the README).
//!
//! * set-up: starting the daemon and building its request mix (8 seeded
//!   300-task `generated_request` instances, rendered to JSON);
//! * the traced run also searches for the highest offered rate whose p99
//!   stays within 20 ms with no failed request and no growing backlog
//!   (`serve.max_rps`).

use crate::census::{self, Chains};
use crate::stats::{lower_decile, median, Latencies};
use crate::trace::Tracer;
use crate::{print_passes, repeat, Args, Checks, Outcome};
use mals_experiments::{Daemon, DaemonConfig, DaemonHandle, Service, SolveRequest};
use mals_gen::exponential_gap;
use mals_sched::{EngineConfig, Heft, Scheduler};
use mals_util::{FrameReader, Json, ParallelConfig, Pcg64};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const TASKS: usize = 300;
const MIX: usize = 8;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// The latency limit `serve.max_rps` is searched against (ms, on p99).
const LIMIT_MS: f64 = 20.0;
/// Requests per search probe: the fewest for which p99 has ten samples
/// beyond it.
const PROBE_REQUESTS: usize = 1000;
/// Requests per burst: sent back to back, within the daemon's default
/// queue capacity (64), so none is refused.
const BURST: usize = 32;
/// Single requests and bursts a run makes at least, each, even past its
/// time budget.
const MIN_BURSTS: usize = 20;
/// Search probes after the fixed rate.
const SEARCH_PROBES: usize = 4;
/// Unmeasured requests that warm the daemon up before the first phase.
const WARMUP_REQUESTS: usize = 32;
/// Layer-chain rounds over the mix in the traced run.
const CHAIN_ROUNDS: usize = 5;
/// A reader that has seen nothing for this long gives the rest up as lost.
const IDLE_LIMIT: Duration = Duration::from_secs(10);

/// The mix: one request per instance, its JSON body, and the makespans a
/// correct response carries (checked) and its HEFT reference (for the
/// makespan ratio).
struct Mix {
    requests: Vec<SolveRequest>,
    bodies: Vec<String>,
    makespans: Vec<Option<f64>>,
    heft: Vec<f64>,
}

fn build_mix(tracer: &mut Tracer, seed: u64) -> (Vec<SolveRequest>, Vec<String>) {
    (0..MIX as u64)
        .map(|i| {
            let request = census::request(
                tracer,
                i,
                TASKS,
                seed.wrapping_mul(MIX as u64).wrapping_add(i),
            );
            let body = tracer.span("json.emit_request", i, |_| request.to_json().to_compact());
            (request, body)
        })
        .unzip()
}

/// Everything one open-loop phase observed.
#[derive(Debug, Default)]
struct Phase {
    rate: f64,
    latencies: Vec<f64>,
    lags: Vec<f64>,
    backlog_max: usize,
    /// In flight when the last request was sent.
    backlog_end: usize,
    rejected: BTreeMap<String, u64>,
    failed: u64,
    /// Σ makespan / HEFT makespan over the good responses.
    ratio_sum: f64,
    good: u64,
    /// `(id, due, received)` of every answered request.
    windows: Vec<(u64, Instant, Instant)>,
}

impl Phase {
    fn p99(&self) -> f64 {
        Latencies::new(self.latencies.clone())
            .at(99.0)
            .unwrap_or(f64::INFINITY)
    }

    /// Whether the phase meets the limit: p99 within it, nothing failed,
    /// and the backlog at the end of sending is no more than the requests
    /// the limit allows in flight (Little's law), plus a little slack.
    fn meets_limit(&self) -> bool {
        self.failed == 0
            && self.p99() <= LIMIT_MS
            && self.backlog_end as f64 <= self.rate * LIMIT_MS / 1e3 + 4.0
    }
}

/// One open-loop phase: `count` requests at Poisson rate `rate` (send
/// `k` is due `offsets[k]` after the phase starts, whatever the responses
/// do), ids from `first_id`, request `k` carrying mix entry `k % MIX`.
/// An infinite rate sends every request at once: a burst.
fn run_load(
    stream: &TcpStream,
    mix: &Mix,
    rate: f64,
    offsets: &[Duration],
    first_id: u64,
) -> io::Result<Phase> {
    let count = offsets.len();
    let mut writer = stream.try_clone()?;
    let reader_stream = stream.try_clone()?;
    reader_stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let sent = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, received) = (&sent, &received);

    let (send_result, frames) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut frames: Vec<(Instant, String)> = Vec::with_capacity(count);
            let mut reader = FrameReader::new(reader_stream);
            let mut last = Instant::now();
            while frames.len() < count {
                match reader.read_frame() {
                    Ok(Some(text)) => {
                        last = Instant::now();
                        frames.push((last, text));
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(None) => break,
                    Err(e) if e.is_retryable() => {
                        let waiting_on_sender = sent.load(Ordering::Relaxed) < count;
                        if !waiting_on_sender && last.elapsed() > IDLE_LIMIT {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            frames
        });
        let sender = scope.spawn(move || -> io::Result<(Vec<f64>, usize, usize)> {
            let (mut lags, mut backlog_max, mut backlog_end) = (Vec::with_capacity(count), 0, 0);
            for (k, offset) in offsets.iter().enumerate() {
                let body = &mix.bodies[k % MIX];
                let frame = format!("{{\"id\":{},{}\n", first_id + k as u64, &body[1..]);
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lags.push(due.elapsed().as_secs_f64() * 1e3);
                let result = writer.write_all(frame.as_bytes());
                let in_flight = (sent.fetch_add(1, Ordering::Relaxed) + 1)
                    .saturating_sub(received.load(Ordering::Relaxed));
                backlog_max = backlog_max.max(in_flight);
                backlog_end = in_flight;
                if let Err(e) = result {
                    sent.store(count, Ordering::Relaxed);
                    return Err(e);
                }
            }
            Ok((lags, backlog_max, backlog_end))
        });
        let send_result = sender.join().expect("sender thread panicked");
        let frames = reader.join().expect("reader thread panicked");
        (send_result, frames)
    });
    let (lags, backlog_max, backlog_end) = send_result?;

    // Correctness, after the phase: every response answers one request
    // of this phase, once, with a valid clean report of the expected
    // makespan. Unanswered requests are failures.
    let mut phase = Phase {
        rate,
        lags,
        backlog_max,
        backlog_end,
        ..Phase::default()
    };
    let mut answered = vec![false; count];
    for (at, text) in frames {
        let json = Json::parse(&text).ok();
        let id = json
            .as_ref()
            .and_then(|j| j.get("id"))
            .and_then(Json::as_u64);
        let k = id
            .and_then(|id| id.checked_sub(first_id))
            .map(|k| k as usize)
            .filter(|&k| k < count && !answered[k]);
        let Some(k) = k else {
            phase.failed += 1;
            continue;
        };
        answered[k] = true;
        let Some(json) = json else {
            phase.failed += 1;
            continue;
        };
        if let Some(code) = json
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
        {
            *phase.rejected.entry(code.to_string()).or_insert(0) += 1;
            phase.failed += 1;
            continue;
        }
        // A clean report says `valid: true` and has no `errors` (the array
        // is left out when empty).
        let clean = json.get("valid").and_then(Json::as_bool) == Some(true)
            && json
                .get("errors")
                .is_none_or(|e| e.as_arr().is_some_and(<[Json]>::is_empty));
        let makespan = json.get("makespan").and_then(Json::as_f64);
        if !clean || makespan.is_none() || makespan != mix.makespans[k % MIX] {
            phase.failed += 1;
            continue;
        }
        let due = start + offsets[k];
        phase.good += 1;
        phase.ratio_sum += makespan.unwrap_or(0.0) / mix.heft[k % MIX];
        phase.latencies.push((at - due).as_secs_f64() * 1e3);
        phase.windows.push((first_id + k as u64, due, at));
    }
    phase.failed += answered.iter().filter(|a| !**a).count() as u64;
    Ok(phase)
}

/// One search probe's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate, req/s.
    pub rate: f64,
    /// p99 latency there (ms; infinite without enough answered samples).
    pub p99_ms: f64,
    /// Whether the rate met the limit.
    pub ok: bool,
}

/// Searches for the highest rate meeting the limit, starting from the
/// `known` probes and making `probes` more: steps of ×1.5 up while every
/// rate passes, steps of ÷1.5 down while every rate fails, bisection once
/// a passing and a failing rate bracket it.
/// The answer interpolates p99 linearly between the highest passing and
/// the lowest failing rate, so it is not stuck on the bisection grid.
pub fn search_max_rate(
    known: &[Probe],
    probes: usize,
    limit_ms: f64,
    mut probe: impl FnMut(f64) -> Probe,
) -> f64 {
    let mut lo = known
        .iter()
        .filter(|p| p.ok)
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .copied();
    let mut hi = known
        .iter()
        .filter(|p| !p.ok && lo.is_none_or(|l| p.rate > l.rate))
        .min_by(|a, b| a.rate.total_cmp(&b.rate))
        .copied();
    for _ in 0..probes {
        let next = match (lo, hi) {
            (Some(l), Some(h)) => (l.rate + h.rate) / 2.0,
            (Some(l), None) => l.rate * 1.5,
            (None, Some(h)) => h.rate / 1.5,
            (None, None) => return 0.0,
        };
        let result = probe(next);
        if result.ok {
            lo = Some(result);
        } else {
            hi = Some(result);
        }
    }
    match (lo, hi) {
        (Some(l), Some(h))
            if h.p99_ms.is_finite() && h.p99_ms > limit_ms && h.p99_ms > l.p99_ms =>
        {
            let share = (limit_ms - l.p99_ms) / (h.p99_ms - l.p99_ms);
            l.rate + (h.rate - l.rate) * share.clamp(0.0, 1.0)
        }
        (Some(l), _) => l.rate,
        (None, _) => 0.0,
    }
}

fn describe(name: &str, phase: &Phase) {
    let lat = Latencies::new(phase.latencies.clone());
    let lag = Latencies::new(phase.lags.clone());
    println!(
        "{name} @ {:.1} req/s: latency {} | sender lag {} | backlog max {} end {} | failed {}",
        phase.rate,
        lat.describe("ms"),
        lag.describe("ms"),
        phase.backlog_max,
        phase.backlog_end,
        phase.failed
    );
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let checks = &mut outcome.checks;

    let mut setup_s = Vec::new();
    let mut built: Option<(DaemonHandle, Vec<SolveRequest>, Vec<String>)> = None;
    for i in 0..SETUPS {
        if let Some((daemon, _, _)) = built.take() {
            daemon.shutdown();
            daemon.join();
        }
        let started = Instant::now();
        let result = tracer.span("serve.setup", i as u64, |t| {
            Daemon::start(DaemonConfig::default()).map(|d| {
                let (requests, bodies) = build_mix(t, args.seed);
                (d, requests, bodies)
            })
        });
        setup_s.push(started.elapsed().as_secs_f64());
        match result {
            Ok(b) => built = Some(b),
            Err(e) => {
                checks.check(false, || format!("daemon failed to start: {e}"));
                return outcome;
            }
        }
    }
    let (daemon, requests, bodies) = built.expect("set up at least once");

    // What correct responses carry, computed in process.
    let service = Service::new(EngineConfig {
        parallel: ParallelConfig::with_threads(DaemonConfig::default().threads),
        limits: Default::default(),
    });
    let mix = Mix {
        makespans: requests
            .iter()
            .map(|r| service.handle(r).makespan)
            .collect(),
        heft: requests
            .iter()
            .map(|r| {
                Heft::new()
                    .schedule(&r.graph, &r.platform.unbounded())
                    .expect("HEFT cannot fail")
                    .makespan()
            })
            .collect(),
        requests,
        bodies,
    };

    let driven = drive(args, tracer, &daemon, &mix, checks);
    daemon.shutdown();
    daemon.join();
    let Some(driven) = driven else {
        return outcome;
    };

    let m = &mut outcome.metrics;
    if tracer.enabled() {
        let mut chains = Chains::default();
        for round in 0..CHAIN_ROUNDS {
            for (i, request) in mix.requests.iter().enumerate() {
                let id = (round * MIX + i) as u64;
                census::chain(tracer, id, request, &service, &mut chains, checks);
            }
        }
        let outer = median(&driven.singles.per_request);
        let inner = median(&chains.server_ms);
        println!(
            "daemon.overhead_us {:.1} (p50 {:.1} us round trip of a single request - in-process {:.1} us) | in-process per request: {}",
            (outer - inner) * 1e3,
            outer * 1e3,
            inner * 1e3,
            Latencies::new(chains.server_ms.clone()).describe("ms"),
        );
        m.push("path.outer_ms", outer, "ms");
        m.push("path.inner_ms", inner, "ms");
        m.push("path.overhead_ms", outer - inner, "ms");
        m.push("path.busy_ratio", inner / outer, "ratio");
        census::push_counts(m, &chains);
        m.push("online.replans", 0.0, "count");
        m.push("online.events", 0.0, "count");
        m.push("serve.backlog_max", driven.backlog_max as f64, "count");
        m.push("serve.rejected", driven.rejected as f64, "count");
        m.push("serve.max_rps", driven.max_rps.unwrap_or(0.0), "1/s");
    } else {
        let phases: Vec<&Phase> = std::iter::once(&driven.low)
            .chain(&driven.singles.phases)
            .chain(&driven.bursts.phases)
            .collect();
        let good: u64 = phases.iter().map(|p| p.good).sum();
        let total = good + phases.iter().map(|p| p.failed).sum::<u64>();
        let ratio_sum: f64 = phases.iter().map(|p| p.ratio_sum).sum();
        m.push("setup_s", median(&setup_s), "s");
        m.push("part_a_ms", lower_decile(&driven.singles.per_request), "ms");
        m.push("part_b_ms", lower_decile(&driven.bursts.per_request), "ms");
        m.push("makespan_ratio", ratio_sum / good as f64, "ratio");
        m.push("success_rate", good as f64 / total.max(1) as f64, "ratio");
    }
    outcome
}

/// Bursts of one size: every phase, and each one's time per request (ms).
struct Bursts {
    phases: Vec<Phase>,
    per_request: Vec<f64>,
}

/// What [`drive`] measured.
struct Driven {
    low: Phase,
    /// Bursts of one request: single round trips.
    singles: Bursts,
    bursts: Bursts,
    /// The searched rate (traced runs only).
    max_rps: Option<f64>,
    backlog_max: usize,
    rejected: u64,
}

/// Warm-up, the fixed-rate phase, the single requests, the bursts and
/// (traced runs only) the rate search, on one connection. `None` if the
/// connection failed.
fn drive(
    args: &Args,
    tracer: &mut Tracer,
    daemon: &DaemonHandle,
    mix: &Mix,
    checks: &mut Checks,
) -> Option<Driven> {
    let stream = TcpStream::connect(daemon.addr()).and_then(|s| s.set_nodelay(true).map(|()| s));
    let stream = match stream {
        Ok(stream) => stream,
        Err(e) => {
            checks.check(false, || format!("cannot connect to the daemon: {e}"));
            return None;
        }
    };
    let mut rng = Pcg64::new(args.seed);
    let mut next_id = 0u64;
    let mut run_phase = |tracer: &mut Tracer, name: &'static str, rate: f64, count: usize| {
        let mut offset = 0.0;
        let offsets: Vec<Duration> = (0..count)
            .map(|_| {
                let at = Duration::from_secs_f64(offset);
                if rate.is_finite() {
                    offset += exponential_gap(&mut rng, rate);
                }
                at
            })
            .collect();
        let first_id = next_id;
        next_id += count as u64;
        let result = tracer.span(name, first_id, |t| {
            let result = run_load(&stream, mix, rate, &offsets, first_id);
            if let Ok(phase) = &result {
                for &(id, due, at) in &phase.windows {
                    t.record("serve.request", id, due, at);
                }
            }
            result
        });
        match result {
            Ok(phase) => {
                if rate.is_finite() {
                    describe(name, &phase);
                }
                Some(phase)
            }
            Err(e) => {
                checks.check(false, || {
                    format!("{name} at {rate} req/s: connection failed: {e}")
                });
                None
            }
        }
    };

    let warmup = run_phase(tracer, "serve.warmup", 100.0, WARMUP_REQUESTS)?;
    let low = run_phase(tracer, "serve.r100", 100.0, PROBE_REQUESTS)?;
    let mut bursts = |tracer: &mut Tracer, name: &'static str, size: usize| {
        let since = Instant::now();
        let phases = repeat(MIN_BURSTS, args.seconds * 0.3, since, |_| {
            run_phase(tracer, name, f64::INFINITY, size)
        });
        let phases: Vec<Phase> = phases.into_iter().collect::<Option<_>>()?;
        // Every request of a burst is due at its start, so its latest
        // latency is the time the burst took.
        let per_request: Vec<f64> = phases
            .iter()
            .map(|b| b.latencies.iter().copied().fold(0.0, f64::max) / size as f64)
            .collect();
        print_passes(name, per_request.iter().copied());
        Some(Bursts {
            phases,
            per_request,
        })
    };
    let singles = bursts(tracer, "serve.single", 1)?;
    let bursts = bursts(tracer, "serve.burst", BURST)?;

    let mut failed_probe = false;
    let mut probes = Vec::new();
    let max_rps = tracer.enabled().then(|| {
        let known: Vec<Probe> = [&low]
            .iter()
            .map(|p| Probe {
                rate: p.rate,
                p99_ms: p.p99(),
                ok: p.meets_limit(),
            })
            .collect();
        let found = search_max_rate(&known, SEARCH_PROBES, LIMIT_MS, |rate| {
            match run_phase(tracer, "serve.probe", rate, PROBE_REQUESTS) {
                Some(phase) => {
                    let probe = Probe {
                        rate,
                        p99_ms: phase.p99(),
                        ok: phase.meets_limit(),
                    };
                    probes.push(phase);
                    probe
                }
                None => {
                    failed_probe = true;
                    Probe {
                        rate,
                        p99_ms: f64::INFINITY,
                        ok: false,
                    }
                }
            }
        });
        println!(
            "serve.max_rps {found:.1} req/s (p99 <= {LIMIT_MS} ms, no failures, no growing backlog)"
        );
        found
    });

    // Requests are failures in warm-up, at the fixed rate and in bursts; a
    // search probe past the daemon's capacity may time out or be refused by
    // design, and only counts as "not meeting the limit".
    let counted = [("warm-up", &warmup), ("100 req/s", &low)]
        .into_iter()
        .chain(singles.phases.iter().map(|b| ("single", b)))
        .chain(bursts.phases.iter().map(|b| ("burst", b)));
    for (name, phase) in counted {
        for _ in 0..phase.good {
            checks.check(true, String::new);
        }
        for _ in 0..phase.failed {
            checks.check(false, || {
                format!("{name}: failed request (rejects: {:?})", phase.rejected)
            });
        }
    }
    checks.check(!failed_probe, || {
        "a search probe lost its connection".into()
    });
    let all = [&warmup, &low]
        .into_iter()
        .chain(&singles.phases)
        .chain(&bursts.phases)
        .chain(probes.iter());
    let (backlog_max, rejected) = all.fold((0, 0), |(b, r), p| {
        (b.max(p.backlog_max), r + p.rejected.values().sum::<u64>())
    });
    Some(Driven {
        low,
        singles,
        bursts,
        max_rps,
        backlog_max,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic latency curve: p99 = 3 / (1 − rate/400) ms, which crosses
    /// the 20 ms limit at 340 req/s.
    fn curve(rate: f64) -> Probe {
        let p99_ms = if rate < 400.0 {
            3.0 / (1.0 - rate / 400.0)
        } else {
            f64::INFINITY
        };
        Probe {
            rate,
            p99_ms,
            ok: p99_ms <= LIMIT_MS,
        }
    }

    #[test]
    fn search_brackets_and_interpolates_the_limit_crossing() {
        let mut probed = Vec::new();
        let known = [curve(100.0), curve(250.0)];
        let found = search_max_rate(&known, 4, LIMIT_MS, |r| {
            probed.push(r);
            curve(r)
        });
        assert_eq!(probed, vec![375.0, 312.5, 343.75, 328.125]);
        assert!((found - 340.0).abs() < 2.0, "{found}");
        assert!(found > 328.125 && found < 343.75);
    }

    #[test]
    fn search_from_a_failing_fixed_rate_bisects_down() {
        let known = [curve(100.0), curve(360.0)];
        let found = search_max_rate(&known, 6, LIMIT_MS, curve);
        assert!((found - 340.0).abs() < 2.0, "{found}");
    }

    #[test]
    fn search_reports_the_last_passing_rate_when_nothing_fails() {
        let known = [curve(10.0), curve(20.0)];
        let found = search_max_rate(&known, 3, LIMIT_MS, curve);
        assert_eq!(found, 67.5);
    }

    #[test]
    fn search_steps_down_when_nothing_passes() {
        let mut probed = Vec::new();
        let found = search_max_rate(&[curve(800.0)], 4, LIMIT_MS, |r| {
            probed.push(r);
            curve(r)
        });
        // Two steps down fail, the third passes, then one bisection.
        assert_eq!(probed[..2], [800.0 / 1.5, 800.0 / 1.5 / 1.5]);
        assert!(curve(probed[2]).ok && curve(probed[3]).ok);
        assert!(found > probed[3] && found < probed[1], "{found}");
        let never = |_| -> Probe { panic!("nothing to start from, so nothing is probed") };
        assert_eq!(search_max_rate(&[], 3, LIMIT_MS, never), 0.0);
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        let phase = Phase {
            rate: 100.0,
            latencies: vec![1.0; 2000],
            failed: 1,
            ..Phase::default()
        };
        assert!(!phase.meets_limit());
        let backlogged = Phase {
            backlog_end: 50,
            failed: 0,
            ..phase
        };
        assert!(!backlogged.meets_limit());
        assert!(Phase {
            backlog_end: 2,
            ..backlogged
        }
        .meets_limit());
    }
}
