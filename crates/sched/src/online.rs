//! Online rolling-horizon scheduling: an event-driven replay of an
//! [`ArrivalTrace`] with dynamic re-planning.
//!
//! The static heuristics see the whole DAG before the first commit. The
//! online layer replays a release timeline instead: tasks become known to
//! the scheduler at their arrival instants, completions are reported back,
//! and the plan for the *unscheduled suffix* is revised without ever
//! touching the committed prefix. The event loop runs on a
//! [`VirtualClock`] — time jumps from event to event, so a 10⁴-task replay
//! takes well under a second of wall time and is bit-reproducible.
//!
//! # The event loop
//!
//! Three event kinds interleave on one priority queue, ordered by virtual
//! time (ties: arrivals before completions before re-plans, then FIFO):
//!
//! * **TaskArrived** — the tasks of one trace event become visible; those
//!   whose parents are all committed join the candidate set;
//! * **TaskCompleted** — a previously committed task reaches its planned
//!   finish time (bookkeeping: it advances the clock and counts toward
//!   [`ReplanPolicy::EveryK`]);
//! * **ReplanTriggered** — a deferred re-plan fires (pushed by
//!   [`ReplanPolicy::Horizon`] when a candidate's start lies beyond the
//!   current window; at most one is queued per virtual instant, since a
//!   second one there would find the state unchanged and commit nothing).
//!
//! A *re-plan* greedily commits candidates — MemHEFT order or MemMinMin
//! order, per [`OnlineFlavor`] — through the same incremental machinery as
//! the static solvers ([`PartialSchedule`], [`EstCache`]), with one twist:
//! every evaluation is **floored at the virtual now** (`est' = max(est,
//! now)`, `eft' = est' + work`) because the online scheduler cannot start a
//! task in its past. Flooring is safe — memory fits are sustained-forever
//! and processor availability and precedence are monotone, so a later start
//! is always still valid — and it is a no-op at `t = 0`, which yields the
//! static-equivalence oracle: a trace releasing the whole DAG at `t = 0`
//! with [`ReplanPolicy::EveryArrival`] reproduces the static solver's
//! schedule bit for bit, at any thread count.
//!
//! The committed prefix is immutable by construction: a commit only ever
//! appends to the [`PartialSchedule`], and re-plans only look at
//! uncommitted candidates.
//!
//! # Incremental upward ranks
//!
//! The MemHEFT flavor orders candidates by HEFT's upward rank over the
//! *arrived* subgraph, and an arrival can raise the rank of every arrived
//! ancestor. Instead of re-walking and re-sorting the arrived subgraph on
//! each arrival, admission pushes the newcomers onto a worklist keyed by
//! topological position and pops it children first. A popped task gets
//! `mean_work + max(0, max over arrived children of rank + comm / 2)`;
//! when that differs from its stored rank (ranks start as `NaN`, so a
//! newcomer always counts as changed), the task is re-keyed in the
//! ordered candidate set and its arrived parents are queued — except the
//! committed ones. Skipping those is safe: a committed task's ancestors
//! are all committed, only candidates' ranks are ever read, and a
//! candidate's descendants are all uncommitted, so every rank a candidate
//! depends on is maintained. Newcomers join the candidate set only after
//! the worklist is drained.
//!
//! The result is bit-identical to the from-scratch refresh: each rank is
//! the same float fold over the same children's ranks, so it is the same
//! value, and the candidate set is ordered by the same comparator (rank
//! descending by `total_cmp`, then id ascending).

use crate::error::ScheduleError;
use crate::incremental::EstCache;
use crate::partial::{CommitEffects, EstBreakdown, PartialSchedule};
use crate::solver::{OptimalityStatus, SolveCtx, SolveOutcome, Solver};
use mals_dag::{algo::topological_order, TaskGraph, TaskId};
use mals_gen::ArrivalTrace;
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::{ChunkedIndexSet, F64Ord, VirtualClock};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::time::{Duration, Instant};

/// When the rolling-horizon scheduler re-plans the unscheduled suffix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanPolicy {
    /// Re-plan at every arrival event (the most reactive policy, and the
    /// static-equivalence oracle when the whole DAG arrives at `t = 0`).
    EveryArrival,
    /// Re-plan every K processed events (arrivals and completions alike),
    /// plus a final pass when the timeline is exhausted. `K = 1` re-plans
    /// on every event; larger K batches decisions.
    EveryK(u32),
    /// Re-plan at every arrival, but only commit candidates whose (floored)
    /// start time lies within `now + window`; starts beyond the window are
    /// deferred and a re-plan event is scheduled at the earliest deferred
    /// start.
    Horizon(f64),
}

impl ReplanPolicy {
    /// Parses the CLI spelling: `every-arrival`, `every-k:<K>` or
    /// `horizon:<window>`.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "every-arrival" {
            return Some(ReplanPolicy::EveryArrival);
        }
        if let Some(k) = s.strip_prefix("every-k:") {
            let k: u32 = k.parse().ok()?;
            return (k >= 1).then_some(ReplanPolicy::EveryK(k));
        }
        if let Some(w) = s.strip_prefix("horizon:") {
            let w: f64 = w.parse().ok()?;
            return (w.is_finite() && w >= 0.0).then_some(ReplanPolicy::Horizon(w));
        }
        None
    }

    /// The stable CLI spelling parsed by [`ReplanPolicy::parse`].
    pub fn key(&self) -> String {
        match self {
            ReplanPolicy::EveryArrival => "every-arrival".into(),
            ReplanPolicy::EveryK(k) => format!("every-k:{k}"),
            ReplanPolicy::Horizon(w) => format!("horizon:{w}"),
        }
    }
}

/// Which static heuristic the online scheduler re-plans with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineFlavor {
    /// MemHEFT order: upward ranks over the *arrived* subgraph, first
    /// feasible candidate in priority order commits.
    MemHeft,
    /// MemMinMin order: the candidate with the globally smallest (floored)
    /// EFT commits.
    MemMinMin,
}

impl OnlineFlavor {
    /// Parses `memheft` / `memminmin`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "memheft" => Some(OnlineFlavor::MemHeft),
            "memminmin" => Some(OnlineFlavor::MemMinMin),
            _ => None,
        }
    }
}

/// Configuration of one online replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// The re-planning heuristic.
    pub flavor: OnlineFlavor,
    /// When re-plans fire.
    pub policy: ReplanPolicy,
}

impl OnlineConfig {
    /// A config with the given flavor and policy.
    pub fn new(flavor: OnlineFlavor, policy: ReplanPolicy) -> Self {
        OnlineConfig { flavor, policy }
    }
}

/// The result of a completed online replay: the schedule plus the event and
/// re-plan accounting of the run.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The complete schedule (passes `mals_sim::validate`).
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: f64,
    /// Total events processed (arrivals + completions + re-plan triggers).
    pub events: u64,
    /// Arrival events processed.
    pub arrivals: u64,
    /// Completion events processed.
    pub completions: u64,
    /// Re-plan passes run (including the final drain).
    pub replans: u64,
    /// Wall-clock time spent inside re-plan passes, summed.
    pub replan_total: Duration,
    /// Wall-clock time of the most expensive single re-plan pass.
    pub replan_max: Duration,
    /// The virtual time of the last processed event.
    pub virtual_end: f64,
}

impl OnlineOutcome {
    /// Mean wall-clock cost of one re-plan pass, in seconds.
    pub fn replan_mean_secs(&self) -> f64 {
        if self.replans == 0 {
            0.0
        } else {
            self.replan_total.as_secs_f64() / self.replans as f64
        }
    }
}

/// Event-queue tie-break ranks: at equal virtual times, arrivals are
/// processed before completions before re-plan triggers.
const RANK_ARRIVAL: u8 = 0;
const RANK_COMPLETION: u8 = 1;
const RANK_REPLAN: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    /// Index into the trace's event list.
    Arrival(u32),
    Completion,
    Replan,
}

/// One queued event, ordered by `(virtual time, kind rank, FIFO sequence)`.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    at: F64Ord,
    rank: u8,
    seq: u64,
    payload: Payload,
}

impl QueuedEvent {
    fn key(&self) -> (F64Ord, u8, u64) {
        (self.at, self.rank, self.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Replays `trace` against `graph` on `platform` with rolling-horizon
/// re-planning (see the module docs for the event-loop semantics).
///
/// The schedule is bit-identical for every thread count of `ctx.pool`, and
/// a trace releasing the whole DAG at `t = 0` under
/// [`ReplanPolicy::EveryArrival`] reproduces the corresponding static
/// solver exactly.
///
/// # Errors
///
/// * [`ScheduleError::InvalidGraph`] — the graph fails validation;
/// * [`ScheduleError::InvalidTrace`] — the trace does not fit the graph;
/// * [`ScheduleError::Infeasible`] — some suffix cannot be placed within
///   the memory bounds (same condition as the static solvers);
/// * [`ScheduleError::Cancelled`] — `ctx.cancel` tripped mid-replay.
pub fn replay(
    graph: &TaskGraph,
    platform: &Platform,
    trace: &ArrivalTrace,
    config: OnlineConfig,
    ctx: &SolveCtx,
) -> Result<OnlineOutcome, ScheduleError> {
    graph.validate()?;
    trace
        .validate_for(graph)
        .map_err(|e| ScheduleError::InvalidTrace(e.to_string()))?;
    if let ReplanPolicy::EveryK(0) = config.policy {
        return Err(ScheduleError::InvalidTrace(
            "every-k policy needs K >= 1".into(),
        ));
    }
    if let ReplanPolicy::Horizon(w) = config.policy {
        if !(w.is_finite() && w >= 0.0) {
            return Err(ScheduleError::InvalidTrace(format!(
                "horizon window must be finite and non-negative, got {w}"
            )));
        }
    }
    Replayer::new(graph, platform, trace, config).run(ctx)
}

/// The mutable state of one replay (see the module docs).
struct Replayer<'a> {
    graph: &'a TaskGraph,
    trace: &'a ArrivalTrace,
    config: OnlineConfig,
    partial: PartialSchedule<'a>,
    cache: EstCache,
    clock: VirtualClock,
    /// `arrived[t]`: task `t` has been released by the trace.
    arrived: Vec<bool>,
    /// Task ids that are arrived, ready and uncommitted — the set re-plans
    /// choose from.
    candidates: ChunkedIndexSet,
    /// `topo_position[t]`: index of task `t` in a topological order of the
    /// full graph, so every child sits after its parents.
    topo_position: Vec<u32>,
    /// Upward ranks over the arrived subgraph (MemHEFT flavor); `NaN` until
    /// a task's first computation. Exact for every arrived, uncommitted task.
    rank: Vec<f64>,
    /// Tasks whose rank needs recomputing, as `(topo position, id)` in a
    /// max-heap so children pop before their parents (MemHEFT flavor).
    rank_worklist: BinaryHeap<(u32, u32)>,
    /// `rank_queued[t]`: task `t` is on the rank worklist.
    rank_queued: Vec<bool>,
    /// The candidates in priority order (MemHEFT flavor): rank descending
    /// by `total_cmp`, then id ascending.
    by_priority: BTreeSet<(Reverse<F64Ord>, u32)>,
    // Per-replay scratch, reused so steady-state passes allocate nothing.
    ready_buf: Vec<TaskId>,
    stale: Vec<TaskId>,
    pairs: Vec<[Option<EstBreakdown>; 2]>,
    effects: CommitEffects,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    /// Virtual instants that already have a re-plan event queued.
    pending_replans: BTreeSet<F64Ord>,
    /// Earliest floored start among the candidates the horizon deferred in
    /// the last selection pass.
    deferred_min: Option<f64>,
    // Accounting.
    events: u64,
    arrivals: u64,
    completions: u64,
    replans: u64,
    replan_total: Duration,
    replan_max: Duration,
}

impl<'a> Replayer<'a> {
    fn new(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        trace: &'a ArrivalTrace,
        config: OnlineConfig,
    ) -> Self {
        let n = graph.n_tasks();
        let mut topo_position = vec![0; n];
        let topo = topological_order(graph).expect("graph validated before replay");
        for (position, task) in topo.into_iter().enumerate() {
            topo_position[task.index()] = position as u32;
        }
        Replayer {
            graph,
            trace,
            config,
            partial: PartialSchedule::new(graph, platform),
            cache: EstCache::new(n),
            clock: VirtualClock::new(),
            arrived: vec![false; n],
            candidates: ChunkedIndexSet::new(),
            topo_position,
            rank: vec![f64::NAN; n],
            rank_worklist: BinaryHeap::new(),
            rank_queued: vec![false; n],
            by_priority: BTreeSet::new(),
            ready_buf: Vec::new(),
            stale: Vec::new(),
            pairs: Vec::new(),
            effects: CommitEffects::empty(),
            queue: BinaryHeap::new(),
            seq: 0,
            pending_replans: BTreeSet::new(),
            deferred_min: None,
            events: 0,
            arrivals: 0,
            completions: 0,
            replans: 0,
            replan_total: Duration::ZERO,
            replan_max: Duration::ZERO,
        }
    }

    fn run(mut self, ctx: &SolveCtx) -> Result<OnlineOutcome, ScheduleError> {
        for (i, event) in self.trace.events().iter().enumerate() {
            self.push(event.at, RANK_ARRIVAL, Payload::Arrival(i as u32));
        }
        while let Some(Reverse(event)) = self.queue.pop() {
            self.clock.advance_to_secs(event.at.0);
            self.events += 1;
            let mut replan = false;
            match event.payload {
                Payload::Arrival(i) => {
                    self.arrivals += 1;
                    self.admit(i as usize);
                    replan = matches!(
                        self.config.policy,
                        ReplanPolicy::EveryArrival | ReplanPolicy::Horizon(_)
                    );
                }
                Payload::Completion => self.completions += 1,
                Payload::Replan => {
                    self.pending_replans.remove(&event.at);
                    replan = matches!(self.config.policy, ReplanPolicy::Horizon(_));
                }
            }
            if let ReplanPolicy::EveryK(k) = self.config.policy {
                replan = self.events.is_multiple_of(u64::from(k));
            }
            if replan {
                let window = match self.config.policy {
                    ReplanPolicy::Horizon(w) => Some(self.clock.now_secs() + w),
                    _ => None,
                };
                self.drain(ctx, window)?;
                if let Some(at) = self.deferred_min {
                    // The deferred start lies strictly beyond `now + window`,
                    // so the re-plan event is strictly in the future and the
                    // loop makes progress. A second event at an instant that
                    // already has one would find the state unchanged and
                    // commit nothing, so it is not queued.
                    if self.pending_replans.insert(F64Ord(at)) {
                        self.push(at, RANK_REPLAN, Payload::Replan);
                    }
                }
            }
        }
        // Final unrestricted pass: commits whatever the policy batched or
        // deferred past the last event. For the `t = 0` oracle this re-scan
        // finds nothing new (the state only changes through commits), so
        // the outcome — including Infeasible counts — matches the static
        // solver.
        self.drain(ctx, None)?;
        let schedule = self.partial.finish_or_error()?;
        let makespan = schedule.makespan();
        Ok(OnlineOutcome {
            schedule,
            makespan,
            events: self.events,
            arrivals: self.arrivals,
            completions: self.completions,
            replans: self.replans,
            replan_total: self.replan_total,
            replan_max: self.replan_max,
            virtual_end: self.clock.now_secs(),
        })
    }

    /// Marks the tasks of trace event `i` as arrived and admits the ready
    /// ones to the candidate set; the MemHEFT flavor first brings the ranks
    /// of the enlarged arrived subgraph up to date, so newcomers enter the
    /// priority order with their final rank.
    fn admit(&mut self, i: usize) {
        let tasks = &self.trace.events()[i].tasks;
        for &task in tasks {
            self.arrived[task.index()] = true;
        }
        if self.config.flavor == OnlineFlavor::MemHeft {
            for &task in tasks {
                self.enqueue_rank(task);
            }
            self.propagate_ranks();
        }
        for &task in tasks {
            if self.partial.is_ready(task) {
                self.insert_candidate(task);
            }
        }
        #[cfg(test)]
        self.assert_priorities_match_reference();
    }

    /// Drains the rank worklist, children first. Each popped task gets the
    /// fold of `mals_dag::rank::upward_ranks` over its arrived children;
    /// when the rank changed (or was never set), the task is re-keyed in
    /// the priority order and its arrived, uncommitted parents are queued.
    /// Committed parents are skipped: their ancestors are committed too,
    /// and only candidates' ranks are ever read.
    fn propagate_ranks(&mut self) {
        let graph = self.graph;
        while let Some((_, id)) = self.rank_worklist.pop() {
            let task = TaskId::from_index(id as usize);
            self.rank_queued[task.index()] = false;
            let mut best_child = 0.0f64;
            for &e in graph.out_edges(task) {
                let edge = graph.edge(e);
                if !self.arrived[edge.dst.index()] {
                    continue;
                }
                let cand = self.rank[edge.dst.index()] + edge.comm_cost / 2.0;
                if cand > best_child {
                    best_child = cand;
                }
            }
            let rank = graph.task(task).mean_work() + best_child;
            let old = std::mem::replace(&mut self.rank[task.index()], rank);
            if rank.to_bits() == old.to_bits() {
                continue;
            }
            if self.by_priority.remove(&(Reverse(F64Ord(old)), id)) {
                self.by_priority.insert((Reverse(F64Ord(rank)), id));
            }
            for parent in graph.parents(task) {
                if self.arrived[parent.index()] && !self.partial.is_scheduled(parent) {
                    self.enqueue_rank(parent);
                }
            }
        }
    }

    fn enqueue_rank(&mut self, task: TaskId) {
        if !std::mem::replace(&mut self.rank_queued[task.index()], true) {
            self.rank_worklist
                .push((self.topo_position[task.index()], task.index() as u32));
        }
    }

    fn insert_candidate(&mut self, task: TaskId) {
        let id = task.index() as u32;
        self.candidates.insert(id);
        if self.config.flavor == OnlineFlavor::MemHeft {
            self.by_priority
                .insert((Reverse(F64Ord(self.rank[task.index()])), id));
        }
    }

    /// One re-plan pass: greedily commits candidates until none is feasible
    /// (or none starts inside `window`, when given as an absolute latest
    /// allowed start).
    fn drain(&mut self, ctx: &SolveCtx, window: Option<f64>) -> Result<(), ScheduleError> {
        let started = Instant::now();
        self.replans += 1;
        loop {
            if ctx.is_cancelled() {
                return Err(ScheduleError::Cancelled {
                    scheduled: self.partial.n_scheduled(),
                    total: self.graph.n_tasks(),
                });
            }
            // The last (non-committing) pass leaves the definitive set of
            // horizon-deferred starts.
            self.deferred_min = None;
            let chosen = match self.config.flavor {
                OnlineFlavor::MemMinMin => self.select_min_eft(ctx, window),
                OnlineFlavor::MemHeft => self.select_priority(ctx, window),
            };
            let Some((task, breakdown)) = chosen else {
                break;
            };
            self.commit(task, &breakdown);
        }
        let elapsed = started.elapsed();
        self.replan_total += elapsed;
        if elapsed > self.replan_max {
            self.replan_max = elapsed;
        }
        Ok(())
    }

    /// Floors an evaluation pair at the virtual `now`: the online scheduler
    /// cannot start a task in its past, so `est' = max(est, now)` and the
    /// EFT is recomputed with the same `est + work` formula the evaluator
    /// uses. At `now = 0` every pair is returned untouched (raw ESTs are
    /// never negative), which is what makes the `t = 0` replay bit-identical
    /// to the static solvers.
    fn floored(
        graph: &TaskGraph,
        task: TaskId,
        pair: [Option<EstBreakdown>; 2],
        now: f64,
    ) -> [Option<EstBreakdown>; 2] {
        pair.map(|side| {
            side.map(|bd| {
                if bd.est >= now {
                    bd
                } else {
                    EstBreakdown {
                        est: now,
                        eft: now + graph.task(task).work_on(bd.memory.is_blue()),
                        ..bd
                    }
                }
            })
        })
    }

    /// Refreshes the cache for every stale candidate in one pool fan-out
    /// (the raw, floor-free pairs — floors are applied at read time). With
    /// no pool the sequential cache reads recompute lazily instead.
    fn refresh_stale(&mut self, ctx: &SolveCtx) {
        let Some(pool) = ctx.parallel_pool() else {
            return;
        };
        let cache = &self.cache;
        self.stale.clear();
        self.stale.extend(
            self.candidates
                .iter()
                .map(|id| TaskId::from_index(id as usize))
                .filter(|&t| !cache.is_fresh(t)),
        );
        self.partial
            .evaluate_pairs_into(&self.stale, pool, &mut self.pairs);
        for (&task, &pair) in self.stale.iter().zip(self.pairs.iter()) {
            self.cache.store_pair(task, pair);
        }
    }

    /// MemMinMin selection: the candidate with the globally smallest
    /// floored EFT (same comparison as the static loop). Beyond-window
    /// candidates are recorded as deferred instead of competing.
    fn select_min_eft(
        &mut self,
        ctx: &SolveCtx,
        window: Option<f64>,
    ) -> Option<(TaskId, EstBreakdown)> {
        self.refresh_stale(ctx);
        let now = self.clock.now_secs();
        self.ready_buf.clear();
        self.ready_buf.extend(
            self.candidates
                .iter()
                .map(|id| TaskId::from_index(id as usize)),
        );
        let mut best: Option<(TaskId, EstBreakdown)> = None;
        for i in 0..self.ready_buf.len() {
            let task = self.ready_buf[i];
            let raw = self.cache.pair(&self.partial, task);
            let pair = Self::floored(self.graph, task, raw, now);
            if let Some(bd) = PartialSchedule::combine_pair(pair, false) {
                if window.is_some_and(|limit| bd.est > limit) {
                    note_deferred(&mut self.deferred_min, bd.est);
                } else if PartialSchedule::is_better_choice(&best, task, &bd) {
                    best = Some((task, bd));
                }
            }
        }
        best
    }

    /// MemHEFT selection: the first candidate in priority order whose
    /// floored evaluation is feasible (and starts inside the window, when
    /// one applies) — the same "move down the list" rule as the static
    /// engine.
    fn select_priority(
        &mut self,
        ctx: &SolveCtx,
        window: Option<f64>,
    ) -> Option<(TaskId, EstBreakdown)> {
        #[cfg(test)]
        self.assert_priorities_match_reference();
        self.refresh_stale(ctx);
        let now = self.clock.now_secs();
        for &(_, id) in &self.by_priority {
            let task = TaskId::from_index(id as usize);
            let raw = self.cache.pair(&self.partial, task);
            let pair = Self::floored(self.graph, task, raw, now);
            if let Some(bd) = PartialSchedule::combine_pair(pair, false) {
                if window.is_some_and(|limit| bd.est > limit) {
                    note_deferred(&mut self.deferred_min, bd.est);
                } else {
                    return Some((task, bd));
                }
            }
        }
        None
    }

    /// Commits one placement and maintains the candidate sets, the cache
    /// epochs and the completion timeline.
    fn commit(&mut self, task: TaskId, breakdown: &EstBreakdown) {
        let mut effects = std::mem::take(&mut self.effects);
        self.partial.commit_into(task, breakdown, &mut effects);
        let id = task.index() as u32;
        self.candidates.remove(id);
        if self.config.flavor == OnlineFlavor::MemHeft {
            self.by_priority
                .remove(&(Reverse(F64Ord(self.rank[task.index()])), id));
        }
        for &child in &effects.newly_ready {
            if self.arrived[child.index()] {
                self.insert_candidate(child);
            }
        }
        self.cache.apply(&effects);
        self.effects = effects;
        self.push(breakdown.eft, RANK_COMPLETION, Payload::Completion);
    }

    fn push(&mut self, at: f64, rank: u8, payload: Payload) {
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            at: F64Ord(at),
            rank,
            seq: self.seq,
            payload,
        }));
    }
}

fn note_deferred(deferred_min: &mut Option<f64>, est: f64) {
    *deferred_min = Some(match *deferred_min {
        Some(d) => d.min(est),
        None => est,
    });
}

/// The registry face of the online layer: solves by replaying the
/// whole-DAG-at-`t = 0` trace with re-plan-on-every-arrival, which makes it
/// exactly the corresponding static heuristic (the oracle the equivalence
/// tests pin down) while exercising the full online code path.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSolver {
    config: OnlineConfig,
}

impl OnlineSolver {
    /// An online solver with the given config (the registry entries use the
    /// every-arrival policy).
    pub fn new(config: OnlineConfig) -> Self {
        OnlineSolver { config }
    }

    /// Online MemHEFT with re-plan-on-every-arrival.
    pub fn memheft() -> Self {
        Self::new(OnlineConfig::new(
            OnlineFlavor::MemHeft,
            ReplanPolicy::EveryArrival,
        ))
    }

    /// Online MemMinMin with re-plan-on-every-arrival.
    pub fn memminmin() -> Self {
        Self::new(OnlineConfig::new(
            OnlineFlavor::MemMinMin,
            ReplanPolicy::EveryArrival,
        ))
    }

    /// The replay configuration this solver uses.
    pub fn config(&self) -> OnlineConfig {
        self.config
    }
}

impl Solver for OnlineSolver {
    fn name(&self) -> &str {
        match self.config.flavor {
            OnlineFlavor::MemHeft => "Online(MemHEFT)",
            OnlineFlavor::MemMinMin => "Online(MemMinMin)",
        }
    }

    fn solve(&self, graph: &TaskGraph, platform: &Platform, ctx: &SolveCtx) -> SolveOutcome {
        let trace = ArrivalTrace::at_once(graph.n_tasks());
        match replay(graph, platform, &trace, self.config, ctx) {
            Ok(outcome) => {
                SolveOutcome::with_schedule(outcome.schedule, OptimalityStatus::Heuristic, 0)
            }
            Err(e) => SolveOutcome::from_heuristic(Err(e)),
        }
    }
}

/// The oracle for the incremental ranks: the from-scratch refresh that ran
/// on every arrival before them, kept verbatim (a full reverse-topological
/// walk of the arrived subgraph, then a sort of every arrived task).
#[cfg(test)]
impl Replayer<'_> {
    fn reference_priorities(&self) -> (Vec<f64>, Vec<TaskId>) {
        let graph = self.graph;
        let arrived = &self.arrived;
        let full_topo = topological_order(graph).unwrap();
        let mut rank = vec![0.0; graph.n_tasks()];
        for &t in full_topo.iter().rev() {
            if !arrived[t.index()] {
                continue;
            }
            let mut best_child = 0.0f64;
            for &e in graph.out_edges(t) {
                let edge = graph.edge(e);
                if !arrived[edge.dst.index()] {
                    continue;
                }
                let cand = rank[edge.dst.index()] + edge.comm_cost / 2.0;
                if cand > best_child {
                    best_child = cand;
                }
            }
            rank[t.index()] = graph.task(t).mean_work() + best_child;
        }
        let mut order: Vec<TaskId> = graph.task_ids().filter(|t| arrived[t.index()]).collect();
        order.sort_by(|&a, &b| {
            rank[b.index()]
                .total_cmp(&rank[a.index()])
                .then_with(|| a.index().cmp(&b.index()))
        });
        (rank, order)
    }

    /// Asserts that the maintained priority order holds exactly the
    /// candidates, in the reference order, with bit-identical ranks.
    fn assert_priorities_match_reference(&self) {
        if self.config.flavor != OnlineFlavor::MemHeft {
            assert!(self.by_priority.is_empty());
            return;
        }
        let (rank, order) = self.reference_priorities();
        let expected: Vec<(u64, u32)> = order
            .iter()
            .map(|t| t.index() as u32)
            .filter(|&id| self.candidates.contains(id))
            .map(|id| (rank[id as usize].to_bits(), id))
            .collect();
        let actual: Vec<(u64, u32)> = self
            .by_priority
            .iter()
            .map(|&(Reverse(r), id)| (r.get().to_bits(), id))
            .collect();
        assert_eq!(actual, expected, "incremental priorities diverged");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memheft::MemHeft;
    use crate::memminmin::MemMinMin;
    use crate::traits::Scheduler;
    use mals_gen::{dex, ArrivalEvent, ArrivalProcess, DaggenParams, WeightRanges};
    use mals_sim::validate;
    use mals_util::{ParallelConfig, Pcg64, WorkerPool};

    fn sample_graph(seed: u64) -> TaskGraph {
        let mut rng = Pcg64::new(seed);
        mals_gen::daggen::generate(
            &DaggenParams::small_rand(),
            &WeightRanges::small_rand(),
            &mut rng,
        )
    }

    fn every_arrival(flavor: OnlineFlavor) -> OnlineConfig {
        OnlineConfig::new(flavor, ReplanPolicy::EveryArrival)
    }

    fn large_graph(seed: u64, size: usize) -> TaskGraph {
        let mut rng = Pcg64::new(seed);
        mals_gen::daggen::generate(
            &DaggenParams::large_rand().with_size(size),
            &WeightRanges::small_rand(),
            &mut rng,
        )
    }

    /// A 2 + 2 platform with both memories bounded at `alpha` times the
    /// memory-oblivious HEFT footprint.
    fn bounded(graph: &TaskGraph, alpha: f64) -> Platform {
        let unbounded = Platform::new(2, 2, 0.0, 0.0).unwrap().unbounded();
        let heft = crate::Heft::new().schedule(graph, &unbounded).unwrap();
        let bound = (mals_sim::memory_peaks(graph, &unbounded, &heft).max() * alpha).ceil();
        unbounded.with_memory_bounds(bound, bound)
    }

    /// Every replay here runs the reference check after each admission and
    /// before each MemHEFT selection, so any divergence of the incremental
    /// ranks or of the candidate order from the from-scratch refresh
    /// panics — on staggered traces, under every policy, from tight
    /// (possibly infeasible) to ample memory.
    #[test]
    fn incremental_priorities_match_reference_on_staggered_traces() {
        for seed in [1, 2, 3] {
            let g = large_graph(seed, 120);
            for process in [
                ArrivalProcess::Poisson { rate: 10.0 },
                ArrivalProcess::Bursty {
                    batch: 6,
                    rate: 1.0,
                },
            ] {
                let trace = process.generate(&g, seed);
                for alpha in [0.3, 0.5, 0.7, 1.0] {
                    let platform = bounded(&g, alpha);
                    for policy in [
                        ReplanPolicy::EveryArrival,
                        ReplanPolicy::EveryK(3),
                        ReplanPolicy::Horizon(2.0),
                    ] {
                        let config = OnlineConfig::new(OnlineFlavor::MemHeft, policy);
                        let _ = replay(&g, &platform, &trace, config, &SolveCtx::sequential());
                    }
                }
            }
        }
    }

    /// A zero-work leaf arriving under a waiting parent has rank `0.0` — the
    /// value an unset rank would also hold — yet it still lifts the
    /// parent's rank by `comm / 2` (51.0 against the rival's 50.6), so the
    /// parent must take the blue processor first. Red is 100× slower, so
    /// whichever task is ranked second queues behind the first on blue.
    #[test]
    fn zero_work_arrival_still_raises_parent_rank() {
        let mut g = TaskGraph::new();
        let parent = g.add_task("parent", 1.0, 100.0);
        let rival = g.add_task("rival", 1.2, 100.0);
        let leaf = g.add_task("leaf", 0.0, 0.0);
        g.add_edge(parent, leaf, 1.0, 1.0).unwrap();
        let trace = ArrivalTrace::new(
            3,
            vec![
                ArrivalEvent {
                    at: 0.0,
                    tasks: vec![parent, rival],
                },
                ArrivalEvent {
                    at: 1.0,
                    tasks: vec![leaf],
                },
            ],
        )
        .unwrap();
        let platform = Platform::single_pair(10.0, 10.0);
        let config = OnlineConfig::new(OnlineFlavor::MemHeft, ReplanPolicy::EveryK(10));
        let outcome = replay(&g, &platform, &trace, config, &SolveCtx::sequential()).unwrap();
        let start = |t| outcome.schedule.task(t).unwrap().start;
        assert!(start(parent) < start(rival));
    }

    /// Horizon replays queue at most one re-plan event per virtual instant,
    /// so the passes stay linear in the events instead of piling up.
    #[test]
    fn horizon_replans_stay_linear_in_events() {
        let g = large_graph(4, 300);
        let platform = bounded(&g, 1.0);
        let trace = ArrivalProcess::Poisson { rate: 10.0 }.generate(&g, 4);
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let config = OnlineConfig::new(flavor, ReplanPolicy::Horizon(2.0));
            let outcome = replay(&g, &platform, &trace, config, &SolveCtx::sequential()).unwrap();
            assert!(
                outcome.replans <= outcome.arrivals + outcome.completions + 1,
                "{flavor:?}: {} re-plans for {} arrivals and {} completions",
                outcome.replans,
                outcome.arrivals,
                outcome.completions
            );
        }
    }

    #[test]
    fn at_once_replay_equals_static_memheft_on_dex() {
        let (g, _) = dex();
        let platform = Platform::single_pair(6.0, 6.0);
        let static_schedule = MemHeft::new().schedule(&g, &platform).unwrap();
        let trace = ArrivalTrace::at_once(g.n_tasks());
        let outcome = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemHeft),
            &SolveCtx::sequential(),
        )
        .unwrap();
        assert_eq!(outcome.schedule, static_schedule);
        assert_eq!(outcome.arrivals, 1);
        assert_eq!(outcome.completions as usize, g.n_tasks());
    }

    #[test]
    fn at_once_replay_equals_static_memminmin_on_random_graphs() {
        for seed in [1, 2, 3] {
            let g = sample_graph(seed);
            let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
            let static_schedule = MemMinMin::new().schedule(&g, &platform).unwrap();
            let trace = ArrivalTrace::at_once(g.n_tasks());
            let outcome = replay(
                &g,
                &platform,
                &trace,
                every_arrival(OnlineFlavor::MemMinMin),
                &SolveCtx::sequential(),
            )
            .unwrap();
            assert_eq!(outcome.schedule, static_schedule, "seed {seed}");
        }
    }

    #[test]
    fn replay_is_thread_invariant() {
        let g = sample_graph(10);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let trace = ArrivalProcess::Poisson { rate: 0.7 }.generate(&g, 5);
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let sequential = replay(
                &g,
                &platform,
                &trace,
                every_arrival(flavor),
                &SolveCtx::sequential(),
            )
            .unwrap();
            for threads in [2, 4] {
                let pool = WorkerPool::new(ParallelConfig::with_threads(threads));
                let ctx = SolveCtx::pooled(Default::default(), &pool);
                let pooled = replay(&g, &platform, &trace, every_arrival(flavor), &ctx).unwrap();
                assert_eq!(
                    pooled.schedule, sequential.schedule,
                    "{flavor:?} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn poisson_replay_is_valid_and_deterministic() {
        let g = sample_graph(21);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let trace = ArrivalProcess::Poisson { rate: 1.5 }.generate(&g, 77);
        for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
            let a = replay(
                &g,
                &platform,
                &trace,
                every_arrival(flavor),
                &SolveCtx::sequential(),
            )
            .unwrap();
            let b = replay(
                &g,
                &platform,
                &trace,
                every_arrival(flavor),
                &SolveCtx::sequential(),
            )
            .unwrap();
            assert_eq!(a.schedule, b.schedule, "{flavor:?} replay not reproducible");
            let report = validate(&g, &platform, &a.schedule);
            assert!(report.is_valid(), "{flavor:?}: {:?}", report.errors);
            // No task may start before it arrived.
            let mut released = vec![0.0f64; g.n_tasks()];
            for event in trace.events() {
                for &t in &event.tasks {
                    released[t.index()] = event.at;
                }
            }
            for t in g.task_ids() {
                let placement = a.schedule.task(t).unwrap();
                assert!(
                    placement.start >= released[t.index()] - 1e-12,
                    "task {t} started at {} but arrived at {}",
                    placement.start,
                    released[t.index()]
                );
            }
        }
    }

    #[test]
    fn every_k_and_horizon_policies_produce_valid_schedules() {
        let g = sample_graph(33);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let trace = ArrivalProcess::Bursty {
            batch: 4,
            rate: 2.0,
        }
        .generate(&g, 3);
        for policy in [
            ReplanPolicy::EveryK(1),
            ReplanPolicy::EveryK(5),
            ReplanPolicy::Horizon(0.0),
            ReplanPolicy::Horizon(2.5),
        ] {
            for flavor in [OnlineFlavor::MemHeft, OnlineFlavor::MemMinMin] {
                let outcome = replay(
                    &g,
                    &platform,
                    &trace,
                    OnlineConfig::new(flavor, policy),
                    &SolveCtx::sequential(),
                )
                .unwrap();
                let report = validate(&g, &platform, &outcome.schedule);
                assert!(
                    report.is_valid(),
                    "{flavor:?}/{policy:?}: {:?}",
                    report.errors
                );
                assert!(outcome.replans >= 1);
            }
        }
    }

    #[test]
    fn infeasible_instances_report_static_counts() {
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let static_err = MemHeft::new().schedule(&g, &platform).unwrap_err();
        let trace = ArrivalTrace::at_once(g.n_tasks());
        let online_err = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemHeft),
            &SolveCtx::sequential(),
        )
        .unwrap_err();
        assert_eq!(online_err, static_err);
    }

    #[test]
    fn mismatched_trace_is_rejected() {
        let (g, _) = dex();
        let platform = Platform::single_pair(10.0, 10.0);
        let trace = ArrivalTrace::at_once(g.n_tasks() + 1);
        let err = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemHeft),
            &SolveCtx::sequential(),
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidTrace(_)));
        assert!(err.to_string().contains("trace"));
    }

    #[test]
    fn policy_parse_round_trips() {
        for policy in [
            ReplanPolicy::EveryArrival,
            ReplanPolicy::EveryK(7),
            ReplanPolicy::Horizon(1.5),
        ] {
            assert_eq!(ReplanPolicy::parse(&policy.key()), Some(policy));
        }
        assert_eq!(ReplanPolicy::parse("every-k:0"), None);
        assert_eq!(ReplanPolicy::parse("horizon:-1"), None);
        assert_eq!(ReplanPolicy::parse("bogus"), None);
        assert_eq!(OnlineFlavor::parse("memheft"), Some(OnlineFlavor::MemHeft));
        assert_eq!(
            OnlineFlavor::parse("memminmin"),
            Some(OnlineFlavor::MemMinMin)
        );
        assert_eq!(OnlineFlavor::parse("heft"), None);
    }

    #[test]
    fn online_solver_matches_static_through_solver_trait() {
        let g = sample_graph(44);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let ctx = SolveCtx::sequential();
        let static_outcome = Solver::solve(&MemHeft::new(), &g, &platform, &ctx);
        let online_outcome = OnlineSolver::memheft().solve(&g, &platform, &ctx);
        assert_eq!(online_outcome.status, OptimalityStatus::Heuristic);
        assert_eq!(online_outcome.schedule, static_outcome.schedule);
        assert_eq!(OnlineSolver::memheft().name(), "Online(MemHEFT)");
        assert_eq!(OnlineSolver::memminmin().name(), "Online(MemMinMin)");
    }

    #[test]
    fn replan_accounting_is_populated() {
        let g = sample_graph(55);
        let platform = Platform::new(2, 2, 150.0, 150.0).unwrap();
        let trace = ArrivalProcess::Poisson { rate: 2.0 }.generate(&g, 8);
        let outcome = replay(
            &g,
            &platform,
            &trace,
            every_arrival(OnlineFlavor::MemMinMin),
            &SolveCtx::sequential(),
        )
        .unwrap();
        assert_eq!(outcome.arrivals as usize, trace.events().len());
        assert_eq!(outcome.completions as usize, g.n_tasks());
        // Every arrival replans, plus the final drain.
        assert_eq!(outcome.replans, outcome.arrivals + 1);
        assert_eq!(outcome.events, outcome.arrivals + outcome.completions);
        assert!(outcome.replan_total >= outcome.replan_max);
        assert!(outcome.replan_mean_secs() >= 0.0);
        assert!(outcome.virtual_end > 0.0);
        assert!(outcome.makespan > 0.0);
    }
}
