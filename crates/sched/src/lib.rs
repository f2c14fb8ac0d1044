//! Memory-aware list scheduling heuristics for hybrid (dual-memory)
//! platforms — the core contribution of the paper.
//!
//! Four schedulers are provided, each a [`Solver`] (and, for a plain
//! sequential run with a typed error, a [`Scheduler`]):
//!
//! | Scheduler | Paper reference | Memory aware? | Task ordering |
//! |---|---|---|---|
//! | [`Heft`] | HEFT \[Topcuoglu et al. 2002\] | no | static, upward rank |
//! | [`MinMin`] | MinMin \[Braun et al. 2001\] | no | dynamic, smallest EFT |
//! | [`MemHeft`] | **MemHEFT** (Algorithm 1) | yes | static, upward rank |
//! | [`MemMinMin`] | **MemMinMin** (Algorithm 2) | yes | dynamic, smallest EFT |
//!
//! The memory-aware heuristics keep, for each memory, the staircase profile
//! of available capacity and refuse (or delay) placements that would exceed
//! the bounds; the memory-oblivious baselines are literally the same code run
//! with both capacities set to `+∞`, which preserves the paper's property
//! that *MemHEFT takes exactly the same decisions as HEFT whenever the bounds
//! are at least HEFT's own memory peaks*.
//!
//! The scheduling engine shared by all four lives in [`partial`]: it
//! maintains the partial schedule, evaluates the four components of the
//! earliest start time of a task on a memory (`resource`, `precedence`,
//! `task_mem`, `comm_mem`; Section 5.1 of the paper) and commits placements
//! together with their late-as-possible cross-memory transfers. The
//! selection loops are incremental: `commit` maintains the ready frontier
//! and reports what it changed ([`CommitEffects`]), and an exact
//! epoch-based evaluation cache ([`incremental::EstCache`]) skips every
//! re-evaluation whose inputs no commit touched — schedules are
//! bit-identical to the scan-everything engines at a fraction of the work,
//! which is what scales the heuristics to 10⁴–10⁵-task DAGs.
//!
//! The **online layer** ([`online`]) replays an arrival timeline
//! (`mals_gen::ArrivalTrace`) through an event-driven simulator on a virtual
//! clock and re-plans the unscheduled suffix with the same incremental
//! machinery — releasing the whole DAG at `t = 0` reproduces the static
//! solvers bit for bit, which is the subsystem's built-in oracle.
//!
//! On top of the concrete schedulers sits the unified **engine layer**:
//!
//! * [`Solver`] — the trait subsuming heuristics and exact solvers (one
//!   [`SolveOutcome`] carrying the schedule plus an [`OptimalityStatus`]);
//! * [`SolverRegistry`] — name-keyed solver factories
//!   ([`SolverRegistry::heuristics`] registers everything in this crate;
//!   `mals_exact::solver_registry()` adds the exact backends);
//! * [`Engine`] — a reusable session owning the worker pool and the default
//!   [`SolveLimits`], with single-solve and batch APIs;
//! * [`Portfolio`] — anytime racing: a member set solved concurrently on the
//!   worker pool with cooperative cancellation (deadlines, caller tokens,
//!   cancel-on-optimal) and deterministic winner selection
//!   ([`Engine::solve_portfolio`](Engine::solve_portfolio) is the
//!   session-level entry point).
//!
//! # Example
//!
//! ```
//! use mals_gen::dex;
//! use mals_platform::Platform;
//! use mals_sched::{Engine, EngineConfig, SolverRegistry};
//! use mals_sim::validate;
//!
//! let engine = Engine::new(SolverRegistry::heuristics(), EngineConfig::default());
//! let (graph, _) = dex();
//! let platform = Platform::single_pair(5.0, 5.0);
//! let outcome = engine.solve("memheft", &graph, &platform).unwrap();
//! let report = validate(&graph, &platform, outcome.schedule.as_ref().unwrap());
//! assert!(report.is_valid());
//! assert!(report.peaks.blue <= 5.0 && report.peaks.red <= 5.0);
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod engine;
pub mod error;
pub mod incremental;
pub mod memheft;
pub mod memminmin;
pub mod online;
pub mod partial;
pub mod portfolio;
pub mod registry;
pub mod solver;
pub mod traits;
pub mod unbounded;

pub use ablation::{MemHeftVariant, MemoryPreference, PriorityScheme, TieBreak};
pub use engine::{Engine, EngineConfig, EngineError};
pub use error::ScheduleError;
pub use incremental::EstCache;
pub use memheft::MemHeft;
pub use memminmin::MemMinMin;
pub use online::{replay, OnlineConfig, OnlineFlavor, OnlineOutcome, OnlineSolver, ReplanPolicy};
pub use partial::{CommitEffects, EstBreakdown, PartialSchedule};
pub use portfolio::{MemberReport, Portfolio, PortfolioReport, DEFAULT_MEMBERS};
pub use registry::{SolverEntry, SolverInfo, SolverRegistry};
pub use solver::{OptimalityStatus, SolveCtx, SolveLimits, SolveOutcome, Solver};
pub use traits::Scheduler;
pub use unbounded::{Heft, MinMin, Unbounded};
