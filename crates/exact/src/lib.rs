//! Exact solvers for memory-constrained dual-memory scheduling.
//!
//! The paper obtains optimal makespans for small instances (up to ~30 tasks)
//! by solving an intricate Integer Linear Program with CPLEX. This crate
//! reproduces that capability with two complementary components:
//!
//! * [`ilp`] — a faithful construction of the ILP of Section 4 (every
//!   variable family of Figure 5, every constraint of Figures 6 and 7,
//!   including the linearisation of the memory constraints), together with an
//!   export in CPLEX LP text format so the model can be fed to any external
//!   MILP solver. No solver ships with the workspace (CPLEX is proprietary),
//!   so the model is used for inspection, counting and export only.
//! * [`bb`] — a branch-and-bound **optimal scheduler** over the
//!   list-scheduling decision space (which task next, on which memory), using
//!   the same placement engine as the heuristics. It returns provably optimal
//!   makespans within that space for the small instances of the paper's
//!   Figure 10/11 experiments, replacing the CPLEX runs (see `DESIGN.md` for
//!   the substitution rationale).
//! * [`simplex`] / [`milp`] — an in-tree bounded-variable revised simplex
//!   and a best-first branch-and-bound MILP solver over [`model::LpModel`],
//!   so optimal makespans no longer require proprietary tooling;
//! * [`compact`] — the MILP **exact backend**: a compact disjunctive model
//!   solved with the in-tree MILP machinery, with lazy memory enforcement
//!   through the simulator's validator;
//! * [`solvers`] — [`solver_registry`], the full name-keyed registry
//!   (heuristics + `bb` + `milp`) that the drivers and the service surface
//!   resolve solver names against;
//! * [`bounds`] — makespan lower bounds (critical path, load balance,
//!   memory-feasibility) shared by both exact solvers for pruning and
//!   plotted as the "Lower bound" series of Figure 11.
//!
//! Both exact solvers are plain [`mals_sched::Solver`]s:
//! `Solver::solve(graph, platform, &SolveCtx)` is the only way to run them,
//! and the [`mals_sched::SolveCtx`] is the only place a solve reads its node
//! budget, LP iteration budget and cancel signal from. Invalid graphs are
//! reported exactly as the heuristics report them. The § 4 ILP export is
//! not a solver: `build_ilp(graph, platform).to_lp_format()` is the whole
//! exporter.

#![warn(missing_docs)]

pub mod bb;
pub mod bounds;
pub mod compact;
pub mod ilp;
pub mod milp;
pub mod model;
pub mod simplex;
pub mod solvers;

pub use bb::BranchAndBound;
pub use bounds::{
    critical_path_lower_bound, load_lower_bound, makespan_lower_bound, memory_feasibility,
    optimistic_bottom_levels, MemoryFeasibility,
};
pub use compact::MilpBackend;
pub use ilp::{build_ilp, IlpStats};
pub use milp::{MilpLimits, MilpResult, MilpSolver, MilpStatus};
pub use model::{Constraint, LpModel, Sense, StandardForm, VarId, VarKind};
pub use simplex::{solve_lp, LpSolution, LpStatus};
pub use solvers::{engine, solver_registry};
