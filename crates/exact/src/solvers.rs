//! The full solver registry.
//!
//! [`solver_registry`] is the registry the experiment binaries, the facade
//! and the JSON service surface resolve solver names against: every
//! heuristic of `mals_sched` plus the two exact solvers of this crate, each
//! of which implements [`mals_sched::Solver`] directly.
//!
//! | key | solver | status on success |
//! |---|---|---|
//! | every [`SolverRegistry::heuristics`] key | `memheft`, `minmin`, … | `Heuristic` |
//! | `bb` | [`BranchAndBound`] | `Optimal` / `Feasible` |
//! | `milp` | [`MilpBackend`] | `Optimal` / `Feasible` |

use crate::bb::BranchAndBound;
use crate::compact::MilpBackend;
use mals_sched::{Engine, EngineConfig, SolverInfo, SolverRegistry};

/// The full solver registry: every heuristic and ablation variant of
/// `mals_sched` plus the exact backends of this crate.
pub fn solver_registry() -> SolverRegistry {
    let mut registry = SolverRegistry::heuristics();
    registry.register(
        SolverInfo {
            key: "bb",
            summary: "Optimal(B&B) — branch-and-bound over the list-scheduling space",
            memory_aware: true,
            exact: true,
        },
        |_| Box::new(BranchAndBound),
    );
    registry.register(
        SolverInfo {
            key: "milp",
            summary: "Optimal(MILP) — in-tree simplex + MILP B&B over the compact model",
            memory_aware: true,
            exact: true,
        },
        |_| Box::new(MilpBackend),
    );
    registry
}

/// An [`Engine`] over the full registry — the one-line entry point for
/// library users: `mals_exact::engine(EngineConfig::default())`.
pub fn engine(config: EngineConfig) -> Engine {
    Engine::new(solver_registry(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mals_gen::dex;
    use mals_platform::Platform;
    use mals_sched::{OptimalityStatus, SolveCtx, SolveLimits};
    use mals_sim::validate;

    #[test]
    fn registry_contains_heuristics_and_exact_backends() {
        let registry = solver_registry();
        assert_eq!(registry.len(), 13);
        for key in ["memheft", "heft", "bb", "milp"] {
            assert!(registry.entry(key).is_some(), "missing {key}");
        }
        assert!(registry.entry("bb").unwrap().info.exact);
        assert!(registry.entry("milp").unwrap().info.exact);
        // The LP exporter writes a model; it is not a solver.
        assert!(registry.entry("lp-export").is_none());
    }

    #[test]
    fn exact_solvers_prove_optimality_on_dex() {
        let registry = solver_registry();
        let (g, _) = dex();
        let platform = Platform::single_pair(5.0, 5.0);
        let ctx = SolveCtx::sequential();
        for key in ["bb", "milp"] {
            let solver = registry.build(key).unwrap();
            let outcome = solver.solve(&g, &platform, &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Optimal, "{key}");
            assert_eq!(outcome.makespan(), Some(6.0), "{key}");
            assert!(outcome.nodes > 0, "{key}");
            let schedule = outcome.schedule.as_ref().unwrap();
            assert!(validate(&g, &platform, schedule).is_valid(), "{key}");
        }
    }

    #[test]
    fn exact_solvers_prove_infeasibility_on_tight_dex() {
        let registry = solver_registry();
        let (g, _) = dex();
        let platform = Platform::single_pair(2.0, 2.0);
        let ctx = SolveCtx::sequential();
        for key in ["bb", "milp"] {
            let outcome = registry.build(key).unwrap().solve(&g, &platform, &ctx);
            assert_eq!(outcome.status, OptimalityStatus::Infeasible, "{key}");
            assert!(outcome.schedule.is_none(), "{key}");
        }
    }

    #[test]
    fn engine_solves_by_exact_name_and_respects_limits() {
        let engine =
            engine(EngineConfig::sequential().with_limits(SolveLimits::with_node_limit(200_000)));
        let (g, _) = dex();
        let outcome = engine
            .solve("bb", &g, &Platform::single_pair(5.0, 5.0))
            .unwrap();
        assert!(outcome.is_optimal());
        // A 1-node budget cannot close the proof.
        let starved = Engine::new(
            solver_registry(),
            EngineConfig::sequential().with_limits(SolveLimits::with_node_limit(1)),
        );
        let outcome = starved
            .solve("bb", &g, &Platform::single_pair(5.0, 5.0))
            .unwrap();
        assert!(!outcome.is_optimal());
    }

    #[test]
    fn display_names_match_backend_names() {
        let registry = solver_registry();
        assert_eq!(registry.build("bb").unwrap().name(), "Optimal(B&B)");
        assert_eq!(registry.build("milp").unwrap().name(), "Optimal(MILP)");
    }
}
