//! Ablation variants of MemHEFT.
//!
//! The paper makes several design choices in MemHEFT without evaluating the
//! alternatives: the priority scheme (upward rank), random tie-breaking among
//! equal-rank tasks, and the memory preferred when both memories give the
//! same earliest finish time. [`MemHeftVariant`] exposes those choices so the
//! ablation benchmarks (`mals-bench`) can quantify their impact.

use crate::error::ScheduleError;
use crate::memheft::schedule_with_priority_pooled;
use crate::traits::Scheduler;
use mals_dag::{rank, TaskGraph, TaskId};
use mals_platform::Platform;
use mals_sim::Schedule;
use mals_util::{CancelSignal, Pcg64};

/// How tasks are ordered in the priority list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PriorityScheme {
    /// Non-increasing upward rank (the paper's choice).
    #[default]
    UpwardRank,
    /// Non-increasing `upward rank + downward rank` (critical-path-first).
    CriticalPathSum,
    /// Non-increasing total input+output file size (memory-hungry tasks
    /// first).
    MemoryRequirement,
}

/// How ties between equal-priority tasks are broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Deterministically by task index (the workspace default).
    #[default]
    ByIndex,
    /// Uniformly at random (the paper's stated policy), seeded for
    /// reproducibility.
    Random(u64),
}

/// Which memory is preferred when both give the same earliest finish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryPreference {
    /// Prefer the blue (CPU-side) memory.
    #[default]
    Blue,
    /// Prefer the red (accelerator-side) memory.
    Red,
}

/// A configurable MemHEFT used by the ablation benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemHeftVariant {
    /// Priority list construction.
    pub priority: PriorityScheme,
    /// Tie-breaking policy inside the priority list.
    pub tie_break: TieBreak,
    /// Memory preferred on EFT ties.
    pub memory_preference: MemoryPreference,
}

impl MemHeftVariant {
    /// The configuration equivalent to [`crate::MemHeft`].
    pub fn paper_default() -> Self {
        MemHeftVariant::default()
    }

    /// Builds the priority list for `graph` under this configuration.
    pub fn priority_list(&self, graph: &TaskGraph) -> Vec<TaskId> {
        let key: Vec<f64> = match self.priority {
            PriorityScheme::UpwardRank => rank::upward_ranks(graph),
            PriorityScheme::CriticalPathSum => {
                let up = rank::upward_ranks(graph);
                let down = rank::downward_ranks(graph);
                up.iter().zip(&down).map(|(u, d)| u + d).collect()
            }
            PriorityScheme::MemoryRequirement => {
                graph.task_ids().map(|t| graph.mem_req(t)).collect()
            }
        };
        let jitter: Vec<f64> = match self.tie_break {
            TieBreak::ByIndex => vec![0.0; graph.n_tasks()],
            TieBreak::Random(seed) => {
                let mut rng = Pcg64::new(seed);
                (0..graph.n_tasks())
                    .map(|_| rng.next_f64() * 1e-9)
                    .collect()
            }
        };
        let mut tasks: Vec<TaskId> = graph.task_ids().collect();
        tasks.sort_by(|&a, &b| {
            let ka = key[a.index()] + jitter[a.index()];
            let kb = key[b.index()] + jitter[b.index()];
            kb.total_cmp(&ka).then_with(|| a.index().cmp(&b.index()))
        });
        tasks
    }
}

impl Scheduler for MemHeftVariant {
    fn name(&self) -> &'static str {
        match self.priority {
            PriorityScheme::UpwardRank => "MemHEFT(rank)",
            PriorityScheme::CriticalPathSum => "MemHEFT(cp-sum)",
            PriorityScheme::MemoryRequirement => "MemHEFT(mem-req)",
        }
    }

    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Result<Schedule, ScheduleError> {
        // The rank-based priority lists require acyclicity.
        graph.validate()?;
        let order = self.priority_list(graph);
        let prefer_red = self.memory_preference == MemoryPreference::Red;
        schedule_with_priority_pooled(
            graph,
            platform,
            &order,
            None,
            prefer_red,
            CancelSignal::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemHeft, Scheduler};
    use mals_gen::{dex, DaggenParams, WeightRanges};
    use mals_sim::validate;
    use mals_util::Pcg64;

    #[test]
    fn default_variant_matches_memheft() {
        let (g, _) = dex();
        let platform = Platform::single_pair(8.0, 8.0);
        let a = MemHeftVariant::paper_default()
            .schedule(&g, &platform)
            .unwrap();
        let b = MemHeft::new().schedule(&g, &platform).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_variants_produce_valid_schedules() {
        let mut rng = Pcg64::new(31);
        let g = mals_gen::daggen::generate(
            &DaggenParams::small_rand(),
            &WeightRanges::small_rand(),
            &mut rng,
        );
        let platform = Platform::new(2, 2, 120.0, 120.0).unwrap();
        let variants = [
            MemHeftVariant {
                priority: PriorityScheme::UpwardRank,
                ..Default::default()
            },
            MemHeftVariant {
                priority: PriorityScheme::CriticalPathSum,
                ..Default::default()
            },
            MemHeftVariant {
                priority: PriorityScheme::MemoryRequirement,
                ..Default::default()
            },
            MemHeftVariant {
                tie_break: TieBreak::Random(1),
                ..Default::default()
            },
            MemHeftVariant {
                memory_preference: MemoryPreference::Red,
                ..Default::default()
            },
        ];
        for v in variants {
            let s = v.schedule(&g, &platform).unwrap();
            let report = validate(&g, &platform, &s);
            assert!(report.is_valid(), "{}: {:?}", v.name(), report.errors);
        }
    }

    #[test]
    fn cyclic_graph_is_an_error_not_a_panic() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0, 1.0);
        let b = g.add_task("b", 1.0, 1.0);
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, a, 1.0, 1.0).unwrap();
        let err = MemHeftVariant::default()
            .schedule(&g, &Platform::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidGraph(_)));
    }

    #[test]
    fn priority_lists_are_permutations() {
        let (g, _) = dex();
        for priority in [
            PriorityScheme::UpwardRank,
            PriorityScheme::CriticalPathSum,
            PriorityScheme::MemoryRequirement,
        ] {
            let v = MemHeftVariant {
                priority,
                ..Default::default()
            };
            let mut order = v.priority_list(&g);
            order.sort();
            assert_eq!(order, g.task_ids().collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_tie_break_is_seed_deterministic() {
        let (g, _) = dex();
        let v = MemHeftVariant {
            tie_break: TieBreak::Random(7),
            ..Default::default()
        };
        assert_eq!(v.priority_list(&g), v.priority_list(&g));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_ne!(
            MemHeftVariant {
                priority: PriorityScheme::UpwardRank,
                ..Default::default()
            }
            .name(),
            MemHeftVariant {
                priority: PriorityScheme::CriticalPathSum,
                ..Default::default()
            }
            .name()
        );
    }
}
