//! Reproduces Figure 10: SmallRandSet — normalised makespan and success rate
//! of MemHEFT, MemMinMin and the optimal schedule versus the normalised
//! memory bound, on a 1 blue + 1 red processor platform.

use mals_experiments::cli::{self, ExactBackendKind};
use mals_experiments::csv::campaign_to_csv;
use mals_experiments::figures::{fig10_with_io, Fig10Config};
use mals_gen::SetParams;
use mals_platform::Platform;

fn main() {
    let options = cli::parse_or_exit();
    let mut config = if options.full {
        Fig10Config::paper()
    } else {
        Fig10Config::default()
    };
    if let Some(dags) = options.dags {
        config.n_dags = dags;
    }
    if let Some(tasks) = options.tasks {
        config.n_tasks = tasks;
    }
    if let Some(parallel) = options.parallel() {
        config.parallel = parallel;
    }
    // `lp-export` prints the first DAG of the campaign set instead of solving.
    if cli::handle_lp_export(&options, &Platform::single_pair(0.0, 0.0), || {
        SetParams::small_rand()
            .scaled(config.n_dags, config.n_tasks)
            .generate()
            .into_iter()
            .next()
            .expect("non-empty set")
    }) {
        return;
    }
    if let Some(key) = options.exact_solver(
        Some(ExactBackendKind::BranchAndBound),
        config.n_tasks,
        "each campaign DAG",
    ) {
        config.exact_solver = key;
    }
    eprintln!(
        "# Figure 10 — SmallRandSet: {} DAGs of {} tasks, {} node limit {}{}",
        config.n_dags,
        config.n_tasks,
        cli::solver_display_name(&config.exact_solver),
        config.optimal_node_limit,
        if options.full {
            " (paper scale)"
        } else {
            " (scaled down; use --full for the paper scale)"
        }
    );
    let run = fig10_with_io(&config, &options.campaign_io()).unwrap_or_else(|message| {
        eprintln!("fig10: {message}");
        std::process::exit(2);
    });
    match run.points {
        Some(points) => print!("{}", campaign_to_csv(&points)),
        None => eprintln!(
            "# stopped after {}/{} dags; resume with --checkpoint <same path> --resume",
            run.dags_done, run.total_dags
        ),
    }
}
