//! **Figure 6** — Algorithm 2 (DiMa2ED) on directed Erdős–Rényi graphs.
//!
//! Paper §IV-D: 50 Erdős–Rényi graphs of 200 and 400 nodes with average
//! degree 4 and 8, turned into symmetric digraphs. Claims reproduced
//! here:
//!
//! * solve time is near-identical across n for the same average degree
//!   (variance attributable to slightly higher Δ draws);
//! * rounds track Δ, tending to ≈ 4Δ (§V).
//!
//! Each corpus runs twice: with the default `Reject` hints and with the
//! pseudocode's silent rejection (`Rejection::Silent`).

use dima_core::Rejection;
use dima_experiments::report::{rounds_vs_delta_plot, strong_summary_table};
use dima_experiments::run::{run_strong_corpus, STRONG_HEADERS};
use dima_experiments::{corpus, csv, CommonArgs};

fn main() {
    let args = CommonArgs::from_env();
    let configs = corpus::fig6(args.trials_or(50));
    // The default `Reject` hints first, then the pseudocode's silent
    // rejection on the same graphs and seeds (EXPERIMENTS.md's Fig. 6
    // analysis compares the two).
    for (rejection, mode, csv_name) in [
        (Rejection::Hint, "Reject hints", "fig6_strong_er.csv"),
        (Rejection::Silent, "silent rejection", "fig6_strong_er_silent.csv"),
    ] {
        eprintln!(
            "fig6: running Algorithm 2 ({mode}) on {} directed Erdős–Rényi configurations \
             (seed {})...",
            configs.len(),
            args.seed
        );
        let trials = run_strong_corpus(&configs, args.seed, args.engine(), rejection);

        println!("== Figure 6: strong edge coloring of directed Erdős–Rényi graphs ({mode}) ==\n");
        println!("{}", strong_summary_table(&trials).render());
        let points: Vec<(usize, usize, u64)> =
            trials.iter().map(|t| (t.n, t.delta, t.compute_rounds)).collect();
        let title = format!("Fig. 6 — computation rounds vs Δ, {mode} (every trial)");
        println!("{}", rounds_vs_delta_plot(&title, &points));

        let rows: Vec<Vec<String>> = trials.iter().map(|t| t.csv_row()).collect();
        match csv::write_csv(&args.out, csv_name, &STRONG_HEADERS, &rows) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("csv not written: {e}"),
        }
    }
}
