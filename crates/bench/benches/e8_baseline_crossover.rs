//! E8 — the introduction's promise: with accurate predictions the
//! wrapper beats the prediction-free baselines; with garbage predictions
//! it degrades to the same order, never worse than a constant factor.
//!
//! Baselines and wrappers all run through the same
//! `ExperimentConfig::run` path: the baseline rows are
//! `Pipeline::PhaseKing` (unauth) and `Pipeline::TruncatedDolevStrong`
//! (auth) under silent faults; the wrapper rows face the worst-case
//! disruptor.

use ba_bench::{baseline, run_checked, worst_case};
use ba_workloads::{grid_to_json, ExperimentConfig, Pipeline, SweepGrid, Table};

/// Prints one baseline row plus its wrapper rows; the wrapper runs at
/// the baseline's own (n, t, f) so the comparison cannot drift apart.
fn crossover_rows(
    table: &mut Table,
    label: &str,
    baseline_cfg: &ExperimentConfig,
    wrapper: Pipeline,
    budgets: &[usize],
) {
    let base_out = run_checked(baseline_cfg);
    let base_rounds = base_out.rounds.expect("checked");
    table.row([
        format!("{} baseline ({label})", baseline_cfg.pipeline.name()),
        "-".to_string(),
        base_rounds.to_string(),
        "1.0×".to_string(),
    ]);
    for &budget in budgets {
        let out = run_checked(&worst_case(
            baseline_cfg.n,
            baseline_cfg.t,
            baseline_cfg.f,
            budget,
            wrapper,
        ));
        let r = out.rounds.expect("checked");
        table.row([
            format!("wrapper ({label})"),
            out.b_actual.to_string(),
            r.to_string(),
            format!("{:.2}×", r as f64 / base_rounds as f64),
        ]);
    }
}

fn main() {
    let (n, t, f) = (40, 12, 10);
    let mut table = Table::new(
        &format!("E8: predictions vs prediction-free baselines (n={n}, t={t}, f={f})"),
        &["system", "B", "rounds", "vs baseline"],
    );
    let budgets = [0usize, 40, n * n];
    crossover_rows(
        &mut table,
        "unauth",
        &baseline(n, t, f, Pipeline::PhaseKing),
        Pipeline::Unauth,
        &budgets,
    );
    let (ta, fa) = (13usize, 12usize);
    crossover_rows(
        &mut table,
        "auth",
        &baseline(n, ta, fa, Pipeline::TruncatedDolevStrong),
        Pipeline::Auth,
        &budgets,
    );
    table.print();
    println!(
        "Accurate predictions win; the baselines face only silent faults here\n\
         while the wrapper rows face the worst-case disruptor, so the garbage-\n\
         prediction rows overstate the wrapper's degradation — the honest\n\
         apples-to-apples comparison is the paper's asymptotic claim."
    );

    // Machine-readable trajectory points from one parallel grid. This
    // is a gentler dataset than the table above: all cells run the
    // base config's Silent adversary (not the disruptor), and the
    // prediction-free baselines collapse to a single B = 0 cell each
    // since they never read the matrix.
    let grid = SweepGrid::new(baseline(24, 7, 5, Pipeline::Unauth))
        .budgets([0, 24, 96])
        .pipelines(Pipeline::ALL)
        .seeds(0..3);
    let points = ba_workloads::sweep_grid(&grid);
    assert!(points.iter().all(|p| p.summary.always_agreed));
    println!("\nE8 grid (JSON):\n{}", grid_to_json(&points));
}
