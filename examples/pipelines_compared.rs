//! Compare every pipeline — the paper's two wrappers, the
//! prediction-free baselines, and both follow-up families — on the
//! same workloads.
//!
//! The unauthenticated pipeline (Theorem 11, `t < n/3`) can only exploit
//! predictions while `B = O(n^{3/2})`; the authenticated one (Theorem 12,
//! `t < (1/2 − ε)n`) keeps profiting up to `B = Θ(n²)` and tolerates more
//! faults — at the cost of signatures everywhere. The baselines
//! (`Pipeline::PhaseKing`, `Pipeline::TruncatedDolevStrong`) are what
//! the wrappers must never lose to asymptotically; `Pipeline::CommEff`
//! (Dzulfikar–Gilbert) shows the same prediction advantage with far
//! less communication — watch its bytes column against everyone
//! else's — and `Pipeline::Resilient` (Dallot et al.) trades that
//! economy for *graceful* rounds: its cost climbs one phase per faulty
//! identifier the error budget corrupts instead of cliff-switching into
//! a fallback. Their signed variants (`Pipeline::CommEffSigned`,
//! `Pipeline::ResilientSigned`) pay signature bytes to remove each
//! family's equivocation conditionality. All eight families run through
//! the same `ExperimentConfig::run` path — one `Family` row per
//! `Pipeline` — on identical fault workloads.
//!
//! ```sh
//! cargo run --release --example pipelines_compared
//! ```
//!
//! Note the baselines' B column reads "-": they never see the
//! prediction matrix, which is exactly their role in the comparison.

use ba_predictions::prelude::*;

fn row_for(table: &mut Table, cfg: &ExperimentConfig) {
    let out = cfg.run();
    assert!(out.agreement);
    table.row([
        cfg.pipeline.name().to_string(),
        if cfg.pipeline.driver().uses_predictions() {
            out.b_actual.to_string()
        } else {
            "-".to_string()
        },
        cfg.f.to_string(),
        out.rounds
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into()),
        out.messages.to_string(),
        out.bytes.to_string(),
        out.agreement.to_string(),
    ]);
}

fn main() {
    let n = 24;
    println!("Pipelines compared at n = {n}");
    driver_table().print();

    // Common ground: t below n/3 so every pipeline runs.
    let t_common = 7;
    let mut table = Table::new(
        &format!(
            "same workload, t = {t_common} (all {} pipelines legal)",
            Pipeline::ALL.len()
        ),
        &[
            "pipeline",
            "B",
            "f",
            "rounds",
            "messages",
            "bytes",
            "agreement",
        ],
    );
    for (budget, f) in [(0usize, 2usize), (48, 2), (0, 6), (96, 6)] {
        for pipeline in Pipeline::ALL {
            let cfg = ExperimentConfig::builder()
                .n(n)
                .t(t_common)
                .faults(f, FaultPlacement::Spread)
                .budget(budget, ErrorPlacement::Uniform)
                .pipeline(pipeline)
                .seed(3)
                .build();
            row_for(&mut table, &cfg);
        }
    }
    table.print();

    // Beyond n/3: only the authenticated family (wrapper and its
    // Dolev–Strong baseline) is defined.
    let t_auth = 11;
    let mut high = Table::new(
        &format!("beyond n/3: t = {t_auth} (authenticated family only)"),
        &[
            "pipeline",
            "B",
            "f",
            "rounds",
            "messages",
            "bytes",
            "agreement",
        ],
    );
    for (budget, f) in [(0usize, 4usize), (64, 10)] {
        for pipeline in [Pipeline::Auth, Pipeline::TruncatedDolevStrong] {
            let cfg = ExperimentConfig::builder()
                .n(n)
                .t(t_auth)
                .faults(f, FaultPlacement::Spread)
                .budget(budget, ErrorPlacement::Uniform)
                .pipeline(pipeline)
                .seed(5)
                .build();
            row_for(&mut high, &cfg);
        }
    }
    high.print();

    println!(
        "The authenticated pipeline pays signature-sized messages but\n\
         tolerates nearly half the system being Byzantine and keeps\n\
         profiting from predictions at error budgets where the\n\
         unauthenticated conciliation machinery has given up. The\n\
         baseline rows show the prediction-free floor each wrapper is\n\
         measured against."
    );
}
