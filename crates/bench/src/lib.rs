//! # ba-bench — experiment harnesses for every claim in the paper
//!
//! Each bench target (`cargo bench -p ba-bench`) regenerates one
//! theorem's complexity table as markdown. The experiment index is the
//! target list: `e1_*` to `e10_*`, each headed by the claim it checks
//! (E1/E2 Theorems 11/12, E3/E4 Theorems 13/14, E5/E6 Theorems 5/6,
//! E7 Lemma 1, E8 the baseline crossover, E9 ablations, E10 scaling).
//!
//! The measured quantities are deterministic (rounds, messages), so the
//! harnesses run each configuration once per seed and print tables
//! rather than sampling wall-clock distributions; the `engine` bench
//! times the substrate microbenchmarks directly.

use ba_workloads::{
    AdversaryKind, ErrorPlacement, ExperimentConfig, ExperimentOutcome, FaultPlacement, Pipeline,
};

/// The worst-case experiment configuration used by the shape sweeps:
/// head-placed coalition, trusted-fault prediction spend, schedule-driven
/// disruptor.
pub fn worst_case(
    n: usize,
    t: usize,
    f: usize,
    budget: usize,
    pipeline: Pipeline,
) -> ExperimentConfig {
    ExperimentConfig::builder()
        .n(n)
        .t(t)
        .faults(f, FaultPlacement::Head)
        .budget(budget, ErrorPlacement::TrustedFaults)
        .pipeline(pipeline)
        .adversary(AdversaryKind::Disruptor)
        .build()
}

/// A silent-fault baseline configuration for a prediction-free
/// pipeline: the reference row the wrapper rows are compared against.
pub fn baseline(n: usize, t: usize, f: usize, pipeline: Pipeline) -> ExperimentConfig {
    ExperimentConfig::builder()
        .n(n)
        .t(t)
        .faults(f, FaultPlacement::Head)
        .pipeline(pipeline)
        .build()
}

/// Runs and asserts the safety invariants every experiment must keep.
pub fn run_checked(cfg: &ExperimentConfig) -> ExperimentOutcome {
    let out = cfg.run();
    assert!(
        out.agreement,
        "agreement violated at n={} t={} f={} B={}",
        cfg.n, cfg.t, cfg.f, cfg.budget
    );
    assert!(
        out.rounds.is_some(),
        "liveness violated at n={} t={} f={} B={}",
        cfg.n,
        cfg.t,
        cfg.f,
        cfg.budget
    );
    out
}
