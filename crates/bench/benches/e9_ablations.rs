//! E9 — ablations over the workload design choices:
//!
//! * error placement: who gets hurt more by the same budget `B`
//!   (concentrated vs uniform vs missed-faults-only);
//! * fault placement: head-packed vs spread coalitions;
//! * adversary strength: silent < classify-liar < disruptor.

use ba_workloads::{
    AdversaryKind, ErrorPlacement, ExperimentConfig, FaultPlacement, LiarStyle, Pipeline, Table,
};

fn main() {
    let (n, t, f, b) = (40, 12, 8, 120);

    let mut p_tab = Table::new(
        &format!("E9a: error placement at fixed B={b} (n={n}, t={t}, f={f}, disruptor)"),
        &["placement", "k_A", "rounds", "msgs"],
    );
    for placement in [
        ErrorPlacement::Uniform,
        ErrorPlacement::Concentrated,
        ErrorPlacement::MissedFaultsOnly,
        ErrorPlacement::FalseAccusationsOnly,
        ErrorPlacement::TrustedFaults,
    ] {
        let cfg = ExperimentConfig::new(n, t, f, b, Pipeline::Unauth)
            .with_placement(placement)
            .with_fault_placement(FaultPlacement::Head)
            .with_adversary(AdversaryKind::Disruptor);
        let out = cfg.run();
        assert!(out.agreement);
        p_tab.row([
            format!("{placement:?}"),
            out.k_a.to_string(),
            out.rounds.map(|r| r.to_string()).unwrap_or_default(),
            out.messages.to_string(),
        ]);
    }
    p_tab.print();

    let mut f_tab = Table::new(
        "E9b: fault placement (same B, disruptor)",
        &["fault ids", "rounds", "msgs"],
    );
    for fp in [
        FaultPlacement::Head,
        FaultPlacement::Pairs,
        FaultPlacement::Spread,
        FaultPlacement::Tail,
    ] {
        let cfg = ExperimentConfig::new(n, t, f, b, Pipeline::Unauth)
            .with_placement(ErrorPlacement::TrustedFaults)
            .with_fault_placement(fp)
            .with_adversary(AdversaryKind::Disruptor);
        let out = cfg.run();
        assert!(out.agreement);
        f_tab.row([
            format!("{fp:?}"),
            out.rounds.map(|r| r.to_string()).unwrap_or_default(),
            out.messages.to_string(),
        ]);
    }
    f_tab.print();

    let mut a_tab = Table::new(
        "E9c: adversary strength (same B and faults)",
        &["adversary", "rounds", "msgs"],
    );
    for (name, adv) in [
        ("silent", AdversaryKind::Silent),
        (
            "classify-liar",
            AdversaryKind::ClassifyLiar(LiarStyle::AllOnes),
        ),
        ("replay", AdversaryKind::Replay),
        ("disruptor", AdversaryKind::Disruptor),
    ] {
        let cfg = ExperimentConfig::new(n, t, f, b, Pipeline::Unauth)
            .with_placement(ErrorPlacement::TrustedFaults)
            .with_fault_placement(FaultPlacement::Head)
            .with_adversary(adv);
        let out = cfg.run();
        assert!(out.agreement, "{name} broke agreement");
        a_tab.row([
            name.to_string(),
            out.rounds.map(|r| r.to_string()).unwrap_or_default(),
            out.messages.to_string(),
        ]);
    }
    a_tab.print();
    println!("Stronger adversaries and nastier placements cost rounds, never safety.");
}
