//! Self-tests of the benchmark: workload shapes, the traced replicas
//! against the driver path, the correctness checks, and the arithmetic
//! behind the reported figures.

use ba_sim::{RunReport, Value};
use ba_workloads::{
    generators, summarize, AdversaryKind, ErrorPlacement, ExperimentConfig, ExperimentOutcome,
    FaultPlacement, GridPoint, Pipeline, SessionSpec, SweepGrid, ToJson,
};
use perfbench::check::{self, Expected};
use perfbench::trace::{self, Layers, Ledger};
use perfbench::workload::{self, Workload};
use perfbench::{stats, Pass, REFERENCE_KERNEL};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root")
        .to_path_buf()
}

#[test]
fn workloads_have_their_stated_session_counts() {
    let counts: Vec<usize> = Workload::ALL
        .into_iter()
        .map(|w| workload::sessions(w, 0).len())
        .collect();
    assert_eq!(counts, [540, 8, 108]);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn grid_sessions_expand_the_bench_grid_cell_by_cell() {
    let grid = SweepGrid::bench_default();
    let cells = grid.configs();
    let sessions = workload::sessions(Workload::Grid, 7);
    assert_eq!(sessions.len(), cells.len() * grid.seeds.len());
    for (i, s) in sessions.iter().enumerate() {
        let cell = &cells[i / grid.seeds.len()];
        assert_eq!(
            (s.pipeline, s.n, s.t, s.f, s.budget),
            (cell.pipeline, cell.n, cell.t, cell.f, cell.budget)
        );
        assert_eq!(
            s.seed,
            grid.seeds[i % grid.seeds.len()],
            "grid seeds are pinned"
        );
    }
}

#[test]
fn n64_sessions_are_ordered_and_offset_by_the_workload_seed() {
    let replay = workload::sessions(Workload::Replay64, 5);
    let shape: Vec<(Pipeline, usize, u64)> = replay
        .iter()
        .map(|s| (s.pipeline, s.budget, s.seed))
        .collect();
    let expected: Vec<(Pipeline, usize, u64)> = [Pipeline::PhaseKing, Pipeline::CommEff]
        .into_iter()
        .flat_map(|p| (0..4).map(move |i| (p, 64, workload::session_seed(5, i))))
        .collect();
    assert_eq!(shape, expected);

    let predict = workload::sessions(Workload::Predict64, 5);
    let families = [
        Pipeline::Unauth,
        Pipeline::Resilient,
        Pipeline::CommEffSigned,
        Pipeline::ResilientSigned,
    ];
    for (i, s) in predict.iter().enumerate() {
        assert_eq!(s.pipeline, families[i / 27]);
        assert_eq!(s.budget, workload::PREDICT64_BUDGETS[(i / 9) % 3]);
        assert_eq!(s.seed, workload::session_seed(5, (i % 9) as u64));
    }
    for s in replay.iter().chain(&predict) {
        assert_eq!((s.n, s.f, s.t), (64, 10, 21));
        assert_eq!(s.adversary, AdversaryKind::Disruptor);
        assert_eq!(s.fault_placement, FaultPlacement::Head);
        assert_eq!(s.placement, ErrorPlacement::TrustedFaults);
    }
    let other = workload::sessions(Workload::Predict64, 6);
    assert!(
        predict.iter().zip(&other).all(|(a, b)| a.seed != b.seed),
        "workload seeds give disjoint session seeds"
    );
}

#[test]
fn dispatch_order_is_a_seeded_permutation_for_grid_only() {
    let a = workload::dispatch_order(Workload::Grid, 540, 1);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..540).collect::<Vec<_>>());
    assert_eq!(a, workload::dispatch_order(Workload::Grid, 540, 1));
    assert_ne!(a, workload::dispatch_order(Workload::Grid, 540, 2));
    for w in [Workload::Replay64, Workload::Predict64] {
        assert_eq!(
            workload::dispatch_order(w, 8, 3),
            (0..8).collect::<Vec<_>>()
        );
    }
}

/// Runs `cfg`'s session through the driver and through the replica,
/// returning both reports.
fn both_reports(cfg: &ExperimentConfig) -> (RunReport<Value>, RunReport<Value>) {
    let driver = cfg.pipeline.driver();
    let faulty = generators::faults(cfg.n, cfg.f, cfg.fault_placement);
    let matrix =
        generators::predictions_with_budget(cfg.n, &faulty, cfg.budget, cfg.placement, cfg.seed);
    let spec = SessionSpec {
        n: cfg.n,
        t: cfg.t,
        faulty: &faulty,
        matrix: &matrix,
        inputs: cfg.inputs,
        adversary: cfg.adversary,
        seed: cfg.seed,
    };
    let rounds = driver.max_rounds(cfg.n, cfg.t);
    let from_driver = driver.build(&spec).run(rounds);
    let ledger = Rc::new(Ledger::default());
    let from_replica = trace::replica(cfg.pipeline, &spec, &ledger).run(rounds);
    (from_driver, from_replica)
}

fn counts(r: &RunReport<Value>) -> Vec<(u64, u64, u64, u64)> {
    r.rounds
        .iter()
        .map(|t| {
            (
                t.honest_messages,
                t.honest_bytes,
                t.faulty_messages,
                t.faulty_bytes,
            )
        })
        .collect()
}

#[test]
fn replicas_equal_the_driver_path_on_one_small_session_per_family() {
    for pipeline in Pipeline::ALL {
        for adversary in [AdversaryKind::Silent, AdversaryKind::Disruptor] {
            let cfg = ExperimentConfig::builder()
                .n(13)
                .faults(3, FaultPlacement::Head)
                .budget(20, ErrorPlacement::TrustedFaults)
                .pipeline(pipeline)
                .adversary(adversary)
                .seed(11)
                .build();
            let (driver, replica) = both_reports(&cfg);
            let what = format!("{pipeline:?} under {adversary:?}");
            assert_eq!(driver.outputs, replica.outputs, "{what}");
            assert_eq!(driver.decision_round, replica.decision_round, "{what}");
            assert_eq!(driver.rounds_executed, replica.rounds_executed, "{what}");
            assert_eq!(counts(&driver), counts(&replica), "{what}");
            assert_eq!(
                driver.messages_per_process, replica.messages_per_process,
                "{what}"
            );

            let (outcome, layers) = trace::traced_session(&cfg);
            assert_eq!(outcome, cfg.run(), "{what}: traced outcome");
            assert_eq!(layers.rounds_executed, driver.rounds_executed);
            assert!(
                layers.step > Duration::ZERO && layers.run >= layers.step,
                "{what}"
            );
            let wrapper = matches!(pipeline, Pipeline::Unauth | Pipeline::Auth);
            let bucketed: Duration = layers.slots.iter().sum();
            assert_eq!(bucketed > Duration::ZERO, wrapper, "{what}: slot buckets");
            assert!(bucketed <= layers.step);
        }
    }
}

#[test]
fn layer_arithmetic_on_fixed_inputs() {
    let ms = Duration::from_millis;
    let mut l = Layers {
        wall: ms(100),
        generators: ms(2),
        build: ms(3),
        run: ms(90),
        step: ms(50),
        act: ms(30),
        k_a: ms(4),
        slots: [ms(1), ms(20), ms(10), ms(9)],
        rounds_executed: 10,
        honest_envelopes: 100,
        faulty_envelopes: 6400,
    };
    assert_eq!(l.runner(), ms(10));
    assert_eq!(l.accounted(), ms(99));
    let copy = l;
    l.add(&copy);
    assert_eq!((l.wall, l.runner(), l.slots[1]), (ms(200), ms(20), ms(40)));
    assert_eq!((l.rounds_executed, l.faulty_envelopes), (20, 12800));
    let stalled = Layers {
        run: ms(5),
        step: ms(4),
        act: ms(3),
        ..Layers::default()
    };
    assert_eq!(
        stalled.runner(),
        Duration::ZERO,
        "timer jitter never goes negative"
    );
}

#[test]
fn efficiency_and_ratio_arithmetic_on_fixed_inputs() {
    assert_eq!(stats::efficiency(3.0, 2, 2.0), 0.75);
    assert_eq!(stats::efficiency(4.0, 2, 2.0), 1.0);
    assert_eq!(stats::ratio(6400.0, 100.0), 64.0);
    assert_eq!(stats::ratio(1.0, 0.0), 0.0);
    assert_eq!(stats::median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(stats::mean([1.0, 2.0, 6.0]), 3.0);
    assert_eq!(stats::mean([]), 0.0);
}

#[test]
fn scaled_rate_cancels_the_machine_speed() {
    let pass = |wall_ms: u64, kernel_us: [u64; 3]| Pass {
        wall: Duration::from_millis(wall_ms),
        outcomes: vec![outcome(Some(4), 10, 100); 10],
        session_time: vec![Duration::ZERO; 10],
        reference_time: kernel_us.map(Duration::from_micros).to_vec(),
    };
    // 10 sessions in 2 s at the reference speed: 5 per second.
    let reference = REFERENCE_KERNEL.as_micros() as u64;
    let nominal = pass(2000, [reference - 1, reference, reference + 50]);
    assert_eq!(nominal.scaled_rate(), 5.0);
    // The same program on a host running twice as fast.
    let boosted = pass(1000, [reference / 2, reference / 2, 1]);
    assert_eq!(boosted.scaled_rate(), 5.0);
}

#[test]
fn baseline_splits_into_one_object_per_grid_cell() {
    let Expected::GridCells(cells) = check::load(Workload::Grid, &root()).expect("baseline") else {
        panic!("grid is checked against baseline cells");
    };
    assert_eq!(cells.len(), SweepGrid::bench_default().configs().len());
    assert!(cells
        .iter()
        .all(|c| c.starts_with("{\"pipeline\":") && c.ends_with("}}")));
    assert_eq!(
        check::top_level_objects(r#"[{"a":{"b":1}},{"c":2}]"#),
        [r#"{"a":{"b":1}}"#, r#"{"c":2}"#]
    );
}

#[test]
fn expected_counts_cover_every_n64_session_shape() {
    for w in [Workload::Replay64, Workload::Predict64] {
        let Expected::Counts(table) = check::load(w, &root()).expect("expected.tsv") else {
            panic!("{w:?} is checked against expected counts");
        };
        for s in workload::sessions(w, 0) {
            assert!(
                table.contains_key(&(s.pipeline.name().to_string(), s.budget)),
                "{w:?}: no row for {:?} B = {}",
                s.pipeline,
                s.budget
            );
        }
    }
}

fn outcome(rounds: Option<u64>, messages: u64, bytes: u64) -> ExperimentOutcome {
    ExperimentOutcome {
        rounds,
        messages,
        messages_total: messages,
        bytes,
        bytes_total: bytes,
        agreement: true,
        validity_ok: true,
        b_actual: 0,
        k_a: 0,
    }
}

#[test]
fn checks_flag_each_kind_of_divergence() {
    let sessions = workload::sessions(Workload::Replay64, 0);
    let Expected::Counts(table) = check::load(Workload::Replay64, &root()).expect("expected.tsv")
    else {
        panic!("replay64 is checked against expected counts");
    };
    let good: Vec<ExperimentOutcome> = sessions
        .iter()
        .map(|s| {
            let c = table[&(s.pipeline.name().to_string(), s.budget)];
            outcome(Some(c.rounds), c.messages, c.bytes)
        })
        .collect();
    let expected = Expected::Counts(table);
    assert!(check::failures(&sessions, &good, &expected)
        .iter()
        .all(|f| !f));

    let mut bad = good.clone();
    bad[0].bytes += 1; // honest-side count drift
    bad[1].rounds = None; // no termination
    bad[2].agreement = false;
    bad[3].messages_total += 5; // not an until-decision count: not checked
    assert_eq!(
        check::failures(&sessions, &bad, &expected)[..4],
        [true, true, true, false]
    );

    // Grid cells: the summary of each cell's seeds must equal its row.
    let grid = workload::sessions(Workload::Grid, 0);
    let cell = &grid[..3];
    let outs = vec![outcome(Some(4), 10, 100); 3];
    let point = |outs: &[ExperimentOutcome]| GridPoint {
        n: cell[0].n,
        t: cell[0].t,
        f: cell[0].f,
        budget: cell[0].budget,
        pipeline: cell[0].pipeline,
        summary: summarize(outs),
    };
    let cells = Expected::GridCells(vec![point(&outs).to_json()]);
    assert!(check::failures(cell, &outs, &cells).iter().all(|f| !f));
    let mut drifted = outs.clone();
    drifted[2].messages = 11;
    assert!(check::failures(cell, &drifted, &cells).iter().all(|&f| f));
}

#[test]
fn expected_rows_refuse_seed_dependent_counts() {
    let sessions = workload::sessions(Workload::Replay64, 0);
    let outs: Vec<ExperimentOutcome> = sessions
        .iter()
        .map(|s| {
            outcome(
                Some(4),
                10 + u64::from(s.pipeline == Pipeline::CommEff),
                100,
            )
        })
        .collect();
    let rows = check::expected_rows(Workload::Replay64, &sessions, &outs);
    assert_eq!(
        rows,
        [
            "replay64\tcomm-eff\t64\t4\t11\t100",
            "replay64\tphase-king\t64\t4\t10\t100"
        ]
    );
    let mut varying = outs;
    varying[1].bytes = 101;
    let refused =
        std::panic::catch_unwind(|| check::expected_rows(Workload::Replay64, &sessions, &varying));
    assert!(refused.is_err());
}
