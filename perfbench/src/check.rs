//! Correctness of every session the benchmark runs.
//!
//! Each session must keep agreement, validity and termination. On top
//! of that, `grid` summarizes its outcomes per cell and requires every
//! cell to equal the committed `BENCH_baseline.json` cell, and the
//! `n = 64` workloads require each session's honest-side counts
//! (rounds, honest messages and bytes until decision) to equal the
//! committed `perfbench/expected.tsv`. Faulty-side counts are reported
//! by the traced run but never checked, so a deliberate change to what
//! the adversary sends is not a failure.

use crate::workload::Workload;
use ba_workloads::{summarize, ExperimentConfig, ExperimentOutcome, GridPoint, SweepGrid, ToJson};
use std::collections::BTreeMap;
use std::path::Path;

/// Honest-side counts of one session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Last-decision round.
    pub rounds: u64,
    /// Honest messages until decision.
    pub messages: u64,
    /// Honest bytes until decision.
    pub bytes: u64,
}

impl Counts {
    fn of(outcome: &ExperimentOutcome) -> Option<Self> {
        Some(Counts {
            rounds: outcome.rounds?,
            messages: outcome.messages,
            bytes: outcome.bytes,
        })
    }
}

/// What a workload's outcomes must equal.
#[derive(Clone, Debug)]
pub enum Expected {
    /// One JSON object per grid cell, as committed.
    GridCells(Vec<String>),
    /// Counts per `(pipeline name, budget)`; seed-invariant for the
    /// `n = 64` workloads (head faults, trusted-fault placement, and
    /// coalitions that do not depend on the seed).
    Counts(BTreeMap<(String, usize), Counts>),
}

/// The committed expected-counts file, relative to the repository root.
const EXPECTED_TSV: &str = "perfbench/expected.tsv";
/// The committed grid baseline, relative to the repository root.
const BASELINE_JSON: &str = "BENCH_baseline.json";

/// Loads the workload's expectations from the repository at `root`.
pub fn load(workload: Workload, root: &Path) -> Result<Expected, String> {
    match workload {
        Workload::Grid => {
            let path = root.join(BASELINE_JSON);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Ok(Expected::GridCells(top_level_objects(&text)))
        }
        _ => {
            let path = root.join(EXPECTED_TSV);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            parse_counts(&text, workload).map(Expected::Counts)
        }
    }
}

/// Splits a JSON array of objects into its top-level objects' text.
/// The baseline's strings hold no braces, so depth counting suffices.
pub fn top_level_objects(text: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in text.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    cells.push(text[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    cells
}

fn parse_counts(
    text: &str,
    workload: Workload,
) -> Result<BTreeMap<(String, usize), Counts>, String> {
    let mut table = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let fields: Vec<&str> = line.split('\t').collect();
        let [w, pipeline, budget, rounds, messages, bytes] = fields[..] else {
            return Err(format!("{EXPECTED_TSV}: malformed line {line:?}"));
        };
        if w != workload.name() {
            continue;
        }
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("{EXPECTED_TSV}: {s:?} in {line:?}: {e}"))
        };
        table.insert(
            (pipeline.to_string(), num(budget)? as usize),
            Counts {
                rounds: num(rounds)?,
                messages: num(messages)?,
                bytes: num(bytes)?,
            },
        );
    }
    if table.is_empty() {
        return Err(format!("{EXPECTED_TSV}: no rows for {}", workload.name()));
    }
    Ok(table)
}

/// Renders the expected-counts rows for `workload` from outcomes that
/// have passed review — the way `perfbench/expected.tsv` is regenerated
/// after a deliberate behaviour change.
pub fn expected_rows(
    workload: Workload,
    sessions: &[ExperimentConfig],
    outcomes: &[ExperimentOutcome],
) -> Vec<String> {
    let mut rows: BTreeMap<(String, usize), Counts> = BTreeMap::new();
    for (cfg, outcome) in sessions.iter().zip(outcomes) {
        let counts = Counts::of(outcome).expect("a session to record must terminate");
        let key = (cfg.pipeline.name().to_string(), cfg.budget);
        let first = *rows.entry(key).or_insert(counts);
        assert_eq!(first, counts, "{cfg:?}: counts differ between seeds");
    }
    rows.into_iter()
        .map(|((p, b), c)| {
            format!(
                "{}\t{p}\t{b}\t{}\t{}\t{}",
                workload.name(),
                c.rounds,
                c.messages,
                c.bytes
            )
        })
        .collect()
}

/// Whether each session (in `sessions` order) failed a check.
pub fn failures(
    sessions: &[ExperimentConfig],
    outcomes: &[ExperimentOutcome],
    expected: &Expected,
) -> Vec<bool> {
    assert_eq!(sessions.len(), outcomes.len());
    let mut failed: Vec<bool> = outcomes
        .iter()
        .map(|o| !(o.agreement && o.validity_ok && o.rounds.is_some()))
        .collect();
    match expected {
        Expected::GridCells(cells) => {
            let per_cell = SweepGrid::bench_default().seeds.len();
            let chunks = sessions.chunks(per_cell).zip(outcomes.chunks(per_cell));
            if sessions.len() != cells.len() * per_cell {
                failed.iter_mut().for_each(|f| *f = true);
            }
            for (i, (cfgs, outs)) in chunks.enumerate() {
                let cfg = &cfgs[0];
                let point = GridPoint {
                    n: cfg.n,
                    t: cfg.t,
                    f: cfg.f,
                    budget: cfg.budget,
                    pipeline: cfg.pipeline,
                    summary: summarize(outs),
                };
                if cells.get(i) != Some(&point.to_json()) {
                    failed[i * per_cell..i * per_cell + outs.len()]
                        .iter_mut()
                        .for_each(|f| *f = true);
                }
            }
        }
        Expected::Counts(table) => {
            for ((cfg, outcome), failed) in sessions.iter().zip(outcomes).zip(&mut failed) {
                let key = (cfg.pipeline.name().to_string(), cfg.budget);
                if table.get(&key) != Counts::of(outcome).as_ref() {
                    *failed = true;
                }
            }
        }
    }
    failed
}
