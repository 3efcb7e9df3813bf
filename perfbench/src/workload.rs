//! The three workloads: fixed session lists built from the workload
//! seed alone.
//!
//! A session is one [`ExperimentConfig`] (its `seed` field included).
//! Why each workload exists, with the splits measured when it was
//! chosen, is recorded in `perfbench/README.md`.

use ba_workloads::{
    AdversaryKind, ErrorPlacement, ExperimentConfig, FaultPlacement, Pipeline, SweepGrid,
};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `SweepGrid::bench_default()` expanded over its seeds: the table
    /// `BENCH_baseline.json` pins (crypto-heavy, idle adversary).
    Grid,
    /// The prediction-free baseline and the unsigned committee pipeline
    /// at `n = 64` under the replay coalition (runner- and
    /// adversary-heavy, no crypto).
    Replay64,
    /// The prediction-quality axis at `n = 64`: four prediction
    /// pipelines under their strongest coalitions, `B ∈ {0, 64, 640}`.
    Predict64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::Replay64, Workload::Predict64];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Replay64 => "replay64",
            Workload::Predict64 => "predict64",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// System size and fault count of the two `n = 64`
/// workloads.
const N64: usize = 64;
const F64: usize = 10;

/// Seeds per replay64 session shape, and per predict64 `(pipeline, B)`.
const REPLAY64_SEEDS: u64 = 4;
const PREDICT64_SEEDS: u64 = 9;

/// The predict64 prediction-error budgets: perfect, `n` wrong bits,
/// and `10 n` (more than the 540 missed-detection bits `TrustedFaults`
/// can place, so the placement saturates).
pub const PREDICT64_BUDGETS: [usize; 3] = [0, 64, 640];

/// Offsets a session's base seed by the workload seed, so different
/// workload seeds give disjoint session seeds.
pub fn session_seed(workload_seed: u64, base: u64) -> u64 {
    (workload_seed << 16) + base
}

/// The workload's sessions in canonical order.
///
/// * `grid`: the cells of [`SweepGrid::bench_default`] in grid order,
///   each expanded over the grid's seeds (seed innermost). These are
///   the seeds `BENCH_baseline.json` pins, so the workload seed does
///   not touch them; it chooses the dispatch order instead
///   ([`dispatch_order`]).
/// * `replay64`: phase-king then comm-eff, each over four seeds.
/// * `predict64`: pipeline-major, then `B`, then nine seeds.
pub fn sessions(workload: Workload, workload_seed: u64) -> Vec<ExperimentConfig> {
    match workload {
        Workload::Grid => {
            let grid = SweepGrid::bench_default();
            grid.configs()
                .into_iter()
                .flat_map(|cfg| grid.seeds.iter().map(move |&s| cfg.clone().with_seed(s)))
                .collect()
        }
        Workload::Replay64 => [Pipeline::PhaseKing, Pipeline::CommEff]
            .into_iter()
            .flat_map(|p| {
                (0..REPLAY64_SEEDS).map(move |s| n64(p, 64, session_seed(workload_seed, s)))
            })
            .collect(),
        Workload::Predict64 => [
            Pipeline::Unauth,
            Pipeline::Resilient,
            Pipeline::CommEffSigned,
            Pipeline::ResilientSigned,
        ]
        .into_iter()
        .flat_map(|p| {
            PREDICT64_BUDGETS.into_iter().flat_map(move |b| {
                (0..PREDICT64_SEEDS).map(move |s| n64(p, b, session_seed(workload_seed, s)))
            })
        })
        .collect(),
    }
}

/// One `n = 64, f = 10` session under the family's `Disruptor`
/// mapping, with the budget spent as trusted faults on the head ids.
fn n64(pipeline: Pipeline, budget: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .n(N64)
        .faults(F64, FaultPlacement::Head)
        .budget(budget, ErrorPlacement::TrustedFaults)
        .pipeline(pipeline)
        .adversary(AdversaryKind::Disruptor)
        .seed(seed)
        .build()
}

/// The order in which sessions are handed to the workers.
///
/// `grid` shuffles its sessions with the workload seed (its session
/// seeds are pinned by the baseline); the `n = 64` workloads keep the
/// canonical order, because with a handful of long sessions the order
/// decides how well two workers balance, which would make the seed
/// move throughput.
pub fn dispatch_order(workload: Workload, len: usize, workload_seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    if workload == Workload::Grid {
        // Fisher–Yates driven by a splitmix64 stream: a fixed,
        // dependency-free permutation per seed.
        let mut state = workload_seed;
        for i in (1..len).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
