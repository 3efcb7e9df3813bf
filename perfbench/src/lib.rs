//! Wall-time benchmark of the eight-family simulator.
//!
//! `src/main.rs` is the command; this library holds its parts so the
//! self-tests in `tests/` can reach them. See `README.md` for the
//! workloads, metrics and how to run it.

pub mod check;
pub mod crypto;
pub mod stats;
pub mod trace;
pub mod workload;

use ba_workloads::{par_map, AdversaryKind, ExperimentConfig, ExperimentOutcome, Pipeline};
use check::Expected;
use std::num::NonZeroUsize;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Layers;
use workload::Workload;

/// Everything set up before the first timed session.
pub struct Plan {
    /// Sessions in canonical order.
    pub sessions: Vec<ExperimentConfig>,
    /// Dispatch order (indices into `sessions`).
    pub order: Vec<usize>,
    /// What the outcomes must equal.
    pub expected: Expected,
}

impl Plan {
    /// Expands the workload, loads its expectations from the repository
    /// at `root`, and warms up every family it runs.
    pub fn set_up(workload: Workload, seed: u64, root: &Path) -> Result<Plan, String> {
        let sessions = workload::sessions(workload, seed);
        let order = workload::dispatch_order(workload, sessions.len(), seed);
        let expected = check::load(workload, root)?;
        let plan = Plan {
            sessions,
            order,
            expected,
        };
        plan.warm_up();
        Ok(plan)
    }

    /// Runs each family's first session, with the adversary silenced,
    /// once per worker, so code, allocator pools and worker threads are
    /// warm at the workload's sizes before timing starts.
    fn warm_up(&self) {
        let warm: Vec<ExperimentConfig> = Pipeline::ALL
            .into_iter()
            .filter_map(|p| self.sessions.iter().find(|s| s.pipeline == p))
            .flat_map(|first| {
                let silent = first.clone().with_adversary(AdversaryKind::Silent);
                std::iter::repeat_n(silent, workers(usize::MAX))
            })
            .collect();
        let outcomes = par_map(&warm, ExperimentConfig::run);
        assert!(
            outcomes.iter().all(|o| o.agreement),
            "warm-up sessions must agree"
        );
    }

    /// Whether each outcome (canonical order) fails a check.
    pub fn failures(&self, outcomes: &[ExperimentOutcome]) -> Vec<bool> {
        check::failures(&self.sessions, outcomes, &self.expected)
    }
}

/// Workers `par_map` uses for `items` items.
pub fn workers(items: usize) -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(items)
}

/// One untraced pass over every session.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Outcomes in canonical order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Time of each `ExperimentConfig::run` call, canonical order.
    pub session_time: Vec<Duration>,
    /// Time of the [`reference_kernel`] run just before each session,
    /// on the same worker.
    pub reference_time: Vec<Duration>,
}

impl Pass {
    /// Sessions per wall second, scaled to a machine on which the
    /// reference kernel takes [`REFERENCE_KERNEL`]: the measured rate
    /// times the pass's median kernel time over that constant.
    ///
    /// The machines this runs on drift in speed by tens of percent over
    /// seconds as other tenants come and go; the kernel, timed between
    /// sessions on the same workers, drifts with them, so the scaled
    /// rate moves with the program and not with the host.
    pub fn scaled_rate(&self) -> f64 {
        let mut kernel: Vec<f64> = self
            .reference_time
            .iter()
            .map(Duration::as_secs_f64)
            .collect();
        let speed = stats::median(&mut kernel) / REFERENCE_KERNEL.as_secs_f64();
        self.outcomes.len() as f64 / self.wall.as_secs_f64() * speed
    }
}

/// The [`reference_kernel`]'s time on the 2-vCPU Xeon virtual machine
/// the README's figures come from, in a quiet spell. It only sets the
/// scale of `sessions_per_s`.
pub const REFERENCE_KERNEL: Duration = Duration::from_micros(100);

/// A fixed amount of work that uses nothing from the program: sort
/// 4096 pseudo-random keys and hash them (about 0.1 ms).
pub fn reference_kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut keys: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    keys.iter()
        .fold(0, |h, &k| (h ^ k).wrapping_mul(0x0100_0000_01b3))
}

/// Runs every session through `ExperimentConfig::run` on `par_map`,
/// timing each call from outside, with a [`reference_kernel`] run
/// timed just before it.
pub fn untraced_pass(plan: &Plan) -> Pass {
    let start = Instant::now();
    let results = par_map(&plan.order, |&i| {
        let kernel = Instant::now();
        std::hint::black_box(reference_kernel(i as u64));
        let kernel = kernel.elapsed();
        let start = Instant::now();
        let outcome = plan.sessions[i].run();
        (outcome, start.elapsed(), kernel)
    });
    let wall = start.elapsed();
    let mut pass = Pass {
        wall,
        outcomes: Vec::with_capacity(results.len()),
        session_time: Vec::with_capacity(results.len()),
        reference_time: Vec::with_capacity(results.len()),
    };
    for (outcome, session, kernel) in restore(&plan.order, results) {
        pass.outcomes.push(outcome);
        pass.session_time.push(session);
        pass.reference_time.push(kernel);
    }
    pass
}

/// One traced pass: the same sessions through their replicas.
pub struct TracedPass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Layers summed over every session.
    pub layers: Layers,
    /// Whether each replica's outcome differed from the driver path's
    /// (canonical order).
    pub mismatched: Vec<bool>,
}

/// Runs every session through [`trace::traced_session`] on `par_map`
/// and compares each outcome with `driver_outcomes` (canonical order).
pub fn traced_pass(plan: &Plan, driver_outcomes: &[ExperimentOutcome]) -> TracedPass {
    let start = Instant::now();
    let results = par_map(&plan.order, |&i| trace::traced_session(&plan.sessions[i]));
    let wall = start.elapsed();
    let results = restore(&plan.order, results);
    let mut layers = Layers::default();
    for (_, l) in &results {
        layers.add(l);
    }
    let mismatched = results
        .iter()
        .zip(driver_outcomes)
        .map(|((replica, _), driver)| replica != driver)
        .collect();
    TracedPass {
        wall,
        layers,
        mismatched,
    }
}

/// Puts results produced in dispatch `order` back in canonical order.
fn restore<T>(order: &[usize], results: Vec<T>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = order.iter().map(|_| None).collect();
    for (&i, r) in order.iter().zip(results) {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("dispatch order is a permutation"))
        .collect()
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_string())
}
