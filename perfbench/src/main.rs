//! The benchmark command.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints one JSON object as its last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones (see `README.md`). `--print-expected <workload>` instead prints
//! the rows of `perfbench/expected.tsv` for an `n = 64` workload.

use ba_workloads::Pipeline;
use perfbench::trace::SLOTS;
use perfbench::workload::Workload;
use perfbench::{crypto, stats, Plan};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The traced run must account for this share of the traced session
/// wall time (1 ± this).
const ACCOUNTING_TOLERANCE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    PrintExpected(Workload),
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let workload_of =
            |name: String| Workload::parse(&name).ok_or(format!("unknown workload {name:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(workload_of(value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--print-expected" => return Ok(Command::PrintExpected(workload_of(value()?)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Collected metrics, printed in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn ms(&mut self, name: &str, d: Duration) {
        self.put(name, d.as_secs_f64() * 1e3, "ms");
    }
}

/// Attempted and failed sessions, and any other broken check.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    broken: Vec<String>,
}

impl Tally {
    fn count(&mut self, failed: &[bool]) {
        self.attempted += failed.len();
        self.failed += failed.iter().filter(|&&f| f).count();
    }
}

fn print_result(tally: &Tally, metrics: &Metrics) {
    for problem in &tally.broken {
        eprintln!("check failed: {problem}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.broken.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// End-to-end metrics: set-up, then untraced passes for `seconds`.
/// `sessions_per_s` is the median [`perfbench::Pass::scaled_rate`] over
/// the timed passes.
fn end_to_end(args: &Args, root: &Path) -> Result<(Tally, Metrics), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut plan = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        plan = Some(Plan::set_up(args.workload, args.seed, root)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let plan = plan.expect("at least one set-up");

    // The first pass warms clocks, caches and allocator pools at full
    // load; it is checked but not timed.
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass = perfbench::untraced_pass(&plan);
        tally.count(&plan.failures(&pass.outcomes));
        if first.is_some() {
            rates.push(pass.scaled_rate());
        }
        first.get_or_insert(pass.outcomes);
    }
    let outcomes = first.expect("at least one pass");

    let mut m = Metrics::default();
    m.put("sessions_per_s", stats::median(&mut rates), "1/s");
    m.put("setup_s", stats::median(&mut setups), "s");
    m.put("peak_rss_mb", perfbench::peak_rss_mib()?, "MiB");
    m.put(
        "pass_rate",
        1.0 - stats::ratio(tally.failed as f64, tally.attempted as f64),
        "ratio",
    );
    let decided = outcomes.iter().filter_map(|o| o.rounds);
    m.put(
        "rounds_mean",
        stats::mean(decided.map(|r| r as f64)),
        "rounds",
    );
    m.put(
        "msgs_mean",
        stats::mean(outcomes.iter().map(|o| o.messages as f64)),
        "msgs",
    );
    m.put(
        "bytes_mean",
        stats::mean(outcomes.iter().map(|o| o.bytes as f64)),
        "bytes",
    );
    Ok((tally, m))
}

/// Per-layer metrics: crypto microbenchmarks, one untraced pass, one
/// traced pass, then untraced passes until `seconds` have passed.
fn per_layer(args: &Args, root: &Path) -> Result<(Tally, Metrics), String> {
    let start = Instant::now();
    let plan = Plan::set_up(args.workload, args.seed, root)?;
    let micro = crypto::run(args.seed);

    let mut tally = Tally::default();
    let mut passes = vec![perfbench::untraced_pass(&plan)];
    tally.count(&plan.failures(&passes[0].outcomes));
    let traced = perfbench::traced_pass(&plan, &passes[0].outcomes);
    tally.count(&traced.mismatched);
    while start.elapsed().as_secs_f64() < args.seconds {
        let pass = perfbench::untraced_pass(&plan);
        tally.count(&plan.failures(&pass.outcomes));
        passes.push(pass);
    }

    let l = &traced.layers;
    let accounted = stats::ratio(l.accounted().as_secs_f64(), l.wall.as_secs_f64());
    if (accounted - 1.0).abs() > ACCOUNTING_TOLERANCE {
        tally.broken.push(format!(
            "the traced layers account for {accounted:.3} of the traced session time"
        ));
    }
    let workers = perfbench::workers(plan.sessions.len());
    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let mut efficiencies: Vec<f64> = passes
        .iter()
        .map(|p| {
            let busy: f64 = p.session_time.iter().map(Duration::as_secs_f64).sum();
            stats::efficiency(busy, workers, p.wall.as_secs_f64())
        })
        .collect();

    let mut m = Metrics::default();
    m.ms("generators.ms", l.generators);
    m.ms("driver.build_ms", l.build);
    m.ms("sim.run_ms", l.run);
    m.ms("sim.step_ms", l.step);
    m.ms("sim.adversary_ms", l.act);
    m.ms("sim.runner_ms", l.runner());
    m.put("sim.rounds_executed", l.rounds_executed as f64, "count");
    m.put("sim.honest_envelopes", l.honest_envelopes as f64, "count");
    m.put("sim.faulty_envelopes", l.faulty_envelopes as f64, "count");
    m.put(
        "sim.faulty_per_honest",
        stats::ratio(l.faulty_envelopes as f64, l.honest_envelopes as f64),
        "ratio",
    );
    m.put(
        "sim.envelopes_per_s",
        stats::ratio(
            (l.honest_envelopes + l.faulty_envelopes) as f64,
            l.run.as_secs_f64(),
        ),
        "1/s",
    );
    for (slot, d) in SLOTS.iter().zip(l.slots) {
        m.ms(&format!("core.{slot}_ms"), d);
    }
    for (name, unit, value) in micro {
        m.put(name, value, unit);
    }
    m.ms("measure.k_a_ms", l.k_a);
    m.put("par.workers", workers as f64, "count");
    m.put("par.efficiency", stats::median(&mut efficiencies), "ratio");
    for family in Pipeline::ALL {
        let mut times: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.session_time.iter().zip(&plan.sessions))
            .filter(|(_, cfg)| cfg.pipeline == family)
            .map(|(d, _)| d.as_secs_f64() * 1e3)
            .collect();
        let value = if times.is_empty() {
            0.0
        } else {
            stats::median(&mut times)
        };
        m.put(format!("session_ms.{}", family.name()), value, "ms");
    }
    m.put(
        "trace.overhead",
        traced.wall.as_secs_f64() / stats::median(&mut walls),
        "ratio",
    );
    m.put("trace.accounted", accounted, "ratio");
    Ok((tally, m))
}

/// Prints the `expected.tsv` rows for an `n = 64` workload.
fn print_expected(workload: Workload) -> Result<(), String> {
    if workload == Workload::Grid {
        return Err("grid is checked against BENCH_baseline.json".into());
    }
    // Two workload seeds, so rows that depend on the seed are refused.
    let mut sessions = perfbench::workload::sessions(workload, 0);
    sessions.extend(perfbench::workload::sessions(workload, 1));
    let outcomes: Vec<_> = ba_workloads::par_map(&sessions, |cfg| cfg.run());
    for row in perfbench::check::expected_rows(workload, &sessions, &outcomes) {
        println!("{row}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let root = repo_root();
    let result = parse_args().and_then(|command| match command {
        Command::PrintExpected(workload) => print_expected(workload).map(|()| None),
        Command::Run(args) if args.trace => per_layer(&args, &root).map(Some),
        Command::Run(args) => end_to_end(&args, &root).map(Some),
    });
    match result {
        Ok(Some((tally, metrics))) => {
            print_result(&tally, &metrics);
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
