//! # ba-sim — deterministic synchronous simulator
//!
//! This crate is the network substrate for the *Byzantine Agreement with
//! Predictions* reproduction. It models the paper's system (§3): `n`
//! processes connected by a synchronous network, executing in lockstep
//! rounds; up to `t` processes are Byzantine and controlled by a single
//! *rushing* adversary that, in every round, observes the messages sent by
//! honest processes before choosing its own.
//!
//! Design goals, in priority order:
//!
//! 1. **Determinism.** A run is a pure function of `(processes, adversary,
//!    seed)`. All randomness flows through seeded `rand` generators. This
//!    is what makes property-based protocol testing trustworthy.
//! 2. **Faithful accounting.** The paper's complexity measures are *rounds
//!    until the last honest process decides* and *messages sent by honest
//!    processes*. [`Runner`] tracks both exactly (a broadcast counts as one
//!    message per distinct remote recipient, matching the paper's
//!    "broadcasting twice costs `2n` messages" convention).
//! 3. **Composability.** Protocols implement [`Process`]; higher-level
//!    protocols embed lower-level ones as plain struct fields and translate
//!    message types explicitly (one call, [`step_sub`]), which keeps
//!    Byzantine cross-instance replay visible in the type system.
//!
//! ## Round semantics
//!
//! `step(r, inbox, out)` is called once per round `r = 0, 1, 2, …`:
//! `inbox` contains every message sent *to* this process during round
//! `r − 1` (empty at `r = 0`), and messages pushed into `out` are delivered
//! at step `r + 1`. A "`d`-round protocol" in the paper's counting sends
//! messages during steps `0 … d−1` and produces its output at step `d`.
//!
//! ## Example
//!
//! ```
//! use ba_sim::{Envelope, Outbox, Process, ProcessId, Runner, SilentAdversary, Value};
//!
//! /// Every process broadcasts its value once, then outputs the smallest
//! /// value heard (including its own).
//! struct MinEcho { me: ProcessId, n: usize, mine: Value, out: Option<Value> }
//!
//! impl Process for MinEcho {
//!     type Msg = Value;
//!     type Output = Value;
//!     fn step(&mut self, round: u64, inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
//!         match round {
//!             0 => out.broadcast(self.mine),
//!             _ => {
//!                 let min = inbox.iter().map(|e| *e.payload).min();
//!                 self.out = Some(min.map_or(self.mine, |m| m.min(self.mine)));
//!             }
//!         }
//!     }
//!     fn output(&self) -> Option<Value> { self.out }
//!     fn halted(&self) -> bool { self.out.is_some() }
//! }
//!
//! let n = 4;
//! let procs: Vec<MinEcho> = (0..n)
//!     .map(|i| MinEcho { me: ProcessId(i as u32), n, mine: Value(i as u64 + 10), out: None })
//!     .collect();
//! let mut runner = Runner::new(n, procs, SilentAdversary::default());
//! let report = runner.run(16);
//! assert!(report.all_decided());
//! assert_eq!(report.outputs[&ProcessId(0)], Value(10));
//! ```

mod adversary;
mod compose;
mod envelope;
pub mod erased;
mod id;
mod multiset;
mod process;
mod runner;
mod wire;

pub use adversary::{
    Adversary, AdversaryCtx, CrashAdversary, FnAdversary, ReplayAdversary, SilentAdversary,
};
pub use compose::step_sub;
pub use envelope::{Envelope, Outbox};
pub use erased::{erase, ErasedSession, MapOutput};
pub use id::{ProcessId, Value};
pub use multiset::{distinct_values_by_sender, plurality_smallest, Tally};
pub use process::Process;
pub use runner::{RoundTrace, RunReport, Runner};
pub use wire::WireSize;
