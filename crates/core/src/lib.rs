//! # ba-core — Byzantine Agreement with Predictions
//!
//! The primary contribution of *Byzantine Agreement with Predictions*
//! (Ben-David, Dzulfikar, Ellen, Gilbert — PODC 2025): synchronous
//! Byzantine agreement whose round complexity degrades gracefully with
//! the quality of an untrusted *classification prediction* — `n` bits per
//! process guessing who is faulty, with at most `B` incorrect bits in
//! total across honest processes.
//!
//! * `O(min{B/n + 1, f})` rounds when predictions are useful;
//! * never worse than a prediction-free early-stopping protocol;
//! * `Ω(n²)` messages regardless (predictions provably cannot help
//!   message complexity — Theorem 14).
//!
//! ## Modules
//!
//! | module | paper artifact |
//! |---|---|
//! | [`bitvec`], [`prediction`] | prediction strings and the error budget `B` (§3) |
//! | [`classify`] | Algorithm 2 — majority-vote classification (§6) |
//! | [`ordering`] | the priority order `π(c)` and Lemmas 2–6 (§6) |
//! | [`schedule`] | the guess-and-double phase layout (§5) |
//! | [`wrapper`] | Algorithm 1, one state machine over the §7 sub-protocols ([`UnauthWrapper`], Theorem 11, `t < n/3`) or the §8 ones ([`AuthWrapper`], Theorem 12, `t < n/2`) |
//!
//! ## Quickstart
//!
//! ```
//! use ba_core::{PredictionMatrix, UnauthWrapper};
//! use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
//! use std::collections::BTreeSet;
//!
//! // 8 processes, one (silent) fault, perfect predictions.
//! let n = 8;
//! let t = 2;
//! let faulty: BTreeSet<ProcessId> = [ProcessId(7)].into_iter().collect();
//! let predictions = PredictionMatrix::perfect(n, &faulty);
//!
//! let honest: std::collections::BTreeMap<_, _> = ProcessId::all(n)
//!     .filter(|id| !faulty.contains(id))
//!     .map(|id| {
//!         let w = UnauthWrapper::new(id, n, t, Value(42), predictions.row(id).clone());
//!         (id, w)
//!     })
//!     .collect();
//! let mut runner = Runner::with_ids(n, honest, SilentAdversary);
//! let report = runner.run(500);
//! assert!(report.agreement());
//! assert_eq!(report.decision(), Some(&Value(42)));
//! ```

pub mod bitvec;
pub mod classify;
pub mod ordering;
pub mod prediction;
pub mod schedule;
pub mod wrapper;

pub use bitvec::BitVec;
pub use classify::{Classify, ClassifyMsg, MisclassificationReport};
pub use ordering::{core_of_window, misclassified_by, pi_order, position_in, truth_vector};
pub use prediction::PredictionMatrix;
pub use schedule::{phase_budget, phase_count, Schedule, Slot, SlotKind};
pub use wrapper::{
    AuthWrapper, AuthWrapperMsg, SubProtocols, UnauthWrapper, UnauthWrapperMsg, WrapperMsg,
};
