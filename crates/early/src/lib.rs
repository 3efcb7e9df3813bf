//! # ba-early — early-stopping agreement substrates and baselines
//!
//! The guess-and-double wrapper of *Byzantine Agreement with Predictions*
//! (Algorithm 1) runs, in each phase, an early-stopping Byzantine
//! agreement with time budget `T = α·2^{φ−1}`: with `f` actual faults
//! below the budget, all honest processes must agree by the deadline.
//! The paper cites Lenzen–Sheikholeslami \[32\] (unauthenticated,
//! Theorem 9) and its authenticated variant (Theorem 10). This crate
//! provides the substitutes (substitutions S4 and S5 of this
//! reproduction):
//!
//! * [`PhaseKing`] — a 5-round-per-phase validator/king/validator
//!   protocol, early-stopping in `f + 2` phases (`t < n/3`). It lives in
//!   `ba-unauth`, where it shares Algorithm 5's phase loop
//!   (`ba_unauth::Phases`); [`PhaseKing`], [`PhaseKingMsg`] and
//!   [`PhaseKingOutput`] are re-exported here so their `ba_early` paths
//!   keep working;
//! * [`EsUnauth`] — the unauthenticated dispatcher: the paper's own
//!   Algorithm 5 under a trivial all-honest classification when its size
//!   condition allows, phase-king otherwise;
//! * [`TruncatedDs`] — `n` parallel universal-committee Dolev–Strong
//!   broadcasts truncated at `k + 1` rounds plus plurality
//!   (`t < n/2`, authenticated).
//!
//! The *prediction-free baselines* of the benchmark suite come from the
//! same code paths: [`PhaseKing::full`] (unauthenticated, `t + 2`
//! phases) and [`TruncatedDs::full`] (authenticated, `t + 1` rounds).

pub mod dispatch;
pub mod truncated_ds;

pub use ba_unauth::{PhaseKing, PhaseKingMsg, PhaseKingOutput};
pub use dispatch::{EsUnauth, EsUnauthMsg};
pub use truncated_ds::TruncatedDs;
