//! # ba-graded — graded consensus substrates
//!
//! The wrapper algorithm of *Byzantine Agreement with Predictions*
//! (Algorithm 1, §5) relies on graded consensus as a black box, citing
//! \[14\] for an unauthenticated and \[37\] for an authenticated
//! implementation. This crate provides both, built from scratch
//! (substitutions **S2** and **S3** of this reproduction):
//!
//! * [`unauth::UnauthGraded`] — a 2-round quorum protocol for `t < n/3`
//!   with `O(n²)` messages;
//! * [`gradecast`] — a 5-round *certified gradecast* for `t < n/2` with
//!   signatures (the single-sender primitive);
//! * [`auth::AuthGraded`] — authenticated graded consensus for `t < n/2`
//!   obtained by running `n` gradecast instances in parallel with
//!   per-round batching (`O(n²)` physical messages).
//!
//! ## Interface
//!
//! Both protocols return a [`Graded`] output with a three-level grade:
//!
//! * `grade == 2` — *commit* evidence: every honest process is guaranteed
//!   to output the same value with grade ≥ 1;
//! * `grade == 1` — *adoption* evidence: any two honest processes with
//!   grade ≥ 1 hold the same value;
//! * `grade == 0` — no evidence; the value is the process's own input.
//!
//! The paper's two-level interface (§5: Strong Unanimity, Coherence,
//! simultaneous Termination) is recovered by mapping paper-grade 1 :=
//! `grade == 2` and paper-grade 0 := `grade ≤ 1`; see
//! [`Graded::paper_grade`]. The extra level is what the early-stopping
//! phase-king construction in `ba-early` needs.

pub mod auth;
pub mod gradecast;
pub mod unauth;

use ba_sim::Value;

/// Output of a graded consensus protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Graded {
    /// The returned value.
    pub value: Value,
    /// Evidence level in `{0, 1, 2}`; see the crate docs.
    pub grade: u8,
}

impl Graded {
    /// Creates a graded output.
    pub fn new(value: Value, grade: u8) -> Self {
        debug_assert!(grade <= 2);
        Graded { value, grade }
    }

    /// The paper's two-level grade (§5): 1 iff this reproduction's
    /// grade is 2.
    pub fn paper_grade(&self) -> u8 {
        u8::from(self.grade == 2)
    }
}

pub use auth::{AuthGcMsg, AuthGraded};
pub use unauth::{UnauthGcMsg, UnauthGraded};
