//! Automated feedback generation for introductory programming assignments —
//! the public API of the reproduction of Singh, Gulwani & Solar-Lezama
//! (PLDI 2013).
//!
//! The instructor supplies three things: a **reference implementation**, the
//! name of the graded function, and an **error model** describing the local
//! corrections students typically need.  [`Autograder`] then grades any
//! number of student submissions, producing for each one either *correct*,
//! *syntax error*, a minimal set of **corrections** rendered as
//! natural-language [`Feedback`], or *cannot fix*.
//!
//! ```
//! use afg_core::{Autograder, GraderConfig, GradeOutcome};
//! use afg_eml::library;
//!
//! let reference = "\
//! def computeDeriv(poly_list_int):
//!     result = []
//!     for i in range(len(poly_list_int)):
//!         result += [i * poly_list_int[i]]
//!     if len(poly_list_int) == 1:
//!         return result
//!     else:
//!         return result[1:]
//! ";
//! let grader = Autograder::new(
//!     reference,
//!     "computeDeriv",
//!     library::compute_deriv_model(),
//!     GraderConfig::fast(),
//! )?;
//!
//! // A student who iterates from 0 instead of 1.
//! let submission = "\
//! def computeDeriv(poly):
//!     if len(poly) == 1:
//!         return [0]
//!     d = []
//!     for i in range(0, len(poly)):
//!         d.append(i * poly[i])
//!     return d
//! ";
//! match grader.grade_source(submission) {
//!     GradeOutcome::Feedback(feedback) => {
//!         assert_eq!(feedback.cost, 1);
//!         println!("{feedback}");
//!     }
//!     other => panic!("expected feedback, got {other:?}"),
//! }
//! # Ok::<(), afg_core::GraderError>(())
//! ```

mod batch;
mod cache;
mod cluster;
mod feedback;
mod grader;
mod json;

pub use batch::{BatchGrader, BatchItem, BatchReport, WorkerStats};
pub use cache::{CacheStats, FingerprintCache, GradeDisposition};
pub use cluster::{ClusterIndex, ClusterStats};
pub use feedback::{corrections_from_assignment, Correction, Feedback, FeedbackLevel};
pub use grader::{
    Autograder, EscalationPolicy, EscalationTier, GradeOutcome, GraderConfig, GraderError,
};

// Re-export the pieces callers need to configure a grader without adding
// direct dependencies on every sub-crate.
pub use afg_eml::{ErrorModel, Rule};
pub use afg_interp::{EquivalenceConfig, ExecLimits, InputSpace, SweepMode};
pub use afg_synth::{Backend, SearchStrategy, SynthesisConfig};
