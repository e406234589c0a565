//! The [`SearchStrategy`] abstraction.
//!
//! Both synthesis back ends — SAT-backed CEGIS and enumerative
//! branch-and-bound — implement one trait, so the grading pipeline, the
//! service and the experiment harness select a search engine by value
//! instead of hard-coding entry points.

use afg_eml::ChoiceProgram;
use afg_interp::EquivalenceOracle;

use crate::config::{SynthesisConfig, SynthesisOutcome, WarmStart};

/// A synthesis back end: searches the choice space of `program` for a
/// minimal-cost assignment accepted by the equivalence oracle.
pub trait SearchStrategy {
    /// Short stable identifier (`"cegis"`, `"enum"`), reported in
    /// [`crate::SynthesisStats::strategy`].
    fn name(&self) -> &'static str;

    /// Runs the search to completion or until its budget runs out.
    fn synthesize(
        &self,
        program: &ChoiceProgram,
        oracle: &EquivalenceOracle,
        config: &SynthesisConfig,
    ) -> SynthesisOutcome;

    /// Runs the search with an optional transferred [`WarmStart`]
    /// hypothesis from a cluster representative.  The default
    /// implementation ignores the hint — strategies that can exploit it
    /// (CEGIS stops its cost ascent below the verified hypothesis cost)
    /// override this; either way the outcome must stay
    /// cost-identical to the hint-free search.
    fn synthesize_with_hint(
        &self,
        program: &ChoiceProgram,
        oracle: &EquivalenceOracle,
        config: &SynthesisConfig,
        _warm: Option<&WarmStart>,
    ) -> SynthesisOutcome {
        self.synthesize(program, oracle, config)
    }
}
