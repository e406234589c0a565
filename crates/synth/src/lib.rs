//! Constraint-based synthesis of minimal corrections (paper §4).
//!
//! Given the M̃PY choice program produced by the error-model transformation
//! and an equivalence oracle over the reference implementation, this crate
//! searches for the *cheapest* selection of corrections that makes the
//! student submission behaviourally equivalent to the reference on all
//! inputs of a bounded size.
//!
//! Every back end implements the [`SearchStrategy`] trait:
//!
//! * [`CegisSolver`] — the paper's approach: choice selectors are encoded as
//!   boolean variables in a SAT solver (`afg-sat`), candidates are proposed
//!   by the solver, checked against accumulated counterexamples, verified by
//!   bounded-exhaustive interpretation, and the CEGISMIN refinement
//!   `totalCost < best` drives the search to a minimum (Algorithm 1).  The
//!   whole minimisation descent is incremental: one solver, one encoding,
//!   cost bounds activated per call as totalizer assumptions.
//! * [`EnumerativeSolver`] — a branch-and-bound baseline that explores
//!   candidates in order of increasing cost, used for ablation benchmarks
//!   and as an independent correctness check.
//!
//! # Example
//!
//! ```
//! use afg_eml::{apply_error_model, library};
//! use afg_interp::{EquivalenceConfig, EquivalenceOracle};
//! use afg_synth::{CegisSolver, SearchStrategy, SynthesisConfig};
//!
//! let reference = afg_parser::parse_program(
//!     "def double(x_int):\n    return x_int * 2\n",
//! )?;
//! let student = afg_parser::parse_program(
//!     "def double(x):\n    return x * 3\n",
//! )?;
//! // A one-rule model: integer constants may be off by one.
//! let model = afg_eml::ErrorModel::new("demo").with_rule(library::const_tweak());
//! let choices = apply_error_model(&student, Some("double"), &model)?;
//! let oracle = EquivalenceOracle::from_reference(
//!     &reference,
//!     EquivalenceConfig { entry: Some("double".into()), ..EquivalenceConfig::default() },
//! );
//! let outcome = CegisSolver::new().synthesize(&choices, &oracle, &SynthesisConfig::fast());
//! assert_eq!(outcome.solution().map(|s| s.cost), Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bitset;
mod cegis;
mod config;
mod encode;
mod enumerate;
mod strategy;

pub use cegis::CegisSolver;
pub use config::{Solution, SynthesisConfig, SynthesisOutcome, SynthesisStats, WarmStart};
pub use encode::{instrument, ChoiceEncoding};
pub use enumerate::EnumerativeSolver;
pub use strategy::SearchStrategy;

/// Which synthesis back end to use — the value-level selector over the
/// [`SearchStrategy`] implementations, as carried in configuration, CLI
/// flags (`--backend`) and service registrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// SAT-backed CEGIS with CEGISMIN minimisation (the paper's approach).
    #[default]
    Cegis,
    /// Cost-ordered enumerative branch-and-bound (ablation baseline and
    /// differential oracle).
    Enumerative,
}

impl Backend {
    /// Every backend, in presentation order.
    pub const ALL: [Backend; 2] = [Backend::Cegis, Backend::Enumerative];

    /// The stable identifier used on CLI flags and in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cegis => "cegis",
            Backend::Enumerative => "enum",
        }
    }

    /// Parses a backend identifier (`"cegis"`, `"enum"`/`"enumerative"`);
    /// `None` for anything else.
    pub fn parse(text: &str) -> Option<Backend> {
        match text {
            "cegis" => Some(Backend::Cegis),
            "enum" | "enumerative" => Some(Backend::Enumerative),
            _ => None,
        }
    }

    /// Builds the strategy object this selector denotes.
    pub fn strategy(self) -> Box<dyn SearchStrategy> {
        match self {
            Backend::Cegis => Box::new(CegisSolver::new()),
            Backend::Enumerative => Box::new(EnumerativeSolver::new()),
        }
    }

    /// Runs the selected back end to completion.
    pub fn synthesize(
        self,
        program: &afg_eml::ChoiceProgram,
        oracle: &afg_interp::EquivalenceOracle,
        config: &SynthesisConfig,
    ) -> SynthesisOutcome {
        self.strategy().synthesize(program, oracle, config)
    }

    /// Runs the selected back end to completion with an optional
    /// transferred [`WarmStart`] hypothesis (see
    /// [`SearchStrategy::synthesize_with_hint`]).
    pub fn synthesize_with_hint(
        self,
        program: &afg_eml::ChoiceProgram,
        oracle: &afg_interp::EquivalenceOracle,
        config: &SynthesisConfig,
        warm: Option<&WarmStart>,
    ) -> SynthesisOutcome {
        self.strategy()
            .synthesize_with_hint(program, oracle, config, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_default_is_cegis() {
        assert_eq!(Backend::default(), Backend::Cegis);
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(Backend::parse(backend.name()), Some(backend));
            assert_eq!(backend.strategy().name(), backend.name());
        }
        assert_eq!(Backend::parse("enumerative"), Some(Backend::Enumerative));
        assert_eq!(Backend::parse("sketch"), None);
        assert_eq!(Backend::parse("portfolio"), None);
    }
}
