//! Configuration, results and statistics shared by the synthesis back ends.

use std::time::Duration;

use afg_eml::ChoiceAssignment;

/// Resource budget and search bounds for one synthesis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisConfig {
    /// Upper bound on the number of corrections considered (candidates with
    /// more non-default choices than this are never explored).
    pub max_cost: usize,
    /// Upper bound on the number of candidate programs interpreted.
    pub max_candidates: usize,
    /// Wall-clock budget for one submission (the paper uses a 4-minute
    /// timeout on a 16-core Xeon; our default is much smaller because the
    /// enumerative oracle is cheaper per query).
    pub time_budget: Duration,
}

impl Default for SynthesisConfig {
    fn default() -> SynthesisConfig {
        SynthesisConfig {
            max_cost: 4,
            max_candidates: 50_000,
            time_budget: Duration::from_secs(10),
        }
    }
}

impl SynthesisConfig {
    /// A tight budget for unit tests.
    pub fn fast() -> SynthesisConfig {
        SynthesisConfig {
            max_cost: 3,
            max_candidates: 5_000,
            time_budget: Duration::from_secs(3),
        }
    }
}

/// Counters describing how hard the synthesizer had to work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SynthesisStats {
    /// Candidate programs evaluated against the oracle.
    pub candidates_checked: usize,
    /// CEGIS iterations (synthesis-phase / verification-phase round trips).
    pub cegis_iterations: usize,
    /// Counterexample inputs accumulated.
    pub counterexamples: usize,
    /// SAT conflicts analysed (0 for SAT-free back ends).
    pub sat_conflicts: u64,
    /// SAT unit propagations performed.
    pub sat_propagations: u64,
    /// SAT clauses learnt and retained.
    pub sat_learnts: u64,
    /// SAT restarts performed.
    pub restarts: u64,
    /// Verification sweeps answered by the equivalence session
    /// (`find_counterexample` calls, including the already-correct check).
    pub sweeps: u64,
    /// Candidate executions performed during those sweeps — one per
    /// (assignment, input) pair actually run.
    pub sweep_inputs: u64,
    /// Whether verification ran on the compiled bytecode VM (false under
    /// [`afg_interp::SweepMode::Tree`] or when the candidate space used a
    /// construct the compiler cannot lower).
    pub sweep_compiled: bool,
    /// Checks answered from the verdict cache without executing (a subset
    /// of `sweep_inputs`; 0 on the tree path or with the cache off).
    pub sweep_cache_hits: u64,
    /// Verdict-cache trie nodes held at the end of the search.
    pub sweep_cache_nodes: u64,
    /// Which strategy produced this result (`"cegis"` or `"enum"`).
    pub strategy: &'static str,
    /// Whether the search was stopped by the wall clock (as opposed to
    /// exhausting its candidate budget).  A wall-clock stop
    /// depends on machine load, so such outcomes must never be cached; a
    /// candidate-budget stop replays identically anywhere.
    pub wall_clock_limited: bool,
    /// Whether a transferred [`WarmStart`] hypothesis was actually tried
    /// (the submission was incorrect and the hypothesis fit this choice
    /// program under the cost budget).
    pub warm_start_attempted: bool,
    /// Whether the tried hypothesis verified, letting the minimisation
    /// descent start at its cost instead of the top of the cost scale.
    pub warm_start_verified: bool,
    /// Learnt-clause count sampled at each CEGISMIN bound tightening —
    /// monotone when (and only when) the whole descent runs on one solver.
    pub descent_learnts: Vec<u64>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The share of `elapsed` spent inside SAT `solve` calls (zero for
    /// SAT-free back ends).
    pub sat_elapsed: Duration,
    /// The share of `elapsed` spent in verification sweeps
    /// (`find_counterexample` calls against the equivalence session).
    pub verify_elapsed: Duration,
}

/// A repair found by the synthesizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The minimal-cost choice assignment that makes the submission
    /// equivalent to the reference on the bounded input space.
    pub assignment: ChoiceAssignment,
    /// Number of corrections (`totalCost` in the paper).
    pub cost: usize,
    /// Whether minimality was *proven* (the search space below `cost` was
    /// exhausted) rather than being the best candidate found before the
    /// budget ran out.
    pub minimal: bool,
    /// The oracle input indices accumulated as counterexamples during the
    /// search, in discovery order.  The cluster index stores them with the
    /// repair so a skeleton-mate's warm start can pre-seed its fast
    /// rejection set (the inputs that killed this cohort's candidates kill
    /// the mate's candidates too).
    pub counterexamples: Vec<usize>,
    /// Search statistics.
    pub stats: SynthesisStats,
}

/// A transferred hypothesis offered to a search as a warm start: the
/// verified minimal repair (and counterexample set) of a *cluster
/// representative* — a previously graded submission with the same
/// structural skeleton ([`afg_ast::canon::skeleton_source`]).
///
/// The contract keeps warm-started outcomes **cost-identical** to cold
/// ones: the hypothesis is first re-verified against *this* submission
/// with one bounded sweep (skeleton-mates need not agree on behaviour);
/// only on success does the minimisation descent start at the hypothesis
/// cost, and the descent still runs to Unsat, so the proven minimal cost
/// cannot differ from a cold search.  On failure the hypothesis is just
/// one more blocked candidate and the search proceeds cold.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarmStart {
    /// The representative's verified minimal repair.
    pub assignment: ChoiceAssignment,
    /// The representative's counterexample input indices, used to pre-seed
    /// the fast-rejection ordering (harmless if stale: every index is just
    /// a bounded-space input checked early).
    pub counterexamples: Vec<usize>,
}

/// The overall outcome of grading one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisOutcome {
    /// The submission is already equivalent to the reference.
    AlreadyCorrect,
    /// A minimal set of corrections was found.
    Fixed(Solution),
    /// The error model cannot repair this submission (the search space was
    /// exhausted) — the paper's "cannot be fixed" outcome.
    NoRepairFound(SynthesisStats),
    /// The search hit its time or candidate budget before finishing.
    Timeout(SynthesisStats),
}

impl SynthesisOutcome {
    /// The solution, if the submission was fixed.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            SynthesisOutcome::Fixed(solution) => Some(solution),
            _ => None,
        }
    }

    /// The search statistics, for every outcome that carries them
    /// (everything but [`SynthesisOutcome::AlreadyCorrect`]).
    pub fn stats(&self) -> Option<&SynthesisStats> {
        match self {
            SynthesisOutcome::AlreadyCorrect => None,
            SynthesisOutcome::Fixed(solution) => Some(&solution.stats),
            SynthesisOutcome::NoRepairFound(stats) | SynthesisOutcome::Timeout(stats) => {
                Some(stats)
            }
        }
    }

    /// Whether this outcome settles the search: the submission is correct,
    /// provably unrepairable within the configured bounds, or repaired with
    /// *proven* minimal cost.  Budget-limited outcomes (timeouts,
    /// best-so-far repairs) are not definitive — a larger budget might
    /// still do better.
    pub fn is_definitive(&self) -> bool {
        match self {
            SynthesisOutcome::AlreadyCorrect | SynthesisOutcome::NoRepairFound(_) => true,
            SynthesisOutcome::Fixed(solution) => solution.minimal,
            SynthesisOutcome::Timeout(_) => false,
        }
    }

    /// Whether feedback can be generated from this outcome (the submission
    /// was either already correct or fixable).
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            SynthesisOutcome::AlreadyCorrect | SynthesisOutcome::Fixed(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_reasonable() {
        let config = SynthesisConfig::default();
        assert!(
            config.max_cost >= 3,
            "the paper needs up to 4 coordinated corrections"
        );
        assert!(config.time_budget > Duration::from_secs(1));
        assert!(SynthesisConfig::fast().max_candidates < config.max_candidates);
    }

    #[test]
    fn outcome_accessors() {
        let stats = SynthesisStats::default();
        assert!(SynthesisOutcome::AlreadyCorrect.is_success());
        assert!(!SynthesisOutcome::NoRepairFound(stats.clone()).is_success());
        assert!(SynthesisOutcome::Timeout(stats).solution().is_none());
        let solution = Solution {
            assignment: ChoiceAssignment::default_choices(),
            cost: 0,
            minimal: true,
            counterexamples: Vec::new(),
            stats: SynthesisStats::default(),
        };
        assert_eq!(
            SynthesisOutcome::Fixed(solution.clone()).solution(),
            Some(&solution)
        );
    }

    #[test]
    fn definitive_outcomes_are_the_proven_ones() {
        let stats = SynthesisStats::default();
        assert!(SynthesisOutcome::AlreadyCorrect.is_definitive());
        assert!(SynthesisOutcome::NoRepairFound(stats.clone()).is_definitive());
        assert!(!SynthesisOutcome::Timeout(stats.clone()).is_definitive());
        let mut solution = Solution {
            assignment: ChoiceAssignment::default_choices(),
            cost: 1,
            minimal: true,
            counterexamples: Vec::new(),
            stats: stats.clone(),
        };
        assert!(SynthesisOutcome::Fixed(solution.clone()).is_definitive());
        solution.minimal = false;
        assert!(!SynthesisOutcome::Fixed(solution).is_definitive());
        assert!(SynthesisOutcome::AlreadyCorrect.stats().is_none());
        assert!(SynthesisOutcome::Timeout(stats).stats().is_some());
    }
}
