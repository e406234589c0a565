//! CEGIS and CEGISMIN: counterexample-guided search for minimal corrections.
//!
//! The paper extends SKETCH's CEGIS loop with the CEGISMIN algorithm
//! (Algorithm 1): whenever the verifier accepts a candidate, the constraint
//! `totalCost < best` is added and the synthesis/verification loop continues
//! until the constraints become unsatisfiable, at which point the best
//! solution seen so far is returned.
//!
//! The whole minimisation descent is **incremental**: one [`Solver`] and one
//! [`ChoiceEncoding`] serve every iteration.  The cost bound is never baked
//! into the clause database — the encoding's totalizer exposes per-bound
//! output literals and each `totalCost ≤ k` is activated by *assumption*
//! ([`Solver::solve_under_assumptions`]), so tightening the bound after a
//! verified candidate costs nothing and every learnt clause, blocking
//! clause and counterexample survives to the next round.
//!
//! Our verifier is the bounded-exhaustive [`EquivalenceOracle`] rather than
//! SKETCH's symbolic one, so candidate consistency with the accumulated
//! counterexamples is established by (cheap) interpretation and failed
//! candidates are excluded with blocking clauses.
//!
//! The verification hot loop is **zero-materialisation**: candidates are
//! evaluated through the oracle's [`afg_interp::ChoiceSession`], which runs
//! the compiled choice program under the proposed assignment, and inputs are
//! checked **counterexamples first** — the inputs that killed earlier
//! candidates almost always kill the next one too, so the common case
//! rejects a candidate after a handful of runs.  `concretize` is never
//! called while searching (a unit test counts the calls); it remains the
//! cold path for rendering the final repaired program.

use std::time::Instant;

use afg_eml::ChoiceProgram;
use afg_interp::EquivalenceOracle;
use afg_sat::{SatResult, Solver};

use crate::bitset::IndexBitset;
use crate::config::{Solution, SynthesisConfig, SynthesisOutcome, SynthesisStats, WarmStart};
use crate::encode::ChoiceEncoding;
use crate::strategy::SearchStrategy;

/// The SAT-backed CEGIS/CEGISMIN synthesizer.
#[derive(Debug, Clone, Default)]
pub struct CegisSolver;

impl CegisSolver {
    /// Creates a solver.
    pub fn new() -> CegisSolver {
        CegisSolver
    }
}

impl SearchStrategy for CegisSolver {
    fn name(&self) -> &'static str {
        "cegis"
    }

    /// Searches for a minimal-cost choice assignment that makes the
    /// transformed submission equivalent to the reference on the bounded
    /// input space.
    fn synthesize(
        &self,
        program: &ChoiceProgram,
        oracle: &EquivalenceOracle,
        config: &SynthesisConfig,
    ) -> SynthesisOutcome {
        self.synthesize_with_hint(program, oracle, config, None)
    }

    /// As [`CegisSolver::synthesize`], but seeded with a transferred
    /// hypothesis: the verified minimal repair of a *skeleton cluster-mate*
    /// plus its counterexample set.  The hypothesis is verified with one
    /// bounded sweep before it is trusted; on success the CEGISMIN descent
    /// opens at `hypothesis cost - 1` instead of `max_cost` and the
    /// counterexample bitset is pre-seeded, on failure the hypothesis is
    /// just one more blocked candidate — either way the descent still runs
    /// to Unsat, so the outcome is cost-identical to the cold search.
    fn synthesize_with_hint(
        &self,
        program: &ChoiceProgram,
        oracle: &EquivalenceOracle,
        config: &SynthesisConfig,
        warm: Option<&WarmStart>,
    ) -> SynthesisOutcome {
        let start = Instant::now();
        let mut stats = SynthesisStats {
            strategy: self.name(),
            ..SynthesisStats::default()
        };
        let session = oracle.choice_session(program);

        // Step 0: a submission that is already equivalent needs no feedback.
        // Even the original is checked through the choice session (with the
        // all-default assignment) so grading materialises nothing.
        let default_assignment = afg_eml::ChoiceAssignment::default_choices();
        stats.candidates_checked += 1;
        let verify_start = Instant::now();
        let first_cex = session.find_counterexample(&default_assignment, &[]);
        stats.verify_elapsed += verify_start.elapsed();
        let first_cex = match first_cex {
            None => return SynthesisOutcome::AlreadyCorrect,
            Some(cex) => cex,
        };

        // One solver, one encoding — the entire CEGISMIN descent below is
        // incremental on this pair.
        let mut solver = Solver::new();
        let encoding = ChoiceEncoding::new(&mut solver, program);

        // The counterexample set σ of Algorithm 1, seeded with the input that
        // already distinguishes the unmodified submission.  The `Vec` keeps
        // the fast-rejection order; the bitset answers membership in O(1).
        let mut counterexamples: Vec<usize> = vec![first_cex];
        let mut seen_counterexamples = IndexBitset::default();
        seen_counterexamples.insert(first_cex);
        stats.counterexamples = 1;
        // The original program (all-default assignment) is known bad.
        encoding.block_assignment(&mut solver, &default_assignment);

        let mut best: Option<Solution> = None;
        // CEGISMIN line 13 (`minHole < minHoleVal`): the current bound,
        // activated per solve call through totalizer assumptions and
        // tightened to `cost - 1` after every verified candidate.
        let mut bound = config.max_cost;

        // Transferred warm start: pre-seed the counterexample set (stale
        // indices are harmless — each is just a bounded-space input checked
        // early), then spend one bounded sweep on the hypothesis.  Verified
        // ⇒ the descent opens at its cost; refuted ⇒ it becomes an ordinary
        // blocked candidate and the refuting input a counterexample.
        if let Some(warm) = warm {
            let input_count = session.oracle().inputs().len();
            for &cex in &warm.counterexamples {
                if cex < input_count && seen_counterexamples.insert(cex) {
                    counterexamples.push(cex);
                    stats.counterexamples += 1;
                }
            }
            let hypothesis = &warm.assignment;
            let cost = hypothesis.cost();
            if cost > 0 && cost <= config.max_cost && assignment_fits(program, hypothesis) {
                stats.warm_start_attempted = true;
                stats.candidates_checked += 1;
                let verify_start = Instant::now();
                let hypothesis_cex = session.find_counterexample(hypothesis, &counterexamples);
                stats.verify_elapsed += verify_start.elapsed();
                match hypothesis_cex {
                    None => {
                        stats.warm_start_verified = true;
                        best = Some(Solution {
                            assignment: hypothesis.clone(),
                            cost,
                            minimal: false,
                            counterexamples: Vec::new(),
                            stats: SynthesisStats::default(),
                        });
                        bound = cost - 1;
                        stats.descent_learnts.push(solver.stats().learnts);
                    }
                    Some(cex) => {
                        if seen_counterexamples.insert(cex) {
                            counterexamples.push(cex);
                            stats.counterexamples += 1;
                        }
                    }
                }
                // Equivalent or not, the hypothesis itself never needs to be
                // proposed again.
                encoding.block_assignment(&mut solver, hypothesis);
            }
        }

        // Set when the SAT solver proves no cheaper candidate exists.
        let mut proven_minimal = false;

        loop {
            if start.elapsed() > config.time_budget {
                stats.wall_clock_limited = true;
                break;
            }
            if stats.candidates_checked > config.max_candidates {
                break;
            }
            stats.cegis_iterations += 1;

            // Synthesis phase: ask the SAT solver for a candidate assignment
            // consistent with all blocking clauses, under the current cost
            // bound assumption.
            let assumptions = encoding.cost_bound_assumptions(bound);
            let sat_start = Instant::now();
            let proposal = solver.solve_under_assumptions(&assumptions);
            stats.sat_elapsed += sat_start.elapsed();
            let assignment = match proposal {
                SatResult::Unsat => {
                    // No candidate under the bound: whatever we hold is the
                    // proven minimum (or the model can't repair this at all).
                    proven_minimal = true;
                    break;
                }
                SatResult::Sat(model) => encoding.decode(&model),
            };

            stats.candidates_checked += 1;

            // Verification phase: bounded-exhaustive equivalence check of
            // the candidate, accumulated counterexamples first — the
            // fast-rejection path and the full sweep in one ordered pass.
            let verify_start = Instant::now();
            let verdict = session.find_counterexample(&assignment, &counterexamples);
            stats.verify_elapsed += verify_start.elapsed();
            match verdict {
                Some(cex) => {
                    if seen_counterexamples.insert(cex) {
                        counterexamples.push(cex);
                        stats.counterexamples += 1;
                    }
                    encoding.block_assignment(&mut solver, &assignment);
                }
                None => {
                    // Verification succeeded: record the solution and tighten
                    // the cost bound (CEGISMIN line 13: minHole < minHoleVal).
                    let cost = assignment.cost();
                    if best.as_ref().is_none_or(|b| cost < b.cost) {
                        best = Some(Solution {
                            assignment: assignment.clone(),
                            cost,
                            minimal: false,
                            counterexamples: Vec::new(),
                            stats: SynthesisStats::default(),
                        });
                    }
                    if cost == 0 {
                        proven_minimal = true;
                        break;
                    }
                    bound = cost - 1;
                    stats.descent_learnts.push(solver.stats().learnts);
                    encoding.block_assignment(&mut solver, &assignment);
                }
            }
        }

        let sat = solver.stats();
        stats.sat_conflicts = sat.conflicts;
        stats.sat_propagations = sat.propagations;
        stats.sat_learnts = sat.learnts;
        stats.restarts = sat.restarts;
        let sweep = session.sweep_stats();
        stats.sweeps = sweep.sweeps;
        stats.sweep_inputs = sweep.inputs_run;
        stats.sweep_compiled = sweep.compiled;
        stats.sweep_cache_hits = sweep.cache_hits;
        stats.sweep_cache_nodes = sweep.cache_nodes;
        stats.elapsed = start.elapsed();
        // Trace-only accounting: the verification share of this search,
        // attached under the caller's current span. Observes wall-clock
        // already measured above; steers nothing.
        afg_obs::record_span("verify", stats.verify_elapsed);
        afg_obs::record_span("sat", stats.sat_elapsed);
        match best {
            Some(mut solution) => {
                solution.minimal = proven_minimal;
                solution.counterexamples = counterexamples;
                solution.stats = stats;
                SynthesisOutcome::Fixed(solution)
            }
            None if proven_minimal => SynthesisOutcome::NoRepairFound(stats),
            None => SynthesisOutcome::Timeout(stats),
        }
    }
}

/// Whether every non-default selection of `assignment` indexes an existing
/// option of `program` — the structural precondition for trying a
/// transferred hypothesis at all.
fn assignment_fits(program: &ChoiceProgram, assignment: &afg_eml::ChoiceAssignment) -> bool {
    assignment.non_default().all(|(id, option)| {
        program
            .choice_info(id)
            .is_some_and(|info| option < info.options.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_eml::{apply_error_model, library};
    use afg_interp::{EquivalenceConfig, EquivalenceOracle};
    use afg_parser::parse_program;

    const REFERENCE: &str = "\
def computeDeriv(poly_list_int):
    result = []
    for i in range(len(poly_list_int)):
        result += [i * poly_list_int[i]]
    if len(poly_list_int) == 1:
        return result
    else:
        return result[1:]
";

    fn oracle() -> EquivalenceOracle {
        let reference = parse_program(REFERENCE).unwrap();
        EquivalenceOracle::from_reference(
            &reference,
            EquivalenceConfig {
                entry: Some("computeDeriv".into()),
                ..EquivalenceConfig::default()
            },
        )
    }

    #[test]
    fn correct_submission_needs_no_corrections() {
        let student = parse_program(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    out = []\n    for i in range(1, len(poly)):\n        out.append(i * poly[i])\n    return out\n",
        )
        .unwrap();
        let cp = apply_error_model(
            &student,
            Some("computeDeriv"),
            &library::compute_deriv_model(),
        )
        .unwrap();
        let outcome = CegisSolver::new().synthesize(&cp, &oracle(), &SynthesisConfig::fast());
        assert_eq!(outcome, SynthesisOutcome::AlreadyCorrect);
    }

    #[test]
    fn single_correction_bug_is_fixed_with_cost_one() {
        // Iterates from 0 instead of 1: the leading zero coefficient stays in
        // the result for lists of length > 1.
        let student = parse_program(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    out = []\n    for i in range(0, len(poly)):\n        out.append(i * poly[i])\n    return out\n",
        )
        .unwrap();
        let cp = apply_error_model(
            &student,
            Some("computeDeriv"),
            &library::compute_deriv_model(),
        )
        .unwrap();
        let outcome = CegisSolver::new().synthesize(&cp, &oracle(), &SynthesisConfig::fast());
        let solution = outcome.solution().expect("should be fixable");
        assert_eq!(
            solution.cost, 1,
            "minimal repair should be a single correction"
        );
        assert!(solution.minimal, "the descent ran to Unsat");
        assert_eq!(solution.stats.strategy, "cegis");
        // The repaired program really is equivalent.
        let repaired = cp.concretize(&solution.assignment);
        assert!(oracle().is_equivalent(&repaired));
    }

    #[test]
    fn minimisation_descent_runs_on_a_single_encoding() {
        // The incremental-search acceptance criterion: one synthesize call
        // constructs exactly one ChoiceEncoding (hence one solver encoding),
        // and the learnt-clause count sampled at each bound tightening is
        // monotone — impossible if the descent re-encoded per bound, since a
        // fresh solver would reset the counter.
        let student = parse_program(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    out = []\n    for i in range(0, len(poly)):\n        out.append(i * poly[i])\n    return out\n",
        )
        .unwrap();
        let cp = apply_error_model(
            &student,
            Some("computeDeriv"),
            &library::compute_deriv_model(),
        )
        .unwrap();
        let oracle = oracle();
        let config = SynthesisConfig::fast();

        let before = crate::encode::instrument::encodings_created();
        let outcome = CegisSolver::new().synthesize(&cp, &oracle, &config);
        let after = crate::encode::instrument::encodings_created();
        assert_eq!(
            after - before,
            1,
            "CEGISMIN must build exactly one ChoiceEncoding per synthesize call"
        );

        let solution = outcome.solution().expect("fixable");
        assert!(solution.minimal);
        let descent = &solution.stats.descent_learnts;
        assert!(
            descent.windows(2).all(|w| w[0] <= w[1]),
            "learnt-clause counts must be monotone across the descent: {descent:?}"
        );
        assert!(
            solution.stats.sat_learnts >= descent.last().copied().unwrap_or(0),
            "final learnt count cannot drop below the last descent sample"
        );
        assert!(
            solution.stats.sat_propagations > 0,
            "solver work must be reported"
        );
    }

    #[test]
    fn warm_start_replays_a_transferred_repair_and_stays_cost_identical() {
        let student = parse_program(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    out = []\n    for i in range(0, len(poly)):\n        out.append(i * poly[i])\n    return out\n",
        )
        .unwrap();
        let cp = apply_error_model(
            &student,
            Some("computeDeriv"),
            &library::compute_deriv_model(),
        )
        .unwrap();
        let oracle = oracle();
        let config = SynthesisConfig::fast();

        // Cold baseline: the donor run whose repair and counterexamples a
        // cluster-mate would inherit.
        let cold = CegisSolver::new().synthesize(&cp, &oracle, &config);
        let donor = cold.solution().expect("fixable").clone();
        assert!(!donor.counterexamples.is_empty());
        assert!(!donor.stats.warm_start_attempted);

        // Warm run seeded with the donor's own repair: one hypothesis
        // verification, then straight to the Unsat proof below its cost.
        let warm = WarmStart {
            assignment: donor.assignment.clone(),
            counterexamples: donor.counterexamples.clone(),
        };
        let warm_outcome =
            CegisSolver::new().synthesize_with_hint(&cp, &oracle, &config, Some(&warm));
        let warm_solution = warm_outcome.solution().expect("fixable");
        assert_eq!(warm_solution.cost, donor.cost, "cost-identical to cold");
        assert!(warm_solution.minimal, "the descent still proves minimality");
        assert!(warm_solution.stats.warm_start_attempted);
        assert!(warm_solution.stats.warm_start_verified);
        assert!(
            warm_solution.stats.candidates_checked < donor.stats.candidates_checked,
            "warm {} vs cold {} candidates",
            warm_solution.stats.candidates_checked,
            donor.stats.candidates_checked
        );
        assert!(
            warm_solution.stats.sat_conflicts <= donor.stats.sat_conflicts,
            "warm {} vs cold {} conflicts",
            warm_solution.stats.sat_conflicts,
            donor.stats.sat_conflicts
        );

        // A refuted hypothesis (a non-repair) must fall back to the cold
        // path with the same verdict and cost.
        let bogus = WarmStart {
            assignment: afg_eml::ChoiceAssignment::default_choices(),
            counterexamples: vec![0],
        };
        let refuted = CegisSolver::new().synthesize_with_hint(&cp, &oracle, &config, Some(&bogus));
        // Cost-0 hypotheses are rejected up front (the default assignment
        // is already known bad), so this counts as no attempt.
        let refuted_solution = refuted.solution().expect("fixable");
        assert_eq!(refuted_solution.cost, donor.cost);
        assert!(refuted_solution.minimal);
        assert!(!refuted_solution.stats.warm_start_attempted);

        // An out-of-range hypothesis (unknown choice site) is ignored, not
        // trusted.
        let misfit = WarmStart {
            assignment: afg_eml::ChoiceAssignment::from_pairs([(afg_eml::ChoiceId(9_999), 1)]),
            counterexamples: vec![99_999],
        };
        let ignored = CegisSolver::new().synthesize_with_hint(&cp, &oracle, &config, Some(&misfit));
        let ignored_solution = ignored.solution().expect("fixable");
        assert_eq!(ignored_solution.cost, donor.cost);
        assert!(!ignored_solution.stats.warm_start_attempted);
    }

    #[test]
    fn synthesis_materialises_zero_candidate_programs() {
        // The acceptance criterion of the zero-materialisation refactor: a
        // full CEGISMIN search — original check, counterexample filtering,
        // bounded-exhaustive verification, minimisation — performs no
        // `concretize` call at all.  (The counter is thread-local, so other
        // tests running concurrently cannot disturb it.)
        let student = parse_program(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    out = []\n    for i in range(0, len(poly)):\n        out.append(i * poly[i])\n    return out\n",
        )
        .unwrap();
        let cp = apply_error_model(
            &student,
            Some("computeDeriv"),
            &library::compute_deriv_model(),
        )
        .unwrap();
        let oracle = oracle();
        let config = SynthesisConfig::fast();

        let before = afg_eml::instrument::concretize_calls();
        let outcome = CegisSolver::new().synthesize(&cp, &oracle, &config);
        let after = afg_eml::instrument::concretize_calls();
        assert!(outcome.solution().is_some(), "the submission is fixable");
        assert_eq!(
            after - before,
            0,
            "CEGIS checked {} candidates but must concretize none of them",
            outcome.solution().unwrap().stats.candidates_checked
        );

        // The enumerative back end honours the same contract.
        let before = afg_eml::instrument::concretize_calls();
        let outcome = crate::enumerate::EnumerativeSolver::new().synthesize(&cp, &oracle, &config);
        let after = afg_eml::instrument::concretize_calls();
        assert!(outcome.solution().is_some());
        assert_eq!(
            after - before,
            0,
            "enumeration must not concretize candidates"
        );
    }

    #[test]
    fn unfixable_submission_reports_no_repair() {
        // Returns a constant — no local correction in the model can fix it.
        let student = parse_program("def computeDeriv(poly):\n    return 42\n").unwrap();
        let model = library::section_2_1_model();
        let cp = apply_error_model(&student, Some("computeDeriv"), &model).unwrap();
        let outcome = CegisSolver::new().synthesize(&cp, &oracle(), &SynthesisConfig::fast());
        assert!(matches!(
            outcome,
            SynthesisOutcome::NoRepairFound(_) | SynthesisOutcome::Timeout(_)
        ));
    }
}
