//! CEGIS and CEGISMIN: counterexample-guided search for minimal corrections.
//!
//! The paper extends SKETCH's CEGIS loop with the CEGISMIN algorithm
//! (Algorithm 1): the search looks for a candidate under a bound on
//! `totalCost` until the constraints become unsatisfiable.  Here the bound
//! *ascends*: `totalCost ≤ 1`, then 2, up to `max_cost`, raised after each
//! Unsat.  The first candidate that verifies is therefore minimal by
//! construction, and Unsat at `max_cost` proves the submission
//! unrepairable.
//!
//! The whole ascent is **incremental**: one [`Solver`] and one
//! [`ChoiceEncoding`] serve every bound.  The cost bound is never baked
//! into the clause database — the encoding's totalizer exposes per-bound
//! output literals and each `totalCost ≤ k` is activated by *assumption*,
//! so raising the bound costs nothing: every blocking clause and
//! counterexample survives to the next round, and so do the learnt clauses
//! (up to the solver's bound on them; each stays valid).
//!
//! Within a bound, CEGIS runs **inside one CDCL search** (DPLL(T)): the
//! verifier is the theory of [`Solver::solve_with`].  Each time the solver
//! completes an assignment of the selectors, the verifier checks that
//! candidate; a refuted candidate is answered with its blocking clause,
//! which is false under the current assignment, so the solver backjumps
//! and keeps searching instead of starting over from level 0.  One search
//! per bound either returns a verified candidate, proves the bound Unsat,
//! or is stopped by the wall clock or the candidate budget.
//!
//! Our verifier is the bounded-exhaustive [`EquivalenceOracle`] rather than
//! SKETCH's symbolic one, so a counterexample cannot constrain candidates
//! symbolically.  Its concrete analogue is the **consultation core**: a
//! refuting run is a deterministic function of its input and the choice
//! sites it consulted, so every candidate that takes the same options at
//! those sites fails the same input.  One blocking clause over just those
//! sites ([`ChoiceEncoding::core_clause`]) rules all of them out at once.
//!
//! The verification hot loop is **zero-materialisation**: candidates are
//! evaluated through the oracle's [`afg_interp::ChoiceSession`], which runs
//! the compiled choice program under the proposed assignment, and inputs are
//! checked **counterexamples first** — the inputs that killed earlier
//! candidates almost always kill the next one too, so the common case
//! rejects a candidate after a handful of runs.  `concretize` is never
//! called while searching (a unit test counts the calls); it remains the
//! cold path for rendering the final repaired program.

use std::time::{Duration, Instant};

use afg_eml::ChoiceProgram;
use afg_interp::{EquivalenceOracle, Refutation};
use afg_sat::{Lit, SatResult, Solver, TheoryAnswer};

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
    /// plus its counterexample set, which pre-seeds the fast-rejection
    /// order.  The hypothesis is verified with one bounded sweep before it
    /// is trusted; on success the cost ascent stops at `hypothesis cost - 1`
    /// instead of `max_cost`, and Unsat there proves the hypothesis
    /// minimal.  On failure it is one more refuted candidate.  Either way
    /// the outcome is cost-identical to the cold search.
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
        let first = session.refute(&default_assignment, &[]);
        stats.verify_elapsed += verify_start.elapsed();
        let Some(first) = first else {
            return SynthesisOutcome::AlreadyCorrect;
        };

        // One solver, one encoding — the entire CEGISMIN ascent below is
        // incremental on this pair.
        let mut solver = Solver::new();
        let encoding = ChoiceEncoding::new(&mut solver, program);
        let mut refuted = Refuted::default();
        // The original program (all-default assignment) is known bad.
        let clause = refuted.record(&encoding, &mut stats, &default_assignment, first);
        solver.add_clause(&clause);

        // The highest bound worth trying: a verified warm hypothesis of
        // cost c caps the ascent at c - 1.
        let mut cap = config.max_cost;
        let mut best: Option<Solution> = None;

        // Transferred warm start: pre-seed the counterexample set (stale
        // indices are harmless — each is just a bounded-space input checked
        // early), then spend one bounded sweep on the hypothesis.  Verified
        // ⇒ only cheaper bounds remain to be refuted; refuted ⇒ its core is
        // blocked like any other candidate's.
        if let Some(warm) = warm {
            let input_count = session.oracle().inputs().len();
            for &cex in &warm.counterexamples {
                if cex < input_count {
                    refuted.note_input(&mut stats, cex);
                }
            }
            let hypothesis = &warm.assignment;
            let cost = hypothesis.cost();
            if cost > 0 && cost <= config.max_cost && assignment_fits(program, hypothesis) {
                stats.warm_start_attempted = true;
                stats.candidates_checked += 1;
                let verify_start = Instant::now();
                let verdict = session.refute(hypothesis, &refuted.inputs);
                stats.verify_elapsed += verify_start.elapsed();
                match verdict {
                    None => {
                        stats.warm_start_verified = true;
                        best = Some(Solution {
                            assignment: hypothesis.clone(),
                            cost,
                            minimal: false,
                            counterexamples: Vec::new(),
                            stats: SynthesisStats::default(),
                        });
                        cap = cost - 1;
                    }
                    Some(refutation) => {
                        let clause = refuted.record(&encoding, &mut stats, hypothesis, refutation);
                        solver.add_clause(&clause);
                    }
                }
            }
        }

        // CEGISMIN as a cost ascent: `totalCost ≤ bound` is activated per
        // search through totalizer assumptions and raised after each
        // Unsat.  Bound 0 admits only the original program, refuted above.
        // Blocking clauses only ever exclude failing candidates, so the
        // first candidate that verifies is minimal by construction, and
        // Unsat at `cap` proves nothing cheaper (or nothing at all) exists.
        let mut bound = 1;
        let mut proven = cap < bound;

        while !proven {
            if out_of_budget(start, config, &mut stats) {
                break;
            }

            // One search per bound, with verification as its theory: every
            // candidate the solver completes is checked here, and a refuted
            // one is answered with its blocking clause — unless a budget ran
            // out, which stops the search before the next candidate.
            let assumptions = encoding.cost_bound_assumptions(bound);
            let mut theory_elapsed = Duration::ZERO;
            let sat_start = Instant::now();
            let answer = solver.solve_with(&assumptions, |model| {
                let theory_start = Instant::now();
                stats.cegis_iterations += 1;
                let assignment = encoding.decode(model);
                stats.candidates_checked += 1;

                // Verification phase: bounded-exhaustive equivalence check
                // of the candidate, accumulated counterexamples first — the
                // fast-rejection path and the full sweep in one ordered pass.
                let verify_start = Instant::now();
                let verdict = session.refute(&assignment, &refuted.inputs);
                stats.verify_elapsed += verify_start.elapsed();
                let answer = match verdict {
                    None => {
                        best = Some(Solution {
                            cost: assignment.cost(),
                            assignment,
                            minimal: false,
                            counterexamples: Vec::new(),
                            stats: SynthesisStats::default(),
                        });
                        TheoryAnswer::Accept
                    }
                    Some(refutation) => {
                        let clause = refuted.record(&encoding, &mut stats, &assignment, refutation);
                        if out_of_budget(start, config, &mut stats) {
                            TheoryAnswer::Stop
                        } else {
                            TheoryAnswer::Block(clause)
                        }
                    }
                };
                theory_elapsed += theory_start.elapsed();
                answer
            });
            // SAT time excludes the verification done inside the search.
            stats.sat_elapsed += sat_start.elapsed().saturating_sub(theory_elapsed);
            match answer {
                // Stopped by a budget: the search holds no answer.
                None => break,
                Some(SatResult::Sat(_)) => proven = true,
                Some(SatResult::Unsat) => {
                    stats.cegis_iterations += 1;
                    if bound >= cap {
                        proven = true;
                    } else {
                        bound += 1;
                        stats.descent_learnts.push(solver.stats().learnts);
                    }
                }
            }
        }

        let sat = solver.stats();
        stats.sat_conflicts = sat.conflicts;
        stats.sat_propagations = sat.propagations;
        stats.sat_learnts = sat.learnts;
        stats.sat_decisions = u32::try_from(sat.decisions).unwrap_or(u32::MAX);
        stats.restarts = u32::try_from(sat.restarts).unwrap_or(u32::MAX);
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
        // A cut search holds no answer, except a verified warm hypothesis
        // that was not yet proven minimal.
        match best {
            Some(mut solution) => {
                solution.minimal = proven;
                solution.counterexamples = refuted.inputs;
                solution.stats = stats;
                SynthesisOutcome::Fixed(solution)
            }
            None if proven => SynthesisOutcome::NoRepairFound(stats),
            None => SynthesisOutcome::Timeout(stats),
        }
    }
}

/// The counterexample set σ of Algorithm 1 plus the blocking of refuted
/// candidates.
#[derive(Default)]
struct Refuted {
    /// Refuting inputs in discovery order — the fast-rejection order of
    /// every later sweep.
    inputs: Vec<usize>,
    /// Membership of `inputs`, in O(1).
    seen: IndexBitset,
}

impl Refuted {
    fn note_input(&mut self, stats: &mut SynthesisStats, input: usize) {
        if self.seen.insert(input) {
            self.inputs.push(input);
            stats.counterexamples += 1;
        }
    }

    /// Notes the refuting input and returns the clause blocking every
    /// candidate that replays the refuting run (just `assignment` when
    /// there is no core).
    fn record(
        &mut self,
        encoding: &ChoiceEncoding,
        stats: &mut SynthesisStats,
        assignment: &afg_eml::ChoiceAssignment,
        refutation: Refutation,
    ) -> Vec<Lit> {
        self.note_input(stats, refutation.input);
        match refutation.core {
            Some(core) => {
                let clause = encoding.core_clause(assignment, &core);
                stats.core_clauses = stats.core_clauses.saturating_add(1);
                stats.core_literals = stats
                    .core_literals
                    .saturating_add(u32::try_from(clause.len()).unwrap_or(u32::MAX));
                clause
            }
            None => encoding.assignment_clause(assignment),
        }
    }
}

/// Whether the search must stop before its next candidate: the wall clock
/// ran out (noted in `stats`), or the candidate budget did.
fn out_of_budget(start: Instant, config: &SynthesisConfig, stats: &mut SynthesisStats) -> bool {
    if start.elapsed() > config.time_budget {
        stats.wall_clock_limited = true;
        return true;
    }
    stats.candidates_checked > config.max_candidates
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
        assert!(solution.minimal, "the ascent proved Unsat below cost 1");
        assert_eq!(solution.stats.strategy, "cegis");
        // The repaired program really is equivalent.
        let repaired = cp.concretize(&solution.assignment);
        assert!(oracle().is_equivalent(&repaired));
    }

    #[test]
    fn minimisation_descent_runs_on_a_single_encoding() {
        // The incremental-search acceptance criterion: one synthesize call
        // constructs exactly one ChoiceEncoding (hence one solver encoding),
        // and the learnt-clause count sampled at each bound raise is
        // monotone — impossible if the ascent re-encoded per bound, since a
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
            "learnt-clause counts must be monotone across the ascent: {descent:?}"
        );
        assert!(
            solution.stats.sat_learnts >= descent.last().copied().unwrap_or(0),
            "final learnt count cannot drop below the last ascent sample"
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
        // verification, then only the bounds below its cost to refute.
        let warm = WarmStart {
            assignment: donor.assignment.clone(),
            counterexamples: donor.counterexamples.clone(),
        };
        let warm_outcome =
            CegisSolver::new().synthesize_with_hint(&cp, &oracle, &config, Some(&warm));
        let warm_solution = warm_outcome.solution().expect("fixable");
        assert_eq!(warm_solution.cost, donor.cost, "cost-identical to cold");
        assert!(warm_solution.minimal, "the ascent still proves minimality");
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

    fn off_by_one_program() -> ChoiceProgram {
        let student = parse_program(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    out = []\n    for i in range(0, len(poly)):\n        out.append(i * poly[i])\n    return out\n",
        )
        .unwrap();
        apply_error_model(
            &student,
            Some("computeDeriv"),
            &library::compute_deriv_model(),
        )
        .unwrap()
    }

    #[test]
    fn refutations_block_through_narrow_consultation_cores() {
        let cp = off_by_one_program();
        let outcome = CegisSolver::new().synthesize(&cp, &oracle(), &SynthesisConfig::fast());
        let stats = &outcome.solution().expect("fixable").stats;
        // Every refutation (the original program included) ran on the VM,
        // so each was blocked through its core...
        assert!(stats.sweep_compiled);
        assert_eq!(stats.core_clauses as usize, stats.candidates_checked - 1);
        // ...and a core names only the sites its run consulted: fewer
        // literals than whole-assignment blocking, which spends one per
        // site that has an alternative option.
        let narrowest = cp.choices.iter().filter(|i| i.options.len() > 1).count();
        let whole = stats.core_clauses as usize * narrowest;
        assert!(
            (stats.core_literals as usize) < whole,
            "{} core literals vs {whole} for whole assignments",
            stats.core_literals
        );
    }

    #[test]
    fn wall_clock_cuts_time_out_unless_a_warm_hypothesis_verified() {
        let cp = off_by_one_program();
        let oracle = oracle();
        let cut = SynthesisConfig {
            time_budget: std::time::Duration::ZERO,
            ..SynthesisConfig::fast()
        };
        let outcome = CegisSolver::new().synthesize(&cp, &oracle, &cut);
        match &outcome {
            SynthesisOutcome::Timeout(stats) => assert!(stats.wall_clock_limited),
            other => panic!("a cut cold search holds no answer: {other:?}"),
        }

        // A verified cost-2 hypothesis survives the cut as an unproven
        // repair: the minimal repair plus one correction that changes
        // nothing observable.
        let config = SynthesisConfig::fast();
        let minimal = CegisSolver::new()
            .synthesize(&cp, &oracle, &config)
            .solution()
            .expect("fixable")
            .assignment
            .clone();
        let session = oracle.choice_session(&cp);
        let hypothesis = cp
            .choices
            .iter()
            .filter(|info| minimal.selected(info.id) == 0)
            .map(|info| {
                let mut padded = minimal.clone();
                padded.select(info.id, 1);
                padded
            })
            .find(|padded| session.is_equivalent(padded))
            .expect("some correction is behaviourally inert");
        let warm = WarmStart {
            assignment: hypothesis.clone(),
            counterexamples: Vec::new(),
        };
        let outcome = CegisSolver::new().synthesize_with_hint(&cp, &oracle, &cut, Some(&warm));
        let solution = outcome.solution().expect("the verified hypothesis");
        assert_eq!(solution.assignment, hypothesis);
        assert!(!solution.minimal);
        assert!(solution.stats.wall_clock_limited);

        // Uncut, the ascent below the hypothesis finds the cheaper repair.
        let outcome = CegisSolver::new().synthesize_with_hint(&cp, &oracle, &config, Some(&warm));
        let solution = outcome.solution().expect("fixable");
        assert_eq!(solution.cost, 1);
        assert!(solution.minimal);
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
