//! Differential test of the synthesis back ends (CEGIS vs enumeration).
//!
//! For every corpus problem and a seeded mutant sweep over its correct
//! variants, both back ends must agree on the verdict: already
//! correct, repairable at the *same* minimal cost, or not repairable
//! within the bounds.  The search budget is candidate-bounded and the cost
//! bound is 1 (single injected mistake), so every back end runs its search
//! space to exhaustion and the comparison is deterministic — a divergence
//! is a real bug in one of the engines, not budget noise.

use std::time::Duration;

use afg_corpus::problems;
use afg_corpus::rng::StdRng;
use afg_eml::apply_error_model;
use afg_synth::{Backend, SynthesisConfig, SynthesisOutcome};

fn config() -> SynthesisConfig {
    SynthesisConfig {
        max_cost: 1,
        max_candidates: 200_000,
        time_budget: Duration::from_secs(600),
    }
}

/// Collapses an outcome into the comparable verdict.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Correct,
    Fixed(usize),
    NoRepair,
}

fn verdict(outcome: &SynthesisOutcome, context: &str) -> Verdict {
    match outcome {
        SynthesisOutcome::AlreadyCorrect => Verdict::Correct,
        SynthesisOutcome::Fixed(solution) => {
            assert!(
                solution.minimal,
                "{context}: exhaustive budgets must prove minimality"
            );
            Verdict::Fixed(solution.cost)
        }
        SynthesisOutcome::NoRepairFound(_) => Verdict::NoRepair,
        SynthesisOutcome::Timeout(_) => {
            panic!("{context}: candidate-bounded search must not time out")
        }
    }
}

/// The repair-transfer acceptance criterion, as a differential property:
/// for seeded classroom cohorts over several problems, warm-started
/// grading (fingerprint cache + skeleton-cluster repair transfer) must
/// produce outcome- and cost-identical verdicts to the cold run, while
/// actually transferring (hits > 0) and doing strictly less search work.
#[test]
fn clustered_warm_grading_is_outcome_identical_to_cold() {
    use afg_bench::classroom::{classroom_cohort, run_classroom, ClassroomSpec};

    // Candidate-bounded and small: this sweep runs in debug CI, so every
    // interpreted candidate counts.  Unfixable members settle as
    // (deterministic) candidate-budget timeouts, which compare fine.
    let grading = afg_core::GraderConfig {
        synthesis: SynthesisConfig {
            max_cost: 2,
            max_candidates: 300,
            time_budget: Duration::from_secs(600),
        },
        ..afg_core::GraderConfig::fast()
    };

    let mut total_hits = 0u64;
    for (problem, seed) in [
        (problems::compute_deriv(), 3u64),
        (problems::iter_power(), 17u64),
    ] {
        let spec = ClassroomSpec {
            students: 12,
            skeletons: 3,
            seed,
        };
        let cohort = classroom_cohort(&problem, &spec);
        let grader = problem.autograder(grading.clone());
        let cold = run_classroom(&grader, &cohort, 1, false);
        let warm = run_classroom(&grader, &cohort, 1, true);

        assert_eq!(
            cold.verdicts, warm.verdicts,
            "{}: repair transfer must never change a verdict or its cost",
            problem.id
        );
        assert!(
            warm.sat_conflicts < cold.sat_conflicts,
            "{}: warm-started grading must report strictly fewer SAT \
             conflicts than the cold baseline ({} vs {})",
            problem.id,
            warm.sat_conflicts,
            cold.sat_conflicts
        );
        assert!(
            warm.candidates_checked <= cold.candidates_checked,
            "{}: warm pass must not add candidate verifications ({} vs {})",
            problem.id,
            warm.candidates_checked,
            cold.candidates_checked
        );
        total_hits += warm.totals.transfer_hits as u64;
    }
    assert!(
        total_hits > 0,
        "the cohorts' redundancy must produce at least one verified transfer"
    );
}

#[test]
fn all_backends_agree_on_repair_cost_across_the_corpus() {
    let mut checked = 0usize;
    for problem in problems::all_problems() {
        let grader = problem.autograder(afg_core::GraderConfig::fast());
        let oracle = grader.oracle();
        let model = grader.model();

        // The submissions under test: each correct variant untouched (must
        // grade AlreadyCorrect) plus seeded single-mutation mutants.
        let mut submissions = Vec::new();
        for (variant_index, seed_source) in problem.mutation_seeds().into_iter().enumerate() {
            let clean = afg_parser::parse_program(seed_source).expect("corpus seeds parse");
            if variant_index == 0 {
                submissions.push((format!("{}/clean", problem.id), clean.clone()));
            }
            for seed in 0..2u64 {
                let mut mutant = clean.clone();
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (problem.id.len() as u64) << 8 ^ (variant_index as u64) << 16,
                );
                afg_corpus::mutate_program(&mut mutant, 1, &mut rng);
                submissions.push((format!("{}/v{variant_index}s{seed}", problem.id), mutant));
            }
        }

        for (label, submission) in submissions {
            let Ok(choice_program) = apply_error_model(&submission, Some(problem.entry), model)
            else {
                continue; // mutant lost its entry function — nothing to compare
            };
            let cegis = Backend::Cegis.synthesize(&choice_program, oracle, &config());
            let enumerative = Backend::Enumerative.synthesize(&choice_program, oracle, &config());

            let cegis_verdict = verdict(&cegis, &format!("{label} cegis"));
            let enum_verdict = verdict(&enumerative, &format!("{label} enum"));
            assert_eq!(
                cegis_verdict, enum_verdict,
                "{label}: cegis and enumeration disagree ({cegis:?} vs {enumerative:?})"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= problems::all_problems().len(),
        "the sweep must exercise every problem (checked {checked})"
    );
}
