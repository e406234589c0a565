//! Soundness of consultation cores, the refutations CEGIS blocks on.
//!
//! When a candidate fails an input, the equivalence session reports the
//! choice sites the failing run consulted and the clamped option it took
//! at each.  CEGIS then rules out *every* assignment that takes those same
//! options, so the core must really determine the verdict: any assignment
//! that agrees with it on every consulted site — whatever it selects
//! elsewhere — must fail the same input.  This suite brute-forces seeded
//! sets of such assignments over the corpus problems' choice programs and
//! checks each against the reference interpreter and the VM.  It covers
//! cores read from a fresh VM run, from a verdict-cache hit, and from the
//! VM replay under `SweepMode::Tree`, and requires all three to coincide.

use std::collections::BTreeMap;

use afg_corpus::rng::StdRng;
use afg_corpus::{mutate_program, problems};
use afg_eml::{apply_error_model, ChoiceAssignment, ChoiceId, ChoiceProgram};
use afg_interp::{Consultation, EquivalenceConfig, EquivalenceOracle, ExecLimits, SweepMode};

/// Candidates to refute: the original program, single corrections at the
/// first sites and one pair.
fn candidates(program: &ChoiceProgram) -> Vec<ChoiceAssignment> {
    let mut assignments = vec![ChoiceAssignment::default_choices()];
    for info in program.choices.iter().take(6) {
        for option in 1..info.options.len().min(3) {
            assignments.push(ChoiceAssignment::from_pairs([(info.id, option)]));
        }
    }
    if program.choices.len() >= 2 {
        assignments.push(ChoiceAssignment::from_pairs([
            (program.choices[0].id, 1),
            (program.choices[1].id, 1),
        ]));
    }
    assignments
}

/// The selections at each consulted site that reproduce every recorded
/// consultation of it.
fn replaying_selections(
    program: &ChoiceProgram,
    core: &[Consultation],
) -> BTreeMap<ChoiceId, Vec<usize>> {
    let mut allowed = BTreeMap::new();
    for info in &program.choices {
        let steps: Vec<&Consultation> = core.iter().filter(|s| s.id == info.id).collect();
        if steps.is_empty() {
            continue;
        }
        let options = (0..info.options.len())
            .filter(|&sel| {
                steps
                    .iter()
                    .all(|s| sel.min(s.bound as usize - 1) == s.option as usize)
            })
            .collect();
        allowed.insert(info.id, options);
    }
    allowed
}

/// Seeded assignments that agree with the core on every consulted site and
/// vary freely everywhere else.
fn replaying_assignments(
    program: &ChoiceProgram,
    core: &[Consultation],
    rng: &mut StdRng,
) -> Vec<ChoiceAssignment> {
    let allowed = replaying_selections(program, core);
    (0..8)
        .map(|_| {
            let mut assignment = ChoiceAssignment::default_choices();
            for info in &program.choices {
                let option = match allowed.get(&info.id) {
                    Some(options) => *rng.choose(options).expect("the refuted candidate replays"),
                    None => rng.gen_range(0..info.options.len()),
                };
                assignment.select(info.id, option);
            }
            assignment
        })
        .collect()
}

#[test]
fn every_assignment_replaying_a_core_fails_the_refuting_input() {
    let mut checked = 0usize;
    let mut cache_cores = 0usize;
    for problem in problems::all_problems() {
        let reference = afg_parser::parse_program(problem.reference).expect("references parse");
        let oracle_with = |sweep: SweepMode| {
            EquivalenceOracle::from_reference(
                &reference,
                EquivalenceConfig {
                    entry: Some(problem.entry.to_string()),
                    limits: ExecLimits::fast(),
                    sweep,
                    ..EquivalenceConfig::default()
                },
            )
        };
        let tree_oracle = oracle_with(SweepMode::Tree);
        let compiled_oracle = oracle_with(SweepMode::Compiled);

        let seeds = problem.mutation_seeds();
        for m in 0..2usize {
            let mut mutated =
                afg_parser::parse_program(seeds[m % seeds.len()]).expect("seeds parse");
            let mut rng = StdRng::seed_from_u64(0xC0DE ^ ((m as u64 + 1) << 20));
            mutate_program(&mut mutated, 1, &mut rng);
            let Ok(program) = apply_error_model(&mutated, Some(problem.entry), &problem.model)
            else {
                continue;
            };

            let tree = tree_oracle.choice_session(&program);
            let compiled = compiled_oracle.choice_session(&program);
            for (a, assignment) in candidates(&program).iter().enumerate() {
                let context = format!("{} mutant {m} candidate {a}", problem.id);
                let Some(fresh) = compiled.refute(assignment, &[]) else {
                    continue;
                };
                let hits_before = compiled.sweep_stats().cache_hits;
                let cached = compiled.refute(assignment, &[]).expect("deterministic");
                let tree_refutation = tree.refute(assignment, &[]).expect("modes agree");
                assert!(compiled.sweep_stats().cache_hits > hits_before, "{context}");
                cache_cores += 1;

                // Cores never depend on how the verdict was reached.
                let core = fresh.core.clone().expect("corpus programs compile");
                assert_eq!(cached, fresh, "{context}: cache-hit core");
                assert_eq!(tree_refutation, fresh, "{context}: tree-mode core");

                for other in replaying_assignments(&program, &core, &mut rng) {
                    assert!(
                        !tree.check_input(&other, fresh.input),
                        "{context}: {other:?} replays the core but passes input {} \
                         on the reference interpreter",
                        fresh.input
                    );
                    assert!(
                        !compiled.check_input(&other, fresh.input),
                        "{context}: {other:?} replays the core but passes on the VM"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked >= 500,
        "too few replaying assignments checked: {checked}"
    );
    assert!(cache_cores > 0);
}
