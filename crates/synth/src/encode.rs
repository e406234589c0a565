//! SAT encoding of the choice space.
//!
//! Every choice site of the M̃PY program gets one boolean *selector* variable
//! per non-default option (the paper's translation gives each expression
//! choice a SKETCH hole plus a boolean `choice_k` variable, §2.3).  The
//! encoding enforces at most one selected option per site; a site with no
//! selected option takes its default.  `totalCost` is the number of selector
//! variables set to true.  The cost bound is **not** baked into the clause
//! database: a [`afg_sat::Totalizer`] built once over the selectors exposes
//! one output literal per possible count, and CEGISMIN activates
//! `totalCost ≤ k` by passing the negated `k+1`-th output as an
//! *assumption* to each search — the whole cost ascent then runs on a
//! single solver instance whose learnt clauses all stay valid.
//!
//! Each site also gets one *changed* literal, `changed_s ↔ OR(sel_s)` (a
//! single-selector site uses its selector), so the clause blocking a
//! refuted candidate spends one literal per consulted site whatever option
//! the site took.
//!
//! The solver **branches only on the selectors**.  Every other variable is
//! settled by unit propagation once the selectors are: the at-most-one
//! counters and the totalizer propagate a violated bound to a conflict, and
//! each changed literal is an equivalence.  So a conflict-free assignment
//! of the selectors is already a candidate within the bound, and a
//! candidate costs a couple of decisions instead of one per totalizer
//! output.

use std::collections::BTreeMap;

use afg_eml::{ChoiceAssignment, ChoiceId, ChoiceProgram};
use afg_interp::Consultation;
use afg_sat::{add_at_most, Lit, Model, Solver, Totalizer, Var};

/// Per-thread instrumentation of encoding constructions.
///
/// The incremental-CEGISMIN acceptance criterion is "exactly one
/// [`ChoiceEncoding::new`] per synthesize call"; a thread-local counter
/// makes that checkable from a unit test without false positives from
/// concurrently running tests.
pub mod instrument {
    use std::cell::Cell;

    thread_local! {
        static ENCODINGS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn record_encoding() {
        ENCODINGS.with(|count| count.set(count.get() + 1));
    }

    /// Number of [`super::ChoiceEncoding`] values constructed on this
    /// thread since it started.
    pub fn encodings_created() -> u64 {
        ENCODINGS.with(Cell::get)
    }
}

/// The selector variables for one synthesis run.
#[derive(Debug, Clone)]
pub struct ChoiceEncoding {
    /// For every choice site, the selector variable of each non-default
    /// option (`selectors[id][j]` selects option `j + 1`).
    selectors: BTreeMap<ChoiceId, Vec<Var>>,
    /// For every site with a selector, the literal that is true exactly
    /// when the site leaves its default.
    changed: BTreeMap<ChoiceId, Lit>,
    /// Unary counter over all selector literals; drives the assumption-based
    /// cost bounds.
    totalizer: Totalizer,
}

impl ChoiceEncoding {
    /// Creates selector variables, at-most-one constraints and a changed
    /// literal for every choice site, and the totalizer counting the
    /// total cost; then restricts the solver's branching to the selectors.
    ///
    /// The totalizer is built at full width: real choice programs have
    /// tens of selectors, so the O(n²) merge is ~1–2k clauses, and
    /// measurements showed the bound-pruned variant
    /// ([`Totalizer::with_cap`]) perturbs the solver's model-enumeration
    /// order enough to cost more candidate verifications than the clause
    /// savings buy.  Revisit if error models ever grow to hundreds of
    /// selectors.
    pub fn new(solver: &mut Solver, program: &ChoiceProgram) -> ChoiceEncoding {
        instrument::record_encoding();
        let mut selectors = BTreeMap::new();
        let mut changed = BTreeMap::new();
        for info in &program.choices {
            let non_default_options = info.options.len().saturating_sub(1);
            let vars = solver.new_vars(non_default_options);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            match lits.as_slice() {
                [] => {}
                [single] => {
                    changed.insert(info.id, *single);
                }
                _ => {
                    // At most one option per site (selecting none = default).
                    add_at_most(solver, &lits, 1);
                    // changed ↔ OR(selectors).
                    let site_changed = solver.new_var().positive();
                    let mut any = lits.clone();
                    any.push(site_changed.negated());
                    solver.add_clause(&any);
                    for &lit in &lits {
                        solver.add_implication(lit, site_changed);
                    }
                    changed.insert(info.id, site_changed);
                }
            }
            selectors.insert(info.id, vars);
        }
        let all_vars: Vec<Var> = selectors.values().flatten().copied().collect();
        let all_lits: Vec<Lit> = all_vars.iter().map(|v| v.positive()).collect();
        let totalizer = Totalizer::new(solver, &all_lits);
        solver.branch_only_on(&all_vars);
        ChoiceEncoding {
            selectors,
            changed,
            totalizer,
        }
    }

    /// All selector literals, used for the global cost bound.
    pub fn all_selector_lits(&self) -> Vec<Lit> {
        self.selectors
            .values()
            .flat_map(|vars| vars.iter().map(|v| v.positive()))
            .collect()
    }

    /// Total number of choice sites encoded.
    pub fn num_sites(&self) -> usize {
        self.selectors.len()
    }

    /// The assumptions activating `totalCost ≤ bound` for one search.
    /// Empty when the bound is vacuous.  Nothing is added to the solver:
    /// moving the bound on the next search is free and every learnt clause
    /// remains valid.
    pub fn cost_bound_assumptions(&self, bound: usize) -> Vec<Lit> {
        self.totalizer.at_most(bound).into_iter().collect()
    }

    /// Decodes a SAT model into a choice assignment.  Only the selectors
    /// are read.
    pub fn decode(&self, model: &Model) -> ChoiceAssignment {
        let mut assignment = ChoiceAssignment::default_choices();
        for (&id, vars) in &self.selectors {
            for (j, var) in vars.iter().enumerate() {
                if model.value(*var) {
                    assignment.select(id, j + 1);
                    break;
                }
            }
        }
        assignment
    }

    /// The clause excluding exactly this assignment: some site must change
    /// its selection.  CEGIS falls back to it for refutations without a
    /// consultation core (programs the VM cannot lower).
    pub fn assignment_clause(&self, assignment: &ChoiceAssignment) -> Vec<Lit> {
        let mut clause: Vec<Lit> = Vec::new();
        for &id in self.selectors.keys() {
            self.push_differs(&mut clause, id, assignment.selected(id));
        }
        clause
    }

    /// The clause excluding every assignment that replays the refuting
    /// run `core` of `assignment` — one that takes the same clamped option
    /// at each consulted site.
    ///
    /// Each distinct consulted site contributes one literal saying the
    /// other assignment takes a different option there: the site's changed
    /// literal for option 0, `¬sel[option - 1]` otherwise.  A clamped tail
    /// (`option == bound - 1` below the site's last option) stands for
    /// several selections, so it falls back to `assignment`'s own
    /// selection, which blocks less and stays sound.  Sites consulted only
    /// with `bound <= 1` have one effective option and add nothing; an
    /// empty core yields the empty clause (nothing can repair the input).
    pub fn core_clause(&self, assignment: &ChoiceAssignment, core: &[Consultation]) -> Vec<Lit> {
        let mut clause: Vec<Lit> = Vec::new();
        let mut blocked: Vec<ChoiceId> = Vec::new();
        for step in core.iter().filter(|step| step.bound > 1) {
            if blocked.contains(&step.id) {
                continue;
            }
            blocked.push(step.id);
            // Sites without selectors never vary: nothing to differ on.
            let Some(vars) = self.selectors.get(&step.id) else {
                continue;
            };
            let option = step.option as usize;
            let clamped_tail = option + 1 == step.bound as usize && option < vars.len();
            let selected = if clamped_tail {
                assignment.selected(step.id)
            } else {
                option
            };
            self.push_differs(&mut clause, step.id, selected);
        }
        clause
    }

    /// Pushes the literal saying site `id` does not take option `selected`.
    fn push_differs(&self, clause: &mut Vec<Lit>, id: ChoiceId, selected: usize) {
        if selected == 0 {
            // Kept the default: differing means selecting *something*...
            clause.extend(self.changed.get(&id));
        } else if let Some(var) = self.selectors[&id].get(selected - 1) {
            // ...or deselecting the option chosen here.
            clause.push(var.negative());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_eml::{CFuncDef, ChoiceInfo};
    use afg_sat::{SatResult, TheoryAnswer};

    fn toy_program(option_counts: &[usize]) -> ChoiceProgram {
        ChoiceProgram {
            func: CFuncDef {
                name: "f".into(),
                params: vec![],
                body: vec![],
                line: 1,
            },
            other_funcs: vec![],
            choices: option_counts
                .iter()
                .enumerate()
                .map(|(i, &n)| ChoiceInfo {
                    id: ChoiceId(i as u32),
                    line: 1,
                    rule: "R".into(),
                    original: "x".into(),
                    options: (0..n).map(|j| format!("opt{j}")).collect(),
                    message: None,
                })
                .collect(),
        }
    }

    #[test]
    fn encoding_allocates_one_var_per_non_default_option() {
        let mut solver = Solver::new();
        let program = toy_program(&[3, 2, 4]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        assert_eq!(encoding.num_sites(), 3);
        assert_eq!(encoding.all_selector_lits().len(), 2 + 1 + 3);
    }

    #[test]
    fn decode_respects_at_most_one_per_site() {
        let mut solver = Solver::new();
        let program = toy_program(&[4, 3]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        // Force some selection at site 0 to make the model interesting.
        let lits = encoding.all_selector_lits();
        solver.add_clause(&lits[0..3]);
        match solver.solve() {
            SatResult::Sat(model) => {
                let assignment = encoding.decode(&model);
                assert!(assignment.selected(ChoiceId(0)) >= 1);
                assert!(assignment.selected(ChoiceId(0)) <= 3);
                assert!(assignment.cost() >= 1);
            }
            SatResult::Unsat => panic!("toy encoding must be satisfiable"),
        }
    }

    #[test]
    fn cost_bound_zero_forces_the_default_program() {
        let mut solver = Solver::new();
        let program = toy_program(&[3, 3]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        let assumptions = encoding.cost_bound_assumptions(0);
        assert_eq!(assumptions.len(), 1);
        match solver.solve_under_assumptions(&assumptions) {
            SatResult::Sat(model) => assert_eq!(encoding.decode(&model).cost(), 0),
            SatResult::Unsat => panic!("all-default must satisfy a zero cost bound"),
        }
        // The bound was an assumption: the same solver can still select.
        let lits = encoding.all_selector_lits();
        assert!(solver.add_clause(&lits[0..1]));
        match solver.solve() {
            SatResult::Sat(model) => assert!(encoding.decode(&model).cost() >= 1),
            SatResult::Unsat => panic!("unbounded solve must succeed"),
        }
    }

    #[test]
    fn tightening_bounds_by_assumption_reaches_unsat() {
        // Force a selection at both sites; bounds 2, 1, 0 then descend to
        // Unsat on one solver, the CEGISMIN shape.
        let mut solver = Solver::new();
        let program = toy_program(&[2, 2]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        let lits = encoding.all_selector_lits();
        for lit in &lits {
            assert!(solver.add_clause(&[*lit]));
        }
        assert!(solver
            .solve_under_assumptions(&encoding.cost_bound_assumptions(2))
            .is_sat());
        assert_eq!(
            solver.solve_under_assumptions(&encoding.cost_bound_assumptions(1)),
            SatResult::Unsat
        );
        assert_eq!(
            solver.solve_under_assumptions(&encoding.cost_bound_assumptions(0)),
            SatResult::Unsat
        );
        // Vacuous bound: no assumptions, still satisfiable.
        assert!(encoding.cost_bound_assumptions(2).len() <= 1);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn instrument_counts_encodings_per_thread() {
        let before = instrument::encodings_created();
        let mut solver = Solver::new();
        let _ = ChoiceEncoding::new(&mut solver, &toy_program(&[2]));
        let _ = ChoiceEncoding::new(&mut solver, &toy_program(&[3]));
        assert_eq!(instrument::encodings_created() - before, 2);
    }

    #[test]
    fn blocking_excludes_the_exact_assignment() {
        let mut solver = Solver::new();
        let program = toy_program(&[2, 2]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        // Enumerate all models, blocking each; the space has 2*2 = 4
        // assignments (each site: default or its single alternative).
        let mut seen = Vec::new();
        loop {
            match solver.solve() {
                SatResult::Unsat => break,
                SatResult::Sat(model) => {
                    let assignment = encoding.decode(&model);
                    assert!(
                        !seen.contains(&assignment),
                        "assignment repeated: {assignment:?}"
                    );
                    seen.push(assignment.clone());
                    assert!(seen.len() <= 4);
                    solver.add_clause(&encoding.assignment_clause(&assignment));
                }
            }
        }
        assert_eq!(seen.len(), 4);
    }

    /// Adds the core clause of `assignment`'s refutation and returns its
    /// width.
    fn block(
        solver: &mut Solver,
        encoding: &ChoiceEncoding,
        assignment: &ChoiceAssignment,
        core: &[Consultation],
    ) -> usize {
        let clause = encoding.core_clause(assignment, core);
        solver.add_clause(&clause);
        clause.len()
    }

    fn step(site: u32, bound: u32, option: u32) -> Consultation {
        Consultation {
            id: ChoiceId(site),
            bound,
            option,
        }
    }

    /// Assumptions pinning every selector to exactly `assignment`.
    fn pin(encoding: &ChoiceEncoding, assignment: &ChoiceAssignment) -> Vec<Lit> {
        let mut lits = Vec::new();
        for (&id, vars) in &encoding.selectors {
            for (j, var) in vars.iter().enumerate() {
                lits.push(if assignment.selected(id) == j + 1 {
                    var.positive()
                } else {
                    var.negative()
                });
            }
        }
        lits
    }

    fn excluded(
        solver: &mut Solver,
        encoding: &ChoiceEncoding,
        assignment: &ChoiceAssignment,
    ) -> bool {
        !solver
            .solve_under_assumptions(&pin(encoding, assignment))
            .is_sat()
    }

    /// Every assignment of `option_counts`, each site default or one of its
    /// options.
    fn all_assignments(option_counts: &[usize]) -> Vec<ChoiceAssignment> {
        let mut all = vec![ChoiceAssignment::default_choices()];
        for (site, &count) in option_counts.iter().enumerate() {
            all = all
                .iter()
                .flat_map(|base| {
                    (0..count).map(move |option| {
                        let mut next = base.clone();
                        next.select(ChoiceId(site as u32), option);
                        next
                    })
                })
                .collect();
        }
        all
    }

    #[test]
    fn empty_core_makes_the_solver_unsat() {
        let mut solver = Solver::new();
        let program = toy_program(&[3, 2]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        let assignment = ChoiceAssignment::default_choices();
        assert_eq!(block(&mut solver, &encoding, &assignment, &[]), 0);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn single_option_consultations_add_no_literal() {
        let mut solver = Solver::new();
        let program = toy_program(&[3, 2]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        let assignment = ChoiceAssignment::from_pairs([(ChoiceId(0), 2)]);
        // Site 0 is consulted only where one option exists; only site 1's
        // consultation constrains anything.
        let core = [step(0, 1, 0), step(1, 2, 0)];
        assert_eq!(block(&mut solver, &encoding, &assignment, &core), 1);
        // Any assignment selecting at site 1 survives, whatever site 0 does.
        let survivor = ChoiceAssignment::from_pairs([(ChoiceId(1), 1)]);
        assert!(!excluded(&mut solver, &encoding, &survivor));
        assert!(excluded(&mut solver, &encoding, &assignment));
        assert!(excluded(
            &mut solver,
            &encoding,
            &ChoiceAssignment::default_choices()
        ));
    }

    #[test]
    fn clamped_tail_falls_back_to_the_exact_selection() {
        let mut solver = Solver::new();
        let program = toy_program(&[4]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        // Option 3 consulted through a two-way dispatch clamps to 1, which
        // options 1, 2 and 3 all share: only option 3 itself is blocked.
        let assignment = ChoiceAssignment::from_pairs([(ChoiceId(0), 3)]);
        assert_eq!(
            block(&mut solver, &encoding, &assignment, &[step(0, 2, 1)]),
            1
        );
        assert!(excluded(&mut solver, &encoding, &assignment));
        for option in 0..3 {
            let other = ChoiceAssignment::from_pairs([(ChoiceId(0), option)]);
            assert!(!excluded(&mut solver, &encoding, &other), "option {option}");
        }
    }

    #[test]
    fn repeated_consultations_of_a_site_yield_one_literal() {
        let mut solver = Solver::new();
        let program = toy_program(&[3, 3, 2]);
        let encoding = ChoiceEncoding::new(&mut solver, &program);
        let assignment = ChoiceAssignment::from_pairs([(ChoiceId(1), 2)]);
        let core = [
            step(0, 3, 0),
            step(1, 3, 2),
            step(0, 3, 0),
            step(1, 3, 2),
            step(0, 3, 0),
        ];
        // Site 0 kept its default (one changed literal), site 1 took
        // option 2 (one negated selector).
        assert_eq!(block(&mut solver, &encoding, &assignment, &core), 2);
    }

    #[test]
    fn core_clauses_exclude_exactly_the_replaying_assignments() {
        // Exhaustive over a three-site space: after blocking a core, an
        // assignment is excluded only if it takes the same clamped option
        // at every consultation (sound), and — with no clamped tail in the
        // core — every such assignment is excluded (complete).
        let option_counts = [3, 2, 4];
        let clamp = |b: &ChoiceAssignment, s: &Consultation| {
            b.selected(s.id).min(s.bound as usize - 1) as u32
        };
        let cases: [(ChoiceAssignment, Vec<Consultation>); 3] = [
            (
                ChoiceAssignment::from_pairs([(ChoiceId(0), 1)]),
                vec![step(0, 3, 1), step(2, 4, 0)],
            ),
            (
                ChoiceAssignment::from_pairs([(ChoiceId(1), 1), (ChoiceId(2), 2)]),
                vec![step(1, 2, 1), step(2, 4, 2), step(1, 2, 1)],
            ),
            (
                ChoiceAssignment::from_pairs([(ChoiceId(2), 3)]),
                vec![step(2, 2, 1), step(0, 3, 0)],
            ),
        ];
        for (case, (assignment, core)) in cases.iter().enumerate() {
            let mut solver = Solver::new();
            let encoding = ChoiceEncoding::new(&mut solver, &toy_program(&option_counts));
            block(&mut solver, &encoding, assignment, core);
            let has_tail = core.iter().any(|s| {
                s.option + 1 == s.bound && (s.bound as usize) < option_counts[s.id.0 as usize]
            });
            for other in all_assignments(&option_counts) {
                let replays = core.iter().all(|s| clamp(&other, s) == s.option);
                let blocked = excluded(&mut solver, &encoding, &other);
                assert!(
                    !blocked || replays,
                    "case {case}: {other:?} differs at a consulted site but was excluded"
                );
                if !has_tail {
                    assert_eq!(blocked, replays, "case {case}: {other:?}");
                }
            }
            assert!(excluded(&mut solver, &encoding, assignment));
        }
    }

    /// Whether `assignment` agrees with one of the refuted runs in
    /// `blocks`, each given as the (site, option) pairs it consulted.
    fn replays(blocks: &[Vec<(ChoiceId, usize)>], assignment: &ChoiceAssignment) -> bool {
        blocks
            .iter()
            .any(|block| block.iter().all(|&(id, o)| assignment.selected(id) == o))
    }

    /// With branching limited to the selectors, every candidate the
    /// solver completes selects at most one option per site, stays within
    /// the bound and replays no blocked run; and a bound goes Unsat exactly
    /// when brute force finds no unblocked assignment within it.  Random
    /// toy programs, random cores, one solver per program across rising
    /// bounds, as in CEGISMIN.
    #[test]
    fn selector_branching_offers_exactly_the_unblocked_candidates() {
        for seed in 0..48u64 {
            // SplitMix64, seeded per program.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut below = move |bound: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % bound
            };
            let option_counts: Vec<usize> =
                (0..1 + below(4)).map(|_| 1 + below(4) as usize).collect();
            let mut solver = Solver::new();
            let encoding = ChoiceEncoding::new(&mut solver, &toy_program(&option_counts));
            let all = all_assignments(&option_counts);
            let mut blocks: Vec<Vec<(ChoiceId, usize)>> = Vec::new();
            for bound in 0..=3 {
                let assumptions = encoding.cost_bound_assumptions(bound);
                loop {
                    let answer = solver.solve_with(&assumptions, |model| {
                        for vars in encoding.selectors.values() {
                            let selected = vars.iter().filter(|v| model.value(**v)).count();
                            assert!(selected <= 1, "seed {seed}: {selected} options at one site");
                        }
                        let candidate = encoding.decode(model);
                        assert!(candidate.cost() <= bound, "seed {seed}: over bound {bound}");
                        assert!(!replays(&blocks, &candidate), "seed {seed}: {candidate:?}");
                        if below(5) == 0 {
                            return TheoryAnswer::Accept;
                        }
                        // Refute it through a random subset of the sites.
                        let core: Vec<Consultation> = (0..option_counts.len())
                            .filter(|_| below(2) == 0)
                            .map(|site| {
                                let option = candidate.selected(ChoiceId(site as u32));
                                step(site as u32, option_counts[site] as u32, option as u32)
                            })
                            .collect();
                        blocks.push(core.iter().map(|s| (s.id, s.option as usize)).collect());
                        TheoryAnswer::Block(encoding.core_clause(&candidate, &core))
                    });
                    match answer {
                        Some(SatResult::Sat(model)) => {
                            // Accepted: block it outright between searches.
                            let accepted = encoding.decode(&model);
                            assert!(accepted.cost() <= bound && !replays(&blocks, &accepted));
                            blocks.push(
                                (0..option_counts.len())
                                    .map(|site| {
                                        let id = ChoiceId(site as u32);
                                        (id, accepted.selected(id))
                                    })
                                    .collect(),
                            );
                            solver.add_clause(&encoding.assignment_clause(&accepted));
                        }
                        Some(SatResult::Unsat) => {
                            let survivor = all
                                .iter()
                                .find(|a| a.cost() <= bound && !replays(&blocks, a));
                            assert!(survivor.is_none(), "seed {seed}: {survivor:?} was left");
                            break;
                        }
                        None => unreachable!("the theory never stops"),
                    }
                }
            }
        }
    }
}
