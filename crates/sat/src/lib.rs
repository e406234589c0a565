//! A small CDCL SAT solver with cardinality constraints.
//!
//! The paper's tool searches the space of candidate corrections with the
//! SKETCH synthesizer, whose back end is SAT-based CEGIS.  `afg-sat` is the
//! SAT substrate of our reproduction: the synthesis crate encodes each
//! correction choice as boolean selector variables, bounds the total
//! correction cost through the cardinality encodings in [`cardinality`],
//! and runs its verifier as the *theory* of one continuing CDCL search
//! ([`Solver::solve_with`]), which blocks each failed candidate with a
//! clause and backjumps rather than starting over.
//!
//! # Example
//!
//! ```
//! use afg_sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[a.positive(), b.positive()]);
//! solver.add_clause(&[a.negative()]);
//! match solver.solve() {
//!     SatResult::Sat(model) => assert!(model.value(b)),
//!     SatResult::Unsat => unreachable!("the formula is satisfiable"),
//! }
//! ```

pub mod cardinality;
mod literal;
mod solver;

pub use cardinality::{add_at_least, add_at_most, Totalizer};
pub use literal::{Lit, Model, Var};
pub use solver::{SatResult, Solver, SolverStats, TheoryAnswer};

#[cfg(test)]
mod proptests {
    use super::*;

    /// Minimal seeded SplitMix64 so the random-CNF sweep needs no external
    /// dependency and stays reproducible.
    ///
    /// Intentionally duplicates `afg_corpus::rng::StdRng`: depending on
    /// afg-corpus here would create a dev-dependency cycle (afg-corpus →
    /// afg-core → afg-synth → afg-sat), and the biased `% bound` sampling
    /// below is fine for test bounds ≤ 64 (bias < 2⁻⁵⁸).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// Brute-force satisfiability of a CNF over `n` variables.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
        !brute_force_models(num_vars, clauses).is_empty()
    }

    /// Every model of a CNF over `n` variables, as bit masks in order.
    fn brute_force_models(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Vec<u32> {
        (0u32..(1 << num_vars))
            .filter(|&assignment| satisfies(assignment, clauses))
            .collect()
    }

    /// Whether the assignment bit mask satisfies every clause.
    fn satisfies(assignment: u32, clauses: &[Vec<(usize, bool)>]) -> bool {
        clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|&(v, positive)| (assignment & (1 << v) != 0) == positive)
        })
    }

    /// A random CNF over `num_vars` variables: up to `max_clauses` clauses
    /// of one to three literals.
    fn random_cnf(rng: &mut Rng, num_vars: usize, max_clauses: u64) -> Vec<Vec<(usize, bool)>> {
        let num_clauses = rng.below(max_clauses + 1) as usize;
        (0..num_clauses)
            .map(|_| {
                let len = 1 + rng.below(3) as usize;
                (0..len)
                    .map(|_| (rng.below(num_vars as u64) as usize, rng.below(2) == 1))
                    .collect()
            })
            .collect()
    }

    fn model_lit(model: &Model, var: Var) -> Lit {
        if model.value(var) {
            var.positive()
        } else {
            var.negative()
        }
    }

    fn to_lits(vars: &[Var], clause: &[(usize, bool)]) -> Vec<Lit> {
        clause
            .iter()
            .map(|&(v, positive)| {
                if positive {
                    vars[v].positive()
                } else {
                    vars[v].negative()
                }
            })
            .collect()
    }

    /// The model as a bit mask over `vars`.
    fn mask(model: &Model, vars: &[Var]) -> u32 {
        vars.iter()
            .enumerate()
            .filter(|&(_, &var)| model.value(var))
            .fold(0, |acc, (i, _)| acc | 1 << i)
    }

    /// The CDCL solver agrees with brute force on random small CNFs, and
    /// when it reports SAT its model really satisfies every clause.
    #[test]
    fn solver_agrees_with_brute_force() {
        let num_vars = 6usize;
        for seed in 0..128u64 {
            let mut rng = Rng(seed);
            let num_clauses = 1 + rng.below(23) as usize;
            let clauses: Vec<Vec<(usize, bool)>> = (0..num_clauses)
                .map(|_| {
                    let len = 1 + rng.below(3) as usize;
                    (0..len)
                        .map(|_| (rng.below(num_vars as u64) as usize, rng.below(2) == 1))
                        .collect()
                })
                .collect();

            let mut solver = Solver::new();
            let vars = solver.new_vars(num_vars);
            let mut trivially_unsat = false;
            for clause in &clauses {
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, positive)| {
                        if positive {
                            vars[v].positive()
                        } else {
                            vars[v].negative()
                        }
                    })
                    .collect();
                if !solver.add_clause(&lits) {
                    trivially_unsat = true;
                }
            }
            let expected = brute_force_sat(num_vars, &clauses);
            if trivially_unsat {
                assert!(!expected, "seed {seed}");
                continue;
            }
            match solver.solve() {
                SatResult::Sat(model) => {
                    assert!(
                        expected,
                        "seed {seed}: solver said SAT but brute force says UNSAT"
                    );
                    for clause in &clauses {
                        assert!(
                            clause
                                .iter()
                                .any(|&(v, positive)| model.value(vars[v]) == positive),
                            "seed {seed}: model violates clause {clause:?}"
                        );
                    }
                }
                SatResult::Unsat => {
                    assert!(
                        !expected,
                        "seed {seed}: solver said UNSAT but brute force says SAT"
                    );
                }
            }
        }
    }

    /// Solving under assumptions agrees with baking the assumptions in as
    /// unit clauses on a fresh solver — across random CNFs and random
    /// assumption sets, on one incrementally reused solver.
    #[test]
    fn assumptions_agree_with_unit_clauses() {
        let num_vars = 5usize;
        for seed in 0..96u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37).wrapping_add(1));
            let num_clauses = 1 + rng.below(16) as usize;
            let clauses: Vec<Vec<(usize, bool)>> = (0..num_clauses)
                .map(|_| {
                    let len = 1 + rng.below(3) as usize;
                    (0..len)
                        .map(|_| (rng.below(num_vars as u64) as usize, rng.below(2) == 1))
                        .collect()
                })
                .collect();

            let mut incremental = Solver::new();
            let vars = incremental.new_vars(num_vars);
            let to_lit = |(v, positive): (usize, bool)| {
                if positive {
                    vars[v].positive()
                } else {
                    vars[v].negative()
                }
            };
            let mut base_ok = true;
            for clause in &clauses {
                let lits: Vec<Lit> = clause.iter().map(|&l| to_lit(l)).collect();
                base_ok &= incremental.add_clause(&lits);
            }
            if !base_ok {
                continue; // trivially unsat base: nothing to compare
            }

            // Several assumption sets against the SAME solver instance.
            for round in 0..4u64 {
                let mut rng = Rng(seed ^ (round << 32) ^ 0xA5A5);
                let picks = rng.below(3) + 1;
                let assumption_raw: Vec<(usize, bool)> = (0..picks)
                    .map(|_| (rng.below(num_vars as u64) as usize, rng.below(2) == 1))
                    .collect();
                let assumptions: Vec<Lit> = assumption_raw.iter().map(|&l| to_lit(l)).collect();

                // Reference: clauses + assumptions as units, brute forced.
                let mut reference = clauses.clone();
                reference.extend(assumption_raw.iter().map(|&l| vec![l]));
                let expected = brute_force_sat(num_vars, &reference);

                match incremental.solve_under_assumptions(&assumptions) {
                    SatResult::Sat(model) => {
                        assert!(expected, "seed {seed} round {round}: spurious SAT");
                        for &lit in &assumptions {
                            assert!(model.lit_is_true(lit), "assumption {lit} violated");
                        }
                        for clause in &clauses {
                            assert!(clause
                                .iter()
                                .any(|&(v, positive)| model.value(vars[v]) == positive));
                        }
                    }
                    SatResult::Unsat => {
                        assert!(!expected, "seed {seed} round {round}: spurious UNSAT");
                        // The core is a subset of the assumptions and is
                        // itself sufficient for unsatisfiability.
                        let core: Vec<Lit> = incremental.unsat_core().to_vec();
                        for lit in &core {
                            assert!(assumptions.contains(lit), "core leaked {lit}");
                        }
                        let mut with_core = clauses.clone();
                        with_core.extend(
                            core.iter()
                                .map(|lit| vec![(lit.var().index(), lit.is_positive())]),
                        );
                        assert!(
                            !brute_force_sat(num_vars, &with_core),
                            "seed {seed} round {round}: core {core:?} does not justify UNSAT"
                        );
                    }
                }
            }
        }
    }

    /// The at-most-k encoding never admits a model with more than k true
    /// literals, and is satisfiable whenever the literals are free.
    #[test]
    fn cardinality_encoding_is_sound() {
        for k in 0usize..5 {
            for n in 1usize..6 {
                let mut solver = Solver::new();
                let vars = solver.new_vars(n);
                let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                assert!(add_at_most(&mut solver, &lits, k));
                match solver.solve() {
                    SatResult::Sat(model) => {
                        let count = vars.iter().filter(|v| model.value(**v)).count();
                        assert!(
                            count <= k,
                            "at-most-{k} over {n} admitted {count} true literals"
                        );
                    }
                    SatResult::Unsat => {
                        // With no other constraints the all-false assignment always works.
                        panic!("at-most-{k} over {n} free literals must be satisfiable");
                    }
                }
            }
        }
    }

    /// A theory that rejects every model with its full negation makes
    /// `solve_with` enumerate exactly the models brute force finds, each
    /// once, and end `Unsat` — across random CNFs, on a solver whose learnt
    /// database is reduced whenever it holds more than two clauses.
    #[test]
    fn solve_with_enumerates_exactly_the_brute_force_models() {
        let num_vars = 7usize;
        let mut reductions = 0;
        for seed in 0..64u64 {
            let mut rng = Rng(seed ^ 0x5EED_0001);
            let clauses = random_cnf(&mut rng, num_vars, 18);
            let mut solver = Solver::with_learnt_cap(2);
            let vars = solver.new_vars(num_vars);
            let mut base_ok = true;
            for clause in &clauses {
                base_ok &= solver.add_clause(&to_lits(&vars, clause));
            }
            let expected = brute_force_models(num_vars, &clauses);
            if !base_ok {
                assert!(expected.is_empty(), "seed {seed}");
                continue;
            }
            let mut found = Vec::new();
            let result = solver.solve_with(&[], |model| {
                let found_mask = mask(model, &vars);
                assert!(
                    satisfies(found_mask, &clauses),
                    "seed {seed}: offered a non-model"
                );
                assert!(
                    !found.contains(&found_mask),
                    "seed {seed}: model {found_mask:b} offered twice"
                );
                found.push(found_mask);
                TheoryAnswer::Block(
                    vars.iter()
                        .map(|&v| model_lit(model, v).negated())
                        .collect(),
                )
            });
            assert_eq!(result, Some(SatResult::Unsat), "seed {seed}");
            found.sort_unstable();
            assert_eq!(found, expected, "seed {seed}");
            solver.assert_consistent();
            reductions += solver.stats().reductions;
        }
        assert!(reductions > 0, "no learnt-database reduction was exercised");
    }

    /// Random partial blocks (and the odd clause that does not block the
    /// model at all), accepts, stops and assumptions on one solver per CNF:
    /// every offered model satisfies the clauses, the blocks so far and the
    /// assumptions; every `Unsat` is confirmed by brute force
    /// over the clauses plus all blocks (plus its core, which is a subset
    /// of the assumptions); and the solver's invariants hold after each
    /// call, learnt-database reductions included.
    #[test]
    fn solve_with_random_blocks_agree_with_brute_force() {
        let num_vars = 8usize;
        let mut reductions = 0;
        for seed in 0..96u64 {
            let mut rng = Rng(seed.wrapping_mul(0x2545_F491).wrapping_add(7));
            let clauses = random_cnf(&mut rng, num_vars, 16);
            let mut solver = Solver::with_learnt_cap(3);
            let vars = solver.new_vars(num_vars);
            let mut base_ok = true;
            for clause in &clauses {
                base_ok &= solver.add_clause(&to_lits(&vars, clause));
            }
            if !base_ok {
                assert!(!brute_force_sat(num_vars, &clauses), "seed {seed}");
                continue;
            }
            let mut blocks: Vec<Vec<(usize, bool)>> = Vec::new();
            for round in 0..24 {
                let assumed: Vec<(usize, bool)> = (0..rng.below(3))
                    .map(|_| (rng.below(num_vars as u64) as usize, rng.below(2) == 1))
                    .collect();
                let assumptions = to_lits(&vars, &assumed);
                let mut answers = Rng(rng.next());
                let result = solver.solve_with(&assumptions, |model| {
                    let model_mask = mask(model, &vars);
                    assert!(satisfies(model_mask, &clauses), "seed {seed}: clauses");
                    assert!(satisfies(model_mask, &blocks), "seed {seed}: blocks");
                    for &lit in &assumptions {
                        assert!(model.lit_is_true(lit), "seed {seed}: assumption {lit}");
                    }
                    match answers.below(16) {
                        0..=3 => TheoryAnswer::Accept,
                        4 => TheoryAnswer::Stop,
                        5 => {
                            // A clause the model may well satisfy: kept
                            // like any other, and the search goes on.
                            let clause: Vec<(usize, bool)> = (0..1 + answers.below(3))
                                .map(|_| {
                                    (
                                        answers.below(num_vars as u64) as usize,
                                        answers.below(2) == 1,
                                    )
                                })
                                .collect();
                            let lits = to_lits(&vars, &clause);
                            blocks.push(clause);
                            TheoryAnswer::Block(lits)
                        }
                        _ => {
                            // Refute the model through a random subset of
                            // its variables (rarely none: the empty clause).
                            let block: Vec<(usize, bool)> = (0..num_vars)
                                .filter(|_| answers.below(2) == 0)
                                .map(|v| (v, !model.value(vars[v])))
                                .collect();
                            let lits = to_lits(&vars, &block);
                            blocks.push(block);
                            TheoryAnswer::Block(lits)
                        }
                    }
                });
                solver.assert_consistent();
                let mut reference = clauses.clone();
                reference.extend(blocks.iter().cloned());
                match result {
                    Some(SatResult::Sat(model)) => {
                        let model_mask = mask(&model, &vars);
                        assert!(
                            satisfies(model_mask, &reference),
                            "seed {seed} round {round}"
                        );
                    }
                    Some(SatResult::Unsat) => {
                        let core = solver.unsat_core().to_vec();
                        for lit in &core {
                            assert!(assumptions.contains(lit), "core leaked {lit}");
                        }
                        reference.extend(
                            core.iter()
                                .map(|lit| vec![(lit.var().index(), lit.is_positive())]),
                        );
                        assert!(
                            !brute_force_sat(num_vars, &reference),
                            "seed {seed} round {round}: spurious Unsat (core {core:?})"
                        );
                        if core.is_empty() {
                            break;
                        }
                    }
                    None => {}
                }
            }
            reductions += solver.stats().reductions;
        }
        assert!(reductions > 0, "no learnt-database reduction was exercised");
    }

    /// A long Unsat proof reduces the learnt database at its real bound:
    /// the learnt counter stays cumulative while the live clauses shrink,
    /// and the answer is still right.
    #[test]
    fn long_searches_reduce_the_learnt_database() {
        // Pigeonhole: `holes + 1` pigeons never fit into `holes` holes.
        let holes = 7usize;
        let mut solver = Solver::new();
        let p: Vec<Vec<Var>> = (0..=holes).map(|_| solver.new_vars(holes)).collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            assert!(solver.add_clause(&lits));
        }
        for hole in 0..holes {
            for (i, row) in p.iter().enumerate() {
                for other in &p[i + 1..] {
                    assert!(solver.add_clause(&[row[hole].negative(), other[hole].negative()]));
                }
            }
        }
        assert_eq!(solver.solve(), SatResult::Unsat);
        let stats = solver.stats();
        assert!(stats.reductions > 0, "{stats:?}");
        assert!(stats.learnts as usize > solver.num_clauses(), "{stats:?}");
        solver.assert_consistent();
    }
}
