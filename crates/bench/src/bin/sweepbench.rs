//! `sweepbench` — microbenchmark of the verification-sweep core, the
//! reference tree interpreter vs the compiled bytecode VM.
//!
//! ```text
//! cargo run --release -p afg-bench --bin sweepbench -- \
//!     [--problem ID] [--mutants N] [--iters N] [--seed S] [--json]
//! ```
//!
//! For every benchmark problem the driver derives a seeded set of buggy
//! mutants, applies the problem's error model to get choice programs, and
//! sweeps an identical set of candidate assignments over the full bounded
//! input deck under both [`SweepMode`]s — same oracle inputs, same
//! assignments, same fuel limits, so the only variable is the execution
//! back end.  Before timing anything it asserts both modes return the
//! same counterexample for every assignment (the cheap end of the
//! differential suite, run on every invocation).
//!
//! With `--json` a single JSON document lands on stdout — the shape CI
//! asserts on (`compiled.sweeps_per_sec >= tree.sweeps_per_sec`) and the
//! shape checked into `BENCH_sweep.json` as the perf baseline.

use std::time::{Duration, Instant};

use afg_corpus::rng::StdRng;
use afg_corpus::{mutate_program, problems, Problem};
use afg_eml::{apply_error_model, ChoiceAssignment, ChoiceProgram};
use afg_interp::{EquivalenceConfig, EquivalenceOracle, SweepMode};
use afg_json::{Json, ToJson};

/// Assignment sets larger than this are truncated: single-site flips grow
/// with the error model, and the benchmark wants comparable per-problem
/// work, not the full candidate space.
const MAX_ASSIGNMENTS: usize = 32;

struct Options {
    problem: Option<String>,
    mutants: usize,
    iters: usize,
    seed: u64,
    json: bool,
}

fn usage() -> String {
    "usage: sweepbench [--problem ID] [--mutants N] [--iters N] [--seed S] [--json]\n\
     \n\
     --problem ID   single benchmark problem (default: all of them)\n\
     --mutants N    seeded buggy mutants per problem (default 4)\n\
     --iters N      timed repetitions of the assignment sweep (default 8)\n\
     --seed S       mutation RNG seed (default 20130616)\n\
     --json         machine-readable JSON document on stdout"
        .to_string()
}

fn parse_options() -> Options {
    let mut options = Options {
        problem: None,
        mutants: 4,
        iters: 8,
        seed: 20130616,
        json: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let exit_usage = |message: &str| -> ! {
        eprintln!("{message}\n\n{}", usage());
        std::process::exit(2)
    };
    let number = |flag: &str, value: Option<&String>| -> u64 {
        match value.and_then(|v| v.parse().ok()) {
            Some(n) => n,
            None => exit_usage(&format!("option '{flag}' expects a non-negative integer")),
        }
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--problem" => match iter.next() {
                Some(id) => options.problem = Some(id.clone()),
                None => exit_usage("option '--problem' requires a value"),
            },
            "--mutants" => options.mutants = number(arg, iter.next()).max(1) as usize,
            "--iters" => options.iters = number(arg, iter.next()).max(1) as usize,
            "--seed" => options.seed = number(arg, iter.next()),
            "--json" => options.json = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => exit_usage(&format!("unknown option '{other}'")),
        }
    }
    options
}

/// Seeded buggy choice programs for one problem: each mutation seed gets
/// one injected mistake, then the problem's error model is applied.
fn choice_programs(problem: &Problem, mutants: usize, seed: u64) -> Vec<ChoiceProgram> {
    let seeds = problem.mutation_seeds();
    let mut programs = Vec::new();
    for m in 0..mutants {
        let base = seeds[m % seeds.len()];
        let mut program = afg_parser::parse_program(base).expect("corpus seeds parse");
        let mut rng = StdRng::seed_from_u64(seed ^ ((m as u64 + 1) << 16));
        mutate_program(&mut program, 1, &mut rng);
        if let Ok(cp) = apply_error_model(&program, Some(problem.entry), &problem.model) {
            if !cp.choices.is_empty() {
                programs.push(cp);
            }
        }
    }
    programs
}

/// The deterministic candidate set a benchmark sweeps: the all-defaults
/// assignment plus every single-site flip to option 1, capped.
fn assignment_set(program: &ChoiceProgram) -> Vec<ChoiceAssignment> {
    let mut assignments = vec![ChoiceAssignment::default_choices()];
    for info in &program.choices {
        if assignments.len() >= MAX_ASSIGNMENTS {
            break;
        }
        let mut assignment = ChoiceAssignment::default_choices();
        assignment.select(info.id, 1);
        assignments.push(assignment);
    }
    assignments
}

#[derive(Default)]
struct ModeTotals {
    sweeps: u64,
    inputs: u64,
    wall: Duration,
    compiled_sessions: usize,
    sessions: usize,
}

impl ModeTotals {
    fn sweeps_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.sweeps as f64 / secs
        }
    }

    fn ns_per_input(&self) -> f64 {
        if self.inputs == 0 {
            0.0
        } else {
            self.wall.as_nanos() as f64 / self.inputs as f64
        }
    }

    fn to_json(&self, mode: SweepMode) -> Json {
        Json::object([
            ("mode", Json::str(mode.name())),
            ("sweeps", self.sweeps.to_json()),
            ("inputs", self.inputs.to_json()),
            ("wall_ms", self.wall.to_json()),
            ("sweeps_per_sec", self.sweeps_per_sec().to_json()),
            ("ns_per_input", self.ns_per_input().to_json()),
            ("compiled_sessions", self.compiled_sessions.to_json()),
            ("sessions", self.sessions.to_json()),
        ])
    }
}

fn main() {
    let options = parse_options();
    let problems: Vec<Problem> = match &options.problem {
        Some(id) => match problems::problem(id) {
            Some(problem) => vec![problem],
            None => {
                eprintln!("unknown problem '{id}'");
                std::process::exit(2);
            }
        },
        None => problems::all_problems(),
    };

    let mut tree = ModeTotals::default();
    let mut compiled = ModeTotals::default();
    let mut problem_docs = Vec::new();
    let mut disagreements = 0usize;

    for problem in &problems {
        let reference = afg_parser::parse_program(problem.reference).expect("references parse");
        let oracle_for = |mode: SweepMode| {
            EquivalenceOracle::from_reference(
                &reference,
                EquivalenceConfig {
                    entry: Some(problem.entry.to_string()),
                    sweep: mode,
                    // The microbenchmark times raw candidate execution;
                    // with the verdict cache on, the repeated timed passes
                    // would mostly measure trie walks.
                    sweep_cache: false,
                    ..EquivalenceConfig::default()
                },
            )
        };
        let tree_oracle = oracle_for(SweepMode::Tree);
        let compiled_oracle = oracle_for(SweepMode::Compiled);
        let programs = choice_programs(problem, options.mutants, options.seed);

        let mut problem_tree = ModeTotals::default();
        let mut problem_compiled = ModeTotals::default();
        for cp in &programs {
            let assignments = assignment_set(cp);
            let tree_session = tree_oracle.choice_session(cp);
            let compiled_session = compiled_oracle.choice_session(cp);

            // Differential pre-pass: both back ends must agree on every
            // assignment's verdict before either is worth timing.
            for assignment in &assignments {
                let want = tree_session.find_counterexample(assignment, &[]);
                let got = compiled_session.find_counterexample(assignment, &[]);
                if want != got {
                    disagreements += 1;
                    eprintln!(
                        "DISAGREEMENT: {} mutant — tree says {want:?}, compiled says {got:?}",
                        problem.id
                    );
                }
            }

            // Timed passes, warm (the pre-pass already touched every
            // assignment once): counters are deltas so the pre-pass work
            // is excluded from the rates.
            let timed = |session: &afg_interp::ChoiceSession, totals: &mut ModeTotals| {
                let before = session.sweep_stats();
                let start = Instant::now();
                for _ in 0..options.iters {
                    for assignment in &assignments {
                        std::hint::black_box(session.find_counterexample(assignment, &[]));
                    }
                }
                totals.wall += start.elapsed();
                let after = session.sweep_stats();
                totals.sweeps += after.sweeps - before.sweeps;
                totals.inputs += after.inputs_run - before.inputs_run;
                totals.sessions += 1;
                totals.compiled_sessions += usize::from(session.is_compiled());
            };
            timed(&tree_session, &mut problem_tree);
            timed(&compiled_session, &mut problem_compiled);
        }

        let speedup = if problem_compiled.wall.is_zero() || problem_tree.wall.is_zero() {
            1.0
        } else {
            problem_tree.ns_per_input() / problem_compiled.ns_per_input()
        };
        if !options.json {
            println!(
                "{:<14} {:>3} mutants  {:>9} inputs  tree {:>8.0} ns/input  compiled {:>8.0} ns/input  {:>5.2}x",
                problem.id,
                programs.len(),
                problem_compiled.inputs,
                problem_tree.ns_per_input(),
                problem_compiled.ns_per_input(),
                speedup,
            );
        }
        problem_docs.push(Json::object([
            ("id", Json::str(problem.id)),
            ("mutants", programs.len().to_json()),
            ("tree", problem_tree.to_json(SweepMode::Tree)),
            ("compiled", problem_compiled.to_json(SweepMode::Compiled)),
            ("speedup", speedup.to_json()),
        ]));

        tree.sweeps += problem_tree.sweeps;
        tree.inputs += problem_tree.inputs;
        tree.wall += problem_tree.wall;
        tree.sessions += problem_tree.sessions;
        tree.compiled_sessions += problem_tree.compiled_sessions;
        compiled.sweeps += problem_compiled.sweeps;
        compiled.inputs += problem_compiled.inputs;
        compiled.wall += problem_compiled.wall;
        compiled.sessions += problem_compiled.sessions;
        compiled.compiled_sessions += problem_compiled.compiled_sessions;
    }

    let speedup = if compiled.wall.is_zero() || tree.wall.is_zero() {
        1.0
    } else {
        tree.ns_per_input() / compiled.ns_per_input()
    };
    let doc = Json::object([
        ("seed", options.seed.to_json()),
        ("mutants", options.mutants.to_json()),
        ("iters", options.iters.to_json()),
        ("problems", Json::Array(problem_docs)),
        ("tree", tree.to_json(SweepMode::Tree)),
        ("compiled", compiled.to_json(SweepMode::Compiled)),
        ("speedup", speedup.to_json()),
        ("agreement", Json::Bool(disagreements == 0)),
    ]);

    if options.json {
        println!("{doc}");
    } else {
        println!();
        println!(
            "overall: tree {:.0} ns/input ({:.0} sweeps/s), compiled {:.0} ns/input ({:.0} sweeps/s) — {speedup:.2}x, {} of {} compiled sessions lowered",
            tree.ns_per_input(),
            tree.sweeps_per_sec(),
            compiled.ns_per_input(),
            compiled.sweeps_per_sec(),
            compiled.compiled_sessions,
            compiled.sessions,
        );
    }
    if disagreements > 0 {
        eprintln!("FAILED: {disagreements} assignments disagreed between back ends");
        std::process::exit(1);
    }
}
