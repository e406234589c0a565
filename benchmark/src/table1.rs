//! `table1`: the paper's experiment as an instructor's batch regrade.
//!
//! One caller, no cache: `Autograder::grade_source` over the 13 seeded
//! `CorpusSpec::table1_like` corpora under the Table-1 budget.  The corpora
//! are pinned (`CORPUS_SEED`), so every run grades the same submissions and
//! the verdict shares stay comparable between runs; `--seed` sets the order
//! they are graded in.  The run grades whole passes over the pool for as
//! long as `--seconds` allows (at least one).

use std::time::{Duration, Instant};

use afg_core::{Autograder, GradeOutcome, SynthesisConfig};
use afg_corpus::{generate_corpus, problems, CorpusSpec, Origin, Problem};

use crate::pipeline::{self, Ledger, Rng, Spans};
use crate::report::{self, pct, Report};
use crate::Options;

/// Submissions generated per problem (before syntax errors are dropped).
pub const ATTEMPTS: usize = 12;
/// Corpus seed of the paper-style experiment (mixed with the problem id's
/// length, as the experiment binaries do).
pub const CORPUS_SEED: u64 = 20130616;
/// The percentile `grade_tail_ms` reports for this workload: the highest
/// that leaves at least ten of the ~63 incorrect submissions beyond it.
pub const TAIL_Q: f64 = 0.84;
/// Latency limit of `slo_pct`.
pub const SLO_MS: f64 = 1000.0;
/// Grader constructions timed for `setup_s`.
const SETUP_REPS: usize = 21;

/// The Table-1 search budget.
pub fn synthesis() -> SynthesisConfig {
    SynthesisConfig {
        max_cost: 4,
        max_candidates: 20_000,
        time_budget: Duration::from_secs(2),
    }
}

struct Item {
    problem: usize,
    source: String,
    origin: Origin,
}

/// One graded submission of the untraced pass.
struct Graded {
    item: usize,
    outcome: GradeOutcome,
    elapsed: Duration,
}

fn pool(problems: &[Problem], seed: u64) -> Vec<Item> {
    let mut items = Vec::new();
    for (index, problem) in problems.iter().enumerate() {
        let spec = CorpusSpec::table1_like(ATTEMPTS, CORPUS_SEED ^ problem.id.len() as u64);
        for submission in generate_corpus(problem, &spec) {
            items.push(Item {
                problem: index,
                source: submission.source,
                origin: submission.origin,
            });
        }
    }
    Rng::new(seed, 1).shuffle(&mut items);
    items
}

fn grade_pass(graders: &[Autograder], items: &[Item]) -> Vec<Graded> {
    items
        .iter()
        .enumerate()
        .map(|(index, item)| {
            let start = Instant::now();
            let outcome = graders[item.problem].grade_source(&item.source);
            Graded {
                item: index,
                outcome,
                elapsed: start.elapsed(),
            }
        })
        .collect()
}

/// Whether an untraced grade may have been cut by the wall clock.
fn hit_wall_clock(graded: &Graded, budget: Duration) -> bool {
    match &graded.outcome {
        GradeOutcome::Feedback(feedback) => feedback.stats.wall_clock_limited,
        _ => graded.elapsed >= budget,
    }
}

/// The label check: what a submission's generator origin allows.
fn label_ok(origin: Origin, outcome: &GradeOutcome) -> bool {
    match origin {
        Origin::Correct => matches!(outcome, GradeOutcome::Correct),
        Origin::SyntaxError => matches!(outcome, GradeOutcome::SyntaxError(_)),
        Origin::Conceptual | Origin::Trivial => !matches!(outcome, GradeOutcome::Correct),
        Origin::Mutated(_) => !matches!(outcome, GradeOutcome::SyntaxError(_)),
    }
}

pub fn run(options: &Options, report: &mut Report) {
    let problems = problems::all_problems();
    let config = pipeline::grader_config(synthesis());
    let (graders, setup_s) = pipeline::timed_setup(&problems, &config, SETUP_REPS);
    let items = pool(&problems, options.seed);
    report.note(format!(
        "table1: {} submissions over {} problems, {ATTEMPTS} attempts each, corpus seed {CORPUS_SEED}",
        items.len(),
        problems.len()
    ));

    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut passes = vec![grade_pass(&graders, &items)];
    let first = start.elapsed();
    if !options.trace {
        while start.elapsed() + first <= budget {
            passes.push(grade_pass(&graders, &items));
        }
    }
    let wall = start.elapsed();

    if options.trace {
        traced(options, report, &graders, &items, &passes[0], first);
    } else {
        report.set("setup_s", setup_s);
        end_to_end(report, &items, &passes, wall);
        check_repairs(
            report,
            &graders,
            &items,
            &passes[0],
            config.synthesis.time_budget,
        );
    }
    for pass in &passes {
        for graded in pass {
            let item = &items[graded.item];
            report.check(label_ok(item.origin, &graded.outcome), || {
                format!(
                    "{:?} submission graded {:?}",
                    item.origin,
                    pipeline::verdict(&graded.outcome)
                )
            });
        }
    }
    report.set("peak_rss_mb", report::peak_rss_mb("self"));
}

fn end_to_end(report: &mut Report, items: &[Item], passes: &[Vec<Graded>], wall: Duration) {
    let graded: Vec<&Graded> = passes.iter().flatten().collect();
    let parsable: Vec<&&Graded> = graded
        .iter()
        .filter(|g| !matches!(g.outcome, GradeOutcome::SyntaxError(_)))
        .collect();
    let incorrect: Vec<&&&Graded> = parsable
        .iter()
        .filter(|g| !matches!(g.outcome, GradeOutcome::Correct))
        .collect();
    let count = |want: fn(&GradeOutcome) -> bool| {
        incorrect.iter().filter(|g| want(&g.outcome)).count() as f64
    };
    let fixed = count(|o| matches!(o, GradeOutcome::Feedback(_)));
    let cannot_fix = count(|o| matches!(o, GradeOutcome::CannotFix));
    let timeouts = count(|o| matches!(o, GradeOutcome::Timeout));
    let ms = |g: &Graded| g.elapsed.as_secs_f64() * 1e3;
    let incorrect_ms: Vec<f64> = incorrect.iter().map(|g| ms(g)).collect();
    let seconds = wall.as_secs_f64();

    report.set("subs_per_s", parsable.len() as f64 / seconds);
    report.set("req_per_s", graded.len() as f64 / seconds);
    report::record_latency(report, &incorrect_ms, TAIL_Q);
    report.set("fixed_pct", pct(fixed, incorrect.len() as f64));
    report.set(
        "decided_pct",
        pct(fixed + cannot_fix, incorrect.len() as f64),
    );
    let within = parsable
        .iter()
        .filter(|g| ms(g) <= SLO_MS && label_ok(items[g.item].origin, &g.outcome))
        .count();
    report.set("slo_pct", pct(within as f64, parsable.len() as f64));
    report.note(format!(
        "{} passes in {seconds:.2} s: {} parsable of {} per pass, {} incorrect: {} fixed, {} cannot fix, {} timeouts",
        passes.len(),
        parsable.len() / passes.len(),
        items.len(),
        incorrect.len() / passes.len(),
        fixed as usize / passes.len(),
        cannot_fix as usize / passes.len(),
        timeouts as usize / passes.len(),
    ));
}

/// Re-derives every Fixed repair of the untraced pass through the layered
/// pipeline (outside the timed region) and checks it independently.
fn check_repairs(
    report: &mut Report,
    graders: &[Autograder],
    items: &[Item],
    pass: &[Graded],
    budget: Duration,
) {
    let mut ledger = Ledger::default();
    let mut spans = Spans::new();
    let mut skipped = 0;
    for graded in pass {
        let GradeOutcome::Feedback(feedback) = &graded.outcome else {
            continue;
        };
        let item = &items[graded.item];
        let grader = &graders[item.problem];
        let layered = pipeline::grade_layered(grader, &item.source, &mut ledger, &mut spans, 0);
        match (&layered.repair, layered.outcome.feedback()) {
            (Some((program, assignment)), Some(again))
                if again.corrections == feedback.corrections && again.cost == feedback.cost =>
            {
                let checked = pipeline::reverify(grader, program, assignment, feedback);
                report.check(checked.is_ok(), || {
                    format!(
                        "repair of a {:?} submission: {}",
                        item.origin,
                        checked.unwrap_err()
                    )
                });
            }
            _ if layered.wall_clock_limited || hit_wall_clock(graded, budget) => skipped += 1,
            _ => report.check(false, || {
                format!(
                    "regrading a fixed {:?} submission gave {:?}",
                    item.origin,
                    pipeline::verdict(&layered.outcome)
                )
            }),
        }
    }
    if skipped > 0 {
        report.note(format!(
            "{skipped} repairs not re-verified: the regrade hit the wall clock"
        ));
    }
}

fn traced(
    options: &Options,
    report: &mut Report,
    graders: &[Autograder],
    items: &[Item],
    untraced: &[Graded],
    untraced_wall: Duration,
) {
    let mut ledger = Ledger::default();
    let mut spans = Spans::new();
    let budget = synthesis().time_budget;
    let start = Instant::now();
    let layered: Vec<_> = items
        .iter()
        .enumerate()
        .map(|(index, item)| {
            pipeline::grade_layered(
                &graders[item.problem],
                &item.source,
                &mut ledger,
                &mut spans,
                index as u64,
            )
        })
        .collect();
    let traced_wall = start.elapsed();
    ledger.record(report);

    let mut exceptions = 0;
    let mut clock_cut = 0;
    for (graded, traced) in untraced.iter().zip(&layered) {
        let item = &items[graded.item];
        if hit_wall_clock(graded, budget) || traced.wall_clock_limited {
            clock_cut += 1;
            continue;
        }
        let agree = pipeline::verdict(&graded.outcome) == pipeline::verdict(&traced.outcome);
        exceptions += u32::from(!agree);
        report.check(agree, || {
            format!(
                "parity: {:?} submission graded {:?} untraced, {:?} traced",
                item.origin,
                pipeline::verdict(&graded.outcome),
                pipeline::verdict(&traced.outcome)
            )
        });
    }
    for (traced, item) in layered.iter().zip(items) {
        if let (Some((program, assignment)), Some(feedback)) =
            (&traced.repair, traced.outcome.feedback())
        {
            let checked = pipeline::reverify(&graders[item.problem], program, assignment, feedback);
            report.check(checked.is_ok(), || {
                format!(
                    "repair of a {:?} submission: {}",
                    item.origin,
                    checked.unwrap_err()
                )
            });
        }
    }
    report.set("trace.parity_exceptions", f64::from(exceptions));
    report.set(
        "trace.attributed_pct",
        pct(ledger.attributed().as_secs_f64(), traced_wall.as_secs_f64()),
    );
    report.set(
        "trace.overhead_pct",
        pct(
            traced_wall.as_secs_f64() - untraced_wall.as_secs_f64(),
            untraced_wall.as_secs_f64(),
        ),
    );
    report.note(format!(
        "traced pass {:.2} s vs untraced {:.2} s; {exceptions} parity exceptions, {clock_cut} submissions cut by the wall clock in either run",
        traced_wall.as_secs_f64(),
        untraced_wall.as_secs_f64()
    ));
    spans.write(&format!("table1-seed{}", options.seed), report);
}
