//! Pinned grader budgets, the layer-by-layer grading pipeline the traced
//! runs time, and the independent checks on repairs.
//!
//! Every budget a workload grades under is written here rather than read
//! from a program default, so a change to `GraderConfig::fast()`,
//! `EquivalenceConfig::default()` or the experiment binaries cannot move a
//! workload.

use std::time::{Duration, Instant};

use afg_core::{
    corrections_from_assignment, Autograder, Backend, EquivalenceConfig, EscalationPolicy,
    ExecLimits, Feedback, FeedbackLevel, GradeOutcome, GraderConfig, InputSpace, SweepMode,
    SynthesisConfig,
};
use afg_corpus::Problem;
use afg_eml::{apply_error_model, ChoiceAssignment, ChoiceProgram};
use afg_interp::ExecResult;
use afg_synth::{SynthesisOutcome, SynthesisStats};

use crate::report::{pct, ratio, Report, OUTCOMES};

/// The bounded input space and execution limits every workload verifies
/// against.  These equal the daemon's registration defaults; the serve
/// workloads' byte-identity check fails if the two ever drift apart.
pub fn equivalence() -> EquivalenceConfig {
    EquivalenceConfig {
        space: InputSpace {
            int_bits: 3,
            max_seq_len: 3,
            alphabet: vec!['a', 'b'],
            max_str_len: 3,
            max_inputs: 2_000,
        },
        limits: ExecLimits {
            fuel: 20_000,
            max_recursion: 32,
        },
        entry: None,
        compare_output: false,
        sweep: SweepMode::Compiled,
        sweep_cache: true,
    }
}

/// A single-shot grader configuration around `synthesis`.
pub fn grader_config(synthesis: SynthesisConfig) -> GraderConfig {
    GraderConfig {
        equivalence: equivalence(),
        synthesis,
        backend: Backend::Cegis,
        escalation: EscalationPolicy::single_shot(),
    }
}

/// Builds the grader for a built-in problem.
pub fn grader(problem: &Problem, config: GraderConfig) -> Autograder {
    Autograder::new(
        problem.reference,
        problem.entry,
        problem.model.clone(),
        config,
    )
    .expect("built-in reference implementations are valid")
}

/// Builds graders for `problems` `reps` times and returns the last set with
/// the median construction time in seconds.
pub fn timed_setup(
    problems: &[Problem],
    config: &GraderConfig,
    reps: usize,
) -> (Vec<Autograder>, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut graders = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        graders = problems
            .iter()
            .map(|problem| grader(problem, config.clone()))
            .collect();
        times.push(start.elapsed().as_secs_f64());
    }
    (graders, crate::report::quantile(&times, 0.5))
}

/// The outcome tag and repair cost two grades of one submission must agree
/// on.
pub fn verdict(outcome: &GradeOutcome) -> (&'static str, Option<usize>) {
    let tag = match outcome {
        GradeOutcome::SyntaxError(_) => "syntax_error",
        GradeOutcome::Correct => "correct",
        GradeOutcome::Feedback(_) => "fixed",
        GradeOutcome::CannotFix => "cannot_fix",
        GradeOutcome::Timeout => "timeout",
    };
    (tag, outcome.feedback().map(|feedback| feedback.cost))
}

/// Search work of one outcome class.
#[derive(Debug, Default, Clone)]
struct ClassWork {
    calls: u64,
    busy: Duration,
    sat: Duration,
    verify: Duration,
}

/// Per-layer totals accumulated by [`grade_layered`].
#[derive(Debug, Default)]
pub struct Ledger {
    parser_calls: u64,
    parser_busy: Duration,
    parser_rejects: u64,
    eml_calls: u64,
    eml_busy: Duration,
    choice_sites: u64,
    classes: [ClassWork; 4],
    definitive: u64,
    candidates: u64,
    cegis_iters: u64,
    conflicts: u64,
    propagations: u64,
    learnts: u64,
    sweeps: u64,
    sweep_inputs: u64,
    sweep_cache_hits: u64,
    feedback_calls: u64,
    feedback_busy: Duration,
    /// Verification sweeps replayed by cache hits (outside any search).
    hit_verify: Duration,
}

impl Ledger {
    /// Time attributed to the named layers.
    pub fn attributed(&self) -> Duration {
        self.parser_busy + self.eml_busy + self.search_busy() + self.feedback_busy + self.hit_verify
    }

    fn search_busy(&self) -> Duration {
        self.classes.iter().map(|class| class.busy).sum()
    }

    /// Number of searches run.
    pub fn searches(&self) -> u64 {
        self.classes.iter().map(|class| class.calls).sum()
    }

    fn absorb(&mut self, class: usize, busy: Duration, stats: Option<&SynthesisStats>) {
        let work = &mut self.classes[class];
        work.calls += 1;
        work.busy += busy;
        if let Some(stats) = stats {
            work.sat += stats.sat_elapsed;
            work.verify += stats.verify_elapsed;
            self.candidates += stats.candidates_checked as u64;
            self.cegis_iters += stats.cegis_iterations as u64;
            self.conflicts += stats.sat_conflicts;
            self.propagations += stats.sat_propagations;
            self.learnts += stats.sat_learnts;
            self.sweeps += stats.sweeps;
            self.sweep_inputs += stats.sweep_inputs;
            self.sweep_cache_hits += stats.sweep_cache_hits;
        }
    }

    /// Writes the parser, eml, synth, sat, interp and feedback metrics.
    pub fn record(&self, report: &mut Report) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        report.set("parser.calls", self.parser_calls as f64);
        report.set("parser.busy_ms", ms(self.parser_busy));
        report.set("parser.rejects", self.parser_rejects as f64);
        report.set("eml.calls", self.eml_calls as f64);
        report.set("eml.busy_ms", ms(self.eml_busy));
        report.set("eml.choice_sites", self.choice_sites as f64);

        let busy = self.search_busy();
        let sat: Duration = self.classes.iter().map(|class| class.sat).sum();
        let search_verify: Duration = self.classes.iter().map(|class| class.verify).sum();
        let verify = search_verify + self.hit_verify;
        let searches = self.searches() as f64;
        report.set("synth.calls", searches);
        report.set("synth.busy_ms", ms(busy));
        report.set("synth.other_ms", ms(busy) - ms(sat) - ms(search_verify));
        report.set("synth.candidates", self.candidates as f64);
        report.set("synth.cegis_iters", self.cegis_iters as f64);
        report.set(
            "synth.decided_ratio",
            ratio(self.definitive as f64, searches),
        );
        report.set("sat.busy_ms", ms(sat));
        report.set("sat.conflicts", self.conflicts as f64);
        report.set("sat.propagations", self.propagations as f64);
        report.set("sat.learnts", self.learnts as f64);
        report.set("interp.busy_ms", ms(verify));
        report.set("interp.sweeps", self.sweeps as f64);
        report.set("interp.inputs", self.sweep_inputs as f64);
        report.set(
            "interp.ns_per_input",
            ratio(verify.as_nanos() as f64, self.sweep_inputs as f64),
        );
        report.set(
            "interp.inputs_per_sweep",
            ratio(self.sweep_inputs as f64, self.sweeps as f64),
        );
        report.set(
            "interp.verdict_cache_hit_ratio",
            ratio(self.sweep_cache_hits as f64, self.sweep_inputs as f64),
        );
        for (class, name) in OUTCOMES.iter().enumerate() {
            let work = &self.classes[class];
            report.set(format!("synth.calls.{name}"), work.calls as f64);
            report.set(format!("synth.busy_ms.{name}"), ms(work.busy));
            report.set(format!("sat.busy_ms.{name}"), ms(work.sat));
            report.set(format!("interp.busy_ms.{name}"), ms(work.verify));
        }
        report.set("feedback.calls", self.feedback_calls as f64);
        report.set("feedback.busy_ms", ms(self.feedback_busy));
        if busy > Duration::ZERO {
            report.note(format!(
                "search split: sat {:.1}%, verify {:.1}%, other {:.1}% of {:.0} ms over {} searches",
                pct(ms(sat), ms(busy)),
                pct(ms(search_verify), ms(busy)),
                pct(ms(busy) - ms(sat) - ms(search_verify), ms(busy)),
                ms(busy),
                self.searches()
            ));
        }
    }
}

/// One in-memory trace span: a layer call within one graded request.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`grade`, `parse`, `eml`, `synth`, `feedback`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the parent span (`None` for a request's root).
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// The spans of one traced run, kept in memory and written out at the end.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty trace whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let offset = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: offset(start),
            end_ns: offset(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `index`.
    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
    }

    /// Writes the spans as JSON lines to `.bench_out/spans-<label>.jsonl`
    /// under the current directory and notes where in `report`.  Writes
    /// nothing when there are no spans.
    pub fn write(&self, label: &str, report: &mut Report) {
        if self.spans.is_empty() {
            return;
        }
        let path = format!(".bench_out/spans-{label}.jsonl");
        match self.write_to(&path) {
            Ok(()) => report.note(format!("{} spans written to {path}", self.spans.len())),
            Err(err) => report.note(format!("spans not written: {err}")),
        }
    }

    fn write_to(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        std::fs::create_dir_all(".bench_out")?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// The result of [`grade_layered`].
#[derive(Debug)]
pub struct LayeredGrade {
    /// The verdict, as `Autograder::grade_source` would report it.
    pub outcome: GradeOutcome,
    /// Whether the search stopped on the wall clock.
    pub wall_clock_limited: bool,
    /// The choice program and repair behind a `Feedback` outcome.
    pub repair: Option<(ChoiceProgram, ChoiceAssignment)>,
}

/// Grades one submission the way `Autograder::grade_source` does for a
/// single-shot cold grade — parse, error-model rewrite, search, feedback —
/// calling each layer's public function and timing it into `ledger` and
/// `spans`.
pub fn grade_layered(
    grader: &Autograder,
    source: &str,
    ledger: &mut Ledger,
    spans: &mut Spans,
    request: u64,
) -> LayeredGrade {
    let root_start = Instant::now();
    let root = spans.push("grade", root_start, root_start, None, request);
    let result = grade_layers(grader, source, ledger, spans, root, request);
    spans.close(root, Instant::now());
    result
}

fn grade_layers(
    grader: &Autograder,
    source: &str,
    ledger: &mut Ledger,
    spans: &mut Spans,
    root: usize,
    request: u64,
) -> LayeredGrade {
    let plain = |outcome| LayeredGrade {
        outcome,
        wall_clock_limited: false,
        repair: None,
    };
    let start = Instant::now();
    let parsed = afg_parser::parse_program(source);
    let end = Instant::now();
    spans.push("parse", start, end, Some(root), request);
    ledger.parser_calls += 1;
    ledger.parser_busy += end - start;
    let program = match parsed {
        Ok(program) => program,
        Err(err) => {
            ledger.parser_rejects += 1;
            return plain(GradeOutcome::SyntaxError(err));
        }
    };

    let grade_start = start;
    let start = Instant::now();
    let rewritten = apply_error_model(&program, Some(grader.entry()), grader.model());
    let end = Instant::now();
    spans.push("eml", start, end, Some(root), request);
    ledger.eml_calls += 1;
    ledger.eml_busy += end - start;
    // As in the grader: a submission the model cannot rewrite (no entry
    // function) cannot be fixed.
    let Ok(choice_program) = rewritten else {
        return plain(GradeOutcome::CannotFix);
    };
    ledger.choice_sites += choice_program.choices.len() as u64;

    let config = grader.config();
    let start = Instant::now();
    let outcome = config.backend.synthesize_with_hint(
        &choice_program,
        grader.oracle(),
        &config.synthesis,
        None,
    );
    let end = Instant::now();
    spans.push("synth", start, end, Some(root), request);
    ledger.definitive += u64::from(outcome.is_definitive());
    let wall_clock_limited = outcome.stats().is_some_and(|s| s.wall_clock_limited);
    let class = match &outcome {
        SynthesisOutcome::AlreadyCorrect => 0,
        SynthesisOutcome::Fixed(_) => 1,
        SynthesisOutcome::NoRepairFound(_) => 2,
        SynthesisOutcome::Timeout(_) => 3,
    };
    ledger.absorb(class, end - start, outcome.stats());

    match outcome {
        SynthesisOutcome::AlreadyCorrect => plain(GradeOutcome::Correct),
        SynthesisOutcome::NoRepairFound(_) => plain(GradeOutcome::CannotFix),
        SynthesisOutcome::Timeout(_) => LayeredGrade {
            outcome: GradeOutcome::Timeout,
            wall_clock_limited,
            repair: None,
        },
        SynthesisOutcome::Fixed(solution) => {
            let start = Instant::now();
            let corrections = corrections_from_assignment(&choice_program, &solution.assignment);
            let feedback = Feedback {
                corrections,
                cost: solution.cost,
                elapsed: grade_start.elapsed(),
                stats: solution.stats,
            };
            std::hint::black_box(feedback.render(FeedbackLevel::full()));
            let end = Instant::now();
            spans.push("feedback", start, end, Some(root), request);
            ledger.feedback_calls += 1;
            ledger.feedback_busy += end - start;
            LayeredGrade {
                outcome: GradeOutcome::Feedback(feedback),
                wall_clock_limited,
                repair: Some((choice_program, solution.assignment)),
            }
        }
    }
}

/// Times, once, the layer calls a cache hit for `source` makes in the
/// daemon, and books them as `count` calls.  Every hit but a syntax error
/// parses; a cannot-fix or timeout verdict also rebuilds the choice
/// program to check its structure; a repair additionally re-verifies the
/// cached assignment with one sweep and renders the feedback.  `outcome` is
/// the response's outcome tag.
pub fn replay_hit(
    grader: &Autograder,
    source: &str,
    outcome: &str,
    repair: Option<&ChoiceAssignment>,
    count: u64,
    ledger: &mut Ledger,
) {
    let scaled = |d: Duration| d * count as u32;
    if outcome == "syntax_error" {
        // Answered from a map keyed by the raw source, without parsing.
        return;
    }
    let start = Instant::now();
    let parsed = afg_parser::parse_program(source);
    ledger.parser_calls += count;
    ledger.parser_busy += scaled(start.elapsed());
    let (Ok(program), false) = (parsed, outcome == "correct") else {
        return;
    };
    let start = Instant::now();
    let rewritten = apply_error_model(&program, Some(grader.entry()), grader.model());
    ledger.eml_calls += count;
    ledger.eml_busy += scaled(start.elapsed());
    let (Ok(choice_program), Some(assignment)) = (rewritten, repair) else {
        return;
    };
    let start = Instant::now();
    let session = grader.oracle().choice_session(&choice_program);
    std::hint::black_box(session.is_equivalent(assignment));
    let sweep = session.sweep_stats();
    drop(session);
    ledger.hit_verify += scaled(start.elapsed());
    ledger.sweeps += sweep.sweeps * count;
    ledger.sweep_inputs += sweep.inputs_run * count;
    ledger.sweep_cache_hits += sweep.cache_hits * count;
    let start = Instant::now();
    let feedback = Feedback {
        corrections: corrections_from_assignment(&choice_program, assignment),
        cost: assignment.cost(),
        elapsed: Duration::ZERO,
        stats: SynthesisStats::default(),
    };
    std::hint::black_box(feedback.render(FeedbackLevel::full()));
    ledger.feedback_calls += count;
    ledger.feedback_busy += scaled(start.elapsed());
}

/// Checks a repair independently of the search: the concretised program
/// must match the reference on every oracle input when run by the tree
/// interpreter, and the repair's cost must equal its number of
/// corrections.
pub fn reverify(
    grader: &Autograder,
    choice_program: &ChoiceProgram,
    assignment: &ChoiceAssignment,
    feedback: &Feedback,
) -> Result<(), String> {
    if feedback.cost != feedback.corrections.len() || assignment.cost() != feedback.cost {
        return Err(format!(
            "cost {} but {} corrections and assignment cost {}",
            feedback.cost,
            feedback.corrections.len(),
            assignment.cost()
        ));
    }
    let program = choice_program.concretize(assignment);
    let oracle = grader.oracle();
    let equivalence = &grader.config().equivalence;
    for (index, args) in oracle.inputs().iter().enumerate() {
        let result = ExecResult::observe(&program, Some(grader.entry()), args, equivalence.limits);
        if !result.matches(oracle.reference_result(index), equivalence.compare_output) {
            return Err(format!(
                "repaired program differs from the reference on input {index}"
            ));
        }
    }
    Ok(())
}

/// A small seeded PRNG (SplitMix64) for the benchmark's own draws, so that
/// workload inputs do not depend on the program's generators beyond the
/// corpora they are built from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Draws a rank in `0..n` with weight `1 / (rank + 1)` (Zipf, s = 1).
    pub fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut u = self.unit() * total;
        for rank in 0..n {
            u -= 1.0 / (rank + 1) as f64;
            if u < 0.0 {
                return rank;
            }
        }
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_equivalence_matches_the_daemon_default() {
        let pinned = equivalence();
        let default = EquivalenceConfig::default();
        assert_eq!(format!("{pinned:?}"), format!("{default:?}"));
    }

    #[test]
    fn layered_pipeline_matches_grade_source() {
        let problem = afg_corpus::problems::compute_deriv();
        let config = grader_config(SynthesisConfig {
            max_cost: 2,
            max_candidates: 2_000,
            time_budget: Duration::from_secs(60),
        });
        let grader = grader(&problem, config);
        let off_by_one = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
        let mut ledger = Ledger::default();
        let mut spans = Spans::new();
        for source in [off_by_one, problem.reference, "def f(:\n"] {
            let layered = grade_layered(&grader, source, &mut ledger, &mut spans, 0);
            assert_eq!(
                verdict(&layered.outcome),
                verdict(&grader.grade_source(source))
            );
            if let (Some((program, assignment)), Some(feedback)) =
                (&layered.repair, layered.outcome.feedback())
            {
                reverify(&grader, program, assignment, feedback).unwrap();
            }
        }
        assert_eq!(ledger.parser_calls, 3);
        assert_eq!(ledger.parser_rejects, 1);
        assert_eq!(ledger.searches(), 2);
        assert_eq!(ledger.feedback_calls, 1);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            (0..4)
                .map(|_| Rng::new(seed, 1).next_u64())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut rng = Rng::new(3, 2);
        assert!((0..1000).all(|_| rng.zipf(5) < 5));
    }
}
