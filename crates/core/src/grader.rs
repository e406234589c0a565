//! The autograder: the end-to-end pipeline of Figure 3.
//!
//! `student.py` → *Program Rewriter* (error model) → M̃PY → *Sketch
//! Translator / Solver* (choice encoding + CEGISMIN) → *Feedback Generator*.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::time::Instant;

use afg_ast::canon::fnv1a64;
use afg_ast::Program;
use afg_eml::{apply_error_model, ErrorModel, TransformError};
use afg_interp::{EquivalenceConfig, EquivalenceOracle};
use afg_parser::{parse_program, ParseError};
use afg_synth::{Backend, SynthesisConfig, SynthesisOutcome};

use crate::feedback::{corrections_from_assignment, Feedback};

/// Errors raised while *setting up* a grader (problems with the instructor's
/// inputs, not with student submissions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraderError {
    /// The reference implementation does not parse.
    ReferenceSyntax(ParseError),
    /// The reference implementation defines no function with the entry name.
    MissingEntry {
        /// The requested entry-function name.
        entry: String,
    },
    /// A parameter of the entry function lacks the type suffix that drives
    /// bounded input enumeration (`poly_list_int`, `n_int`, …).
    UntypedParam {
        /// The entry-function name.
        entry: String,
        /// The offending parameter, as written.
        param: String,
    },
    /// The error model is ill-formed.
    Model(TransformError),
}

impl fmt::Display for GraderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraderError::ReferenceSyntax(err) => write!(f, "reference implementation: {err}"),
            GraderError::MissingEntry { entry } => write!(
                f,
                "reference implementation: no function named '{entry}' \
                 (the graded entry function must be defined)"
            ),
            GraderError::UntypedParam { entry, param } => write!(
                f,
                "reference implementation: parameter '{param}' of '{entry}' has no \
                 type suffix; declare one (e.g. '{param}_int' or '{param}_list_int') \
                 so the equivalence oracle can enumerate bounded inputs"
            ),
            GraderError::Model(err) => write!(f, "error model: {err}"),
        }
    }
}

impl Error for GraderError {}

/// One rung of an escalation ladder: a (possibly reduced) error model, its
/// own search budget and an optional back-end override.
///
/// Escalation exists because most incorrect submissions need only the
/// handful of cheapest correction rules, and a small model means a small
/// choice space — fast searches and fast `NoRepairFound` verdicts.  A tier
/// that cannot repair the submission hands it to the next, larger tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscalationTier {
    /// Display label (shown in `/stats`).
    pub label: String,
    /// Truncate the grader's error model to its first `n` rules for this
    /// tier (`None` = the full model).  Mirrors the paper's E0..E5 models of
    /// increasing size (Figure 14(b)).
    pub model_rules: Option<usize>,
    /// This tier's search budget.
    pub synthesis: SynthesisConfig,
    /// This tier's back end (`None` = the grader's configured backend).
    pub backend: Option<Backend>,
}

/// The full ladder.  An empty ladder means single-shot grading with the
/// grader's own model, budget and backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// The tiers, tried in order; grading escalates past a tier on
    /// `NoRepairFound` (and on `Timeout` for every tier but the last).
    pub tiers: Vec<EscalationTier>,
}

impl EscalationPolicy {
    /// Single-shot grading (no ladder).
    pub fn single_shot() -> EscalationPolicy {
        EscalationPolicy::default()
    }

    /// Whether grading runs as a single shot.
    pub fn is_single_shot(&self) -> bool {
        self.tiers.is_empty()
    }

    /// The canonical two-rung ladder: the model's first `cheap_rules` rules
    /// under `cheap` budgets first, the full model under `full` budgets on
    /// escalation.
    pub fn cheap_first(
        cheap_rules: usize,
        cheap: SynthesisConfig,
        full: SynthesisConfig,
    ) -> EscalationPolicy {
        EscalationPolicy {
            tiers: vec![
                EscalationTier {
                    label: format!("cheap-{cheap_rules}"),
                    model_rules: Some(cheap_rules),
                    synthesis: cheap,
                    backend: None,
                },
                EscalationTier {
                    label: "full".to_string(),
                    model_rules: None,
                    synthesis: full,
                    backend: None,
                },
            ],
        }
    }
}

/// Configuration of the grading pipeline.
#[derive(Debug, Clone, Default)]
pub struct GraderConfig {
    /// Bounded input space and execution limits for equivalence checking.
    pub equivalence: EquivalenceConfig,
    /// Search budget for the synthesizer.
    pub synthesis: SynthesisConfig,
    /// Which synthesis back end to run.
    pub backend: Backend,
    /// Optional escalation ladder (empty = grade in one shot).
    pub escalation: EscalationPolicy,
}

impl GraderConfig {
    /// A small budget suitable for tests.
    pub fn fast() -> GraderConfig {
        GraderConfig {
            equivalence: EquivalenceConfig::default(),
            synthesis: SynthesisConfig::fast(),
            backend: Backend::Cegis,
            escalation: EscalationPolicy::single_shot(),
        }
    }
}

/// The result of grading one student submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradeOutcome {
    /// The submission does not parse (excluded from the paper's test set).
    SyntaxError(ParseError),
    /// The submission is behaviourally equivalent to the reference.
    Correct,
    /// The submission is incorrect and the tool found minimal corrections.
    Feedback(Feedback),
    /// The submission is incorrect and the error model cannot repair it
    /// (the paper's "completely incorrect / big conceptual error" bucket).
    CannotFix,
    /// The search exceeded its time or candidate budget.
    Timeout,
}

impl GradeOutcome {
    /// Whether feedback (or a correctness verdict) was produced.
    pub fn feedback(&self) -> Option<&Feedback> {
        match self {
            GradeOutcome::Feedback(feedback) => Some(feedback),
            _ => None,
        }
    }
}

/// The automated feedback generator for one assignment.
///
/// Holds the instructor's inputs — the reference implementation, the graded
/// function's name and the error model — plus the cached equivalence oracle,
/// and grades any number of student submissions against them.
#[derive(Debug, Clone)]
pub struct Autograder {
    reference: Program,
    entry: String,
    model: ErrorModel,
    config: GraderConfig,
    oracle: EquivalenceOracle,
    /// Memoized [`Autograder::config_fingerprint`] (grading is hot; the
    /// configuration is fixed after construction modulo `set_model`).
    config_fingerprint: u64,
}

impl Autograder {
    /// Builds a grader from the reference implementation's source code.
    ///
    /// # Errors
    ///
    /// Returns [`GraderError::ReferenceSyntax`] if the reference does not
    /// parse, [`GraderError::MissingEntry`] if it defines no function named
    /// `entry`, and [`GraderError::UntypedParam`] if a parameter of the
    /// entry function lacks a type suffix — each is an instructor mistake
    /// better rejected at construction time than discovered as misbehaviour
    /// halfway through grading a class.
    pub fn new(
        reference_source: &str,
        entry: &str,
        model: ErrorModel,
        config: GraderConfig,
    ) -> Result<Autograder, GraderError> {
        let reference = parse_program(reference_source).map_err(GraderError::ReferenceSyntax)?;
        Autograder::from_program(reference, entry, model, config)
    }

    /// Builds a grader from an already-parsed reference implementation,
    /// applying the same validation as [`Autograder::new`].
    pub fn from_program(
        reference: Program,
        entry: &str,
        model: ErrorModel,
        config: GraderConfig,
    ) -> Result<Autograder, GraderError> {
        validate_reference(&reference, entry)?;
        let mut equivalence = config.equivalence.clone();
        equivalence.entry = Some(entry.to_string());
        let oracle = EquivalenceOracle::from_reference(&reference, equivalence);
        let config_fingerprint = fingerprint_configuration(&reference, entry, &config, &model);
        Ok(Autograder {
            reference,
            entry: entry.to_string(),
            model,
            config,
            oracle,
            config_fingerprint,
        })
    }

    /// The reference implementation being graded against.
    pub fn reference(&self) -> &Program {
        &self.reference
    }

    /// The name of the graded function.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The error model in use.
    pub fn model(&self) -> &ErrorModel {
        &self.model
    }

    /// The equivalence oracle (exposed for experiment harnesses).
    pub fn oracle(&self) -> &EquivalenceOracle {
        &self.oracle
    }

    /// The grading configuration (backend, budgets, escalation ladder).
    pub fn config(&self) -> &GraderConfig {
        &self.config
    }

    /// A 64-bit fingerprint of everything that can change a verdict: the
    /// reference implementation and entry name, the full grading
    /// configuration (backend, budgets, escalation ladder,
    /// equivalence/input-space settings) and the error model's content.
    /// The fingerprint cache mixes this into its keys so one cache can
    /// safely serve differently-configured graders.  Memoized at
    /// construction (and on [`Autograder::set_model`]).
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// The error model a tier grades with (possibly a truncation of the
    /// full model).  `None` when the tier index is out of range for the
    /// configured ladder — only possible when replaying a cache entry
    /// recorded under a different configuration, which the config
    /// fingerprint in the cache key already rules out in practice.
    pub(crate) fn tier_model(&self, tier_index: usize) -> Option<Cow<'_, ErrorModel>> {
        let model_rules = if self.config.escalation.is_single_shot() {
            if tier_index != 0 {
                return None;
            }
            None
        } else {
            self.config.escalation.tiers.get(tier_index)?.model_rules
        };
        Some(match model_rules {
            Some(rules) if rules < self.model.rules.len() => {
                Cow::Owned(self.model.truncated(rules))
            }
            _ => Cow::Borrowed(&self.model),
        })
    }

    /// Replaces the error model (used by the Figure 14(b)/(c) experiments
    /// that sweep over models of increasing size).
    pub fn set_model(&mut self, model: ErrorModel) {
        self.model = model;
        self.config_fingerprint =
            fingerprint_configuration(&self.reference, &self.entry, &self.config, &self.model);
    }

    /// Grades a submission given as source text.
    pub fn grade_source(&self, student_source: &str) -> GradeOutcome {
        match parse_program(student_source) {
            Err(err) => GradeOutcome::SyntaxError(err),
            Ok(program) => self.grade_program(&program),
        }
    }

    /// Grades an already-parsed submission.
    pub fn grade_program(&self, student: &Program) -> GradeOutcome {
        self.grade_program_traced(student).outcome
    }

    /// Grades a submission and additionally returns what the fingerprint
    /// cache needs: the minimal choice assignment behind a
    /// [`GradeOutcome::Feedback`] (so an alpha-equivalent submission can
    /// *replay* the repair instead of re-running synthesis) and whether the
    /// verdict is deterministic enough to cache at all.
    pub(crate) fn grade_program_traced(&self, student: &Program) -> TracedGrade {
        self.grade_program_traced_warm(student, None)
    }

    /// As [`Autograder::grade_program_traced`], additionally offering a
    /// cluster representative's repair to the synthesizer as a warm start.
    /// The hypothesis is only handed to the tier that produced it, and only
    /// when that tier's choice program has the structural signature the
    /// donor search explored; the search re-verifies it before trusting it,
    /// so outcomes stay cost-identical to a cold grade (see
    /// [`crate::ClusterIndex`]).
    pub(crate) fn grade_program_traced_warm(
        &self,
        student: &Program,
        transfer: Option<&crate::cluster::ClusterRepair>,
    ) -> TracedGrade {
        let start = Instant::now();
        // The resolved plan: the configured ladder, or an implicit single
        // tier borrowed-together from the grader's own settings.
        let single_shot;
        let plan: &[EscalationTier] = if self.config.escalation.is_single_shot() {
            single_shot = [EscalationTier {
                label: "default".to_string(),
                model_rules: None,
                synthesis: self.config.synthesis.clone(),
                backend: Some(self.config.backend),
            }];
            &single_shot
        } else {
            &self.config.escalation.tiers
        };
        let last_tier = plan.len() - 1;
        // Set when ANY tier attempted so far stopped on the wall clock: on
        // an idle machine that tier might have produced a different
        // verdict, so every non-Fixed verdict downstream of it is
        // load-dependent and must not be cached.
        let mut load_dependent = false;
        // The choice-program signature of every tier attempted, for the
        // structural replay guard of cached CannotFix/Timeout verdicts.
        let mut attempted_signatures: Vec<u64> = Vec::new();
        // Whether any tier actually tried / verified the transferred
        // hypothesis, for the cluster index's counters.
        let mut transfer_record = TransferRecord::default();
        for (tier_index, tier) in plan.iter().enumerate() {
            let model = self
                .tier_model(tier_index)
                .expect("tier index comes from the plan");
            let choice_program = match apply_error_model(student, Some(&self.entry), &model) {
                Ok(cp) => cp,
                Err(TransformError::NoEntryFunction) => {
                    return TracedGrade::cacheable(GradeOutcome::CannotFix)
                }
                Err(err) => {
                    // An ill-formed model is an instructor error; surface it as
                    // an unfixable submission rather than panicking mid-batch.
                    debug_assert!(false, "error model rejected at grading time: {err}");
                    return TracedGrade::cacheable(GradeOutcome::CannotFix);
                }
            };
            let signature = crate::cache::choice_signature(&choice_program);
            attempted_signatures.push(signature);
            let backend = tier.backend.unwrap_or(self.config.backend);
            // The transferred hypothesis applies only to the donor's tier,
            // and only if this submission's choice program has the shape
            // the donor's search explored.
            let warm = transfer.and_then(|repair| {
                (repair.tier == tier_index && repair.signature == signature).then(|| {
                    afg_synth::WarmStart {
                        assignment: repair.assignment.clone(),
                        counterexamples: repair.counterexamples.clone(),
                    }
                })
            });
            let mut search_span = afg_obs::stage_span!("search");
            search_span.attr("tier", tier.label.clone());
            let mut outcome = backend.synthesize_with_hint(
                &choice_program,
                &self.oracle,
                &tier.synthesis,
                warm.as_ref(),
            );
            let warm_attempted = outcome
                .stats()
                .is_some_and(|stats| stats.warm_start_attempted);
            if warm_attempted && !outcome.is_definitive() {
                // The budget truncated a warm-started search.  A truncated
                // descent explores a different trajectory than cold would
                // (the hypothesis sweep, its blocking clause and the
                // pre-seeded counterexamples all shift which candidates the
                // budget covers), so the best-so-far verdict could differ
                // from cold grading's — and verdicts must never depend on
                // cluster arrival order.  Re-grade cold and use that result;
                // the transfer is recorded as a (costly) miss.
                transfer_record.attempted = true;
                outcome = backend.synthesize_with_hint(
                    &choice_program,
                    &self.oracle,
                    &tier.synthesis,
                    None,
                );
            } else if let Some(stats) = outcome.stats() {
                transfer_record.attempted |= stats.warm_start_attempted;
                transfer_record.verified |= stats.warm_start_verified;
            }
            if let Some(stats) = outcome.stats() {
                search_span.attr("strategy", stats.strategy);
                afg_obs::counter!("afg_sat_conflicts_total", "SAT conflicts across searches")
                    .add(stats.sat_conflicts);
                afg_obs::counter!(
                    "afg_sat_propagations_total",
                    "SAT unit propagations across searches"
                )
                .add(stats.sat_propagations);
                afg_obs::counter!(
                    "afg_sat_learnts_total",
                    "SAT clauses learnt across searches"
                )
                .add(stats.sat_learnts);
            }
            drop(search_span);
            match outcome {
                SynthesisOutcome::AlreadyCorrect => {
                    return TracedGrade {
                        transfer: transfer_record,
                        ..TracedGrade::cacheable(GradeOutcome::Correct)
                    }
                }
                SynthesisOutcome::Fixed(solution) => {
                    let corrections =
                        corrections_from_assignment(&choice_program, &solution.assignment);
                    // A proven-minimal repair is a deterministic verdict; a
                    // best-so-far repair is only cacheable when the search
                    // stopped on its candidate budget — if the wall clock
                    // cut it (or an earlier tier) short, an idle machine
                    // could find a cheaper repair, and caching would pin
                    // this cost onto all alpha-equivalent resubmissions.
                    let cacheable =
                        !load_dependent && (solution.minimal || !solution.stats.wall_clock_limited);
                    let trace = RepairTrace {
                        signature,
                        assignment: solution.assignment,
                        counterexamples: solution.counterexamples,
                        stats: solution.stats.clone(),
                        tier: tier_index,
                    };
                    return TracedGrade {
                        outcome: GradeOutcome::Feedback(Feedback {
                            corrections,
                            cost: solution.cost,
                            elapsed: start.elapsed(),
                            stats: solution.stats,
                        }),
                        repair: Some(trace),
                        cacheable,
                        guard: None,
                        transfer: transfer_record,
                    };
                }
                // This tier cannot repair the submission (or ran out of
                // budget): escalate to the next, larger tier, remembering
                // whether the stop was load-dependent.
                SynthesisOutcome::NoRepairFound(stats) | SynthesisOutcome::Timeout(stats)
                    if tier_index < last_tier =>
                {
                    load_dependent |= stats.wall_clock_limited;
                }
                SynthesisOutcome::NoRepairFound(stats) => {
                    return TracedGrade {
                        outcome: GradeOutcome::CannotFix,
                        repair: None,
                        // Sound only if no earlier tier was cut short by
                        // the clock — that tier might have repaired it.
                        cacheable: !load_dependent && !stats.wall_clock_limited,
                        guard: Some(ReplayGuard {
                            combined_signature: combine_signatures(&attempted_signatures),
                            tiers_attempted: attempted_signatures.len(),
                        }),
                        transfer: transfer_record,
                    };
                }
                SynthesisOutcome::Timeout(stats) => {
                    return TracedGrade {
                        outcome: GradeOutcome::Timeout,
                        repair: None,
                        // A timeout is only a *property of the submission*
                        // when every search along the ladder exhausted its
                        // candidate budget — that replays identically
                        // anywhere.  A wall-clock stop in ANY tier depends
                        // on machine load: caching it would pin a transient
                        // verdict onto every future alpha-equivalent
                        // submission.  The strategies record which one
                        // happened.
                        cacheable: !load_dependent && !stats.wall_clock_limited,
                        guard: Some(ReplayGuard {
                            combined_signature: combine_signatures(&attempted_signatures),
                            tiers_attempted: attempted_signatures.len(),
                        }),
                        transfer: transfer_record,
                    };
                }
            }
        }
        unreachable!("the final tier always returns")
    }
}

/// The result of [`Autograder::grade_program_traced`].
pub(crate) struct TracedGrade {
    pub outcome: GradeOutcome,
    /// The replayable repair, for `Feedback` outcomes.
    pub repair: Option<RepairTrace>,
    /// Whether the verdict may be stored in the fingerprint cache.
    pub cacheable: bool,
    /// Structural guard for cached `CannotFix`/`Timeout` verdicts: these
    /// depend on the choice program searched, and error models with
    /// hardcoded teacher names make choice programs alpha-variant, so
    /// replay onto another submission must confirm the structure matches
    /// (`None` = the verdict is structure-independent, e.g. a missing
    /// entry function).
    pub guard: Option<ReplayGuard>,
    /// What happened to the offered cluster warm start, if any.
    pub transfer: TransferRecord,
}

/// Whether a transferred cluster hypothesis was tried / verified during
/// one grading run (for [`crate::ClusterIndex`]'s counters).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransferRecord {
    /// The search actually spent a verification sweep on the hypothesis.
    pub attempted: bool,
    /// The hypothesis verified and warm-started the descent.
    pub verified: bool,
}

impl TracedGrade {
    fn cacheable(outcome: GradeOutcome) -> TracedGrade {
        TracedGrade {
            outcome,
            repair: None,
            cacheable: true,
            guard: None,
            transfer: TransferRecord::default(),
        }
    }
}

/// The structural precondition for replaying a search-dependent verdict
/// (see [`TracedGrade::guard`]).
///
/// A `CannotFix`/`Timeout` verdict reflects searches over the choice
/// programs of *every* tier attempted, so the guard folds all of their
/// signatures — guarding only the final tier would let a stale verdict
/// replay onto a submission that an earlier tier (whose model need not be
/// a subset of the final one) would now repair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplayGuard {
    /// [`combine_signatures`] over the attempted tiers' choice programs,
    /// in tier order.
    pub combined_signature: u64,
    /// How many tiers (0..n) were attempted before the verdict.
    pub tiers_attempted: usize,
}

/// Folds per-tier choice-program signatures into one comparison value.
pub(crate) fn combine_signatures(signatures: &[u64]) -> u64 {
    let mut description = String::new();
    for signature in signatures {
        description.push_str(&format!("{signature:016x};"));
    }
    fnv1a64(description.as_bytes())
}

/// The replayable part of a synthesis result (see
/// [`Autograder::grade_program_traced`]).
#[derive(Debug, Clone)]
pub(crate) struct RepairTrace {
    /// The minimal-cost selection of correction options.
    pub assignment: afg_eml::ChoiceAssignment,
    /// Structural signature of the choice program the assignment indexes
    /// into (rule names and option counts; alpha-invariant).
    pub signature: u64,
    /// The counterexample input indices the search accumulated, stored by
    /// the cluster index to pre-seed cluster-mates' warm starts.
    pub counterexamples: Vec<usize>,
    /// Synthesizer counters from the original run.
    pub stats: afg_synth::SynthesisStats,
    /// Which escalation tier produced the repair — replay must rebuild the
    /// choice program with the same (possibly truncated) model.
    pub tier: usize,
}

/// Hashes everything that can change a verdict into a 64-bit fingerprint
/// (see [`Autograder::config_fingerprint`]): the canonical reference
/// source and entry name (they define the oracle), the full grading
/// configuration via its `Debug` rendering — equivalence/input-space
/// settings, budgets, backend, ladder; a later field addition cannot
/// silently fall out of the key — and the error model's rule content.
fn fingerprint_configuration(
    reference: &Program,
    entry: &str,
    config: &GraderConfig,
    model: &ErrorModel,
) -> u64 {
    let description = format!(
        "{}\u{1f}{entry}\u{1f}{config:?}\u{1f}{model:?}",
        afg_ast::canon::canonical_source(reference)
    );
    fnv1a64(description.as_bytes())
}

/// Construction-time validation of the instructor's reference program.
fn validate_reference(reference: &Program, entry: &str) -> Result<(), GraderError> {
    let Some(func) = reference.funcs.iter().rev().find(|f| f.name == entry) else {
        return Err(GraderError::MissingEntry {
            entry: entry.to_string(),
        });
    };
    for param in &func.params {
        if param.ty == afg_ast::types::MpyType::Dynamic {
            return Err(GraderError::UntypedParam {
                entry: entry.to_string(),
                param: param.name.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_eml::library;
    use afg_interp::SweepMode;

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

    fn grader() -> Autograder {
        Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            GraderConfig::fast(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_unparsable_reference() {
        let err = Autograder::new("def f(:\n", "f", ErrorModel::new("m"), GraderConfig::fast())
            .unwrap_err();
        assert!(matches!(err, GraderError::ReferenceSyntax(_)));
        assert!(err.to_string().contains("reference implementation"));
    }

    #[test]
    fn rejects_reference_without_the_entry_function() {
        let err = Autograder::new(
            "def helper(x_int):\n    return x_int\n",
            "computeDeriv",
            ErrorModel::new("m"),
            GraderConfig::fast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraderError::MissingEntry {
                entry: "computeDeriv".to_string()
            }
        );
        assert!(
            err.to_string().contains("no function named 'computeDeriv'"),
            "{err}"
        );
    }

    #[test]
    fn rejects_reference_with_untyped_parameters() {
        let err = Autograder::new(
            "def f(poly):\n    return poly\n",
            "f",
            ErrorModel::new("m"),
            GraderConfig::fast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GraderError::UntypedParam {
                entry: "f".to_string(),
                param: "poly".to_string()
            }
        );
        let rendered = err.to_string();
        assert!(rendered.contains("parameter 'poly' of 'f'"), "{rendered}");
        assert!(rendered.contains("poly_int"), "{rendered}");

        // A mix of typed and untyped parameters names the untyped one.
        let err = Autograder::new(
            "def f(n_int, acc):\n    return acc\n",
            "f",
            ErrorModel::new("m"),
            GraderConfig::fast(),
        )
        .unwrap_err();
        assert!(matches!(err, GraderError::UntypedParam { param, .. } if param == "acc"));
    }

    #[test]
    fn classifies_syntax_errors() {
        let outcome = grader().grade_source("def computeDeriv(poly)\n    return poly\n");
        assert!(matches!(outcome, GradeOutcome::SyntaxError(_)));
    }

    #[test]
    fn classifies_correct_submissions() {
        let outcome = grader().grade_source(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n",
        );
        assert_eq!(outcome, GradeOutcome::Correct);
    }

    #[test]
    fn produces_feedback_for_off_by_one_iteration() {
        let outcome = grader().grade_source(
            "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n",
        );
        let feedback = outcome.feedback().expect("expected feedback");
        // Several single-correction repairs exist (start the range at 1, or
        // drop the leading element of the result); the minimiser must find
        // one of them, i.e. exactly one correction.
        assert_eq!(feedback.cost, 1);
        assert_eq!(feedback.corrections.len(), 1);
        let rendered = feedback.to_string();
        assert!(
            rendered.contains("The program requires 1 change:"),
            "{rendered}"
        );
        assert!(rendered.contains("in line"), "{rendered}");
    }

    const OFF_BY_ONE: &str = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n";

    #[test]
    fn escalation_reaches_the_tier_that_can_repair() {
        // Tier 0 grades with zero rules (an empty model cannot repair
        // anything), tier 1 with the full model: the off-by-one submission
        // must escalate and still come out with the cost-1 feedback, byte
        // identical to single-shot grading.
        let mut config = GraderConfig::fast();
        config.escalation =
            EscalationPolicy::cheap_first(0, SynthesisConfig::fast(), SynthesisConfig::fast());
        let escalating = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            config,
        )
        .unwrap();

        let single_shot = grader().grade_source(OFF_BY_ONE);
        let escalated = escalating.grade_source(OFF_BY_ONE);
        let (a, b) = (
            single_shot.feedback().expect("feedback"),
            escalated.feedback().expect("feedback"),
        );
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.to_string(), b.to_string());
        // Correct submissions do not escalate past tier 0's verdict.
        let correct = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
        assert_eq!(escalating.grade_source(correct), GradeOutcome::Correct);
    }

    #[test]
    fn escalation_and_backend_change_the_config_fingerprint() {
        let base = grader();
        let mut enum_config = GraderConfig::fast();
        enum_config.backend = Backend::Enumerative;
        let enumerative = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            enum_config,
        )
        .unwrap();
        let mut ladder_config = GraderConfig::fast();
        ladder_config.escalation =
            EscalationPolicy::cheap_first(2, SynthesisConfig::fast(), SynthesisConfig::fast());
        let ladder = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            ladder_config,
        )
        .unwrap();

        assert_eq!(base.config_fingerprint(), grader().config_fingerprint());
        assert_ne!(base.config_fingerprint(), enumerative.config_fingerprint());
        assert_ne!(base.config_fingerprint(), ladder.config_fingerprint());
        assert_ne!(
            enumerative.config_fingerprint(),
            ladder.config_fingerprint()
        );

        // The equivalence configuration changes verdicts (it defines the
        // bounded input space), so it must change the fingerprint too.
        let mut equiv_config = GraderConfig::fast();
        equiv_config.equivalence.limits.fuel += 1;
        let equiv = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            equiv_config,
        )
        .unwrap();
        assert_ne!(base.config_fingerprint(), equiv.config_fingerprint());

        // So does the error model's *content*, not just its name: swapping
        // the model via set_model refreshes the memoized fingerprint.
        let mut swapped = grader();
        let before = swapped.config_fingerprint();
        swapped.set_model(library::compute_deriv_model().truncated(1));
        assert_ne!(before, swapped.config_fingerprint());
    }

    #[test]
    fn enum_backend_grades_like_cegis() {
        let mut config = GraderConfig::fast();
        config.backend = Backend::Enumerative;
        let enumerative = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            config,
        )
        .unwrap();
        let outcome = enumerative.grade_source(OFF_BY_ONE);
        let feedback = outcome.feedback().expect("feedback");
        assert_eq!(feedback.cost, 1);
        assert_eq!(feedback.stats.strategy, "enum");
    }

    #[test]
    fn uncompilable_submissions_grade_on_the_reference_interpreter() {
        // `acc[0].append(..)` mutates through an index receiver, which the
        // bytecode compiler cannot lower, so verification falls back to
        // concretising each candidate and running the tree interpreter.
        let source = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    acc = [[]]\n    for i in range(0, len(poly)):\n        acc[0].append(i * poly[i])\n    return acc[0]\n";
        let fallback = grader().grade_source(source);
        let mut config = GraderConfig::fast();
        config.equivalence.sweep = SweepMode::Tree;
        let tree = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            config,
        )
        .unwrap()
        .grade_source(source);
        let fallback = fallback.feedback().expect("feedback");
        let tree = tree.feedback().expect("feedback");
        assert!(!fallback.stats.sweep_compiled, "the VM cannot lower this");
        assert_eq!(fallback.cost, 1);
        assert_eq!(fallback.cost, tree.cost);
        assert_eq!(fallback.to_string(), tree.to_string());
    }

    #[test]
    fn unfixable_submissions_are_reported() {
        let outcome = grader().grade_source("def computeDeriv(poly):\n    return 42\n");
        assert!(matches!(
            outcome,
            GradeOutcome::CannotFix | GradeOutcome::Timeout
        ));
        // A program with no function at all cannot be graded either.
        let outcome = grader().grade_source("x = 1\n");
        assert!(matches!(
            outcome,
            GradeOutcome::SyntaxError(_) | GradeOutcome::CannotFix
        ));
    }
}
