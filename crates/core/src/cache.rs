//! The submission fingerprint cache.
//!
//! A class (or a MOOC) produces thousands of submissions against the same
//! assignment, and the mix is heavily skewed: identical and near-identical
//! programs recur constantly — the same copied skeleton, the same canonical
//! wrong answer, the same resubmission with renamed variables.  Grading is
//! dominated by the CEGIS search, so re-running it on a program the grader
//! has effectively already seen is pure waste.
//!
//! The cache keys grading results on the **canonical form** of the parsed
//! submission ([`afg_ast::canon`]): alpha-renamed variables plus normalized
//! formatting, so two submissions that differ only in naming, whitespace or
//! layout share one entry.  Correctness is preserved exactly:
//!
//! * `Correct` / `CannotFix` verdicts depend only on program *semantics*,
//!   which canonical equality guarantees, so they are returned as-is;
//!   `Timeout` verdicts are cached only when the search exhausted its
//!   candidate budget (deterministic on any machine) — a wall-clock
//!   timeout reflects transient load and is never cached;
//! * a `Feedback` verdict mentions line numbers and the student's own
//!   variable names, so the cached entry stores the minimal **choice
//!   assignment** instead of the rendered feedback, and a hit *replays*
//!   that assignment against the choice program of the submission actually
//!   being graded — the expensive search is skipped, the replayed repair is
//!   **re-verified** on the bounded input space (error models may embed
//!   teacher-written fragments with hardcoded names, so alpha-equivalent
//!   submissions need not agree on every candidate), and the feedback is
//!   rendered from the submission's own source.  Byte-for-byte resubmission
//!   of the same source replays to byte-identical feedback; an
//!   alpha-renamed variant receives an equally minimal (verified) repair
//!   that may pick a different correction when several tie;
//! * the full canonical source is the map key prefixed by the grader's
//!   [`Autograder::config_fingerprint`] (the 64-bit source fingerprint is
//!   only a convenience for logging), so hash collisions are impossible,
//!   configuration changes cannot cross-contaminate, and the replay path
//!   re-validates the choice-program structure, falling back to a fresh
//!   grading run on any mismatch.
//!
//! A second, raw-text-keyed map short-circuits submissions that do not
//! parse: byte-identical broken files (another classroom staple) skip even
//! the parse.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use afg_ast::canon::{canonical_source, fnv1a64, skeleton_source};
use afg_ast::Program;
use afg_eml::{apply_error_model, ChoiceAssignment, ChoiceProgram};
use afg_parser::{parse_program, ParseError};
use afg_synth::SynthesisStats;

use crate::cluster::{ClusterIndex, ClusterRepair};
use crate::feedback::{corrections_from_assignment, Feedback};
use crate::grader::{Autograder, GradeOutcome};

/// How one clustered-grading call was answered (see
/// [`Autograder::grade_source_clustered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GradeDisposition {
    /// Whether the fingerprint cache answered.
    pub cache_hit: bool,
    /// Whether a cluster repair transfer was tried, and if so whether the
    /// hypothesis verified (`None` = no transfer was attempted — no
    /// cluster index, no representative yet, structural mismatch, or the
    /// lookup was answered upstream).
    pub transfer: Option<bool>,
}

/// One cached grading verdict (see the module docs for why `Fixed` stores
/// an assignment rather than the feedback).
#[derive(Debug, Clone)]
enum CachedGrade {
    Correct,
    CannotFix {
        /// Structural precondition (`None` = structure-independent, e.g. a
        /// missing entry function).  A search-produced no-repair verdict
        /// only transfers to a submission whose choice program has the
        /// same shape — hardcoded teacher names in a model can make the
        /// shapes diverge across alpha-renamings.
        guard: Option<crate::grader::ReplayGuard>,
    },
    Timeout {
        /// As for `CannotFix`.
        guard: Option<crate::grader::ReplayGuard>,
    },
    Fixed {
        assignment: ChoiceAssignment,
        cost: usize,
        /// Boxed to keep `Fixed` from dwarfing the unit-like variants.
        stats: Box<SynthesisStats>,
        signature: u64,
        /// The escalation tier that produced the repair; replay rebuilds
        /// the choice program with the same tier model.
        tier: usize,
    },
}

/// Counters describing how the cache has performed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a full grading run.
    pub misses: u64,
    /// Distinct canonical forms currently stored.
    pub entries: usize,
    /// Distinct non-parsing sources currently stored.
    pub syntax_entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when the cache is untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent map from canonical submission form to grading verdict.
///
/// Shared by reference across grading workers; lookups take a read lock,
/// inserts a write lock.  Concurrent misses on the *same* canonical form
/// are **single-flighted**: the first worker runs the search while the
/// rest block until the entry lands, then replay it as a hit — without
/// this, a hot submission arriving on N connections at once (the very
/// skew the cache exists for) would run N identical CEGIS searches.
#[derive(Debug, Default)]
pub struct FingerprintCache {
    entries: RwLock<HashMap<String, CachedGrade>>,
    syntax: RwLock<HashMap<String, ParseError>>,
    /// Canonical forms currently being graded by some worker.
    inflight: Mutex<HashSet<String>>,
    /// Signalled whenever an in-flight grading completes (or aborts).
    inflight_done: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Hard bound on stored entries per map.  A long-running daemon must not
/// grow without limit under a stream of distinct submissions; once a map is
/// full, new verdicts are simply not stored (the resident entries are the
/// oldest, which in classroom traffic are also the hottest).  At typical
/// submission sizes this bounds each map to low hundreds of MB.
const MAX_ENTRIES: usize = 65_536;

/// How many learned killer inputs a cluster contributes to a warm start's
/// priority counterexamples.  Small on purpose: each hint costs one
/// candidate execution per surviving sweep, and the head of the lethality
/// ranking carries nearly all of the rejection power.
const KILLER_HINT_LIMIT: usize = 8;

impl FingerprintCache {
    /// Creates an empty cache.
    pub fn new() -> FingerprintCache {
        FingerprintCache::default()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.read().expect("cache lock").len(),
            syntax_entries: self.syntax.read().expect("cache lock").len(),
        }
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            afg_obs::counter!("afg_cache_hits_total", "Fingerprint-cache hits").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            afg_obs::counter!("afg_cache_misses_total", "Fingerprint-cache misses").inc();
        }
    }

    /// Claims the right to grade `key`, or waits for the worker already
    /// grading it.  Returns a guard when this caller should grade; `None`
    /// after another worker has published the entry (the caller re-reads
    /// the map).
    fn claim_or_wait<'cache, 'key>(
        &'cache self,
        key: &'key str,
    ) -> Option<InflightGuard<'cache, 'key>> {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        loop {
            if !inflight.contains(key) {
                inflight.insert(key.to_string());
                return Some(InflightGuard { cache: self, key });
            }
            // Bounded waits so an aborted grading (panicked worker whose
            // guard already cleaned up, spurious wakeups, …) can never
            // wedge a waiter; each wakeup re-checks the published map.
            let (guard, _) = self
                .inflight_done
                .wait_timeout(inflight, Duration::from_millis(50))
                .expect("inflight lock");
            inflight = guard;
            if self.entries.read().expect("cache lock").contains_key(key) {
                return None;
            }
        }
    }
}

/// Removes the in-flight marker on drop — including on unwind, so a
/// panicking grading run cannot leave waiters stranded.
struct InflightGuard<'cache, 'key> {
    cache: &'cache FingerprintCache,
    key: &'key str,
}

impl Drop for InflightGuard<'_, '_> {
    fn drop(&mut self) {
        self.cache
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(self.key);
        self.cache.inflight_done.notify_all();
    }
}

/// The structural signature of a choice program: rule names and option
/// counts per site, in site order.  Deliberately **alpha-invariant** (the
/// rendered option *texts* contain variable names and are excluded) so the
/// signature agrees across alpha-equivalent submissions, yet any structural
/// drift — a rule matching differently than it did for the cached
/// representative — is caught before a stale assignment is replayed.
pub(crate) fn choice_signature(choice_program: &ChoiceProgram) -> u64 {
    let mut description = String::new();
    for info in &choice_program.choices {
        description.push_str(&info.rule);
        description.push('/');
        description.push_str(&info.options.len().to_string());
        description.push(';');
    }
    fnv1a64(description.as_bytes())
}

impl Autograder {
    /// Grades a submission through the fingerprint cache.
    ///
    /// Returns the outcome and whether it was served from the cache.  The
    /// outcome is identical to what [`Autograder::grade_source`] would
    /// produce (for `Feedback`, byte-identical rendered text; only the
    /// `elapsed` timing differs, honestly reporting the hit's cost).
    pub fn grade_source_cached(
        &self,
        source: &str,
        cache: &FingerprintCache,
    ) -> (GradeOutcome, bool) {
        let (outcome, disposition) = self.grade_source_clustered(source, cache, None);
        (outcome, disposition.cache_hit)
    }

    /// Grades a submission through the fingerprint cache *and* the cluster
    /// index: exact canonical matches replay the cached verdict as before;
    /// on a miss, the submission's structural skeleton is looked up in
    /// `clusters` and the cluster representative's verified repair (if
    /// any) warm-starts the search (see [`ClusterIndex`]).  Outcomes stay
    /// cost-identical to [`Autograder::grade_source`]; only the search
    /// effort changes.
    pub fn grade_source_clustered(
        &self,
        source: &str,
        cache: &FingerprintCache,
        clusters: Option<&ClusterIndex>,
    ) -> (GradeOutcome, GradeDisposition) {
        let hit = |outcome| {
            (
                outcome,
                GradeDisposition {
                    cache_hit: true,
                    transfer: None,
                },
            )
        };
        // Level 1: byte-identical sources that failed to parse before.
        // Keyed by the full source text — a hash collision must never turn
        // a parsable program into someone else's syntax error.
        if let Some(err) = cache.syntax.read().expect("cache lock").get(source) {
            cache.record(true);
            return hit(GradeOutcome::SyntaxError(err.clone()));
        }

        let parse_span = afg_obs::stage_span!("parse");
        let program = match parse_program(source) {
            Ok(program) => program,
            Err(err) => {
                let mut syntax = cache.syntax.write().expect("cache lock");
                if syntax.len() < MAX_ENTRIES {
                    syntax.insert(source.to_string(), err.clone());
                }
                drop(syntax);
                cache.record(false);
                return (GradeOutcome::SyntaxError(err), GradeDisposition::default());
            }
        };
        drop(parse_span);

        // Level 2: canonical-form lookup.  The key mixes in the grader's
        // configuration fingerprint (backend, budgets, escalation ladder,
        // model identity) so graders with different configurations can
        // share one cache without cross-contaminating verdicts.
        let canon_span = afg_obs::stage_span!("canon");
        let key = format!(
            "{:016x}\n{}",
            self.config_fingerprint(),
            canonical_source(&program)
        );
        drop(canon_span);
        let lookup_span = afg_obs::stage_span!("cache_lookup");
        let cached = cache.entries.read().expect("cache lock").get(&key).cloned();
        if let Some(entry) = cached {
            if let Some(outcome) = self.replay(&program, &entry) {
                cache.record(true);
                return hit(outcome);
            }
            // Structural mismatch (possible only if rule matching is not
            // alpha-invariant for this model): fall through and re-grade.
        }
        drop(lookup_span);

        // Single-flight: either claim the grading of this canonical form,
        // or wait for the worker already grading it and replay its result.
        // The span covers the (possibly long) wait on the in-flight
        // worker plus the replay of its published entry.
        let wait_span = afg_obs::stage_span!("cache_wait");
        let guard = cache.claim_or_wait(&key);
        if guard.is_none() {
            let cached = cache.entries.read().expect("cache lock").get(&key).cloned();
            if let Some(entry) = cached {
                if let Some(outcome) = self.replay(&program, &entry) {
                    cache.record(true);
                    return hit(outcome);
                }
            }
            // The published entry did not replay (or vanished): grade it
            // ourselves, un-deduplicated.
        }
        drop(wait_span);

        // Level 3: the cluster index.  A distinct canonical form is about
        // to be searched — record its skeleton's cluster membership and
        // fetch the representative's repair as a warm-start candidate.
        let cluster_span = afg_obs::stage_span!("cluster_lookup");
        let cluster = clusters.map(|index| {
            let cluster_key = format!(
                "{:016x}\n{}",
                self.config_fingerprint(),
                skeleton_source(&program)
            );
            let repair = index.observe(&cluster_key);
            (index, cluster_key, repair)
        });
        // Learned input ordering: extend the transferred repair's priority
        // counterexamples with the cluster's historically lethal deck
        // indices, so the warm search probes likely killers before sweeping.
        // Appending preserves the donor's own counterexamples; the search
        // dedups and bounds-checks priority indices, so stale hints are
        // harmless.
        let warm = cluster.as_ref().and_then(|(index, cluster_key, repair)| {
            repair.as_ref().map(|repair| {
                let mut hinted = repair.clone();
                for cex in index.killer_ordering(cluster_key, KILLER_HINT_LIMIT) {
                    if !hinted.counterexamples.contains(&cex) {
                        hinted.counterexamples.push(cex);
                    }
                }
                hinted
            })
        });
        drop(cluster_span);

        let traced = self.grade_program_traced_warm(&program, warm.as_ref());

        // Transfer accounting: an attempt is a hypothesis the search
        // actually spent a verification sweep on; the conflicts-saved
        // estimate compares the warm run's SAT work against the donor's
        // recorded cold search.
        let mut transfer = None;
        if let Some((index, _, Some(repair))) = &cluster {
            if traced.transfer.attempted {
                let saved = if traced.transfer.verified {
                    let spent = match &traced.outcome {
                        GradeOutcome::Feedback(feedback) => feedback.stats.sat_conflicts,
                        _ => 0,
                    };
                    repair.sat_conflicts.saturating_sub(spent)
                } else {
                    0
                };
                index.record_transfer(traced.transfer.verified, saved);
                transfer = Some(traced.transfer.verified);
            }
        }

        // A deterministic repair earned without (or despite) a transfer
        // becomes the cluster representative for future skeleton-mates.
        if let Some((index, cluster_key, None)) = &cluster {
            if traced.cacheable {
                if let (GradeOutcome::Feedback(_), Some(trace)) = (&traced.outcome, &traced.repair)
                {
                    index.publish(
                        cluster_key,
                        ClusterRepair {
                            assignment: trace.assignment.clone(),
                            counterexamples: trace.counterexamples.clone(),
                            signature: trace.signature,
                            tier: trace.tier,
                            sat_conflicts: trace.stats.sat_conflicts,
                        },
                    );
                }
            }
        }

        // Killer-input statistics: remember which deck indices actually
        // falsified this skeleton's candidates, so future cluster-mates
        // sweep those inputs counterexample-first.
        if let Some((index, cluster_key, _)) = &cluster {
            if let Some(trace) = &traced.repair {
                index.record_killers(cluster_key, &trace.counterexamples);
            }
        }
        let entry = match (&traced.outcome, traced.repair, traced.cacheable) {
            (_, _, false) => None,
            (GradeOutcome::Correct, _, _) => Some(CachedGrade::Correct),
            (GradeOutcome::CannotFix, _, _) => Some(CachedGrade::CannotFix {
                guard: traced.guard,
            }),
            (GradeOutcome::Timeout, _, _) => Some(CachedGrade::Timeout {
                guard: traced.guard,
            }),
            (GradeOutcome::Feedback(feedback), Some(trace), _) => Some(CachedGrade::Fixed {
                assignment: trace.assignment,
                cost: feedback.cost,
                stats: Box::new(trace.stats),
                signature: trace.signature,
                tier: trace.tier,
            }),
            _ => None,
        };
        if let Some(entry) = entry {
            let mut entries = cache.entries.write().expect("cache lock");
            if entries.len() < MAX_ENTRIES {
                entries.insert(key.clone(), entry);
            }
        }
        drop(guard); // release the in-flight claim only after publishing
        cache.record(false);
        (
            traced.outcome,
            GradeDisposition {
                cache_hit: false,
                transfer,
            },
        )
    }

    /// Replays a cached verdict against the submission actually being
    /// graded.  Returns `None` when the cached assignment does not fit this
    /// submission's choice program — the caller then grades afresh.
    fn replay(&self, program: &Program, entry: &CachedGrade) -> Option<GradeOutcome> {
        let (assignment, cost, stats, signature, tier) = match entry {
            // Correctness depends only on program semantics, which
            // canonical equality guarantees.
            CachedGrade::Correct => return Some(GradeOutcome::Correct),
            // Search-dependent verdicts transfer only when this
            // submission's choice program has the same structure the
            // search actually explored.
            CachedGrade::CannotFix { guard } => {
                return self
                    .guard_holds(program, *guard)
                    .then_some(GradeOutcome::CannotFix)
            }
            CachedGrade::Timeout { guard } => {
                return self
                    .guard_holds(program, *guard)
                    .then_some(GradeOutcome::Timeout)
            }
            CachedGrade::Fixed {
                assignment,
                cost,
                stats,
                signature,
                tier,
            } => (assignment, *cost, stats.as_ref(), *signature, *tier),
        };
        let start = Instant::now();
        // Rebuild with the model of the tier that found the repair — under
        // an escalation ladder the full model would produce a different
        // choice program than the (truncated) tier model did.
        let model = self.tier_model(tier)?;
        let choice_program = apply_error_model(program, Some(self.entry()), &model).ok()?;
        if choice_signature(&choice_program) != signature {
            return None;
        }
        for (id, option) in assignment.non_default() {
            let info = choice_program.choice_info(id)?;
            if option >= info.options.len() {
                return None;
            }
        }
        // Re-verify: the replayed assignment must actually repair *this*
        // submission.  Error models may embed teacher-supplied fragments
        // with hardcoded names (e.g. a BASECASE insertion mentioning the
        // reference's parameter), so two alpha-equivalent submissions are
        // not guaranteed to agree on every candidate — one bounded sweep
        // (the cost of checking a correct submission, far below a search)
        // turns that hazard into a fresh-grade fallback.
        let session = self.oracle().choice_session(&choice_program);
        if !session.is_equivalent(assignment) {
            return None;
        }
        let corrections = corrections_from_assignment(&choice_program, assignment);
        Some(GradeOutcome::Feedback(Feedback {
            corrections,
            cost,
            elapsed: start.elapsed(),
            stats: stats.clone(),
        }))
    }

    /// Whether a cached search-dependent verdict's structural guard holds
    /// for `program`: every attempted tier's model produces a choice
    /// program with the signature the original searches explored (all of
    /// them — an earlier tier's model need not be a subset of the final
    /// one, so any tier's structure diverging invalidates the verdict).
    /// `None` guards (verdicts independent of the choice structure) always
    /// hold.
    fn guard_holds(&self, program: &Program, guard: Option<crate::grader::ReplayGuard>) -> bool {
        let Some(guard) = guard else {
            return true;
        };
        let mut signatures = Vec::with_capacity(guard.tiers_attempted);
        for tier in 0..guard.tiers_attempted {
            let Some(model) = self.tier_model(tier) else {
                return false;
            };
            match apply_error_model(program, Some(self.entry()), &model) {
                Ok(choice_program) => signatures.push(choice_signature(&choice_program)),
                Err(_) => return false,
            }
        }
        crate::grader::combine_signatures(&signatures) == guard.combined_signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grader::GraderConfig;
    use afg_eml::library;

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

    /// The paper's off-by-one submission, and an alpha-renamed,
    /// reformatted variant of the same program.
    const BUGGY: &str = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
    const BUGGY_RENAMED: &str = "def computeDeriv(coeffs):\n    if len(coeffs) == 1:\n        return [0]\n    out = []\n    for k in range(0, len(coeffs)):\n        out.append(k * coeffs[k])\n    return out\n";
    const CORRECT: &str = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n";

    fn grader() -> Autograder {
        // Candidate-bounded budget: deterministic outcomes regardless of
        // machine load, as the cache-equivalence assertions require.
        let config = GraderConfig {
            synthesis: afg_synth::SynthesisConfig {
                max_cost: 3,
                max_candidates: 2_000,
                time_budget: std::time::Duration::from_secs(600),
            },
            ..GraderConfig::fast()
        };
        Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            config,
        )
        .unwrap()
    }

    #[test]
    fn identical_resubmission_hits_and_feedback_is_byte_identical() {
        let grader = grader();
        let cache = FingerprintCache::new();
        let fresh = grader.grade_source(BUGGY);
        let (first, hit1) = grader.grade_source_cached(BUGGY, &cache);
        let (second, hit2) = grader.grade_source_cached(BUGGY, &cache);
        assert!(!hit1);
        assert!(hit2);
        let rendered: Vec<String> = [&fresh, &first, &second]
            .iter()
            .map(|o| o.feedback().expect("feedback").to_string())
            .collect();
        assert_eq!(rendered[0], rendered[1]);
        assert_eq!(rendered[1], rendered[2]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn alpha_renamed_submission_hits_with_a_verified_repair_of_its_own() {
        let grader = grader();
        let cache = FingerprintCache::new();
        let (_, hit1) = grader.grade_source_cached(BUGGY, &cache);
        assert!(!hit1);
        let (outcome, hit2) = grader.grade_source_cached(BUGGY_RENAMED, &cache);
        assert!(hit2, "alpha-equivalent submission must hit");
        // Replay re-verifies the cached assignment against the renamed
        // submission, so the feedback is a true repair of *it*: same
        // minimal cost as a fresh grade (several cost-1 repairs tie; replay
        // may legitimately pick a different one than a fresh search would).
        let fresh = grader.grade_source(BUGGY_RENAMED);
        let replayed = outcome.feedback().expect("feedback");
        assert_eq!(replayed.cost, fresh.feedback().expect("feedback").cost);
        // The replayed repair really fixes the renamed submission.
        let renamed = afg_parser::parse_program(BUGGY_RENAMED).unwrap();
        let choice_program =
            apply_error_model(&renamed, Some(grader.entry()), grader.model()).unwrap();
        let session = grader.oracle().choice_session(&choice_program);
        // Reconstruct the assignment from the cache entry to check it.
        let key = format!(
            "{:016x}\n{}",
            grader.config_fingerprint(),
            afg_ast::canon::canonical_source(&renamed)
        );
        let entries = cache.entries.read().unwrap();
        let assignment = match entries.get(&key).expect("cached entry") {
            CachedGrade::Fixed {
                assignment: cached, ..
            } => cached.clone(),
            other => panic!("expected a Fixed entry, got {other:?}"),
        };
        drop(entries);
        assert!(session.is_equivalent(&assignment));
        // And it must not leak text from the cached representative: any
        // variable the message mentions is the renamed submission's own.
        assert!(!replayed.to_string().contains("poly"));
    }

    #[test]
    fn correct_and_unfixable_verdicts_cache_too() {
        let grader = grader();
        let cache = FingerprintCache::new();
        assert_eq!(
            grader.grade_source_cached(CORRECT, &cache).0,
            GradeOutcome::Correct
        );
        let (outcome, hit) = grader.grade_source_cached(CORRECT, &cache);
        assert_eq!(outcome, GradeOutcome::Correct);
        assert!(hit);

        let hopeless = "def computeDeriv(poly):\n    return 42\n";
        let (first, _) = grader.grade_source_cached(hopeless, &cache);
        let (second, hit) = grader.grade_source_cached(hopeless, &cache);
        assert_eq!(first, second);
        assert!(hit);
    }

    /// A cohort member: the paper's off-by-one bug plus an unused
    /// assignment whose constant varies per student — distinct canonical
    /// forms (so the exact cache misses) sharing one skeleton.
    fn cohort_member(constant: i64) -> String {
        format!(
            "def computeDeriv(poly):\n    scratch = {constant}\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n"
        )
    }

    #[test]
    fn skeleton_mates_transfer_the_repair_and_stay_cost_identical() {
        let grader = grader();
        let cache = FingerprintCache::new();
        let clusters = crate::ClusterIndex::new();
        let cohort: Vec<String> = [7, 21, 99].into_iter().map(cohort_member).collect();

        let mut dispositions = Vec::new();
        let mut outcomes = Vec::new();
        for source in &cohort {
            let (outcome, disposition) =
                grader.grade_source_clustered(source, &cache, Some(&clusters));
            outcomes.push(outcome);
            dispositions.push(disposition);
        }

        // The first member grades cold and becomes the representative; the
        // mates' searches try its repair and it verifies.
        assert!(!dispositions[0].cache_hit);
        assert_eq!(dispositions[0].transfer, None);
        for disposition in &dispositions[1..] {
            assert!(!disposition.cache_hit, "distinct canonical forms");
            assert_eq!(disposition.transfer, Some(true), "{dispositions:?}");
        }

        // Cost identity with plain cold grading, member by member.
        let donor_stats = outcomes[0].feedback().expect("fixable").stats.clone();
        for (source, outcome) in cohort.iter().zip(&outcomes) {
            let cold = grader.grade_source(source);
            assert_eq!(
                cold.feedback().expect("fixable").cost,
                outcome.feedback().expect("fixable").cost
            );
        }
        // And the warm-started mates did strictly less search work.
        for outcome in &outcomes[1..] {
            let stats = &outcome.feedback().expect("fixable").stats;
            assert!(stats.warm_start_verified);
            assert!(
                stats.candidates_checked < donor_stats.candidates_checked,
                "warm {} vs donor {}",
                stats.candidates_checked,
                donor_stats.candidates_checked
            );
        }

        let stats = clusters.stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.members, 3);
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.transfer_attempts, 2);
        assert_eq!(stats.transfer_hits, 2);
    }

    #[test]
    fn correct_skeleton_mates_do_not_count_as_transfer_attempts() {
        // `range(0, …)` and `range(1, …)` share a skeleton (constants are
        // erased), so the correct variant lands in the buggy cluster — but
        // its grade short-circuits at the already-correct check and no
        // hypothesis is ever tried.
        let grader = grader();
        let cache = FingerprintCache::new();
        let clusters = crate::ClusterIndex::new();
        let (_, first) = grader.grade_source_clustered(&cohort_member(7), &cache, Some(&clusters));
        assert_eq!(first.transfer, None);
        let correct = "def computeDeriv(poly):\n    scratch = 5\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
        let (outcome, disposition) =
            grader.grade_source_clustered(correct, &cache, Some(&clusters));
        assert_eq!(outcome, GradeOutcome::Correct);
        assert_eq!(disposition.transfer, None);
        let stats = clusters.stats();
        assert_eq!(stats.clusters, 1, "same skeleton, one cluster");
        assert_eq!(stats.members, 2);
        assert_eq!(stats.transfer_attempts, 0);
    }

    #[test]
    fn refuted_transfers_fall_back_to_the_cold_verdict() {
        // A mate whose *material* constant differs: the donor's repair
        // (increment the range start) does not fix `range(2, …)`, so the
        // hypothesis is refuted and grading falls back to the cold path —
        // whose verdict must be exactly what plain grading produces.
        let grader = grader();
        let cache = FingerprintCache::new();
        let clusters = crate::ClusterIndex::new();
        let (_, first) = grader.grade_source_clustered(&cohort_member(7), &cache, Some(&clusters));
        assert_eq!(first.transfer, None);

        let drifted = "def computeDeriv(poly):\n    scratch = 7\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(2, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
        let (outcome, disposition) =
            grader.grade_source_clustered(drifted, &cache, Some(&clusters));
        let cold = grader.grade_source(drifted);
        match (&outcome, &cold) {
            (GradeOutcome::Feedback(warm), GradeOutcome::Feedback(cold)) => {
                assert_eq!(warm.cost, cold.cost)
            }
            (warm, cold) => assert_eq!(warm, cold),
        }
        if let Some(verified) = disposition.transfer {
            assert!(!verified, "the drifted mate's hypothesis must be refuted");
        }
        assert_eq!(clusters.stats().transfer_hits, 0);
    }

    #[test]
    fn syntax_errors_cache_by_raw_source() {
        let grader = grader();
        let cache = FingerprintCache::new();
        let broken = "def computeDeriv(poly)\n    return poly\n";
        let (first, hit1) = grader.grade_source_cached(broken, &cache);
        let (second, hit2) = grader.grade_source_cached(broken, &cache);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        assert!(matches!(first, GradeOutcome::SyntaxError(_)));
        assert_eq!(cache.stats().syntax_entries, 1);
    }

    #[test]
    fn wall_clock_timeouts_are_never_cached() {
        // A zero wall-clock budget times every incorrect submission out
        // before the candidate budget is touched — a load-dependent
        // verdict the cache must not pin onto future submissions, whichever
        // back end ran the search.
        for backend in afg_synth::Backend::ALL {
            let config = GraderConfig {
                synthesis: afg_synth::SynthesisConfig {
                    max_cost: 3,
                    max_candidates: 1_000_000,
                    time_budget: std::time::Duration::ZERO,
                },
                backend,
                ..GraderConfig::fast()
            };
            let grader = Autograder::new(
                REFERENCE,
                "computeDeriv",
                library::compute_deriv_model(),
                config,
            )
            .unwrap();
            let cache = FingerprintCache::new();
            let (first, hit1) = grader.grade_source_cached(BUGGY, &cache);
            let (second, hit2) = grader.grade_source_cached(BUGGY, &cache);
            assert_eq!(first, GradeOutcome::Timeout, "{backend:?}");
            assert_eq!(second, GradeOutcome::Timeout, "{backend:?}");
            assert!(!hit1, "{backend:?}");
            assert!(
                !hit2,
                "{backend:?}: a wall-clock timeout must not be served from cache"
            );
            assert_eq!(cache.stats().entries, 0, "{backend:?}");
        }

        // The flip side: a candidate-budget timeout is deterministic and
        // IS cacheable.
        let config = GraderConfig {
            synthesis: afg_synth::SynthesisConfig {
                max_cost: 3,
                max_candidates: 3,
                time_budget: std::time::Duration::from_secs(600),
            },
            ..GraderConfig::fast()
        };
        let grader = Autograder::new(
            REFERENCE,
            "computeDeriv",
            library::compute_deriv_model(),
            config,
        )
        .unwrap();
        let cache = FingerprintCache::new();
        let (first, hit1) = grader.grade_source_cached(BUGGY, &cache);
        let (second, hit2) = grader.grade_source_cached(BUGGY, &cache);
        assert_eq!(first, GradeOutcome::Timeout);
        assert_eq!(second, GradeOutcome::Timeout);
        assert!(!hit1);
        assert!(hit2, "a candidate-budget timeout replays identically");
    }

    #[test]
    fn concurrent_misses_on_one_submission_are_single_flighted() {
        let grader = grader();
        let cache = FingerprintCache::new();
        let outcomes: Vec<(GradeOutcome, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| grader.grade_source_cached(BUGGY, &cache)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one thread ran the search; the rest waited and replayed.
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 3, "{stats:?}");
        assert_eq!(outcomes.iter().filter(|(_, hit)| !hit).count(), 1);
        let rendered: Vec<String> = outcomes
            .iter()
            .map(|(o, _)| o.feedback().expect("feedback").to_string())
            .collect();
        assert!(rendered.iter().all(|r| r == &rendered[0]));
    }

    #[test]
    fn hit_rate_tracks_counters() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            syntax_entries: 0,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
