//! The request handlers behind the router: problem registration, single
//! grading, and batch grading.

use std::time::{Duration, Instant};

use afg_core::{
    Autograder, BatchGrader, ClusterIndex, FingerprintCache, GradeOutcome, GraderConfig,
};
use afg_eml::parse_error_model;
use afg_json::{parse_json, Json, ToJson};
use afg_obs::Trace;

use crate::http::Request;
use crate::registry::{OutcomeCounters, ProblemEntry, Registry};
use crate::router::{error_json, Reply};
use crate::server::ServiceState;

/// Most workers a single batch request may ask for — a remote client must
/// not be able to make the daemon spawn an arbitrary number of OS threads.
const MAX_BATCH_WORKERS: usize = 64;

/// Stable outcome label for the `afg_grade_outcomes_total` counter and
/// the root span's `outcome` attribute.
fn outcome_label(outcome: &GradeOutcome) -> &'static str {
    match outcome {
        GradeOutcome::SyntaxError(_) => "syntax_error",
        GradeOutcome::Correct => "correct",
        GradeOutcome::Feedback(_) => "fixed",
        GradeOutcome::CannotFix => "cannot_fix",
        GradeOutcome::Timeout => "timeout",
    }
}

fn parse_body(request: &Request) -> Result<Json, (u16, Json)> {
    let text =
        std::str::from_utf8(&request.body).map_err(|_| (400, error_json("body is not UTF-8")))?;
    parse_json(text).map_err(|err| (400, error_json(&err.to_string())))
}

/// Applies the shared search-budget override fields of `body` to
/// `synthesis` (`"max_cost"`, `"max_candidates"`, `"time_budget_ms"`).
/// Fails, naming the field, when `"time_budget_ms"` does not fit a
/// `Duration`.
fn apply_budget_overrides(
    body: &Json,
    synthesis: &mut afg_core::SynthesisConfig,
) -> Result<(), String> {
    if let Some(max_cost) = body.get("max_cost").and_then(Json::as_i64) {
        synthesis.max_cost = max_cost.max(0) as usize;
    }
    if let Some(max_candidates) = body.get("max_candidates").and_then(Json::as_i64) {
        synthesis.max_candidates = max_candidates.max(0) as usize;
    }
    if let Some(budget_ms) = body.get("time_budget_ms").and_then(Json::as_f64) {
        synthesis.time_budget = Duration::try_from_secs_f64(budget_ms.max(0.0) / 1e3)
            .map_err(|_| "'time_budget_ms' is out of range".to_string())?;
    }
    Ok(())
}

/// `POST /problems` — body:
/// `{"problem": "compDeriv"}` registers a built-in benchmark problem, or
/// `{"id", "entry", "reference", "model"}` registers instructor-supplied
/// MPY reference source plus an EML error-model text.  Optional fields:
/// `"cache": bool` (default true), `"clustering": bool` (default true;
/// skeleton-cluster repair transfer, effective only with the cache),
/// `"max_cost"`, `"max_candidates"`, `"time_budget_ms"` (search budget
/// overrides),
/// `"backend": "cegis" | "enum"` (search engine),
/// `"sweep": "compiled" | "tree"` (verification back end: bytecode VM,
/// default, or the reference tree interpreter), and
/// `"escalation": [{"label"?, "rules"?, "backend"?, "max_cost"?,
/// "max_candidates"?, "time_budget_ms"?}, ...]` — an escalation ladder
/// graded cheapest tier first (`"rules": n` truncates the error model to
/// its first `n` rules for that tier; omitted budget fields inherit the
/// problem-level budget).
pub(crate) fn handle_register(request: &Request, registry: &Registry) -> (u16, Json) {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };

    let mut config = GraderConfig::fast();
    if let Err(message) = apply_budget_overrides(&body, &mut config.synthesis) {
        return (422, error_json(&message));
    }
    // Per-problem verification back end: "compiled" (default) sweeps the
    // input deck on the bytecode VM, "tree" opts this problem out and
    // runs each candidate on the reference interpreter — an escape hatch
    // should a submission shape trip the compiler.  Outcomes are identical
    // either way.
    if let Some(sweep_name) = body.get("sweep").and_then(Json::as_str) {
        match afg_core::SweepMode::parse(sweep_name) {
            Some(sweep) => config.equivalence.sweep = sweep,
            None => {
                return (
                    422,
                    error_json(&format!(
                        "unknown sweep mode '{sweep_name}' (expected tree or compiled)"
                    )),
                );
            }
        }
    }
    if let Some(backend_name) = body.get("backend").and_then(Json::as_str) {
        match afg_core::Backend::parse(backend_name) {
            Some(backend) => config.backend = backend,
            None => {
                return (
                    422,
                    error_json(&format!(
                        "unknown backend '{backend_name}' (expected cegis or enum)"
                    )),
                );
            }
        }
    }
    if let Some(tiers) = body.get("escalation") {
        let Some(tiers) = tiers.as_array() else {
            return (400, error_json("'escalation' must be an array of tiers"));
        };
        for (index, tier) in tiers.iter().enumerate() {
            if !matches!(tier, Json::Object(_)) {
                return (
                    400,
                    error_json(&format!("escalation[{index}] must be an object")),
                );
            }
            let mut synthesis = config.synthesis.clone();
            if let Err(message) = apply_budget_overrides(tier, &mut synthesis) {
                return (422, error_json(&format!("escalation[{index}]: {message}")));
            }
            let backend = match tier.get("backend").and_then(Json::as_str) {
                Some(name) => match afg_core::Backend::parse(name) {
                    Some(backend) => Some(backend),
                    None => {
                        return (
                            422,
                            error_json(&format!("escalation[{index}]: unknown backend '{name}'")),
                        );
                    }
                },
                None => None,
            };
            let model_rules = tier
                .get("rules")
                .and_then(Json::as_i64)
                .map(|rules| rules.max(0) as usize);
            let label = tier
                .get("label")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("tier-{index}"));
            config.escalation.tiers.push(afg_core::EscalationTier {
                label,
                model_rules,
                synthesis,
                backend,
            });
        }
    }
    let use_cache = body.get("cache").and_then(Json::as_bool).unwrap_or(true);
    // Cluster transfer rides on the cache-miss path, so it is only
    // meaningful when the cache is on.
    let use_clustering = use_cache
        && body
            .get("clustering")
            .and_then(Json::as_bool)
            .unwrap_or(true);

    let built = if let Some(problem_id) = body.get("problem").and_then(Json::as_str) {
        let Some(problem) = afg_corpus::problems::problem(problem_id) else {
            return (
                404,
                error_json(&format!("unknown built-in problem '{problem_id}'")),
            );
        };
        let id = body
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or(problem.id)
            .to_string();
        Autograder::new(
            problem.reference,
            problem.entry,
            problem.model.clone(),
            config,
        )
        .map(|grader| (id, grader))
    } else {
        let field = |name: &str| {
            body.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing string field '{name}'"))
        };
        let (id, entry, reference, model_text) = match (
            field("id"),
            field("entry"),
            field("reference"),
            field("model"),
        ) {
            (Ok(id), Ok(entry), Ok(reference), Ok(model)) => (id, entry, reference, model),
            (id, entry, reference, model) => {
                let message = [id.err(), entry.err(), reference.err(), model.err()]
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
                    .join("; ");
                return (400, error_json(&message));
            }
        };
        let model = match parse_error_model(id, model_text) {
            Ok(model) => model,
            Err(err) => return (422, error_json(&format!("error model: {err}"))),
        };
        Autograder::new(reference, entry, model, config).map(|grader| (id.to_string(), grader))
    };

    match built {
        Ok((id, grader)) => {
            let response = Json::object([
                ("id", Json::str(&id)),
                ("entry", Json::str(grader.entry())),
                ("cache", Json::Bool(use_cache)),
                ("clustering", Json::Bool(use_clustering)),
                ("backend", Json::str(grader.config().backend.name())),
                ("sweep", Json::str(grader.config().equivalence.sweep.name())),
                (
                    "escalation_tiers",
                    grader.config().escalation.tiers.len().to_json(),
                ),
            ]);
            registry.insert(ProblemEntry {
                id,
                grader,
                cache: use_cache.then(FingerprintCache::new),
                clusters: use_clustering.then(ClusterIndex::new),
                counters: OutcomeCounters::default(),
            });
            (201, response)
        }
        Err(err) => (422, error_json(&err.to_string())),
    }
}

/// `POST /problems/{id}/grade` — body `{"source": "..."}`.
pub(crate) fn handle_grade(request: &Request, state: &ServiceState, id: &str) -> Reply {
    let Some(entry) = state.registry.get(id) else {
        return Reply::json(404, error_json(&format!("no problem '{id}'")));
    };
    let body = match parse_body(request) {
        Ok(body) => body,
        Err((status, body)) => return Reply::json(status, body),
    };
    let Some(source) = body.get("source").and_then(Json::as_str) else {
        return Reply::json(400, error_json("missing string field 'source'"));
    };

    // One trace per request (when tracing is on): installed for the
    // duration of grading so every pipeline stage span lands in it.
    let trace = state.tracing.then(Trace::new);
    let start = Instant::now();
    let (outcome, cache_state, transfer_state) = {
        let _guard = trace.as_ref().map(|trace| trace.install());
        let mut root = afg_obs::span("grade");
        let (outcome, cache_state, transfer_state) = match &entry.cache {
            Some(cache) => {
                let (outcome, disposition) =
                    entry
                        .grader
                        .grade_source_clustered(source, cache, entry.clusters.as_ref());
                (
                    outcome,
                    if disposition.cache_hit { "hit" } else { "miss" },
                    match disposition.transfer {
                        Some(true) => "hit",
                        Some(false) => "miss",
                        None => "none",
                    },
                )
            }
            None => (entry.grader.grade_source(source), "off", "none"),
        };
        root.attr("problem", id);
        root.attr("cache", cache_state);
        root.attr("transfer", transfer_state);
        root.attr("outcome", outcome_label(&outcome));
        (outcome, cache_state, transfer_state)
    };
    let elapsed = start.elapsed();
    entry.counters.record(&outcome, cache_state == "hit");
    afg_obs::counter!("afg_grades_total", "Grade requests served").inc();
    afg_obs::histogram!(
        "afg_grade_seconds",
        "End-to-end grade request latency",
        1e-6
    )
    .record_duration(elapsed);
    afg_obs::global()
        .counter(
            "afg_grade_outcomes_total",
            "Grade requests served, by outcome",
            &[("outcome", outcome_label(&outcome))],
        )
        .inc();

    let mut headers = Vec::new();
    if let Some(trace) = trace {
        if state
            .slow_grade
            .is_some_and(|threshold| elapsed >= threshold)
        {
            eprintln!(
                "[afg-serve] slow grade problem={id} trace={} elapsed={:.1}ms\n{}",
                trace.id(),
                elapsed.as_secs_f64() * 1e3,
                trace.render_tree()
            );
        }
        headers.push(("X-Afg-Trace-Id", trace.id().to_string()));
        state.traces.push(trace);
    }

    let mut pairs = match outcome.to_json() {
        Json::Object(pairs) => pairs,
        other => vec![("outcome".to_string(), other)],
    };
    pairs.push(("cache".to_string(), Json::str(cache_state)));
    pairs.push(("transfer".to_string(), Json::str(transfer_state)));
    pairs.push(("elapsed_ms".to_string(), elapsed.to_json()));
    Reply {
        status: 200,
        content_type: "application/json",
        headers,
        body: Json::Object(pairs).to_string(),
    }
}

/// `POST /problems/{id}/grade/batch` — body
/// `{"sources": ["...", ...], "workers": N?}`.
pub(crate) fn handle_batch(request: &Request, state: &ServiceState, id: &str) -> Reply {
    let Some(entry) = state.registry.get(id) else {
        return Reply::json(404, error_json(&format!("no problem '{id}'")));
    };
    let body = match parse_body(request) {
        Ok(body) => body,
        Err((status, body)) => return Reply::json(status, body),
    };
    let Some(items) = body.get("sources").and_then(Json::as_array) else {
        return Reply::json(400, error_json("missing array field 'sources'"));
    };
    let mut sources = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item.as_str() {
            Some(source) => sources.push(source),
            None => {
                return Reply::json(400, error_json(&format!("sources[{i}] is not a string")));
            }
        }
    }
    let engine = match body.get("workers").and_then(Json::as_i64) {
        Some(workers) if workers > 0 => BatchGrader::new((workers as usize).min(MAX_BATCH_WORKERS)),
        _ => BatchGrader::default(),
    };

    let trace = state.tracing.then(Trace::new);
    let report = {
        let _guard = trace.as_ref().map(|trace| trace.install());
        let mut root = afg_obs::span("grade_batch");
        root.attr("problem", id);
        root.attr("submissions", sources.len().to_string());
        engine.grade_sources_clustered(
            &entry.grader,
            &sources,
            entry.cache.as_ref(),
            entry.clusters.as_ref(),
        )
    };
    for item in &report.items {
        entry
            .counters
            .record(&item.outcome, item.cache_hit == Some(true));
    }
    afg_obs::counter!("afg_batches_total", "Batch grade requests served").inc();
    afg_obs::counter!(
        "afg_batch_submissions_total",
        "Submissions graded via batch requests"
    )
    .add(report.items.len() as u64);

    let mut headers = Vec::new();
    if let Some(trace) = trace {
        headers.push(("X-Afg-Trace-Id", trace.id().to_string()));
        state.traces.push(trace);
    }
    Reply {
        status: 200,
        content_type: "application/json",
        headers,
        body: report.to_json().to_string(),
    }
}
