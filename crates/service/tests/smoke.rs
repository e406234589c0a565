//! End-to-end smoke test of the grading daemon, run as a dedicated CI step.
//!
//! Boots the server in-process on an ephemeral port, registers the paper's
//! `computeDeriv` problem, grades the same known-buggy submission twice
//! over real TCP, and asserts the second response is a fingerprint-cache
//! hit with feedback identical to the first.

use afg_json::Json;
use afg_service::client::Client;
use afg_service::{start, ServiceConfig};

/// The paper's worked example: iteration starts at 0 instead of 1 —
/// incorrect, repairable with one correction.
const BUGGY: &str = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n";

fn boot() -> (afg_service::ServerHandle, Client) {
    let handle = start(ServiceConfig {
        threads: 4,
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral port");
    let client = Client::connect(handle.addr()).expect("connect");
    (handle, client)
}

#[test]
fn grades_a_buggy_submission_twice_with_a_cache_hit() {
    let (handle, mut client) = boot();

    // Liveness first; no problems registered yet.
    let (status, health) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("problems").and_then(Json::as_i64), Some(0));

    // Register the built-in computeDeriv benchmark with a deterministic
    // (candidate-bounded) search budget.
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("max_candidates", Json::Int(2000)),
                ("time_budget_ms", Json::Int(600_000)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("id").and_then(Json::as_str),
        Some("compDeriv")
    );
    assert_eq!(
        registered.get("entry").and_then(Json::as_str),
        Some("computeDeriv")
    );
    assert_eq!(registered.get("cache").and_then(Json::as_bool), Some(true));

    // First grading: a miss that runs the full CEGIS search.
    let body = Json::object([("source", Json::str(BUGGY))]);
    let (status, first) = client.post("/problems/compDeriv/grade", &body).unwrap();
    assert_eq!(status, 200, "{first}");
    assert_eq!(
        first.get("outcome").and_then(Json::as_str),
        Some("feedback")
    );
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));

    // Second grading of the same submission: served from the cache, with
    // identical feedback.
    let (status, second) = client.post("/problems/compDeriv/grade", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(
        first.get("feedback").and_then(|f| f.get("rendered")),
        second.get("feedback").and_then(|f| f.get("rendered")),
        "cached feedback must be identical"
    );
    assert_eq!(
        first.get("feedback").and_then(|f| f.get("corrections")),
        second.get("feedback").and_then(|f| f.get("corrections"))
    );
    let rendered = second
        .get("feedback")
        .and_then(|f| f.get("rendered"))
        .and_then(Json::as_str)
        .expect("rendered feedback");
    assert!(
        rendered.contains("The program requires 1 change:"),
        "{rendered}"
    );

    // /stats reflects both requests and the one cache hit.
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    assert_eq!(problems.len(), 1);
    let outcomes = problems[0].get("outcomes").unwrap();
    assert_eq!(outcomes.get("graded").and_then(Json::as_i64), Some(2));
    assert_eq!(outcomes.get("fixed").and_then(Json::as_i64), Some(2));
    let cache = problems[0].get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("entries").and_then(Json::as_i64), Some(1));

    // Solver-work totals count the one real search only: the cache hit
    // replays the stored stats but must not re-add them.
    let solver = problems[0].get("solver").unwrap();
    let searched = first
        .get("feedback")
        .and_then(|f| f.get("stats"))
        .and_then(|s| s.get("sat_propagations"))
        .and_then(Json::as_i64)
        .expect("miss carries solver stats");
    assert_eq!(
        solver.get("sat_propagations").and_then(Json::as_i64),
        Some(searched),
        "a cache hit must not inflate the solver-work totals"
    );

    handle.shutdown();
}

#[test]
fn registers_a_custom_problem_from_eml_text_and_batch_grades() {
    let (handle, mut client) = boot();

    // The README's textual model for computeDeriv.
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("id", Json::str("deriv-text")),
                ("entry", Json::str("computeDeriv")),
                (
                    "reference",
                    Json::str(
                        "def computeDeriv(poly_list_int):\n    result = []\n    for i in range(len(poly_list_int)):\n        result += [i * poly_list_int[i]]\n    if len(poly_list_int) == 1:\n        return result\n    else:\n        return result[1:]\n",
                    ),
                ),
                (
                    "model",
                    Json::str(
                        "RETR: return a -> [0]\nRANR: range(a0, a1) -> range(a0 + 1, a1)\nEQF: a0 == a1 -> False\n",
                    ),
                ),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");

    let correct = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
    let broken = "def computeDeriv(poly)\n    return poly\n";
    let (status, report) = client
        .post(
            "/problems/deriv-text/grade/batch",
            &Json::object([
                (
                    "sources",
                    Json::Array(vec![
                        Json::str(BUGGY),
                        Json::str(correct),
                        Json::str(broken),
                        Json::str(BUGGY),
                    ]),
                ),
                ("workers", Json::Int(2)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{report}");
    let items = report.get("items").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), 4);
    assert_eq!(
        items[0].get("outcome").and_then(Json::as_str),
        Some("feedback")
    );
    assert_eq!(
        items[1].get("outcome").and_then(Json::as_str),
        Some("correct")
    );
    assert_eq!(
        items[2].get("outcome").and_then(Json::as_str),
        Some("syntax_error")
    );
    // Identical submissions in one batch produce identical feedback.
    assert_eq!(
        items[0].get("feedback").and_then(|f| f.get("rendered")),
        items[3].get("feedback").and_then(|f| f.get("rendered"))
    );
    let totals = report.get("totals").unwrap();
    assert_eq!(totals.get("graded").and_then(Json::as_i64), Some(4));
    assert_eq!(
        totals.get("cache_hits").and_then(Json::as_i64).unwrap()
            + totals.get("cache_misses").and_then(Json::as_i64).unwrap(),
        4
    );

    handle.shutdown();
}

#[test]
fn registers_with_enum_backend_and_escalation_ladder() {
    let (handle, mut client) = boot();

    // Enumerative backend, two-tier escalation: an empty cheap model first
    // (tier 0 can repair nothing and escalates), the full model second,
    // which overrides the backend back to CEGIS.
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("id", Json::str("deriv-ladder")),
                ("backend", Json::str("enum")),
                ("max_candidates", Json::Int(2000)),
                ("time_budget_ms", Json::Int(600_000)),
                (
                    "escalation",
                    Json::Array(vec![
                        Json::object([
                            ("label", Json::str("cheap")),
                            ("rules", Json::Int(0)),
                            ("max_candidates", Json::Int(50)),
                        ]),
                        Json::object([
                            ("label", Json::str("full")),
                            ("backend", Json::str("cegis")),
                        ]),
                    ]),
                ),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("backend").and_then(Json::as_str),
        Some("enum")
    );
    assert_eq!(
        registered.get("escalation_tiers").and_then(Json::as_i64),
        Some(2)
    );

    // The buggy submission escalates past the empty tier and is repaired.
    let body = Json::object([("source", Json::str(BUGGY))]);
    let (status, graded) = client.post("/problems/deriv-ladder/grade", &body).unwrap();
    assert_eq!(status, 200, "{graded}");
    assert_eq!(
        graded.get("outcome").and_then(Json::as_str),
        Some("feedback")
    );
    let stats = graded.get("feedback").and_then(|f| f.get("stats")).unwrap();
    assert_eq!(
        stats.get("strategy").and_then(Json::as_str),
        Some("cegis"),
        "the repairing tier's backend override must take effect"
    );

    // /stats exposes backend, ladder and solver-work totals.
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    let entry = problems
        .iter()
        .find(|p| p.get("id").and_then(Json::as_str) == Some("deriv-ladder"))
        .expect("registered problem listed");
    assert_eq!(entry.get("backend").and_then(Json::as_str), Some("enum"));
    let tiers = entry.get("escalation").and_then(Json::as_array).unwrap();
    assert_eq!(tiers.len(), 2);
    assert_eq!(tiers[0].get("label").and_then(Json::as_str), Some("cheap"));
    assert_eq!(tiers[0].get("model_rules").and_then(Json::as_i64), Some(0));
    assert!(tiers[1].get("model_rules").unwrap().is_null());
    let solver = entry.get("solver").expect("solver work totals");
    assert!(solver
        .get("sat_propagations")
        .and_then(Json::as_i64)
        .is_some());

    // Malformed escalation tiers are rejected, not silently defaulted.
    let (status, body) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                (
                    "escalation",
                    Json::Array(vec![Json::str("cheap"), Json::Int(42)]),
                ),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("escalation[0]"));

    // Unknown backends are rejected with a helpful message.
    for name in ["sketch", "portfolio"] {
        let (status, body) = client
            .post(
                "/problems",
                &Json::object([
                    ("problem", Json::str("compDeriv")),
                    ("backend", Json::str(name)),
                ]),
            )
            .unwrap();
        assert_eq!(status, 422, "{name}: {body}");
        assert!(body
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown backend"));
    }

    handle.shutdown();
}

#[test]
fn out_of_range_time_budgets_are_rejected_with_422() {
    let (handle, mut client) = boot();

    // A budget past `Duration`'s range, at the problem level and in an
    // escalation tier: a 422 naming the field, never a 500.
    let huge = Json::Float(1e300);
    let cases = [
        (
            Json::object([
                ("problem", Json::str("compDeriv")),
                ("time_budget_ms", huge.clone()),
            ]),
            "'time_budget_ms'",
        ),
        (
            Json::object([
                ("problem", Json::str("compDeriv")),
                (
                    "escalation",
                    Json::Array(vec![Json::object([("time_budget_ms", huge)])]),
                ),
            ]),
            "escalation[0]: 'time_budget_ms'",
        ),
    ];
    for (request, field) in cases {
        let (status, body) = client.post("/problems", &request).unwrap();
        assert_eq!(status, 422, "{body}");
        let error = body.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(field), "{error}");
    }
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);

    handle.shutdown();
}

#[test]
fn skeleton_cluster_transfer_is_reported_in_stats() {
    let (handle, mut client) = boot();
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("id", Json::str("deriv-cluster")),
                ("max_candidates", Json::Int(2000)),
                ("time_budget_ms", Json::Int(600_000)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("clustering").and_then(Json::as_bool),
        Some(true)
    );

    // Two cohort-mates: same buggy scaffold, different constant in an
    // unused assignment — distinct canonical forms, one skeleton.
    let mate = |constant: i64| {
        format!(
            "def computeDeriv(poly):\n    scratch = {constant}\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n"
        )
    };
    let grade = |client: &mut Client, source: &str| {
        let body = Json::object([("source", Json::str(source))]);
        let (status, response) = client.post("/problems/deriv-cluster/grade", &body).unwrap();
        assert_eq!(status, 200, "{response}");
        response
    };

    let first = grade(&mut client, &mate(7));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(first.get("transfer").and_then(Json::as_str), Some("none"));

    let second = grade(&mut client, &mate(21));
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        second.get("transfer").and_then(Json::as_str),
        Some("hit"),
        "{second}"
    );
    // Transfer keeps the verdict cost-identical to the cold run.
    assert_eq!(
        first.get("feedback").and_then(|f| f.get("cost")),
        second.get("feedback").and_then(|f| f.get("cost"))
    );

    // An exact resubmission is an exact-cache hit — the cluster is not
    // consulted again.
    let third = grade(&mut client, &mate(21));
    assert_eq!(third.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(third.get("transfer").and_then(Json::as_str), Some("none"));

    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    let entry = problems
        .iter()
        .find(|p| p.get("id").and_then(Json::as_str) == Some("deriv-cluster"))
        .expect("registered problem listed");
    let clusters = entry.get("clusters").expect("clusters stats present");
    assert_eq!(clusters.get("clusters").and_then(Json::as_i64), Some(1));
    assert_eq!(clusters.get("members").and_then(Json::as_i64), Some(2));
    assert_eq!(clusters.get("repairs").and_then(Json::as_i64), Some(1));
    assert_eq!(
        clusters.get("transfer_attempts").and_then(Json::as_i64),
        Some(1)
    );
    assert_eq!(
        clusters.get("transfer_hits").and_then(Json::as_i64),
        Some(1)
    );
    assert!(clusters
        .get("conflicts_saved")
        .and_then(Json::as_i64)
        .is_some());

    // Clustering can be disabled per problem; /stats then reports null.
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("id", Json::str("deriv-noclusters")),
                ("clustering", Json::Bool(false)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("clustering").and_then(Json::as_bool),
        Some(false)
    );
    let (_, stats) = client.get("/stats").unwrap();
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    let entry = problems
        .iter()
        .find(|p| p.get("id").and_then(Json::as_str) == Some("deriv-noclusters"))
        .unwrap();
    assert!(entry.get("clusters").unwrap().is_null());

    handle.shutdown();
}

#[test]
fn api_errors_are_json_with_proper_status_codes() {
    let (handle, mut client) = boot();

    let (status, body) = client
        .post(
            "/problems/ghost/grade",
            &Json::object([("source", Json::str("x = 1\n"))]),
        )
        .unwrap();
    assert_eq!(status, 404);
    assert!(body.get("error").is_some());

    let (status, _) = client.request("GET", "/problems", None).unwrap();
    assert_eq!(status, 405);

    let (status, _) = client.request("POST", "/nope", Some(&Json::Null)).unwrap();
    assert_eq!(status, 404);

    // Malformed JSON body.
    let mut raw = Client::connect(handle.addr()).unwrap();
    let (status, body) = raw
        .request("POST", "/problems", Some(&Json::str("{not json")))
        .unwrap();
    // A JSON *string* containing garbage is valid JSON but not a valid
    // registration: expect 400 either way.
    assert_eq!(status, 400, "{body}");

    // A registration that parses but fails validation (untyped params).
    let (status, body) = client
        .post(
            "/problems",
            &Json::object([
                ("id", Json::str("bad")),
                ("entry", Json::str("f")),
                ("reference", Json::str("def f(x):\n    return x\n")),
                ("model", Json::str("EQF: a0 == a1 -> False\n")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 422, "{body}");
    let message = body.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("type suffix"), "{message}");

    // Unknown built-in problem.
    let (status, _) = client
        .post("/problems", &Json::object([("problem", Json::str("nope"))]))
        .unwrap();
    assert_eq!(status, 404);

    handle.shutdown();
}
