//! The `afg-serve` child process and the HTTP side of the serve workloads:
//! boot and registration, `/metrics` and `/stats` scrapes, and the
//! library-grading ground truth responses are checked against.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use afg_core::{Autograder, SynthesisConfig};
use afg_json::{Json, ToJson};
use afg_service::client::Client;

use crate::pipeline::{self, Ledger, Spans};
use crate::report::{pct, quantile, ratio, Report};

/// Worker threads and client connections: the machine's parallelism.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The daemon flags every serve workload uses (the listen address is
/// always an ephemeral loopback port).
pub fn daemon_flags(threads: usize) -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--io",
        "epoll",
        "--threads",
        &threads.to_string(),
        "--idle-timeout-ms",
        "60000",
        "--no-tracing",
    ]
    .iter()
    .map(|flag| flag.to_string())
    .collect()
}

/// A running `afg-serve` child.  Dropping it kills the process and waits
/// for it to exit.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The daemon's listen address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon and waits until it is listening.
    pub fn start(binary: &str, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(daemon_flags(threads))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|err| format!("cannot start {binary}: {err}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(daemon),
            _ => Err(format!(
                "afg-serve did not report a listen address: {line:?}"
            )),
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Registers built-in `problem` with an explicit budget, the cache and the
/// cluster index on.
pub fn register(
    addr: SocketAddr,
    problem: &str,
    synthesis: &SynthesisConfig,
) -> Result<(), String> {
    let body = Json::object([
        ("problem", Json::str(problem)),
        ("backend", Json::str("cegis")),
        ("sweep", Json::str("compiled")),
        ("cache", Json::Bool(true)),
        ("clustering", Json::Bool(true)),
        ("max_cost", synthesis.max_cost.to_json()),
        ("max_candidates", synthesis.max_candidates.to_json()),
        ("time_budget_ms", synthesis.time_budget.to_json()),
    ]);
    match afg_service::client::post(addr, "/problems", &body) {
        Ok((201, _)) => Ok(()),
        Ok((status, reply)) => Err(format!("registering {problem}: HTTP {status} {reply}")),
        Err(err) => Err(format!("registering {problem}: {err}")),
    }
}

/// Boots the daemon `reps` times, registering `problems` each time, and
/// returns the last daemon with the median boot-plus-registration time in
/// seconds.
pub fn boot(
    binary: &str,
    threads: usize,
    problems: &[&str],
    synthesis: &SynthesisConfig,
    reps: usize,
) -> Result<(Daemon, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let daemon = Daemon::start(binary, threads)?;
        for problem in problems {
            register(daemon.addr, problem, synthesis)?;
        }
        times.push(start.elapsed().as_secs_f64());
        last = Some(daemon);
    }
    Ok((last.expect("at least one boot"), quantile(&times, 0.5)))
}

/// The comparable form of a grade response or a library verdict: the JSON
/// without `elapsed_ms`, `cache` and `transfer` (timing and path) and
/// without the feedback's search-effort `stats`, which a cluster warm start
/// legitimately changes.
pub fn comparable(json: &Json) -> String {
    fn strip(json: &Json, under_feedback: bool) -> Json {
        match json {
            Json::Object(pairs) => Json::Object(
                pairs
                    .iter()
                    .filter(|(key, _)| {
                        !(matches!(key.as_str(), "elapsed_ms" | "cache" | "transfer")
                            || (under_feedback && key == "stats"))
                    })
                    .map(|(key, value)| (key.clone(), strip(value, key == "feedback")))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    strip(json, false).to_string()
}

/// Library grading of every distinct source, in comparable form, keyed by
/// source; `sources[i]` is `(problem index, source)`.  Computed outside the
/// measured phase.  Every repair is also re-derived through the layered
/// pipeline and checked independently ([`pipeline::reverify`]), one
/// checked operation each.
pub fn ground_truth<'a>(
    report: &mut Report,
    graders: &[Autograder],
    sources: &'a [(usize, String)],
) -> HashMap<&'a str, String> {
    let mut truth = HashMap::new();
    for (problem, source) in sources {
        if truth.contains_key(source.as_str()) {
            continue;
        }
        let grader = &graders[*problem];
        let outcome = grader.grade_source(source);
        if let Some(feedback) = outcome.feedback() {
            let layered = pipeline::grade_layered(
                grader,
                source,
                &mut Ledger::default(),
                &mut Spans::new(),
                0,
            );
            let checked = match (&layered.repair, layered.outcome.feedback()) {
                (Some((program, assignment)), Some(again))
                    if again.corrections == feedback.corrections =>
                {
                    pipeline::reverify(grader, program, assignment, feedback)
                }
                _ => Err(format!(
                    "regrading gave {:?}",
                    pipeline::verdict(&layered.outcome)
                )),
            };
            report.check(checked.is_ok(), || {
                format!("library repair: {}", checked.unwrap_err())
            });
        }
        truth.insert(source.as_str(), comparable(&outcome.to_json()));
    }
    truth
}

/// One round trip as the client saw it.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status, or `None` when the request failed at the socket.
    pub status: Option<u16>,
    /// The parsed body (`Json::Null` if absent or not JSON).
    pub body: Json,
    /// When the response had been read (before the body was parsed).
    pub done: Instant,
}

/// Sends one request on a keep-alive connection, connecting first if there
/// is none.  A socket failure drops the connection (the next request
/// reconnects) and comes back as a `None` status.
pub fn send(
    client: &mut Option<Client>,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Response {
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let reply = client
        .as_mut()
        .map(|connection| connection.request_raw(method, path, body));
    let done = Instant::now();
    match reply {
        Some(Ok((status, _, text))) => Response {
            status: Some(status),
            body: afg_json::parse_json(&text).unwrap_or(Json::Null),
            done,
        },
        _ => {
            *client = None;
            Response {
                status: None,
                body: Json::Null,
                done,
            }
        }
    }
}

/// A `/metrics` scrape: `(series, value)` pairs, where the series is the
/// metric name with its label block.
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Scrapes the daemon's `/metrics`.
    pub fn scrape(addr: SocketAddr) -> Result<Metrics, String> {
        let mut client = Client::connect(addr).map_err(|err| format!("/metrics: {err}"))?;
        let (status, text) = client
            .get_text("/metrics")
            .map_err(|err| format!("/metrics: {err}"))?;
        if status != 200 {
            return Err(format!("/metrics: HTTP {status}"));
        }
        Ok(Metrics(
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (series, value) = line.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        ))
    }

    /// Sum of every series of metric `name` (any labels).
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                series == name
                    || series
                        .strip_prefix(name)
                        .is_some_and(|r| r.starts_with('{'))
            })
            .map(|(_, value)| value)
            .sum()
    }

    /// The cumulative buckets `(upper bound, count)` of histogram `name`.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        self.0
            .iter()
            .filter_map(|(series, value)| {
                let bound = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if bound == "+Inf" {
                    f64::INFINITY
                } else {
                    bound.parse().ok()?
                };
                Some((bound, *value))
            })
            .collect()
    }
}

/// The median of histogram `name` over the observations made between two
/// scrapes: the upper bound of the bucket holding the middle observation
/// (0 when nothing was observed).  The exposition lists only occupied
/// buckets, so an earlier count missing at some bound is the cumulative
/// count of the nearest listed bound below it.
pub fn histogram_p50(before: &Metrics, after: &Metrics, name: &str) -> f64 {
    let mut earlier = before.buckets(name);
    earlier.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut delta: Vec<(f64, f64)> = after
        .buckets(name)
        .into_iter()
        .map(|(bound, count)| {
            let seen = earlier
                .iter()
                .take_while(|(b, _)| *b <= bound)
                .last()
                .map_or(0.0, |(_, c)| *c);
            (bound, count - seen)
        })
        .collect();
    delta.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = delta.last().map_or(0.0, |(_, count)| *count);
    if total == 0.0 {
        return 0.0;
    }
    delta
        .iter()
        .find(|(_, count)| *count >= total / 2.0)
        .map_or(0.0, |(bound, _)| *bound)
}

/// The `/stats` entry of one registered problem.
pub fn problem_stats(addr: SocketAddr, problem: &str) -> Result<Json, String> {
    let (status, stats) =
        afg_service::client::get(addr, "/stats").map_err(|err| format!("/stats: {err}"))?;
    if status != 200 {
        return Err(format!("/stats: HTTP {status}"));
    }
    stats
        .get("problems")
        .and_then(Json::as_array)
        .and_then(|problems| {
            problems
                .iter()
                .find(|entry| entry.get("id").and_then(Json::as_str) == Some(problem))
        })
        .cloned()
        .ok_or_else(|| format!("/stats has no problem '{problem}'"))
}

/// One request of a measured phase as the client saw it, checked as it
/// arrived (bodies are not kept, so long runs stay small).
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the graded source, or `None` for a `GET /healthz`.
    pub source: Option<usize>,
    /// When the request was due (the send time for a closed loop).
    pub due: Instant,
    /// When the request was written.
    pub sent: Instant,
    /// When the response was read.
    pub done: Instant,
    /// Whether the response was right: a 200 whose comparable form equals
    /// library grading (for `/healthz`, a 200).
    pub ok: bool,
    /// The response's `cache` field.
    pub cache: Option<String>,
    /// The response's `outcome` field.
    pub outcome: Option<String>,
    /// The response's `elapsed_ms` field.
    pub elapsed_ms: Option<f64>,
    /// What was wrong, for a response that was not `ok`.
    pub problem: Option<String>,
}

impl Exchange {
    /// Checks `response` against `truth` (`None` for `/healthz`) and keeps
    /// the fields the metrics need.
    pub fn new(
        source: Option<usize>,
        due: Instant,
        sent: Instant,
        response: Response,
        truth: Option<&String>,
    ) -> Exchange {
        let ok = match (source, truth) {
            (None, _) => response.status == Some(200),
            (Some(_), Some(truth)) => {
                response.status == Some(200) && *truth == comparable(&response.body)
            }
            (Some(_), None) => false,
        };
        let field = |name: &str| {
            response
                .body
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        Exchange {
            source,
            due,
            sent,
            done: response.done,
            ok,
            cache: field("cache"),
            outcome: field("outcome"),
            elapsed_ms: response.body.get("elapsed_ms").and_then(Json::as_f64),
            problem: (!ok).then(|| format!("HTTP {:?}: {}", response.status, response.body)),
        }
    }

    /// Round-trip time in milliseconds (send to response).
    pub fn round_trip_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// Latency in milliseconds from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Whether the cache answered.
    pub fn hit(&self) -> bool {
        self.cache.as_deref() == Some("hit")
    }
}

/// Sets `fixed_pct` and `decided_pct` over the incorrect verdicts among
/// `outcomes` (response `outcome` tags, one per distinct submission).
pub fn record_verdict_shares<'a>(report: &mut Report, outcomes: impl Iterator<Item = &'a str>) {
    let (mut incorrect, mut fixed, mut cannot_fix) = (0.0, 0.0, 0.0);
    for outcome in outcomes {
        match outcome {
            "feedback" => fixed += 1.0,
            "cannot_fix" => cannot_fix += 1.0,
            "timeout" => {}
            _ => continue,
        }
        incorrect += 1.0;
    }
    report.set("fixed_pct", pct(fixed, incorrect));
    report.set("decided_pct", pct(fixed + cannot_fix, incorrect));
}

/// One `GET /healthz` round trip.
pub fn healthz(client: &mut Option<Client>, addr: SocketAddr) -> Exchange {
    let sent = Instant::now();
    let response = send(client, addr, "GET", "/healthz", None);
    Exchange::new(None, sent, sent, response, None)
}

/// One grade request for `sources[index]` against problem `problems[p]`,
/// due at `due`.
pub fn grade(
    client: &mut Option<Client>,
    addr: SocketAddr,
    problems: &[&str],
    sources: &[(usize, String)],
    truth: &HashMap<&str, String>,
    index: usize,
    due: Instant,
) -> Exchange {
    let (problem, source) = &sources[index];
    let body = Json::object([("source", Json::str(source.as_str()))]);
    let path = format!("/problems/{}/grade", problems[*problem]);
    let sent = Instant::now();
    let response = send(client, addr, "POST", &path, Some(&body));
    Exchange::new(Some(index), due, sent, response, truth.get(source.as_str()))
}

/// Counts every exchange as one checked operation.
pub fn check_all(report: &mut Report, exchanges: &[Exchange]) {
    for exchange in exchanges {
        report.check(exchange.ok, || {
            format!(
                "response differs from library grading: {}",
                exchange.problem.as_deref().unwrap_or("")
            )
        });
    }
}

/// Writes the `core.cache`, `core.cluster` and `service` layer metrics of a
/// serve workload: the grade responses' `cache`/`elapsed_ms` fields, the
/// `/metrics` deltas over the measured phase and the problems' `/stats`.
pub fn record_service_layers(
    report: &mut Report,
    exchanges: &[Exchange],
    before: &Metrics,
    after: &Metrics,
    stats: &[Json],
) {
    let grades: Vec<&Exchange> = exchanges.iter().filter(|e| e.source.is_some()).collect();
    let elapsed = |cache: &str| -> Vec<f64> {
        grades
            .iter()
            .filter(|e| e.cache.as_deref() == Some(cache))
            .filter_map(|e| e.elapsed_ms)
            .collect()
    };
    let (hits, misses) = (elapsed("hit"), elapsed("miss"));
    report.set("cache.hits", hits.len() as f64);
    report.set("cache.misses", misses.len() as f64);
    report.set(
        "cache.hit_ratio",
        ratio(hits.len() as f64, (hits.len() + misses.len()) as f64),
    );
    report.set("cache.hit_us_p50", quantile(&hits, 0.5) * 1e3);
    report.set("cache.miss_ms_p50", quantile(&misses, 0.5));

    let overhead: Vec<f64> = grades
        .iter()
        .filter_map(|e| Some(e.round_trip_ms() - e.elapsed_ms?))
        .collect();
    report.set("http.overhead_us_p50", quantile(&overhead, 0.5) * 1e3);
    let healthz: Vec<f64> = exchanges
        .iter()
        .filter(|e| e.source.is_none())
        .map(Exchange::round_trip_ms)
        .collect();
    report.set("http.healthz_us_p50", quantile(&healthz, 0.5) * 1e3);
    report.set(
        "service.queue_wait_ms_p50",
        histogram_p50(before, after, "afg_queue_wait_seconds") * 1e3,
    );
    let delta = |name: &str| after.sum(name) - before.sum(name);
    report.set("service.rejections", delta("afg_overload_rejections_total"));
    report.set("service.conn_timeouts", delta("afg_conn_timeouts_total"));

    let total = |section: &str, field: &str| -> f64 {
        stats
            .iter()
            .filter_map(|entry| entry.get(section)?.get(field)?.as_f64())
            .sum()
    };
    report.set("cache.entries", total("cache", "entries"));
    let attempts = total("clusters", "transfer_attempts");
    let transfers = total("clusters", "transfer_hits");
    report.set("cluster.transfer_attempts", attempts);
    report.set("cluster.transfer_hits", transfers);
    report.set("cluster.transfer_hit_ratio", ratio(transfers, attempts));
    report.set(
        "cluster.conflicts_saved",
        total("clusters", "conflicts_saved"),
    );

    let graded_ms: f64 = grades.iter().filter_map(|e| e.elapsed_ms).sum();
    let round_trip_ms: f64 = grades.iter().map(|e| e.round_trip_ms()).sum();
    report.set("trace.attributed_pct", pct(graded_ms, round_trip_ms));
}

/// Replays the measured grade requests in process, layer by layer, into
/// `ledger`: each source the daemon searched (a `miss`) is graded cold
/// through [`pipeline::grade_layered`], and the hits are booked as the
/// parse/rewrite/feedback work a hit replays.  `sources[i]` is
/// `(problem index, source)`.
pub fn replay_layers(
    graders: &[Autograder],
    sources: &[(usize, String)],
    exchanges: &[Exchange],
    ledger: &mut Ledger,
    spans: &mut Spans,
) {
    let mut ordered: Vec<&Exchange> = exchanges.iter().filter(|e| e.source.is_some()).collect();
    ordered.sort_by_key(|e| e.sent);
    let mut repairs: HashMap<usize, Option<afg_eml::ChoiceAssignment>> = HashMap::new();
    let mut hits: HashMap<(usize, &str), u64> = HashMap::new();
    for (request, exchange) in ordered.iter().enumerate() {
        let index = exchange.source.expect("grade exchange");
        let (problem, source) = &sources[index];
        if exchange.hit() {
            let outcome = exchange.outcome.as_deref().unwrap_or("");
            *hits.entry((index, outcome)).or_default() += 1;
        } else {
            let graded =
                pipeline::grade_layered(&graders[*problem], source, ledger, spans, request as u64);
            repairs.insert(index, graded.repair.map(|(_, assignment)| assignment));
        }
    }
    for ((index, outcome), count) in hits {
        let (problem, source) = &sources[index];
        let grader = &graders[*problem];
        let repair = if outcome == "feedback" {
            repairs.get(&index).cloned().flatten().or_else(|| {
                let mut scratch = Ledger::default();
                pipeline::grade_layered(grader, source, &mut scratch, &mut Spans::new(), 0)
                    .repair
                    .map(|(_, assignment)| assignment)
            })
        } else {
            None
        };
        pipeline::replay_hit(grader, source, outcome, repair.as_ref(), count, ledger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_counts_only_new_observations() {
        let scrape = |lines: &[(&str, f64)]| {
            Metrics(lines.iter().map(|(s, v)| (s.to_string(), *v)).collect())
        };
        let before = scrape(&[("h_bucket{le=\"1\"}", 5.0), ("h_bucket{le=\"+Inf\"}", 5.0)]);
        let after = scrape(&[
            ("h_bucket{le=\"1\"}", 5.0),
            ("h_bucket{le=\"2\"}", 7.0),
            ("h_bucket{le=\"4\"}", 8.0),
            ("h_bucket{le=\"+Inf\"}", 8.0),
        ]);
        assert_eq!(histogram_p50(&before, &after, "h"), 2.0);
        assert_eq!(histogram_p50(&after, &after, "h"), 0.0);
    }

    #[test]
    fn comparable_form_drops_timing_path_and_effort() {
        let response = afg_json::parse_json(
            r#"{"outcome":"feedback","feedback":{"cost":1,"elapsed_ms":3.5,"stats":{"sweeps":2}},"cache":"hit","transfer":"none","elapsed_ms":0.4}"#,
        )
        .unwrap();
        assert_eq!(
            comparable(&response),
            r#"{"outcome":"feedback","feedback":{"cost":1}}"#
        );
    }
}
