//! `hot-http`: an LMS front end re-fetching graded work.
//!
//! A closed loop from `nproc` keep-alive connections against an `afg-serve`
//! child whose cache was warmed (untimed) with every source of a pinned hot
//! set.  Requests are cache-hit grades, Zipf-skewed over the hot set, mixed
//! with `GET /healthz`.  No search runs in the measured phase, so parse,
//! canonicalisation, replay, HTTP and the reactor carry all the work.
//! The popularity ranking over the hot set is pinned; `--seed` draws the
//! request sequence.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use afg_corpus::{generate_corpus, CorpusSpec};
use afg_service::client::Client;

use crate::daemon::{self, Exchange, Metrics};
use crate::pipeline::{self, Ledger, Rng, Spans};
use crate::report::{self, pct, Report};
use crate::Options;

/// The registered problems.
pub const PROBLEMS: [&str; 2] = ["compDeriv", "iterPower"];
/// Submissions generated per problem for the hot set.
pub const ATTEMPTS: usize = 16;
/// Seed of the hot set's corpora.
pub const CORPUS_SEED: u64 = 20130616;
/// Share of requests that are `GET /healthz`.
pub const HEALTHZ_SHARE: f64 = 0.2;
/// The percentile `grade_tail_ms` reports for this workload: p90 of the
/// ~200 000 grades of a 30 s run, the costliest hits (a repair's replay
/// sweep).  Higher percentiles of a loopback round trip follow how the
/// host schedules the client's and daemon's threads more than the program,
/// and moved by a quarter between runs of the same code on a 2-vCPU VM.
pub const TAIL_Q: f64 = 0.9;
/// Latency limit of `slo_pct`.
pub const SLO_MS: f64 = 1000.0;
/// Daemon boots timed for `setup_s`.
const SETUP_REPS: usize = 15;

/// `(problem index, source)` for every hot-set submission.
fn hot_set() -> Vec<(usize, String)> {
    let mut sources = Vec::new();
    for (index, id) in PROBLEMS.iter().enumerate() {
        let problem = afg_corpus::problems::problem(id).expect("built-in problem");
        let spec = CorpusSpec::table1_like(ATTEMPTS, CORPUS_SEED ^ id.len() as u64);
        sources.extend(
            generate_corpus(&problem, &spec)
                .into_iter()
                .map(|submission| (index, submission.source)),
        );
    }
    sources
}

/// The closed loop: each connection sends its next request as soon as the
/// previous one is answered, until `seconds` have passed.  Grades are drawn
/// Zipf-skewed over a pinned popularity ranking of the hot set.
fn closed_loop(
    addr: std::net::SocketAddr,
    sources: &[(usize, String)],
    truth: &HashMap<&str, String>,
    connections: usize,
    seconds: f64,
    seed: u64,
) -> Vec<Exchange> {
    let mut ranking: Vec<usize> = (0..sources.len()).collect();
    Rng::new(CORPUS_SEED, 3).shuffle(&mut ranking);
    let ranking = &ranking;
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|connection| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 10 + connection as u64);
                    let mut client: Option<Client> = None;
                    let mut exchanges = Vec::new();
                    while Instant::now() < stop {
                        if rng.unit() < HEALTHZ_SHARE {
                            exchanges.push(daemon::healthz(&mut client, addr));
                        } else {
                            let index = ranking[rng.zipf(sources.len())];
                            let now = Instant::now();
                            exchanges.push(daemon::grade(
                                &mut client,
                                addr,
                                &PROBLEMS,
                                sources,
                                truth,
                                index,
                                now,
                            ));
                        }
                    }
                    exchanges
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("client thread"))
            .collect()
    })
}

pub fn run(options: &Options, report: &mut Report) -> Result<(), String> {
    let binary = options.serve.as_deref().ok_or("--serve is required")?;
    let connections = daemon::parallelism();
    let sources = hot_set();
    let synthesis = crate::classroom::synthesis();
    let config = pipeline::grader_config(synthesis.clone());
    let graders: Vec<_> = PROBLEMS
        .iter()
        .map(|id| {
            let problem = afg_corpus::problems::problem(id).expect("built-in problem");
            pipeline::grader(&problem, config.clone())
        })
        .collect();

    let (daemon, setup_s) = daemon::boot(binary, connections, &PROBLEMS, &synthesis, SETUP_REPS)?;
    let truth = daemon::ground_truth(report, &graders, &sources);

    // Untimed warm-up: every hot source once, so the measured phase only
    // replays cached verdicts.
    let mut client = None;
    let warmup: Vec<Exchange> = (0..sources.len())
        .map(|index| {
            let now = Instant::now();
            daemon::grade(
                &mut client,
                daemon.addr,
                &PROBLEMS,
                &sources,
                &truth,
                index,
                now,
            )
        })
        .collect();
    drop(client);
    daemon::check_all(report, &warmup);
    daemon::record_verdict_shares(report, warmup.iter().filter_map(|e| e.outcome.as_deref()));

    let before = Metrics::scrape(daemon.addr)?;
    let start = Instant::now();
    let exchanges = closed_loop(
        daemon.addr,
        &sources,
        &truth,
        connections,
        options.seconds,
        options.seed,
    );
    let wall = start.elapsed().as_secs_f64();
    let after = Metrics::scrape(daemon.addr)?;

    daemon::check_all(report, &exchanges);
    let grades: Vec<&Exchange> = exchanges.iter().filter(|e| e.source.is_some()).collect();
    let latencies: Vec<f64> = grades.iter().map(|e| e.latency_ms()).collect();
    let within = grades
        .iter()
        .filter(|e| e.ok && e.latency_ms() <= SLO_MS)
        .count();
    let misses = grades.iter().filter(|e| !e.hit()).count();
    report.note(format!(
        "hot-http: {} requests ({} grades over {} hot sources, {misses} not cache hits) from {connections} connections in {wall:.2} s",
        exchanges.len(),
        latencies.len(),
        sources.len()
    ));

    report.set("setup_s", setup_s);
    report.set("subs_per_s", grades.len() as f64 / wall);
    report.set("req_per_s", exchanges.len() as f64 / wall);
    report::record_latency(report, &latencies, TAIL_Q);
    report.set("slo_pct", pct(within as f64, latencies.len() as f64));
    report.set(
        "peak_rss_mb",
        report::peak_rss_mb(&daemon.pid().to_string()),
    );

    if options.trace {
        let stats = PROBLEMS
            .iter()
            .map(|id| daemon::problem_stats(daemon.addr, id))
            .collect::<Result<Vec<_>, _>>()?;
        drop(daemon);
        daemon::record_service_layers(report, &exchanges, &before, &after, &stats);
        let mut ledger = Ledger::default();
        let mut spans = Spans::new();
        daemon::replay_layers(&graders, &sources, &exchanges, &mut ledger, &mut spans);
        ledger.record(report);
        report.set("trace.overhead_pct", 0.0);
        // Hits are booked in aggregate; spans exist only for searches,
        // which a warmed cache should not run.
        spans.write(&format!("hot-http-seed{}", options.seed), report);
    }
    Ok(())
}
