//! `classroom`: students submitting independently before a deadline.
//!
//! An open loop at a fixed arrival rate drives an
//! `afg-serve` child over loopback TCP from at most `nproc` connections.
//! Several problems are registered with the cache and the cluster index on
//! and candidate-bound budgets (the wall clock is only a liveness valve).
//! Each problem has a skeleton-clustered cohort; every student submits once
//! and the remaining requests are Zipf-skewed resubmissions.  Cohorts, the
//! request multiset and the order of first submissions are pinned
//! (`COHORT_SEED`); `--seed` draws when the resubmissions arrive.  Latency
//! is timed from when each request was due.  The offered rate is a few per
//! cent of the daemon's capacity, so the workload measures service time
//! (cache hits, cluster-warmed and cold searches over HTTP), not queueing.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use afg_bench::classroom::{classroom_cohort, ClassroomSpec};
use afg_core::SynthesisConfig;
use afg_service::client::Client;

use crate::daemon::{self, Exchange, Metrics};
use crate::pipeline::{self, Ledger, Rng, Spans};
use crate::report::{self, pct, quantile, Report};
use crate::Options;

/// The registered problems.  A cache hit that replays a repair costs 1 to
/// 5 ms; a hit on a cannot-fix verdict, or on any iterPower attempt,
/// costs 0.2 to 0.8 ms.  These three problems put about three quarters of
/// the hits in the replaying class, so the median request sits inside one
/// class.  With iterPower in place of evalPoly the two classes were even,
/// the median fell in the gap between them, and `grade_p50_ms` moved by a
/// quarter between runs of the same code.
pub const PROBLEMS: [&str; 3] = ["compDeriv", "evalPoly", "oddTuples"];
/// Students per problem.
pub const STUDENTS: usize = 48;
/// Buggy skeletons each cohort is spread over.
pub const SKELETONS: usize = 4;
/// Seed of the cohorts.
pub const COHORT_SEED: u64 = 20130616;
/// Arrival rate, requests per second: a lightly loaded daemon, so latency
/// is service time rather than queueing.  The run's capacity estimate
/// (`loadgen.capacity_rps`, workers over mean round trip) read 360 to
/// 770 req/s on a 2-vCPU virtual machine, which puts this rate at 3 to 6 %
/// of it.  Rates that queued (200 req/s) had tails too unsteady to gate.
/// A 30 s run plays 600 requests, 144 of them first submissions.
pub const RATE: f64 = 20.0;
/// The percentile `grade_tail_ms` reports for this workload: p98 leaves 12
/// of the 600 requests of a 30 s run beyond it, the highest percentile with
/// at least ten, inside oddTuples' cannot-fix searches.  p95 fell on the
/// edge between those and evalPoly's cheaper cannot-fix searches and
/// spread by a quarter to a third between runs on a 2-vCPU virtual machine.
pub const TAIL_Q: f64 = 0.98;
/// Latency limit of `slo_pct`: interactive feedback.
pub const SLO_MS: f64 = 1000.0;
/// How long before a request is due the generator stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_millis(1);
/// Daemon boots timed for `setup_s`.
const SETUP_REPS: usize = 15;

/// The registered search budget: bound by candidate count, with the wall
/// clock far above any search.  At this size every cohort search ends
/// inside the candidate bound (`decided_pct` 100, `fixed_pct` 75) and a
/// search takes 1 to 60 ms on a 2-vCPU virtual machine, far under
/// [`SLO_MS`]; `max_cost` 3 with 4 000 candidates took 0.1 to 0.75 s per
/// cold search and its tail did not hold steady between runs.
pub fn synthesis() -> SynthesisConfig {
    SynthesisConfig {
        max_cost: 2,
        max_candidates: 2_000,
        time_budget: Duration::from_secs(60),
    }
}

/// `(problem index, source)` for every student.
fn population() -> Vec<(usize, String)> {
    let mut sources = Vec::new();
    for (index, id) in PROBLEMS.iter().enumerate() {
        let problem = afg_corpus::problems::problem(id).expect("built-in problem");
        let spec = ClassroomSpec {
            students: STUDENTS,
            skeletons: SKELETONS,
            seed: COHORT_SEED ^ index as u64,
        };
        sources.extend(
            classroom_cohort(&problem, &spec)
                .into_iter()
                .map(|source| (index, source)),
        );
    }
    sources
}

/// The request schedule: `(due offset, source index)`, one request every
/// `1 / RATE` seconds.  Every student submits once; the remaining requests
/// are resubmissions shared out over a pinned popularity ranking in
/// proportion to `1 / rank` (Zipf, largest remainder first), so every seed
/// plays the same multiset of requests.  First submissions arrive in a
/// pinned order, round-robin over the problems, so the cache and the
/// cluster index see the same sequence of searches in every run; `--seed`
/// draws when each resubmission arrives, uniformly between its source's
/// first submission and the end of the run.
fn schedule(seconds: f64, seed: u64) -> Vec<(Duration, usize)> {
    let population = PROBLEMS.len() * STUDENTS;
    let requests = ((RATE * seconds).round() as usize).max(population);
    let mut ranking: Vec<usize> = (0..population).collect();
    Rng::new(COHORT_SEED, 2).shuffle(&mut ranking);
    let resubmissions = requests - population;
    let harmonic: f64 = (1..=population).map(|rank| 1.0 / rank as f64).sum();
    let shares: Vec<f64> = (1..=population)
        .map(|rank| resubmissions as f64 / (rank as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|share| share.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..population).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = resubmissions - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..short] {
        counts[rank] += 1;
    }
    // Each request's place in the run, in [0, 1): first submissions evenly
    // spread in the pinned order, resubmissions after their first.
    let mut first_at = vec![0.0; population];
    let mut arrivals: Vec<(f64, usize)> = Vec::with_capacity(requests);
    for student in 0..STUDENTS {
        for problem in 0..PROBLEMS.len() {
            let source = problem * STUDENTS + student;
            first_at[source] = arrivals.len() as f64 / population as f64;
            arrivals.push((first_at[source], source));
        }
    }
    let mut rng = Rng::new(seed, 2);
    for (rank, count) in counts.iter().enumerate() {
        let source = ranking[rank];
        for _ in 0..*count {
            let at = first_at[source] + (1.0 - first_at[source]) * rng.unit();
            arrivals.push((at, source));
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    arrivals
        .into_iter()
        .enumerate()
        .map(|(slot, (_, source))| (Duration::from_secs_f64(slot as f64 / RATE), source))
        .collect()
}

/// Plays `schedule` against the daemon from `connections` connections and
/// returns the exchanges in schedule order.
fn open_loop(
    addr: std::net::SocketAddr,
    sources: &[(usize, String)],
    truth: &HashMap<&str, String>,
    schedule: &[(Duration, usize)],
    connections: usize,
) -> Vec<Exchange> {
    let next = Mutex::new(0usize);
    let done = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client: Option<Client> = None;
                loop {
                    let slot = {
                        let mut next = next.lock().expect("schedule lock");
                        *next += 1;
                        *next - 1
                    };
                    let Some(&(offset, index)) = schedule.get(slot) else {
                        break;
                    };
                    let due = start + offset;
                    wait_until(due);
                    let exchange =
                        daemon::grade(&mut client, addr, &PROBLEMS, sources, truth, index, due);
                    done.lock().expect("results lock").push((slot, exchange));
                }
            });
        }
    });
    let mut done = done.into_inner().expect("results lock");
    done.sort_by_key(|(slot, _)| *slot);
    done.into_iter().map(|(_, exchange)| exchange).collect()
}

/// Sleeps until [`SPIN`] before `due`, then spins until `due`.  A plain
/// sleep overshoots by a fraction of a millisecond on a virtual machine,
/// and the overshoot would be counted as the daemon's latency.
fn wait_until(due: Instant) {
    let sleep = due
        .checked_duration_since(Instant::now())
        .and_then(|wait| wait.checked_sub(SPIN));
    if let Some(wait) = sleep {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Requests due before each request's due time and not yet answered then
/// (the generator's backlog as each request falls due).
fn backlog(exchanges: &[Exchange]) -> Vec<usize> {
    exchanges
        .iter()
        .map(|at| {
            exchanges
                .iter()
                .filter(|e| e.due < at.due && e.done > at.due)
                .count()
        })
        .collect()
}

pub fn run(options: &Options, report: &mut Report) -> Result<(), String> {
    let binary = options.serve.as_deref().ok_or("--serve is required")?;
    let connections = daemon::parallelism();
    let sources = population();
    let synthesis = synthesis();
    let config = pipeline::grader_config(synthesis.clone());
    let problems: Vec<_> = PROBLEMS
        .iter()
        .map(|id| afg_corpus::problems::problem(id).expect("built-in problem"))
        .collect();
    let graders: Vec<_> = problems
        .iter()
        .map(|problem| pipeline::grader(problem, config.clone()))
        .collect();

    let (daemon, setup_s) = daemon::boot(binary, connections, &PROBLEMS, &synthesis, SETUP_REPS)?;
    let truth_start = Instant::now();
    let truth = daemon::ground_truth(report, &graders, &sources);
    let truth_s = truth_start.elapsed().as_secs_f64();
    let schedule = schedule(options.seconds, options.seed);
    report.note(format!(
        "classroom: {} requests at {RATE}/s over {} students ({} problems x {STUDENTS}, {SKELETONS} skeletons each), {connections} connections; ground truth {truth_s:.2} s",
        schedule.len(),
        sources.len(),
        PROBLEMS.len()
    ));

    let before = Metrics::scrape(daemon.addr)?;
    let exchanges = open_loop(daemon.addr, &sources, &truth, &schedule, connections);
    let after = Metrics::scrape(daemon.addr)?;

    daemon::check_all(report, &exchanges);
    let latencies: Vec<f64> = exchanges.iter().map(Exchange::latency_ms).collect();
    let within = exchanges
        .iter()
        .filter(|e| e.ok && e.latency_ms() <= SLO_MS)
        .count();
    let late: Vec<f64> = exchanges
        .iter()
        .map(|e| (e.sent - e.due).as_secs_f64() * 1e3)
        .collect();
    let backlog = backlog(&exchanges);
    let backlog_end = *backlog.last().unwrap_or(&0);
    let quarter = backlog.len() / 4;
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len().max(1) as f64;
    let (early, late_backlog) = (
        mean(&backlog[..quarter]),
        mean(&backlog[backlog.len() - quarter..]),
    );
    if late_backlog > early + 2.0 * connections as f64 {
        report.invalid.push(format!(
            "in-flight backlog grew from {early:.1} to {late_backlog:.1} requests: the daemon fell behind the arrival rate"
        ));
    }
    report.set("loadgen.late_ms_p50", quantile(&late, 0.5));
    report.set("loadgen.late_ms_p99", quantile(&late, 0.99));
    report.set("loadgen.backlog_end", backlog_end as f64);
    // Utilisation law: the daemon's workers are all busy at
    // `workers / mean service time`, with the round trip of a lightly
    // loaded daemon as the service time.
    let round_trips_s: f64 = exchanges.iter().map(Exchange::round_trip_ms).sum::<f64>() / 1e3;
    let capacity = (connections * exchanges.len()) as f64 / round_trips_s;
    report.set("loadgen.capacity_rps", capacity);
    report.note(format!(
        "open loop: late_ms p50 {:.3} p99 {:.3} max {:.3}; backlog mean {early:.2} first quarter, {late_backlog:.2} last quarter, {backlog_end} at the end",
        quantile(&late, 0.5),
        quantile(&late, 0.99),
        quantile(&late, 1.0)
    ));
    report.note(format!(
        "capacity: {connections} workers / mean round trip {:.3} ms = {capacity:.1} req/s; offered {RATE} req/s is {:.1} % of it",
        round_trips_s * 1e3 / exchanges.len() as f64,
        pct(RATE, capacity)
    ));

    // Verdict shares over the first response of every distinct source.
    let mut seen = std::collections::HashSet::new();
    daemon::record_verdict_shares(
        report,
        exchanges
            .iter()
            .filter(|e| seen.insert(e.source))
            .filter_map(|e| e.outcome.as_deref()),
    );

    report.set("setup_s", setup_s);
    // The offered rate is pinned, so these two read it back: they are not
    // a regression signal.  What the program could sustain is the
    // per-layer `loadgen.capacity_rps`.
    let first = exchanges.iter().map(|e| e.due).min().expect("requests");
    let last = exchanges.iter().map(|e| e.done).max().expect("requests");
    let offered = exchanges.len() as f64 / (last - first).as_secs_f64();
    report.set("subs_per_s", offered);
    report.set("req_per_s", offered);
    report::record_latency(report, &latencies, TAIL_Q);
    report.set("slo_pct", pct(within as f64, exchanges.len() as f64));
    report.set(
        "peak_rss_mb",
        report::peak_rss_mb(&daemon.pid().to_string()),
    );

    if options.trace {
        let stats = PROBLEMS
            .iter()
            .map(|id| daemon::problem_stats(daemon.addr, id))
            .collect::<Result<Vec<_>, _>>()?;
        let mut client = None;
        let mut healthz: Vec<Exchange> = (0..200)
            .map(|_| daemon::healthz(&mut client, daemon.addr))
            .collect();
        drop(client);
        drop(daemon);
        healthz.extend(exchanges.iter().cloned());
        daemon::record_service_layers(report, &healthz, &before, &after, &stats);
        let mut ledger = Ledger::default();
        let mut spans = Spans::new();
        daemon::replay_layers(&graders, &sources, &exchanges, &mut ledger, &mut spans);
        ledger.record(report);
        report.set("trace.overhead_pct", 0.0);
        spans.write(&format!("classroom-seed{}", options.seed), report);
    }
    Ok(())
}
