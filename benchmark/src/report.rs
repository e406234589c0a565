//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;

use afg_json::Json;

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// their units.  The names and units must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("subs_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("grade_p50_ms", "ms"),
    ("grade_tail_ms", "ms"),
    ("fixed_pct", "%"),
    ("decided_pct", "%"),
    ("slo_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`.  A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.calls", "count"),
    ("parser.busy_ms", "ms"),
    ("parser.rejects", "count"),
    ("eml.calls", "count"),
    ("eml.busy_ms", "ms"),
    ("eml.choice_sites", "count"),
    ("synth.calls", "count"),
    ("synth.busy_ms", "ms"),
    ("synth.other_ms", "ms"),
    ("synth.candidates", "count"),
    ("synth.cegis_iters", "count"),
    ("synth.decided_ratio", "ratio"),
    ("synth.calls.correct", "count"),
    ("synth.calls.fixed", "count"),
    ("synth.calls.cannotfix", "count"),
    ("synth.calls.timeout", "count"),
    ("synth.busy_ms.correct", "ms"),
    ("synth.busy_ms.fixed", "ms"),
    ("synth.busy_ms.cannotfix", "ms"),
    ("synth.busy_ms.timeout", "ms"),
    ("sat.busy_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.learnts", "count"),
    ("sat.busy_ms.correct", "ms"),
    ("sat.busy_ms.fixed", "ms"),
    ("sat.busy_ms.cannotfix", "ms"),
    ("sat.busy_ms.timeout", "ms"),
    ("interp.busy_ms", "ms"),
    ("interp.sweeps", "count"),
    ("interp.inputs", "count"),
    ("interp.ns_per_input", "ns"),
    ("interp.inputs_per_sweep", "count"),
    ("interp.verdict_cache_hit_ratio", "ratio"),
    ("interp.busy_ms.correct", "ms"),
    ("interp.busy_ms.fixed", "ms"),
    ("interp.busy_ms.cannotfix", "ms"),
    ("interp.busy_ms.timeout", "ms"),
    ("feedback.calls", "count"),
    ("feedback.busy_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us_p50", "us"),
    ("cache.miss_ms_p50", "ms"),
    ("cache.entries", "count"),
    ("cluster.transfer_attempts", "count"),
    ("cluster.transfer_hits", "count"),
    ("cluster.transfer_hit_ratio", "ratio"),
    ("cluster.conflicts_saved", "count"),
    ("http.healthz_us_p50", "us"),
    ("http.overhead_us_p50", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.rejections", "count"),
    ("service.conn_timeouts", "count"),
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.parity_exceptions", "count"),
    ("check.error_pct", "%"),
    ("loadgen.late_ms_p50", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.capacity_rps", "1/s"),
];

/// The outcome classes the per-outcome split uses, in report order.
pub const OUTCOMES: [&str; 4] = ["correct", "fixed", "cannotfix", "timeout"];

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations with a wrong or missing result.
    pub failed: u64,
    /// Run-validity problems (an open loop that fell behind, …); any entry
    /// makes the run incorrect.
    pub invalid: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, then the one-line JSON result with the metric set
    /// of the requested mode.
    pub fn print(&self, trace: bool) {
        for line in &self.notes {
            println!("# {line}");
        }
        for reason in &self.invalid {
            println!("# INVALID RUN: {reason}");
        }
        let error_pct = if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        };
        println!(
            "# error_pct {error_pct} % ({} of {} operations failed)",
            self.failed, self.attempted
        );
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics = names.iter().map(|(name, unit)| {
            let value = match *name {
                "check.error_pct" => error_pct,
                _ => self.metrics.get(*name).copied().unwrap_or(0.0),
            };
            (
                name.to_string(),
                Json::object([("value", Json::Float(value)), ("unit", Json::str(*unit))]),
            )
        });
        let result = Json::object([
            (
                "correct",
                Json::Bool(self.failed == 0 && self.invalid.is_empty() && self.attempted > 0),
            ),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics.collect())),
        ]);
        println!("{result}");
    }
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule; 0 for an
/// empty slice.  Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A smoothed estimate of the `q`-quantile of `values`: the Harrell–Davis
/// estimator, a weighted mean of the order statistics whose weights are the
/// Beta((n+1)q, (n+1)(1-q)) probability of each rank interval, with the
/// Beta replaced by its normal approximation.  Unlike a single order
/// statistic it does not jump between neighbouring samples when run-to-run
/// jitter reorders them.  0 for an empty slice.
pub fn smooth_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return values.first().copied().unwrap_or(0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let sd = (q * (1.0 - q) / (n as f64 + 2.0)).sqrt();
    let cdf = |x: f64| 0.5 * (1.0 + erf((x - q) / (sd * std::f64::consts::SQRT_2)));
    let mut total = 0.0;
    let mut weights = 0.0;
    let mut previous = cdf(0.0);
    for (i, value) in sorted.iter().enumerate() {
        let next = cdf((i + 1) as f64 / n as f64);
        total += (next - previous) * value;
        weights += next - previous;
        previous = next;
    }
    total / weights
}

/// The error function (Abramowitz & Stegun 7.1.26, |error| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let y = 1.0 - poly * (-x * x).exp();
    if x < 0.0 {
        -y
    } else {
        y
    }
}

/// Records `grade_p50_ms` and `grade_tail_ms` of `latencies_ms`, both
/// [`smooth_quantile`] estimates; the tail is the workload's pinned
/// quantile `q`, and a note gives the sample counts behind it.
pub fn record_latency(report: &mut Report, latencies_ms: &[f64], q: f64) {
    report.set("grade_p50_ms", smooth_quantile(latencies_ms, 0.5));
    let tail = smooth_quantile(latencies_ms, q);
    let above = latencies_ms.iter().filter(|&&v| v >= tail).count();
    report.set("grade_tail_ms", tail);
    report.note(format!(
        "grade_tail_ms is p{}: {tail:.3} ms over {} samples, {above} at or above it",
        q * 100.0,
        latencies_ms.len()
    ));
}

/// Peak resident set size of a process in MB (`VmHWM` of
/// `/proc/<pid>/status`); 0 where the file is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Percentage helper: `100 * part / whole`, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Ratio helper: `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let smooth = smooth_quantile(&values, 0.5);
        assert!((smooth - 50.5).abs() < 0.01, "{smooth}");
        assert!((smooth_quantile(&values, 0.9) - 90.5).abs() < 1.0);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
    }
}
