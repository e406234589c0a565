//! Zero-dependency observability for the grading stack.
//!
//! Three layers, all allocation-free on the hot path:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) live in a global
//!   sharded [`Registry`]. Handles are `Arc`s cached per call site by the
//!   [`counter!`] / [`gauge!`] / [`histogram!`] macros, so a hot-path
//!   increment is one relaxed atomic op. Histograms use HDR-style
//!   log-linear buckets: lock-free record, ~3% worst-case relative error.
//! - **Traces** ([`Trace`], [`Span`]) record a per-request span tree.
//!   A trace is installed into thread-local context at the service
//!   boundary; [`span`] is a no-op (one TLS read) when no trace is
//!   installed, so instrumentation observes without steering and costs
//!   nearly nothing when disabled. [`TraceHandle`] carries the context
//!   across thread spawns (batch workers).
//! - **Exposition**: [`Registry::render_prometheus`] serves the classic
//!   Prometheus text format; [`TraceRing`] keeps the most recent N traces
//!   for a `/debug/traces`-style endpoint.

mod expo;
mod metrics;
mod trace;

pub use expo::CONTENT_TYPE;
pub use metrics::{global, Counter, Gauge, Histogram, Registry};
pub use trace::{
    current_handle, record_span, span, span_with_histogram, Span, SpanRecord, Trace, TraceGuard,
    TraceHandle, TraceId, TraceRing,
};

/// Registers (once per call site) and returns a counter handle.
///
/// ```
/// afg_obs::counter!("afg_demo_total", "Things that happened").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::clone(HANDLE.get_or_init(|| $crate::global().counter($name, $help, &[])))
    }};
    ($name:expr, $help:expr, $labels:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::clone(
            HANDLE.get_or_init(|| $crate::global().counter($name, $help, $labels)),
        )
    }};
}

/// Registers (once per call site) and returns a gauge handle.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::clone(HANDLE.get_or_init(|| $crate::global().gauge($name, $help, &[])))
    }};
    ($name:expr, $help:expr, $labels:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::clone(
            HANDLE.get_or_init(|| $crate::global().gauge($name, $help, $labels)),
        )
    }};
}

/// Registers (once per call site) and returns a histogram handle.
/// `$scale` multiplies raw recorded integers into the exposition unit
/// (e.g. record microseconds, expose seconds with `1e-6`).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr, $scale:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::clone(
            HANDLE.get_or_init(|| $crate::global().histogram($name, $help, $scale, &[])),
        )
    }};
    ($name:expr, $help:expr, $scale:expr, $labels:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::clone(
            HANDLE.get_or_init(|| $crate::global().histogram($name, $help, $scale, $labels)),
        )
    }};
}

/// Opens a pipeline-stage span: attaches to the current trace (if one is
/// installed) *and* records the stage's wall-clock into the shared
/// `afg_stage_seconds{stage=...}` histogram either way. The stage name
/// must be a literal so the histogram handle can be cached per call site.
#[macro_export]
macro_rules! stage_span {
    ($stage:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        let hist = HANDLE.get_or_init(|| {
            $crate::global().histogram(
                "afg_stage_seconds",
                "Wall-clock per pipeline stage",
                1e-6,
                &[("stage", $stage)],
            )
        });
        $crate::span_with_histogram($stage, ::std::sync::Arc::clone(hist))
    }};
}
