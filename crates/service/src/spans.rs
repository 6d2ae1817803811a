//! Per-job lifecycle spans: the service-layer analogue of the per-rank
//! flight recorder.
//!
//! The dispatcher emits one [`JobSpan`] per lifecycle step — submit →
//! price → map → admit / defer / reject → run → complete / SLO-miss —
//! with **caller-stamped virtual timestamps**: every `t0`/`t1` is a value
//! the dispatcher already computed for the decision itself (round time,
//! submit time, modeled finish time), so recording reads no clocks and
//! perturbs nothing. A disabled [`SpanLog`] handle (the default) turns
//! every call into a single `Option` test, exactly like
//! `grads_obs::Recorder`; [`ServiceResult`](crate::ServiceResult) is
//! bit-identical with spans on or off.
//!
//! [`SpanLog::to_chrome_trace`] renders the stream as Chrome Trace Event
//! JSON — one process per tenant plus one for the market, one thread per
//! job — with `process_name`/`thread_name` metadata events so the trace
//! is readable in `chrome://tracing` / `ui.perfetto.dev` without a
//! decoder ring.

use grads_obs::ChromeTrace;
use parking_lot::Mutex;
use std::sync::Arc;

/// Sentinel tenant for market-wide (per-round pricing) spans.
pub const MARKET_TENANT: u32 = u32::MAX;

/// One step of a job's service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobPhase {
    /// The job entered the queue (instant, stamped at its submit time).
    Submit,
    /// The market cleared a round price (market row; `value` = price).
    Price,
    /// The mapper produced a placement (`value` = predicted runtime).
    Map,
    /// Admitted: the span covers the queue wait, submit → admission
    /// (`value` = cost charged at admission).
    Admit,
    /// Deferred this round; `detail` carries the reason (`"auction"`,
    /// `"no-hosts"`, `"no-cluster"`, `"over-budget"`).
    Defer,
    /// Rejected; `detail` carries the reason (`"expired"`,
    /// `"infeasible"`, `"cutoff"`).
    Reject,
    /// Occupying slots: admission → modeled finish.
    Run,
    /// Retired on time (instant at the modeled finish).
    Complete,
    /// Retired past its deadline (instant at the modeled finish).
    SloMiss,
}

impl JobPhase {
    /// Stable display name (used by the exporter).
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Submit => "Submit",
            JobPhase::Price => "Price",
            JobPhase::Map => "Map",
            JobPhase::Admit => "Admit",
            JobPhase::Defer => "Defer",
            JobPhase::Reject => "Reject",
            JobPhase::Run => "Run",
            JobPhase::Complete => "Complete",
            JobPhase::SloMiss => "SloMiss",
        }
    }
}

/// One recorded lifecycle span. Instants have `t0 == t1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpan {
    /// Job id (or the round number on [`MARKET_TENANT`] rows).
    pub job: u32,
    /// Owning tenant, or [`MARKET_TENANT`].
    pub tenant: u32,
    /// Lifecycle step.
    pub phase: JobPhase,
    /// Step-specific label (defer/reject reason).
    pub detail: Option<&'static str>,
    /// Span start, virtual seconds (caller-stamped).
    pub t0: f64,
    /// Span end, virtual seconds.
    pub t1: f64,
    /// Step-specific scalar (price, predicted runtime, cost; `0.0` when
    /// the step carries none).
    pub value: f64,
}

/// Handle to one job-span stream. Cloning shares the log (`Arc` inside);
/// the default handle is disabled and records nothing.
#[derive(Clone, Default)]
pub struct SpanLog {
    inner: Option<Arc<Mutex<Vec<JobSpan>>>>,
}

impl std::fmt::Debug for SpanLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanLog")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl SpanLog {
    /// A recording handle with an empty stream.
    pub fn enabled() -> Self {
        SpanLog {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// A no-op handle (the `Default`).
    pub fn disabled() -> Self {
        SpanLog { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append one span (no-op when disabled).
    #[inline]
    pub fn push(&self, span: JobSpan) {
        if let Some(i) = &self.inner {
            i.lock().push(span);
        }
    }

    /// Everything recorded so far, in record order.
    pub fn spans(&self) -> Vec<JobSpan> {
        match &self.inner {
            Some(i) => i.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Spans of one phase, in record order.
    pub fn phase_spans(&self, phase: JobPhase) -> Vec<JobSpan> {
        self.spans()
            .into_iter()
            .filter(|s| s.phase == phase)
            .collect()
    }

    /// Render as Chrome Trace Event JSON: one process per tenant (plus a
    /// `market` process for round pricing), one thread per job, a
    /// complete (`"X"`) event per span, timestamps in microseconds of
    /// virtual time. `process_name` / `thread_name` metadata events are
    /// emitted for every row. Byte-deterministic for equal streams.
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.spans();
        // The market process renders after the real tenants.
        let n_tenants = spans
            .iter()
            .filter(|s| s.tenant != MARKET_TENANT)
            .map(|s| s.tenant + 1)
            .max()
            .unwrap_or(0);
        // (pid, tid) of a span's row.
        let track = |s: &JobSpan| -> (u64, u64) {
            if s.tenant == MARKET_TENANT {
                (n_tenants.into(), 0)
            } else {
                (s.tenant.into(), s.job.into())
            }
        };
        let mut trace = ChromeTrace::default();
        for t in 0..n_tenants {
            trace.process_name(t.into(), &format!("tenant {t}"));
        }
        if spans.iter().any(|s| s.tenant == MARKET_TENANT) {
            trace.process_name(n_tenants.into(), "market");
        }
        // One thread_name per distinct row, first-seen order. Market spans
        // carry their round in `job` but share the one "rounds" row.
        let mut named: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
        for s in &spans {
            let (pid, tid) = track(s);
            if named.insert((pid, tid)) {
                let label = if s.tenant == MARKET_TENANT {
                    "rounds".to_string()
                } else {
                    format!("job {}", s.job)
                };
                trace.thread_name(pid, tid, &label);
            }
        }
        for s in &spans {
            let name = match s.detail {
                Some(d) => format!("{}:{}", s.phase.name(), d),
                None => s.phase.name().to_string(),
            };
            trace.complete(track(s), "job", &name, (s.t0, s.t1), Some(s.value));
        }
        trace.finish(&format!(
            "{{\"tenants\":{n_tenants},\"spans\":{}}}",
            spans.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::disabled();
        assert!(!log.is_enabled());
        log.push(JobSpan {
            job: 1,
            tenant: 0,
            phase: JobPhase::Submit,
            detail: None,
            t0: 0.0,
            t1: 0.0,
            value: 0.0,
        });
        assert!(log.spans().is_empty());
    }

    #[test]
    fn chrome_trace_names_processes_and_threads() {
        let log = SpanLog::enabled();
        log.push(JobSpan {
            job: 3,
            tenant: 1,
            phase: JobPhase::Admit,
            detail: None,
            t0: 1.0,
            t1: 4.0,
            value: 2.5,
        });
        log.push(JobSpan {
            job: 0,
            tenant: MARKET_TENANT,
            phase: JobPhase::Price,
            detail: None,
            t0: 4.0,
            t1: 4.0,
            value: 0.75,
        });
        log.push(JobSpan {
            job: 3,
            tenant: 1,
            phase: JobPhase::Reject,
            detail: Some("expired"),
            t0: 5.0,
            t1: 5.0,
            value: 0.0,
        });
        let json = log.to_chrome_trace();
        assert!(json.contains("\"name\":\"process_name\""), "{json}");
        assert!(json.contains("\"name\":\"tenant 1\""));
        assert!(json.contains("\"name\":\"market\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"job 3\""));
        assert!(json.contains("\"name\":\"Reject:expired\""));
        assert_eq!(json, log.to_chrome_trace(), "byte-deterministic");
    }
}
