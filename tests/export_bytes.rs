//! Byte pins for the three JSON exporters: `Timeline::to_chrome_trace`,
//! `SpanLog::to_chrome_trace` and `MetricsSnapshot::to_json`.
//!
//! Each fixture exercises the exporter's whole vocabulary (metadata rows,
//! nested hop slices, detail labels, non-finite numbers, keys that need
//! escaping), and each expected string is the exact output of the
//! exporters as first written. Any change to the shared writer that moves
//! one byte fails here, not in a downstream trace viewer.

use grads_core::obs::{MsgKind, Obs, RankState, Recorder, Timeline};
use grads_core::service::{JobPhase, JobSpan, SpanLog, MARKET_TENANT};

/// Two worlds recorded with internals: a two-rank world with a
/// collective whose receive hop nests inside it, and a one-rank world
/// whose name and host label need escaping.
fn two_world_timeline() -> Timeline {
    let rec = Recorder::enabled_with_internals();
    let w0 = rec.register_world("qr-e0", &["utk-0".to_string(), "utk-1".to_string()]);
    let w1 = rec.register_world("swap \"b\"", &["uiuc\\0".to_string()]);
    for (pid, w, rank) in [(0, w0, 0), (1, w0, 1), (2, w1, 0)] {
        rec.bind_pid(pid, w, rank);
        rec.track_start(pid, 0.0);
    }
    rec.interval(w0, 0, RankState::Compute, 0.0, 0.1 + 0.2);
    rec.send_msg(w0, 0, 0, 1, 7, 1e6, 0.3, 0.3, true, MsgKind::Collective);
    rec.hop(w0, 0, RankState::SendBlocked, Some("bcast"), 0.3, 0.3);
    rec.interval(w0, 1, RankState::Compute, 0.0, 1e-7);
    rec.interval_detail(w0, 1, RankState::Collective, Some("bcast"), 1e-7, 0.75);
    rec.hop(w0, 1, RankState::RecvBlocked, Some("bcast"), 1e-7, 0.75);
    rec.recv_msg(w0, 1, 0, 1, 7, 1e-7, 0.75);
    rec.interval(w0, 1, RankState::Compute, 0.75, 2.5);
    rec.interval(w1, 0, RankState::SwappedOut, 0.0, 1.0 / 3.0);
    rec.interval(w1, 0, RankState::Compute, 1.0 / 3.0, 12345.678);
    rec.track_end(0, 0.3);
    rec.track_end(1, 2.5);
    rec.track_end(2, 12345.678);
    rec.timeline()
}

fn span(
    job: u32,
    tenant: u32,
    phase: JobPhase,
    detail: Option<&'static str>,
    t: (f64, f64),
    value: f64,
) -> JobSpan {
    JobSpan {
        job,
        tenant,
        phase,
        detail,
        t0: t.0,
        t1: t.1,
        value,
    }
}

/// Two tenants and the market row: an admitted job that runs, a
/// rejected one, and a span whose value is NaN.
fn span_log() -> SpanLog {
    let log = SpanLog::enabled();
    log.push(span(2, 1, JobPhase::Submit, None, (0.5, 0.5), 0.0));
    log.push(span(
        0,
        MARKET_TENANT,
        JobPhase::Price,
        None,
        (1.0, 1.0),
        0.125,
    ));
    log.push(span(2, 1, JobPhase::Map, None, (1.0, 1.0), 42.5));
    log.push(span(2, 1, JobPhase::Admit, None, (0.5, 1.0), 3.0));
    log.push(span(2, 1, JobPhase::Run, None, (1.0, 43.5), 0.0));
    log.push(span(
        5,
        0,
        JobPhase::Defer,
        Some("auction"),
        (1.0, 1.0),
        f64::NAN,
    ));
    log.push(span(
        1,
        MARKET_TENANT,
        JobPhase::Price,
        None,
        (2.0, 2.0),
        1e-9,
    ));
    log.push(span(
        5,
        0,
        JobPhase::Reject,
        Some("expired"),
        (2.0, 2.0),
        0.0,
    ));
    log.push(span(2, 1, JobPhase::SloMiss, None, (43.5, 43.5), 0.0));
    log
}

/// A counter, a finite and a non-finite gauge, a histogram, and a key
/// that needs escaping.
fn metrics() -> Obs {
    let obs = Obs::enabled();
    obs.counter_add("contract.polls", 3);
    obs.counter_add("key \"q\"\\\n\t\u{1}", 1);
    obs.gauge_set("svc.end_time", 0.1 + 0.2);
    obs.gauge_set("svc.bad", f64::INFINITY);
    for v in [1e-7, 0.004, 2.5, 2.5, 9e9] {
        obs.observe("contract.latency", v);
    }
    obs
}

#[test]
fn timeline_chrome_trace_bytes_are_pinned() {
    assert_eq!(two_world_timeline().to_chrome_trace(), TIMELINE);
}

#[test]
fn span_log_chrome_trace_bytes_are_pinned() {
    let trace = span_log().to_chrome_trace();
    assert_eq!(trace, SPANS);
    // Two market rounds share the market's one row.
    assert_eq!(trace.matches(r#""name":"rounds""#).count(), 1);
}

#[test]
fn metrics_json_bytes_are_pinned() {
    assert_eq!(metrics().snapshot().to_json(), METRICS);
}

const TIMELINE: &str = r#"{"traceEvents":[
 {"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"qr-e0"}},
 {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"swap \"b\""}},
 {"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"rank 0 @ utk-0"}},
 {"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"rank 1 @ utk-1"}},
 {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"rank 0 @ uiuc\\0"}},
 {"ph":"X","pid":0,"tid":0,"cat":"state","name":"Compute","ts":0,"dur":300000.00000000006},
 {"ph":"X","pid":0,"tid":1,"cat":"state","name":"Compute","ts":0,"dur":0.09999999999999999},
 {"ph":"X","pid":0,"tid":1,"cat":"state","name":"bcast","ts":0.09999999999999999,"dur":749999.9},
 {"ph":"X","pid":0,"tid":1,"cat":"state","name":"Compute","ts":750000,"dur":1750000},
 {"ph":"X","pid":1,"tid":0,"cat":"state","name":"SwappedOut","ts":0,"dur":333333.3333333333},
 {"ph":"X","pid":1,"tid":0,"cat":"state","name":"Compute","ts":333333.3333333333,"dur":12345344666.666666},
 {"ph":"X","pid":0,"tid":0,"cat":"hop","name":"bcast:send","ts":300000,"dur":0},
 {"ph":"X","pid":0,"tid":1,"cat":"hop","name":"bcast:recv","ts":0.09999999999999999,"dur":749999.9}
],"displayTimeUnit":"ms","otherData":{"worlds":[{"pid":0,"name":"qr-e0","ranks":2},{"pid":1,"name":"swap \"b\"","ranks":1}]}}"#;

const SPANS: &str = r#"{"traceEvents":[
 {"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"tenant 0"}},
 {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"tenant 1"}},
 {"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"market"}},
 {"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"job 2"}},
 {"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"rounds"}},
 {"ph":"M","pid":0,"tid":5,"name":"thread_name","args":{"name":"job 5"}},
 {"ph":"X","pid":1,"tid":2,"cat":"job","name":"Submit","ts":500000,"dur":0,"args":{"v":0}},
 {"ph":"X","pid":2,"tid":0,"cat":"job","name":"Price","ts":1000000,"dur":0,"args":{"v":0.125}},
 {"ph":"X","pid":1,"tid":2,"cat":"job","name":"Map","ts":1000000,"dur":0,"args":{"v":42.5}},
 {"ph":"X","pid":1,"tid":2,"cat":"job","name":"Admit","ts":500000,"dur":500000,"args":{"v":3}},
 {"ph":"X","pid":1,"tid":2,"cat":"job","name":"Run","ts":1000000,"dur":42500000,"args":{"v":0}},
 {"ph":"X","pid":0,"tid":5,"cat":"job","name":"Defer:auction","ts":1000000,"dur":0,"args":{"v":null}},
 {"ph":"X","pid":2,"tid":0,"cat":"job","name":"Price","ts":2000000,"dur":0,"args":{"v":0.000000001}},
 {"ph":"X","pid":0,"tid":5,"cat":"job","name":"Reject:expired","ts":2000000,"dur":0,"args":{"v":0}},
 {"ph":"X","pid":1,"tid":2,"cat":"job","name":"SloMiss","ts":43500000,"dur":0,"args":{"v":0}}
],"displayTimeUnit":"ms","otherData":{"tenants":2,"spans":9}}"#;

const METRICS: &str = r#"{
  "counters": {
    "contract.polls": 3,
    "key \"q\"\\\n\t\u0001": 1
  },
  "gauges": {
    "svc.bad": null,
    "svc.end_time": 0.30000000000000004
  },
  "histograms": {
    "contract.latency": {"count": 5, "sum": 9000000005.004, "min": 0.0000001, "max": 9000000000, "le": [0.001, 0.01, 0.1, 1, 10, 100, 1000, 10000, null], "buckets": [1, 1, 0, 0, 2, 0, 0, 0, 1], "underflow": 1, "overflow": 1}
  }
}"#;
