//! The one JSON writer behind every exporter: the string escaper, the
//! number formatter, and the Chrome Trace Event framing that
//! `Timeline::to_chrome_trace` and the service's `SpanLog` fill with
//! their rows. `MetricsSnapshot::to_json` lays out its own object with
//! the same two encoders.
//!
//! Numbers use Rust's shortest round-trip notation, so equal inputs
//! serialize byte-identically. JSON has no NaN or Infinity: a non-finite
//! number, which a correct run never records, renders `null` rather than
//! corrupt the document.

use std::fmt::Write;

/// Append `s` as a JSON string literal.
pub(crate) fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` in shortest round-trip notation, or `null` when it is not
/// finite.
pub(crate) fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A Chrome Trace Event document (`chrome://tracing`,
/// `ui.perfetto.dev`), written one row per line: metadata rows name the
/// processes and threads, and complete (`"X"`) rows carry one span each,
/// with virtual seconds rendered as microseconds.
pub struct ChromeTrace {
    out: String,
    empty: bool,
}

impl Default for ChromeTrace {
    /// An empty event list.
    fn default() -> Self {
        ChromeTrace {
            out: String::from("{\"traceEvents\":["),
            empty: true,
        }
    }
}

impl ChromeTrace {
    fn row(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out.push_str("\n ");
        &mut self.out
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        let out = self.row();
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":"
        );
        push_string(out, name);
        out.push_str("}}");
    }

    /// Name process `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    /// Name thread `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata("thread_name", pid, tid, name);
    }

    /// One complete row: a span named `name` in category `cat` on thread
    /// `tid` of process `pid`, from `t0` to `t1` virtual seconds, with an
    /// optional scalar rendered as `args.v`.
    pub fn complete(
        &mut self,
        (pid, tid): (u64, u64),
        cat: &str,
        name: &str,
        (t0, t1): (f64, f64),
        value: Option<f64>,
    ) {
        let out = self.row();
        let _ = write!(out, "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"cat\":");
        push_string(out, cat);
        out.push_str(",\"name\":");
        push_string(out, name);
        out.push_str(",\"ts\":");
        push_number(out, t0 * 1e6);
        out.push_str(",\"dur\":");
        push_number(out, (t1 - t0) * 1e6);
        if let Some(v) = value {
            out.push_str(",\"args\":{\"v\":");
            push_number(out, v);
            out.push('}');
        }
        out.push('}');
    }

    /// Close the event list and return the document, with `other_data`
    /// (a JSON object) as its `otherData`.
    pub fn finish(mut self, other_data: &str) -> String {
        self.out
            .push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":");
        self.out.push_str(other_data);
        self.out.push('}');
        self.out
    }
}
