//! Deterministic parallel sweep runner for independent scenarios.
//!
//! Every figure/table harness in this crate boils down to the same shape:
//! run N independent engine scenarios (a parameter sweep, randomized
//! trials, an ablation grid) and print one line or JSON block per
//! scenario. The scenarios share nothing — each builds its own `Engine` —
//! so they can fan out over OS threads, as long as the *output* stays
//! byte-identical to a serial run.
//!
//! [`run_sweep`] guarantees exactly that: workers pull scenario indices
//! from a shared atomic counter (so scheduling is work-stealing and
//! non-deterministic), but results are collected with their indices and
//! returned sorted by scenario index. Nothing about a scenario's *result*
//! may depend on which worker ran it or when — true here because the
//! engine is deterministic per scenario — and
//! `tests/sweep_determinism.rs` pins the 1-worker and N-worker outputs to
//! byte equality.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of sweep workers: `GRADS_SWEEP_WORKERS` if set (minimum 1),
/// otherwise the machine's available parallelism.
pub fn default_workers() -> usize {
    if let Ok(s) = std::env::var("GRADS_SWEEP_WORKERS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(index, &item)` for every item, fanning out over `workers` OS
/// threads, and return the results **in item order** regardless of which
/// worker computed what. With `workers <= 1` everything runs on the
/// calling thread (no spawn), which is the reference serial order.
pub fn run_sweep<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            tagged.extend(h.join().expect("sweep worker panicked"));
        }
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Merge one named top-level section into the snapshot `file` at the repo
/// root, preserving the other sections and their order. `body` must be a
/// valid JSON value (typically an object built with [`json_obj`]). The
/// file itself is a single JSON object keyed by section name, one file
/// per benchmark family (`BENCH_service.json`, `BENCH_attr.json`).
pub fn merge_bench_section_in(file: &str, section: &str, body: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let mut sections = parse_top_level(&existing);
    match sections.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = body.to_string(),
        None => sections.push((section.to_string(), body.to_string())),
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in sections.iter().enumerate() {
        let sep = if i + 1 == sections.len() { "" } else { "," };
        out.push_str(&format!("  \"{k}\": {v}{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {file}: {e}"));
}

/// Split the top level of a JSON object into `(key, raw value)` pairs.
/// A balanced-brace scan is enough because we only ever read files this
/// module wrote (no escapes beyond plain strings, no nested quotes in
/// keys).
fn parse_top_level(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Some(open) = s.find('{') else {
        return out;
    };
    let inner = &s[open + 1..];
    let bytes = inner.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        // Key.
        let Some(k0) = inner[i..].find('"').map(|o| i + o + 1) else {
            break;
        };
        let Some(k1) = inner[k0..].find('"').map(|o| k0 + o) else {
            break;
        };
        let key = inner[k0..k1].to_string();
        let Some(colon) = inner[k1..].find(':').map(|o| k1 + o) else {
            break;
        };
        // Value: scan to the comma (or closing brace) at depth zero.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut j = colon + 1;
        let v0 = j;
        let mut v1 = bytes.len().saturating_sub(1);
        while j < bytes.len() {
            let c = bytes[j] as char;
            if in_str {
                if c == '\\' {
                    j += 1;
                } else if c == '"' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' if depth > 0 => depth -= 1,
                    ',' | '}' if depth == 0 => {
                        v1 = j;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        out.push((key, inner[v0..v1].trim().to_string()));
        i = v1 + 1;
    }
    out
}

/// Build a JSON object from `(key, raw value)` pairs, indented for the
/// section level of a `BENCH_*.json` snapshot.
pub fn json_obj(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i + 1 == fields.len() { "" } else { "," };
        out.push_str(&format!("    \"{k}\": {v}{sep}\n"));
    }
    out.push_str("  }");
    out
}

/// Format an `f64` as a JSON number (finite; falls back to `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_results_are_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let serial = run_sweep(&items, 1, |i, &x| (i, x * x));
        for w in [2, 4, 8] {
            let par = run_sweep(&items, w, |i, &x| (i, x * x));
            assert_eq!(serial, par, "workers = {w}");
        }
        assert_eq!(serial[5], (5, 25));
    }

    #[test]
    fn top_level_parse_roundtrips() {
        let doc = "{\n  \"a\": {\n    \"x\": 1,\n    \"s\": \"v, {w}\"\n  },\n  \"b\": [1, 2],\n  \"c\": 3.5\n}\n";
        let sections = parse_top_level(doc);
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        assert!(sections[0].1.contains("\"s\": \"v, {w}\""));
        assert_eq!(sections[1].1, "[1, 2]");
        assert_eq!(sections[2].1, "3.5");
    }

    #[test]
    fn json_obj_formats_fields() {
        let o = json_obj(&[("a", "1".into()), ("b", json_num(2.5))]);
        assert!(o.contains("\"a\": 1,"));
        assert!(o.contains("\"b\": 2.500"));
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
