//! Timing discipline shared by every workload: probe-bracketed timed
//! calls, benchmark-side spans, and the statistics reported over passes.

use crate::probe::Probe;
use crate::sys;
use std::time::Instant;

/// One timed call into the program.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Host seconds of the call.
    pub wall_s: f64,
    /// The call's time divided by the mean of the reference probes just
    /// before and just after it.
    pub norm: f64,
}

/// A span recorded from the benchmark's side of a layer boundary.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// One id per pass; set-up and layer measurements use their own.
    pub pass: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub pass: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            pass: self.pass,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Self time, in seconds, of the spans named `name` in pass `pass`:
    /// each span's duration minus the part its children cover, summed.
    pub fn self_time(&self, pass: u32, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let own_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(|s| {
                s.end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[s.id as usize])
            })
            .sum();
        own_ns as f64 * 1e-9
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"pass\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                sp.id,
                sp.pass,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        s.push(']');
        s
    }
}

/// Times calls into the program for one pass, bracketing each with the
/// reference probe. Consecutive calls share the probe between them.
pub struct Harness<'a> {
    probe: &'a Probe,
    last_probe: f64,
    pub calls: Vec<Call>,
    pub probes: Vec<f64>,
    /// Context switches inside the timed calls (the probe's excluded).
    pub switches: u64,
    pub tracer: Option<&'a mut Tracer>,
}

impl<'a> Harness<'a> {
    pub fn new(probe: &'a Probe, tracer: Option<&'a mut Tracer>) -> Harness<'a> {
        let first = probe.run();
        Harness {
            probe,
            last_probe: first,
            calls: Vec::new(),
            probes: vec![first],
            switches: 0,
            tracer,
        }
    }

    /// Whether this pass records spans and program metrics.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Time one call into the program; `name` labels its span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let before = self.last_probe;
        let span = self.tracer.as_mut().map(|t| t.open(name));
        let switches = sys::context_switches();
        let t0 = Instant::now();
        let r = f();
        let wall_s = t0.elapsed().as_secs_f64();
        self.switches += sys::context_switches() - switches;
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.close(id);
        }
        let after = self.probe.run();
        self.last_probe = after;
        self.probes.push(after);
        self.calls.push(Call {
            wall_s,
            norm: wall_s / (0.5 * (before + after)),
        });
        r
    }

    /// Host seconds of the pass's timed calls.
    pub fn wall_s(&self) -> f64 {
        self.calls.iter().map(|c| c.wall_s).sum()
    }

    /// Probe-normalised time of the pass's timed calls.
    pub fn wall_ref(&self) -> f64 {
        self.calls.iter().map(|c| c.norm).sum()
    }
}

/// Quantile `q ∈ [0, 1]` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Run-independent 64-bit digest (FNV-1a over bytes; words little-endian).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
}
