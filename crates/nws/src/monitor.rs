//! Grid-level weather service: per-host CPU availability and per-site-pair
//! network forecasts, fed by sensors and queried by the scheduler
//! (`dcost`), the rescheduler (remaining-time estimates) and the contract
//! monitor.
//!
//! The service itself is passive storage + forecasting; *sensor* processes
//! running inside the emulation (see [`CpuSensor`] and [`cpu_probe`])
//! produce the measurements, exactly as NWS sensor daemons did on the
//! GrADS testbeds.

use crate::ensemble::{CpuBank, Ensemble, Forecast};
use grads_sim::prelude::*;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The bit pattern a snapshot serves for an unmeasured CPU series: an
/// unmeasured host is assumed idle (`forecast_cpu_or_idle` → `1.0`).
pub(crate) const IDLE_BITS: u64 = 0x3FF0_0000_0000_0000; // 1.0f64.to_bits()

/// Sentinel for "no forecast" on a network series, where `None` is a
/// distinct observable state (it routes queries to the static topology).
pub(crate) const NONE_BITS: u64 = u64::MAX;

/// Orders a cluster pair so (a,b) and (b,a) share one series.
fn pair(a: ClusterId, b: ClusterId) -> (ClusterId, ClusterId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Per-series change tracking for delta snapshot capture.
///
/// `*_clean` holds the bits the last synchronized snapshot capture served
/// for each series (`cpu_clean` indexed by `HostId`, [`IDLE_BITS`] past
/// its end). A series is **dirty** iff the forecast it serves right now
/// (its winner, cached at update time) differs bitwise from that
/// baseline — so an observation whose served forecast lands back on the
/// clean bits *removes* the series from the dirty set again. Never-captured series compare against the sentinel
/// the snapshot serves for them ([`IDLE_BITS`] / [`NONE_BITS`]).
#[derive(Default)]
pub(crate) struct DeltaTrack {
    cpu_clean: Vec<u64>,
    bw_clean: HashMap<(ClusterId, ClusterId), u64>,
    lat_clean: HashMap<(ClusterId, ClusterId), u64>,
    /// Dirty CPU series as a bitset: bit `h % 64` of word `h / 64`.
    dirty_hosts: Vec<u64>,
    dirty_bw: BTreeSet<(ClusterId, ClusterId)>,
    dirty_lat: BTreeSet<(ClusterId, ClusterId)>,
}

/// A forecast series whose served value moved since the last sync.
pub(crate) enum Series {
    Cpu(HostId),
    Bandwidth(ClusterId, ClusterId),
    Latency(ClusterId, ClusterId),
}

impl DeltaTrack {
    /// Flip host `h`'s dirty bit: the `served` bits against its clean
    /// baseline.
    fn note_cpu(&mut self, h: usize, served: f64) {
        let clean = self.cpu_clean.get(h).copied().unwrap_or(IDLE_BITS);
        let (word, bit) = (h / 64, 1u64 << (h % 64));
        if served.to_bits() == clean {
            if let Some(w) = self.dirty_hosts.get_mut(word) {
                *w &= !bit;
            }
        } else {
            if word >= self.dirty_hosts.len() {
                self.dirty_hosts.resize(word + 1, 0);
            }
            self.dirty_hosts[word] |= bit;
        }
    }

    /// Extend the CPU baselines and the dirty bitset over hosts `0..len`
    /// (a baseline past the old end is [`IDLE_BITS`] either way).
    fn cover_cpu(&mut self, len: usize) {
        if len > self.cpu_clean.len() {
            self.cpu_clean.resize(len, IDLE_BITS);
        }
        let words = len.div_ceil(64);
        if words > self.dirty_hosts.len() {
            self.dirty_hosts.resize(words, 0);
        }
    }

    /// [`DeltaTrack::sync`] for the CPU series, in ascending host order.
    fn sync_cpu(&mut self, bank: &CpuBank, mut moved: impl FnMut(HostId, f64)) {
        let mut dirty = std::mem::take(&mut self.dirty_hosts);
        for h in set_bits(&dirty) {
            let v = bank.forecast_value(h).expect("a dirty host is measured");
            if h >= self.cpu_clean.len() {
                self.cpu_clean.resize(h + 1, IDLE_BITS);
            }
            self.cpu_clean[h] = v.to_bits();
            moved(HostId(h as u32), v);
        }
        dirty.fill(0);
        self.dirty_hosts = dirty;
    }

    /// Flip one series' dirty membership: `e`'s served bits against the
    /// clean baseline, `default` (the sentinel an uncaptured series
    /// serves) when the series was never captured.
    fn note<K: Ord + std::hash::Hash + Copy>(
        clean: &HashMap<K, u64>,
        dirty: &mut BTreeSet<K>,
        key: K,
        e: &Ensemble,
        default: u64,
    ) {
        if served(e).to_bits() == clean.get(&key).copied().unwrap_or(default) {
            dirty.remove(&key);
        } else {
            dirty.insert(key);
        }
    }

    /// Make the dirty series' baselines the values their ensembles serve
    /// now, hand each to `moved`, and empty the dirty set; every other
    /// series already serves its baseline.
    fn sync<K: Ord + std::hash::Hash + Copy>(
        clean: &mut HashMap<K, u64>,
        dirty: &mut BTreeSet<K>,
        series: &HashMap<K, Ensemble>,
        mut moved: impl FnMut(K, f64),
    ) {
        for k in std::mem::take(dirty) {
            let v = served(&series[&k]);
            clean.insert(k, v.to_bits());
            moved(k, v);
        }
    }
}

/// The indices of the set bits of a `u64`-word bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

/// The value a measured series serves: its ensemble's cached forecast.
fn served(e: &Ensemble) -> f64 {
    e.forecast_value().expect("measured series forecasts")
}

/// The weather service: stores measurement streams and serves forecasts.
#[derive(Default)]
pub struct NwsService {
    /// CPU series indexed by `HostId`.
    cpu: CpuBank,
    bandwidth: HashMap<(ClusterId, ClusterId), Ensemble>,
    latency: HashMap<(ClusterId, ClusterId), Ensemble>,
    /// Latest heartbeat time indexed by `HostId`; `None` for a host whose
    /// sensor never reported.
    heartbeat: Vec<Option<f64>>,
    /// Delta-capture tracking; `None` (the default) keeps every
    /// observation on the exact seed code path with zero overhead.
    track: Option<DeltaTrack>,
}

impl NwsService {
    /// Empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a CPU availability measurement in `[0, 1]` for a host
    /// (fraction of one core's peak rate a new process would obtain).
    pub fn observe_cpu(&mut self, host: HostId, availability: f64) {
        let h = host.0 as usize;
        let served = self.cpu.observe(h, availability);
        if let Some(t) = &mut self.track {
            t.note_cpu(h, served);
        }
    }

    /// Record one CPU availability measurement for every host `h` in
    /// `0..availability.len()`, `availability[h]` for host `h`: the same
    /// forecasts and dirty bits as [`NwsService::observe_cpu`] on each
    /// host in turn. One pass observes the hosts and writes each word of
    /// the dirty-host bitset once.
    pub fn observe_cpu_all(&mut self, availability: &[f64]) {
        let Some(t) = &mut self.track else {
            self.cpu.observe_all(availability, |_, _| {});
            return;
        };
        t.cover_cpu(availability.len());
        let (clean, dirty) = (&t.cpu_clean, &mut t.dirty_hosts);
        let last = availability.len().wrapping_sub(1);
        let mut word = 0u64;
        self.cpu.observe_all(availability, |h, served| {
            word |= u64::from(served.to_bits() != clean[h]) << (h % 64);
            if h % 64 == 63 || h == last {
                // Bits `0..=h % 64` of this word were all just observed.
                let fresh = u64::MAX >> (63 - h % 64);
                let w = &mut dirty[h / 64];
                *w = *w & !fresh | word;
                word = 0;
            }
        });
    }

    /// Record an achieved end-to-end bandwidth (bytes/s) between two sites.
    pub fn observe_bandwidth(&mut self, a: ClusterId, b: ClusterId, bytes_per_s: f64) {
        let p = pair(a, b);
        let e = self.bandwidth.entry(p).or_insert_with(Ensemble::standard);
        e.update(bytes_per_s.max(0.0));
        if let Some(t) = &mut self.track {
            DeltaTrack::note(&t.bw_clean, &mut t.dirty_bw, p, e, NONE_BITS);
        }
    }

    /// Record a measured one-way latency (seconds) between two sites.
    pub fn observe_latency(&mut self, a: ClusterId, b: ClusterId, seconds: f64) {
        let p = pair(a, b);
        let e = self.latency.entry(p).or_insert_with(Ensemble::standard);
        e.update(seconds.max(0.0));
        if let Some(t) = &mut self.track {
            DeltaTrack::note(&t.lat_clean, &mut t.dirty_lat, p, e, NONE_BITS);
        }
    }

    /// Turn on delta-capture tracking: from here on every observation
    /// maintains a dirty set of series whose *served forecast bits*
    /// changed since the last synchronized snapshot capture
    /// (`ForecastSnapshot::capture_sync` / `capture_delta` in this
    /// crate). Tracking is off by default — the seed observation path is
    /// untouched — and turning it on never changes a forecast, only what
    /// bookkeeping an observation does. Idempotent; already-measured
    /// series enter the dirty set (nothing has been captured yet).
    pub fn enable_delta_tracking(&mut self) {
        if self.track.is_some() {
            return;
        }
        let mut t = DeltaTrack::default();
        for (h, served) in self.cpu.measured() {
            t.note_cpu(h, served);
        }
        for (&p, e) in &self.bandwidth {
            DeltaTrack::note(&t.bw_clean, &mut t.dirty_bw, p, e, NONE_BITS);
        }
        for (&p, e) in &self.latency {
            DeltaTrack::note(&t.lat_clean, &mut t.dirty_lat, p, e, NONE_BITS);
        }
        self.track = Some(t);
    }

    /// Whether delta-capture tracking is on.
    pub fn delta_tracking(&self) -> bool {
        self.track.is_some()
    }

    /// Hosts whose served CPU forecast bits differ from the last
    /// synchronized capture, ascending. Empty when tracking is off.
    pub fn dirty_hosts(&self) -> Vec<HostId> {
        let mut out = Vec::new();
        self.dirty_hosts_into(&mut out);
        out
    }

    /// [`NwsService::dirty_hosts`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so a caller that asks every round reuses one
    /// allocation.
    pub fn dirty_hosts_into(&self, out: &mut Vec<HostId>) {
        out.clear();
        if let Some(t) = &self.track {
            out.extend(set_bits(&t.dirty_hosts).map(|h| HostId(h as u32)));
        }
    }

    /// Mark every tracked series clean, handing each dirty series and the
    /// value it serves now to `moved` — called by the snapshot module,
    /// whose capture then serves exactly these values. Costs `O(dirty)`:
    /// only the dirty series' baselines move.
    pub(crate) fn sync_clean(&mut self, mut moved: impl FnMut(Series, f64)) {
        let t = self
            .track
            .as_mut()
            .expect("delta capture requires delta tracking (enable_delta_tracking)");
        t.sync_cpu(&self.cpu, |h, v| moved(Series::Cpu(h), v));
        DeltaTrack::sync(
            &mut t.bw_clean,
            &mut t.dirty_bw,
            &self.bandwidth,
            |(a, b), v| moved(Series::Bandwidth(a, b), v),
        );
        DeltaTrack::sync(
            &mut t.lat_clean,
            &mut t.dirty_lat,
            &self.latency,
            |(a, b), v| moved(Series::Latency(a, b), v),
        );
    }

    /// Record a sensor heartbeat: the sensor on `host` was alive at
    /// virtual time `t`. Stale heartbeats are how the GrADS machinery
    /// suspects host failures (§5 fault-tolerance direction).
    pub fn note_heartbeat(&mut self, host: HostId, t: f64) {
        let h = host.0 as usize;
        if h >= self.heartbeat.len() {
            self.heartbeat.resize(h + 1, None);
        }
        let e = &mut self.heartbeat[h];
        *e = Some(e.map_or(t, |last| last.max(t)));
    }

    /// Last heartbeat time of a host's sensor, if any.
    pub fn last_heartbeat(&self, host: HostId) -> Option<f64> {
        self.heartbeat.get(host.0 as usize).copied().flatten()
    }

    /// Hosts whose sensors have reported within `max_age` of `now`,
    /// ascending. A host that never reported is never live: no heartbeat,
    /// no liveness proof.
    pub fn live_hosts(&self, now: f64, max_age: f64) -> Vec<HostId> {
        (0..self.heartbeat.len() as u32)
            .map(HostId)
            .filter(|&h| self.last_heartbeat(h).is_some_and(|t| now - t <= max_age))
            .collect()
    }

    /// The most recent CPU availability measurement for a host (as
    /// recorded, after clamping to `[0, 1]`); `None` if never measured.
    pub fn last_cpu_measurement(&self, host: HostId) -> Option<f64> {
        self.cpu.last_measurement(host.0 as usize)
    }

    /// Forecast CPU availability for a host; `None` if never measured.
    pub fn forecast_cpu(&self, host: HostId) -> Option<Forecast> {
        self.cpu.forecast(host.0 as usize)
    }

    /// Forecast CPU availability, assuming an unmeasured host is idle.
    pub fn forecast_cpu_or_idle(&self, host: HostId) -> f64 {
        self.cpu.forecast_value(host.0 as usize).unwrap_or(1.0)
    }

    /// Forecast bandwidth between two sites; `None` if never measured.
    pub fn forecast_bandwidth(&self, a: ClusterId, b: ClusterId) -> Option<Forecast> {
        self.bandwidth.get(&pair(a, b)).and_then(|e| e.forecast())
    }

    /// Forecast latency between two sites; `None` if never measured.
    pub fn forecast_latency(&self, a: ClusterId, b: ClusterId) -> Option<Forecast> {
        self.latency.get(&pair(a, b)).and_then(|e| e.forecast())
    }

    /// [`NwsService::forecast_bandwidth`]'s value alone.
    pub(crate) fn bandwidth_value(&self, a: ClusterId, b: ClusterId) -> Option<f64> {
        self.bandwidth
            .get(&pair(a, b))
            .and_then(Ensemble::forecast_value)
    }

    /// [`NwsService::forecast_latency`]'s value alone.
    pub(crate) fn latency_value(&self, a: ClusterId, b: ClusterId) -> Option<f64> {
        self.latency
            .get(&pair(a, b))
            .and_then(Ensemble::forecast_value)
    }

    /// Effective compute rate (flop/s) a single new process would see on a
    /// host right now: peak speed scaled by forecast availability.
    pub fn effective_speed(&self, grid: &Grid, host: HostId) -> f64 {
        grid.host(host).speed * self.forecast_cpu_or_idle(host)
    }

    /// Estimate the time to move `bytes` from `src` to `dst`, preferring
    /// measured forecasts and falling back to the static topology when a
    /// path has never been measured.
    ///
    /// This is the `dcost` building block of the workflow scheduler's rank
    /// function (§3.1): *"NWS is used to obtain an estimate of the current
    /// network latency and bandwidth."*
    pub fn transfer_time(&self, grid: &Grid, src: HostId, dst: HostId, bytes: f64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let (sc, dc) = (grid.host(src).cluster, grid.host(dst).cluster);
        let (static_bw, static_lat) = grid.route_static(src, dst);
        let bw = self.bandwidth_value(sc, dc).unwrap_or(static_bw).max(1.0);
        let lat = self.latency_value(sc, dc).unwrap_or(static_lat);
        lat + bytes / bw
    }
}

/// Availability a single new process would see on a host with `cores` cores
/// and `load` units of competing external load (the analytical form of what
/// [`cpu_probe`] measures empirically).
pub fn availability_from_load(cores: u32, load: f64) -> f64 {
    let claimants = 1.0 + load;
    ((cores as f64) / claimants).min(1.0)
}

/// Correct a probe-measured availability for the observer's own presence
/// when one *application* process is already running on the host.
///
/// A probe on a host with `k` claimants (the probe itself, one app rank,
/// and external load) measures `cores / k`; the availability the app rank
/// alone enjoys is `cores / (k - 1)`. Without this correction a busy-but-
/// unloaded host looks half as fast as an idle one and swap reschedulers
/// thrash, endlessly preferring whichever host they are not using.
pub fn app_availability_from_probe(cores: u32, probe_avail: f64) -> f64 {
    let c = cores as f64;
    let p = probe_avail.clamp(1e-6, 1.0);
    let claimants = c / p; // includes the probe
    let without_probe = (claimants - 1.0).max(1.0);
    (c / without_probe).clamp(p, 1.0)
}

/// A periodic CPU sensor, the emulation analog of an NWS CPU sensor
/// process. Until `done()` turns true it repeats: probe this host's
/// availability with a `probe_flops` compute burst, record the measurement
/// and a heartbeat into the shared weather service, sleep `period`.
///
/// It is a [`Daemon`]: spawn it with `Engine::spawn_daemon` and the kernel
/// steps it inline, with no stack and no context switch.
pub struct CpuSensor {
    nws: Arc<Mutex<NwsService>>,
    host: HostId,
    peak_speed: f64,
    probe_flops: f64,
    period: f64,
    done: Box<dyn FnMut() -> bool + Send>,
    /// Virtual time the running probe started at; `None` between probes.
    probe_start: Option<f64>,
}

impl CpuSensor {
    /// A sensor on `host`, whose nominal per-core rate is `peak_speed`.
    pub fn new(
        nws: Arc<Mutex<NwsService>>,
        host: HostId,
        peak_speed: f64,
        probe_flops: f64,
        period: f64,
        done: impl FnMut() -> bool + Send + 'static,
    ) -> Self {
        CpuSensor {
            nws,
            host,
            peak_speed,
            probe_flops,
            period,
            done: Box::new(done),
            probe_start: None,
        }
    }
}

impl Daemon for CpuSensor {
    fn step(&mut self, now: f64) -> Step {
        if let Some(t0) = self.probe_start.take() {
            let a = probe_availability(self.probe_flops, now - t0, self.peak_speed);
            let mut n = self.nws.lock();
            n.observe_cpu(self.host, a);
            n.note_heartbeat(self.host, now);
            return Step::Sleep(self.period);
        }
        if (self.done)() {
            return Step::Exit;
        }
        self.probe_start = Some(now);
        Step::Compute(self.probe_flops)
    }
}

/// One network probe pair against `peer`: a tiny transfer measures the
/// path latency, a bulk transfer measures achieved bandwidth. Returns
/// `(latency_s, bandwidth_bytes_per_s)`.
pub fn net_probe(ctx: &mut Ctx, peer: HostId, bulk_bytes: f64) -> (f64, f64) {
    let t0 = ctx.now();
    ctx.transfer(peer, 1.0);
    let lat = (ctx.now() - t0).max(0.0);
    let t1 = ctx.now();
    ctx.transfer(peer, bulk_bytes);
    let dt = ctx.now() - t1;
    let bw = if dt > lat {
        bulk_bytes / (dt - lat)
    } else {
        bulk_bytes / dt.max(1e-9)
    };
    (lat, bw)
}

/// Run a periodic network sensor between this host's site and `peer`'s:
/// every `period` virtual seconds, probe and record latency + bandwidth
/// for the `(my_cluster, peer_cluster)` pair. The NWS ran exactly such
/// sensor pairs between sites.
#[allow(clippy::too_many_arguments)]
pub fn run_net_sensor(
    ctx: &mut Ctx,
    nws: &Arc<Mutex<NwsService>>,
    my_cluster: ClusterId,
    peer: HostId,
    peer_cluster: ClusterId,
    bulk_bytes: f64,
    period: f64,
    done: &(dyn Fn() -> bool + Send + Sync),
) {
    while !done() {
        let (lat, bw) = net_probe(ctx, peer, bulk_bytes);
        let mut n = nws.lock();
        n.observe_latency(my_cluster, peer_cluster, lat);
        n.observe_bandwidth(my_cluster, peer_cluster, bw);
        drop(n);
        ctx.sleep(period);
    }
}

/// Run one CPU sensor probe inside the emulation: execute a small compute
/// burst, time it in virtual time, and return the measured availability
/// (achieved rate over peak rate). `peak_speed` is the host's nominal
/// per-core flop rate; `probe_flops` trades probe cost against resolution.
pub fn cpu_probe(ctx: &mut Ctx, peak_speed: f64, probe_flops: f64) -> f64 {
    let t0 = ctx.now();
    ctx.compute(probe_flops);
    probe_availability(probe_flops, ctx.now() - t0, peak_speed)
}

/// Availability a probe of `probe_flops` that took `dt` virtual seconds
/// measured: achieved rate over peak, in `[0, 1]`; an instant probe
/// reads as idle.
fn probe_availability(probe_flops: f64, dt: f64, peak_speed: f64) -> f64 {
    if dt <= 0.0 {
        return 1.0;
    }
    (probe_flops / dt / peak_speed).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::{GridBuilder, HostSpec};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn grid2() -> Grid {
        let mut b = GridBuilder::new();
        let x = b.cluster("X");
        b.local_link(x, 1e6, 0.01);
        b.add_hosts(x, 1, &HostSpec::with_speed(100.0));
        let y = b.cluster("Y");
        b.local_link(y, 1e6, 0.01);
        b.add_hosts(y, 1, &HostSpec::with_speed(100.0));
        b.connect(x, y, 0.5e6, 0.03);
        b.build().unwrap()
    }

    #[test]
    fn transfer_time_falls_back_to_topology() {
        let g = grid2();
        let s = NwsService::new();
        let t = s.transfer_time(&g, HostId(0), HostId(1), 0.5e6);
        // bottleneck 0.5 MB/s, latency 0.01+0.03+0.01.
        assert!((t - (0.05 + 1.0)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn transfer_time_prefers_measurements() {
        let g = grid2();
        let mut s = NwsService::new();
        for _ in 0..20 {
            s.observe_bandwidth(ClusterId(0), ClusterId(1), 0.25e6);
            s.observe_latency(ClusterId(0), ClusterId(1), 0.1);
        }
        let t = s.transfer_time(&g, HostId(0), HostId(1), 0.5e6);
        assert!((t - (0.1 + 2.0)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn same_host_transfer_is_free() {
        let g = grid2();
        let s = NwsService::new();
        assert_eq!(s.transfer_time(&g, HostId(0), HostId(0), 1e9), 0.0);
    }

    #[test]
    fn unmeasured_host_assumed_idle() {
        let g = grid2();
        let s = NwsService::new();
        assert_eq!(s.effective_speed(&g, HostId(0)), 100.0);
    }

    #[test]
    fn cpu_observations_flow_into_effective_speed() {
        let g = grid2();
        let mut s = NwsService::new();
        for _ in 0..30 {
            s.observe_cpu(HostId(0), 0.5);
        }
        assert!((s.effective_speed(&g, HostId(0)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn availability_formula() {
        assert_eq!(availability_from_load(1, 0.0), 1.0);
        assert_eq!(availability_from_load(1, 1.0), 0.5);
        assert_eq!(availability_from_load(2, 1.0), 1.0);
        assert_eq!(availability_from_load(2, 3.0), 0.5);
    }

    #[test]
    fn pair_is_symmetric() {
        let mut s = NwsService::new();
        s.observe_latency(ClusterId(1), ClusterId(0), 0.5);
        assert!(s.forecast_latency(ClusterId(0), ClusterId(1)).is_some());
    }

    #[test]
    fn net_sensor_measures_wan_path() {
        let g = grid2();
        let mut eng = Engine::new(g.clone());
        let nws = Arc::new(Mutex::new(NwsService::new()));
        let nws2 = nws.clone();
        let rounds = Arc::new(Mutex::new(0u32));
        let rounds2 = rounds.clone();
        let peer = HostId(1);
        eng.spawn("net-sensor", HostId(0), move |ctx| {
            let done = move || {
                let mut r = rounds2.lock();
                *r += 1;
                *r > 5
            };
            run_net_sensor(
                ctx,
                &nws2,
                ClusterId(0),
                peer,
                ClusterId(1),
                1e5,
                1.0,
                &done,
            );
        });
        eng.run();
        let n = nws.lock();
        let lat = n
            .forecast_latency(ClusterId(0), ClusterId(1))
            .unwrap()
            .value;
        let bw = n
            .forecast_bandwidth(ClusterId(0), ClusterId(1))
            .unwrap()
            .value;
        // True path: 0.01 + 0.03 + 0.01 latency; 0.5 MB/s bottleneck.
        assert!((lat - 0.05).abs() < 0.01, "lat = {lat}");
        assert!((bw - 0.5e6).abs() / 0.5e6 < 0.15, "bw = {bw}");
        // Measured forecasts now drive transfer_time.
        let t = n.transfer_time(&g, HostId(0), HostId(1), 1e6);
        assert!((t - (0.05 + 2.0)).abs() < 0.3, "t = {t}");
    }

    /// A lone sensor on an idle 1-core host with dyadic speed `s`, probe
    /// `p` and period `T` heartbeats for the k-th time at exactly
    /// `k·p/s + (k−1)·T` and reads availability 1; one unit of load
    /// doubles every probe and halves the reading — on the inline path
    /// and on the thread oracle alike.
    #[test]
    fn lone_sensor_matches_the_closed_form() {
        const K: usize = 8;
        let (s, p, period) = (1024.0, 256.0, 2.0);
        for load in [0.0, 1.0] {
            let avail = availability_from_load(1, load);
            let probe_s = p / (s * avail);
            for inline in [true, false] {
                let mut b = GridBuilder::new();
                let c = b.cluster("X");
                let h = b.add_hosts(c, 1, &HostSpec::with_speed(s))[0];
                let mut eng = Engine::new(b.build().unwrap());
                if load > 0.0 {
                    eng.add_load_window(h, 0.0, None, load);
                }
                let nws = Arc::new(Mutex::new(NwsService::new()));
                let log = Arc::new(Mutex::new(Vec::new()));
                let (nws2, log2) = (nws.clone(), log.clone());
                // Each `done` check after the first follows one heartbeat.
                let done = move || {
                    let n = nws2.lock();
                    let mut l = log2.lock();
                    if let Some(hb) = n.last_heartbeat(h) {
                        l.push((hb, n.last_cpu_measurement(h).unwrap()));
                    }
                    l.len() == K
                };
                let mut sensor = CpuSensor::new(nws, h, s, p, period, done);
                if inline {
                    eng.spawn_daemon("sensor", h, sensor);
                } else {
                    eng.spawn("sensor", h, move |ctx| {
                        grads_sim::run_daemon(ctx, &mut sensor)
                    });
                }
                let r = eng.run();
                assert_eq!(r.completed, vec!["sensor".to_string()]);
                let want: Vec<(f64, f64)> = (1..=K)
                    .map(|k| (k as f64 * probe_s + (k - 1) as f64 * period, avail))
                    .collect();
                assert_eq!(*log.lock(), want, "load {load}, inline {inline}");
                assert_eq!(r.end_time, K as f64 * (probe_s + period));
            }
        }
    }

    #[test]
    fn probe_measures_loaded_host() {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(c, 1, &HostSpec::with_speed(100.0));
        let g = b.build().unwrap();
        let mut eng = Engine::new(g);
        eng.add_load_window(hs[0], 0.0, None, 1.0);
        let out = Arc::new(Mutex::new(0.0f64));
        let out2 = out.clone();
        eng.spawn("sensor", hs[0], move |ctx| {
            let a = cpu_probe(ctx, 100.0, 10.0);
            *out2.lock() = a;
        });
        eng.run();
        assert!((*out.lock() - 0.5).abs() < 1e-9);
    }
}
