//! Property-based pin for inline sensor daemons: a [`CpuSensor`] stepped
//! by the kernel (`Engine::spawn_daemon`) must be indistinguishable from
//! the same sensor driven from an ordinary coroutine process through
//! `run_daemon`, which issues one `Ctx` call per step. Under random sensor
//! periods, probe sizes (zero included) and stop times, load windows, an
//! application process computing on a sensed host and a mid-run host
//! failure, both paths must produce bit-identical run reports and traces,
//! and every sensor must record the same observation/heartbeat series —
//! batched and on the unbatched oracle. Speeds,
//! probe sizes and times are dyadic, so sensors often wake at the very
//! instant another process acts, which is where an inline step taken out
//! of turn would show.

use grads_nws::{CpuSensor, NwsService};
use grads_sim::prelude::*;
use grads_sim::run_daemon;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// One sensor: period (s), probe flops, and an optional cap on how many
/// times it checks `done` before stopping on its own.
#[derive(Debug, Clone)]
struct SensorSpec {
    period: f64,
    probe_flops: f64,
    max_checks: Option<u32>,
}

#[derive(Debug, Clone)]
struct Scenario {
    /// `(speed, cores)` per host; hosts alternate between two clusters.
    hosts: Vec<(f64, u32)>,
    sensors: Vec<SensorSpec>,
    /// `(host, start, end, amount)`.
    loads: Vec<(usize, f64, Option<f64>, f64)>,
    /// The app process on host 0: compute bursts (flops) and sleeps (s).
    app: Vec<(f64, f64)>,
    /// When a stopper process on the last host raises the shared `done`
    /// flag.
    stop_at: f64,
    fail: Option<(usize, f64)>,
    tmax: f64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..5).prop_flat_map(|nh| {
        let hosts = proptest::collection::vec(((0u32..4), (1u32..3)), nh).prop_map(|v| {
            v.into_iter()
                .map(|(k, c)| ((256u32 << k) as f64, c))
                .collect()
        });
        let sensors = proptest::collection::vec(
            ((1u32..40), (0u32..40), (0u32..30)).prop_map(|(p, f, m)| SensorSpec {
                period: p as f64 * 0.25,
                // One probe in five is zero-length.
                probe_flops: f.saturating_sub(7) as f64 * 64.0,
                max_checks: (m > 0).then_some(m),
            }),
            nh,
        );
        let loads = proptest::collection::vec(
            (0..nh, 0u32..200, 0u32..100, 1u32..8).prop_map(|(h, s, d, a)| {
                // A zero duration is a window that never closes.
                let s = s as f64 * 0.5;
                let end = (d > 0).then_some(s + d as f64 * 0.5);
                (h, s, end, a as f64 * 0.5)
            }),
            0..4,
        );
        let app = proptest::collection::vec(((1u32..300), (0u32..20)), 1..8).prop_map(|v| {
            v.into_iter()
                .map(|(f, s)| (f as f64 * 64.0, s as f64 * 0.5))
                .collect()
        });
        // A failure time of zero means no host fails.
        let fail = ((0..nh), (0u32..300)).prop_map(|(h, t)| (t > 0).then_some((h, t as f64 * 0.5)));
        let times = ((1u32..600), (50u32..200)).prop_map(|(s, t)| (s as f64 * 0.25, t as f64));
        (hosts, sensors, loads, app, fail, times).prop_map(
            |(hosts, sensors, loads, app, fail, (stop_at, tmax))| Scenario {
                hosts,
                sensors,
                loads,
                app,
                stop_at,
                fail,
                tmax,
            },
        )
    })
}

/// Per step of one sensor: the grant time, the step taken, and the
/// service's last heartbeat and last CPU measurement for its host right
/// after the step, all as bits.
type Series = Vec<(u64, String, Option<u64>, Option<u64>)>;

/// Wraps a sensor so every step is logged. Both paths run the same
/// wrapper, so the comparison covers exactly the sensor's own behaviour.
struct Logged {
    inner: CpuSensor,
    nws: Arc<Mutex<NwsService>>,
    host: HostId,
    log: Arc<Mutex<Series>>,
}

impl Daemon for Logged {
    fn step(&mut self, now: f64) -> Step {
        let s = self.inner.step(now);
        let n = self.nws.lock();
        self.log.lock().push((
            now.to_bits(),
            format!("{s:?}"),
            n.last_heartbeat(self.host).map(f64::to_bits),
            n.last_cpu_measurement(self.host).map(f64::to_bits),
        ));
        s
    }
}

struct Outcome {
    report: RunReport,
    series: Vec<Series>,
    /// Final `(forecast, heartbeat)` bits per host.
    service: Vec<(Option<u64>, Option<u64>)>,
}

fn run(sc: &Scenario, inline: bool, unbatched: bool) -> Outcome {
    let mut b = GridBuilder::new();
    let cids = [b.cluster("A"), b.cluster("B")];
    for &c in &cids {
        b.local_link(c, 1e7, 1e-3);
    }
    b.connect(cids[0], cids[1], 1e6, 0.02);
    let hosts: Vec<HostId> = sc
        .hosts
        .iter()
        .enumerate()
        .map(|(i, &(speed, cores))| {
            let spec = HostSpec {
                cores,
                ..HostSpec::with_speed(speed)
            };
            b.add_hosts(cids[i % 2], 1, &spec)[0]
        })
        .collect();
    let grid = b.build().unwrap();
    let mut eng = Engine::new(grid);
    eng.set_unbatched_oracle(unbatched);
    let nws = Arc::new(Mutex::new(NwsService::new()));
    let done = Arc::new(Mutex::new(false));

    let app = sc.app.clone();
    eng.spawn("app", hosts[0], move |ctx| {
        for &(flops, dt) in &app {
            ctx.compute(flops);
            ctx.sleep(dt);
            let t = ctx.now();
            ctx.trace("app", t);
        }
    });
    let (stop_at, done_stop) = (sc.stop_at, done.clone());
    eng.spawn("stopper", hosts[hosts.len() - 1], move |ctx| {
        ctx.sleep(stop_at);
        *done_stop.lock() = true;
    });

    let mut logs = Vec::new();
    for (i, (&h, spec)) in hosts.iter().zip(&sc.sensors).enumerate() {
        let done = done.clone();
        let max = spec.max_checks;
        let mut checks = 0;
        let stop = move || {
            checks += 1;
            *done.lock() || max.is_some_and(|m| checks > m)
        };
        let sensor = CpuSensor::new(
            nws.clone(),
            h,
            sc.hosts[i].0,
            spec.probe_flops,
            spec.period,
            stop,
        );
        let log = Arc::new(Mutex::new(Series::new()));
        logs.push(log.clone());
        let mut d = Logged {
            inner: sensor,
            nws: nws.clone(),
            host: h,
            log,
        };
        let name = format!("nws-sensor-{i}");
        if inline {
            eng.spawn_daemon(&name, h, d);
        } else {
            eng.spawn(&name, h, move |ctx| run_daemon(ctx, &mut d));
        }
    }
    for &(h, start, end, amount) in &sc.loads {
        eng.add_load_window(hosts[h], start, end, amount);
    }
    if let Some((h, t)) = sc.fail {
        eng.fail_host_at(hosts[h], t);
    }
    let report = eng.run_until(sc.tmax);
    let n = nws.lock();
    let service = hosts
        .iter()
        .map(|&h| {
            (
                n.forecast_cpu(h).map(|f| f.value.to_bits()),
                n.last_heartbeat(h).map(f64::to_bits),
            )
        })
        .collect();
    let series = logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock()))
        .collect();
    Outcome {
        report,
        series,
        service,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An inline sensor daemon and the same sensor on a thread are
    /// bit-identical, batched or unbatched.
    #[test]
    fn inline_sensor_matches_thread_sensor(sc in scenario()) {
        for unbatched in [true, false] {
            let thread = run(&sc, false, unbatched);
            let inline = run(&sc, true, unbatched);
            let (t, d) = (&thread.report, &inline.report);
            let at = format!("unbatched={unbatched}");
            prop_assert_eq!(t.end_time.to_bits(), d.end_time.to_bits(), "{}: end_time", at);
            prop_assert_eq!(bits(&t.host_flops), bits(&d.host_flops), "{}: host_flops", at);
            prop_assert_eq!(bits(&t.link_bytes), bits(&d.link_bytes), "{}: link_bytes", at);
            prop_assert_eq!(&t.completed, &d.completed, "{}: completed", at);
            prop_assert_eq!(&t.died, &d.died, "{}: died", at);
            prop_assert_eq!(&t.unfinished, &d.unfinished, "{}: unfinished", at);
            prop_assert!(t.failed.is_empty() && d.failed.is_empty(), "{}: failures", at);
            prop_assert_eq!(&t.trace, &d.trace, "{}: trace", at);
            prop_assert_eq!(&thread.series, &inline.series, "{}: sensor series", at);
            prop_assert_eq!(&thread.service, &inline.service, "{}: service state", at);
            prop_assert_eq!(t, d, "{}: full report", at);
        }
    }
}
