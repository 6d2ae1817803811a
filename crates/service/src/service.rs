//! The service loop: stream → queue → admission → mapper → accounting.
//!
//! One dispatcher process runs inside the `grads-sim` engine and wakes
//! every `round_s` of virtual time. Per round it:
//!
//! 1. retires finished jobs (freeing their slots, charging host-seconds,
//!    detecting SLO misses against the *actual* finish time);
//! 2. pulls newly-submitted jobs into the queue;
//! 3. reads the grid's weather on demand. While a job is queued or
//!    still to arrive, it feeds the NWS one CPU-availability observation
//!    per host, as one batch (`NwsService::observe_cpu_all`) — the
//!    service's own occupancy shows up in the forecasts, closing the
//!    load → forecast → admission feedback loop. A round with a
//!    non-empty queue then captures **one** [`ForecastSnapshot`] that
//!    every decision in the round reads. The capture is incremental
//!    (only hosts whose forecast moved since the last capture are
//!    re-read) and repairs the persistent [`grads_sched::SnapshotIndex`]
//!    from the same dirty set. A round with an empty queue decides
//!    nothing, so it captures nothing; once the stream has also ended,
//!    no later round can decide, and the drain rounds stop observing.
//!    No skipped step is read by any decision, so every result bit is
//!    the same as observing and capturing every round;
//! 4. clears the commodities market (supply = free slots, demand = the
//!    queue's budget rates) to get the round's slot-second price;
//! 5. walks the queue earliest-deadline-first and, for each job, maps it
//!    through the round's [`MappingPlan`] (a free-host bitset and
//!    per-cluster free counts over the persistent index, scored cluster
//!    by cluster), then admits, defers, or rejects:
//!    * **reject** if the snapshot-based completion estimate misses the
//!      deadline (running it would only burn slots on a lost SLO);
//!    * **defer** if the job is affordable later (market price above its
//!      budget rate, or no slots free) — it stays queued and is
//!      re-examined next round until its deadline becomes infeasible;
//!    * **admit** otherwise, paying `price × procs × predicted` from the
//!      job's budget and occupying one slot per chosen host.
//!
//!    Under scarcity (fewer than [`ServiceConfig::scarcity_slots`] free
//!    slots) the round first sells the free slots by second-price
//!    auction ([`grads_sched::auction_allocate`], heap-driven,
//!    `O(n + lots · log n)`) to the first 128 queued jobs in deadline
//!    order, and only a job sold its whole processor need may admit —
//!    the last slots go to the bidders valuing them most, not merely the
//!    earliest deadline.
//!
//! Job execution is **modeled occupancy**: an admitted job holds its
//! slots for `predicted × runtime_skew` virtual seconds (the skew is the
//! hidden prediction error, drawn per job by the workload generator) and
//! then completes on the dispatcher's heap. This is the service-level
//! abstraction — the per-rank MPI emulation of each application already
//! has its own end-to-end drivers — and it is what lets one engine
//! sustain thousands of concurrent jobs on a 4096-host grid.
//!
//! Debug builds check every round against a rebuild from scratch: the
//! incremental snapshot must equal a full capture, and every decision's
//! free-host count and placement must equal those of a fresh eligible
//! list mapped by [`grads_sched::select_mpi_resources_fast`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use grads_nws::{ForecastSnapshot, NwsService};
use grads_obs::Obs;
use grads_sched::{
    auction_allocate, price_volatility, CommodityMarket, Consumer, Producer, SnapshotIndex,
    AUCTION_EPS,
};
use grads_sim::prelude::*;
use parking_lot::Mutex;

use crate::accounting::{Accounting, TenantAccount};
use crate::plan::MappingPlan;
use crate::spans::{JobPhase, JobSpan, SpanLog, MARKET_TENANT};
use crate::workload::{generate_workload, Job, WorkloadConfig};

/// Service experiment parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The submission stream.
    pub workload: WorkloadConfig,
    /// Grid size: hosts, clusters, cores per host (slots = hosts × cores).
    pub hosts: usize,
    /// Cluster count (hosts are split evenly).
    pub clusters: usize,
    /// Cores (= schedulable slots) per host.
    pub cores_per_host: u32,
    /// Dispatch round period, virtual seconds.
    pub round_s: f64,
    /// Admissions attempted per round (bounds decision work per round).
    pub max_admissions_per_round: usize,
    /// Free-slot level below which the auction gate engages.
    pub scarcity_slots: f64,
    /// Reserve price per slot-second: the market may not sell below it
    /// (operating cost floor), so a queue of near-zero budgets cannot
    /// drive the clearing price to ~0 and buy the grid for free.
    pub reserve_price: f64,
    /// Concurrency high-water mark: rounds with at least this many jobs
    /// in flight are counted in [`ServiceResult::high_water_rounds`]
    /// (the "sustained N concurrent jobs" evidence).
    pub high_water_in_flight: usize,
    /// Metrics sink (counters/gauges published at end of run).
    pub obs: Obs,
    /// Per-job lifecycle span stream (disabled by default). Every span
    /// timestamp is a value the dispatcher already computed — round
    /// time, submit time, modeled finish — so enabling this changes no
    /// decision and [`ServiceResult`] stays bit-identical.
    pub spans: SpanLog,
    /// Virtual-time budget; the run aborts past this.
    pub t_max: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workload: WorkloadConfig::default(),
            hosts: 128,
            clusters: 8,
            cores_per_host: 2,
            round_s: 5.0,
            max_admissions_per_round: 64,
            scarcity_slots: 64.0,
            reserve_price: 0.25,
            high_water_in_flight: 2000,
            obs: Obs::disabled(),
            spans: SpanLog::disabled(),
            t_max: 1.0e7,
        }
    }
}

/// What a service run produced. `PartialEq` is bitwise on every float —
/// two results compare equal only if the runs were numerically
/// identical, which is what the determinism suite pins across reruns and
/// sweep worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResult {
    /// Per-tenant ledgers, tenant-indexed.
    pub accounts: Vec<TenantAccount>,
    /// Field-wise sum over tenants.
    pub totals: TenantAccount,
    /// Admitted job ids in admission order — the service's decision
    /// trace, compared wholesale by the determinism tests.
    pub admitted_ids: Vec<u32>,
    /// Peak number of jobs running at once.
    pub max_in_flight: usize,
    /// Mean in-flight jobs over all dispatch rounds — the sustained
    /// concurrency level (the peak alone could be a transient).
    pub mean_in_flight: f64,
    /// Rounds that ended with at least
    /// [`ServiceConfig::high_water_in_flight`] jobs in flight; times
    /// `round_s` this is how long the service held that concurrency.
    pub high_water_rounds: u64,
    /// Peak queue depth.
    pub peak_queue: usize,
    /// Mean queue wait of admitted jobs, virtual seconds.
    pub mean_wait_s: f64,
    /// 95th-percentile queue wait, virtual seconds.
    pub p95_wait_s: f64,
    /// Mean submit→finish turnaround of completed jobs, virtual seconds.
    pub mean_turnaround_s: f64,
    /// Completed jobs per virtual hour.
    pub throughput_per_hour: f64,
    /// SLO misses over completed jobs.
    pub slo_miss_rate: f64,
    /// Mean market slot-second price over all rounds.
    pub price_mean: f64,
    /// Relative std-dev of the round price series (G-commerce stability).
    pub price_volatility: f64,
    /// Jain's index over per-tenant host-seconds.
    pub fairness: f64,
    /// Dispatch rounds executed.
    pub rounds: u64,
    /// Rounds in which the scarcity auction gated admission.
    pub auction_rounds: u64,
    /// Virtual time when the last job left the system.
    pub end_time: f64,
    /// The kernel's run report.
    pub report: RunReport,
}

/// Build the service grid: `clusters` clusters of `hosts/clusters`
/// multi-core hosts, ring-linked over the WAN, with per-cluster base
/// speeds (same shape as the scheduler scaling benches).
pub fn service_grid(hosts: usize, clusters: usize, cores_per_host: u32) -> Grid {
    assert!(hosts >= clusters, "at least one host per cluster");
    let per = hosts / clusters;
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    for c in 0..clusters {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1.0e9, 50e-6);
        let mut spec = HostSpec::with_speed(4.0e8 + 1.0e8 * (c % 7) as f64);
        spec.cores = cores_per_host;
        b.add_hosts(id, per, &spec);
        cl.push(id);
    }
    for c in 0..clusters {
        let next = (c + 1) % clusters;
        if next != c {
            b.connect(cl[c], cl[next], 5.0e7, 5e-3);
        }
    }
    b.build().expect("valid service grid")
}

/// Nearest-rank percentile `p ∈ [0, 1]` of `series`, computed on a
/// sorted copy under `total_cmp` (the service-wide float order). `0.0`
/// for an empty series. The shared helper for every percentile the
/// service and its benches report; callers that also need a mean must
/// keep summing the *original* order — re-ordering a float sum changes
/// its bits.
pub fn percentile(series: &[f64], p: f64) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Deterministic pseudo-availability jitter in `[0, 1)` for host `i` at
/// round `j` — hash-based, no RNG state, identical on every run.
fn jitter(i: usize, j: u64) -> f64 {
    let h = (i.wrapping_mul(2654435761) ^ (j as usize).wrapping_mul(40503)) % 1000;
    h as f64 / 1000.0
}

/// A job waiting in the queue.
struct Queued {
    job: Job,
    /// Absolute deadline (submit + relative deadline).
    deadline_abs: f64,
}

/// A job occupying slots, on the completion heap.
struct Running {
    job: Job,
    hosts: Vec<HostId>,
    start_s: f64,
    finish_s: f64,
    deadline_abs: f64,
}

/// The persistent per-cluster host orderings and the last captured
/// snapshot, which is both what the capturing round's decisions read and
/// the next capture's delta baseline. Built at the first round that
/// decides, repaired `O(Δ)` at each later one.
struct EpochState {
    index: SnapshotIndex,
    snap: ForecastSnapshot,
}

/// The hosts with at least one free core, rebuilt from scratch: the
/// debug-build oracle for the plan's incremental free-host state, whose
/// count `plan_count` must match it.
#[cfg(debug_assertions)]
fn rebuilt_eligible(free_cores: &[u32], plan_count: usize) -> Vec<HostId> {
    let eligible: Vec<HostId> = (0..free_cores.len() as u32)
        .map(HostId)
        .filter(|h| free_cores[h.0 as usize] > 0)
        .collect();
    assert_eq!(
        plan_count,
        eligible.len(),
        "the plan's free-host count drifted from free_cores"
    );
    eligible
}

/// Debug-build oracle for one placement: map `job` onto the rebuilt
/// `eligible` list with a fresh candidate walk and require the plan's
/// choice to match it bit for bit.
#[cfg(debug_assertions)]
fn check_against_rebuild(
    grid: &Grid,
    snap: &ForecastSnapshot,
    eligible: &[HostId],
    job: &Job,
    mapped: Option<&grads_sched::ResourceChoice>,
) {
    let rebuilt = grads_sched::select_mpi_resources_fast(
        grid,
        snap,
        eligible,
        job.procs,
        job.procs,
        || grads_perf::TreeBcastPrefix::new(grid, snap, job.flops, job.bcast_bytes),
        1,
    );
    let key = |c: Option<&grads_sched::ResourceChoice>| {
        c.map(|c| (c.hosts.clone(), c.cluster, c.predicted.to_bits()))
    };
    assert_eq!(
        key(mapped),
        key(rebuilt.as_ref()),
        "job {}: the mapping plan diverged from a rebuilt candidate walk",
        job.id
    );
}

/// Run the full service experiment: generate the stream, serve it to
/// drain, return the ledgers and the service-level metrics.
pub fn run_service_experiment(cfg: ServiceConfig) -> ServiceResult {
    let grid = service_grid(cfg.hosts, cfg.clusters, cfg.cores_per_host);
    let mut eng = Engine::new(grid.clone());
    eng.set_obs(cfg.obs.clone());

    let out: Arc<Mutex<Option<ServiceResult>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let cfg2 = cfg.clone();
    eng.spawn("svc-dispatcher", HostId(0), move |ctx| {
        let r = dispatcher(ctx, &grid, &cfg2);
        *out2.lock() = Some(r);
    });
    let report = eng.run_until(cfg.t_max * 1.2);
    let mut r = out.lock().take().expect("service run completed");
    r.report = report;
    cfg.obs.gauge_set("svc.end_time", r.end_time);
    r
}

fn dispatcher(ctx: &mut Ctx, grid: &Grid, cfg: &ServiceConfig) -> ServiceResult {
    let n_hosts = grid.hosts().len();
    let jobs = generate_workload(&cfg.workload);
    let mut accounting = Accounting::new(cfg.workload.n_tenants);

    // NWS seeded with a short deterministic history per host so the
    // ensemble has something to select predictors on from round one.
    // Delta tracking goes on first, so the seed history is already part
    // of the dirty-set baseline bookkeeping.
    let mut nws = NwsService::new();
    nws.enable_delta_tracking();
    let mut avail = vec![0.0; n_hosts];
    for j in 0..6u64 {
        for (i, a) in avail.iter_mut().enumerate() {
            *a = 0.55 + 0.4 * jitter(i, j);
        }
        nws.observe_cpu_all(&avail);
    }

    let mut pending = jobs.into_iter().peekable();
    let mut queue: Vec<Queued> = Vec::new();
    // Min-heap on (finish bits, id): finish times are positive finite,
    // so the bit order is the numeric order.
    let mut running: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
    let mut running_jobs: Vec<Option<Running>> = Vec::new();
    let mut free_cores: Vec<u32> = grid.hosts().iter().map(|h| h.cores).collect();
    let total_slots: f64 = free_cores.iter().map(|&c| c as f64).sum();
    let mut plan = MappingPlan::new(grid, &free_cores);

    let mut market = CommodityMarket::default();
    let mut price_series: Vec<f64> = Vec::new();
    let mut waits: Vec<f64> = Vec::new();
    let mut turnarounds: Vec<f64> = Vec::new();
    let mut admitted_ids: Vec<u32> = Vec::new();
    let mut max_in_flight = 0usize;
    let mut peak_queue = 0usize;
    let mut rounds = 0u64;
    let mut auction_rounds = 0u64;
    let mut in_flight = 0usize;
    let mut in_flight_sum = 0.0f64;
    let mut high_water_rounds = 0u64;
    let mut end_time = 0.0f64;
    let mut t_last = 0.0f64;
    let mut weather_rounds = 0u64;
    let mut capture_rounds = 0u64;
    let mut epoch_state: Option<EpochState> = None;
    // Per-round buffers, cleared and refilled each round.
    let mut dirty: Vec<HostId> = Vec::new();
    let mut consumers: Vec<Consumer> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut still_queued: Vec<bool> = Vec::new();

    // Lifecycle spans use only timestamps the decisions already computed
    // (round time, submit time, modeled finish) — no clock reads, so the
    // stream cannot perturb the run.
    let jspan =
        |job: &Job, phase: JobPhase, detail: Option<&'static str>, t0: f64, t1: f64, v: f64| {
            cfg.spans.push(JobSpan {
                job: job.id,
                tenant: job.tenant,
                phase,
                detail,
                t0,
                t1,
                value: v,
            });
        };

    loop {
        let t = ctx.now();
        if t > cfg.t_max {
            break;
        }
        t_last = t;

        // 1. Retire finished jobs.
        while let Some(&Reverse((fbits, _id, slot))) = running.peek() {
            if f64::from_bits(fbits) > t {
                break;
            }
            running.pop();
            let run = running_jobs[slot].take().expect("slot occupied");
            for &h in &run.hosts {
                free_cores[h.0 as usize] += 1;
                if free_cores[h.0 as usize] == 1 {
                    // 0 → 1: the host just became eligible again.
                    plan.set_host_free(h, true);
                }
            }
            in_flight -= 1;
            let a = accounting.tenant_mut(run.job.tenant);
            a.completed += 1;
            a.host_seconds += run.hosts.len() as f64 * (run.finish_s - run.start_s);
            jspan(
                &run.job,
                JobPhase::Complete,
                None,
                run.finish_s,
                run.finish_s,
                run.finish_s - run.job.submit_s,
            );
            if run.finish_s > run.deadline_abs {
                a.slo_misses += 1;
                jspan(
                    &run.job,
                    JobPhase::SloMiss,
                    None,
                    run.finish_s,
                    run.finish_s,
                    run.finish_s - run.deadline_abs,
                );
            }
            turnarounds.push(run.finish_s - run.job.submit_s);
            end_time = end_time.max(run.finish_s);
        }

        // 2. Pull arrivals into the queue.
        while let Some(j) = pending.peek() {
            if j.submit_s > t {
                break;
            }
            let job = pending.next().expect("peeked");
            accounting.tenant_mut(job.tenant).submitted += 1;
            let deadline_abs = job.submit_s + job.deadline_s;
            jspan(
                &job,
                JobPhase::Submit,
                None,
                job.submit_s,
                job.submit_s,
                deadline_abs,
            );
            queue.push(Queued { job, deadline_abs });
        }
        peak_queue = peak_queue.max(queue.len());

        if queue.is_empty() && running.is_empty() && pending.peek().is_none() {
            break;
        }

        rounds += 1;

        // 3. Weather, on demand. Only a round with a queue decides, so
        // only it captures a snapshot; while jobs remain to arrive, every
        // round still observes, because a later decision reads the
        // forecasts this history produces. Once the stream has ended and
        // the queue is empty, no round can decide again.
        let decides = !queue.is_empty();
        if decides || pending.peek().is_some() {
            weather_rounds += 1;
            // Occupancy-coupled observation: the service's own load shows
            // up in the forecasts.
            for (i, (a, &free)) in avail.iter_mut().zip(&free_cores).enumerate() {
                let free_frac = free as f64 / grid.hosts()[i].cores.max(1) as f64;
                *a = (0.35 + 0.6 * free_frac) * (0.7 + 0.3 * jitter(i, rounds));
            }
            nws.observe_cpu_all(&avail);
        }
        let epoch = if decides {
            capture_rounds += 1;
            // The capture is incremental (bit-identical to a full capture —
            // the delta-capture contract; the dirty set has accumulated
            // since the last capture, however many rounds ago) and the
            // persistent index is repaired from the same dirty set.
            nws.dirty_hosts_into(&mut dirty);
            if let Some(st) = epoch_state.as_mut() {
                st.snap = ForecastSnapshot::capture_delta(grid, &mut nws, &st.snap);
                plan.note_repair(st.index.repair(grid, &st.snap, &dirty));
            } else {
                let snap = ForecastSnapshot::capture_sync(grid, &mut nws);
                epoch_state = Some(EpochState {
                    index: SnapshotIndex::build(grid, &snap),
                    snap,
                });
            }
            let st = epoch_state.as_ref().expect("captured this round");
            debug_assert_eq!(
                st.snap.fingerprint(),
                ForecastSnapshot::capture(grid, &nws).fingerprint(),
                "round {rounds}: the delta capture diverged from a full capture"
            );
            Some(st)
        } else {
            None
        };

        let free_slots: f64 = free_cores.iter().map(|&c| c as f64).sum();

        // 4. Price the round: supply is the free slots, demand is the
        // queue's budget rates capped by its processor needs.
        consumers.clear();
        consumers.extend(queue.iter().map(|q| Consumer {
            budget: q.job.budget / q.job.nominal_s(cfg.workload.reference_speed).max(1e-9),
            max_demand: q.job.procs as f64,
        }));
        let eq = market.clear(
            &[Producer {
                capacity: free_slots.max(1e-3),
            }],
            &consumers,
            20,
            0.05,
        );
        let price = eq.price.max(cfg.reserve_price);
        market.price = price;
        price_series.push(price);
        cfg.spans.push(JobSpan {
            job: rounds as u32,
            tenant: MARKET_TENANT,
            phase: JobPhase::Price,
            detail: None,
            t0: t,
            t1: t,
            value: price,
        });

        // 5. Admission, earliest absolute deadline first (ids break ties
        // FIFO — they are in submit order).
        order.clear();
        order.extend(0..queue.len());
        order.sort_by(|&a, &b| {
            queue[a]
                .deadline_abs
                .total_cmp(&queue[b].deadline_abs)
                .then(queue[a].job.id.cmp(&queue[b].job.id))
        });

        // Scarcity gate: when the grid is nearly full, the queue head
        // bids for the last slots and only winners may admit.
        let auction_winner: Option<Vec<bool>> =
            if free_slots > AUCTION_EPS && free_slots < cfg.scarcity_slots && !queue.is_empty() {
                auction_rounds += 1;
                let head: Vec<usize> = order.iter().copied().take(128).collect();
                let bidders: Vec<Consumer> = head.iter().map(|&qi| consumers[qi]).collect();
                let outcome = auction_allocate(
                    &[Producer {
                        capacity: free_slots,
                    }],
                    &bidders,
                );
                let mut won = vec![false; queue.len()];
                for (bi, &qi) in head.iter().enumerate() {
                    // A winner must have been sold its whole processor need —
                    // partial lots cannot run an MPI job.
                    won[qi] = outcome.allocations[bi] + AUCTION_EPS >= queue[qi].job.procs as f64;
                }
                Some(won)
            } else {
                None
            };

        let mut admitted_this_round = 0usize;
        let mut decisions_this_round = 0u64;
        still_queued.clear();
        still_queued.resize(queue.len(), true);
        for &qi in &order {
            let q = &queue[qi];
            // Expired while queued (unaffordable or unplaceable too
            // long): reject — even a zero-duration run would miss now.
            if t >= q.deadline_abs {
                jspan(&q.job, JobPhase::Reject, Some("expired"), t, t, 0.0);
                accounting.tenant_mut(q.job.tenant).rejected += 1;
                still_queued[qi] = false;
                continue;
            }
            if admitted_this_round >= cfg.max_admissions_per_round {
                break;
            }
            if let Some(won) = &auction_winner {
                if !won[qi] {
                    // defer: lost the scarcity auction
                    jspan(&q.job, JobPhase::Defer, Some("auction"), t, t, 0.0);
                    continue;
                }
            }
            // The free-host check reads the plan's running count, and the
            // job maps through the persistent index.
            #[cfg(debug_assertions)]
            let eligible = rebuilt_eligible(&free_cores, plan.free_host_count());
            if plan.free_host_count() < q.job.procs {
                // defer: not enough free hosts anywhere
                jspan(&q.job, JobPhase::Defer, Some("no-hosts"), t, t, 0.0);
                continue;
            }
            decisions_this_round += 1;
            let st = epoch.expect("a round with a queue captured its weather");
            let mapped = plan.map(&q.job, &st.index, grid, &st.snap);
            #[cfg(debug_assertions)]
            check_against_rebuild(grid, &st.snap, &eligible, &q.job, mapped.as_ref());
            let Some(choice) = mapped else {
                // defer: no cluster offers `procs` free hosts
                jspan(&q.job, JobPhase::Defer, Some("no-cluster"), t, t, 0.0);
                continue;
            };
            jspan(&q.job, JobPhase::Map, None, t, t, choice.predicted);
            let est_finish = t + choice.predicted;
            if est_finish > q.deadline_abs {
                // Deadline-infeasible on the best available placement:
                // running it would burn slots on a guaranteed SLO miss.
                jspan(
                    &q.job,
                    JobPhase::Reject,
                    Some("infeasible"),
                    t,
                    t,
                    est_finish,
                );
                accounting.tenant_mut(q.job.tenant).rejected += 1;
                still_queued[qi] = false;
                continue;
            }
            let cost = price * q.job.procs as f64 * choice.predicted;
            if cost > q.job.budget {
                // defer: market price above the job's budget
                jspan(&q.job, JobPhase::Defer, Some("over-budget"), t, t, cost);
                continue;
            }
            // Admit.
            for &h in &choice.hosts {
                free_cores[h.0 as usize] -= 1;
                if free_cores[h.0 as usize] == 0 {
                    // 1 → 0: the host left the eligible set.
                    plan.set_host_free(h, false);
                }
            }
            let a = accounting.tenant_mut(q.job.tenant);
            a.admitted += 1;
            a.spend += cost;
            waits.push(t - q.job.submit_s);
            admitted_ids.push(q.job.id);
            jspan(&q.job, JobPhase::Admit, None, q.job.submit_s, t, cost);
            let finish_s = t + choice.predicted * q.job.runtime_skew;
            jspan(&q.job, JobPhase::Run, None, t, finish_s, choice.predicted);
            let slot = running_jobs.len();
            running.push(Reverse((finish_s.to_bits(), q.job.id, slot)));
            running_jobs.push(Some(Running {
                job: q.job.clone(),
                hosts: choice.hosts,
                start_s: t,
                finish_s,
                deadline_abs: q.deadline_abs,
            }));
            in_flight += 1;
            admitted_this_round += 1;
            still_queued[qi] = false;
        }
        // Decision-cost histogram: mapping decisions computed this round.
        cfg.obs
            .observe("svc.round.decisions", decisions_this_round as f64);
        max_in_flight = max_in_flight.max(in_flight);
        in_flight_sum += in_flight as f64;
        if in_flight >= cfg.high_water_in_flight {
            high_water_rounds += 1;
        }
        let mut keep = still_queued.iter().copied();
        queue.retain(|_| keep.next().expect("one flag per queued job"));

        ctx.sleep(cfg.round_s);
    }

    // Reject whatever never got in before t_max (bounded-run safety).
    for q in &queue {
        jspan(
            &q.job,
            JobPhase::Reject,
            Some("cutoff"),
            t_last,
            t_last,
            0.0,
        );
        accounting.tenant_mut(q.job.tenant).rejected += 1;
    }

    // Metrics.
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let p95_wait_s = percentile(&waits, 0.95);
    let totals = accounting.totals();
    let throughput_per_hour = if end_time > 0.0 {
        totals.completed as f64 / end_time * 3600.0
    } else {
        0.0
    };
    let slo_miss_rate = if totals.completed > 0 {
        totals.slo_misses as f64 / totals.completed as f64
    } else {
        0.0
    };

    accounting.publish(&cfg.obs);
    if epoch_state.is_some() {
        plan.publish(&cfg.obs);
    }
    cfg.obs.counter_add("svc.rounds", rounds);
    cfg.obs.counter_add("svc.weather_rounds", weather_rounds);
    cfg.obs.counter_add("svc.capture_rounds", capture_rounds);
    cfg.obs.counter_add("svc.auction_rounds", auction_rounds);
    cfg.obs.gauge_set("svc.max_in_flight", max_in_flight as f64);
    cfg.obs.gauge_set("svc.price_mean", mean(&price_series));
    cfg.obs.gauge_set("svc.total_slots", total_slots);

    ServiceResult {
        accounts: accounting.accounts().to_vec(),
        totals,
        admitted_ids,
        max_in_flight,
        mean_in_flight: if rounds > 0 {
            in_flight_sum / rounds as f64
        } else {
            0.0
        },
        high_water_rounds,
        peak_queue,
        mean_wait_s: mean(&waits),
        p95_wait_s,
        mean_turnaround_s: mean(&turnarounds),
        throughput_per_hour,
        slo_miss_rate,
        price_mean: mean(&price_series),
        price_volatility: price_volatility(&price_series),
        fairness: accounting.fairness(),
        rounds,
        auction_rounds,
        end_time,
        report: RunReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            workload: WorkloadConfig {
                n_jobs: 300,
                n_tenants: 4,
                mean_interarrival_s: 2.0,
                ..WorkloadConfig::default()
            },
            hosts: 64,
            clusters: 4,
            cores_per_host: 2,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn service_drains_and_books_every_job() {
        let r = run_service_experiment(small_cfg());
        let t = &r.totals;
        assert_eq!(t.submitted, 300, "every job entered the queue");
        assert_eq!(
            t.admitted + t.rejected,
            t.submitted,
            "every job was either admitted or rejected: {t:?}"
        );
        assert_eq!(t.completed, t.admitted, "the run drained");
        assert!(t.admitted > 0, "a 64-host grid admits some of 300 jobs");
        assert!(t.host_seconds > 0.0 && t.spend > 0.0);
        assert!(r.max_in_flight >= 1 && r.end_time > 0.0);
        assert!(r.fairness > 0.5, "4 tenants share well: {}", r.fairness);
        assert!(
            r.slo_miss_rate < 0.5,
            "deadline-aware admission keeps most SLOs: {}",
            r.slo_miss_rate
        );
    }

    #[test]
    fn admission_is_budget_and_deadline_aware() {
        // Starve the budgets: nothing should be admitted, everything
        // rejected once deadlines expire — and nothing runs.
        let mut cfg = small_cfg();
        cfg.workload.n_jobs = 60;
        cfg.workload.budget_rate = (1e-6, 2e-6);
        let r = run_service_experiment(cfg);
        assert_eq!(r.totals.admitted, 0, "unaffordable jobs never admit");
        assert_eq!(r.totals.rejected, 60);

        // Impossible deadlines: rejected up front by the estimate.
        let mut cfg = small_cfg();
        cfg.workload.n_jobs = 60;
        cfg.workload.deadline_slack = (1e-4, 2e-4);
        let r = run_service_experiment(cfg);
        assert_eq!(r.totals.admitted, 0, "infeasible deadlines never admit");
        assert_eq!(r.totals.rejected, 60);
    }

    #[test]
    fn spans_do_not_perturb_and_cover_the_lifecycle() {
        // Spans off (the default) vs on: the decision trace and every
        // metric must be bit-identical — recording is observation only.
        let r_off = run_service_experiment(small_cfg());
        let mut cfg = small_cfg();
        cfg.spans = SpanLog::enabled();
        let spans = cfg.spans.clone();
        let r_on = run_service_experiment(cfg);
        assert_eq!(r_off, r_on, "span recording must not perturb the run");

        // The stream is a complete lifecycle ledger: phase counts match
        // the accounting totals exactly.
        let count = |p: JobPhase| spans.phase_spans(p).len() as u64;
        let t = &r_on.totals;
        assert_eq!(count(JobPhase::Submit), t.submitted);
        assert_eq!(count(JobPhase::Admit), t.admitted);
        assert_eq!(count(JobPhase::Run), t.admitted);
        assert_eq!(count(JobPhase::Reject), t.rejected);
        assert_eq!(count(JobPhase::Complete), t.completed);
        assert_eq!(count(JobPhase::SloMiss), t.slo_misses);
        assert_eq!(count(JobPhase::Price), r_on.rounds);

        // Every admitted job's spans chain: Submit.t0 ≤ Admit.t1 =
        // Run.t0 ≤ Run.t1 = its Complete instant, all caller-stamped.
        let runs = spans.phase_spans(JobPhase::Run);
        let completes = spans.phase_spans(JobPhase::Complete);
        for run in &runs {
            assert!(run.t1 >= run.t0);
            let c = completes
                .iter()
                .find(|c| c.job == run.job)
                .expect("drained run completes every admitted job");
            assert_eq!(c.t0.to_bits(), run.t1.to_bits(), "finish stamps agree");
        }
    }

    #[test]
    fn service_round_chrome_trace_is_deterministic_with_metadata() {
        let export = |spans_out: &mut Option<String>| {
            let mut cfg = small_cfg();
            cfg.workload.n_jobs = 60;
            cfg.spans = SpanLog::enabled();
            let spans = cfg.spans.clone();
            run_service_experiment(cfg);
            *spans_out = Some(spans.to_chrome_trace());
        };
        let (mut a, mut b) = (None, None);
        export(&mut a);
        export(&mut b);
        let a = a.unwrap();
        assert_eq!(a, b.unwrap(), "rerun-byte-identical export");
        assert!(a.contains("\"name\":\"process_name\""), "{a}");
        assert!(a.contains("\"name\":\"thread_name\""));
        assert!(a.contains("\"name\":\"tenant 0\""));
        assert!(a.contains("\"name\":\"market\""));
        assert!(a.contains("\"name\":\"Run\""));
        assert!(a.contains("\"name\":\"Price\""));
    }

    #[test]
    fn epoch_path_is_bit_identical_and_counts_its_work() {
        // Bit-identity with the per-job rebuild is asserted inside the
        // run on debug builds (every round's snapshot, every decision's
        // free-host count and placement); here the run must also publish
        // the work counters of its incremental state.
        let mut cfg = small_cfg();
        cfg.obs = Obs::enabled();
        let obs = cfg.obs.clone();
        run_service_experiment(cfg);
        let json = obs.snapshot().to_json();
        assert!(json.contains("\"svc.epoch.elig_updates\""), "{json}");
        assert!(json.contains("\"svc.epoch.index_repairs\""));
        assert!(json.contains("\"svc.round.decisions\""));
    }

    #[test]
    fn percentile_matches_the_inline_computation_it_replaced() {
        assert_eq!(percentile(&[], 0.95), 0.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        let v: Vec<f64> = (0..100).rev().map(|i| i as f64).collect();
        // Nearest-rank on the sorted copy: index round(99 · p).
        assert_eq!(percentile(&v, 0.95), 94.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 99.0);
        let with_nan = [2.0, f64::NAN, 1.0];
        // total_cmp files NaN last, so p=0.5 is the finite median.
        assert_eq!(percentile(&with_nan, 0.5), 2.0);
    }

    #[test]
    fn obs_counters_surface_the_ledger() {
        let mut cfg = small_cfg();
        cfg.workload.n_jobs = 100;
        cfg.obs = Obs::enabled();
        let obs = cfg.obs.clone();
        let r = run_service_experiment(cfg);
        let json = obs.snapshot().to_json();
        assert!(json.contains("\"svc.admitted\""), "{json}");
        assert!(json.contains(&format!("\"svc.admitted\": {}", r.totals.admitted)));
        assert!(json.contains("\"svc.rounds\""));
        assert!(json.contains("\"svc.weather_rounds\""));
        assert!(json.contains("\"svc.capture_rounds\""));
        assert!(json.contains("\"svc.t0.submitted\""));
        assert!(json.contains("\"svc.fairness\""));
    }
}
