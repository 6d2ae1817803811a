//! The discrete-event kernel.
//!
//! The kernel owns virtual time, the event heap, all resource state (CPU
//! actions, network flows, injected load) and the process table. Simulated
//! processes run strictly one at a time: the kernel resumes a process,
//! takes its next request, and only then considers the next runnable
//! process or event. Runs are therefore deterministic. A process is a
//! coroutine the kernel resumes on its own thread with a grant over its
//! handoff slot; an inline [`Daemon`] is stepped by the kernel directly.
//!
//! Resource completion times are maintained lazily: whenever the demand set
//! churns (an action or flow starts or ends, load changes), rates are
//! re-derived from the sharing model and each changed action or flow gets
//! a fresh generation and a re-stamped completion event. The indexed event
//! queue overwrites or removes the superseded event through its handle, so
//! the heap holds only live events.
//!
//! Rate recomputation is *scoped* and *coalesced*: every churn marks the
//! hosts and links it touched dirty, and once per virtual instant only the
//! churned hosts' CPU shares and the network sharing components reachable
//! from dirty links are re-solved. Flows and actions whose rate did not
//! change keep their generation and their already-scheduled completion
//! event.
//!
//! The kernel has one run loop over one indexed event queue. Three
//! hidden test oracles reproduce the reference behaviours the identity
//! suites compare the production path against: a full recompute (every
//! host and component on each solve), an eager recompute (one solve per
//! churn) and an unbatched transport (one blocking round trip per `Ctx`
//! call).

use crate::daemon::{Daemon, Step};
use crate::equeue::{class_key, Event, EventKind, IndexedHeap, NO_HANDLE};
use crate::handoff::{self, panic_message, HandoffSlot, Process};
use crate::maildir::{MailDir, QueuedSend};
use crate::process::{
    Ctx, Grant, KillToken, MailKey, Payload, ProcBody, ProcFn, ProcId, Request, SendMode,
};
use crate::sharing::{cpu_share, FairScratch};
use crate::topology::{Grid, HostId, LinkId};
use crate::trace::{Trace, TraceKind, TraceRecord};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

/// Outcome of a simulation run.
///
/// `PartialEq` is bitwise on every floating-point field; two reports compare
/// equal only if the runs were numerically identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Virtual time when the run ended.
    pub end_time: f64,
    /// Names of processes that ran to completion.
    pub completed: Vec<String>,
    /// `(name, panic message)` for processes that panicked.
    pub failed: Vec<(String, String)>,
    /// Names of processes still blocked when the run ended (deadlocked, or
    /// cut off by `run_until`).
    pub unfinished: Vec<String>,
    /// Names of processes that died with their host (fault injection).
    pub died: Vec<String>,
    /// Flops executed per host over the run (indexable by `HostId.0`).
    pub host_flops: Vec<f64>,
    /// Bytes carried per link over the run (indexable by `LinkId.0`).
    pub link_bytes: Vec<f64>,
    /// Kernel events applied over the run (stale completions excluded).
    /// Identical across the test oracles for the same scenario, which
    /// makes it the numerator of the benchmark's events/sec metric.
    pub events_processed: u64,
    /// Full trace of the run.
    pub trace: Trace,
}

impl RunReport {
    /// Average utilization of a host over the run: flops executed divided
    /// by aggregate capacity (`speed * cores`) × duration, so a fully busy
    /// host reports 1.0 regardless of core count.
    pub fn host_utilization(&self, grid: &Grid, host: HostId) -> f64 {
        let h = grid.host(host);
        if self.end_time <= 0.0 {
            return 0.0;
        }
        self.host_flops[host.0 as usize] / (h.speed * h.cores as f64 * self.end_time)
    }

    /// Average utilization of a link over the run: bytes carried over
    /// capacity × duration.
    pub fn link_utilization(&self, grid: &Grid, link: LinkId) -> f64 {
        let l = grid.link(link);
        if self.end_time <= 0.0 {
            return 0.0;
        }
        self.link_bytes[link.0 as usize] / (l.bandwidth * self.end_time)
    }
}

/// Completion time of `remaining` work progressing at `rate` from `now`.
///
/// Live work (`remaining > 0`) always lands strictly after `now`, the
/// invariant the coalesced flush rests on (see
/// [`Engine::must_flush_before`]): when `remaining / rate` is below half
/// an ulp of `now`, the sum rounds back to `now`, and the completion is
/// stamped at `now.next_up()` instead.
#[inline]
fn due_at(now: f64, remaining: f64, rate: f64) -> f64 {
    let t = now + remaining / rate;
    if remaining > 0.0 && t <= now {
        return now.next_up();
    }
    t
}

/// Fx-style multiply-rotate hasher for the route interning map. Its keys
/// are host ids the grid builder assigns densely from 0, never values
/// chosen outside the program, and the map is not iterated, so no output
/// depends on the hash; SipHash's collision resistance buys nothing there
/// and costs several times as much per lookup.
#[derive(Default)]
struct RouteHasher(u64);

impl RouteHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for RouteHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    /// The multiply leaves its best-mixed bits at the top; rotate them
    /// into the low bits the table indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A route interning map under [`RouteHasher`].
type RouteMap<K> = HashMap<K, u32, BuildHasherDefault<RouteHasher>>;

struct CpuAction {
    host: usize,
    pid: ProcId,
    remaining: f64,
    rate: f64,
    gen: u64,
    /// Pending `CpuDone` handle in the event queue ([`NO_HANDLE`] when no
    /// completion is scheduled).
    ev: u32,
    /// Virtual time of the pending completion event (`INFINITY` when none
    /// is scheduled). A solve never re-stamps an action whose completion
    /// is due *exactly now*: the event fires this instant regardless of
    /// the new rate, and re-deriving its time from the accrued residual
    /// (rounding noise) would stagger bitwise-synchronized completion
    /// waves by ulps — the rule that keeps eager and coalesced recompute
    /// timing bit-identical (see [`Engine::must_flush_before`]).
    due: f64,
}

enum OnDone {
    /// Raw transfer: wake this process.
    Wake(ProcId),
    /// Eager message: deliver to the mailbox (or a waiting receiver).
    Deliver { key: MailKey },
    /// Rendezvous message: deliver to the reserved receiver, wake the sender.
    Rendezvous { recv: ProcId, send: ProcId },
}

struct Flow {
    /// Index into the engine's interned route table.
    route: u32,
    /// Original transfer size in bytes; `link_bytes` is credited once per
    /// link when the flow terminates instead of on every accrual sweep.
    size: f64,
    remaining: f64,
    rate: f64,
    gen: u64,
    active: bool,
    /// Position in `Engine::active_flows`, or `u32::MAX` when not listed.
    act_idx: u32,
    /// Pending `FlowDone` handle in the event queue ([`NO_HANDLE`] when no
    /// completion is scheduled).
    ev: u32,
    /// Virtual time of the pending completion event (`INFINITY` when none
    /// is scheduled); same due-now re-stamp guard as [`CpuAction::due`].
    due: f64,
    payload: Option<Payload>,
    on_done: OnDone,
}

/// An interned route: resolved once per (src, dst) pair, then shared by
/// every flow on that pair instead of cloning a `Vec<LinkId>` per flow and
/// per recompute. Its links are `Engine::route_arena[self.span()]`.
#[derive(Clone, Copy)]
struct RouteEntry {
    start: u32,
    len: u32,
    latency: f64,
}

impl RouteEntry {
    fn span(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Alive,
    Done,
    Failed,
    /// Killed by a host failure (fault injection).
    Died,
}

/// Kernel-side end of one process's transport.
enum ProcPort {
    /// A coroutine process, resumed through its handoff slot.
    Coroutine(Process),
    /// An inline daemon: no stack, stepped by `pump_processes`.
    Inline(Box<dyn Daemon>),
}

// SAFETY: `Inline` holds a `Box<dyn Daemon>`, and `Daemon: Send`. A
// `Coroutine` is not `Send` because, once started, its stack holds frames
// tied to the thread that runs it. But the engine starts coroutines only
// inside `run_until`, which owns the engine and resumes every coroutine
// on its own thread; `finish` unwinds every started one there, and one
// that blocks while unwinding is leaked, never resumed. So whenever an
// engine can move between threads, each coroutine is unstarted: its
// fields are its `Send` body, its slot (cells of `Send` requests and
// grants, a clock and an outbox), no stack and two null stack pointers.
unsafe impl Send for ProcPort {}

/// Obs counter names of the per-kind request tallies, indexed by
/// [`Request::counter`].
const REQ_COUNTERS: [&str; 10] = [
    "sim.req.compute",
    "sim.req.sleep",
    "sim.req.recv",
    "sim.req.rendezvous",
    "sim.req.eager",
    "sim.req.transfer",
    "sim.req.trace",
    "sim.req.load",
    "sim.req.spawn",
    "sim.req.exit",
];

impl Request {
    /// Index of this request's tally in [`REQ_COUNTERS`]. `TryRecv`
    /// counts as a receive and `Panic` as an exit; `Now`, which reaches
    /// the kernel only under the unbatched test oracle, has no tally.
    fn counter(&self) -> Option<usize> {
        Some(match self {
            Request::Now => return None,
            Request::Compute { .. } => 0,
            Request::Sleep { .. } => 1,
            Request::Recv { .. } | Request::TryRecv { .. } => 2,
            Request::Send {
                mode: SendMode::Rendezvous,
                ..
            } => 3,
            Request::Send {
                mode: SendMode::Eager,
                ..
            } => 4,
            Request::Transfer { .. } => 5,
            Request::Trace { .. } => 6,
            Request::InjectLoad { .. } | Request::RemoveLoad { .. } => 7,
            Request::Spawn { .. } => 8,
            Request::Exit | Request::Panic(_) => 9,
        })
    }
}

struct ProcSlot {
    name: Arc<str>,
    host: HostId,
    port: ProcPort,
    state: PState,
}

/// Epoch-stamped sparse map from small indices to `u32` values. `begin`
/// invalidates all entries in O(1); used for dirty-set membership, BFS
/// visit marks and global→component-local link index mapping without
/// per-recompute clearing.
#[derive(Default, Debug)]
struct EpochMap {
    epoch: u64,
    slots: Vec<(u64, u32)>,
}

impl EpochMap {
    fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, (0, 0));
        }
    }
    fn begin(&mut self) {
        self.epoch += 1;
    }
    /// Back to the state of a new map: no slots, epoch 0.
    fn reset(&mut self) {
        self.slots.clear();
        self.epoch = 0;
    }
    fn contains(&self, i: usize) -> bool {
        self.slots[i].0 == self.epoch
    }
    fn get(&self, i: usize) -> Option<u32> {
        let (e, v) = self.slots[i];
        if e == self.epoch {
            Some(v)
        } else {
            None
        }
    }
    fn set(&mut self, i: usize, v: u32) {
        self.slots[i] = (self.epoch, v);
    }
}

/// Reusable buffers for scoped rate recomputation.
#[derive(Default)]
struct RateScratch {
    scoped_hosts: Vec<u32>,
    link_stack: Vec<u32>,
    comp_flows: Vec<u32>,
    offsets: Vec<(u32, u32)>,
    links_flat: Vec<u32>,
    caps_local: Vec<f64>,
    fair: FairScratch,
    flow_mark: EpochMap,
    comp_link_mark: EpochMap,
    link_local: EpochMap,
    /// Per component flow (sorted by id): index of its route class.
    class_of: Vec<u32>,
    /// Per route class: member-flow count (the solver's multiplicity).
    class_mult: Vec<u32>,
    /// Per route class: the solved per-flow rate.
    class_rates: Vec<f64>,
    /// Route id → class index for the component being solved.
    route_class: EpochMap,
}

impl RateScratch {
    /// Empty every buffer and reset every map, keeping capacity.
    fn clear(&mut self) {
        self.scoped_hosts.clear();
        self.link_stack.clear();
        self.comp_flows.clear();
        self.offsets.clear();
        self.links_flat.clear();
        self.caps_local.clear();
        self.fair.clear();
        self.flow_mark.reset();
        self.comp_link_mark.reset();
        self.link_local.reset();
        self.class_of.clear();
        self.class_mult.clear();
        self.class_rates.clear();
        self.route_class.reset();
    }
}

/// An engine's growable storage: everything whose size follows the run's
/// traffic rather than the grid. Dropping the engine empties it and parks
/// it in [`SPARE_STORAGE`] for the thread's next [`Engine::new`], so a
/// run starts with the capacity the last one grew instead of regrowing
/// it from empty.
///
/// Only capacity carries over. [`Storage::clear`] and
/// [`Storage::shape`] leave every buffer as a new engine's: empty slabs
/// and free lists (so flow, action and event-handle ids are assigned
/// exactly as in a new engine), reset epoch maps and empty mailboxes.
/// The two hashed tables, the mail directory and `route_ids`, keep their
/// bucket counts, but they are only probed by key and never iterated, so
/// no result can depend on them (DESIGN.md, "Warm engine storage").
#[derive(Default)]
struct Storage {
    events: IndexedHeap,
    cpu: Vec<Option<CpuAction>>,
    flows: Vec<Option<Flow>>,
    free_cpu: Vec<u32>,
    free_flows: Vec<u32>,
    active_flows: Vec<u32>,
    host_actions: Vec<Vec<u32>>,
    link_flows: Vec<Vec<u32>>,
    mailboxes: MailDir,
    routes_tbl: Vec<RouteEntry>,
    route_arena: Vec<u32>,
    route_ids: RouteMap<(u32, u32)>,
    runnable: VecDeque<(ProcId, Grant)>,
    dirty_hosts: Vec<u32>,
    dirty_links: Vec<u32>,
    dirty_host_mark: EpochMap,
    dirty_link_mark: EpochMap,
    scratch: RateScratch,
}

thread_local! {
    /// The storage of the last engine dropped on this thread, waiting
    /// for the next [`Engine::new`] here. One slot: an engine dropped
    /// while it is full frees its storage.
    static SPARE_STORAGE: RefCell<Option<Storage>> = const { RefCell::new(None) };
}

impl Storage {
    /// This thread's spare storage, or new storage if there is none,
    /// shaped for a grid of `nhosts` hosts and `nlinks` links.
    fn take(nhosts: usize, nlinks: usize) -> Storage {
        let mut s = SPARE_STORAGE
            .try_with(|slot| slot.borrow_mut().take())
            .ok()
            .flatten()
            .unwrap_or_default();
        s.shape(nhosts, nlinks);
        s
    }

    /// Empty the storage, dropping what the run left in it (undelivered
    /// payloads, queued sends, pending grants), and park it in this
    /// thread's slot unless the slot is full or already gone.
    fn recycle(mut self) {
        self.clear();
        let mut spare = Some(self);
        let _ = SPARE_STORAGE.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.is_none() {
                *slot = spare.take();
            }
        });
    }

    /// Empty every buffer, keeping its capacity; per-host and per-link
    /// lists keep their (now empty) inner buffers.
    fn clear(&mut self) {
        self.events.clear();
        self.cpu.clear();
        self.flows.clear();
        self.free_cpu.clear();
        self.free_flows.clear();
        self.active_flows.clear();
        self.host_actions.iter_mut().for_each(Vec::clear);
        self.link_flows.iter_mut().for_each(Vec::clear);
        self.mailboxes.clear();
        self.routes_tbl.clear();
        self.route_arena.clear();
        self.route_ids.clear();
        self.runnable.clear();
        self.dirty_hosts.clear();
        self.dirty_links.clear();
        self.dirty_host_mark.reset();
        self.dirty_link_mark.reset();
        self.scratch.clear();
    }

    /// Size cleared storage for a grid: one empty action list per host
    /// and flow list per link, dirty marks open on a first epoch, and
    /// route 0 reserved for same-host transfers (see [`Engine::route_id`]).
    fn shape(&mut self, nhosts: usize, nlinks: usize) {
        self.host_actions.resize_with(nhosts, Vec::new);
        self.link_flows.resize_with(nlinks, Vec::new);
        self.dirty_host_mark.ensure(nhosts);
        self.dirty_host_mark.begin();
        self.dirty_link_mark.ensure(nlinks);
        self.dirty_link_mark.begin();
        self.scratch.comp_link_mark.ensure(nlinks);
        self.scratch.link_local.ensure(nlinks);
        self.routes_tbl.push(RouteEntry {
            start: 0,
            len: 0,
            latency: 0.0,
        });
    }
}

/// The grid emulator.
///
/// ```
/// use grads_sim::topology::{GridBuilder, HostSpec};
/// use grads_sim::engine::Engine;
///
/// let mut b = GridBuilder::new();
/// let c = b.cluster("LOCAL");
/// let hosts = b.add_hosts(c, 1, &HostSpec::with_speed(100.0));
/// let mut eng = Engine::new(b.build().unwrap());
/// eng.spawn("worker", hosts[0], |ctx| {
///     ctx.compute(250.0); // 2.5 virtual seconds at 100 flop/s
///     let t = ctx.now();
///     ctx.trace("done", t);
/// });
/// let report = eng.run();
/// assert!((report.trace.last_value("done").unwrap() - 2.5).abs() < 1e-9);
/// ```
pub struct Engine {
    grid: Grid,
    now: f64,
    last_advance: f64,
    seq: u64,
    events: IndexedHeap,
    procs: Vec<ProcSlot>,
    cpu: Vec<Option<CpuAction>>,
    flows: Vec<Option<Flow>>,
    mailboxes: MailDir,
    host_load: Vec<f64>,
    host_alive: Vec<bool>,
    host_flops: Vec<f64>,
    link_bytes: Vec<f64>,
    /// Monotone counter for action/flow completion generations. Must be
    /// globally unique: slots are reused, and a per-slot counter restarting
    /// at zero lets a stale completion event fire on a *new* occupant.
    gen_counter: u64,
    runnable: VecDeque<(ProcId, Grant)>,
    /// Test oracle only: processes spawned while set make every `Ctx`
    /// call a blocking round trip (see [`Engine::set_unbatched_oracle`]).
    unbatched_oracle: bool,
    trace: Trace,
    /// Interned names of completed processes; materialized into the
    /// report's `String`s once at `finish` instead of allocating per exit.
    completed: Vec<Arc<str>>,
    failed: Vec<(String, String)>,
    /// Test oracle only: re-solve every host and sharing component on each
    /// solve (see [`Engine::set_full_recompute_oracle`]).
    full_oracle: bool,
    /// Test oracle only: solve inline on every churn instead of once per
    /// virtual instant (see [`Engine::set_eager_recompute_oracle`]).
    eager_oracle: bool,
    /// Churn notifications since the last solve (0 = rates are current).
    /// The run loop drains it before the clock advances past the instant
    /// the churn happened at.
    pending_churn: u32,
    /// Rate solves actually executed: one per virtual instant with churn
    /// (== `recomputes` only under the eager oracle).
    solves: u64,
    /// Churn notifications absorbed into a shared same-instant solve.
    coalesced_absorbed: u64,
    /// Interned routes; route 0 is the empty same-host route.
    routes_tbl: Vec<RouteEntry>,
    /// Every interned route's links, back to back in intern order.
    route_arena: Vec<u32>,
    route_ids: RouteMap<(u32, u32)>,
    /// Per-link capacity, hoisted out of the solve loops.
    link_caps: Vec<f64>,
    /// Live CPU action ids per host; the length doubles as the action count
    /// the CPU sharing model needs.
    host_actions: Vec<Vec<u32>>,
    /// Active flow ids per link — the flow/link adjacency the component
    /// flood walks.
    link_flows: Vec<Vec<u32>>,
    /// Flows currently transferring — the accrual sweep walks this instead
    /// of scanning every slot. Order is maintained deterministically
    /// (push on activate, swap-remove on completion) and only independent
    /// per-flow updates iterate it, so it never affects results.
    active_flows: Vec<u32>,
    free_cpu: Vec<u32>,
    free_flows: Vec<u32>,
    dirty_hosts: Vec<u32>,
    dirty_links: Vec<u32>,
    dirty_host_mark: EpochMap,
    dirty_link_mark: EpochMap,
    events_processed: u64,
    /// Requests handled, by kind ([`REQ_COUNTERS`]).
    req_counts: [u64; REQ_COUNTERS.len()],
    /// Requests that arrived in an outbox.
    req_outboxed: u64,
    /// Requests issued by inline daemons.
    req_inline: u64,
    /// Blocking handoffs: resumes of a coroutine process.
    req_roundtrips: u64,
    /// Completions discarded by their generation check (none on a
    /// correct kernel; see [`Engine::discard_if_stale`]).
    stale_discarded: u64,
    recomputes: u64,
    obs: grads_obs::Obs,
    rec: grads_obs::Recorder,
    scratch: RateScratch,
    /// If true (the default), `run` panics when any simulated process
    /// panicked, so test failures inside processes surface in the harness.
    pub panic_on_failure: bool,
}

static QUIET_KILL_HOOK: Once = Once::new();

fn install_quiet_kill_hook() {
    QUIET_KILL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KillToken>().is_none() {
                prev(info);
            }
        }));
    });
}

impl Engine {
    /// Create an engine over a built topology. It starts with the
    /// buffers the last engine dropped on this thread left behind, if
    /// any; their capacity never changes a result (DESIGN.md, "Warm
    /// engine storage").
    pub fn new(grid: Grid) -> Self {
        install_quiet_kill_hook();
        let nhosts = grid.hosts().len();
        let nlinks = grid.links().len();
        let Storage {
            events,
            cpu,
            flows,
            free_cpu,
            free_flows,
            active_flows,
            host_actions,
            link_flows,
            mailboxes,
            routes_tbl,
            route_arena,
            route_ids,
            runnable,
            dirty_hosts,
            dirty_links,
            dirty_host_mark,
            dirty_link_mark,
            scratch,
        } = Storage::take(nhosts, nlinks);
        let link_caps = grid.links().iter().map(|l| l.bandwidth).collect();
        Engine {
            grid,
            now: 0.0,
            last_advance: 0.0,
            seq: 0,
            events,
            procs: Vec::new(),
            cpu,
            flows,
            mailboxes,
            host_load: vec![0.0; nhosts],
            host_alive: vec![true; nhosts],
            host_flops: vec![0.0; nhosts],
            link_bytes: vec![0.0; nlinks],
            gen_counter: 1,
            runnable,
            unbatched_oracle: false,
            trace: Trace::default(),
            completed: Vec::new(),
            failed: Vec::new(),
            full_oracle: false,
            eager_oracle: false,
            pending_churn: 0,
            solves: 0,
            coalesced_absorbed: 0,
            routes_tbl,
            route_arena,
            route_ids,
            link_caps,
            host_actions,
            link_flows,
            free_cpu,
            active_flows,
            free_flows,
            dirty_hosts,
            dirty_links,
            dirty_host_mark,
            dirty_link_mark,
            events_processed: 0,
            req_counts: [0; REQ_COUNTERS.len()],
            req_outboxed: 0,
            req_inline: 0,
            req_roundtrips: 0,
            stale_discarded: 0,
            recomputes: 0,
            obs: grads_obs::Obs::disabled(),
            rec: grads_obs::Recorder::disabled(),
            scratch,
            panic_on_failure: true,
        }
    }

    /// The topology this engine emulates.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Test oracle: with `on`, every solve revisits every host with
    /// actions and every active sharing component instead of only the
    /// dirty ones — the reference for dirty-set scoping. Both scopes run
    /// the same per-component solver over flows sorted by id and skip
    /// re-stamping entities whose rate is bitwise unchanged, so they
    /// produce bit-identical [`RunReport`]s; the identity suites compare
    /// against this oracle. Not a tuning knob: the full scope only ever
    /// costs more work. Switch between runs.
    #[doc(hidden)]
    pub fn set_full_recompute_oracle(&mut self, on: bool) {
        self.full_oracle = on;
    }

    /// Test oracle: with `on`, every churn event is solved inline instead
    /// of joining the per-instant burst the run loop flushes once (the
    /// production timing — see [`Self::must_flush_before`]). Rates are
    /// only observable through the work they accrue, and work accrues only
    /// while virtual time advances, so both timings produce bit-identical
    /// [`RunReport`]s under every recompute scope; the coalescing
    /// identity suites compare against this oracle, and
    /// DESIGN.md ("Coalesced recomputation") carries the soundness
    /// argument. Not a tuning knob: the eager timing only ever
    /// costs more solves. Switch between runs, not mid-burst.
    #[doc(hidden)]
    pub fn set_eager_recompute_oracle(&mut self, on: bool) {
        debug_assert_eq!(
            self.pending_churn, 0,
            "switch recompute timing between runs, not mid-burst"
        );
        self.eager_oracle = on;
    }

    /// Test oracle: with `on`, processes spawned afterwards make every
    /// `Ctx` call a blocking round trip on their handoff slot — `now()`
    /// asks the kernel instead of reading the grant-stamped clock,
    /// zero-length `compute`/`sleep` go to the kernel, and fire-and-forget
    /// calls skip the outbox. The kernel answers each exactly as the
    /// batched path assumes, so both produce bit-identical [`RunReport`]s;
    /// the identity suites compare against this oracle. Not a tuning
    /// knob: unbatched calls only ever cost more handoffs. Call before
    /// spawning.
    #[doc(hidden)]
    pub fn set_unbatched_oracle(&mut self, on: bool) {
        self.unbatched_oracle = on;
    }

    /// Attach an observability sink. Kernel counters (events applied, stale
    /// discards, recompute count) and per-recompute dirty-set-size
    /// histograms are flushed into it when the run finishes.
    /// Recording never reads or perturbs virtual time; with the default
    /// disabled handle the kernel only maintains plain integer counters it
    /// tracks anyway.
    pub fn set_obs(&mut self, obs: grads_obs::Obs) {
        self.obs = obs;
    }

    /// The attached observability sink (disabled by default).
    pub fn obs(&self) -> &grads_obs::Obs {
        &self.obs
    }

    /// Attach a flight recorder. The kernel stamps track lifecycle edges
    /// into it (process start, exit, panic, host-failure death, and
    /// close-out at a `run_until` cutoff) for processes bound via
    /// [`grads_obs::Recorder::bind_pid`]; middleware records everything
    /// else. Like [`Engine::set_obs`], recording never reads or perturbs
    /// virtual time, and the default disabled handle costs one `Option`
    /// test per lifecycle edge.
    pub fn set_recorder(&mut self, rec: grads_obs::Recorder) {
        self.rec = rec;
    }

    /// The attached flight recorder (disabled by default).
    pub fn recorder(&self) -> &grads_obs::Recorder {
        &self.rec
    }

    /// Build an event with the next sequence number. Static over disjoint
    /// fields so recompute loops can stamp while iterating `self.cpu` /
    /// `self.flows`.
    fn stamp(seq: &mut u64, t: f64, kind: EventKind) -> Event {
        let (class, key) = class_key(&kind);
        let s = *seq;
        *seq += 1;
        Event {
            t,
            class,
            key,
            seq: s,
            kind,
        }
    }

    /// Push an event, returning its handle.
    fn push_event(&mut self, t: f64, kind: EventKind) -> u32 {
        let ev = Self::stamp(&mut self.seq, t, kind);
        self.events.push(ev)
    }

    /// Cancel a pending completion event: the queue removes it outright
    /// and `handle` is reset to [`NO_HANDLE`].
    fn cancel_ev(events: &mut IndexedHeap, handle: &mut u32) {
        events.remove(*handle);
        *handle = NO_HANDLE;
    }

    /// Cancel an entity's pending completion event (if `had_pending`) and
    /// schedule its successor in one step: the queue overwrites the event
    /// in place via [`IndexedHeap::replace`] — one short sift instead of a
    /// removal plus a push.
    fn restamp_ev(
        events: &mut IndexedHeap,
        seq: &mut u64,
        handle: &mut u32,
        had_pending: bool,
        t: f64,
        kind: EventKind,
    ) {
        let ev = Self::stamp(seq, t, kind);
        *handle = if had_pending {
            events.replace(*handle, ev)
        } else {
            events.push(ev)
        };
    }

    fn mark_host_dirty(&mut self, h: usize) {
        if !self.dirty_host_mark.contains(h) {
            self.dirty_host_mark.set(h, 0);
            self.dirty_hosts.push(h as u32);
        }
    }

    /// Spawn a process starting at virtual time 0.
    pub fn spawn<F>(&mut self, name: &str, host: HostId, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.spawn_at(0.0, name, host, Box::new(f))
    }

    /// Spawn a process starting at virtual time `t`.
    pub fn spawn_delayed<F>(&mut self, t: f64, name: &str, host: HostId, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.spawn_at(t, name, host, Box::new(f))
    }

    /// Spawn an inline daemon starting at virtual time 0. The kernel
    /// calls [`Daemon::step`] wherever it would resume a coroutine
    /// process, so it costs no stack and no context switch (see
    /// [`crate::daemon`]). It appears in the report like any other
    /// process.
    pub fn spawn_daemon(&mut self, name: &str, host: HostId, d: impl Daemon) -> ProcId {
        self.add_proc(0.0, Arc::from(name), host, ProcPort::Inline(Box::new(d)))
    }

    fn spawn_at(&mut self, t: f64, name: &str, host: HostId, f: ProcFn) -> ProcId {
        let pid = ProcId(self.procs.len() as u32);
        let unbatched = self.unbatched_oracle;
        let body = Box::new(move |link: &handoff::ProcLink| {
            f(&mut Ctx::start(pid, host, link, unbatched))
        });
        let port = ProcPort::Coroutine(Process::new(HandoffSlot::default(), body));
        self.add_proc(t, Arc::from(name), host, port)
    }

    /// Enter a process in the table and schedule its start at `t`; on a
    /// dead host it dies at once instead.
    fn add_proc(&mut self, t: f64, name: Arc<str>, host: HostId, port: ProcPort) -> ProcId {
        let pid = ProcId(self.procs.len() as u32);
        let alive = self.host_alive[host.0 as usize];
        self.procs.push(ProcSlot {
            name,
            host,
            port,
            state: if alive { PState::Alive } else { PState::Died },
        });
        if alive {
            self.push_event(t, EventKind::Start(pid));
        }
        pid
    }

    /// Schedule `amount` units of external CPU load on `host` from `start`
    /// until `end` (or forever if `end` is `None`).
    pub fn add_load_window(&mut self, host: HostId, start: f64, end: Option<f64>, amount: f64) {
        self.push_event(start, EventKind::LoadOn { host, amount });
        if let Some(e) = end {
            self.push_event(e, EventKind::LoadOff { host, amount });
        }
    }

    /// Schedule a permanent host failure at virtual time `t` (fault
    /// injection, the paper's §5 fault-tolerance direction). Every process
    /// on the host dies at that instant; new spawns onto it die
    /// immediately; in-flight communication to it is lost to the extent
    /// the protocol would lose it (receivers never resume).
    pub fn fail_host_at(&mut self, host: HostId, t: f64) {
        self.push_event(t, EventKind::HostFail { host });
    }

    /// Run until no events remain (or every process is blocked).
    pub fn run(self) -> RunReport {
        self.run_until(f64::INFINITY)
    }

    /// Run until virtual time `tmax`, no events remain, or every process is
    /// blocked — whichever comes first. All surviving processes are killed
    /// (unwound) before returning. Every process runs on the calling
    /// thread.
    pub fn run_until(mut self, tmax: f64) -> RunReport {
        self.run_loop(tmax);
        self.finish()
    }

    /// Resume runnable processes until none is left.
    ///
    /// Resuming a coroutine process runs it on this thread until its next
    /// request. That request may arrive with deferred fire-and-forget
    /// requests queued before it (see [`crate::handoff`]). They are
    /// applied first, in order, each exactly as its own round trip would
    /// have been: its reply is a front-of-queue `Unit` for the same
    /// process, which this loop would have granted straight back before
    /// touching anything else — so popping that reply instead of granting
    /// it changes no kernel state transition.
    ///
    /// An inline daemon's next request is computed by
    /// [`Self::step_daemon`] instead.
    fn pump_processes(&mut self) {
        while let Some((pid, grant)) = self.runnable.pop_front() {
            let now = self.now;
            let p = &mut self.procs[pid.0 as usize];
            if p.state != PState::Alive {
                continue;
            }
            let req = match &mut p.port {
                ProcPort::Inline(d) => {
                    self.req_inline += 1;
                    Self::step_daemon(d.as_mut(), now)
                }
                ProcPort::Coroutine(co) => {
                    self.req_roundtrips += 1;
                    let req = handoff::resume(co, grant, now);
                    let mut deferred = handoff::take_outbox(co);
                    if !deferred.is_empty() {
                        self.req_outboxed += deferred.len() as u64;
                        for d in deferred.drain(..) {
                            self.handle_request(pid, d);
                            let reply = self.runnable.pop_front();
                            debug_assert!(
                                matches!(reply, Some((p, Grant::Unit)) if p == pid),
                                "a deferred request must be answered by an immediate Unit"
                            );
                        }
                        if let ProcPort::Coroutine(co) = &self.procs[pid.0 as usize].port {
                            handoff::restore_outbox(co, deferred);
                        }
                    }
                    req
                }
            };
            self.handle_request(pid, req);
        }
    }

    /// Step an inline daemon at `now` and translate its [`Step`] into the
    /// request a coroutine process would have made. A panicking step
    /// becomes `Request::Panic`, as a coroutine's would.
    fn step_daemon(d: &mut dyn Daemon, now: f64) -> Request {
        match catch_unwind(AssertUnwindSafe(|| d.step(now))) {
            Ok(Step::Compute(flops)) => Request::Compute { flops },
            Ok(Step::Sleep(dt)) => Request::Sleep { dt },
            Ok(Step::Exit) => Request::Exit,
            Err(e) => Request::Panic(panic_message(&*e)),
        }
    }

    /// Staleness is decided before the clock moves: a discarded event
    /// must be completely unobservable, including through `end_time`
    /// and the accrual sweep. Skipping `advance_to` on a stale pop is
    /// exact — no rate changes at a stale pop, and accrual is linear in
    /// time.
    ///
    /// Every cancel and re-stamp goes through the owner's queue handle,
    /// so the kernel never pops a stale event: a stale pop means a cancel
    /// handle was lost (debug builds assert this). Release builds keep
    /// the check and count the discard in `sim.events_stale_discarded`.
    fn discard_if_stale(&mut self, kind: &EventKind) -> bool {
        let stale = match *kind {
            EventKind::CpuDone { id, gen } => {
                self.cpu[id].as_ref().map(|a| a.gen == gen) != Some(true)
            }
            EventKind::FlowDone { id, gen } => {
                self.flows[id].as_ref().map(|f| f.active && f.gen == gen) != Some(true)
            }
            _ => false,
        };
        debug_assert!(
            !stale,
            "kernel popped a stale completion: a cancel handle was lost"
        );
        if stale {
            self.stale_discarded += 1;
        }
        stale
    }

    /// The run loop: one event at a time off one queue.
    fn run_loop(&mut self, tmax: f64) {
        loop {
            self.pump_processes();
            // Deferred-recompute flush: solve the pending burst before its
            // rates become observable. The solve may push the event the
            // next peek selects, so it runs before the peek.
            if self.pending_churn > 0 && self.must_flush_before(self.events.peek()) {
                self.flush_rates();
            }
            match self.events.peek() {
                None => break,
                Some((t, _)) if t > tmax => break,
                Some(_) => {}
            }
            let ev = self.events.pop().expect("peeked event");
            if self.discard_if_stale(&ev.kind) {
                continue;
            }
            self.advance_to(ev.t);
            self.events_processed += 1;
            self.apply_event(ev.kind);
        }
    }

    fn finish(mut self) -> RunReport {
        // Unwind every started process that has not exited, in pid order.
        // One that blocks again while unwinding is never resumed; it stays
        // listed, and dropping it leaks its stack.
        let mut unfinished = Vec::new();
        let mut died = Vec::new();
        for p in &mut self.procs {
            match p.state {
                PState::Alive => unfinished.push(p.name.to_string()),
                PState::Died => died.push(p.name.to_string()),
                PState::Done | PState::Failed => continue,
            }
            if let ProcPort::Coroutine(co) = &mut p.port {
                handoff::kill(co, self.now);
            }
        }
        if self.panic_on_failure && !self.failed.is_empty() {
            panic!("simulated process failures: {:?}", self.failed);
        }
        // Flows still in flight at cutoff are credited for the bytes they
        // actually moved (completed flows were credited at their FlowDone).
        for &fi in &self.active_flows {
            let f = self.flows[fi as usize]
                .as_ref()
                .expect("active flow indexed");
            let moved = f.size - f.remaining;
            if moved > 0.0 {
                for &l in &self.route_arena[self.routes_tbl[f.route as usize].span()] {
                    self.link_bytes[l as usize] += moved;
                }
            }
        }
        // Processes alive (or killed) at the cutoff get their tracks
        // closed at the run's end time.
        self.rec.close_open_tracks(self.now);
        if self.obs.is_enabled() {
            self.obs
                .counter_add("sim.events_applied", self.events_processed);
            self.obs
                .counter_add("sim.events_stale_discarded", self.stale_discarded);
            self.obs.counter_add("sim.recomputes", self.recomputes);
            // Timing split: `recomputes` counts churn notifications (a
            // timing-invariant property of the scenario), `solves` the rate
            // solves actually run, `coalesced` the same-instant churns a
            // deferred solve absorbed (solves == recomputes only under the
            // eager test oracle).
            self.obs.counter_add("sim.recompute.solves", self.solves);
            self.obs
                .counter_add("sim.recompute.coalesced", self.coalesced_absorbed);
            // Requests by kind, then by how they reached the kernel: in an
            // outbox, from an inline daemon, or over a blocking handoff.
            for (name, &n) in REQ_COUNTERS.iter().zip(&self.req_counts) {
                self.obs.counter_add(name, n);
            }
            self.obs.counter_add("sim.req.outboxed", self.req_outboxed);
            self.obs.counter_add("sim.req.inline", self.req_inline);
            self.obs
                .counter_add("sim.req.roundtrips", self.req_roundtrips);
            self.obs.gauge_set("sim.end_time", self.now);
            self.obs
                .gauge_set("sim.final_heap_len", self.events.len() as f64);
        }
        RunReport {
            end_time: self.now,
            completed: self.completed.iter().map(|s| s.to_string()).collect(),
            failed: std::mem::take(&mut self.failed),
            unfinished,
            died,
            host_flops: std::mem::take(&mut self.host_flops),
            link_bytes: std::mem::take(&mut self.link_bytes),
            events_processed: self.events_processed,
            trace: std::mem::take(&mut self.trace),
        }
    }

    // ------------------------------------------------------------------
    // Time advancement and rate recomputation
    // ------------------------------------------------------------------

    fn advance_to(&mut self, t: f64) {
        let dt = t - self.last_advance;
        if dt > 0.0 {
            for a in self.cpu.iter_mut().flatten() {
                let done = (a.rate * dt).min(a.remaining);
                self.host_flops[a.host] += done;
                a.remaining -= done;
            }
            for k in 0..self.active_flows.len() {
                let fi = self.active_flows[k] as usize;
                let f = self.flows[fi].as_mut().expect("active flow indexed");
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
            }
        }
        self.last_advance = t;
        self.now = t;
    }

    /// Note a churn (the site already marked its dirty hosts/links). The
    /// churn joins the pending same-instant burst and the run loop flushes
    /// it once, before the rates become observable (see
    /// [`Self::must_flush_before`]); a same-time burst of *k* churns costs
    /// one solve instead of *k*. The eager test oracle
    /// ([`Self::set_eager_recompute_oracle`]) solves inline instead.
    fn recompute(&mut self) {
        self.recomputes += 1;
        self.pending_churn += 1;
        if self.eager_oracle {
            self.flush_rates();
        }
    }

    /// Whether a pending churn burst must be solved before applying the
    /// next event (`peeked = (t, class)` of the run loop's candidate, or
    /// `None` when no event is queued).
    ///
    /// The burst may keep growing across *every* same-instant event —
    /// completions included — and must land only when the clock is about
    /// to advance (accrual reads rates) or the queue is empty (the solve
    /// itself may supply the next event). Same-instant completion pops are
    /// safe to defer across because a deferred solve can never (re)stamp a
    /// completion *at* `now`:
    ///
    /// - an in-flight action due exactly at `now` has bitwise-zero
    ///   remaining work, so any post-churn rate leaves its stamp at `now`
    ///   unchanged (`now + 0.0 / rate`), and the run loop pops it off its
    ///   original stamp under the same `(t, class, key, seq)` order;
    /// - an action still in flight past `now` has `remaining > 0` and a
    ///   finite rate, so its restamp lands strictly in the future;
    /// - churn cannot *create* an at-`now` completion: zero-flop computes
    ///   never allocate a cpu action ([`Request::Compute`] guards
    ///   `flops <= 0`), and empty-route or zero-byte flows finish inline
    ///   at [`EventKind::FlowActivate`] without ever scheduling a
    ///   [`EventKind::FlowDone`].
    ///
    /// The second point leans on floating point: `now + remaining / rate`
    /// rounds down to `now` when the quotient is below half an ulp of
    /// `now`, which would let an eager solve pop that completion earlier
    /// within the instant than the deferred solve does. Every live
    /// re-stamp goes through [`due_at`], which stamps such a completion
    /// one ulp after `now` instead (DESIGN.md, "Coalesced
    /// recomputation").
    #[inline]
    fn must_flush_before(&self, peeked: Option<(f64, u8)>) -> bool {
        match peeked {
            None => true,
            Some((t, _class)) => t > self.now,
        }
    }

    /// Re-derive rates and reschedule completions for the pending churn
    /// burst (a burst of one under the eager oracle).
    fn flush_rates(&mut self) {
        debug_assert!(self.pending_churn > 0, "flush without pending churn");
        self.solves += 1;
        self.coalesced_absorbed += (self.pending_churn - 1) as u64;
        // Dirty marking happens under the full oracle too, so the dirty-set
        // sizes are meaningful (if unused) there. Gated: building the
        // histogram observations per solve is the only non-counter cost.
        if self.obs.is_enabled() {
            self.obs
                .observe("sim.recompute.burst", self.pending_churn as f64);
            self.obs.observe(
                "sim.dirty_hosts_per_recompute",
                self.dirty_hosts.len() as f64,
            );
            self.obs.observe(
                "sim.dirty_links_per_recompute",
                self.dirty_links.len() as f64,
            );
        }
        self.pending_churn = 0;
        self.recompute_scoped(self.full_oracle);
    }

    /// Scoped recompute. With `full` set, every host with actions and every
    /// active sharing component is revisited; otherwise only dirty hosts
    /// and components reachable from dirty links. Both paths run the same
    /// per-component solver over flows sorted by id and skip re-stamping
    /// entities whose rate is bitwise unchanged, so their observable
    /// behavior is identical — the determinism gate in
    /// `tests/determinism.rs` holds them to that.
    fn recompute_scoped(&mut self, full: bool) {
        let now = self.now;
        // CPU shares for scoped hosts.
        let mut scoped = std::mem::take(&mut self.scratch.scoped_hosts);
        scoped.clear();
        if full {
            scoped.extend(
                (0..self.host_actions.len())
                    .filter(|&h| !self.host_actions[h].is_empty())
                    .map(|h| h as u32),
            );
        } else {
            scoped.extend_from_slice(&self.dirty_hosts);
            scoped.sort_unstable();
        }
        for &hu in &scoped {
            let h = hu as usize;
            let n = self.host_actions[h].len();
            if n == 0 {
                continue;
            }
            let spec = &self.grid.hosts()[h];
            let rate = cpu_share(spec.speed, spec.cores, n, self.host_load[h]);
            for k in 0..n {
                let id = self.host_actions[h][k] as usize;
                let a = self.cpu[id].as_mut().expect("indexed action is live");
                if a.rate == rate {
                    continue;
                }
                let had_pending = a.gen != 0 && a.rate > 0.0;
                if had_pending && a.due == now {
                    // Due-now guard (see `CpuAction::due`).
                    a.rate = rate;
                    continue;
                }
                a.rate = rate;
                a.gen = self.gen_counter;
                self.gen_counter += 1;
                if rate > 0.0 {
                    a.due = due_at(now, a.remaining, rate);
                    Self::restamp_ev(
                        &mut self.events,
                        &mut self.seq,
                        &mut a.ev,
                        had_pending,
                        a.due,
                        EventKind::CpuDone { id, gen: a.gen },
                    );
                } else if had_pending {
                    Self::cancel_ev(&mut self.events, &mut a.ev);
                    a.due = f64::INFINITY;
                }
            }
        }
        scoped.clear();
        self.scratch.scoped_hosts = scoped;
        // Network: solve each affected sharing component.
        self.scratch.flow_mark.ensure(self.flows.len());
        self.scratch.flow_mark.begin();
        self.scratch.comp_link_mark.begin();
        if full {
            for id in 0..self.flows.len() {
                let is_root = self.flows[id].as_ref().map(|f| f.active) == Some(true)
                    && !self.scratch.flow_mark.contains(id);
                if !is_root {
                    continue;
                }
                let route = self.flows[id].as_ref().expect("checked above").route as usize;
                for k in self.routes_tbl[route].span() {
                    let l = self.route_arena[k] as usize;
                    if !self.scratch.comp_link_mark.contains(l) {
                        self.scratch.comp_link_mark.set(l, 0);
                        self.scratch.link_stack.push(l as u32);
                    }
                }
                self.flood_component();
                self.solve_component(now);
            }
        } else {
            let mut roots = std::mem::take(&mut self.dirty_links);
            roots.sort_unstable();
            for &lu in &roots {
                let l = lu as usize;
                if self.scratch.comp_link_mark.contains(l) {
                    continue;
                }
                self.scratch.comp_link_mark.set(l, 0);
                self.scratch.link_stack.push(lu);
                self.flood_component();
                self.solve_component(now);
            }
            roots.clear();
            self.dirty_links = roots;
        }
        self.clear_dirty();
    }

    fn clear_dirty(&mut self) {
        self.dirty_hosts.clear();
        self.dirty_links.clear();
        self.dirty_host_mark.begin();
        self.dirty_link_mark.begin();
    }

    /// Flood one connected sharing component from the seed links already on
    /// `scratch.link_stack` (and marked visited), collecting its flows into
    /// `scratch.comp_flows`.
    fn flood_component(&mut self) {
        let s = &mut self.scratch;
        s.comp_flows.clear();
        while let Some(l) = s.link_stack.pop() {
            for &fid in &self.link_flows[l as usize] {
                if s.flow_mark.contains(fid as usize) {
                    continue;
                }
                s.flow_mark.set(fid as usize, 0);
                s.comp_flows.push(fid);
                let f = self.flows[fid as usize].as_ref().expect("indexed flow");
                for &l2 in &self.route_arena[self.routes_tbl[f.route as usize].span()] {
                    if !s.comp_link_mark.contains(l2 as usize) {
                        s.comp_link_mark.set(l2 as usize, 0);
                        s.link_stack.push(l2);
                    }
                }
            }
        }
    }

    /// Max-min solve the component collected by `flood_component` and apply
    /// the resulting rates.
    ///
    /// Flows are sorted by id, grouped into *route classes* (flows sharing
    /// one interned route — concurrent transfers between the same host
    /// pair, e.g. a bulk migration alongside application traffic), and the
    /// progressive filling runs over distinct classes with multiplicity
    /// weights ([`FairScratch::solve_classes`]) — arithmetically identical
    /// to the per-flow solve, at O(classes) per filling round instead of
    /// O(flows).
    ///
    /// Classes and component-local link indices are assigned in
    /// first-encounter order over the sorted flow list (repeat routes
    /// introduce no new links, so the link enumeration matches the per-flow
    /// solver's exactly), keeping the solver input — and hence every
    /// rounding decision — a pure function of the component's membership,
    /// independent of flood traversal order or which dirty link seeded it.
    fn solve_component(&mut self, now: f64) {
        let s = &mut self.scratch;
        if s.comp_flows.is_empty() {
            return;
        }
        s.comp_flows.sort_unstable();
        s.offsets.clear();
        s.links_flat.clear();
        s.caps_local.clear();
        s.link_local.begin();
        s.class_of.clear();
        s.class_mult.clear();
        s.route_class.ensure(self.routes_tbl.len());
        s.route_class.begin();
        for &fid in &s.comp_flows {
            let f = self.flows[fid as usize].as_ref().expect("indexed flow");
            if let Some(c) = s.route_class.get(f.route as usize) {
                s.class_of.push(c);
                s.class_mult[c as usize] += 1;
                continue;
            }
            let c = s.class_mult.len() as u32;
            s.route_class.set(f.route as usize, c);
            s.class_of.push(c);
            s.class_mult.push(1);
            let links = &self.route_arena[self.routes_tbl[f.route as usize].span()];
            s.offsets
                .push((s.links_flat.len() as u32, links.len() as u32));
            for &l in links.iter() {
                let li = match s.link_local.get(l as usize) {
                    Some(v) => v,
                    None => {
                        let v = s.caps_local.len() as u32;
                        s.caps_local.push(self.link_caps[l as usize]);
                        s.link_local.set(l as usize, v);
                        v
                    }
                };
                s.links_flat.push(li);
            }
        }
        s.fair.solve_classes(
            &s.offsets,
            &s.links_flat,
            &s.caps_local,
            &s.class_mult,
            &mut s.class_rates,
        );
        for (k, &fid) in s.comp_flows.iter().enumerate() {
            let id = fid as usize;
            let rate = s.class_rates[s.class_of[k] as usize];
            let f = self.flows[id].as_mut().expect("indexed flow");
            if f.rate == rate {
                continue;
            }
            let had_pending = f.gen != 0 && f.rate > 0.0;
            if had_pending && f.due == now {
                // Due-now guard (see `CpuAction::due`).
                f.rate = rate;
                continue;
            }
            f.rate = rate;
            f.gen = self.gen_counter;
            self.gen_counter += 1;
            if rate > 0.0 && rate.is_finite() {
                f.due = due_at(now, f.remaining, rate);
                Self::restamp_ev(
                    &mut self.events,
                    &mut self.seq,
                    &mut f.ev,
                    had_pending,
                    f.due,
                    EventKind::FlowDone { id, gen: f.gen },
                );
            } else if had_pending {
                Self::cancel_ev(&mut self.events, &mut f.ev);
                f.due = f64::INFINITY;
            }
        }
    }

    // ------------------------------------------------------------------
    // Process resumption
    // ------------------------------------------------------------------

    /// Queue a resumption at the back (woken by an event).
    fn resume(&mut self, pid: ProcId, grant: Grant) {
        self.runnable.push_back((pid, grant));
    }

    /// Queue a resumption at the front (immediate reply to the process that
    /// just issued a request — it continues before anything else runs).
    fn resume_first(&mut self, pid: ProcId, grant: Grant) {
        self.runnable.push_front((pid, grant));
    }

    fn record(&mut self, pid: Option<ProcId>, kind: TraceKind) {
        self.trace.records.push(TraceRecord {
            t: self.now,
            pid,
            kind,
        });
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    fn handle_request(&mut self, pid: ProcId, req: Request) {
        if let Some(k) = req.counter() {
            self.req_counts[k] += 1;
        }
        match req {
            Request::Now => self.resume_first(pid, Grant::Time(self.now)),
            Request::Compute { flops } => {
                if flops <= 0.0 {
                    self.resume_first(pid, Grant::Unit);
                } else {
                    let host = self.procs[pid.0 as usize].host.0 as usize;
                    self.alloc_cpu(host, pid, flops);
                    self.recompute();
                }
            }
            Request::Sleep { dt } => {
                if dt <= 0.0 {
                    self.resume_first(pid, Grant::Unit);
                } else {
                    let t = self.now + dt;
                    self.push_event(t, EventKind::SleepDone(pid));
                }
            }
            Request::Send {
                key,
                dst,
                bytes,
                payload,
                mode,
            } => self.do_send(pid, key, dst, bytes, payload, mode),
            Request::Recv { key } => self.do_recv(pid, key),
            Request::TryRecv { key } => {
                let p = self
                    .mailboxes
                    .get_mut(key)
                    .and_then(|mb| mb.arrived.pop_front());
                if p.is_some() {
                    self.mailboxes.release_if_empty(key);
                }
                self.resume_first(pid, Grant::MaybePayload(p));
            }
            Request::Transfer { dst, bytes } => {
                let src = self.procs[pid.0 as usize].host;
                self.start_flow(src, dst, bytes, None, OnDone::Wake(pid));
            }
            Request::Spawn { name, host, body } => {
                let child = match body {
                    ProcBody::Coroutine(f) => self.spawn_at(self.now, &name, host, f),
                    ProcBody::Daemon(d) => {
                        self.add_proc(self.now, Arc::from(name), host, ProcPort::Inline(d))
                    }
                };
                self.resume_first(pid, Grant::Proc(child));
            }
            Request::InjectLoad { host, amount } => {
                self.host_load[host.0 as usize] += amount;
                let total = self.host_load[host.0 as usize];
                self.record(Some(pid), TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
                self.resume_first(pid, Grant::Unit);
            }
            Request::RemoveLoad { host, amount } => {
                let l = &mut self.host_load[host.0 as usize];
                *l = (*l - amount).max(0.0);
                let total = *l;
                self.record(Some(pid), TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
                self.resume_first(pid, Grant::Unit);
            }
            Request::Trace { label, value } => {
                self.record(Some(pid), TraceKind::Custom { label, value });
                self.resume_first(pid, Grant::Unit);
            }
            Request::Exit => {
                let slot = &mut self.procs[pid.0 as usize];
                slot.state = PState::Done;
                let name = slot.name.clone();
                self.completed.push(name.clone());
                self.record(Some(pid), TraceKind::ProcExit { name });
                self.rec.track_end(pid.0, self.now);
            }
            Request::Panic(msg) => {
                let slot = &mut self.procs[pid.0 as usize];
                slot.state = PState::Failed;
                let name = slot.name.clone();
                self.failed.push((name.to_string(), msg.clone()));
                self.record(Some(pid), TraceKind::ProcFail { name, message: msg });
                self.rec.track_end(pid.0, self.now);
            }
        }
    }

    fn alloc_cpu(&mut self, host: usize, pid: ProcId, flops: f64) {
        let action = CpuAction {
            host,
            pid,
            remaining: flops,
            rate: 0.0,
            gen: 0,
            ev: NO_HANDLE,
            due: f64::INFINITY,
        };
        let id = match self.free_cpu.pop() {
            Some(i) => {
                self.cpu[i as usize] = Some(action);
                i as usize
            }
            None => {
                self.cpu.push(Some(action));
                self.cpu.len() - 1
            }
        };
        self.host_actions[host].push(id as u32);
        self.mark_host_dirty(host);
    }

    fn do_send(
        &mut self,
        pid: ProcId,
        key: MailKey,
        dst: HostId,
        bytes: f64,
        payload: Payload,
        mode: SendMode,
    ) {
        let src = self.procs[pid.0 as usize].host;
        match mode {
            SendMode::Eager => {
                self.start_flow(src, dst, bytes, Some(payload), OnDone::Deliver { key });
                self.resume_first(pid, Grant::Unit);
            }
            SendMode::Rendezvous => {
                let waiting = self.pop_alive_waiting(key);
                match waiting {
                    Some(recv) => {
                        // Deliver to the receiver's actual host (robust if a
                        // logical destination was remapped by swapping).
                        let rdst = self.procs[recv.0 as usize].host;
                        self.start_flow(
                            src,
                            rdst,
                            bytes,
                            Some(payload),
                            OnDone::Rendezvous { recv, send: pid },
                        );
                    }
                    None => {
                        self.mailboxes
                            .get_or_insert(key)
                            .queued_sync
                            .push_back(QueuedSend {
                                sender: pid,
                                src,
                                bytes,
                                payload,
                            });
                    }
                }
            }
        }
    }

    /// Pop the first still-alive waiting receiver on a mailbox, discarding
    /// any that died with their host. Releases the mailbox if that leaves
    /// it empty.
    fn pop_alive_waiting(&mut self, key: MailKey) -> Option<ProcId> {
        let mb = self.mailboxes.get_mut(key)?;
        let mut found = None;
        while let Some(r) = mb.waiting.pop_front() {
            if self.procs[r.0 as usize].state == PState::Alive {
                found = Some(r);
                break;
            }
        }
        self.mailboxes.release_if_empty(key);
        found
    }

    fn do_recv(&mut self, pid: ProcId, key: MailKey) {
        if let Some(mb) = self.mailboxes.get_mut(key) {
            if let Some(p) = mb.arrived.pop_front() {
                self.mailboxes.release_if_empty(key);
                self.resume_first(pid, Grant::Payload(p));
                return;
            }
            if let Some(qs) = mb.queued_sync.pop_front() {
                self.mailboxes.release_if_empty(key);
                let dst = self.procs[pid.0 as usize].host;
                self.start_flow(
                    qs.src,
                    dst,
                    qs.bytes,
                    Some(qs.payload),
                    OnDone::Rendezvous {
                        recv: pid,
                        send: qs.sender,
                    },
                );
                return;
            }
        }
        self.mailboxes.get_or_insert(key).waiting.push_back(pid);
    }

    /// Intern the route for a host pair. Every same-host transfer
    /// grid-wide takes the empty route 0, reserved in [`Engine::new`]
    /// with `Grid::route_static`'s same-host latency `+0.0`. Hosts have
    /// private NIC uplinks, so two non-empty routes share their links
    /// only when they join the same host pair: one id per ordered pair is
    /// exactly the route class [`Self::solve_component`] groups by. A new
    /// pair appends its links straight to the shared arena.
    fn route_id(&mut self, src: HostId, dst: HostId) -> u32 {
        if src == dst {
            return 0;
        }
        if let Some(&id) = self.route_ids.get(&(src.0, dst.0)) {
            return id;
        }
        let id = self.routes_tbl.len() as u32;
        let start = self.route_arena.len() as u32;
        self.route_arena
            .extend(self.grid.route_links(src, dst).map(|l| l.0));
        self.routes_tbl.push(RouteEntry {
            start,
            len: self.route_arena.len() as u32 - start,
            latency: self.grid.route_static(src, dst).1,
        });
        self.route_ids.insert((src.0, dst.0), id);
        id
    }

    fn start_flow(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: f64,
        payload: Option<Payload>,
        on_done: OnDone,
    ) {
        let rid = self.route_id(src, dst);
        let latency = self.routes_tbl[rid as usize].latency;
        let flow = Flow {
            route: rid,
            size: bytes.max(0.0),
            remaining: bytes.max(0.0),
            rate: 0.0,
            gen: 0,
            active: false,
            act_idx: u32::MAX,
            ev: NO_HANDLE,
            due: f64::INFINITY,
            payload,
            on_done,
        };
        let id = match self.free_flows.pop() {
            Some(i) => {
                self.flows[i as usize] = Some(flow);
                i as usize
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        let t = self.now + latency;
        self.push_event(t, EventKind::FlowActivate { id });
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    /// Apply a popped event. `CpuDone`/`FlowDone` staleness was already
    /// checked by the run loop; the generations seen here are live.
    fn apply_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(pid) => {
                let name = self.procs[pid.0 as usize].name.clone();
                self.record(Some(pid), TraceKind::ProcStart { name });
                self.rec.track_start(pid.0, self.now);
                self.resume(pid, Grant::Unit);
            }
            EventKind::SleepDone(pid) => self.resume(pid, Grant::Unit),
            EventKind::CpuDone { id, .. } => {
                let a = self.cpu[id].take().expect("validated by run loop");
                let ha = &mut self.host_actions[a.host];
                let pos = ha
                    .iter()
                    .position(|&x| x == id as u32)
                    .expect("action indexed on its host");
                ha.swap_remove(pos);
                self.free_cpu.push(id as u32);
                self.mark_host_dirty(a.host);
                self.resume(a.pid, Grant::Unit);
                self.recompute();
            }
            EventKind::FlowActivate { id } => {
                let f = self.flows[id].as_mut().expect("flow exists at activate");
                f.active = true;
                let route = f.route as usize;
                let instant = self.routes_tbl[route].len == 0 || f.remaining <= 0.0;
                if instant {
                    self.finish_flow(id);
                } else {
                    let f = self.flows[id].as_mut().expect("flow exists at activate");
                    f.act_idx = self.active_flows.len() as u32;
                    self.active_flows.push(id as u32);
                    for k in self.routes_tbl[route].span() {
                        let l = self.route_arena[k] as usize;
                        self.link_flows[l].push(id as u32);
                        if !self.dirty_link_mark.contains(l) {
                            self.dirty_link_mark.set(l, 0);
                            self.dirty_links.push(l as u32);
                        }
                    }
                    self.recompute();
                }
            }
            EventKind::FlowDone { id, .. } => {
                let (route, act_idx, size) = {
                    let f = self.flows[id].as_ref().expect("validated by run loop");
                    (f.route as usize, f.act_idx as usize, f.size)
                };
                for k in self.routes_tbl[route].span() {
                    let l = self.route_arena[k] as usize;
                    // The whole transfer is credited at completion; the
                    // accrual sweep no longer touches link counters.
                    self.link_bytes[l] += size;
                    let v = &mut self.link_flows[l];
                    let pos = v
                        .iter()
                        .position(|&x| x == id as u32)
                        .expect("flow indexed on its links");
                    v.swap_remove(pos);
                    if !self.dirty_link_mark.contains(l) {
                        self.dirty_link_mark.set(l, 0);
                        self.dirty_links.push(l as u32);
                    }
                }
                self.active_flows.swap_remove(act_idx);
                if let Some(&moved) = self.active_flows.get(act_idx) {
                    self.flows[moved as usize]
                        .as_mut()
                        .expect("active flow indexed")
                        .act_idx = act_idx as u32;
                }
                self.finish_flow(id);
                self.recompute();
            }
            EventKind::HostFail { host } => {
                let h = host.0 as usize;
                self.host_alive[h] = false;
                self.host_load[h] = 0.0;
                // Kill every process on the host and drop its CPU actions.
                let pids: Vec<ProcId> = self
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.host == host && p.state == PState::Alive)
                    .map(|(i, _)| ProcId(i as u32))
                    .collect();
                for pid in &pids {
                    self.procs[pid.0 as usize].state = PState::Died;
                    self.rec.track_end(pid.0, self.now);
                }
                let ids = std::mem::take(&mut self.host_actions[h]);
                for &idu in &ids {
                    let a = self.cpu[idu as usize]
                        .take()
                        .expect("action live on failed host");
                    if a.gen != 0 && a.rate > 0.0 {
                        let mut ev = a.ev;
                        Self::cancel_ev(&mut self.events, &mut ev);
                    }
                    self.free_cpu.push(idu);
                }
                // Drop queued resumptions for dead processes.
                self.runnable
                    .retain(|(pid, _)| self.procs[pid.0 as usize].state == PState::Alive);
                self.record(None, TraceKind::HostFail { host });
                self.mark_host_dirty(h);
                self.recompute();
            }
            EventKind::LoadOn { host, amount } => {
                self.host_load[host.0 as usize] += amount;
                let total = self.host_load[host.0 as usize];
                self.record(None, TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
            }
            EventKind::LoadOff { host, amount } => {
                let l = &mut self.host_load[host.0 as usize];
                *l = (*l - amount).max(0.0);
                let total = *l;
                self.record(None, TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
            }
        }
    }

    fn finish_flow(&mut self, id: usize) {
        let f = self.flows[id].take().expect("flow exists at completion");
        self.free_flows.push(id as u32);
        match f.on_done {
            OnDone::Wake(pid) => self.resume(pid, Grant::Unit),
            OnDone::Deliver { key } => {
                let payload = f.payload.expect("eager flow carries a payload");
                if let Some(r) = self.pop_alive_waiting(key) {
                    self.resume(r, Grant::Payload(payload));
                } else {
                    self.mailboxes.get_or_insert(key).arrived.push_back(payload);
                }
            }
            OnDone::Rendezvous { recv, send } => {
                let payload = f.payload.expect("rendezvous flow carries a payload");
                self.resume(recv, Grant::Payload(payload));
                self.resume(send, Grant::Unit);
            }
        }
    }
}

/// Hands the engine's growable storage back to this thread's slot,
/// whether it ran or not. None of it is a result: `finish` moves
/// `host_flops`, `link_bytes` and the trace into the [`RunReport`].
impl Drop for Engine {
    fn drop(&mut self) {
        use std::mem::take;
        Storage {
            events: take(&mut self.events),
            cpu: take(&mut self.cpu),
            flows: take(&mut self.flows),
            free_cpu: take(&mut self.free_cpu),
            free_flows: take(&mut self.free_flows),
            active_flows: take(&mut self.active_flows),
            host_actions: take(&mut self.host_actions),
            link_flows: take(&mut self.link_flows),
            mailboxes: take(&mut self.mailboxes),
            routes_tbl: take(&mut self.routes_tbl),
            route_arena: take(&mut self.route_arena),
            route_ids: take(&mut self.route_ids),
            runnable: take(&mut self.runnable),
            dirty_hosts: take(&mut self.dirty_hosts),
            dirty_links: take(&mut self.dirty_links),
            dirty_host_mark: take(&mut self.dirty_host_mark),
            dirty_link_mark: take(&mut self.dirty_link_mark),
            scratch: take(&mut self.scratch),
        }
        .recycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::mail_key;
    use crate::topology::{GridBuilder, HostSpec};

    fn one_host_grid(speed: f64) -> (Grid, HostId) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(c, 1, &HostSpec::with_speed(speed));
        (b.build().unwrap(), hs[0])
    }

    fn two_host_grid() -> (Grid, HostId, HostId) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        b.local_link(c, 1e6, 0.01);
        let hs = b.add_hosts(c, 2, &HostSpec::with_speed(100.0));
        (b.build().unwrap(), hs[0], hs[1])
    }

    #[test]
    fn a_sub_ulp_live_residual_lands_one_ulp_after_now() {
        // A flow left with 1.9e-13 B at 5e7 B/s at now = 1.157e-4 s: the
        // quotient (3.8e-21 s) is under half an ulp of now (2^-66 s).
        let (now, remaining, rate) = (1.157e-4, 1.9e-13, 5e7);
        assert_eq!(
            now + remaining / rate,
            now,
            "the plain sum rounds back to now"
        );
        assert_eq!(due_at(now, remaining, rate), now.next_up());
        // Finished work stays at now; anything the sum resolves is kept.
        assert_eq!(due_at(now, 0.0, rate), now);
        assert_eq!(due_at(now, 1e-6, rate), now + 1e-6 / rate);
        assert_eq!(due_at(1.0, 1.0, 2.0), 1.5);
    }

    #[test]
    fn compute_takes_flops_over_speed() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.spawn("w", h, |ctx| {
            ctx.compute(250.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 2.5).abs() < 1e-9);
        assert_eq!(r.completed, vec!["w".to_string()]);
        assert!(r.unfinished.is_empty());
    }

    #[test]
    fn two_actions_share_single_core() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        for i in 0..2 {
            eng.spawn(&format!("w{i}"), h, |ctx| {
                ctx.compute(100.0);
                let t = ctx.now();
                ctx.trace("t", t);
            });
        }
        let r = eng.run();
        for (_, v) in r.trace.series("t") {
            assert!((v - 2.0).abs() < 1e-9, "expected 2.0, got {v}");
        }
    }

    #[test]
    fn injected_load_halves_rate() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.add_load_window(h, 0.0, None, 1.0);
        eng.spawn("w", h, |ctx| {
            ctx.compute(100.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn load_window_ends() {
        // 1s at half speed (50 flops done), then full speed for the other 50.
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.add_load_window(h, 0.0, Some(1.0), 1.0);
        eng.spawn("w", h, |ctx| {
            ctx.compute(100.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn dual_core_absorbs_competitor() {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(
            c,
            1,
            &HostSpec {
                speed: 100.0,
                cores: 2,
                ..Default::default()
            },
        );
        let g = b.build().unwrap();
        let mut eng = Engine::new(g);
        eng.add_load_window(hs[0], 0.0, None, 1.0);
        eng.spawn("w", hs[0], |ctx| {
            ctx.compute(100.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn message_timing_includes_latency_and_bandwidth() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[1]);
        eng.spawn("recv", bhost, move |ctx| {
            let p = ctx.recv(key);
            let v = *p.downcast::<u64>().unwrap();
            let t = ctx.now();
            ctx.trace("rt", t);
            ctx.trace("val", v as f64);
        });
        eng.spawn("send", a, move |ctx| {
            ctx.send(key, bhost, 1e6, Box::new(42u64));
            let t = ctx.now();
            ctx.trace("st", t);
        });
        let r = eng.run();
        // Route: two 1 MB/s uplinks, 10 ms each. Latency 0.02 + 1.0 s data.
        let rt = r.trace.last_value("rt").unwrap();
        assert!((rt - 1.02).abs() < 1e-6, "rt = {rt}");
        let st = r.trace.last_value("st").unwrap();
        assert!(
            (st - 1.02).abs() < 1e-6,
            "sender blocked until delivery: {st}"
        );
        assert_eq!(r.trace.last_value("val").unwrap(), 42.0);
    }

    #[test]
    fn eager_send_does_not_block() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[2]);
        eng.spawn("send", a, move |ctx| {
            ctx.isend(key, bhost, 1e6, Box::new(1u8));
            let t = ctx.now();
            ctx.trace("st", t);
        });
        eng.spawn("recv", bhost, move |ctx| {
            ctx.sleep(5.0);
            let _ = ctx.recv(key);
            let t = ctx.now();
            ctx.trace("rt", t);
        });
        let r = eng.run();
        assert!(r.trace.last_value("st").unwrap() < 1e-9);
        // Flow completed at ~1.02 s; receiver picks it up at t=5 instantly.
        assert!((r.trace.last_value("rt").unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[3]);
        eng.spawn("send", a, move |ctx| {
            ctx.send(key, bhost, 1e6, Box::new(1u8));
            let t = ctx.now();
            ctx.trace("st", t);
        });
        eng.spawn("recv", bhost, move |ctx| {
            ctx.sleep(5.0);
            let _ = ctx.recv(key);
            let t = ctx.now();
            ctx.trace("rt", t);
        });
        let r = eng.run();
        // Transfer starts at t=5 when the receive is posted.
        assert!((r.trace.last_value("rt").unwrap() - 6.02).abs() < 1e-6);
        assert!((r.trace.last_value("st").unwrap() - 6.02).abs() < 1e-6);
    }

    #[test]
    fn same_host_message_is_instant() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        let key = mail_key(&[4]);
        eng.spawn("recv", h, move |ctx| {
            let _ = ctx.recv(key);
            let t = ctx.now();
            ctx.trace("rt", t);
        });
        eng.spawn("send", h, move |ctx| {
            ctx.send(key, h, 1e9, Box::new(0u8));
        });
        let r = eng.run();
        assert!(r.trace.last_value("rt").unwrap() < 1e-9);
    }

    #[test]
    fn concurrent_flows_share_bandwidth() {
        // Two flows from a to b: each uplink carries both, so each gets half.
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        for i in 0..2u64 {
            let key = mail_key(&[10 + i]);
            eng.spawn(&format!("r{i}"), bhost, move |ctx| {
                let _ = ctx.recv(key);
                let t = ctx.now();
                ctx.trace("rt", t);
            });
            eng.spawn(&format!("s{i}"), a, move |ctx| {
                ctx.isend(key, bhost, 1e6, Box::new(0u8));
            });
        }
        let r = eng.run();
        for (_, v) in r.trace.series("rt") {
            assert!((v - 2.02).abs() < 1e-3, "expected ~2.02, got {v}");
        }
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[20]);
        eng.spawn("poll", bhost, move |ctx| {
            assert!(ctx.try_recv(key).is_none());
            ctx.sleep(3.0);
            let got = ctx.try_recv(key).is_some();
            ctx.trace("got", if got { 1.0 } else { 0.0 });
        });
        eng.spawn("send", a, move |ctx| {
            ctx.isend(key, bhost, 1e6, Box::new(0u8));
        });
        let r = eng.run();
        assert_eq!(r.trace.last_value("got").unwrap(), 1.0);
    }

    #[test]
    fn transfer_blocks_for_duration() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.spawn("w", a, move |ctx| {
            ctx.transfer(bhost, 2e6);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 2.02).abs() < 1e-6);
    }

    #[test]
    fn runtime_spawn_and_load_injection() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.spawn("driver", h, move |ctx| {
            ctx.spawn("child", h, |cctx| {
                cctx.compute(100.0);
                let t = cctx.now();
                cctx.trace("child_done", t);
            });
            ctx.sleep(0.5);
            ctx.inject_load(h, 1.0);
        });
        let r = eng.run();
        // Child: 0.5 s at full speed (50 flops), then 50 flops at half
        // speed = 1.0 s more -> 1.5 s total.
        assert!((r.trace.last_value("child_done").unwrap() - 1.5).abs() < 1e-9);
        assert!(r.completed.contains(&"child".to_string()));
    }

    #[test]
    fn deadlocked_process_reported_and_killed() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        let key = mail_key(&[99]);
        eng.spawn("stuck", h, move |ctx| {
            let _ = ctx.recv(key); // nobody ever sends
        });
        let r = eng.run();
        assert_eq!(r.unfinished, vec!["stuck".to_string()]);
        assert!(r.completed.is_empty());
    }

    #[test]
    fn run_until_cuts_off() {
        let (g, h) = one_host_grid(1.0);
        let mut eng = Engine::new(g);
        eng.spawn("slow", h, |ctx| {
            ctx.compute(1e9);
        });
        let r = eng.run_until(10.0);
        assert!(r.end_time <= 10.0);
        assert_eq!(r.unfinished, vec!["slow".to_string()]);
    }

    #[test]
    fn process_panic_is_reported() {
        let (g, h) = one_host_grid(1.0);
        let mut eng = Engine::new(g);
        eng.panic_on_failure = false;
        eng.spawn("bad", h, |_ctx| {
            panic!("boom");
        });
        let r = eng.run();
        assert_eq!(r.failed.len(), 1);
        assert_eq!(r.failed[0].0, "bad");
        assert!(r.failed[0].1.contains("boom"));
    }

    /// Run `f` on host `a` of [`two_host_grid`] next to a receiver on
    /// host `b` that takes `msgs` eager messages, batched or on the
    /// unbatched oracle.
    fn queued_then_ends(
        unbatched: bool,
        msgs: u64,
        f: impl FnOnce(&mut Ctx, HostId) + Send + 'static,
    ) -> RunReport {
        let (g, a, b) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.set_unbatched_oracle(unbatched);
        eng.panic_on_failure = false;
        eng.spawn("src", a, move |ctx| f(ctx, b));
        eng.spawn("dst", b, move |ctx| {
            for i in 0..msgs {
                let _ = ctx.recv(mail_key(&[9, i]));
                let t = ctx.now();
                ctx.trace("got", t);
            }
        });
        eng.run()
    }

    /// Index of the first trace record matching `f`.
    fn position(r: &RunReport, f: impl Fn(&TraceKind) -> bool) -> usize {
        r.trace
            .records
            .iter()
            .position(|rec| f(&rec.kind))
            .expect("record present")
    }

    fn custom(l: &'static str) -> impl Fn(&TraceKind) -> bool {
        move |k| matches!(k, TraceKind::Custom { label, .. } if &**label == l)
    }

    #[test]
    fn queued_requests_apply_before_a_panic() {
        let script = |ctx: &mut Ctx, b: HostId| {
            ctx.compute(10.0);
            ctx.isend(mail_key(&[9, 0]), b, 1e4, Box::new(()));
            ctx.trace("x", 1.0);
            ctx.inject_load(b, 0.5);
            ctx.isend(mail_key(&[9, 1]), b, 2e4, Box::new(()));
            ctx.trace("y", 2.0);
            panic!("boom");
        };
        let direct = queued_then_ends(false, 2, script);
        let unbatched = queued_then_ends(true, 2, script);
        assert_eq!(direct, unbatched, "batched and unbatched runs differ");
        assert_eq!(direct.failed.len(), 1);
        assert_eq!(direct.completed, vec!["dst".to_string()]);
        assert_eq!(direct.trace.series("got").len(), 2, "both flows delivered");
        assert!(direct.link_bytes.iter().sum::<f64>() > 0.0);
        let x = position(&direct, custom("x"));
        let load = position(&direct, |k| matches!(k, TraceKind::LoadChange { .. }));
        let y = position(&direct, custom("y"));
        let fail = position(&direct, |k| matches!(k, TraceKind::ProcFail { .. }));
        assert!(
            x < load && load < y && y < fail,
            "order {x} {load} {y} {fail}"
        );
        // All of it at the panic's instant, after the compute.
        assert_eq!(direct.trace.records[fail].t, 0.1);
        assert_eq!(direct.trace.records[x].t, 0.1);
    }

    #[test]
    fn exit_with_a_full_outbox_applies_every_request() {
        // More queued requests than the outbox holds, then a plain return:
        // one full-outbox round trip, then the rest ride with `Exit`.
        let n = crate::handoff::OUTBOX_CAP as u64 + 5;
        let script = move |ctx: &mut Ctx, b: HostId| {
            for i in 0..n {
                ctx.isend(mail_key(&[9, i]), b, 1e3 * (i + 1) as f64, Box::new(()));
                ctx.trace("sent", i as f64);
            }
        };
        let direct = queued_then_ends(false, n, script);
        let unbatched = queued_then_ends(true, n, script);
        assert_eq!(direct, unbatched, "batched and unbatched runs differ");
        assert_eq!(direct.completed.len(), 2);
        assert_eq!(direct.trace.series("sent").len(), n as usize);
        assert_eq!(direct.trace.series("got").len(), n as usize);
        let sent = custom("sent");
        let last_sent = direct
            .trace
            .records
            .iter()
            .rposition(|r| sent(&r.kind))
            .unwrap();
        let exit = position(
            &direct,
            |k| matches!(k, TraceKind::ProcExit { name } if &**name == "src"),
        );
        assert!(last_sent < exit);
    }

    #[test]
    fn host_failure_kills_processes() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.fail_host_at(a, 1.0);
        eng.spawn("victim", a, |ctx| {
            ctx.compute(1e9); // 10 s of work: dies mid-flight
            ctx.trace("never", 1.0);
        });
        eng.spawn("survivor", bhost, |ctx| {
            ctx.compute(200.0); // 2 s
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert_eq!(r.died, vec!["victim".to_string()]);
        assert!(r.trace.series("never").is_empty());
        assert!((r.trace.last_value("t").unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(r.completed, vec!["survivor".to_string()]);
    }

    #[test]
    fn spawn_on_dead_host_dies_immediately() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.fail_host_at(a, 0.5);
        eng.spawn("spawner", bhost, move |ctx| {
            ctx.sleep(1.0);
            ctx.spawn("late", a, |c| {
                c.trace("late_ran", 1.0);
            });
            ctx.sleep(1.0);
        });
        let r = eng.run();
        assert!(r.trace.series("late_ran").is_empty());
        assert!(r.died.contains(&"late".to_string()));
    }

    #[test]
    fn receiver_death_leaves_sender_blocked() {
        // A rendezvous send to a process that died waiting: the sender
        // blocks forever (like MPI on peer failure) and is reported
        // unfinished.
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[77]);
        eng.fail_host_at(bhost, 0.5);
        eng.spawn("recv", bhost, move |ctx| {
            let _ = ctx.recv(key);
        });
        eng.spawn("send", a, move |ctx| {
            ctx.sleep(1.0);
            ctx.send(key, bhost, 1e6, Box::new(1u8));
            ctx.trace("sent", 1.0);
        });
        let r = eng.run();
        assert!(r.died.contains(&"recv".to_string()));
        assert!(r.trace.series("sent").is_empty());
        assert_eq!(r.unfinished, vec!["send".to_string()]);
    }

    #[test]
    fn utilization_accounting() {
        let (g, h) = one_host_grid(100.0);
        let grid = g.clone();
        let mut eng = Engine::new(g);
        eng.spawn("w", h, |ctx| {
            ctx.compute(500.0); // 5 s of the run
            ctx.sleep(5.0); // idle 5 s
        });
        let r = eng.run();
        assert!((r.host_flops[0] - 500.0).abs() < 1e-6);
        assert!((r.host_utilization(&grid, h) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn multicore_utilization_normalizes_by_cores() {
        // Two actions on a dual-core host both run at full single-core
        // speed; the host is fully busy, so utilization is 1.0 (the old
        // single-core normalization wrongly reported 2.0).
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(
            c,
            1,
            &HostSpec {
                speed: 100.0,
                cores: 2,
                ..Default::default()
            },
        );
        let g = b.build().unwrap();
        let grid = g.clone();
        let mut eng = Engine::new(g);
        for i in 0..2 {
            eng.spawn(&format!("w{i}"), hs[0], |ctx| {
                ctx.compute(200.0); // 2 s at one core each
            });
        }
        let r = eng.run();
        assert!((r.host_flops[0] - 400.0).abs() < 1e-6);
        assert!((r.host_utilization(&grid, hs[0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn link_byte_accounting() {
        let (g, a, bhost) = two_host_grid();
        let grid = g.clone();
        let mut eng = Engine::new(g);
        eng.spawn("w", a, move |ctx| {
            ctx.transfer(bhost, 2e6);
        });
        let r = eng.run();
        let route = grid.route(a, bhost);
        for &l in &route.links {
            assert!(
                (r.link_bytes[l.0 as usize] - 2e6).abs() < 1.0,
                "link {l:?}: {}",
                r.link_bytes[l.0 as usize]
            );
        }
        // A link not on the route carried nothing.
        let other = grid.host(bhost).uplink_tx;
        assert_eq!(r.link_bytes[other.0 as usize], 0.0);
    }

    #[test]
    fn determinism_same_seedless_run_twice() {
        let build = || {
            let (g, a, bhost) = two_host_grid();
            let mut eng = Engine::new(g);
            for i in 0..4u64 {
                let key = mail_key(&[i]);
                eng.spawn(&format!("r{i}"), bhost, move |ctx| {
                    let _ = ctx.recv(key);
                    ctx.compute(50.0 * (i + 1) as f64);
                    let t = ctx.now();
                    ctx.trace("done", t);
                });
                eng.spawn(&format!("s{i}"), a, move |ctx| {
                    ctx.sleep(0.1 * i as f64);
                    ctx.send(key, bhost, 1e5 * (i + 1) as f64, Box::new(i));
                });
            }
            eng.run()
        };
        let r1 = build();
        let r2 = build();
        let s1 = r1.trace.series("done");
        let s2 = r2.trace.series("done");
        assert_eq!(s1.len(), s2.len());
        for (x, y) in s1.iter().zip(&s2) {
            assert_eq!(x, y);
        }
    }

    /// Run a small mixed compute/communication scenario, scoped or on the
    /// full-recompute oracle.
    fn mode_scenario(full: bool) -> RunReport {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.set_full_recompute_oracle(full);
        eng.add_load_window(a, 0.3, Some(1.1), 1.0);
        for i in 0..3u64 {
            let key = mail_key(&[40 + i]);
            eng.spawn(&format!("r{i}"), bhost, move |ctx| {
                let _ = ctx.recv(key);
                ctx.compute(80.0 * (i + 1) as f64);
                let t = ctx.now();
                ctx.trace("done", t);
            });
            eng.spawn(&format!("s{i}"), a, move |ctx| {
                ctx.compute(30.0 * (i + 1) as f64);
                ctx.send(key, bhost, 2e5 * (i + 1) as f64, Box::new(i));
            });
        }
        eng.run()
    }

    #[test]
    fn incremental_matches_full_bitwise() {
        let inc = mode_scenario(false);
        let full = mode_scenario(true);
        assert_eq!(inc, full);
    }

    /// Three clusters over WAN links, cross-cluster message rings, local
    /// contention, external load churn and a host failure — every event
    /// class the kernel applies, with the eager-recompute oracle
    /// selectable.
    fn cross_cluster_scenario_timed(eager_oracle: bool) -> RunReport {
        let mut b = GridBuilder::new();
        let mut all_hosts = Vec::new();
        let mut clusters = Vec::new();
        for name in ["A", "B", "C"] {
            let c = b.cluster(name);
            b.local_link(c, 1e8, 1e-4);
            all_hosts.push(b.add_hosts(c, 3, &HostSpec::with_speed(100.0)));
            clusters.push(c);
        }
        b.connect(clusters[0], clusters[1], 1e7, 0.02);
        b.connect(clusters[1], clusters[2], 2e7, 0.035);
        b.connect(clusters[0], clusters[2], 5e6, 0.05);
        let grid = b.build().unwrap();
        let mut eng = Engine::new(grid);
        eng.set_eager_recompute_oracle(eager_oracle);
        // Cross-cluster ring: each hop computes then forwards.
        for ring in 0..3u64 {
            // Host index stays in {0, 1}: index 2 of cluster C is the
            // fault-injection victim below.
            let path: Vec<HostId> = (0..3)
                .map(|c| all_hosts[(c + ring as usize) % 3][(ring as usize + c) % 2])
                .collect();
            let key0 = mail_key(&[ring, 0]);
            let key1 = mail_key(&[ring, 1]);
            let h1 = path[1];
            let h2 = path[2];
            eng.spawn(&format!("src{ring}"), path[0], move |ctx| {
                ctx.compute(150.0 + 10.0 * ring as f64);
                ctx.send(key0, h1, 2e5, Box::new(ring));
            });
            eng.spawn(&format!("mid{ring}"), path[1], move |ctx| {
                let v = ctx.recv(key0);
                ctx.compute(80.0);
                ctx.send(key1, h2, 3e5, Box::new(v));
            });
            eng.spawn(&format!("dst{ring}"), path[2], move |ctx| {
                let _ = ctx.recv(key1);
                ctx.compute(40.0);
                let t = ctx.now();
                ctx.trace("ring_done", t);
            });
        }
        // Local contention plus load churn in cluster B.
        for i in 0..4u64 {
            eng.spawn(&format!("local{i}"), all_hosts[1][i as usize % 3], |ctx| {
                for _ in 0..3 {
                    ctx.compute(60.0);
                    ctx.sleep(0.5);
                }
            });
        }
        eng.add_load_window(all_hosts[1][0], 1.0, Some(4.0), 1.5);
        eng.add_load_window(all_hosts[2][1], 0.5, None, 0.7);
        // Fault injection in cluster C: one victim mid-run.
        eng.spawn("victim", all_hosts[2][2], |ctx| {
            ctx.compute(1e9);
        });
        eng.fail_host_at(all_hosts[2][2], 2.5);
        eng.panic_on_failure = false;
        eng.run_until(500.0)
    }

    /// Coalesced timing is a pure scheduling change: on the mixed
    /// cross-cluster scenario (WAN flows, load windows, a host failure) the
    /// run report matches the eager oracle bit for bit. Unit level of the
    /// three-level pin (property: `tests/prop_coalesced.rs`, e2e:
    /// `tests/substrate_determinism.rs`).
    #[test]
    fn coalesced_recompute_matches_eager_bitwise() {
        let eager = cross_cluster_scenario_timed(true);
        let coalesced = cross_cluster_scenario_timed(false);
        assert!(
            coalesced.trace.series("ring_done").len() == 3,
            "scenario exercises all rings"
        );
        assert_eq!(eager, coalesced);
    }

    /// Coalescing actually coalesces: a same-instant send burst (one
    /// process issuing several non-blocking sends back to back) runs fewer
    /// rate solves than churn notifications on a default engine, while the
    /// eager oracle runs exactly one solve per churn. Both see the same churn count — `sim.recomputes`
    /// is a property of the scenario, not of the timing.
    #[test]
    fn coalescing_reduces_solves_on_same_instant_bursts() {
        let run = |eager_oracle: bool| {
            let (g, h0, h1) = two_host_grid();
            let mut eng = Engine::new(g);
            eng.set_eager_recompute_oracle(eager_oracle);
            let obs = grads_obs::Obs::enabled();
            eng.set_obs(obs.clone());
            for i in 0..4u64 {
                let key = mail_key(&[i]);
                eng.spawn(&format!("s{i}"), h0, move |ctx| {
                    ctx.isend(key, h1, 1e5, Box::new(i));
                });
                eng.spawn(&format!("r{i}"), h1, move |ctx| {
                    let _ = ctx.recv(key);
                });
            }
            let report = eng.run();
            let snap = obs.snapshot();
            (
                report,
                snap.counter("sim.recomputes").unwrap_or(0),
                snap.counter("sim.recompute.solves").unwrap_or(0),
                snap.counter("sim.recompute.coalesced").unwrap_or(0),
            )
        };
        let (re, churn_e, solves_e, absorbed_e) = run(true);
        let (rc, churn_c, solves_c, absorbed_c) = run(false);
        assert_eq!(re, rc, "burst reports must be bit-identical");
        assert_eq!(churn_e, churn_c, "churn count is timing-invariant");
        assert_eq!(solves_e, churn_e, "eager solves once per churn");
        assert_eq!(absorbed_e, 0, "eager absorbs nothing");
        assert!(
            solves_c < solves_e,
            "coalescing must absorb same-instant churn: {solves_c} vs {solves_e}"
        );
        assert_eq!(
            solves_c + absorbed_c,
            churn_c,
            "every churn is either solved or absorbed"
        );
    }

    /// Route interning keys by host pair: one id per ordered pair, the
    /// reserved empty route 0 for every same-host pair, and, because hosts
    /// have private NIC uplinks, distinct ids exactly for distinct link
    /// lists: one id per pair is one route class per physical path.
    #[test]
    fn route_interning_keys_by_host_pair() {
        let mut b = GridBuilder::new();
        let c0 = b.cluster("A");
        b.local_link(c0, 1e8, 1e-4);
        let ha = b.add_hosts(c0, 3, &HostSpec::with_speed(100.0));
        let c1 = b.cluster("B");
        b.local_link(c1, 1e8, 1e-4);
        let hb = b.add_hosts(c1, 3, &HostSpec::with_speed(100.0));
        b.connect(c0, c1, 1e7, 0.02);
        let grid = b.build().unwrap();
        let mut eng = Engine::new(grid.clone());
        let hosts: Vec<HostId> = ha.iter().chain(&hb).copied().collect();
        let mut seen: HashMap<Vec<u32>, u32> = HashMap::new();
        for &s in &hosts {
            for &d in &hosts {
                let id = eng.route_id(s, d);
                assert_eq!(id, eng.route_id(s, d), "one id per pair");
                let r = eng.routes_tbl[id as usize];
                let links: Vec<u32> = grid.route_links(s, d).map(|l| l.0).collect();
                assert_eq!(eng.route_arena[r.span()], links[..]);
                let latency = grid.route_static(s, d).1;
                assert_eq!(r.latency.to_bits(), latency.to_bits());
                if s == d {
                    assert_eq!((id, r.len), (0, 0), "same-host pairs take route 0");
                }
                assert_eq!(
                    *seen.entry(links).or_insert(id),
                    id,
                    "equal links, equal id"
                );
            }
        }
        let n = hosts.len();
        assert_eq!(
            seen.len(),
            n * (n - 1) + 1,
            "distinct pairs, distinct links"
        );
        assert_eq!(eng.routes_tbl.len(), seen.len());
    }

    /// A daemon that sleeps `dt` forever, or panics on step `panic_at`,
    /// counting its steps.
    struct Ticker {
        dt: f64,
        steps: Arc<std::sync::atomic::AtomicU32>,
        panic_at: Option<u32>,
    }

    impl Ticker {
        fn new(dt: f64) -> (Self, Arc<std::sync::atomic::AtomicU32>) {
            let steps = Arc::new(std::sync::atomic::AtomicU32::new(0));
            let t = Ticker {
                dt,
                steps: steps.clone(),
                panic_at: None,
            };
            (t, steps)
        }
    }

    impl Daemon for Ticker {
        fn step(&mut self, _now: f64) -> Step {
            let k = self
                .steps
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            if self.panic_at == Some(k) {
                panic!("ticker broke at step {k}");
            }
            Step::Sleep(self.dt)
        }
    }

    fn steps(c: &std::sync::atomic::AtomicU32) -> u32 {
        c.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn daemon_on_failed_host_dies_and_is_never_stepped_again() {
        let (g, a, b) = two_host_grid();
        let mut eng = Engine::new(g);
        let (t, n) = Ticker::new(1.0);
        eng.spawn_daemon("tick", a, t);
        eng.spawn("other", b, |ctx| ctx.sleep(10.0));
        eng.fail_host_at(a, 2.5);
        let r = eng.run();
        // Steps at t = 0, 1, 2; the wake-up due at 3 finds it dead.
        assert_eq!(steps(&n), 3);
        assert_eq!(r.died, vec!["tick".to_string()]);
        assert_eq!(r.completed, vec!["other".to_string()]);
        assert_eq!(r.end_time, 10.0);
    }

    #[test]
    fn daemon_spawned_on_a_dead_host_dies_at_once() {
        let (g, a, b) = two_host_grid();
        let mut eng = Engine::new(g);
        let (t, n) = Ticker::new(1.0);
        eng.fail_host_at(a, 0.5);
        eng.spawn("spawner", b, move |ctx| {
            ctx.sleep(1.0);
            ctx.spawn_daemon("late", a, t);
            ctx.sleep(1.0);
        });
        let r = eng.run();
        assert_eq!(steps(&n), 0);
        assert_eq!(r.died, vec!["late".to_string()]);
        assert!(r.trace.records.iter().all(|rec| !matches!(
            &rec.kind,
            TraceKind::ProcStart { name } if name.as_ref() == "late"
        )));
    }

    #[test]
    fn cutoff_lists_a_live_daemon_as_unfinished() {
        let (g, h) = one_host_grid(1.0);
        let mut eng = Engine::new(g);
        let (t, n) = Ticker::new(2.0);
        eng.spawn_daemon("tick", h, t);
        // The final `Kill` is a no-op for an inline daemon: it has no
        // stack to unwind.
        let r = eng.run_until(5.0);
        assert_eq!(steps(&n), 3);
        assert_eq!(r.unfinished, vec!["tick".to_string()]);
        assert!(r.completed.is_empty() && r.died.is_empty());
        assert_eq!(r.end_time, 4.0);
    }

    #[test]
    fn daemon_panic_is_reported_without_a_kernel_panic() {
        let (g, a, b) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.panic_on_failure = false;
        let (mut t, n) = Ticker::new(1.0);
        t.panic_at = Some(2);
        eng.spawn_daemon("bad", a, t);
        eng.spawn("ok", b, |ctx| ctx.sleep(5.0));
        let r = eng.run();
        assert_eq!(steps(&n), 2, "a failed daemon is never stepped again");
        assert_eq!(r.failed.len(), 1);
        assert_eq!(r.failed[0].0, "bad");
        assert!(r.failed[0].1.contains("ticker broke at step 2"));
        assert_eq!(r.completed, vec!["ok".to_string()]);
        assert_eq!(r.end_time, 5.0);
    }

    /// Per-kind request tallies on a scenario whose every request is
    /// known: which kinds arrive, and how each reached the kernel (in an
    /// outbox, from a daemon, or over a blocking handoff).
    #[test]
    fn request_counters_tally_every_kind_and_transport() {
        struct ComputeOnce(u8);
        impl Daemon for ComputeOnce {
            fn step(&mut self, _now: f64) -> Step {
                self.0 += 1;
                match self.0 {
                    1 => Step::Compute(50.0),
                    2 => Step::Sleep(1.0),
                    _ => Step::Exit,
                }
            }
        }
        let (g, a, b) = two_host_grid();
        let mut eng = Engine::new(g);
        let obs = grads_obs::Obs::enabled();
        eng.set_obs(obs.clone());
        let (k1, k2) = (mail_key(&[1]), mail_key(&[2]));
        eng.spawn("t", a, move |ctx| {
            ctx.trace("x", 1.0); // outbox
            ctx.compute(10.0); // round trip
            ctx.inject_load(a, 1.0); // outbox
            ctx.remove_load(a, 1.0); // outbox
            ctx.sleep(1.0); // round trip
            ctx.isend(k1, b, 100.0, Box::new(1u8)); // outbox
            ctx.transfer(b, 100.0); // round trip
            ctx.send(k2, b, 10.0, Box::new(2u8)); // round trip
            ctx.spawn("child", a, |_| {}); // round trip
        }); // exit: round trip
        eng.spawn("r", b, move |ctx| {
            let _ = ctx.recv(k1);
            let _ = ctx.recv(k2);
            assert!(ctx.try_recv(k1).is_none());
        }); // three receives and an exit: four round trips
        eng.spawn_daemon("d", b, ComputeOnce(0)); // three inline requests
        let r = eng.run();
        assert_eq!(r.completed.len(), 4);
        let snap = obs.snapshot();
        let c = |n: &str| {
            snap.counter(n)
                .unwrap_or_else(|| panic!("{n} not published"))
        };
        let kinds = [
            ("sim.req.compute", 2),
            ("sim.req.sleep", 2),
            ("sim.req.recv", 3),
            ("sim.req.rendezvous", 1),
            ("sim.req.eager", 1),
            ("sim.req.transfer", 1),
            ("sim.req.trace", 1),
            ("sim.req.load", 2),
            ("sim.req.spawn", 1),
            ("sim.req.exit", 4),
        ];
        for (name, want) in kinds {
            assert_eq!(c(name), want, "{name}");
        }
        assert_eq!(c("sim.req.outboxed"), 4);
        assert_eq!(c("sim.req.inline"), 3);
        // t: 6, r: 4, child: 1.
        assert_eq!(c("sim.req.roundtrips"), 11);
        let total: u64 = kinds.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            total,
            c("sim.req.outboxed") + c("sim.req.inline") + c("sim.req.roundtrips")
        );
    }

    #[test]
    fn request_counters_stay_unpublished_without_obs() {
        let (g, h) = one_host_grid(1.0);
        let mut eng = Engine::new(g);
        let obs = grads_obs::Obs::disabled();
        eng.set_obs(obs.clone());
        eng.spawn_daemon("tick", h, Ticker::new(1.0).0);
        eng.run_until(3.0);
        assert_eq!(obs.snapshot().counter("sim.req.inline"), None);
    }
}
