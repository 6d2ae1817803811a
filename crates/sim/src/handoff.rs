//! Direct kernel ↔ process handoff.
//!
//! The kernel grants execution to exactly one simulated process at a time,
//! so the process ↔ kernel transport is always a strict two-party
//! alternation: the kernel writes one grant, the process runs and writes
//! one request, and so on. The seed implementation paid a central
//! multiplexer for that: every request traveled through one shared
//! `mpsc` channel (heap-allocated node per message, mutex + OS wakeup)
//! and every grant through a second per-process channel (another node,
//! another wakeup).
//!
//! [`HandoffSlot`] replaces the pair with a single-slot rendezvous per
//! process: one atomic state word, two in-place message cells, and
//! spin-then-park waiting. No allocation per call, no multiplexer, and
//! when the peer responds within the spin budget no OS wakeup at all.
//!
//! # Protocol
//!
//! The slot is a three-state machine (`IDLE → REQ → IDLE → GRANT → IDLE`)
//! shared by exactly two threads:
//!
//! * the **process** may write the request cell only in `IDLE` (it just
//!   consumed a grant, or has never run), then publishes `REQ`;
//! * the **kernel** consumes the request (`REQ → IDLE`), handles it, and
//!   eventually writes the grant cell and publishes `GRANT`;
//! * the process consumes the grant (`GRANT → IDLE`) and continues.
//!
//! The one-runnable-process invariant is what makes the two-party slot
//! sufficient: the kernel never issues a grant to a process that is not
//! parked (or about to park) in [`HandoffSlot::wait_grant`], and only the
//! single running process can publish a request, so each cell always has
//! exactly one writer and one reader separated by the Release/Acquire
//! edge on `state`. Determinism is preserved by construction — the
//! transport carries the same messages in the same order as the channel
//! pair, it just carries them faster.
//!
//! # Calls that skip the round trip
//!
//! Two more cells let a process answer some calls without the kernel:
//!
//! * the **clock** holds the kernel's `now`, stamped before every grant.
//!   While the process runs the kernel is parked in
//!   [`HandoffSlot::wait_request`] and its clock cannot move, so
//!   [`HandoffSlot::clock`] is exactly what a `Now` round trip would
//!   return;
//! * the **outbox** queues requests whose only reply is `Grant::Unit`
//!   (eager sends, traces, load changes). The kernel takes it right after
//!   the next request and applies every queued request first, in order,
//!   as if each had been its own round trip: each of them is answered by
//!   an immediate front-of-queue `Unit` that the kernel would have
//!   granted straight back to this process before touching anything
//!   else. At most [`OUTBOX_CAP`] requests wait; the next one goes out as
//!   an ordinary round trip that carries them.
//!
//! Both cells follow the request cell's ownership: the process touches
//! them between consuming a grant and publishing its next request, the
//! kernel between consuming that request and publishing the next grant.

use crate::process::{Grant, Request};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

/// No message in flight; the cell owner may write.
const IDLE: u8 = 0;
/// A request is published for the kernel.
const REQ: u8 = 1;
/// A grant is published for the process.
const GRANT: u8 = 2;

/// Most fire-and-forget requests a process queues in its outbox. The cap
/// bounds the memory a process can park in its slot; a full outbox costs
/// one round trip per [`OUTBOX_CAP`] + 1 requests instead of one each.
pub(crate) const OUTBOX_CAP: usize = 16;

/// How many times to poll the state word before parking the thread. When
/// the peer responds within the budget (the common case on unloaded
/// multicore hosts: the kernel handles most primitives in well under a
/// microsecond) the handoff completes without any OS-level block/wake.
/// Kept modest so oversubscribed runs — e.g. the parallel sweep runner —
/// do not burn cores spinning.
const SPIN: u32 = 384;

/// How many times to `yield_now` before parking on a single-CPU machine.
/// There spinning is pure waste (the peer cannot run while we spin), but
/// yielding hands the core straight to the peer — the only other runnable
/// thread under the one-runnable-process invariant — so the alternation
/// usually completes without any futex sleep/wake at all. Bounded so a
/// genuinely long block (a process parked in `recv` for ages of virtual
/// time) still ends in a proper park.
const YIELDS: u32 = 32;

/// `true` once we know this machine has more than one CPU. Computed once.
/// Shared with the windowed kernel's dispatch gating: concurrency that
/// cannot overlap in hardware is pure overhead.
#[inline]
pub(crate) fn multicore() -> bool {
    use std::sync::atomic::AtomicU8;
    static CACHED: AtomicU8 = AtomicU8::new(0);
    match CACHED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let multi = std::thread::available_parallelism()
                .map(|n| n.get() > 1)
                .unwrap_or(false);
            CACHED.store(if multi { 1 } else { 2 }, Ordering::Relaxed);
            multi
        }
    }
}

/// Pre-park waiting strategy for the direct handoff slot, overriding the
/// machine-derived default. A wait-strategy-only knob: it decides how the
/// waiting side burns the gap until the peer's Release store lands, never
/// what is communicated, so any policy yields bit-identical runs. Exposed
/// so the `sim_hotpath` benchmark can measure spin vs. yield on the same
/// machine (ROADMAP's "spin path unmeasured" note).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitPolicy {
    /// Spin on multicore machines, yield on single-CPU ones (the default).
    #[default]
    Auto,
    /// Always poll the state word in a busy-spin loop before parking.
    Spin,
    /// Always `yield_now` to the peer before parking.
    Yield,
}

/// Process-global wait-policy override (0 = auto, 1 = spin, 2 = yield).
/// Global rather than per-slot because the benchmark compares whole runs;
/// set it before spawning processes.
static WAIT_POLICY: AtomicU8 = AtomicU8::new(0);

/// Select the pre-park waiting strategy for all handoff slots in this
/// process. See [`WaitPolicy`].
pub fn set_wait_policy(p: WaitPolicy) {
    WAIT_POLICY.store(
        match p {
            WaitPolicy::Auto => 0,
            WaitPolicy::Spin => 1,
            WaitPolicy::Yield => 2,
        },
        Ordering::Relaxed,
    );
}

/// The active pre-park waiting strategy.
pub fn wait_policy() -> WaitPolicy {
    match WAIT_POLICY.load(Ordering::Relaxed) {
        1 => WaitPolicy::Spin,
        2 => WaitPolicy::Yield,
        _ => WaitPolicy::Auto,
    }
}

/// Shared handle to the kernel's OS thread, set once when `Engine::run`
/// begins (the engine may be built on a different thread than it runs
/// on). Processes only need it after receiving their first grant, which
/// the run loop sends, so the handle is always visible by then.
pub(crate) type KernelThread = Arc<OnceLock<Thread>>;

/// A per-process single-slot rendezvous between the kernel and one
/// simulated process. See the module docs for the protocol.
pub(crate) struct HandoffSlot {
    state: AtomicU8,
    req: UnsafeCell<Option<Request>>,
    grant: UnsafeCell<Option<Grant>>,
    /// Bits of the kernel's `now` at the last grant.
    clock: AtomicU64,
    /// Fire-and-forget requests queued since the last grant.
    outbox: UnsafeCell<Vec<Request>>,
    kernel: KernelThread,
    /// The process's OS thread, set by the kernel right after spawning it
    /// (from `JoinHandle::thread`, so it is available before the thread
    /// runs). Only the kernel reads it.
    proc: OnceLock<Thread>,
}

// SAFETY: the cells (request, grant, outbox) are accessed under the
// `state` protocol above — each cell has exactly one owner per
// transition, ordered by the Release store / Acquire load pair on `state`.
unsafe impl Send for HandoffSlot {}
unsafe impl Sync for HandoffSlot {}

impl HandoffSlot {
    pub(crate) fn new(kernel: KernelThread) -> Self {
        HandoffSlot {
            state: AtomicU8::new(IDLE),
            req: UnsafeCell::new(None),
            grant: UnsafeCell::new(None),
            clock: AtomicU64::new(0f64.to_bits()),
            outbox: UnsafeCell::new(Vec::new()),
            kernel,
            proc: OnceLock::new(),
        }
    }

    /// Record the process thread to unpark on grants. Called by the
    /// kernel immediately after spawning the thread.
    pub(crate) fn set_proc_thread(&self, t: Thread) {
        let _ = self.proc.set(t);
    }

    /// Wait until `state` equals `want`: spin (multicore) or yield to the
    /// peer (single core) per the active [`WaitPolicy`], then park.
    #[inline]
    fn await_state(&self, want: u8) {
        let spin = match wait_policy() {
            WaitPolicy::Auto => multicore(),
            WaitPolicy::Spin => true,
            WaitPolicy::Yield => false,
        };
        if spin {
            for _ in 0..SPIN {
                if self.state.load(Ordering::Acquire) == want {
                    return;
                }
                std::hint::spin_loop();
            }
        } else {
            for _ in 0..YIELDS {
                if self.state.load(Ordering::Acquire) == want {
                    return;
                }
                std::thread::yield_now();
            }
        }
        while self.state.load(Ordering::Acquire) != want {
            std::thread::park();
        }
    }

    /// Process side: publish a request and wake the kernel. The slot must
    /// be `IDLE` (guaranteed by the alternation protocol).
    pub(crate) fn send_request(&self, req: Request) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), IDLE);
        // SAFETY: state is IDLE, so the kernel is not reading the cell.
        unsafe { *self.req.get() = Some(req) };
        self.state.store(REQ, Ordering::Release);
        if let Some(k) = self.kernel.get() {
            k.unpark();
        }
    }

    /// Process side: wait for and consume the next grant.
    pub(crate) fn wait_grant(&self) -> Grant {
        self.await_state(GRANT);
        // SAFETY: state is GRANT, so the kernel has published the grant
        // and will not touch the cell until the next REQ→IDLE transition.
        let g = unsafe { (*self.grant.get()).take() }.expect("GRANT state implies a grant");
        self.state.store(IDLE, Ordering::Release);
        g
    }

    /// The kernel's clock as of the last grant. Process side, or kernel
    /// side between `wait_request` and the next grant.
    pub(crate) fn clock(&self) -> f64 {
        // Relaxed: the store happens-before the GRANT Release store this
        // side has already acquired.
        f64::from_bits(self.clock.load(Ordering::Relaxed))
    }

    /// Process side: queue a fire-and-forget request for the kernel to
    /// apply before the next one. Hands the request back when the outbox
    /// is full; the caller then sends it as a round trip.
    pub(crate) fn defer(&self, req: Request) -> Result<(), Request> {
        // SAFETY: the running process owns the outbox until it publishes
        // its next request (see the module docs).
        let outbox = unsafe { &mut *self.outbox.get() };
        if outbox.len() < OUTBOX_CAP {
            outbox.push(req);
            Ok(())
        } else {
            Err(req)
        }
    }

    /// Kernel side: wait for and consume the running process's request.
    pub(crate) fn wait_request(&self) -> Request {
        self.await_state(REQ);
        // SAFETY: state is REQ, so the process has published the request
        // and is now waiting in `wait_grant`.
        let r = unsafe { (*self.req.get()).take() }.expect("REQ state implies a request");
        self.state.store(IDLE, Ordering::Release);
        r
    }

    /// Kernel side, right after `wait_request`: take the requests the
    /// process queued before it. Empty (and allocation-free) when none
    /// were; otherwise hand the drained buffer back with
    /// [`Self::restore_outbox`] before the next grant.
    pub(crate) fn take_outbox(&self) -> Vec<Request> {
        // SAFETY: the process is waiting in `wait_grant`; the kernel owns
        // the outbox until it publishes the next grant.
        let outbox = unsafe { &mut *self.outbox.get() };
        if outbox.is_empty() {
            Vec::new()
        } else {
            std::mem::take(outbox)
        }
    }

    /// Kernel side: return the drained buffer from [`Self::take_outbox`]
    /// so its capacity is reused.
    pub(crate) fn restore_outbox(&self, drained: Vec<Request>) {
        debug_assert!(drained.is_empty(), "outbox returned undrained");
        // SAFETY: as in `take_outbox`.
        unsafe { *self.outbox.get() = drained };
    }

    /// Kernel side: publish a grant stamped with the kernel clock `now`
    /// and wake the process. The slot must be `IDLE`: the target process
    /// is parked (or spinning) in `wait_grant`.
    pub(crate) fn send_grant(&self, g: Grant, now: f64) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), IDLE);
        self.clock.store(now.to_bits(), Ordering::Relaxed);
        // SAFETY: state is IDLE, so the process is not reading the cell.
        unsafe { *self.grant.get() = Some(g) };
        self.state.store(GRANT, Ordering::Release);
        if let Some(t) = self.proc.get() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full request/grant alternation across two real threads,
    /// including the "grant before the process thread even polls" start
    /// edge.
    #[test]
    fn alternation_across_threads() {
        let kernel: KernelThread = Arc::new(OnceLock::new());
        let slot = Arc::new(HandoffSlot::new(kernel.clone()));
        let s2 = slot.clone();
        let join = std::thread::spawn(move || {
            // Start gate: wait for the kernel's first grant.
            match s2.wait_grant() {
                Grant::Unit => {}
                _ => panic!("expected start grant"),
            }
            for i in 0..1000u64 {
                s2.send_request(Request::Compute { flops: i as f64 });
                match s2.wait_grant() {
                    Grant::Time(t) => assert_eq!(t, i as f64),
                    _ => panic!("expected time grant"),
                }
            }
            s2.send_request(Request::Exit);
        });
        kernel.set(std::thread::current()).unwrap();
        slot.set_proc_thread(join.thread().clone());
        slot.send_grant(Grant::Unit, 0.0);
        let mut seen = 0u64;
        loop {
            match slot.wait_request() {
                Request::Compute { flops } => {
                    slot.send_grant(Grant::Time(flops), 0.0);
                    seen += 1;
                }
                Request::Exit => break,
                _ => panic!("unexpected request"),
            }
        }
        assert_eq!(seen, 1000);
        join.join().unwrap();
    }

    /// The clock and the outbox ride the grant/request edges: the process
    /// reads the clock stamped on its grant, and the kernel sees every
    /// queued request, in order, when it takes the next request.
    #[test]
    fn clock_and_outbox_cross_threads() {
        let kernel: KernelThread = Arc::new(OnceLock::new());
        let slot = Arc::new(HandoffSlot::new(kernel.clone()));
        let s2 = slot.clone();
        let join = std::thread::spawn(move || {
            let mut clocks = Vec::new();
            for round in 0..100u32 {
                if !matches!(s2.wait_grant(), Grant::Unit) {
                    panic!("expected unit grant");
                }
                clocks.push(s2.clock());
                for k in 0..=OUTBOX_CAP as u32 {
                    let req = Request::Compute {
                        flops: (round * 100 + k) as f64,
                    };
                    if let Err(req) = s2.defer(req) {
                        assert_eq!(k as usize, OUTBOX_CAP, "only a full outbox refuses");
                        s2.send_request(req);
                        break;
                    }
                }
            }
            clocks
        });
        kernel.set(std::thread::current()).unwrap();
        slot.set_proc_thread(join.thread().clone());
        for round in 0..100u32 {
            slot.send_grant(Grant::Unit, round as f64 * 0.5);
            let last = slot.wait_request();
            assert_eq!(slot.clock(), round as f64 * 0.5);
            let mut queued = slot.take_outbox();
            assert_eq!(queued.len(), OUTBOX_CAP);
            for (k, r) in queued.drain(..).chain(std::iter::once(last)).enumerate() {
                match r {
                    Request::Compute { flops } => {
                        assert_eq!(flops, (round * 100) as f64 + k as f64)
                    }
                    _ => panic!("unexpected request"),
                }
            }
            slot.restore_outbox(queued);
        }
        let clocks = join.join().unwrap();
        assert_eq!(clocks, (0..100).map(|r| r as f64 * 0.5).collect::<Vec<_>>());
    }

    /// A kill grant delivered while the process is parked in `wait_grant`
    /// is observed as `Grant::Kill`.
    #[test]
    fn kill_wakes_waiter() {
        let kernel: KernelThread = Arc::new(OnceLock::new());
        kernel.set(std::thread::current()).unwrap();
        let slot = Arc::new(HandoffSlot::new(kernel));
        let s2 = slot.clone();
        let join = std::thread::spawn(move || matches!(s2.wait_grant(), Grant::Kill));
        slot.set_proc_thread(join.thread().clone());
        // Give the thread a chance to actually park.
        std::thread::sleep(std::time::Duration::from_millis(10));
        slot.send_grant(Grant::Kill, 0.0);
        assert!(join.join().unwrap());
    }
}
