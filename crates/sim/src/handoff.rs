//! Kernel ↔ process handoff.
//!
//! The kernel grants execution to exactly one simulated process at a time,
//! so the process ↔ kernel transport is a strict two-party alternation:
//! the kernel writes one grant, the process runs and writes one request,
//! and so on. A process is a [`Coroutine`] on the kernel's own thread
//! (see [`crate::coroutine`]), so the two sides never run at once and the
//! [`HandoffSlot`] they share is a set of plain cells:
//!
//! * the kernel writes the grant cell and resumes the process
//!   ([`resume`]); the resume returns with the process's next request;
//! * the process writes the request cell and suspends
//!   ([`Link::call`]); the suspend returns with the kernel's grant.
//!
//! A round trip is therefore two context switches and no OS involvement.
//! Determinism holds by construction: the kernel sees the same requests in
//! the same order whatever carries them.
//!
//! A finished body reaches the kernel as one last request: `Exit` when it
//! returned, `Panic` with the message when it unwound.
//!
//! # Calls that skip the round trip
//!
//! Two more cells let a process answer some calls without the kernel:
//!
//! * the **clock** holds the kernel's `now`, stamped before every grant.
//!   While the process runs the kernel is suspended in [`resume`] and its
//!   clock cannot move, so [`Link::clock`] is exactly what a `Now` round
//!   trip would return;
//! * the **outbox** queues requests whose only reply is `Grant::Unit`
//!   (eager sends, traces, load changes). The kernel takes it right after
//!   the next request and applies every queued request first, in order,
//!   as if each had been its own round trip: each of them is answered by
//!   an immediate front-of-queue `Unit` that the kernel would have
//!   granted straight back to this process before touching anything
//!   else. At most [`OUTBOX_CAP`] requests wait; the next one goes out as
//!   an ordinary round trip that carries them.
//!
//! The engine's unbatched test oracle leaves both cells unused by the
//! process, so every call is a round trip; it is the reference the
//! batched path is pinned to.

use crate::coroutine::{Coroutine, Link, Resumed};
use crate::process::{Grant, KillToken, Request};
use std::cell::Cell;

/// Most fire-and-forget requests a process queues in its outbox. The cap
/// bounds the memory a process can park in its slot; a full outbox costs
/// one round trip per [`OUTBOX_CAP`] + 1 requests instead of one each.
pub(crate) const OUTBOX_CAP: usize = 16;

/// The cells a process and the kernel exchange messages through. See the
/// module docs for who writes what when.
#[derive(Default)]
pub(crate) struct HandoffSlot {
    req: Cell<Option<Request>>,
    grant: Cell<Option<Grant>>,
    /// The kernel's `now` at the last grant.
    clock: Cell<f64>,
    /// Fire-and-forget requests queued since the last grant.
    outbox: Cell<Vec<Request>>,
}

/// A simulated process: a coroutine whose body talks through a slot.
pub(crate) type Process = Coroutine<HandoffSlot>;

/// The process side of the slot.
pub(crate) type ProcLink = Link<HandoffSlot>;

impl ProcLink {
    /// Consume the start grant the first resume carried.
    pub(crate) fn start(&self) {
        let start = self.grant.take();
        debug_assert!(
            matches!(start, Some(Grant::Unit)),
            "a process starts on Unit"
        );
    }

    /// Publish a request, suspend until the kernel answers, and return its
    /// grant. A `Kill` grant unwinds the process with [`KillToken`].
    pub(crate) fn call(&self, req: Request) -> Grant {
        self.req.set(Some(req));
        self.suspend();
        match self.grant.take().expect("a process resumes with a grant") {
            Grant::Kill => std::panic::panic_any(KillToken),
            g => g,
        }
    }

    /// The kernel's clock as of the last grant.
    pub(crate) fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// Queue a fire-and-forget request for the kernel to apply before the
    /// next one. Hands the request back when the outbox is full; the
    /// caller then sends it as a round trip.
    pub(crate) fn defer(&self, req: Request) -> Result<(), Request> {
        let mut outbox = self.outbox.take();
        let queued = if outbox.len() < OUTBOX_CAP {
            outbox.push(req);
            Ok(())
        } else {
            Err(req)
        };
        self.outbox.set(outbox);
        queued
    }
}

/// Kernel side: grant `g` at kernel time `now`, run the process until it
/// makes its next request, and return that request.
pub(crate) fn resume(p: &mut Process, g: Grant, now: f64) -> Request {
    p.shared().clock.set(now);
    p.shared().grant.set(Some(g));
    match p.resume() {
        Resumed::Suspended => p
            .shared()
            .req
            .take()
            .expect("a suspended process left a request"),
        Resumed::Finished(Ok(())) => Request::Exit,
        Resumed::Finished(Err(e)) => Request::Panic(panic_message(&*e)),
    }
}

/// Kernel side, at the end of a run: unwind a started process with
/// `Grant::Kill`, running its destructors. A process that makes another
/// blocking call while unwinding is left suspended for good, and dropping
/// it leaks its stack (see [`crate::coroutine`]).
pub(crate) fn kill(p: &mut Process, now: f64) {
    if p.started() {
        let _ = resume(p, Grant::Kill, now);
    }
}

/// Kernel side, right after [`resume`]: take the requests the process
/// queued before it. Empty (and allocation-free) when none were;
/// otherwise hand the drained buffer back with [`restore_outbox`] before
/// the next grant.
pub(crate) fn take_outbox(p: &Process) -> Vec<Request> {
    let outbox = p.shared().outbox.take();
    if outbox.is_empty() {
        // Keep the buffer's capacity in the slot.
        p.shared().outbox.set(outbox);
        return Vec::new();
    }
    outbox
}

/// Kernel side: return the drained buffer from [`take_outbox`] so its
/// capacity is reused.
pub(crate) fn restore_outbox(p: &Process, drained: Vec<Request>) {
    debug_assert!(drained.is_empty(), "outbox returned undrained");
    p.shared().outbox.set(drained);
}

/// The message of a panic payload, as `RunReport::failed` records it.
pub(crate) fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(body: impl FnOnce(&ProcLink) + Send + 'static) -> Process {
        Process::new(HandoffSlot::default(), Box::new(body))
    }

    /// The clock and the outbox ride the grant/request edges: the process
    /// reads the clock stamped on its grant, and the kernel sees every
    /// queued request, in order, when it takes the next request.
    #[test]
    fn clock_and_outbox_ride_the_round_trip() {
        let mut p = process(|link| {
            link.start();
            for round in 0..100u32 {
                assert_eq!(link.clock(), round as f64 * 0.5);
                for k in 0..=OUTBOX_CAP as u32 {
                    let req = Request::Compute {
                        flops: (round * 100 + k) as f64,
                    };
                    if let Err(req) = link.defer(req) {
                        assert_eq!(k as usize, OUTBOX_CAP, "only a full outbox refuses");
                        assert!(matches!(link.call(req), Grant::Unit));
                        break;
                    }
                }
            }
        });
        let mut grant = Grant::Unit;
        for round in 0..100u32 {
            let last = resume(&mut p, grant, round as f64 * 0.5);
            let mut queued = take_outbox(&p);
            assert_eq!(queued.len(), OUTBOX_CAP);
            for (k, r) in queued.drain(..).chain(std::iter::once(last)).enumerate() {
                match r {
                    Request::Compute { flops } => {
                        assert_eq!(flops, (round * 100) as f64 + k as f64)
                    }
                    _ => panic!("unexpected request"),
                }
            }
            restore_outbox(&p, queued);
            grant = Grant::Unit;
        }
        assert!(matches!(resume(&mut p, grant, 50.0), Request::Exit));
    }

    /// A kill grant unwinds the process quietly: it finishes with the
    /// kill token, not a reportable panic.
    #[test]
    fn kill_unwinds_a_suspended_process() {
        let mut p = process(|link| {
            link.start();
            let _ = link.call(Request::Recv {
                key: crate::process::MailKey(0),
            });
            unreachable!("killed while receiving");
        });
        assert!(matches!(
            resume(&mut p, Grant::Unit, 0.0),
            Request::Recv { .. }
        ));
        p.shared().grant.set(Some(Grant::Kill));
        match p.resume() {
            Resumed::Finished(Err(e)) => assert!(e.downcast_ref::<KillToken>().is_some()),
            _ => panic!("expected the kill to finish the process"),
        }
    }
}
