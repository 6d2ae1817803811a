//! Simulated processes and their blocking API.
//!
//! A simulated process spawned with `Engine::spawn` is a coroutine with a
//! stack of its own that runs on the kernel's OS thread (see the
//! `coroutine` module). The kernel grants execution to exactly one
//! process at a time, so simulations are fully deterministic. (A process
//! spawned with `Engine::spawn_daemon` has no stack at all: the kernel
//! steps it inline, see [`crate::daemon`].) Application code receives a
//! [`Ctx`] handle and calls blocking primitives (`compute`, `send`,
//! `recv`, `sleep`, ...); each call switches back to the kernel, which
//! advances virtual time and resumes the process when the operation
//! completes.
//!
//! Calls the kernel would answer at once without moving its clock skip
//! the round trip: `now` reads the clock stamped on the last grant,
//! zero-length `compute`/`sleep` return at once, and the fire-and-forget
//! calls (`isend`, `trace`, `inject_load`, `remove_load`) queue in the
//! slot's outbox and ride with the next real request (see the `handoff`
//! module). The engine's unbatched test oracle turns all three shortcuts
//! off, making every call one round trip, as the reference.
//!
//! Process code shares the kernel's thread: `std::thread::current()` and
//! thread-locals are the kernel thread's, and a process must never block
//! on a lock that a suspended process holds.

use crate::daemon::Daemon;
use crate::handoff::ProcLink;
use crate::topology::HostId;
use std::any::Any;
use std::ptr::NonNull;
use std::sync::Arc;

/// Identifies a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Message payload carried by simulated communication. Real data moves
/// between simulated processes; receivers downcast to the concrete type.
pub type Payload = Box<dyn Any + Send>;

/// Entry point of a simulated process.
pub type ProcFn = Box<dyn FnOnce(&mut Ctx) + Send + 'static>;

/// What a spawned process runs: coroutine code or an inline daemon.
pub(crate) enum ProcBody {
    Coroutine(ProcFn),
    Daemon(Box<dyn Daemon>),
}

/// Mailbox address. Higher layers (the MPI crate) hash their richer
/// addressing tuples — (communicator, source, destination, tag) — into this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MailKey(pub u64);

/// How a send interacts with the matching receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Buffered: the wire transfer starts immediately and the sender
    /// continues without waiting (MPI eager protocol).
    Eager,
    /// Synchronous: the transfer starts only when the receiver has posted a
    /// matching receive, and the sender blocks until delivery completes
    /// (MPI rendezvous protocol).
    Rendezvous,
}

/// Requests a process can make of the kernel.
pub(crate) enum Request {
    Now,
    Compute {
        flops: f64,
    },
    Sleep {
        dt: f64,
    },
    Send {
        key: MailKey,
        dst: HostId,
        bytes: f64,
        payload: Payload,
        mode: SendMode,
    },
    Recv {
        key: MailKey,
    },
    TryRecv {
        key: MailKey,
    },
    Transfer {
        dst: HostId,
        bytes: f64,
    },
    Spawn {
        name: String,
        host: HostId,
        body: ProcBody,
    },
    InjectLoad {
        host: HostId,
        amount: f64,
    },
    RemoveLoad {
        host: HostId,
        amount: f64,
    },
    Trace {
        label: Arc<str>,
        value: f64,
    },
    Exit,
    Panic(String),
}

/// Kernel replies that resume a blocked process.
pub(crate) enum Grant {
    Unit,
    Time(f64),
    Payload(Payload),
    MaybePayload(Option<Payload>),
    Proc(ProcId),
    /// The simulation is over; unwind quietly.
    Kill,
}

/// Panic payload used to unwind a killed process. Caught at the bottom of
/// the process's coroutine; never observed by user code.
pub(crate) struct KillToken;

/// Handle through which a simulated process interacts with the grid.
///
/// Neither `Send` nor `Sync`: a call switches stacks on the calling
/// thread, so only the process's own code, on the kernel thread, may make
/// it.
pub struct Ctx {
    pub(crate) pid: ProcId,
    pub(crate) host: HostId,
    /// The process's end of its slot with the kernel (see
    /// [`crate::handoff`]). Lives in the coroutine, which outlives every
    /// frame on its stack, this `Ctx` included.
    link: NonNull<ProcLink>,
    /// Test oracle: every call is a blocking round trip — no grant-stamped
    /// clock read, no zero-length shortcut, no outbox.
    unbatched: bool,
    /// Process-local intern cache for trace labels, so repeated `trace`
    /// calls with the same label reuse one allocation. Processes trace a
    /// handful of distinct labels, so a linear scan beats a hash map.
    labels: Vec<Arc<str>>,
}

impl Ctx {
    /// The handle of a process starting on `link`; consumes its start
    /// grant.
    pub(crate) fn start(pid: ProcId, host: HostId, link: &ProcLink, unbatched: bool) -> Self {
        link.start();
        Ctx {
            pid,
            host,
            link: NonNull::from(link),
            unbatched,
            labels: Vec::new(),
        }
    }

    fn link(&self) -> &ProcLink {
        // SAFETY: the link lives in this process's coroutine, which is
        // freed only after its body (and so this `Ctx`) is gone.
        unsafe { self.link.as_ref() }
    }

    fn call(&mut self, req: Request) -> Grant {
        self.link().call(req)
    }

    /// Issue a request whose only reply is `Grant::Unit`. It is queued in
    /// the outbox; only a full outbox (or the unbatched oracle) makes it a
    /// round trip, which carries the queued ones with it.
    fn post(&mut self, req: Request) {
        let req = if self.unbatched {
            req
        } else {
            match self.link().defer(req) {
                Ok(()) => return,
                Err(req) => req,
            }
        };
        match self.call(req) {
            Grant::Unit => {}
            _ => unreachable!("kernel grant mismatch for a fire-and-forget request"),
        }
    }

    fn intern_label(&mut self, label: &str) -> Arc<str> {
        if let Some(l) = self.labels.iter().find(|l| l.as_ref() == label) {
            return l.clone();
        }
        let l: Arc<str> = Arc::from(label);
        self.labels.push(l.clone());
        l
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The host this process runs on (fixed for the process lifetime;
    /// migration is modelled as termination + restart elsewhere).
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Current virtual time in seconds.
    pub fn now(&mut self) -> f64 {
        if !self.unbatched {
            return self.link().clock();
        }
        match self.call(Request::Now) {
            Grant::Time(t) => t,
            _ => unreachable!("kernel grant mismatch for Now"),
        }
    }

    /// Perform `flops` floating-point operations' worth of work. Blocks for
    /// `flops / rate` virtual seconds, where the rate reflects CPU sharing
    /// with other actions and injected load on this host.
    pub fn compute(&mut self, flops: f64) {
        if flops <= 0.0 && !self.unbatched {
            return;
        }
        match self.call(Request::Compute { flops }) {
            Grant::Unit => {}
            _ => unreachable!("kernel grant mismatch for Compute"),
        }
    }

    /// Sleep for `dt` virtual seconds.
    pub fn sleep(&mut self, dt: f64) {
        if dt <= 0.0 && !self.unbatched {
            return;
        }
        match self.call(Request::Sleep { dt }) {
            Grant::Unit => {}
            _ => unreachable!("kernel grant mismatch for Sleep"),
        }
    }

    /// Synchronous (rendezvous) send: blocks until the matching receive has
    /// been posted and the wire transfer of `bytes` completes.
    pub fn send(&mut self, key: MailKey, dst: HostId, bytes: f64, payload: Payload) {
        match self.call(Request::Send {
            key,
            dst,
            bytes,
            payload,
            mode: SendMode::Rendezvous,
        }) {
            Grant::Unit => {}
            _ => unreachable!("kernel grant mismatch for Send"),
        }
    }

    /// Eager (buffered) send: the transfer starts now; this call returns
    /// immediately without waiting for the receiver.
    pub fn isend(&mut self, key: MailKey, dst: HostId, bytes: f64, payload: Payload) {
        self.post(Request::Send {
            key,
            dst,
            bytes,
            payload,
            mode: SendMode::Eager,
        });
    }

    /// Blocking receive on a mailbox key.
    pub fn recv(&mut self, key: MailKey) -> Payload {
        match self.call(Request::Recv { key }) {
            Grant::Payload(p) => p,
            _ => unreachable!("kernel grant mismatch for Recv"),
        }
    }

    /// Non-blocking receive: returns an already-delivered eager message, if
    /// any. Does not initiate rendezvous transfers.
    pub fn try_recv(&mut self, key: MailKey) -> Option<Payload> {
        match self.call(Request::TryRecv { key }) {
            Grant::MaybePayload(p) => p,
            _ => unreachable!("kernel grant mismatch for TryRecv"),
        }
    }

    /// Raw bulk transfer of `bytes` to another host (no mailbox, no payload).
    /// Blocks until the transfer completes. Used for checkpoint traffic.
    pub fn transfer(&mut self, dst: HostId, bytes: f64) {
        match self.call(Request::Transfer { dst, bytes }) {
            Grant::Unit => {}
            _ => unreachable!("kernel grant mismatch for Transfer"),
        }
    }

    /// Spawn a new simulated process on `host`; it becomes runnable at the
    /// current virtual time, after the current process next blocks.
    pub fn spawn<F>(&mut self, name: &str, host: HostId, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.spawn_body(name, host, ProcBody::Coroutine(Box::new(f)))
    }

    /// Spawn an inline daemon on `host` (see `Engine::spawn_daemon`); it
    /// becomes runnable at the current virtual time, after the current
    /// process next blocks.
    pub fn spawn_daemon(&mut self, name: &str, host: HostId, d: impl Daemon) -> ProcId {
        self.spawn_body(name, host, ProcBody::Daemon(Box::new(d)))
    }

    fn spawn_body(&mut self, name: &str, host: HostId, body: ProcBody) -> ProcId {
        match self.call(Request::Spawn {
            name: name.to_string(),
            host,
            body,
        }) {
            Grant::Proc(p) => p,
            _ => unreachable!("kernel grant mismatch for Spawn"),
        }
    }

    /// Add `amount` units of competing CPU load to a host (1.0 = one
    /// CPU-bound process). Used by experiment drivers to create contention.
    pub fn inject_load(&mut self, host: HostId, amount: f64) {
        self.post(Request::InjectLoad { host, amount });
    }

    /// Remove previously injected load.
    pub fn remove_load(&mut self, host: HostId, amount: f64) {
        self.post(Request::RemoveLoad { host, amount });
    }

    /// Record a custom (label, value) trace point at the current virtual
    /// time. The run report exposes the full trace; figure harnesses use
    /// this to extract progress series.
    pub fn trace(&mut self, label: &str, value: f64) {
        let label = self.intern_label(label);
        self.post(Request::Trace { label, value });
    }
}

/// Hash an addressing tuple into a [`MailKey`]. FNV-1a over the components;
/// collisions across distinct tuples are negligible for emulation scale and
/// would only cause cross-talk between mailboxes, never memory unsafety.
pub fn mail_key(parts: &[u64]) -> MailKey {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in parts {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    MailKey(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mail_key_distinct_tuples() {
        let a = mail_key(&[1, 2, 3]);
        let b = mail_key(&[1, 2, 4]);
        let c = mail_key(&[3, 2, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn mail_key_deterministic() {
        assert_eq!(mail_key(&[7, 7]), mail_key(&[7, 7]));
    }
}
