//! # grads-sim — deterministic grid emulator
//!
//! The substrate every other crate in this workspace runs on. It plays the
//! role of the GrADS testbeds: the *MacroGrid* (real clusters at UCSD, UTK,
//! UIUC, UH) and the *MicroGrid* (the paper's own grid emulation
//! environment, §4.2). Topologies describe clusters of hosts joined by WAN
//! links; simulated processes execute real Rust code against blocking
//! `compute`/`send`/`recv` primitives while the kernel advances virtual
//! time using fluid resource-sharing models:
//!
//! * CPU: equal sharing among compute actions and injected external load,
//!   capped per action at one core's speed;
//! * network: max-min fair bandwidth allocation over multi-link routes with
//!   additive one-way latency.
//!
//! Runs are fully deterministic: exactly one simulated process executes at
//! a time and all event ties are broken by insertion order. A process is
//! either ordinary blocking code run as a coroutine on the kernel's thread
//! (the `coroutine` module), or an inline [`Daemon`], a state machine the
//! kernel steps directly ([`daemon`]).
//!
//! There is one production substrate and one run loop: every coroutine
//! process talks to the kernel over a single-slot handoff, the event
//! queue is a position-tracked heap, and rate solves are dirty-set scoped
//! and coalesced to one per virtual instant. The kernel has no
//! result-neutral tuning knobs.
//!
//! Processes run as coroutines whose context switch is written for x86-64
//! SysV on Linux; the crate does not compile for other targets.
//!
//! ```
//! use grads_sim::prelude::*;
//!
//! let mut b = GridBuilder::new();
//! let c = b.cluster("LOCAL");
//! let hosts = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
//! let mut eng = Engine::new(b.build().unwrap());
//! let key = mail_key(&[7]);
//! let h1 = hosts[1];
//! eng.spawn("producer", hosts[0], move |ctx| {
//!     ctx.compute(2e9); // two virtual seconds of work
//!     ctx.send(key, h1, 1e6, Box::new(vec![1.0f64, 2.0, 3.0]));
//! });
//! eng.spawn("consumer", hosts[1], move |ctx| {
//!     let data = ctx.recv(key).downcast::<Vec<f64>>().unwrap();
//!     assert_eq!(data.len(), 3);
//! });
//! let report = eng.run();
//! assert_eq!(report.completed.len(), 2);
//! ```

#![warn(missing_docs)]

pub(crate) mod coroutine;
pub mod daemon;
pub mod dml;
pub mod engine;
pub(crate) mod equeue;
pub(crate) mod handoff;
pub(crate) mod maildir;
pub mod process;
pub mod sharing;
pub mod topology;
pub mod trace;

#[doc(hidden)]
pub use daemon::run_daemon;

/// The process transport, as a benchmark report stamps it. There is only
/// one; this survives until that report field goes.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Processes are coroutines on the kernel thread; nothing waits.
    Coroutine,
}

/// The process transport in use (always [`WaitPolicy::Coroutine`]).
#[doc(hidden)]
pub fn wait_policy() -> WaitPolicy {
    WaitPolicy::Coroutine
}

/// Convenient re-exports of the commonly used types.
pub mod prelude {
    pub use crate::daemon::{Daemon, Step};
    pub use crate::engine::{Engine, RunReport};
    pub use crate::process::{mail_key, Ctx, MailKey, Payload, ProcId, SendMode};
    pub use crate::topology::{
        macrogrid_qr, microgrid_nbody, Arch, ClusterId, Grid, GridBuilder, Host, HostId, HostSpec,
        LinkId,
    };
    pub use crate::trace::{Trace, TraceKind, TraceRecord};
}

pub use dml::{parse_dml, DmlError};
pub use prelude::*;
