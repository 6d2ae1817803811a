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
//! either a thread running ordinary blocking code or an inline
//! [`Daemon`], a state machine the kernel steps on its own thread
//! ([`daemon`]). The kernel can execute in a conservative-parallel
//! windowed mode (`KernelMode::Windowed`) that shards the event queue by
//! cluster and pre-drains per-cluster event windows on a worker pool —
//! results stay bit-identical to the serial kernel at any worker count
//! (DESIGN.md, "Parallel kernel").
//!
//! There is one production substrate: every thread process talks to the
//! kernel over a single-slot handoff, the event queue is a position-tracked
//! heap, and rate solves are dirty-set scoped and coalesced to one per
//! virtual instant. The settable kernel values are
//! [`KernelMode`], [`WindowPolicy`] and the handoff [`WaitPolicy`]; none
//! of them can change a result bit.
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
pub(crate) mod window;

#[doc(hidden)]
pub use daemon::run_daemon;
pub use handoff::{set_wait_policy, wait_policy, WaitPolicy};
pub use window::WindowPolicy;

/// Convenient re-exports of the commonly used types.
pub mod prelude {
    pub use crate::daemon::{Daemon, Step};
    pub use crate::engine::{Engine, KernelMode, RunReport};
    pub use crate::handoff::{set_wait_policy, WaitPolicy};
    pub use crate::process::{mail_key, Ctx, MailKey, Payload, ProcId, SendMode};
    pub use crate::topology::{
        macrogrid_qr, microgrid_nbody, Arch, ClusterId, Grid, GridBuilder, Host, HostId, HostSpec,
        LinkId,
    };
    pub use crate::trace::{Trace, TraceKind, TraceRecord};
    pub use crate::window::WindowPolicy;
}

pub use dml::{parse_dml, DmlError};
pub use prelude::*;
