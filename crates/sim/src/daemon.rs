//! Inline daemons: simulated processes the kernel steps directly.
//!
//! A [`Daemon`] is a simulated process written as a state machine instead
//! of straight-line code. The kernel calls [`Daemon::step`] wherever it
//! would have resumed a coroutine process, and the returned [`Step`] is
//! the request that process would have made next. A daemon therefore
//! costs no stack and no context switch: it is spawned with
//! [`Engine::spawn_daemon`](crate::engine::Engine::spawn_daemon) and runs
//! inside the kernel's process pump.
//!
//! This is exact for the same reason the outbox is (see the `handoff`
//! module): while a coroutine process runs, the kernel is suspended and
//! its clock cannot move, so `step(now)` is exactly the process code
//! between one grant and the next request, and the kernel sees the same
//! request sequence either way. [`run_daemon`] drives the same state
//! machine from an ordinary coroutine process; it is the oracle the
//! identity tests compare the inline path against.
//!
//! Like every process, a daemon must never block on a lock that a
//! suspended process may hold: the holder can only be resumed by the
//! thread that would be blocked.

use crate::process::Ctx;

/// What a daemon does next: the request its process would make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Compute this many flops on the daemon's host, then step again.
    Compute(f64),
    /// Sleep this many virtual seconds, then step again.
    Sleep(f64),
    /// Terminate; the daemon is listed in the report's `completed`.
    Exit,
}

/// A simulated process written as a state machine (see the module docs).
pub trait Daemon: Send + 'static {
    /// Run the process code up to its next request. `now` is the virtual
    /// time of the grant that resumed it: the start grant for the first
    /// step, then the completion of the previous `Compute`/`Sleep`.
    fn step(&mut self, now: f64) -> Step;
}

/// Drive a daemon from an ordinary coroutine process, one `Ctx` call per
/// step. This is the reference the inline path is tested against.
#[doc(hidden)]
pub fn run_daemon(ctx: &mut Ctx, d: &mut impl Daemon) {
    loop {
        let now = ctx.now();
        match d.step(now) {
            Step::Compute(flops) => ctx.compute(flops),
            Step::Sleep(dt) => ctx.sleep(dt),
            Step::Exit => return,
        }
    }
}
