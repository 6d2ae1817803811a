//! Stackful coroutines: how simulated processes run on the kernel thread.
//!
//! Every process spawned with `Engine::spawn` is a [`Coroutine`]: its
//! code runs on a stack of its own, but on the kernel's OS thread. The
//! kernel [`Coroutine::resume`]s it; the process [`Link::suspend`]s back
//! when it needs the kernel. Each direction is one user-space context
//! switch (a few dozen nanoseconds), not an OS handoff between threads.
//!
//! # The switch
//!
//! [`switch`] pushes the x86-64 SysV callee-saved registers (`rbp`,
//! `rbx`, `r12`–`r15`) plus the MXCSR and x87 control words onto the
//! current stack, stores the stack pointer, loads the other side's and
//! pops the same frame from it. The caller-saved registers need no
//! saving: to the compiler `switch` is an ordinary `extern "C"` call.
//! A fresh stack holds a hand-built copy of that frame whose return
//! address is [`trampoline`], which calls the Rust entry point. The
//! trampoline ends the frame chain (`.cfi_undefined rip`, a zeroed return
//! address above it and a zeroed `rbp`), so a backtrace taken inside a
//! process stops cleanly at the bottom of its stack.
//!
//! Only x86-64 SysV on Linux is supported; other targets fail to compile.
//!
//! # Stacks
//!
//! A stack reserves [`STACK_SIZE`] bytes (std's default for spawned
//! threads, so no process that fit its old thread stack can overflow
//! here) with `MAP_NORESERVE`: only the pages a process touches become
//! resident. One `PROT_NONE` guard page sits below it; running into it
//! kills the OS process with `SIGSEGV` (std's "has overflowed its stack"
//! message only covers OS thread stacks).
//!
//! Each thread keeps a pool of up to [`POOL_CAP`] finished stacks. A
//! coroutine's first resume takes a stack from the pool, and maps a new
//! one only when the pool is empty. When its body returns or panics, the
//! stack goes back to the pool, or is unmapped if the pool is full. So a
//! run that spawns many short processes maps about as many stacks as it
//! has processes alive at once, not one per spawn. A pooled stack keeps
//! the pages its last body touched resident. A stack still suspended
//! when its coroutine is dropped is leaked and never pooled. The pool
//! unmaps its stacks when its thread exits.
//!
//! # Lifecycle
//!
//! The body runs inside `catch_unwind` on its own stack, so a panic ends
//! the coroutine and [`Coroutine::resume`] hands the payload to the
//! kernel. A coroutine is dropped in one of three states:
//!
//! * **unstarted** — its body is dropped without running;
//! * **finished** — its stack is already back in the pool;
//! * **suspended** — its stack still holds live frames. It is never
//!   resumed again and its stack is leaked, not freed under those frames.

use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "grads-sim runs simulated processes as coroutines, and its context switch \
     is written for x86-64 SysV on Linux only; this target needs a port of \
     `switch`, `trampoline` and `Stack` in crates/sim/src/coroutine.rs"
);

/// Usable bytes of one coroutine stack.
pub(crate) const STACK_SIZE: usize = 2 << 20;

/// The guard page below each stack.
const GUARD: usize = 4096;

/// Finished stacks one thread keeps for reuse: enough for the 64
/// processes of an all-to-all round, few enough that their resident
/// pages stay small.
pub(crate) const POOL_CAP: usize = 64;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

thread_local! {
    /// Finished stacks waiting for this thread's next first resume.
    /// Dropped, and so unmapped, when the thread exits.
    static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// Stacks mapped by this thread and not yet unmapped.
    static MAPPED: Cell<usize> = const { Cell::new(0) };
}

/// Stacks this thread has mapped and not unmapped (leaked and pooled
/// ones included).
#[cfg(test)]
pub(crate) fn mapped_stacks() -> usize {
    MAPPED.with(Cell::get)
}

/// Stacks in this thread's pool.
#[cfg(test)]
pub(crate) fn pooled_stacks() -> usize {
    POOL.with_borrow(Vec::len)
}

/// One mapped coroutine stack with its guard page; unmapped on drop.
struct Stack {
    base: NonNull<u8>,
}

impl Stack {
    /// A stack from this thread's pool, or a newly mapped one.
    fn take() -> Stack {
        POOL.try_with(|p| p.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(Stack::new)
    }

    /// Return a stack no frame is live on to this thread's pool; unmap
    /// it when the pool is full (or already gone at thread exit).
    fn recycle(self) {
        let mut spare = Some(self);
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_CAP {
                p.extend(spare.take());
            }
        });
    }

    fn new() -> Stack {
        let len = STACK_SIZE + GUARD;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            panic!(
                "mapping a {len}-byte coroutine stack failed: {}",
                std::io::Error::last_os_error()
            );
        }
        // SAFETY: the first page lies inside the mapping just made.
        if unsafe { mprotect(base, GUARD, PROT_NONE) } != 0 {
            panic!(
                "protecting a coroutine stack's guard page failed: {}",
                std::io::Error::last_os_error()
            );
        }
        #[cfg(test)]
        MAPPED.with(|m| m.set(m.get() + 1));
        Stack {
            base: NonNull::new(base.cast()).expect("mmap returned null"),
        }
    }

    /// Lay out a frame that the first [`switch`] into this stack pops,
    /// returning into [`trampoline`], which calls `entry(arg)`. Returns
    /// the stack pointer to switch to.
    fn prime(&self, entry: *const (), arg: *const ()) -> *mut u8 {
        // Default MXCSR (0x1F80, all exceptions masked, round to nearest)
        // in the low half, default x87 control word (0x037F) above it:
        // the floating-point state Rust code assumes.
        const CONTROL: usize = 0x037F << 32 | 0x1F80;
        let frame: [usize; 10] = [
            CONTROL,
            0,                                // r15
            0,                                // r14
            0,                                // r13
            entry as usize,                   // r12
            arg as usize,                     // rbx
            0,                                // rbp: ends frame-pointer walks
            trampoline as *const () as usize, // return address of the first switch
            0,                                // the trampoline's return address
            0,                                // pad: rsp ≡ 0 (mod 16) at the call
        ];
        // SAFETY: the frame fits in the top 80 bytes of the mapping,
        // which is page-aligned, so `sp` is 16-byte aligned.
        unsafe {
            let top = self.base.as_ptr().add(GUARD + STACK_SIZE);
            let sp = top.sub(std::mem::size_of_val(&frame));
            sp.cast::<[usize; 10]>().write(frame);
            sp
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` made; no frame on it
        // is live (callers leak a stack that still has some).
        // It cannot fail for a whole mapping; a failure would only leak it.
        let _ = unsafe { munmap(self.base.as_ptr().cast(), STACK_SIZE + GUARD) };
        #[cfg(test)]
        MAPPED.with(|m| m.set(m.get() - 1));
    }
}

/// Save the callee-saved registers and control words on the current
/// stack, store its stack pointer in `*save`, then restore the context
/// saved at `to` and return into it.
///
/// # Safety
///
/// `to` must be a stack pointer that a previous `switch` stored, or one
/// [`Stack::prime`] returned, whose stack is still mapped and has not
/// been switched to since.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        ".cfi_startproc",
        "push rbp",
        ".cfi_adjust_cfa_offset 8",
        ".cfi_rel_offset rbp, 0",
        "push rbx",
        ".cfi_adjust_cfa_offset 8",
        ".cfi_rel_offset rbx, 0",
        "push r12",
        ".cfi_adjust_cfa_offset 8",
        ".cfi_rel_offset r12, 0",
        "push r13",
        ".cfi_adjust_cfa_offset 8",
        ".cfi_rel_offset r13, 0",
        "push r14",
        ".cfi_adjust_cfa_offset 8",
        ".cfi_rel_offset r14, 0",
        "push r15",
        ".cfi_adjust_cfa_offset 8",
        ".cfi_rel_offset r15, 0",
        "sub rsp, 8",
        ".cfi_adjust_cfa_offset 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        // Both stacks hold the same frame shape, so the CFI above stays
        // true across the swap.
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        ".cfi_adjust_cfa_offset -8",
        "pop r15",
        ".cfi_adjust_cfa_offset -8",
        ".cfi_restore r15",
        "pop r14",
        ".cfi_adjust_cfa_offset -8",
        ".cfi_restore r14",
        "pop r13",
        ".cfi_adjust_cfa_offset -8",
        ".cfi_restore r13",
        "pop r12",
        ".cfi_adjust_cfa_offset -8",
        ".cfi_restore r12",
        "pop rbx",
        ".cfi_adjust_cfa_offset -8",
        ".cfi_restore rbx",
        "pop rbp",
        ".cfi_adjust_cfa_offset -8",
        ".cfi_restore rbp",
        "ret",
        ".cfi_endproc",
    )
}

/// Bottom frame of every coroutine stack: calls `r12(rbx)`, which never
/// returns. The undefined return address tells unwinders the chain ends.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

/// What a coroutine's body receives: the way back to its resumer and the
/// state `S` it shares with it.
pub(crate) struct Link<S> {
    /// Where the resumer's context is saved while the coroutine runs.
    resumer_sp: Cell<*mut u8>,
    /// Where the coroutine's context is saved while it is suspended.
    sp: Cell<*mut u8>,
    shared: S,
}

impl<S> Link<S> {
    /// Switch back to the resumer; returns when the coroutine is resumed.
    pub(crate) fn suspend(&self) {
        // SAFETY: a `&Link` reaches only code running on this coroutine's
        // stack, and that code runs only inside a `resume`, which saved
        // its own context in `resumer_sp` before switching here.
        unsafe { switch(self.sp.as_ptr(), self.resumer_sp.get()) }
    }
}

impl<S> Deref for Link<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.shared
    }
}

/// A coroutine's entry point.
pub(crate) type Body<S> = Box<dyn FnOnce(&Link<S>) + Send>;

/// Heap state both sides reach through a stable address.
struct Inner<S> {
    link: Link<S>,
    body: Cell<Option<Body<S>>>,
    /// Set by [`entry`] when the body has returned or unwound.
    outcome: Cell<Option<std::thread::Result<()>>>,
}

/// How a [`Coroutine::resume`] ended.
pub(crate) enum Resumed {
    /// The body called [`Link::suspend`].
    Suspended,
    /// The body returned (`Ok`) or panicked (`Err` with the payload). Its
    /// stack is already back in the pool.
    Finished(std::thread::Result<()>),
}

/// A body with a stack of its own, run on the thread that resumes it.
///
/// A started coroutine holds frames that may own values tied to the
/// resuming thread (thread-locals, `!Send` handles), so it must only be
/// resumed on the thread that started it. Not `Send` for that reason; the
/// engine vouches for moving unstarted ones (see `ProcPort`).
pub(crate) struct Coroutine<S> {
    inner: NonNull<Inner<S>>,
    /// Mapped from the first resume until the body finishes.
    stack: Option<Stack>,
    started: bool,
}

impl<S> Coroutine<S> {
    /// A coroutine that will run `body` with a [`Link`] to `shared`. Maps
    /// nothing until it is first resumed.
    pub(crate) fn new(shared: S, body: Body<S>) -> Self {
        let inner = Box::new(Inner {
            link: Link {
                resumer_sp: Cell::new(std::ptr::null_mut()),
                sp: Cell::new(std::ptr::null_mut()),
                shared,
            },
            body: Cell::new(Some(body)),
            outcome: Cell::new(None),
        });
        Coroutine {
            inner: NonNull::from(Box::leak(inner)),
            stack: None,
            started: false,
        }
    }

    fn inner(&self) -> &Inner<S> {
        // SAFETY: `inner` is a leaked box freed only by `drop`.
        unsafe { self.inner.as_ref() }
    }

    /// The state shared with the body.
    pub(crate) fn shared(&self) -> &S {
        &self.inner().link.shared
    }

    /// Whether the body has begun running.
    pub(crate) fn started(&self) -> bool {
        self.started
    }

    /// Run the body until it suspends or finishes. The first call takes
    /// a stack from the pool (mapping one if it is empty); the call that
    /// sees the body finish returns the stack to the pool.
    ///
    /// # Panics
    ///
    /// If the body has already finished.
    pub(crate) fn resume(&mut self) -> Resumed {
        if !self.started {
            let stack = Stack::take();
            let sp = stack.prime(entry::<S> as *const (), self.inner.as_ptr() as *const ());
            self.inner().link.sp.set(sp);
            self.stack = Some(stack);
            self.started = true;
        }
        assert!(self.stack.is_some(), "resumed a finished coroutine");
        let link = &self.inner().link;
        // SAFETY: `link.sp` is the context the body saved when it last
        // suspended (or the primed frame), on a stack that is still mapped.
        unsafe { switch(link.resumer_sp.as_ptr(), link.sp.get()) };
        match self.inner().outcome.take() {
            None => Resumed::Suspended,
            Some(outcome) => {
                // No frame is live on it: `entry` never runs again.
                self.stack.take().expect("checked above").recycle();
                Resumed::Finished(outcome)
            }
        }
    }
}

impl<S> Drop for Coroutine<S> {
    fn drop(&mut self) {
        if let Some(stack) = self.stack.take() {
            // Suspended: live frames on the stack point into `inner`, so
            // leak both rather than free memory under them.
            std::mem::forget(stack);
            return;
        }
        // SAFETY: unstarted or finished, so no frame refers to `inner`.
        drop(unsafe { Box::from_raw(self.inner.as_ptr()) });
    }
}

/// First Rust frame on a coroutine stack: runs the body under
/// `catch_unwind`, records the outcome and switches back for good.
unsafe extern "C" fn entry<S>(inner: *const Inner<S>) -> ! {
    // SAFETY: `resume` passed its own `inner`, which outlives this stack.
    let inner = unsafe { &*inner };
    let body = inner.body.take().expect("coroutine body runs once");
    let outcome = catch_unwind(AssertUnwindSafe(|| body(&inner.link)));
    inner.outcome.set(Some(outcome));
    inner.link.suspend();
    // `resume` recycles a finished coroutine's stack and never returns here.
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Coroutine<Cell<u32>> {
        Coroutine::new(
            Cell::new(0),
            Box::new(|link| {
                for _ in 0..3 {
                    link.set(link.get() + 1);
                    link.suspend();
                }
            }),
        )
    }

    /// Stacks this thread has mapped that are not in its pool: live or
    /// leaked ones.
    fn unpooled() -> usize {
        mapped_stacks() - pooled_stacks()
    }

    /// Assert the exact stack count: `mapped == live + pooled`, where
    /// `live` counts the stacks (running, suspended or leaked) beyond the
    /// `base` that were unpooled when the test began, and the pool is
    /// within its cap.
    #[track_caller]
    fn assert_stacks(base: usize, live: usize) {
        let pooled = pooled_stacks();
        assert!(pooled <= POOL_CAP, "the pool holds {pooled} > {POOL_CAP}");
        assert_eq!(mapped_stacks(), base + live + pooled);
    }

    /// Run `f` on a fresh thread, whose stack pool starts empty.
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("test thread panicked")
    }

    #[test]
    fn resume_alternates_with_suspend_and_pools_the_stack_on_return() {
        let base = unpooled();
        let pooled = pooled_stacks();
        let mut co = counter();
        assert!(!co.started());
        assert_stacks(base, 0);
        assert_eq!(
            pooled_stacks(),
            pooled,
            "nothing is taken before the first resume"
        );
        for n in 1..=3 {
            assert!(matches!(co.resume(), Resumed::Suspended));
            assert_eq!(co.shared().get(), n);
            assert_stacks(base, 1);
        }
        assert!(matches!(co.resume(), Resumed::Finished(Ok(()))));
        assert_stacks(base, 0);
        assert!(
            pooled_stacks() >= 1,
            "a finished coroutine's stack goes back to the pool"
        );
    }

    #[test]
    fn sequential_spawns_reuse_one_stack() {
        let (mapped, pooled) = on_fresh_thread(|| {
            let mut counts = Vec::new();
            for _ in 0..10 {
                let mut co = counter();
                while let Resumed::Suspended = co.resume() {}
                assert_eq!(co.shared().get(), 3);
                counts.push((mapped_stacks(), pooled_stacks()));
            }
            counts.into_iter().unzip::<_, _, Vec<_>, Vec<_>>()
        });
        assert_eq!(mapped, vec![1; 10], "one stack serves every run");
        assert_eq!(pooled, vec![1; 10]);
    }

    #[test]
    fn a_panicked_body_s_stack_is_pooled_and_its_reuse_runs_cleanly() {
        on_fresh_thread(|| {
            let mut bad = Coroutine::new((), Box::new(|_| panic!("inside")));
            assert!(matches!(bad.resume(), Resumed::Finished(Err(_))));
            assert_eq!((mapped_stacks(), pooled_stacks()), (1, 1));
            let mut co = counter();
            for n in 1..=3 {
                assert!(matches!(co.resume(), Resumed::Suspended));
                assert_eq!(co.shared().get(), n);
                assert_eq!((mapped_stacks(), pooled_stacks()), (1, 0));
            }
            assert!(matches!(co.resume(), Resumed::Finished(Ok(()))));
            assert_eq!((mapped_stacks(), pooled_stacks()), (1, 1));
        });
    }

    #[test]
    fn a_stack_leaked_while_suspended_is_never_pooled() {
        on_fresh_thread(|| {
            let mut co = counter();
            assert!(matches!(co.resume(), Resumed::Suspended));
            drop(co);
            assert_eq!(
                (mapped_stacks(), pooled_stacks()),
                (1, 0),
                "leaked, not pooled"
            );
            let mut next = counter();
            assert!(matches!(next.resume(), Resumed::Suspended));
            assert_eq!(
                mapped_stacks(),
                2,
                "the next coroutine maps a stack of its own"
            );
            while let Resumed::Suspended = next.resume() {}
            assert_eq!((mapped_stacks(), pooled_stacks()), (2, 1));
        });
    }

    #[test]
    fn a_panic_finishes_the_coroutine_with_its_payload() {
        let mut co = Coroutine::new((), Box::new(|_| panic!("inside")));
        match co.resume() {
            Resumed::Finished(Err(e)) => assert_eq!(e.downcast_ref::<&str>(), Some(&"inside")),
            _ => panic!("expected a panicking finish"),
        }
    }

    #[test]
    fn floating_point_control_state_is_per_coroutine() {
        fn mxcsr() -> u32 {
            let mut m = 0u32;
            // SAFETY: stores MXCSR into a local.
            unsafe { core::arch::asm!("stmxcsr [{}]", in(reg) &mut m, options(nostack)) };
            m
        }
        fn set_mxcsr(m: u32) {
            // SAFETY: loads a valid MXCSR value from a local.
            unsafe { core::arch::asm!("ldmxcsr [{}]", in(reg) &m, options(nostack)) };
        }
        let outer = mxcsr();
        let mut co = Coroutine::new(
            Cell::new(0u32),
            Box::new(|link| {
                // Flush-to-zero inside the coroutine only.
                set_mxcsr(mxcsr() | 0x8000);
                link.suspend();
                link.set(mxcsr());
            }),
        );
        assert!(matches!(co.resume(), Resumed::Suspended));
        assert_eq!(mxcsr(), outer, "the coroutine's MXCSR stays on its side");
        assert!(matches!(co.resume(), Resumed::Finished(Ok(()))));
        assert_eq!(co.shared().get() & 0x8000, 0x8000);
        assert_eq!(mxcsr(), outer);
    }

    // ------------------------------------------------------------------
    // Engine-level transport
    // ------------------------------------------------------------------

    use crate::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    fn one_host() -> (Grid, HostId) {
        let mut b = GridBuilder::new();
        let c = b.cluster("C");
        let h = b.add_hosts(c, 1, &HostSpec::with_speed(1e9))[0];
        (b.build().unwrap(), h)
    }

    /// Run a process that records the thread its code ran on.
    fn spawn_thread_probe(eng: &mut Engine, h: HostId) -> Arc<Mutex<Option<ThreadId>>> {
        let seen = Arc::new(Mutex::new(None));
        let s = seen.clone();
        eng.spawn("probe", h, move |ctx| {
            ctx.compute(1e6);
            *s.lock().unwrap() = Some(std::thread::current().id());
        });
        seen
    }

    #[test]
    fn processes_run_on_the_thread_that_called_run() {
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        let seen = spawn_thread_probe(&mut eng, h);
        assert_eq!(eng.run().completed, vec!["probe".to_string()]);
        assert_eq!(*seen.lock().unwrap(), Some(std::thread::current().id()));
    }

    #[test]
    fn an_engine_built_on_one_thread_runs_on_another() {
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        let seen = spawn_thread_probe(&mut eng, h);
        let runner = std::thread::spawn(move || {
            let report = eng.run();
            (report.completed, std::thread::current().id())
        });
        let (completed, runner_id) = runner.join().unwrap();
        assert_eq!(completed, vec!["probe".to_string()]);
        assert_eq!(*seen.lock().unwrap(), Some(runner_id));
        assert_ne!(runner_id, std::thread::current().id());
    }

    #[test]
    fn killing_a_suspended_process_runs_its_drops() {
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        let token = Arc::new(());
        let held = token.clone();
        eng.spawn("waiter", h, move |ctx| {
            let _held = held;
            ctx.recv(mail_key(&[1])); // nothing is ever sent
        });
        let base = unpooled();
        let report = eng.run();
        assert_eq!(report.unfinished, vec!["waiter".to_string()]);
        assert_eq!(Arc::strong_count(&token), 1, "the kill unwound the process");
        // The unwound stack went back to the pool (or was unmapped).
        assert_stacks(base, 0);
    }

    #[test]
    fn dropping_an_engine_that_never_ran_frees_bodies_unrun() {
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        let token = Arc::new(());
        let ran = Arc::new(AtomicBool::new(false));
        for _ in 0..3 {
            let (held, ran) = (token.clone(), ran.clone());
            eng.spawn("never", h, move |_| {
                let _held = held;
                ran.store(true, Ordering::Relaxed);
            });
        }
        let before = mapped_stacks();
        drop(eng);
        assert_eq!(Arc::strong_count(&token), 1);
        assert!(!ran.load(Ordering::Relaxed));
        assert_eq!(mapped_stacks(), before, "no stack is mapped before a run");
    }

    #[test]
    fn a_panicking_process_is_reported_and_can_take_backtraces() {
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        eng.panic_on_failure = false;
        eng.spawn("bad", h, |ctx| {
            ctx.compute(1e6);
            let bt = std::backtrace::Backtrace::force_capture();
            assert_eq!(bt.status(), std::backtrace::BacktraceStatus::Captured);
            assert!(!bt.to_string().is_empty());
            panic!("boom at {}", ctx.now());
        });
        let report = eng.run();
        assert_eq!(
            report.failed,
            vec![("bad".to_string(), "boom at 0.001".to_string())]
        );
    }

    #[test]
    fn a_process_may_recurse_through_a_mebibyte_of_frames() {
        /// Recurse until the frames below `top` span 1 MiB; returns the span.
        fn descend(top: usize) -> usize {
            let frame = std::hint::black_box([0u8; 1024]);
            let here = frame.as_ptr() as usize;
            if top - here >= 1 << 20 {
                return top - here;
            }
            descend(top) + frame[0] as usize
        }
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        eng.spawn("deep", h, |ctx| {
            ctx.compute(1e6);
            let top = std::hint::black_box(0u8);
            let span = descend(&top as *const u8 as usize);
            ctx.trace("span", span as f64);
        });
        let report = eng.run();
        assert!(report.trace.last_value("span").unwrap() >= (1 << 20) as f64);
    }

    #[test]
    fn a_spawn_storm_leaves_only_pooled_stacks_mapped() {
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        for _ in 0..10_000 {
            eng.spawn("w", h, |ctx| ctx.compute(1e3));
        }
        let base = unpooled();
        let report = eng.run();
        assert_eq!(report.completed.len(), 10_000);
        assert_stacks(base, 0);
        assert_eq!(
            pooled_stacks(),
            POOL_CAP,
            "10 000 finished stacks fill the pool; the rest are unmapped"
        );
    }

    /// Holds the process's `Ctx` and makes a blocking call when dropped,
    /// which it is while a kill unwinds the process.
    struct BlockOnDrop<'a>(&'a mut Ctx);

    impl Drop for BlockOnDrop<'_> {
        fn drop(&mut self) {
            self.0.sleep(1.0);
        }
    }

    #[test]
    fn finish_terminates_when_a_process_blocks_while_unwinding() {
        // On its own thread: the stuck unwind stays counted as a panic in
        // progress on the thread that ran the engine.
        let outcome = std::thread::spawn(|| {
            let mut b = GridBuilder::new();
            let c = b.cluster("C");
            let hs = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
            let mut eng = Engine::new(b.build().unwrap());
            eng.fail_host_at(hs[1], 1.0);
            let token = Arc::new(());
            for (name, host) in [("stuck", hs[0]), ("dead", hs[1])] {
                eng.spawn(name, host, move |ctx| {
                    let guard = BlockOnDrop(ctx);
                    guard.0.recv(mail_key(&[1]));
                });
            }
            let held = token.clone();
            eng.spawn("after", hs[0], move |ctx| {
                let _held = held;
                ctx.recv(mail_key(&[2]));
            });
            let base = unpooled();
            let report = eng.run();
            let pooled = pooled_stacks();
            (
                report,
                base,
                mapped_stacks(),
                pooled,
                Arc::strong_count(&token),
            )
        })
        .join()
        .unwrap();
        let (report, base, mapped, pooled, count) = outcome;
        assert_eq!(
            report.unfinished,
            vec!["stuck".to_string(), "after".to_string()]
        );
        assert_eq!(report.died, vec!["dead".to_string()]);
        assert_eq!(count, 1, "processes after the stuck one are still unwound");
        assert!(pooled <= POOL_CAP);
        assert_eq!(
            mapped,
            base + 2 + pooled,
            "the two stuck stacks are leaked, neither freed nor pooled"
        );
        assert_eq!(pooled, 1, "the unwound \"after\" stack is pooled");
    }

    #[test]
    fn a_kernel_panic_leaves_suspended_processes_unresumed() {
        let (grid, h) = one_host();
        let mut eng = Engine::new(grid);
        let token = Arc::new(());
        let held = token.clone();
        eng.spawn("waiter", h, move |ctx| {
            let _held = held;
            ctx.recv(mail_key(&[1]));
        });
        eng.spawn("culprit", h, |ctx| {
            ctx.inject_load(HostId(99), 1.0); // no such host: the kernel panics
            ctx.sleep(1.0);
        });
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| eng.run()));
        assert!(run.is_err());
        assert_eq!(
            Arc::strong_count(&token),
            2,
            "the dropped engine never resumed the waiter to unwind it"
        );
    }
}
