//! MPI process swapping (§4.2, after Sievert & Casanova).
//!
//! The application is launched over `n_phys` machines but computes on only
//! `n_active` of them (the *active set*); the rest idle in the *inactive
//! set*. User communication is addressed to **logical** ranks `0..n_active`
//! and resolved through a shared mapping, so when the rescheduler swaps a
//! slow active machine for a fast inactive one, peers transparently start
//! talking to the new host. Swaps happen at application-defined swap points
//! (iteration boundaries): the outgoing process ships its logical rank's
//! state to the incoming process and joins the inactive set.
//!
//! This mechanism trades flexibility for cost: *"the processor pool is
//! limited to the original set of machines, and the data allocation can not
//! be modified"* — but no restart, no checkpoint reads across the wide
//! area, and almost no application changes.

use crate::comm::{Comm, Mapping, DEFAULT_EAGER_THRESHOLD, INTERNAL_TAG_BASE};
use crate::world::{host_labels, next_world_id, RankStats};
use grads_obs::{MsgKind, RankState, Recorder, WorldTag};
use grads_sim::prelude::*;
use grads_sim::process::mail_key;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

const SWAP_NS: u64 = 0x5357_4150; // "SWAP"

/// Recorder tag for swap-state handoff messages. Both halves key on the
/// *destination* slot (the receiver does not know who hands over to it),
/// which is unambiguous: activations of one slot are strictly sequential.
const SWAP_HANDOFF_TAG: u64 = INTERNAL_TAG_BASE + 32;

/// Message delivered to a physical process's activation mailbox.
enum SwapMsg {
    /// Take over a logical rank, with its application state.
    Takeover {
        logical: usize,
        state: Box<dyn Any + Send>,
    },
    /// The application is complete; exit.
    Shutdown,
}

/// Errors from swap requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The logical rank does not exist.
    BadLogical(usize),
    /// The requested target is not currently inactive.
    TargetNotInactive(usize),
    /// The logical rank already has a pending swap.
    AlreadyPending(usize),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::BadLogical(l) => write!(f, "no such logical rank {l}"),
            SwapError::TargetNotInactive(p) => write!(f, "physical process {p} is not inactive"),
            SwapError::AlreadyPending(l) => {
                write!(f, "logical rank {l} already has a pending swap")
            }
        }
    }
}

impl std::error::Error for SwapError {}

struct SwapShared {
    /// logical rank -> physical slot currently serving it.
    logical_to_phys: Vec<usize>,
    /// physical slot -> logical rank (None = inactive).
    phys_role: Vec<Option<usize>>,
    /// physical slot with a pending swap-out -> target physical slot.
    pending: HashMap<usize, usize>,
    /// Physical slots reserved as targets of pending swaps.
    reserved: Vec<bool>,
    /// Number of swaps completed.
    swaps_done: u64,
}

/// Handle to a swap-enabled world, shared by workers, the contract monitor
/// and the swap rescheduler.
#[derive(Clone)]
pub struct SwapWorld {
    /// World id (namespaces all mailbox keys).
    pub world_id: u64,
    /// Host of each physical slot.
    pub phys_hosts: Arc<Vec<HostId>>,
    /// Active-set size.
    pub n_active: usize,
    shared: Arc<Mutex<SwapShared>>,
    /// Per-physical-slot profiling stats.
    pub stats: Arc<Vec<Arc<Mutex<RankStats>>>>,
    /// Flight recorder; one track per *physical slot* (logical ranks move
    /// between slots, so slot timelines are the stable view).
    rec: Recorder,
    wtag: WorldTag,
}

impl SwapWorld {
    /// Create a swap world over `phys_hosts`, computing on the first
    /// `n_active` slots initially.
    pub fn new(phys_hosts: Vec<HostId>, n_active: usize) -> Self {
        assert!(n_active >= 1, "need at least one active process");
        assert!(
            n_active <= phys_hosts.len(),
            "active set larger than the machine pool"
        );
        let n = phys_hosts.len();
        let stats = (0..n)
            .map(|_| Arc::new(Mutex::new(RankStats::default())))
            .collect();
        SwapWorld {
            world_id: next_world_id(),
            phys_hosts: Arc::new(phys_hosts),
            n_active,
            shared: Arc::new(Mutex::new(SwapShared {
                logical_to_phys: (0..n_active).collect(),
                phys_role: (0..n).map(|p| (p < n_active).then_some(p)).collect(),
                pending: HashMap::new(),
                reserved: vec![false; n],
                swaps_done: 0,
            })),
            stats: Arc::new(stats),
            rec: Recorder::disabled(),
            wtag: WorldTag::NONE,
        }
    }

    /// Attach a flight recorder to every slot of this world. Usually done
    /// by [`launch_swap_world`], which also registers the tracks.
    pub fn set_recorder(&mut self, rec: Recorder, wtag: WorldTag) {
        self.rec = rec;
        self.wtag = wtag;
    }

    /// The attached flight recorder and world tag (disabled by default).
    pub fn recorder(&self) -> (&Recorder, WorldTag) {
        (&self.rec, self.wtag)
    }

    /// Total machine-pool size.
    pub fn n_phys(&self) -> usize {
        self.phys_hosts.len()
    }

    /// Logical rank a physical slot currently serves, if active.
    pub fn role_of(&self, phys: usize) -> Option<usize> {
        self.shared.lock().phys_role[phys]
    }

    /// Physical slot currently serving a logical rank.
    pub fn phys_of(&self, logical: usize) -> usize {
        self.shared.lock().logical_to_phys[logical]
    }

    /// Host currently serving a logical rank.
    pub fn host_of_logical(&self, logical: usize) -> HostId {
        self.phys_hosts[self.phys_of(logical)]
    }

    /// Physical slots currently inactive and not reserved as swap targets.
    pub fn available_inactive(&self) -> Vec<usize> {
        let s = self.shared.lock();
        (0..self.n_phys())
            .filter(|&p| s.phys_role[p].is_none() && !s.reserved[p])
            .collect()
    }

    /// Number of completed swaps.
    pub fn swaps_done(&self) -> u64 {
        self.shared.lock().swaps_done
    }

    /// Ask the process serving `logical` to hand its rank to inactive slot
    /// `to_phys` at its next swap point.
    pub fn request_swap(&self, logical: usize, to_phys: usize) -> Result<(), SwapError> {
        let mut s = self.shared.lock();
        if logical >= self.n_active {
            return Err(SwapError::BadLogical(logical));
        }
        if to_phys >= s.phys_role.len() || s.phys_role[to_phys].is_some() || s.reserved[to_phys] {
            return Err(SwapError::TargetNotInactive(to_phys));
        }
        let out_phys = s.logical_to_phys[logical];
        if s.pending.contains_key(&out_phys) {
            return Err(SwapError::AlreadyPending(logical));
        }
        s.pending.insert(out_phys, to_phys);
        s.reserved[to_phys] = true;
        Ok(())
    }

    fn activation_key(&self, phys: usize) -> MailKey {
        mail_key(&[self.world_id, SWAP_NS, phys as u64])
    }

    /// At a swap point: if a swap is pending for `phys`, ship `state` to
    /// the incoming process and return `None` (the caller becomes
    /// inactive); otherwise hand `state` back.
    pub fn swap_out_if_requested<S: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        phys: usize,
        state: S,
        state_bytes: f64,
    ) -> Option<S> {
        let (to_phys, logical) = {
            let mut s = self.shared.lock();
            let Some(&to_phys) = s.pending.get(&phys) else {
                return Some(state);
            };
            let logical = s.phys_role[phys].expect("swap-out of an active process");
            // Commit the remap before the transfer: peers immediately route
            // logical-rank traffic to the new host (messages in flight are
            // keyed by logical rank, so nothing is lost).
            s.pending.remove(&phys);
            s.reserved[to_phys] = false;
            s.logical_to_phys[logical] = to_phys;
            s.phys_role[phys] = None;
            s.phys_role[to_phys] = Some(logical);
            s.swaps_done += 1;
            (to_phys, logical)
        };
        let key = self.activation_key(to_phys);
        let dst = self.phys_hosts[to_phys];
        let t0 = self.rec.is_enabled().then(|| ctx.now());
        ctx.send(
            key,
            dst,
            state_bytes,
            Box::new(SwapMsg::Takeover {
                logical,
                state: Box::new(state),
            }),
        );
        if let Some(t0) = t0 {
            let t1 = ctx.now();
            // The outgoing slot's handoff is migration downtime, and the
            // state transfer is a recorded (Swap-class) message so the
            // critical path can cross it.
            if t1 > t0 {
                self.rec
                    .interval(self.wtag, phys, RankState::Migrating, t0, t1);
                // On an internals-enabled recorder, the shipping leg is
                // also a per-hop span nested in the Migrating interval.
                self.rec.hop(
                    self.wtag,
                    phys,
                    RankState::SendBlocked,
                    Some("handoff"),
                    t0,
                    t1,
                );
            }
            self.rec.send_msg(
                self.wtag,
                phys,
                to_phys,
                to_phys,
                SWAP_HANDOFF_TAG,
                state_bytes,
                t0,
                t1,
                false,
                MsgKind::Swap,
            );
        }
        None
    }

    /// Block until this inactive slot is activated (returns the logical
    /// rank and the transferred state) or shut down (returns `None`).
    pub fn wait_activation<S: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        phys: usize,
    ) -> Option<(usize, S)> {
        let key = self.activation_key(phys);
        let t0 = self.rec.is_enabled().then(|| ctx.now());
        let msg = ctx.recv(key);
        let takeover = match *msg
            .downcast::<SwapMsg>()
            .expect("swap mailbox carries SwapMsg")
        {
            SwapMsg::Takeover { logical, state } => {
                let state = *state
                    .downcast::<S>()
                    .unwrap_or_else(|_| panic!("swap state type mismatch on slot {phys}"));
                Some((logical, state))
            }
            SwapMsg::Shutdown => None,
        };
        if let Some(t0) = t0 {
            let t1 = ctx.now();
            if t1 > t0 {
                self.rec
                    .interval(self.wtag, phys, RankState::SwappedOut, t0, t1);
            }
            // Shutdown releases are not recorded as messages (the matching
            // send half would be pure middleware noise); takeovers are, so
            // the state transfer appears in the timeline.
            if takeover.is_some() {
                self.rec
                    .recv_msg(self.wtag, phys, phys, phys, SWAP_HANDOFF_TAG, t0, t1);
                if t1 > t0 {
                    // Split the receiving end of the handoff out of the
                    // SwappedOut block (internals-enabled recorders only).
                    self.rec.hop(
                        self.wtag,
                        phys,
                        RankState::RecvBlocked,
                        Some("handoff"),
                        t0,
                        t1,
                    );
                }
            }
        }
        takeover
    }

    /// Release every inactive slot with a shutdown message. Call once from
    /// exactly one finishing active rank (conventionally logical 0).
    pub fn shutdown(&self, ctx: &mut Ctx) {
        let inactive: Vec<usize> = {
            let s = self.shared.lock();
            (0..self.n_phys())
                .filter(|&p| s.phys_role[p].is_none())
                .collect()
        };
        for p in inactive {
            let key = self.activation_key(p);
            ctx.isend(key, self.phys_hosts[p], 64.0, Box::new(SwapMsg::Shutdown));
        }
    }

    /// Build a communicator for the logical rank served by physical slot
    /// `phys`. Unordered keys (rank state migrates between processes), so
    /// applications must disambiguate in-flight messages with tags —
    /// iteration numbers work well.
    pub fn make_comm(&self, phys: usize, logical: usize) -> Comm {
        let shared = self.shared.clone();
        let hosts = self.phys_hosts.clone();
        let mut comm = Comm::new(
            self.world_id,
            0,
            logical,
            self.n_active,
            Mapping::Dynamic(Arc::new(move |l| hosts[shared.lock().logical_to_phys[l]])),
            DEFAULT_EAGER_THRESHOLD,
            false,
            self.stats[phys].clone(),
        );
        // Recorded intervals land on the *slot*'s track even though message
        // endpoints carry logical ranks.
        comm.set_recorder(self.rec.clone(), self.wtag, phys);
        comm
    }
}

/// Worker skeleton: runs the full active/inactive life cycle of one
/// physical slot.
///
/// * `init(logical)` builds the initial state for slots that start active.
/// * `step(ctx, comm, state)` runs one iteration; return `true` when the
///   application is complete.
///
/// Between iterations the worker visits a swap point; on swap-out it ships
/// its state (`state_bytes` on the wire) and waits for reactivation or
/// shutdown.
pub fn run_swappable<S, FI, FS>(
    ctx: &mut Ctx,
    sw: &SwapWorld,
    phys: usize,
    state_bytes: f64,
    init: FI,
    step: FS,
) where
    S: Send + 'static,
    FI: Fn(usize) -> S,
    FS: Fn(&mut Ctx, &mut Comm, &mut S) -> bool,
{
    let mut current: Option<(usize, S)> = sw.role_of(phys).map(|l| (l, init(l)));
    loop {
        match current.take() {
            Some((logical, mut state)) => {
                let mut comm = sw.make_comm(phys, logical);
                loop {
                    let done = step(ctx, &mut comm, &mut state);
                    if done {
                        if logical == 0 {
                            sw.shutdown(ctx);
                        }
                        return;
                    }
                    match sw.swap_out_if_requested(ctx, phys, state, state_bytes) {
                        Some(s) => state = s,
                        None => break, // now inactive
                    }
                }
            }
            None => match sw.wait_activation::<S>(ctx, phys) {
                Some((logical, state)) => current = Some((logical, state)),
                None => return,
            },
        }
    }
}

/// Launch a swap world: one simulated process per physical slot, all
/// running [`run_swappable`] with the given callbacks, wired into the
/// engine's flight recorder. Each *physical slot* gets a track labelled
/// with its host, so swap activity shows up as `SwappedOut`/`Migrating`
/// intervals and swap-state handoff messages; the world's tag is
/// [`SwapWorld::recorder`]'s. Under the engine's default disabled
/// recorder nothing is recorded.
pub fn launch_swap_world<S, FI, FS>(
    eng: &mut Engine,
    name: &str,
    phys_hosts: &[HostId],
    n_active: usize,
    state_bytes: f64,
    init: FI,
    step: FS,
) -> SwapWorld
where
    S: Send + 'static,
    FI: Fn(usize) -> S + Send + Sync + 'static,
    FS: Fn(&mut Ctx, &mut Comm, &mut S) -> bool + Send + Sync + 'static,
{
    let rec = eng.recorder().clone();
    let wtag = rec.register_world(name, &host_labels(eng.grid(), phys_hosts));
    let mut sw = SwapWorld::new(phys_hosts.to_vec(), n_active);
    sw.set_recorder(rec.clone(), wtag);
    let init = Arc::new(init);
    let step = Arc::new(step);
    for (phys, &host) in phys_hosts.iter().enumerate() {
        let sw2 = sw.clone();
        let init2 = init.clone();
        let step2 = step.clone();
        let pid = eng.spawn(&format!("{name}-p{phys}"), host, move |ctx| {
            run_swappable(
                ctx,
                &sw2,
                phys,
                state_bytes,
                |l| init2(l),
                |c, comm, s| step2(c, comm, s),
            );
        });
        rec.bind_pid(pid.0, wtag, phys);
    }
    sw
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn grid(speeds: &[f64]) -> (Grid, Vec<HostId>) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        b.local_link(c, 1e8, 1e-4);
        let hs: Vec<HostId> = speeds
            .iter()
            .map(|&s| b.add_host(c, &HostSpec::with_speed(s)))
            .collect();
        (b.build().unwrap(), hs)
    }

    /// Iterative app: each active rank does fixed work per iteration, then
    /// all active ranks exchange via logical-rank messages tagged by
    /// iteration.
    fn iter_step(iters: u64) -> impl Fn(&mut Ctx, &mut Comm, &mut u64) -> bool + Send + Sync {
        move |ctx, comm, iter| {
            comm.compute(ctx, 1e8);
            // Ring exchange among actives, iteration-tagged.
            let n = comm.size();
            if n > 1 {
                let next = (comm.rank() + 1) % n;
                let prev = (comm.rank() + n - 1) % n;
                comm.isend(ctx, next, *iter, 1000.0, Box::new(*iter));
                let got: u64 = comm.recv_t(ctx, prev, *iter);
                assert_eq!(got, *iter);
            }
            if comm.rank() == 0 {
                let t = ctx.now();
                ctx.trace("iter", *iter as f64);
                ctx.trace("iter_t", t);
            }
            *iter += 1;
            *iter >= iters
        }
    }

    #[test]
    fn runs_without_swaps() {
        let (g, hs) = grid(&[1e9, 1e9, 1e9, 1e9]);
        let mut eng = Engine::new(g);
        launch_swap_world(&mut eng, "app", &hs, 3, 1e6, |_| 0u64, iter_step(5));
        let r = eng.run();
        assert_eq!(r.completed.len(), 4, "all slots exit: {:?}", r.unfinished);
        assert_eq!(r.trace.last_value("iter"), Some(4.0));
    }

    #[test]
    fn swap_moves_logical_rank_and_app_finishes() {
        let (g, hs) = grid(&[1e9, 1e9, 1e9, 2e9]);
        let mut eng = Engine::new(g);
        let sw = launch_swap_world(&mut eng, "app", &hs, 3, 1e6, |_| 0u64, iter_step(10));
        // Controller: swap logical 1 onto the fast inactive slot 3 early on.
        let sw2 = sw.clone();
        eng.spawn("controller", hs[0], move |ctx| {
            ctx.sleep(0.05);
            sw2.request_swap(1, 3).unwrap();
        });
        let r = eng.run();
        assert_eq!(r.trace.last_value("iter"), Some(9.0));
        assert_eq!(sw.swaps_done(), 1);
        assert_eq!(sw.phys_of(1), 3);
        assert_eq!(sw.role_of(0), Some(0));
        assert_eq!(sw.role_of(1), None);
        // Slot 1's worker must have exited cleanly via shutdown.
        assert_eq!(r.completed.len(), 5, "unfinished: {:?}", r.unfinished);
    }

    #[test]
    fn swap_to_fast_host_speeds_up_progress() {
        // Active rank on a slow host; inactive fast host available.
        let run = |do_swap: bool| {
            let (g, hs) = grid(&[1e8, 1e9]);
            let mut eng = Engine::new(g);
            let sw = launch_swap_world(&mut eng, "app", &hs, 1, 1e4, |_| 0u64, iter_step(20));
            if do_swap {
                let sw2 = sw.clone();
                eng.spawn("controller", hs[0], move |ctx| {
                    ctx.sleep(0.1);
                    sw2.request_swap(0, 1).unwrap();
                });
            }
            eng.run().end_time
        };
        let t_no = run(false);
        let t_swap = run(true);
        assert!(
            t_swap < t_no * 0.5,
            "swap should speed up: {t_swap} vs {t_no}"
        );
    }

    #[test]
    fn request_swap_validation() {
        let sw = SwapWorld::new(vec![HostId(0), HostId(1), HostId(2)], 2);
        assert_eq!(sw.request_swap(5, 2), Err(SwapError::BadLogical(5)));
        assert_eq!(sw.request_swap(0, 1), Err(SwapError::TargetNotInactive(1)));
        assert!(sw.request_swap(0, 2).is_ok());
        // Slot 2 now reserved.
        assert_eq!(sw.request_swap(1, 2), Err(SwapError::TargetNotInactive(2)));
        assert_eq!(sw.request_swap(0, 2), Err(SwapError::TargetNotInactive(2)));
        assert!(sw.available_inactive().is_empty());
    }

    #[test]
    fn state_travels_with_the_rank() {
        // Single active rank accumulates into its state; a mid-run swap
        // must not lose the accumulator.
        let (g, hs) = grid(&[1e9, 1e9]);
        let mut eng = Engine::new(g);
        let sw = launch_swap_world(
            &mut eng,
            "app",
            &hs,
            1,
            1e4,
            |_| (0u64, 0u64), // (iter, acc)
            move |ctx, comm, st| {
                comm.compute(ctx, 1e7);
                st.1 += st.0 * st.0;
                st.0 += 1;
                if st.0 >= 10 {
                    ctx.trace("acc", st.1 as f64);
                    return true;
                }
                false
            },
        );
        let sw2 = sw.clone();
        eng.spawn("controller", hs[0], move |ctx| {
            ctx.sleep(0.03);
            sw2.request_swap(0, 1).unwrap();
        });
        let r = eng.run();
        let want: u64 = (0..10).map(|k| k * k).sum();
        assert_eq!(r.trace.last_value("acc"), Some(want as f64));
        assert_eq!(sw.swaps_done(), 1);
    }
}
