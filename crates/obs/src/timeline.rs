//! Per-rank flight recorder: state intervals, matched message records, and
//! the analyses that explain a run's makespan (wait-state attribution à la
//! Scalasca, a P×P communication matrix, critical-path extraction) plus
//! Chrome-trace and text exporters.
//!
//! The recorder follows the same determinism contract as the rest of
//! `grads-obs`: every timestamp is supplied by the caller from `ctx.now()`
//! (the recorder never reads time itself), the kernel serializes all
//! recording calls so append order is reproducible, and a disabled
//! [`Recorder`] handle turns every call into a single `Option` test with no
//! allocation. Crucially, the recorder never stores the kernel's world ids
//! (they come from a process-global counter and differ between two runs in
//! the same process); worlds are identified by the deterministic ordinal
//! assigned at [`Recorder::register_world`] time.
//!
//! Raw operations (intervals, send/recv halves, bridges) are appended
//! during the run; [`Recorder::timeline`] builds the analyzed [`Timeline`]
//! afterwards: halves are matched FIFO per `(world, src, dst, tag)` —
//! valid because the communicator's non-overtaking design delivers same-key
//! messages in post order — and per-track intervals are sorted by start
//! time (they are appended in completion order, which can interleave only
//! across tracks, never within one).

use crate::json::{push_string, ChromeTrace};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// What a rank is doing over one interval of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RankState {
    /// Charged computation (`Comm::compute`).
    Compute,
    /// Blocked in a point-to-point send (rendezvous wait).
    SendBlocked,
    /// Blocked in a point-to-point receive.
    RecvBlocked,
    /// Inside a collective operation (outermost call; inner messages are
    /// recorded as message halves flagged collective).
    Collective,
    /// Inactive in a swap world, waiting for activation.
    SwappedOut,
    /// Migration downtime: shipping swap state, or the stop → checkpoint →
    /// rebind → relaunch window bridged across incarnations.
    Migrating,
    /// Nothing recorded (derived from gaps, never recorded explicitly).
    Idle,
}

impl RankState {
    /// Stable display name (used by both exporters).
    pub fn name(self) -> &'static str {
        match self {
            RankState::Compute => "Compute",
            RankState::SendBlocked => "SendBlocked",
            RankState::RecvBlocked => "RecvBlocked",
            RankState::Collective => "Collective",
            RankState::SwappedOut => "SwappedOut",
            RankState::Migrating => "Migrating",
            RankState::Idle => "Idle",
        }
    }
}

/// How a matched message was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// User point-to-point traffic.
    Pt2pt,
    /// Traffic inside a collective operation.
    Collective,
    /// Swap-state handoff between physical slots (excluded from the
    /// communication matrix; it is middleware, not application traffic).
    Swap,
}

/// Deterministic world ordinal assigned by [`Recorder::register_world`].
///
/// This — not the kernel's global world id — keys every recorded
/// operation, so two runs in one process produce identical timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorldTag(pub u32);

impl WorldTag {
    /// Sentinel returned by a disabled recorder; recording calls carrying
    /// it are ignored.
    pub const NONE: WorldTag = WorldTag(u32::MAX);
}

/// Index of one per-rank track in the built [`Timeline`] (and in the raw
/// log; the two orderings are identical).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u32);

// ---------------------------------------------------------------------
// Raw log (write side)
// ---------------------------------------------------------------------

#[derive(Debug)]
struct WorldMeta {
    name: String,
    base: u32,
    n: u32,
}

#[derive(Debug)]
struct TrackMeta {
    world: u32,
    rank: u32,
    host: String,
    start: f64,
    end: f64,
    started: bool,
    ended: bool,
}

#[derive(Debug)]
struct RawInterval {
    track: u32,
    state: RankState,
    detail: Option<&'static str>,
    t0: f64,
    t1: f64,
}

#[derive(Debug)]
struct RawSend {
    track: u32,
    src: u32,
    dst: u32,
    tag: u64,
    bytes: f64,
    t_post: f64,
    t_complete: f64,
    eager: bool,
    kind: MsgKind,
}

#[derive(Debug)]
struct RawRecv {
    track: u32,
    src: u32,
    dst: u32,
    tag: u64,
    t_post: f64,
    t_complete: f64,
}

#[derive(Debug)]
struct RawBridge {
    from_track: u32,
    t_from: f64,
    to_world: u32,
    label: &'static str,
}

#[derive(Debug, Default)]
struct TimelineLog {
    worlds: Vec<WorldMeta>,
    tracks: Vec<TrackMeta>,
    intervals: Vec<RawInterval>,
    /// Per-hop spans nested inside collectives / swap handoffs; only
    /// populated when `internals` is set (see
    /// [`Recorder::enabled_with_internals`]).
    hops: Vec<RawInterval>,
    sends: Vec<RawSend>,
    recvs: Vec<RawRecv>,
    bridges: Vec<RawBridge>,
    pid_track: HashMap<u32, u32>,
    internals: bool,
}

impl TimelineLog {
    fn track_of(&self, w: WorldTag, rank: usize) -> Option<u32> {
        let wm = self.worlds.get(w.0 as usize)?;
        let r = rank as u32;
        (r < wm.n).then_some(wm.base + r)
    }
}

/// Handle to one flight-recorder log. Cloning shares the log (`Arc`
/// inside); the default handle is disabled and records nothing.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<TimelineLog>>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recording handle with an empty log.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Mutex::new(TimelineLog::default()))),
        }
    }

    /// A recording handle that additionally records *collective
    /// internals*: per-hop send/recv spans inside collective trees and
    /// swap handoffs (see [`Recorder::hop`]). Internals never change the
    /// simulated run — the hop spans reuse timestamps their callers
    /// already read — they only add nested [`Track::hops`] to the built
    /// [`Timeline`], making wait-state attribution and the critical path
    /// honest for bcast-heavy applications.
    pub fn enabled_with_internals() -> Self {
        Recorder {
            inner: Some(Arc::new(Mutex::new(TimelineLog {
                internals: true,
                ..TimelineLog::default()
            }))),
        }
    }

    /// A no-op handle: every recording call returns after one `Option`
    /// test. This is the `Default`.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether per-hop collective internals are being recorded.
    pub fn internals_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.lock().internals)
    }

    /// Record one per-hop span nested inside a collective operation (or a
    /// swap handoff) on `(world, track_rank)`. `detail` names the
    /// enclosing operation (`"bcast"`, `"reduce"`, `"handoff"`, …). No-op
    /// unless the handle was created with
    /// [`Recorder::enabled_with_internals`].
    #[inline]
    pub fn hop(
        &self,
        w: WorldTag,
        track_rank: usize,
        state: RankState,
        detail: Option<&'static str>,
        t0: f64,
        t1: f64,
    ) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            if !log.internals {
                return;
            }
            if let Some(track) = log.track_of(w, track_rank) {
                log.hops.push(RawInterval {
                    track,
                    state,
                    detail,
                    t0,
                    t1,
                });
            }
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register a world and one track per rank. `rank_hosts[r]` is the
    /// human-readable host label serving rank `r` (for swap worlds, pass
    /// one label per *physical slot*; tracks then follow slots, not
    /// logical ranks). Returns the world's deterministic ordinal, or
    /// [`WorldTag::NONE`] on a disabled handle.
    pub fn register_world(&self, name: &str, rank_hosts: &[String]) -> WorldTag {
        let Some(i) = &self.inner else {
            return WorldTag::NONE;
        };
        let mut log = i.lock();
        let w = log.worlds.len() as u32;
        let base = log.tracks.len() as u32;
        for (r, host) in rank_hosts.iter().enumerate() {
            log.tracks.push(TrackMeta {
                world: w,
                rank: r as u32,
                host: host.clone(),
                start: 0.0,
                end: 0.0,
                started: false,
                ended: false,
            });
        }
        log.worlds.push(WorldMeta {
            name: name.to_string(),
            base,
            n: rank_hosts.len() as u32,
        });
        WorldTag(w)
    }

    /// Record a state interval `[t0, t1]` on `(world, track_rank)`.
    #[inline]
    pub fn interval(&self, w: WorldTag, track_rank: usize, state: RankState, t0: f64, t1: f64) {
        self.interval_detail(w, track_rank, state, None, t0, t1);
    }

    /// Record a state interval carrying a detail label (collective op
    /// names, swap reasons).
    #[inline]
    pub fn interval_detail(
        &self,
        w: WorldTag,
        track_rank: usize,
        state: RankState,
        detail: Option<&'static str>,
        t0: f64,
        t1: f64,
    ) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            if let Some(track) = log.track_of(w, track_rank) {
                log.intervals.push(RawInterval {
                    track,
                    state,
                    detail,
                    t0,
                    t1,
                });
            }
        }
    }

    /// Record the send half of a message. `track_rank` locates the sender's
    /// track; `src`/`dst` are the logical ranks used for matching.
    #[inline]
    #[allow(clippy::too_many_arguments)] // flat caller-timestamped record
    pub fn send_msg(
        &self,
        w: WorldTag,
        track_rank: usize,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: f64,
        t_post: f64,
        t_complete: f64,
        eager: bool,
        kind: MsgKind,
    ) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            if let Some(track) = log.track_of(w, track_rank) {
                log.sends.push(RawSend {
                    track,
                    src: src as u32,
                    dst: dst as u32,
                    tag,
                    bytes,
                    t_post,
                    t_complete,
                    eager,
                    kind,
                });
            }
        }
    }

    /// Record the receive half of a message.
    #[inline]
    #[allow(clippy::too_many_arguments)] // flat caller-timestamped record
    pub fn recv_msg(
        &self,
        w: WorldTag,
        track_rank: usize,
        src: usize,
        dst: usize,
        tag: u64,
        t_post: f64,
        t_complete: f64,
    ) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            if let Some(track) = log.track_of(w, track_rank) {
                log.recvs.push(RawRecv {
                    track,
                    src: src as u32,
                    dst: dst as u32,
                    tag,
                    t_post,
                    t_complete,
                });
            }
        }
    }

    /// Record a causal bridge: every track of `to_w` exists because of
    /// `(from_w, from_rank)` at `t_from` — e.g. a restarted incarnation
    /// whose relaunch was triggered by the previous incarnation's stop.
    /// The critical-path walk charges `[t_from, track start]` as
    /// [`RankState::Migrating`] and continues on the origin track.
    pub fn bridge(&self, from_w: WorldTag, from_rank: usize, t_from: f64, to_w: WorldTag) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            let (Some(from_track), true) = (
                log.track_of(from_w, from_rank),
                (to_w.0 as usize) < log.worlds.len(),
            ) else {
                return;
            };
            log.bridges.push(RawBridge {
                from_track,
                t_from,
                to_world: to_w.0,
                label: "migrate",
            });
        }
    }

    /// Bind a kernel process id to `(world, track_rank)` so the engine's
    /// lifecycle hooks can stamp track start/end times.
    pub fn bind_pid(&self, pid: u32, w: WorldTag, track_rank: usize) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            if let Some(track) = log.track_of(w, track_rank) {
                log.pid_track.insert(pid, track);
            }
        }
    }

    /// Engine hook: the bound process started at virtual time `t`.
    #[inline]
    pub fn track_start(&self, pid: u32, t: f64) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            if let Some(&track) = log.pid_track.get(&pid) {
                let tm = &mut log.tracks[track as usize];
                tm.start = t;
                tm.started = true;
            }
        }
    }

    /// Engine hook: the bound process exited (or died) at virtual time `t`.
    #[inline]
    pub fn track_end(&self, pid: u32, t: f64) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            if let Some(&track) = log.pid_track.get(&pid) {
                let tm = &mut log.tracks[track as usize];
                if !tm.ended {
                    tm.end = t;
                    tm.ended = true;
                }
            }
        }
    }

    /// Engine hook: close every still-open track at the run's end time
    /// (processes alive at a `run_until` cutoff).
    pub fn close_open_tracks(&self, t: f64) {
        if let Some(i) = &self.inner {
            let mut log = i.lock();
            for tm in &mut log.tracks {
                if tm.started && !tm.ended {
                    tm.end = t;
                    tm.ended = true;
                }
            }
        }
    }

    /// Build the analyzed timeline from everything recorded so far.
    /// Disabled handles return an empty timeline.
    pub fn timeline(&self) -> Timeline {
        match &self.inner {
            Some(i) => Timeline::build(&i.lock()),
            None => Timeline::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Built timeline (read side)
// ---------------------------------------------------------------------

/// One registered world in a built [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorldInfo {
    /// Deterministic ordinal.
    pub tag: WorldTag,
    /// Registration name (e.g. `"qr-e0"`).
    pub name: String,
    /// Number of tracks (ranks or physical slots).
    pub n_ranks: usize,
    /// Index of rank 0's track in [`Timeline::tracks`].
    pub base_track: TrackId,
}

/// A state interval on one track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// What the rank was doing.
    pub state: RankState,
    /// Optional detail label (collective op name).
    pub detail: Option<&'static str>,
    /// Interval start, virtual seconds.
    pub t0: f64,
    /// Interval end, virtual seconds.
    pub t1: f64,
}

/// One per-rank track: lifecycle bounds plus its recorded intervals,
/// sorted by start time.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Owning world.
    pub world: WorldTag,
    /// Rank (or physical slot, for swap worlds) within the world.
    pub rank: usize,
    /// Host label serving this track.
    pub host: String,
    /// Process start time (0 if the process never started).
    pub start: f64,
    /// Process end time.
    pub end: f64,
    /// Whether the process actually started.
    pub live: bool,
    /// State intervals, sorted by `t0`.
    pub intervals: Vec<Interval>,
    /// Per-hop spans nested inside collective / swap-handoff intervals,
    /// sorted by `t0`. Empty unless the recorder was created with
    /// [`Recorder::enabled_with_internals`]. Within one enclosing
    /// [`RankState::Collective`] interval the hops tile it exactly: the
    /// first hop starts at the interval start, consecutive hops share
    /// endpoints bitwise, and the last hop ends at the interval end.
    pub hops: Vec<Interval>,
}

/// A fully matched message: one send half paired with one receive half.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgRecord {
    /// Owning world.
    pub world: WorldTag,
    /// Logical source rank.
    pub src_rank: usize,
    /// Logical destination rank.
    pub dst_rank: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload size on the wire.
    pub bytes: f64,
    /// Eager (buffered) vs. rendezvous protocol.
    pub eager: bool,
    /// Message class.
    pub kind: MsgKind,
    /// Track that recorded the send half.
    pub src_track: TrackId,
    /// Track that recorded the receive half.
    pub dst_track: TrackId,
    /// When the sender posted the send.
    pub t_send_post: f64,
    /// When the send call returned.
    pub t_send_complete: f64,
    /// When the receiver posted the receive.
    pub t_recv_post: f64,
    /// When the receive call returned with the payload.
    pub t_recv_complete: f64,
    /// When both sides were posted: `t_send_post` for eager messages,
    /// `max(t_send_post, t_recv_post)` for rendezvous.
    pub t_match: f64,
}

/// A causal bridge resolved against a destination track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bridge {
    /// Origin track.
    pub from_track: TrackId,
    /// Time on the origin track the bridge leaves from.
    pub t_from: f64,
    /// Label (currently always `"migrate"`).
    pub label: &'static str,
}

/// The analyzed flight-recorder output: per-rank tracks, matched messages,
/// and cross-incarnation bridges.
///
/// `PartialEq` is bitwise on every float, so two runs compare equal only if
/// they recorded numerically identical timelines — the determinism
/// regression compares [`Timeline`]s directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Registered worlds, in registration order.
    pub worlds: Vec<WorldInfo>,
    /// All tracks, world-major then rank order.
    pub tracks: Vec<Track>,
    /// Matched messages, in receive-completion record order.
    pub msgs: Vec<MsgRecord>,
    /// `track index → bridge` for tracks born from another incarnation.
    pub bridges: Vec<Option<Bridge>>,
    /// Send halves that never matched a receive (e.g. in flight at a
    /// cutoff).
    pub unmatched_sends: usize,
    /// Receive halves that never matched a send.
    pub unmatched_recvs: usize,
}

impl Timeline {
    fn build(log: &TimelineLog) -> Timeline {
        let worlds: Vec<WorldInfo> = log
            .worlds
            .iter()
            .enumerate()
            .map(|(i, w)| WorldInfo {
                tag: WorldTag(i as u32),
                name: w.name.clone(),
                n_ranks: w.n as usize,
                base_track: TrackId(w.base),
            })
            .collect();
        let mut tracks: Vec<Track> = log
            .tracks
            .iter()
            .map(|tm| Track {
                world: WorldTag(tm.world),
                rank: tm.rank as usize,
                host: tm.host.clone(),
                start: tm.start,
                end: tm.end,
                live: tm.started,
                intervals: Vec::new(),
                hops: Vec::new(),
            })
            .collect();
        for iv in &log.intervals {
            tracks[iv.track as usize].intervals.push(Interval {
                state: iv.state,
                detail: iv.detail,
                t0: iv.t0,
                t1: iv.t1,
            });
        }
        for h in &log.hops {
            tracks[h.track as usize].hops.push(Interval {
                state: h.state,
                detail: h.detail,
                t0: h.t0,
                t1: h.t1,
            });
        }
        // Within one track, intervals are appended in completion order and
        // never overlap, so a stable sort by start time is a total order.
        // The same holds for hops (a rank is inside at most one
        // send/recv call at a time).
        for t in &mut tracks {
            t.intervals.sort_by(|a, b| a.t0.total_cmp(&b.t0));
            t.hops.sort_by(|a, b| a.t0.total_cmp(&b.t0));
        }

        // FIFO matching per (world-of-track, src, dst, tag). World is
        // derived from the recording track, so two worlds reusing ranks and
        // tags can never cross-match.
        let mut queues: HashMap<(u32, u32, u32, u64), std::collections::VecDeque<usize>> =
            HashMap::new();
        for (i, s) in log.sends.iter().enumerate() {
            let w = log.tracks[s.track as usize].world;
            queues
                .entry((w, s.src, s.dst, s.tag))
                .or_default()
                .push_back(i);
        }
        let mut msgs = Vec::with_capacity(log.recvs.len());
        let mut unmatched_recvs = 0usize;
        let mut matched_sends = 0usize;
        for r in &log.recvs {
            let w = log.tracks[r.track as usize].world;
            let Some(si) = queues
                .get_mut(&(w, r.src, r.dst, r.tag))
                .and_then(|q| q.pop_front())
            else {
                unmatched_recvs += 1;
                continue;
            };
            matched_sends += 1;
            let s = &log.sends[si];
            let t_match = if s.eager {
                s.t_post
            } else {
                s.t_post.max(r.t_post)
            };
            msgs.push(MsgRecord {
                world: WorldTag(w),
                src_rank: s.src as usize,
                dst_rank: s.dst as usize,
                tag: s.tag,
                bytes: s.bytes,
                eager: s.eager,
                kind: s.kind,
                src_track: TrackId(s.track),
                dst_track: TrackId(r.track),
                t_send_post: s.t_post,
                t_send_complete: s.t_complete,
                t_recv_post: r.t_post,
                t_recv_complete: r.t_complete,
                t_match,
            });
        }

        let mut bridges: Vec<Option<Bridge>> = vec![None; tracks.len()];
        for b in &log.bridges {
            let wm = &log.worlds[b.to_world as usize];
            for r in 0..wm.n {
                bridges[(wm.base + r) as usize] = Some(Bridge {
                    from_track: TrackId(b.from_track),
                    t_from: b.t_from,
                    label: b.label,
                });
            }
        }

        Timeline {
            worlds,
            tracks,
            msgs,
            bridges,
            unmatched_sends: log.sends.len() - matched_sends,
            unmatched_recvs,
        }
    }

    /// The latest track end time — the virtual makespan of the recorded
    /// application worlds. (Slightly below the kernel's `end_time` when
    /// untracked middleware — managers, sensors — winds down after the
    /// last rank exits.)
    pub fn makespan(&self) -> f64 {
        self.tracks
            .iter()
            .filter(|t| t.live)
            .map(|t| t.end)
            .fold(0.0, f64::max)
    }

    /// Tracks of one world, in rank order.
    pub fn world_tracks(&self, w: WorldTag) -> &[Track] {
        let Some(wi) = self.worlds.get(w.0 as usize) else {
            return &[];
        };
        let b = wi.base_track.0 as usize;
        &self.tracks[b..b + wi.n_ranks]
    }

    // -----------------------------------------------------------------
    // Wait-state attribution
    // -----------------------------------------------------------------

    /// Per-track utilisation and wait-state breakdown. One entry per live
    /// track, in track order.
    pub fn rank_stats(&self) -> Vec<RankBreakdown> {
        // Index recv completions and rendezvous-send completions by
        // (track, completion-time bits) for exact interval↔message joins:
        // a blocked interval's end is the same `ctx.now()` read as its
        // message's completion stamp, so bit equality is the right join.
        let mut recv_at: HashMap<(u32, u64), usize> = HashMap::new();
        let mut send_at: HashMap<(u32, u64), usize> = HashMap::new();
        for (i, m) in self.msgs.iter().enumerate() {
            recv_at.insert((m.dst_track.0, m.t_recv_complete.to_bits()), i);
            if !m.eager {
                send_at.insert((m.src_track.0, m.t_send_complete.to_bits()), i);
            }
        }
        let mut out = Vec::new();
        for (ti, t) in self.tracks.iter().enumerate() {
            if !t.live {
                continue;
            }
            let mut b = RankBreakdown {
                track: TrackId(ti as u32),
                world: t.world,
                rank: t.rank,
                host: t.host.clone(),
                span: (t.end - t.start).max(0.0),
                ..RankBreakdown::default()
            };
            let mut busy = 0.0;
            for iv in &t.intervals {
                let d = iv.t1 - iv.t0;
                busy += d;
                match iv.state {
                    RankState::Compute => b.compute += d,
                    RankState::SendBlocked => {
                        b.send_wait += d;
                        if let Some(&mi) = send_at.get(&(ti as u32, iv.t1.to_bits())) {
                            let m = &self.msgs[mi];
                            b.late_receiver += (m.t_recv_post.min(iv.t1) - iv.t0).max(0.0);
                        }
                    }
                    RankState::RecvBlocked => {
                        b.recv_wait += d;
                        if let Some(&mi) = recv_at.get(&(ti as u32, iv.t1.to_bits())) {
                            let m = &self.msgs[mi];
                            b.late_sender += (m.t_send_post.min(iv.t1) - iv.t0).max(0.0);
                        }
                    }
                    RankState::Collective => b.collective += d,
                    RankState::SwappedOut => b.swapped_out += d,
                    RankState::Migrating => b.migrating += d,
                    RankState::Idle => {}
                }
            }
            // Hop spans split the opaque Collective block into its tree
            // legs; swap-handoff hops stay out (already charged to
            // Migrating / SwappedOut above).
            for h in t.hops.iter().filter(|h| h.detail != Some("handoff")) {
                let d = h.t1 - h.t0;
                match h.state {
                    RankState::SendBlocked => b.coll_send_wait += d,
                    RankState::RecvBlocked => {
                        b.coll_recv_wait += d;
                        if let Some(&mi) = recv_at.get(&(ti as u32, h.t1.to_bits())) {
                            let m = &self.msgs[mi];
                            b.coll_late_sender += (m.t_send_post.min(h.t1) - h.t0).max(0.0);
                        }
                    }
                    _ => {}
                }
            }
            b.idle = (b.span - busy).max(0.0);
            out.push(b);
        }
        out
    }

    // -----------------------------------------------------------------
    // Communication matrix
    // -----------------------------------------------------------------

    /// P×P matrix of application traffic (point-to-point + collective;
    /// swap handoffs excluded) for one world, indexed by logical rank.
    pub fn comm_matrix(&self, w: WorldTag) -> CommMatrix {
        let n = self
            .worlds
            .get(w.0 as usize)
            .map(|wi| wi.n_ranks)
            .unwrap_or(0);
        let mut m = CommMatrix {
            n,
            count: vec![0; n * n],
            bytes: vec![0.0; n * n],
            latency_sum: vec![0.0; n * n],
        };
        for msg in &self.msgs {
            if msg.world != w || msg.kind == MsgKind::Swap {
                continue;
            }
            let (s, d) = (msg.src_rank, msg.dst_rank);
            if s >= n || d >= n {
                continue;
            }
            let i = s * n + d;
            m.count[i] += 1;
            m.bytes[i] += msg.bytes;
            m.latency_sum[i] += msg.t_recv_complete - msg.t_send_post;
        }
        m
    }

    // -----------------------------------------------------------------
    // Critical path
    // -----------------------------------------------------------------

    /// Extract the critical path: the backward walk from the last-finishing
    /// track through matched message edges and incarnation bridges down to
    /// t = 0. Returned segments are contiguous in time (forward order) and
    /// their durations sum *exactly* to [`Timeline::makespan`] — each step
    /// charges precisely the span it walks back over.
    ///
    /// Collective-internal message halves are walk edges like any other,
    /// so the path goes *through* binomial trees and charges the rank that
    /// actually delayed the operation — the honest attribution. Compare
    /// with [`Timeline::critical_path_opaque`] to measure what opacity
    /// would mis-attribute.
    pub fn critical_path(&self) -> Vec<PathSegment> {
        self.critical_path_walk(true)
    }

    /// The critical path with collectives treated as *opaque blocks*:
    /// edges through [`MsgKind::Collective`] messages are ignored, so time
    /// inside a collective is charged wholesale to whichever rank the walk
    /// lands on, never to the subtree that actually set its exit time.
    /// This is the dishonest baseline most tools ship; it tiles
    /// `[0, makespan]` just like the honest walk, but its per-host
    /// attribution differs for bcast-heavy applications.
    pub fn critical_path_opaque(&self) -> Vec<PathSegment> {
        self.critical_path_walk(false)
    }

    fn critical_path_walk(&self, through_collectives: bool) -> Vec<PathSegment> {
        let Some(last) = self
            .tracks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.live)
            .max_by(|(ai, a), (bi, b)| a.end.total_cmp(&b.end).then(bi.cmp(ai)))
            .map(|(i, _)| i)
        else {
            return Vec::new();
        };
        // Per-track message indices sorted by completion time, for the
        // "which edge unblocked this interval" query.
        let mut recv_by: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut send_by: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, m) in self.msgs.iter().enumerate() {
            if !through_collectives && m.kind == MsgKind::Collective {
                continue;
            }
            recv_by.entry(m.dst_track.0).or_default().push(i);
            if !m.eager {
                send_by.entry(m.src_track.0).or_default().push(i);
            }
        }
        for v in recv_by.values_mut() {
            v.sort_by(|&a, &b| {
                self.msgs[a]
                    .t_recv_complete
                    .total_cmp(&self.msgs[b].t_recv_complete)
            });
        }
        for v in send_by.values_mut() {
            v.sort_by(|&a, &b| {
                self.msgs[a]
                    .t_send_complete
                    .total_cmp(&self.msgs[b].t_send_complete)
            });
        }

        let mut segs: Vec<PathSegment> = Vec::new();
        let mut cur = last;
        let mut t = self.tracks[cur].end;
        while t > 0.0 {
            let tr = &self.tracks[cur];
            if t <= tr.start {
                // Track birth: cross an incarnation bridge if one explains
                // this track, else charge the pre-start span as Idle.
                if let Some(b) = self.bridges[cur] {
                    if b.t_from < t {
                        segs.push(PathSegment {
                            track: TrackId(cur as u32),
                            kind: SegKind::Bridge {
                                from: b.from_track,
                                label: b.label,
                            },
                            t0: b.t_from,
                            t1: t,
                        });
                        cur = b.from_track.0 as usize;
                        t = b.t_from;
                        continue;
                    }
                }
                segs.push(PathSegment {
                    track: TrackId(cur as u32),
                    kind: SegKind::State(RankState::Idle),
                    t0: 0.0,
                    t1: t,
                });
                break;
            }
            // Latest interval starting before t.
            let idx = tr.intervals.partition_point(|iv| iv.t0 < t);
            if idx == 0 {
                segs.push(PathSegment {
                    track: TrackId(cur as u32),
                    kind: SegKind::State(RankState::Idle),
                    t0: tr.start,
                    t1: t,
                });
                t = tr.start;
                continue;
            }
            let iv = tr.intervals[idx - 1];
            if iv.t1 < t {
                segs.push(PathSegment {
                    track: TrackId(cur as u32),
                    kind: SegKind::State(RankState::Idle),
                    t0: iv.t1,
                    t1: t,
                });
                t = iv.t1;
                continue;
            }
            // t lies in (iv.t0, iv.t1]. Find the edge that unblocked the
            // interval: the latest message completion inside it. Only
            // candidates that make progress (t_match < t) are eligible.
            let mut best: Option<(f64, bool, usize)> = None; // (complete, is_recv, msg)
            if let Some(v) = recv_by.get(&(cur as u32)) {
                let hi = v.partition_point(|&i| self.msgs[i].t_recv_complete <= t);
                for &mi in v[..hi].iter().rev() {
                    let m = &self.msgs[mi];
                    if m.t_recv_complete <= iv.t0 {
                        break;
                    }
                    if m.t_match < t {
                        best = Some((m.t_recv_complete, true, mi));
                        break;
                    }
                }
            }
            if let Some(v) = send_by.get(&(cur as u32)) {
                let hi = v.partition_point(|&i| self.msgs[i].t_send_complete <= t);
                for &mi in v[..hi].iter().rev() {
                    let m = &self.msgs[mi];
                    if m.t_send_complete <= iv.t0 {
                        break;
                    }
                    if m.t_match < t {
                        let better = match best {
                            None => true,
                            Some((c, _, _)) => m.t_send_complete > c,
                        };
                        if better {
                            best = Some((m.t_send_complete, false, mi));
                        }
                        break;
                    }
                }
            }
            match best {
                Some((c, is_recv, mi)) => {
                    let m = &self.msgs[mi];
                    if c < t {
                        segs.push(PathSegment {
                            track: TrackId(cur as u32),
                            kind: SegKind::State(iv.state),
                            t0: c,
                            t1: t,
                        });
                    }
                    if m.t_match < c {
                        let from = if is_recv { m.src_track } else { m.dst_track };
                        segs.push(PathSegment {
                            track: TrackId(cur as u32),
                            kind: SegKind::Transfer { from, msg: mi },
                            t0: m.t_match,
                            t1: c,
                        });
                    }
                    // Jump to the peer only if the peer's late post set the
                    // match time; otherwise this rank was the bottleneck
                    // and the walk continues locally.
                    if is_recv {
                        if m.t_send_post >= m.t_recv_post {
                            cur = m.src_track.0 as usize;
                        }
                    } else if m.t_recv_post >= m.t_send_post {
                        cur = m.dst_track.0 as usize;
                    }
                    t = m.t_match;
                }
                None => {
                    segs.push(PathSegment {
                        track: TrackId(cur as u32),
                        kind: SegKind::State(iv.state),
                        t0: iv.t0,
                        t1: t,
                    });
                    t = iv.t0;
                }
            }
        }
        segs.reverse();
        segs
    }

    /// Sum of critical-path time per host label, descending; an answer to
    /// "which machines set the makespan?".
    pub fn critical_path_by_host(&self, path: &[PathSegment]) -> Vec<(String, f64)> {
        let mut by: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
        for s in path {
            *by.entry(&self.tracks[s.track.0 as usize].host).or_default() += s.t1 - s.t0;
        }
        let mut v: Vec<(String, f64)> = by.into_iter().map(|(k, d)| (k.to_string(), d)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    // -----------------------------------------------------------------
    // Exporters
    // -----------------------------------------------------------------

    /// Render as Chrome Trace Event JSON (`chrome://tracing` /
    /// `ui.perfetto.dev`-loadable): one process per world, one thread per
    /// rank, a complete (`"X"`) event per state interval, timestamps in
    /// microseconds of virtual time. Byte-deterministic for equal
    /// timelines.
    pub fn to_chrome_trace(&self) -> String {
        let mut trace = ChromeTrace::default();
        for w in &self.worlds {
            trace.process_name(w.tag.0.into(), &w.name);
        }
        for t in &self.tracks {
            let label = format!("rank {} @ {}", t.rank, t.host);
            trace.thread_name(t.world.0.into(), t.rank as u64, &label);
        }
        for t in &self.tracks {
            let track = (t.world.0.into(), t.rank as u64);
            for iv in &t.intervals {
                let name = iv.detail.unwrap_or(iv.state.name());
                trace.complete(track, "state", name, (iv.t0, iv.t1), None);
            }
        }
        // Per-hop internals nest inside their enclosing state slices on
        // the same thread (Perfetto nests contained "X" events). Absent
        // unless the recorder was created with internals, so traces from
        // plain recorders are byte-identical to what they always were.
        for t in &self.tracks {
            let track = (t.world.0.into(), t.rank as u64);
            for h in &t.hops {
                let dir = match h.state {
                    RankState::SendBlocked => "send",
                    RankState::RecvBlocked => "recv",
                    s => s.name(),
                };
                let name = format!("{}:{dir}", h.detail.unwrap_or("hop"));
                trace.complete(track, "hop", &name, (h.t0, h.t1), None);
            }
        }
        let mut worlds = String::from("{\"worlds\":[");
        for (i, w) in self.worlds.iter().enumerate() {
            if i > 0 {
                worlds.push(',');
            }
            worlds.push_str(&format!("{{\"pid\":{},\"name\":", w.tag.0));
            push_string(&mut worlds, &w.name);
            worlds.push_str(&format!(",\"ranks\":{}}}", w.n_ranks));
        }
        worlds.push_str("]}");
        trace.finish(&worlds)
    }

    /// Deterministic text summary: per-rank wait-state table per world,
    /// plus message-matching totals. Equal timelines render byte-
    /// identically, so benches and tests can diff two runs textually.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let stats = self.rank_stats();
        for w in &self.worlds {
            out.push_str(&format!("world {} ({} ranks)\n", w.name, w.n_ranks));
            out.push_str(&format!(
                "  {:>4} {:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}\n",
                "rank",
                "host",
                "compute",
                "send_wait",
                "recv_wait",
                "late_send",
                "collective",
                "c_recv",
                "c_late",
                "swapped",
                "idle",
                "util"
            ));
            for b in stats.iter().filter(|b| b.world == w.tag) {
                out.push_str(&format!(
                    "  {:>4} {:<12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>5.1}%\n",
                    b.rank,
                    b.host,
                    b.compute,
                    b.send_wait,
                    b.recv_wait,
                    b.late_sender,
                    b.collective,
                    b.coll_recv_wait,
                    b.coll_late_sender,
                    b.swapped_out,
                    b.idle,
                    b.utilisation() * 100.0
                ));
            }
        }
        out.push_str(&format!(
            "messages: {} matched, {} unmatched sends, {} unmatched recvs\n",
            self.msgs.len(),
            self.unmatched_sends,
            self.unmatched_recvs
        ));
        out
    }
}

/// Per-track utilisation and wait-state breakdown (all durations in
/// virtual seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankBreakdown {
    /// The track.
    pub track: TrackId,
    /// Owning world.
    pub world: WorldTag,
    /// Rank (or physical slot).
    pub rank: usize,
    /// Host label.
    pub host: String,
    /// Charged computation.
    pub compute: f64,
    /// Blocked in point-to-point sends.
    pub send_wait: f64,
    /// Blocked in point-to-point receives.
    pub recv_wait: f64,
    /// Portion of `recv_wait` spent before the sender had even posted
    /// (Scalasca's *late sender*).
    pub late_sender: f64,
    /// Portion of `send_wait` spent before the receiver had posted
    /// (*late receiver*; rendezvous sends only).
    pub late_receiver: f64,
    /// Inside collective operations.
    pub collective: f64,
    /// Portion of `collective` blocked sending a tree leg (collective
    /// internals only; zero without [`Recorder::enabled_with_internals`]).
    pub coll_send_wait: f64,
    /// Portion of `collective` blocked receiving a tree leg (collective
    /// internals only).
    pub coll_recv_wait: f64,
    /// Portion of `coll_recv_wait` spent before the sending leg was even
    /// posted — the collective analogue of `late_sender`, pointing at the
    /// slow subtree instead of the whole opaque block.
    pub coll_late_sender: f64,
    /// Inactive in a swap world.
    pub swapped_out: f64,
    /// Migration downtime.
    pub migrating: f64,
    /// Lifecycle span not covered by any recorded interval.
    pub idle: f64,
    /// Process lifetime (`end - start`).
    pub span: f64,
}

impl Default for WorldTag {
    fn default() -> Self {
        WorldTag::NONE
    }
}

impl RankBreakdown {
    /// Fraction of the lifetime spent computing.
    pub fn utilisation(&self) -> f64 {
        if self.span > 0.0 {
            self.compute / self.span
        } else {
            0.0
        }
    }
}

/// P×P communication matrix of one world.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommMatrix {
    /// Rank count.
    pub n: usize,
    /// Message counts, row-major `[src * n + dst]`.
    pub count: Vec<u64>,
    /// Byte totals, row-major.
    pub bytes: Vec<f64>,
    /// Sum of end-to-end latencies (send post → recv complete), row-major.
    pub latency_sum: Vec<f64>,
}

impl CommMatrix {
    /// Messages from `src` to `dst`.
    pub fn count(&self, src: usize, dst: usize) -> u64 {
        self.count[src * self.n + dst]
    }

    /// Bytes from `src` to `dst`.
    pub fn bytes(&self, src: usize, dst: usize) -> f64 {
        self.bytes[src * self.n + dst]
    }

    /// Mean end-to-end latency from `src` to `dst` (0 if no messages).
    pub fn mean_latency(&self, src: usize, dst: usize) -> f64 {
        let i = src * self.n + dst;
        if self.count[i] == 0 {
            0.0
        } else {
            self.latency_sum[i] / self.count[i] as f64
        }
    }

    /// Deterministic text rendering (bytes above the diagonal direction,
    /// i.e. a full P×P grid of `count/bytes`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>5}", "s\\d"));
        for d in 0..self.n {
            out.push_str(&format!(" {d:>14}"));
        }
        out.push('\n');
        for s in 0..self.n {
            out.push_str(&format!("{s:>5}"));
            for d in 0..self.n {
                let c = self.count(s, d);
                if c == 0 {
                    out.push_str(&format!(" {:>14}", "."));
                } else {
                    out.push_str(&format!(" {:>6}/{:<7.0}", c, self.bytes(s, d)));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// What one critical-path segment represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegKind {
    /// Time in a rank state on the segment's track.
    State(RankState),
    /// A message transfer the path waited on (`from` is the peer track).
    Transfer {
        /// Peer track the message came from (or went to).
        from: TrackId,
        /// Index into [`Timeline::msgs`].
        msg: usize,
    },
    /// An incarnation bridge (migration downtime).
    Bridge {
        /// Origin track of the previous incarnation.
        from: TrackId,
        /// Bridge label.
        label: &'static str,
    },
}

/// One contiguous segment of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// Track the segment is charged to.
    pub track: TrackId,
    /// Segment class.
    pub kind: SegKind,
    /// Segment start, virtual seconds.
    pub t0: f64,
    /// Segment end, virtual seconds.
    pub t1: f64,
}

impl PathSegment {
    /// Segment duration.
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            SegKind::State(s) => s.name(),
            SegKind::Transfer { .. } => "Transfer",
            SegKind::Bridge { .. } => "Migrating",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_recorder() -> (Recorder, WorldTag) {
        let rec = Recorder::enabled();
        let w = rec.register_world("w", &["h0".to_string(), "h1".to_string()]);
        rec.bind_pid(0, w, 0);
        rec.bind_pid(1, w, 1);
        rec.track_start(0, 0.0);
        rec.track_start(1, 0.0);
        (rec, w)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        let w = rec.register_world("w", &["h".to_string()]);
        assert_eq!(w, WorldTag::NONE);
        rec.interval(w, 0, RankState::Compute, 0.0, 1.0);
        rec.send_msg(w, 0, 0, 0, 1, 8.0, 0.0, 0.0, true, MsgKind::Pt2pt);
        let tl = rec.timeline();
        assert!(tl.tracks.is_empty());
        assert!(tl.msgs.is_empty());
        assert_eq!(tl.makespan(), 0.0);
        assert!(tl.critical_path().is_empty());
    }

    #[test]
    fn message_matching_pairs_halves_fifo() {
        let (rec, w) = two_rank_recorder();
        // Two same-key messages posted in order; recvs complete in order.
        rec.send_msg(w, 0, 0, 1, 7, 100.0, 1.0, 1.0, true, MsgKind::Pt2pt);
        rec.send_msg(w, 0, 0, 1, 7, 200.0, 2.0, 2.0, true, MsgKind::Pt2pt);
        rec.recv_msg(w, 1, 0, 1, 7, 0.5, 1.5);
        rec.recv_msg(w, 1, 0, 1, 7, 1.5, 2.5);
        rec.track_end(0, 3.0);
        rec.track_end(1, 3.0);
        let tl = rec.timeline();
        assert_eq!(tl.msgs.len(), 2);
        assert_eq!(tl.unmatched_sends, 0);
        assert_eq!(tl.unmatched_recvs, 0);
        assert_eq!(tl.msgs[0].bytes, 100.0);
        assert_eq!(tl.msgs[1].bytes, 200.0);
        for m in &tl.msgs {
            assert!(m.t_send_post <= m.t_match && m.t_match <= m.t_recv_complete);
            assert!(m.t_recv_post <= m.t_recv_complete);
        }
        // Eager match time is the send post.
        assert_eq!(tl.msgs[0].t_match, 1.0);
    }

    #[test]
    fn rendezvous_match_is_max_of_posts() {
        let (rec, w) = two_rank_recorder();
        rec.send_msg(w, 0, 0, 1, 3, 1e6, 1.0, 4.0, false, MsgKind::Pt2pt);
        rec.recv_msg(w, 1, 0, 1, 3, 2.0, 4.0);
        let tl = rec.timeline();
        assert_eq!(tl.msgs[0].t_match, 2.0);
    }

    #[test]
    fn unmatched_halves_are_counted() {
        let (rec, w) = two_rank_recorder();
        rec.send_msg(w, 0, 0, 1, 9, 8.0, 1.0, 1.0, true, MsgKind::Pt2pt);
        rec.recv_msg(w, 1, 0, 1, 10, 0.0, 2.0); // different tag: no match
        let tl = rec.timeline();
        assert_eq!(tl.msgs.len(), 0);
        assert_eq!(tl.unmatched_sends, 1);
        assert_eq!(tl.unmatched_recvs, 1);
    }

    #[test]
    fn rank_stats_attribute_late_sender() {
        let (rec, w) = two_rank_recorder();
        // Rank 1 posts a recv at t=1, sender posts at t=4, delivery at t=5.
        rec.interval(w, 1, RankState::RecvBlocked, 1.0, 5.0);
        rec.send_msg(w, 0, 0, 1, 1, 50.0, 4.0, 4.0, true, MsgKind::Pt2pt);
        rec.recv_msg(w, 1, 0, 1, 1, 1.0, 5.0);
        rec.interval(w, 0, RankState::Compute, 0.0, 4.0);
        rec.track_end(0, 5.0);
        rec.track_end(1, 5.0);
        let tl = rec.timeline();
        let stats = tl.rank_stats();
        let r1 = &stats[1];
        assert_eq!(r1.recv_wait, 4.0);
        assert_eq!(r1.late_sender, 3.0, "waited 3 s before the send existed");
        let r0 = &stats[0];
        assert_eq!(r0.compute, 4.0);
        assert_eq!(r0.idle, 1.0);
        assert!((r0.utilisation() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn comm_matrix_aggregates_and_excludes_swap() {
        let (rec, w) = two_rank_recorder();
        rec.send_msg(w, 0, 0, 1, 1, 100.0, 1.0, 1.0, true, MsgKind::Pt2pt);
        rec.recv_msg(w, 1, 0, 1, 1, 0.0, 2.0);
        rec.send_msg(w, 0, 0, 1, 2, 300.0, 2.0, 2.0, true, MsgKind::Collective);
        rec.recv_msg(w, 1, 0, 1, 2, 2.0, 3.0);
        rec.send_msg(w, 0, 1, 1, 99, 1e6, 3.0, 4.0, false, MsgKind::Swap);
        rec.recv_msg(w, 1, 1, 1, 99, 3.0, 4.0);
        let tl = rec.timeline();
        let m = tl.comm_matrix(w);
        assert_eq!(m.count(0, 1), 2, "swap handoffs excluded");
        assert_eq!(m.bytes(0, 1), 400.0);
        assert_eq!(m.mean_latency(0, 1), 1.0);
        assert_eq!(m.count(1, 0), 0);
    }

    #[test]
    fn critical_path_sums_to_makespan_and_jumps_through_late_sender() {
        let (rec, w) = two_rank_recorder();
        // Rank 0: compute 0..4, eager send at 4.
        // Rank 1: compute 0..1, recv blocked 1..5 (late sender), compute 5..8.
        rec.interval(w, 0, RankState::Compute, 0.0, 4.0);
        rec.send_msg(w, 0, 0, 1, 1, 50.0, 4.0, 4.0, true, MsgKind::Pt2pt);
        rec.interval(w, 1, RankState::Compute, 0.0, 1.0);
        rec.interval(w, 1, RankState::RecvBlocked, 1.0, 5.0);
        rec.recv_msg(w, 1, 0, 1, 1, 1.0, 5.0);
        rec.interval(w, 1, RankState::Compute, 5.0, 8.0);
        rec.track_end(0, 4.0);
        rec.track_end(1, 8.0);
        let tl = rec.timeline();
        assert_eq!(tl.makespan(), 8.0);
        let path = tl.critical_path();
        let total: f64 = path.iter().map(|s| s.dur()).sum();
        assert_eq!(total, 8.0, "segments must sum exactly to the makespan");
        // Forward order: rank 0 compute, transfer, rank 1 compute.
        assert_eq!(path[0].track, TrackId(0));
        assert!(matches!(path[0].kind, SegKind::State(RankState::Compute)));
        assert!(path
            .iter()
            .any(|s| matches!(s.kind, SegKind::Transfer { from, .. } if from == TrackId(0))));
        let last = path.last().unwrap();
        assert_eq!(last.track, TrackId(1));
        assert_eq!(last.t1, 8.0);
        // The path never charges rank 1's recv wait (the sender was the
        // bottleneck), so no RecvBlocked segment longer than the transfer.
        let blocked: f64 = path
            .iter()
            .filter(|s| matches!(s.kind, SegKind::State(RankState::RecvBlocked)))
            .map(|s| s.dur())
            .sum();
        assert_eq!(blocked, 0.0);
    }

    #[test]
    fn critical_path_stays_local_when_receiver_is_late() {
        let (rec, w) = two_rank_recorder();
        // Rank 0 posts eagerly at 1; rank 1 computes until 6 then recvs
        // instantly. The path must stay on rank 1 (its compute is the
        // bottleneck), not jump to rank 0.
        rec.interval(w, 0, RankState::Compute, 0.0, 1.0);
        rec.send_msg(w, 0, 0, 1, 1, 10.0, 1.0, 1.0, true, MsgKind::Pt2pt);
        rec.interval(w, 1, RankState::Compute, 0.0, 6.0);
        rec.recv_msg(w, 1, 0, 1, 1, 6.0, 6.5);
        rec.interval(w, 1, RankState::RecvBlocked, 6.0, 6.5);
        rec.track_end(0, 1.0);
        rec.track_end(1, 6.5);
        let tl = rec.timeline();
        let path = tl.critical_path();
        let total: f64 = path.iter().map(|s| s.dur()).sum();
        assert_eq!(total, 6.5);
        assert!(
            path.iter().all(|s| s.track == TrackId(1) || s.dur() == 0.0),
            "path must stay on the bottleneck rank: {path:?}"
        );
    }

    #[test]
    fn bridge_crosses_incarnations() {
        let rec = Recorder::enabled();
        let w0 = rec.register_world("e0", &["h0".to_string()]);
        let w1 = rec.register_world("e1", &["h1".to_string()]);
        rec.bind_pid(0, w0, 0);
        rec.bind_pid(1, w1, 0);
        rec.track_start(0, 0.0);
        rec.interval(w0, 0, RankState::Compute, 0.0, 10.0);
        rec.track_end(0, 10.0);
        rec.bridge(w0, 0, 10.0, w1);
        rec.track_start(1, 25.0);
        rec.interval(w1, 0, RankState::Compute, 25.0, 40.0);
        rec.track_end(1, 40.0);
        let tl = rec.timeline();
        let path = tl.critical_path();
        let total: f64 = path.iter().map(|s| s.dur()).sum();
        assert_eq!(total, 40.0);
        let bridge: Vec<_> = path
            .iter()
            .filter(|s| matches!(s.kind, SegKind::Bridge { .. }))
            .collect();
        assert_eq!(bridge.len(), 1);
        assert_eq!(bridge[0].t0, 10.0);
        assert_eq!(bridge[0].t1, 25.0);
        assert_eq!(path[0].track, TrackId(0), "walk reaches incarnation 0");
    }

    #[test]
    fn chrome_trace_is_deterministic_and_covers_ranks() {
        let mk = || {
            let (rec, w) = two_rank_recorder();
            rec.interval(w, 0, RankState::Compute, 0.0, 1.5);
            rec.interval(w, 1, RankState::RecvBlocked, 0.0, 2.0);
            rec.track_end(0, 1.5);
            rec.track_end(1, 2.0);
            rec.timeline()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b, "equal recordings build equal timelines");
        let ja = a.to_chrome_trace();
        assert_eq!(ja, b.to_chrome_trace(), "export must be byte-identical");
        assert!(ja.contains("\"traceEvents\""));
        assert!(ja.contains("thread_name"));
        assert!(ja.contains("\"ranks\":2"));
        assert!(ja.contains("\"name\":\"Compute\""));
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn hops_require_an_internals_handle() {
        let (rec, w) = two_rank_recorder();
        assert!(!rec.internals_enabled());
        rec.hop(w, 0, RankState::RecvBlocked, Some("bcast"), 0.0, 1.0);
        assert!(rec.timeline().tracks[0].hops.is_empty());

        let rec2 = Recorder::enabled_with_internals();
        assert!(rec2.internals_enabled());
        let w2 = rec2.register_world("w", &["h0".to_string()]);
        rec2.bind_pid(0, w2, 0);
        rec2.track_start(0, 0.0);
        rec2.hop(w2, 0, RankState::RecvBlocked, Some("bcast"), 0.0, 1.0);
        rec2.track_end(0, 1.0);
        let tl = rec2.timeline();
        assert_eq!(tl.tracks[0].hops.len(), 1);
        assert_eq!(tl.tracks[0].hops[0].detail, Some("bcast"));
        assert!(
            tl.tracks[0].intervals.is_empty(),
            "hops are nested spans, not state intervals"
        );
    }

    /// A collective with a late sending subtree: the honest walk jumps
    /// through the tree to the sender; the opaque walk charges the whole
    /// block to the waiting rank. Both tile `[0, makespan]` exactly.
    fn collective_fixture() -> Timeline {
        let rec = Recorder::enabled_with_internals();
        let w = rec.register_world("w", &["h0".to_string(), "h1".to_string()]);
        rec.bind_pid(0, w, 0);
        rec.bind_pid(1, w, 1);
        rec.track_start(0, 0.0);
        rec.track_start(1, 0.0);
        // Rank 0 (root): computes until 5, then an instant eager tree send.
        rec.interval(w, 0, RankState::Compute, 0.0, 5.0);
        rec.send_msg(w, 0, 0, 1, 99, 100.0, 5.0, 5.0, true, MsgKind::Collective);
        // Rank 1: computes until 1, blocked in the bcast 1..6, computes 6..8.
        rec.interval(w, 1, RankState::Compute, 0.0, 1.0);
        rec.interval_detail(w, 1, RankState::Collective, Some("bcast"), 1.0, 6.0);
        rec.hop(w, 1, RankState::RecvBlocked, Some("bcast"), 1.0, 6.0);
        rec.recv_msg(w, 1, 0, 1, 99, 1.0, 6.0);
        rec.interval(w, 1, RankState::Compute, 6.0, 8.0);
        rec.track_end(0, 5.0);
        rec.track_end(1, 8.0);
        rec.timeline()
    }

    #[test]
    fn honest_and_opaque_walks_attribute_differently_but_both_tile() {
        let tl = collective_fixture();
        let check_tiling = |path: &[PathSegment]| {
            assert_eq!(path[0].t0, 0.0);
            assert_eq!(path.last().unwrap().t1, 8.0);
            for p in path.windows(2) {
                assert_eq!(p[0].t1.to_bits(), p[1].t0.to_bits());
            }
            let total: f64 = path.iter().map(|s| s.dur()).sum();
            assert_eq!(total, 8.0);
        };
        let honest = tl.critical_path();
        let opaque = tl.critical_path_opaque();
        check_tiling(&honest);
        check_tiling(&opaque);
        // Honest: the root's compute set the bcast exit — h0 is on the path.
        let h_hosts = tl.critical_path_by_host(&honest);
        assert_eq!(h_hosts[0].0, "h0");
        assert_eq!(h_hosts[0].1, 5.0);
        // Opaque: the whole run is charged to the waiting rank's host.
        let o_hosts = tl.critical_path_by_host(&opaque);
        assert_eq!(o_hosts, vec![("h1".to_string(), 8.0)]);
        assert!(opaque
            .iter()
            .any(|s| matches!(s.kind, SegKind::State(RankState::Collective))));
    }

    #[test]
    fn rank_stats_split_collective_waits_from_hops() {
        let tl = collective_fixture();
        let stats = tl.rank_stats();
        let r1 = &stats[1];
        assert_eq!(r1.collective, 5.0);
        assert_eq!(r1.coll_recv_wait, 5.0);
        assert_eq!(
            r1.coll_late_sender, 4.0,
            "waited 4 s before the tree leg was even posted"
        );
        assert_eq!(r1.coll_send_wait, 0.0);
    }

    #[test]
    fn chrome_trace_includes_hop_slices() {
        let tl = collective_fixture();
        let json = tl.to_chrome_trace();
        assert!(json.contains("\"cat\":\"hop\""));
        assert!(json.contains("\"name\":\"bcast:recv\""));
        assert!(json.contains("process_name"));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn close_open_tracks_bounds_unfinished_processes() {
        let (rec, w) = two_rank_recorder();
        rec.interval(w, 0, RankState::Compute, 0.0, 2.0);
        rec.track_end(0, 2.0);
        // pid 1 never exits; a cutoff closes it.
        rec.close_open_tracks(7.0);
        let tl = rec.timeline();
        assert_eq!(tl.tracks[0].end, 2.0);
        assert_eq!(tl.tracks[1].end, 7.0);
        assert_eq!(tl.makespan(), 7.0);
        let _ = w;
    }
}
