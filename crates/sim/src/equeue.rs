//! Kernel event queue: shared event/order definitions plus the indexed
//! (position-tracked) heap that makes cancellations O(log n) removals.
//!
//! [`IndexedHeap`] tracks every event's heap position through a stable
//! handle, so a cancellation removes the event immediately and a re-stamp
//! overwrites it in place: the heap never carries dead weight, and the
//! kernel never pops a stale completion. It pops in the same strict
//! total order on `(t, class, key, seq)` as a plain binary heap that
//! leaves cancelled events in place and discards them at pop time — the
//! randomized push/cancel property test below holds it to that model bit
//! for bit.
//!
//! The heap array holds only 32-byte [`Node`]s: `(t, class, key)` packed
//! into one 128-bit word, then `seq` and the handle. Payloads
//! ([`EventKind`]) sit in a slab indexed by handle and never move while
//! the heap reorders.

use std::hint::select_unpredictable;

use crate::process::ProcId;
use crate::topology::HostId;

/// What a scheduled kernel event does when it fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    Start(ProcId),
    HostFail { host: HostId },
    CpuDone { id: usize, gen: u64 },
    FlowActivate { id: usize },
    FlowDone { id: usize, gen: u64 },
    SleepDone(ProcId),
    LoadOn { host: HostId, amount: f64 },
    LoadOff { host: HostId, amount: f64 },
}

/// Tie-break class and entity key for an event, precomputed at push time.
///
/// Events at equal timestamps pop in `(class, key)` order rather than
/// insertion order, so the pop sequence is independent of *how often* rates
/// were re-stamped — a prerequisite for the incremental and full recompute
/// paths (which push different numbers of events) to stay bit-identical.
/// Classes 6 and up are rate-derived completion events (`CpuDone`,
/// `FlowDone`) — the only kinds a rate solve can (re)schedule. A deferred
/// solve never needs to slot one *before* a same-instant event already
/// queued: completions due exactly at `now` carry bitwise-zero remaining
/// work (their stamps survive any rate change), and churn cannot create an
/// at-`now` completion (zero-work actions finish inline without scheduling
/// events) — see `Engine::must_flush_before` for the full argument that
/// lets the coalesced flush defer across completion pops.
pub(crate) fn class_key(kind: &EventKind) -> (u8, u64) {
    match kind {
        EventKind::Start(pid) => (0, pid.0 as u64),
        EventKind::LoadOn { host, .. } => (1, host.0 as u64),
        EventKind::LoadOff { host, .. } => (2, host.0 as u64),
        EventKind::HostFail { host } => (3, host.0 as u64),
        EventKind::SleepDone(pid) => (4, pid.0 as u64),
        EventKind::FlowActivate { id } => (5, *id as u64),
        EventKind::CpuDone { id, .. } => (6, *id as u64),
        EventKind::FlowDone { id, .. } => (7, *id as u64),
    }
}

/// An event as the kernel pushes and pops it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) t: f64,
    pub(crate) class: u8,
    pub(crate) key: u64,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

/// Handle value meaning "no pending event".
pub(crate) const NO_HANDLE: u32 = u32::MAX;

/// Bits of a node's `tck` word below the class: keys must fit in them.
const KEY_BITS: u32 = 61;

/// `x`'s rank in the [`f64::total_cmp`] order as an integer:
/// `order_key(a).cmp(&order_key(b)) == a.total_cmp(&b)` (the same bit
/// flip `total_cmp` applies), and the flip is its own inverse. The
/// kernel's event heap, the NWS sliding medians and the scheduler's
/// auction heap and index keys all sort `f64`s through it.
#[inline]
pub fn order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The value whose [`order_key`] is `key`.
#[inline]
pub fn from_order_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Flips the sign bit of `t`'s [`order_key`] in a node's high half, so
/// that the word's unsigned order is the key's signed order.
const SIGN: u64 = 1 << 63;

/// One heap slot: an event's `(t, class, key)` packed into one 128-bit
/// word whose unsigned order is the kernel's order on them, then `seq`.
#[derive(Clone, Copy)]
struct Node {
    /// `(order_key(t) as u64 ^ SIGN) << 64 | class << KEY_BITS | key`.
    tck: u128,
    seq: u64,
    handle: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

impl Node {
    /// `true` when `self` fires strictly before `other`: the order on
    /// `(tck, seq)`, evaluated without a short-circuit so that it compiles
    /// to flag arithmetic instead of a branch per word.
    #[inline(always)]
    fn before(&self, other: &Node) -> bool {
        (self.tck < other.tck) | ((self.tck == other.tck) & (self.seq < other.seq))
    }

    /// The event time.
    #[inline]
    fn t(&self) -> f64 {
        from_order_key(((self.tck >> 64) as u64 ^ SIGN) as i64)
    }

    /// `class << KEY_BITS | key`.
    #[inline]
    fn ck(&self) -> u64 {
        self.tck as u64
    }
}

/// Children per heap node.
const ARITY: usize = 4;

/// A 4-ary min-heap of events that tracks every element's position
/// through a stable `u32` handle, so any pending event can be removed in
/// O(log n) without disturbing the pop order of the rest.
///
/// Sifts carry the moving node in a register and shift the nodes it
/// passes into the hole, writing one `pos` entry per level.
#[derive(Default)]
pub(crate) struct IndexedHeap {
    /// Nodes in heap order.
    heap: Vec<Node>,
    /// Handle → current index in `heap`, or [`NO_HANDLE`] when the
    /// handle's event has been popped or removed.
    pos: Vec<u32>,
    /// Handle → payload of its pending event (stale once the handle is
    /// free).
    kinds: Vec<EventKind>,
    /// Recycled handles.
    free: Vec<u32>,
}

impl IndexedHeap {
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Drop every pending event and recycled handle, keeping the arrays'
    /// capacity: handles are then assigned from 0 again, as in a new heap.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.pos.clear();
        self.kinds.clear();
        self.free.clear();
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pack `ev`'s order under `handle`.
    ///
    /// # Panics
    ///
    /// If the class or key does not fit its bits: a truncated key would
    /// silently reorder events.
    #[inline]
    fn node(ev: &Event, handle: u32) -> Node {
        assert!(
            ev.class < 8 && ev.key >> KEY_BITS == 0,
            "event class {} / key {} exceed the heap's packing",
            ev.class,
            ev.key
        );
        let t = (order_key(ev.t) as u64 ^ SIGN) as u128;
        Node {
            tck: t << 64 | ((ev.class as u128) << KEY_BITS) | ev.key as u128,
            seq: ev.seq,
            handle,
        }
    }

    /// Push an event, returning its handle (stable until pop/remove).
    pub(crate) fn push(&mut self, ev: Event) -> u32 {
        let h = match self.free.pop() {
            Some(h) => {
                self.kinds[h as usize] = ev.kind;
                h
            }
            None => {
                self.pos.push(NO_HANDLE);
                self.kinds.push(ev.kind);
                (self.pos.len() - 1) as u32
            }
        };
        let node = Self::node(&ev, h);
        let i = self.heap.len();
        self.heap.push(node);
        self.sift_up(i, node);
        h
    }

    /// Time and class of the earliest pending event, if any.
    #[inline]
    pub(crate) fn peek(&self) -> Option<(f64, u8)> {
        self.heap
            .first()
            .map(|n| (n.t(), (n.ck() >> KEY_BITS) as u8))
    }

    /// Pop the earliest pending event. Its handle is recycled.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        let h = top.handle;
        self.pos[h as usize] = NO_HANDLE;
        self.free.push(h);
        Some(Event {
            t: top.t(),
            class: (top.ck() >> KEY_BITS) as u8,
            key: top.ck() & ((1 << KEY_BITS) - 1),
            seq: top.seq,
            kind: self.kinds[h as usize],
        })
    }

    /// Remove the event behind `handle`. Returns `false` if the handle is
    /// not pending (already popped or removed).
    pub(crate) fn remove(&mut self, handle: u32) -> bool {
        if handle == NO_HANDLE {
            return false;
        }
        let i = self.pos[handle as usize];
        if i == NO_HANDLE {
            return false;
        }
        self.pos[handle as usize] = NO_HANDLE;
        self.free.push(handle);
        let last = self.heap.pop().expect("a pending handle has a node");
        let i = i as usize;
        if i < self.heap.len() {
            // The last node refills the hole; it may belong above or below.
            self.resift(i, last);
        }
        true
    }

    /// Overwrite the event behind `handle` in place and restore heap order
    /// with a single sift — the fast path for the kernel's re-stamp pattern
    /// (cancel an entity's completion event, immediately schedule its
    /// successor). The new time is usually close to the old one, so the
    /// sift terminates after a step or two, versus a full `remove` + `push`.
    /// Falls back to a plain push if the handle is not pending. Returns
    /// the (possibly fresh) handle.
    pub(crate) fn replace(&mut self, handle: u32, ev: Event) -> u32 {
        if handle == NO_HANDLE {
            return self.push(ev);
        }
        let i = self.pos[handle as usize];
        if i == NO_HANDLE {
            return self.push(ev);
        }
        let node = Self::node(&ev, handle);
        self.kinds[handle as usize] = ev.kind;
        self.resift(i as usize, node);
        handle
    }

    /// Place `node` into the hole at `i`, sifting whichever way it belongs.
    #[inline]
    fn resift(&mut self, i: usize, node: Node) {
        if i > 0 && node.before(&self.heap[(i - 1) / ARITY]) {
            self.sift_up(i, node);
        } else {
            self.sift_down(i, node);
        }
    }

    /// Move the hole at `i` up until `node` fits, then place it.
    #[inline]
    fn sift_up(&mut self, mut i: usize, node: Node) {
        while i > 0 {
            let p = (i - 1) / ARITY;
            let parent = self.heap[p];
            if !node.before(&parent) {
                break;
            }
            self.heap[i] = parent;
            self.pos[parent.handle as usize] = i as u32;
            i = p;
        }
        self.heap[i] = node;
        self.pos[node.handle as usize] = i as u32;
    }

    /// Move the hole at `i` down until `node` fits, then place it.
    ///
    /// A full group of four siblings yields its earliest by a two-round
    /// tournament of unpredictable selects, so the child pick costs no
    /// branch; only a partial last group walks its children in a loop.
    /// Keys are unique (every event has its own `seq`), so both pick the
    /// child a first-minimum scan would.
    #[inline]
    fn sift_down(&mut self, mut i: usize, node: Node) {
        let n = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            let c = if first + ARITY <= n {
                let g = &self.heap[first..first + ARITY];
                let a = select_unpredictable(g[1].before(&g[0]), 1, 0);
                let b = select_unpredictable(g[3].before(&g[2]), 3, 2);
                first + select_unpredictable(g[b].before(&g[a]), b, a)
            } else if first < n {
                let mut c = first;
                for k in first + 1..n {
                    if self.heap[k].before(&self.heap[c]) {
                        c = k;
                    }
                }
                c
            } else {
                break;
            };
            let child = self.heap[c];
            if !child.before(&node) {
                break;
            }
            self.heap[i] = child;
            self.pos[child.handle as usize] = i as u32;
            i = c;
        }
        self.heap[i] = node;
        self.pos[node.handle as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn ev(t: f64, seq: u64) -> Event {
        Event {
            t,
            class: 6,
            key: seq,
            seq,
            kind: EventKind::CpuDone {
                id: seq as usize,
                gen: 1,
            },
        }
    }

    /// The oracle's view of an event: ordered by `(t, class, key, seq)`
    /// through `total_cmp` and plain field compares (no packing), reversed
    /// so that `BinaryHeap` pops the earliest.
    struct Model(Event);

    impl Model {
        fn order(&self, other: &Self) -> Ordering {
            let (a, b) = (&self.0, &other.0);
            a.t.total_cmp(&b.t)
                .then_with(|| a.class.cmp(&b.class))
                .then_with(|| a.key.cmp(&b.key))
                .then_with(|| a.seq.cmp(&b.seq))
        }
    }
    impl PartialEq for Model {
        fn eq(&self, other: &Self) -> bool {
            self.order(other).is_eq()
        }
    }
    impl Eq for Model {}
    impl PartialOrd for Model {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Model {
        fn cmp(&self, other: &Self) -> Ordering {
            other.order(self)
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = IndexedHeap::default();
        for (i, &t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            h.push(ev(t, i as u64));
        }
        let mut out = Vec::new();
        while let Some(e) = h.pop() {
            out.push(e.t);
        }
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn remove_excises_exactly_one() {
        let mut h = IndexedHeap::default();
        let mut handles = Vec::new();
        for i in 0..10u64 {
            handles.push(h.push(ev(10.0 - i as f64, i)));
        }
        assert!(h.remove(handles[3])); // t = 7.0
        assert!(!h.remove(handles[3]), "double remove must fail");
        let mut out = Vec::new();
        while let Some(e) = h.pop() {
            out.push(e.t);
        }
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn handles_are_recycled() {
        let mut h = IndexedHeap::default();
        let a = h.push(ev(1.0, 0));
        assert!(h.pop().is_some());
        let b = h.push(ev(2.0, 1));
        assert_eq!(a, b, "popped handle is recycled");
        assert!(h.remove(b));
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn peek_reports_time_and_class_of_the_next_pop() {
        let mut h = IndexedHeap::default();
        assert_eq!(h.peek(), None);
        h.push(Event {
            t: 2.5,
            class: 4,
            key: 9,
            seq: 0,
            kind: EventKind::SleepDone(ProcId(9)),
        });
        h.push(ev(3.0, 1));
        assert_eq!(h.peek(), Some((2.5, 4)));
        let e = h.pop().expect("two events queued");
        assert_eq!((e.t, e.class, e.key, e.seq), (2.5, 4, 9, 0));
        assert!(matches!(e.kind, EventKind::SleepDone(ProcId(9))));
        assert_eq!(h.peek(), Some((3.0, 6)));
    }

    #[test]
    #[should_panic(expected = "exceed the heap's packing")]
    fn a_key_past_the_packing_limit_is_refused() {
        let mut h = IndexedHeap::default();
        let mut e = ev(1.0, 0);
        e.key = 1 << KEY_BITS;
        h.push(e);
    }

    /// Randomized push/replace/cancel/pop scripts: the indexed heap's pop
    /// sequence is identical to a plain `BinaryHeap` that stale-marks
    /// cancelled events and discards them at pop time — the queue oracle.
    ///
    /// Each script runs 6 000 operations biased toward pushes, so the heap
    /// grows thousands deep and the sifts cross many levels. Re-stamps and
    /// cancels sometimes target the root and the last slot on purpose.
    /// Times are drawn from a few values so ties exercise the class, key
    /// and seq tie-breaks, and include ±0.0, ±inf and NaN; keys include
    /// the largest that packs.
    #[test]
    fn matches_stale_mark_model_on_random_scripts() {
        const TIMES: [f64; 20] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -1.5,
            0.25,
            1.0,
            2.0,
            3.0,
            4.0,
            5.0,
            6.0,
            7.0,
            8.0,
            1e-300,
            -1e-300,
            1e300,
            f64::MIN_POSITIVE,
        ];
        const KEYS: [u64; 4] = [0, 1, (1 << KEY_BITS) - 2, (1 << KEY_BITS) - 1];

        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // xorshift64* — deterministic, no external RNG dep.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mk = |r: u64, seq: u64| Event {
            t: TIMES[((r >> 8) % TIMES.len() as u64) as usize],
            class: ((r >> 16) % 8) as u8,
            key: KEYS[((r >> 32) % 4) as usize],
            seq,
            kind: EventKind::CpuDone {
                id: seq as usize,
                gen: 1,
            },
        };
        let bits = |e: &Event| (e.t.to_bits(), e.class, e.key, e.seq);

        let mut deepest = 0;
        for round in 0..12u64 {
            let mut indexed = IndexedHeap::default();
            let mut model = std::collections::BinaryHeap::new();
            let mut cancelled = std::collections::HashSet::new();
            // seq → indexed handle, for events still live in both queues.
            let mut handle_of = std::collections::HashMap::new();
            // Seqs of live events, for random picks.
            let mut live: Vec<u64> = Vec::new();
            let mut seq = round * 100_000;

            for step in 0..6_000u64 {
                let r = next();
                let op = r % 16;
                // Every third script stops pushing after 4 000 steps, so
                // the heap also drains back through its depth.
                let draining = step > 4_000 && round % 3 == 0;
                if live.is_empty() || (op < 9 && !draining) {
                    // Push the same event into both queues.
                    let e = mk(next(), seq);
                    handle_of.insert(seq, indexed.push(e));
                    model.push(Model(e));
                    live.push(seq);
                    seq += 1;
                } else if op < 11 {
                    // Re-stamp a live event: in-place replace on the indexed
                    // heap, cancel-then-fresh-push on the model — the
                    // kernel's restamp_ev pattern. Every fourth targets the
                    // root or the node in the last slot.
                    let old = pick(&indexed, &live, r);
                    let h = handle_of.remove(&old).expect("live seq has a handle");
                    let e = mk(next(), seq);
                    let h2 = indexed.replace(h, e);
                    assert_eq!(h, h2, "replace of a live handle keeps it");
                    cancelled.insert(old);
                    model.push(Model(e));
                    forget(&mut live, old);
                    live.push(seq);
                    handle_of.insert(seq, h2);
                    seq += 1;
                } else if op < 13 {
                    // Pop from both; the model skips stale-marked events.
                    let a = indexed.pop().expect("live events are queued");
                    let b = loop {
                        let Model(e) = model.pop().expect("model holds every live event");
                        if !cancelled.remove(&e.seq) {
                            break e;
                        }
                    };
                    assert_eq!(
                        bits(&a),
                        bits(&b),
                        "round {round} step {step}: pop diverged"
                    );
                    handle_of.remove(&a.seq);
                    forget(&mut live, a.seq);
                } else {
                    // Cancel a live event: O(log n) removal on the indexed
                    // heap, stale-marking on the model.
                    let s = pick(&indexed, &live, r);
                    let h = handle_of.remove(&s).expect("live seq has a handle");
                    assert!(indexed.remove(h), "live handle must remove");
                    assert!(!indexed.remove(h), "a removed handle is dead");
                    cancelled.insert(s);
                    forget(&mut live, s);
                }
                assert_eq!(indexed.len(), live.len());
                deepest = deepest.max(indexed.len());
            }

            // Drain both; the model discards stale events at pop time.
            let a: Vec<_> = std::iter::from_fn(|| indexed.pop())
                .map(|e| bits(&e))
                .collect();
            let b: Vec<_> = std::iter::from_fn(|| model.pop())
                .filter(|Model(e)| !cancelled.contains(&e.seq))
                .map(|Model(e)| bits(&e))
                .collect();
            assert_eq!(a, b, "round {round}: drained sequences diverged");
        }
        assert!(deepest >= 1_000, "scripts reach a deep heap ({deepest})");

        fn forget(live: &mut Vec<u64>, s: u64) {
            let i = live.iter().position(|&x| x == s).expect("seq is live");
            live.swap_remove(i);
        }
        /// A live seq: the root's or the last slot's on every fourth draw.
        fn pick(h: &IndexedHeap, live: &[u64], r: u64) -> u64 {
            match (r >> 40) % 8 {
                0 => h.heap[0].seq,
                1 => h.heap[h.heap.len() - 1].seq,
                _ => live[(r >> 8) as usize % live.len()],
            }
        }
    }

    /// `Node::before` is the `Model` comparator on every pair of events
    /// drawn from the random-script test's special times, all eight
    /// classes, the edge keys and two seqs: the packing, the sign flip of
    /// the high half and the branch-free compare, tested directly rather
    /// than through pops.
    #[test]
    fn node_order_is_the_model_order() {
        const TIMES: [f64; 11] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            1e300,
            -1e300,
        ];
        const KEYS: [u64; 4] = [0, 1, (1 << KEY_BITS) - 2, (1 << KEY_BITS) - 1];
        let mut events = Vec::new();
        for &t in &TIMES {
            for class in 0..8u8 {
                for &key in &KEYS {
                    for seq in [3, 7] {
                        events.push(Event {
                            t,
                            class,
                            key,
                            seq,
                            kind: EventKind::SleepDone(ProcId(0)),
                        });
                    }
                }
            }
        }
        let nodes: Vec<Node> = events.iter().map(|e| IndexedHeap::node(e, 0)).collect();
        for (a, na) in events.iter().zip(&nodes) {
            assert_eq!(na.t().to_bits(), a.t.to_bits(), "time decodes");
            assert_eq!(na.ck(), (a.class as u64) << KEY_BITS | a.key);
            for (b, nb) in events.iter().zip(&nodes) {
                assert_eq!(
                    na.before(nb),
                    Model(*a).order(&Model(*b)).is_lt(),
                    "{:?} vs {:?}",
                    (a.t, a.class, a.key, a.seq),
                    (b.t, b.class, b.key, b.seq)
                );
            }
        }
    }

    /// Every heap size 1..=64, so the last sibling group holds one to four
    /// children at several depths and both the tournament and the
    /// partial-group loop run. At each size every position is replaced
    /// once and removed (then refilled) once, and the drain must pop the
    /// live events in `Model` order.
    #[test]
    fn every_tail_shape_pops_in_model_order() {
        // Few distinct times, so ties reach the class, key and seq.
        let mk = |i: u64, seq: u64| Event {
            t: [2.0, -0.0, 1.0, 0.0, 3.5][(i * 7 % 5) as usize],
            class: (i * 3 % 8) as u8,
            key: i % 3,
            seq,
            kind: EventKind::CpuDone {
                id: seq as usize,
                gen: 1,
            },
        };
        let bits = |e: &Event| (e.t.to_bits(), e.class, e.key, e.seq);
        for n in 1..=64usize {
            let mut h = IndexedHeap::default();
            let mut live: Vec<Event> = Vec::new();
            let mut seq = 0u64;
            let mut fresh = |live: &mut Vec<Event>| {
                let e = mk(seq * 13 + n as u64, seq);
                seq += 1;
                live.push(e);
                e
            };
            for _ in 0..n {
                h.push(fresh(&mut live));
            }
            for i in 0..n {
                let (handle, old) = (h.heap[i].handle, h.heap[i].seq);
                live.retain(|e| e.seq != old);
                assert_eq!(h.replace(handle, fresh(&mut live)), handle);
            }
            for i in 0..n {
                let (handle, old) = (h.heap[i].handle, h.heap[i].seq);
                assert!(h.remove(handle));
                live.retain(|e| e.seq != old);
                h.push(fresh(&mut live));
            }
            assert_eq!(h.len(), n);
            live.sort_by(|a, b| Model(*a).order(&Model(*b)));
            for want in &live {
                let got = h.pop().expect("as many pops as live events");
                assert_eq!(bits(&got), bits(want), "heap of {n}");
            }
            assert!(h.is_empty());
        }
    }

    #[test]
    fn replace_moves_in_both_directions() {
        let mut h = IndexedHeap::default();
        let mut handles = Vec::new();
        for i in 0..8u64 {
            handles.push(h.push(ev(i as f64 + 1.0, i)));
        }
        // Decrease-key: t=6.0 → t=0.5 must pop first.
        assert_eq!(h.replace(handles[5], ev(0.5, 100)), handles[5]);
        // Increase-key: t=1.0 → t=99.0 must pop last.
        assert_eq!(h.replace(handles[0], ev(99.0, 101)), handles[0]);
        let out: Vec<f64> = std::iter::from_fn(|| h.pop()).map(|e| e.t).collect();
        assert_eq!(out, vec![0.5, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 99.0]);
        // A dead handle degrades to a plain push.
        let fresh = h.replace(handles[3], ev(1.0, 102));
        assert_eq!(h.pop().map(|e| e.seq), Some(102));
        let _ = fresh;
    }

    #[test]
    fn equal_times_break_by_class_key_seq() {
        let mut h = IndexedHeap::default();
        let mk = |class: u8, key: u64, seq: u64| Event {
            t: 1.0,
            class,
            key,
            seq,
            kind: EventKind::SleepDone(ProcId(0)),
        };
        h.push(mk(4, 2, 10));
        h.push(mk(4, 1, 11));
        h.push(mk(0, 9, 12));
        h.push(mk(4, 1, 5));
        let order: Vec<(u8, u64, u64)> = std::iter::from_fn(|| h.pop())
            .map(|e| (e.class, e.key, e.seq))
            .collect();
        assert_eq!(order, vec![(0, 9, 12), (4, 1, 5), (4, 1, 11), (4, 2, 10)]);
    }
}
