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

use crate::process::ProcId;
use crate::topology::HostId;

/// What a scheduled kernel event does when it fires.
#[derive(Debug, Clone)]
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

#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) t: f64,
    pub(crate) class: u8,
    pub(crate) key: u64,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl Event {
    /// `true` when `self` fires strictly before `other` in the kernel's
    /// total order `(t, class, key, seq)`.
    #[inline]
    pub(crate) fn fires_before(&self, other: &Event) -> bool {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.class.cmp(&other.class))
            .then_with(|| self.key.cmp(&other.key))
            .then_with(|| self.seq.cmp(&other.seq))
            .is_lt()
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t
            && self.class == other.class
            && self.key == other.key
            && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed so that BinaryHeap pops the earliest (t, class, key, seq).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Handle value meaning "no pending event".
pub(crate) const NO_HANDLE: u32 = u32::MAX;

/// A binary min-heap of [`Event`]s that tracks every element's position
/// through a stable `u32` handle, so any pending event can be removed in
/// O(log n) without disturbing the pop order of the rest.
#[derive(Default)]
pub(crate) struct IndexedHeap {
    /// `(event, handle)` pairs in binary-heap order.
    heap: Vec<(Event, u32)>,
    /// Handle → current index in `heap`, or [`NO_HANDLE`] when the
    /// handle's event has been popped or removed.
    pos: Vec<u32>,
    /// Recycled handles.
    free: Vec<u32>,
}

impl IndexedHeap {
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Push an event, returning its handle (stable until pop/remove).
    pub(crate) fn push(&mut self, ev: Event) -> u32 {
        let h = match self.free.pop() {
            Some(h) => h,
            None => {
                self.pos.push(NO_HANDLE);
                (self.pos.len() - 1) as u32
            }
        };
        let i = self.heap.len();
        self.heap.push((ev, h));
        self.pos[h as usize] = i as u32;
        self.sift_up(i);
        h
    }

    /// The earliest pending event, if any.
    pub(crate) fn peek(&self) -> Option<&Event> {
        self.heap.first().map(|(e, _)| e)
    }

    /// Pop the earliest pending event. Its handle is recycled.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let (ev, h) = self.heap.pop().expect("non-empty heap");
        self.pos[h as usize] = NO_HANDLE;
        self.free.push(h);
        if !self.heap.is_empty() {
            self.pos[self.heap[0].1 as usize] = 0;
            self.sift_down(0);
        }
        Some(ev)
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
        let i = i as usize;
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        self.heap.pop();
        self.pos[handle as usize] = NO_HANDLE;
        self.free.push(handle);
        if i <= last && i < self.heap.len() {
            self.pos[self.heap[i].1 as usize] = i as u32;
            // The swapped-in element may violate the heap property in
            // either direction relative to its new position.
            self.sift_down(i);
            self.sift_up(self.pos[self.heap_index_of_recheck(i)] as usize);
        }
        true
    }

    /// Overwrite the event behind `handle` in place and restore heap order
    /// with a single sift — the fast path for the kernel's re-stamp pattern
    /// (cancel an entity's completion event, immediately schedule its
    /// successor). The new time is usually close to the old one, so the
    /// sift terminates after a step or two, versus a full `remove` + `push`
    /// (three sifts plus swap bookkeeping). Falls back to a plain push if
    /// the handle is not pending. Returns the (possibly fresh) handle.
    pub(crate) fn replace(&mut self, handle: u32, ev: Event) -> u32 {
        if handle == NO_HANDLE {
            return self.push(ev);
        }
        let i = self.pos[handle as usize];
        if i == NO_HANDLE {
            return self.push(ev);
        }
        let i = i as usize;
        self.heap[i].0 = ev;
        // Decrease-or-increase key: sift_up moves it if it now fires
        // earlier than its parent; otherwise sift_down from wherever it
        // sits handles the later-firing case.
        self.sift_up(i);
        self.sift_down(self.pos[handle as usize] as usize);
        handle
    }

    /// After a sift_down from `i`, the element that started at `i` may
    /// have stayed put and still need sifting up. Track it by handle.
    fn heap_index_of_recheck(&self, i: usize) -> usize {
        self.heap[i].1 as usize
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = (i - 1) / 2;
            if self.heap[i].0.fires_before(&self.heap[p].0) {
                self.swap_nodes(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut m = i;
            if l < self.heap.len() && self.heap[l].0.fires_before(&self.heap[m].0) {
                m = l;
            }
            if r < self.heap.len() && self.heap[r].0.fires_before(&self.heap[m].0) {
                m = r;
            }
            if m == i {
                break;
            }
            self.swap_nodes(i, m);
            i = m;
        }
    }

    #[inline]
    fn swap_nodes(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Randomized push/cancel scripts: the indexed heap's pop sequence is
    /// identical to a plain `BinaryHeap` that stale-marks cancelled events
    /// and discards them at pop time — the queue oracle.
    #[test]
    fn matches_stale_mark_model_on_random_scripts() {
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // xorshift64* — deterministic, no external RNG dep.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };

        for round in 0..50u64 {
            let mut indexed = IndexedHeap::default();
            let mut model: std::collections::BinaryHeap<Event> =
                std::collections::BinaryHeap::new();
            let mut cancelled: std::collections::HashSet<u64> = std::collections::HashSet::new();
            // (seq, indexed-handle) pairs still live in both queues.
            let mut live: Vec<(u64, u32)> = Vec::new();
            let mut seq = round * 10_000;

            for _ in 0..400 {
                let r = next();
                if r % 6 == 1 && !live.is_empty() {
                    // Re-stamp a random live event: in-place replace on the
                    // indexed heap, cancel-then-fresh-push on the model —
                    // the kernel's restamp_ev pattern.
                    let i = (r >> 8) as usize % live.len();
                    let (old_s, h) = live[i];
                    let t = (r >> 8) % 16;
                    let class = ((r >> 16) % 8) as u8;
                    let key = (r >> 32) % 4;
                    let mk = |s: u64| Event {
                        t: t as f64,
                        class,
                        key,
                        seq: s,
                        kind: EventKind::CpuDone {
                            id: s as usize,
                            gen: 1,
                        },
                    };
                    let h2 = indexed.replace(h, mk(seq));
                    assert_eq!(h, h2, "replace of a live handle keeps it");
                    cancelled.insert(old_s);
                    model.push(mk(seq));
                    live[i] = (seq, h2);
                    seq += 1;
                } else if r % 3 != 0 || live.is_empty() {
                    // Push the same event into both queues. Times collide
                    // often (16 buckets) to stress the tie-break order.
                    let t = (r >> 8) % 16;
                    let class = ((r >> 16) % 8) as u8;
                    let key = (r >> 32) % 4;
                    let mk = |s: u64| Event {
                        t: t as f64,
                        class,
                        key,
                        seq: s,
                        kind: EventKind::CpuDone {
                            id: s as usize,
                            gen: 1,
                        },
                    };
                    let h = indexed.push(mk(seq));
                    model.push(mk(seq));
                    live.push((seq, h));
                    seq += 1;
                } else {
                    // Cancel a random live event: O(log n) removal on the
                    // indexed heap, stale-marking on the model.
                    let i = (r >> 8) as usize % live.len();
                    let (s, h) = live.swap_remove(i);
                    assert!(indexed.remove(h), "live handle must remove");
                    cancelled.insert(s);
                }
            }

            // Drain both; the model discards stale events at pop time.
            let mut a = Vec::new();
            while let Some(e) = indexed.pop() {
                a.push((e.t.to_bits(), e.class, e.key, e.seq));
            }
            let mut b = Vec::new();
            while let Some(e) = model.pop() {
                if !cancelled.contains(&e.seq) {
                    b.push((e.t.to_bits(), e.class, e.key, e.seq));
                }
            }
            assert_eq!(a, b, "round {round}: pop sequences diverged");
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
