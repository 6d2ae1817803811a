//! Mailbox directory: an open-addressed, identity-hashed map from
//! [`MailKey`] to dense, recycled [`Mailbox`] slots.
//!
//! The seed kernel kept mailboxes in a `HashMap<MailKey, Mailbox>` and
//! never removed entries. That is quadratic trouble for MPI traffic:
//! `mpi::Comm` derives a *fresh* key per point-to-point message (the key
//! hashes a per-(peer, tag) sequence number), so the map grew by one entry
//! per message ever sent and every lookup re-hashed the key with SipHash.
//!
//! [`MailDir`] exploits two facts. First, `MailKey`s are already FNV-mixed
//! by [`mail_key`](crate::process::mail_key), so the low bits are usable
//! as a table index directly — no second hash. Second, a mailbox is dead
//! the moment it has no arrived messages, no queued rendezvous sends, and
//! no waiting receivers — which for MPI-shaped keys is right after the
//! single matching receive. The directory releases empty mailboxes back to
//! a free list (keeping their buffer capacity for reuse), so steady-state
//! size tracks *live* mailboxes, not total messages ever sent.
//!
//! [`MailDir::clear`] empties the directory for the next engine on the
//! thread (DESIGN.md, "Warm engine storage"): the table keeps its bucket
//! count, which only probe lengths depend on, and the slab keeps its
//! emptied mailboxes, which later growth hands out again in slot order,
//! so slot numbers come out as in a new directory and only buffer
//! capacity carries over.

use crate::process::{MailKey, Payload, ProcId};
use crate::topology::HostId;
use std::collections::VecDeque;

/// A rendezvous send parked in a mailbox, waiting for its receiver.
pub(crate) struct QueuedSend {
    pub(crate) sender: ProcId,
    pub(crate) src: HostId,
    pub(crate) bytes: f64,
    pub(crate) payload: Payload,
}

/// Per-key mailbox state.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// Fully delivered eager payloads awaiting a receive.
    pub(crate) arrived: VecDeque<Payload>,
    /// Rendezvous sends posted before their matching receive.
    pub(crate) queued_sync: VecDeque<QueuedSend>,
    /// Receivers blocked on this key, in arrival order.
    pub(crate) waiting: VecDeque<ProcId>,
}

impl Mailbox {
    pub(crate) fn is_empty(&self) -> bool {
        self.arrived.is_empty() && self.queued_sync.is_empty() && self.waiting.is_empty()
    }

    fn clear(&mut self) {
        self.arrived.clear();
        self.queued_sync.clear();
        self.waiting.clear();
    }
}

/// Sentinel: table bucket holds no slot.
const EMPTY: u32 = 0;

/// Open-addressed directory of live mailboxes. Linear probing over an
/// identity-indexed table (keys are pre-mixed), dense slab of recycled
/// `Mailbox` slots.
pub(crate) struct MailDir {
    /// `(key, slot + 1)` pairs; slot-part [`EMPTY`] marks a free bucket.
    table: Vec<(u64, u32)>,
    mask: usize,
    occupied: usize,
    /// Mailboxes by slot. Only `slab[..slots]` are slots this directory
    /// has handed out; the rest are empty mailboxes kept by
    /// [`Self::clear`] for their buffers.
    slab: Vec<Mailbox>,
    slots: usize,
    free: Vec<u32>,
}

impl Default for MailDir {
    fn default() -> Self {
        MailDir {
            table: vec![(0, EMPTY); 64],
            mask: 63,
            occupied: 0,
            slab: Vec::new(),
            slots: 0,
            free: Vec::new(),
        }
    }
}

impl MailDir {
    /// Release every mailbox, dropping the payloads and queued sends
    /// still in them, and keep the table and the mailboxes' buffers for
    /// reuse. Afterwards the directory hands out slots `0, 1, 2, ...` as
    /// a new one does.
    pub(crate) fn clear(&mut self) {
        self.slab[..self.slots].iter_mut().for_each(Mailbox::clear);
        self.slots = 0;
        self.table.fill((0, EMPTY));
        self.occupied = 0;
        self.free.clear();
    }

    /// Number of live (non-released) mailboxes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.occupied
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> Option<usize> {
        let mut i = key as usize & self.mask;
        loop {
            let (k, s) = self.table[i];
            if s == EMPTY {
                return None;
            }
            if k == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    pub(crate) fn get_mut(&mut self, key: MailKey) -> Option<&mut Mailbox> {
        let b = self.bucket_of(key.0)?;
        let slot = self.table[b].1 - 1;
        Some(&mut self.slab[slot as usize])
    }

    pub(crate) fn get_or_insert(&mut self, key: MailKey) -> &mut Mailbox {
        if let Some(b) = self.bucket_of(key.0) {
            let slot = self.table[b].1 - 1;
            return &mut self.slab[slot as usize];
        }
        if (self.occupied + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                if self.slots == self.slab.len() {
                    self.slab.push(Mailbox::default());
                }
                self.slots += 1;
                (self.slots - 1) as u32
            }
        };
        let mut i = key.0 as usize & self.mask;
        while self.table[i].1 != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.table[i] = (key.0, slot + 1);
        self.occupied += 1;
        &mut self.slab[slot as usize]
    }

    /// Release `key`'s mailbox back to the free list if it is empty. The
    /// slot's buffers keep their capacity for the next mailbox that reuses
    /// the slot.
    pub(crate) fn release_if_empty(&mut self, key: MailKey) {
        let Some(b) = self.bucket_of(key.0) else {
            return;
        };
        let slot = self.table[b].1 - 1;
        if !self.slab[slot as usize].is_empty() {
            return;
        }
        self.slab[slot as usize].clear();
        self.free.push(slot);
        self.occupied -= 1;
        self.delete_bucket(b);
    }

    /// Backward-shift deletion keeps every remaining element reachable
    /// from its home bucket without tombstones.
    fn delete_bucket(&mut self, mut i: usize) {
        loop {
            self.table[i] = (0, EMPTY);
            let mut j = i;
            loop {
                j = (j + 1) & self.mask;
                let (k, s) = self.table[j];
                if s == EMPTY {
                    return;
                }
                let home = k as usize & self.mask;
                // The element at `j` may stay only if its home lies
                // cyclically within (i, j]; otherwise the new hole at `i`
                // would break its probe chain, so move it into the hole.
                let reachable = if i <= j {
                    home > i && home <= j
                } else {
                    home > i || home <= j
                };
                if !reachable {
                    self.table[i] = (k, s);
                    i = j;
                    break;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![(0, EMPTY); new_len]);
        self.mask = new_len - 1;
        for (k, s) in old {
            if s != EMPTY {
                let mut i = k as usize & self.mask;
                while self.table[i].1 != EMPTY {
                    i = (i + 1) & self.mask;
                }
                self.table[i] = (k, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::mail_key;
    use std::collections::HashMap;

    #[test]
    fn insert_lookup_release_roundtrip() {
        let mut d = MailDir::default();
        let k = mail_key(&[1, 2, 3]);
        assert!(d.get_mut(k).is_none());
        d.get_or_insert(k).waiting.push_back(ProcId(7));
        assert_eq!(d.get_mut(k).unwrap().waiting[0], ProcId(7));
        d.release_if_empty(k); // not empty: still there
        assert!(d.get_mut(k).is_some());
        d.get_mut(k).unwrap().waiting.clear();
        d.release_if_empty(k);
        assert!(d.get_mut(k).is_none());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let mut d = MailDir::default();
        for round in 0..1000u64 {
            let k = mail_key(&[round, 42]);
            d.get_or_insert(k).arrived.push_back(Box::new(round));
            let got = d.get_mut(k).unwrap().arrived.pop_front().unwrap();
            assert_eq!(*got.downcast::<u64>().unwrap(), round);
            d.release_if_empty(k);
        }
        assert_eq!(d.len(), 0);
        assert!(d.slots <= 2, "slab should recycle, not grow per key");
    }

    #[test]
    fn clear_drops_contents_and_restarts_slot_numbers() {
        let mut d = MailDir::default();
        for i in 0..100u64 {
            d.get_or_insert(mail_key(&[i]))
                .arrived
                .push_back(Box::new(i));
        }
        let buckets = d.table.len();
        d.clear();
        assert_eq!((d.len(), d.slots, d.slab.len()), (0, 0, 100));
        assert!(d.slab.iter().all(Mailbox::is_empty));
        assert_eq!(d.table.len(), buckets, "the table keeps its buckets");
        // A key from before the clear is gone; new keys take slots 0, 1, ...
        assert!(d.get_mut(mail_key(&[7])).is_none());
        d.get_or_insert(mail_key(&[500]))
            .waiting
            .push_back(ProcId(1));
        d.get_or_insert(mail_key(&[501]))
            .waiting
            .push_back(ProcId(2));
        assert_eq!((d.slots, d.slab.len()), (2, 100));
        assert_eq!(d.slab[1].waiting[0], ProcId(2));
        assert_eq!(d.get_mut(mail_key(&[501])).unwrap().waiting[0], ProcId(2));
    }

    /// Model test: random interleavings of insert/lookup/release against a
    /// std HashMap oracle, exercising growth and backward-shift deletion.
    #[test]
    fn matches_hashmap_model() {
        let mut d = MailDir::default();
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random op stream.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = mail_key(&[x % 512]);
            match x % 3 {
                0 => {
                    let mb = d.get_or_insert(key);
                    mb.arrived.push_back(Box::new(step));
                    *model.entry(key.0).or_insert(0) += 1;
                }
                1 => {
                    let got = d.get_mut(key).map(|m| m.arrived.len());
                    assert_eq!(got, model.get(&key.0).map(|&n| n as usize));
                }
                _ => {
                    if let Some(mb) = d.get_mut(key) {
                        mb.arrived.clear();
                    }
                    d.release_if_empty(key);
                    model.remove(&key.0);
                }
            }
        }
        assert_eq!(d.len(), model.len());
        for (&k, &n) in &model {
            assert_eq!(d.get_mut(MailKey(k)).unwrap().arrived.len(), n as usize);
        }
    }
}
