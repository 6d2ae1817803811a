//! The reference probe: a fixed amount of work that lives in the
//! benchmark's own files, so no change to the program under test can move
//! it. Timing it just before and just after each timed call tracks how
//! fast the host runs right then; dividing a call's time by the probe's
//! gives a host-speed-normalised time.
//!
//! The work is a rendezvous ping-pong between the calling thread and one
//! helper thread on the same CPU: every round trip is two blocking
//! handoffs through the OS scheduler, the path the simulator's process
//! handoff takes. On the 2-vCPU VM this benchmark was built on, host
//! slowdowns moved every workload's pass time about one-for-one with this
//! probe (log-log slope 0.97–1.09 over pass-length windows, correlation
//! 0.91–0.98), while probes of pure CPU, cache and memory work moved 1.5–2×
//! less than the program did.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round trips per unit.
const ROUND_TRIPS: u32 = 300;
/// Units per probe. The probe reports the median unit (times `UNITS`),
/// so one interrupted unit does not move it.
const UNITS: usize = 7;

pub struct Probe {
    to_peer: Option<SyncSender<u32>>,
    from_peer: Receiver<u32>,
    peer: Option<JoinHandle<()>>,
}

impl Probe {
    /// Start the helper thread. Call after pinning, so it shares the CPU.
    pub fn new() -> Probe {
        let (to_peer, peer_rx) = sync_channel::<u32>(0);
        let (peer_tx, from_peer) = sync_channel::<u32>(0);
        let peer = std::thread::Builder::new()
            .name("probe-peer".into())
            .spawn(move || {
                while let Ok(v) = peer_rx.recv() {
                    if peer_tx.send(v).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the probe's helper thread");
        Probe {
            to_peer: Some(to_peer),
            from_peer,
            peer: Some(peer),
        }
    }

    /// One unit of the fixed work; returns its host seconds.
    fn unit(&self) -> f64 {
        let tx = self.to_peer.as_ref().expect("probe running");
        let t0 = Instant::now();
        for i in 0..ROUND_TRIPS {
            tx.send(i).expect("probe helper alive");
            let back = self.from_peer.recv().expect("probe helper alive");
            debug_assert_eq!(back, i);
        }
        t0.elapsed().as_secs_f64()
    }

    /// Run the probe: host seconds of its fixed work, taken as the
    /// median unit times the unit count.
    pub fn run(&self) -> f64 {
        let mut units = [0.0f64; UNITS];
        for u in units.iter_mut() {
            *u = self.unit();
        }
        units.sort_by(f64::total_cmp);
        units[UNITS / 2] * UNITS as f64
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop; wait for it to exit.
        self.to_peer = None;
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}
