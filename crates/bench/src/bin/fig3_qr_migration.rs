//! Regenerate **Figure 3** (§4.1.2): QR stop/restart migration across
//! problem sizes.
//!
//! For each nominal matrix size N the harness runs the full GrADS cycle on
//! the MacroGrid QR testbed four ways: forced no-rescheduling (the paper's
//! left bars), forced rescheduling (right bars), the default rescheduler
//! with modeled overhead, and the default rescheduler with the paper's
//! experimentally-determined worst-case overhead assumption of 900 s
//! (which produced the wrong decision at N = 8000 in the paper).
//!
//! Usage: `cargo run --release -p grads-bench --bin fig3_qr_migration
//! [n_real]` — larger `n_real` raises numeric fidelity at the cost of
//! harness time. The 28 runs are independent and fan out over
//! `GRADS_SWEEP_WORKERS` threads (default: all cores); the output is
//! byte-identical at any worker count.

use grads_bench::sweep::{default_workers, run_sweep};
use grads_bench::{breakdown_header, breakdown_row};
use grads_core::apps::{run_qr_experiment, QrExperimentConfig, QrExperimentResult};
use grads_core::reschedule::{OverheadPolicy, ReschedulerMode};
use grads_core::sim::topology::macrogrid_qr;

fn run(n: usize, n_real: usize, mode: ReschedulerMode, ovh: OverheadPolicy) -> QrExperimentResult {
    let mut cfg = QrExperimentConfig::paper(n);
    cfg.qr.n_real = n_real;
    cfg.mode = mode;
    cfg.overhead = ovh;
    run_qr_experiment(macrogrid_qr(), cfg)
}

fn main() {
    let n_real: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    println!("Figure 3 — QR stop/restart migration (MacroGrid: 4x933 dual UTK + 8x450 UIUC)");
    println!("load: 6 competing processes on utk-0 at t = 300 s; n_real = {n_real}\n");
    println!("{}", breakdown_header());

    let sizes = [6000usize, 8000, 10000, 11000, 12000, 14000, 16000];
    // Per size, in this order: no-resched, resched, default with modeled
    // overhead, default with the 900 s worst-case overhead.
    let modes = [
        (ReschedulerMode::ForceStay, OverheadPolicy::Modeled),
        (ReschedulerMode::ForceMigrate, OverheadPolicy::Modeled),
        (ReschedulerMode::Default, OverheadPolicy::Modeled),
        (ReschedulerMode::Default, OverheadPolicy::WorstCase(900.0)),
    ];
    let cells: Vec<_> = sizes
        .iter()
        .flat_map(|&n| modes.iter().map(move |&(mode, ovh)| (n, mode, ovh)))
        .collect();
    let results = run_sweep(&cells, default_workers(), |_, &(n, mode, ovh)| {
        run(n, n_real, mode, ovh)
    });
    let mut summary = Vec::new();
    for (&n, runs) in sizes.iter().zip(results.chunks(modes.len())) {
        let [stay, go, dflt, worst] = runs else {
            unreachable!("one result per mode");
        };
        println!(
            "{}",
            breakdown_row(&format!("N={n} no-resched"), &stay.breakdown)
        );
        println!(
            "{}",
            breakdown_row(&format!("N={n} resched"), &go.breakdown)
        );

        let best_is_migrate = go.total_time < stay.total_time * 0.98;
        let tie = (go.total_time - stay.total_time).abs() < 0.02 * stay.total_time;
        let judge = |migrated: bool| {
            if tie {
                "tie"
            } else if migrated == best_is_migrate {
                "RIGHT"
            } else {
                "WRONG"
            }
        };
        println!(
            "{:<22} default(modeled): {}, {}; default(worst-case 900s): {}, {}",
            format!("N={n} decisions"),
            if dflt.migrated { "migrate" } else { "stay" },
            judge(dflt.migrated),
            if worst.migrated { "migrate" } else { "stay" },
            judge(worst.migrated),
        );
        summary.push((
            n,
            stay.total_time,
            go.total_time,
            dflt.migrated,
            worst.migrated,
        ));
        println!();
    }

    println!("summary (execution time in s):");
    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>16} {:>18}",
        "N", "no-resched", "resched", "winner", "default(modeled)", "default(worst-900)"
    );
    for (n, s, g, dm, dw) in summary {
        let winner = if (g - s).abs() < 0.02 * s {
            "tie"
        } else if g < s {
            "resched"
        } else {
            "stay"
        };
        println!(
            "{n:>7} {s:>12.1} {g:>12.1} {winner:>10} {:>16} {:>18}",
            if dm { "migrate" } else { "stay" },
            if dw { "migrate" } else { "stay" }
        );
    }
    println!("\npaper shape to check: checkpoint-read dominates migration cost; rescheduling");
    println!("pays only above a size crossover; the worst-case-overhead policy refuses to");
    println!("migrate in a band above the crossover where migration actually wins (the");
    println!("paper's wrong decision at N = 8000).");
}
