//! Regenerate **Figure 4** (§4.2.2): emulated application progress during
//! the N-body process-swapping demonstration.
//!
//! The paper's axes: iteration number vs. time. Competing load lands on a
//! UTK node at t = 80 s; the swap rescheduler detects the slowdown and
//! moves the affected logical rank to the (idle) UIUC pool, restoring the
//! progress slope. A no-swap baseline run shows the counterfactual.
//!
//! Usage: `cargo run --release -p grads-bench --bin fig4_nbody_swap
//! [csv_path]` — the optional path receives the progress series as CSV
//! for external plotting. The two runs fan out over `GRADS_SWEEP_WORKERS`
//! threads (default: all cores); the output is byte-identical at any
//! worker count.

use grads_bench::sweep::{default_workers, run_sweep};
use grads_core::apps::{run_nbody_experiment, NbodyConfig, NbodyExperimentConfig};
use grads_core::reschedule::SwapPolicy;
use grads_core::sim::topology::microgrid_nbody;

fn main() {
    let grid = microgrid_nbody();
    let mut workers = grid.hosts_of("UTK");
    workers.extend(grid.hosts_of("UIUC"));
    let monitor = grid.hosts_of("UCSD")[0];
    let base = NbodyExperimentConfig {
        app: NbodyConfig {
            n_bodies: 96,
            iters: 300,
            flops_per_pair: 2e5,
            ..Default::default()
        },
        t_max: 4000.0,
        ..Default::default()
    };
    println!("Figure 4 — N-body progress during the process-swapping demonstration");
    println!("MicroGrid: 3x550 MHz UTK (active) + 3x450 MHz UIUC (inactive) + UCSD monitor");
    println!(
        "load: {} competing processes on utk-0 at t = {} s\n",
        base.load_amount, base.load_at
    );

    // Pack-cluster policy: the paper's behaviour (all three processes
    // move to UIUC), then the no-swap baseline.
    let policies = [SwapPolicy::PackCluster { factor: 1.5 }, SwapPolicy::Never];
    let runs = run_sweep(&policies, default_workers(), |_, &policy| {
        let mut cfg = base.clone();
        cfg.policy = policy;
        run_nbody_experiment(grid.clone(), &workers, monitor, cfg)
    });
    let (with_swap, no_swap) = (&runs[0], &runs[1]);

    // Print both series on a common 10-s grid (iteration reached by t).
    let sample = |series: &[(f64, f64)], t: f64| -> f64 {
        series
            .iter()
            .take_while(|&&(ts, _)| ts <= t)
            .last()
            .map(|&(_, i)| i)
            .unwrap_or(0.0)
    };
    let t_end = with_swap.end_time.max(no_swap.end_time);
    println!("{:>8} {:>12} {:>12}", "time(s)", "swap", "no-swap");
    let mut t = 0.0;
    while t <= t_end + 10.0 {
        println!(
            "{t:>8.0} {:>12.0} {:>12.0}",
            sample(&with_swap.progress, t),
            sample(&no_swap.progress, t)
        );
        t += 20.0;
    }
    for &(ts, l) in &with_swap.swaps {
        println!("\nswap actuated: logical rank {l:.0} at t = {ts:.1} s");
    }
    if let Some(path) = std::env::args().nth(1) {
        let mut csv = String::from("time,iteration_swap,iteration_noswap\n");
        let mut t = 0.0;
        while t <= t_end + 10.0 {
            csv.push_str(&format!(
                "{t},{},{}\n",
                sample(&with_swap.progress, t),
                sample(&no_swap.progress, t)
            ));
            t += 10.0;
        }
        std::fs::write(&path, csv).expect("write CSV");
        println!("series written to {path}");
    }
    println!(
        "completion: with swapping {:.1} s, without {:.1} s ({:.0}% saved)",
        with_swap.end_time,
        no_swap.end_time,
        (1.0 - with_swap.end_time / no_swap.end_time) * 100.0
    );
    println!("\npaper shape to check: the slope drops when the load arrives (~t=80) and");
    println!("recovers shortly after the swap (~paper: by t=150); the no-swap run stays slow.");
}
