//! Jacobi heat diffusion in a swap world, with the Contract-Viewer-style
//! control-activity timeline: a loaded host slows the stencil sweep; the
//! swap rescheduler moves the affected rank; the timeline shows the load
//! event and the swap actuation.
//!
//! Run with: `cargo run --release -p grads-core --example heat_diffusion`

use grads_core::apps::jacobi::{jacobi_step, JacobiConfig, JacobiState};
use grads_core::contract::render_timeline;
use grads_core::mpi::launch_swap_world;
use grads_core::nws::{CpuSensor, NwsService};
use grads_core::obs::Obs;
use grads_core::reschedule::{run_swap_rescheduler, SwapPolicy};
use grads_core::sim::prelude::*;
use grads_core::sim::topology::GridBuilder;
use parking_lot::Mutex;
use std::sync::Arc;

fn main() {
    let mut b = GridBuilder::new();
    let c = b.cluster("POOL");
    b.local_link(c, 1e8, 1e-4);
    let hosts = b.add_hosts(c, 4, &HostSpec::with_speed(1e9));
    let grid = b.build().expect("valid topology");
    let mut eng = Engine::new(grid.clone());

    let cfg = JacobiConfig {
        n: 128,
        iters: 400,
        flops_per_cell: 2e4, // ~0.25 s/iteration/rank
        ..Default::default()
    };
    println!(
        "Jacobi {}x{} on 2 active + 2 inactive hosts; load hits the first host at t = 30 s\n",
        cfg.n, cfg.n
    );

    let done = Arc::new(Mutex::new(false));
    let done_w = done.clone();
    let cfg_step = cfg.clone();
    let sw = launch_swap_world(
        &mut eng,
        "heat",
        &hosts,
        2,
        8.0 * (cfg.n * cfg.n) as f64,
        {
            let cfg = cfg.clone();
            move |logical| JacobiState::new(&cfg, 2, logical)
        },
        move |ctx, comm, st| {
            let fin = jacobi_step(ctx, comm, &cfg_step, st);
            if fin && comm.rank() == 0 {
                *done_w.lock() = true;
            }
            fin
        },
    );

    // Sensors + swap rescheduler.
    let nws = Arc::new(Mutex::new(NwsService::new()));
    for &h in &hosts {
        let nws2 = nws.clone();
        let done2 = done.clone();
        let speed = grid.host(h).speed;
        let sensor = CpuSensor::new(nws2, h, speed, 1e6, 5.0, move || *done2.lock());
        eng.spawn_daemon(&format!("sensor-{h}"), h, sensor);
    }
    {
        let (sw2, nws2, done2, grid2) = (sw.clone(), nws.clone(), done.clone(), grid.clone());
        eng.spawn("swap-rescheduler", hosts[3], move |ctx| {
            run_swap_rescheduler(
                ctx,
                &sw2,
                &grid2,
                &nws2,
                SwapPolicy::Greedy { factor: 2.0 },
                10.0,
                &move || *done2.lock(),
                &Obs::disabled(),
            );
        });
    }
    eng.add_load_window(hosts[0], 30.0, None, 3.0);

    let report = eng.run_until(2000.0);
    let progress = report.trace.series("jacobi_iter");
    println!("time (s)  iteration");
    let mut last = -20.0;
    for &(t, it) in &progress {
        if t - last >= 15.0 {
            println!("{t:>8.1}  {it:>9.0}");
            last = t;
        }
    }
    println!(
        "\ncompleted {} iterations at t = {:.1} s; swaps: {}\n",
        progress.len(),
        progress.last().map(|&(t, _)| t).unwrap_or(0.0),
        sw.swaps_done()
    );
    // The Contract-Viewer analog: what the control loop did, and when.
    print!("{}", render_timeline(&report.trace, 60));
}
