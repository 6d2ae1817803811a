//! Distributed Householder QR factorization — the ScaLAPACK-analog
//! application of the §4.1 stop/restart experiment.
//!
//! The matrix is distributed over ranks 1-D block-cyclically by columns.
//! Each elimination step the owner of the pivot column computes the
//! Householder reflector (real arithmetic), broadcasts it, and every rank
//! updates its trailing local columns. The factorization is numerically
//! verifiable (`A = QR` reconstruction) and checkpointable through SRS:
//! at poll points the ranks write the matrix (block-cyclic, so N→M
//! redistribution works on restart), the tau vector and the progress
//! counter.
//!
//! **Nominal vs. real sizes.** The paper factors matrices up to
//! N = 12 000 (≈ 2.3 Tflop); executing that for every figure point would
//! swamp the harness. The app therefore computes on a *real* `n_real ×
//! n_real` matrix while charging the emulator the flop and byte costs of
//! the *nominal* size: per real step `k`, flops scale by `(N/n)³` and
//! broadcast/checkpoint bytes by `(N/n)²`, preserving the totals
//! (`4/3·N³` flops, `8·N²`-byte checkpoints) and the cubic/quadratic cost
//! profiles. Tests verify numerics at `n_real = N`. See DESIGN.md.

use grads_mpi::{BlockCyclic, Comm};
use grads_sim::prelude::*;
use grads_srs::Srs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// QR application configuration.
#[derive(Debug, Clone)]
pub struct QrConfig {
    /// Nominal (paper-scale) matrix dimension N.
    pub n_nominal: usize,
    /// Real computed matrix dimension (= `n_nominal` for full-fidelity
    /// runs; smaller for figure sweeps).
    pub n_real: usize,
    /// Column-block size of the block-cyclic distribution.
    pub block: usize,
    /// Poll the SRS stop flag every this many real elimination steps.
    pub poll_every: usize,
    /// Seed for the input matrix.
    pub seed: u64,
    /// Fraction of peak flop rate the kernel achieves (2003-era BLAS on
    /// Pentium III sustained ~40% of peak). Folded into the flop charge.
    pub efficiency: f64,
}

impl QrConfig {
    /// Full-fidelity configuration (real = nominal).
    pub fn full(n: usize, block: usize) -> Self {
        QrConfig {
            n_nominal: n,
            n_real: n,
            block,
            poll_every: 8,
            seed: 42,
            efficiency: 1.0,
        }
    }

    /// Flop-charge scale factor `(N/n)³ / efficiency`.
    pub fn flop_scale(&self) -> f64 {
        let s = self.n_nominal as f64 / self.n_real as f64;
        s * s * s / self.efficiency
    }

    /// Total flop charge of the nominal problem (peak-equivalent flops).
    pub fn charged_flops(&self) -> f64 {
        qr_flops(self.n_nominal as f64) / self.efficiency
    }

    /// Byte scale factor `(N/n)²`.
    pub fn byte_scale(&self) -> f64 {
        let s = self.n_nominal as f64 / self.n_real as f64;
        s * s
    }

    /// Column distribution over `p` ranks.
    pub fn dist(&self, p: usize) -> BlockCyclic {
        BlockCyclic::new(self.n_real, self.block, p)
    }

    /// Element-level distribution (column-major flattening) matching the
    /// column distribution — what SRS checkpoints use, so restarts may
    /// redistribute N→M.
    pub fn elem_dist(&self, p: usize) -> BlockCyclic {
        BlockCyclic::new(self.n_real * self.n_real, self.block * self.n_real, p)
    }

    /// Nominal checkpoint volume: the matrix plus the tau vector, bytes.
    pub fn checkpoint_bytes(&self) -> f64 {
        8.0 * (self.n_nominal as f64 * self.n_nominal as f64 + self.n_nominal as f64)
    }
}

/// Exact flop count of Householder QR on an n×n matrix (leading terms).
pub fn qr_flops(n: f64) -> f64 {
    4.0 / 3.0 * n * n * n
}

/// How a rank's participation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum QrOutcome {
    /// Factorization ran to completion.
    Completed,
    /// The RSS stop flag was honoured: state checkpointed at this step.
    Stopped {
        /// The next real elimination step to execute on restart.
        step: usize,
    },
}

/// Per-rank local state of the factorization.
pub struct QrLocal {
    /// Local columns, column-major (`n_real` rows each), in local index
    /// order of the column distribution.
    pub a: Vec<f64>,
    /// Householder tau values (global, replicated).
    pub tau: Vec<f64>,
    /// Column distribution.
    pub dist: BlockCyclic,
    /// This rank.
    pub rank: usize,
}

impl QrLocal {
    /// Generate this rank's slice of the deterministic random input
    /// matrix.
    pub fn generate(cfg: &QrConfig, rank: usize, p: usize) -> Self {
        let n = cfg.n_real;
        let dist = cfg.dist(p);
        let ncols = dist.local_len(rank);
        let mut a = vec![0.0; n * ncols];
        for lc in 0..ncols {
            let g = dist.global_index(rank, lc);
            // Per-column RNG so the matrix is identical for any p.
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(g as u64));
            for r in 0..n {
                a[lc * n + r] = rng.gen_range(-1.0..1.0);
            }
        }
        QrLocal {
            a,
            tau: vec![0.0; n],
            dist,
            rank,
        }
    }

    /// Local column count.
    pub fn ncols(&self) -> usize {
        self.dist.local_len(self.rank)
    }
}

/// Run the factorization on one rank, from `start_step`, until completion
/// or an SRS stop request. Charges nominal-scale flops and bytes to the
/// emulator; the numerics are real.
pub fn run_qr_rank(
    ctx: &mut Ctx,
    comm: &mut Comm,
    cfg: &QrConfig,
    local: &mut QrLocal,
    srs: Option<&Srs>,
    start_step: usize,
) -> QrOutcome {
    let n = cfg.n_real;
    let p = comm.size();
    let bscale = cfg.byte_scale();
    let iter_t0 = ctx.now();
    let mut iter_start = iter_t0;
    for k in start_step..n.saturating_sub(1) {
        // Stop poll (the SRS "check if the application needs to be
        // checkpointed and stopped"). The decision is collective — rank 0
        // reads the flag and broadcasts the verdict — because a
        // unilateral exit would deadlock the step broadcasts.
        if k % cfg.poll_every.max(1) == 0 {
            if let Some(srs) = srs {
                let stop = if p > 1 {
                    comm.bcast_t(
                        ctx,
                        0,
                        16.0,
                        (comm.rank() == 0).then(|| srs.should_stop() && k > start_step),
                    )
                } else {
                    srs.should_stop() && k > start_step
                };
                if stop {
                    checkpoint(ctx, comm, cfg, local, srs, k);
                    return QrOutcome::Stopped { step: k };
                }
            }
        }
        let owner = local.dist.owner(k);
        let reflector =
            (comm.rank() == owner).then(|| householder_reflector(ctx, comm, cfg, local, k));
        // Broadcast (w, tau) from the owner.
        let bytes = 8.0 * ((n - k) as f64 + 2.0) * bscale;
        let (w, tau) = if p > 1 {
            comm.bcast_t(ctx, owner, bytes, reflector)
        } else {
            reflector.expect("a single rank owns every column")
        };
        apply_reflector(ctx, comm, cfg, local, k, &w, tau);
        // Sensor: report per-step time as the monitored phase, batched to
        // keep sensor volume sane.
        if (k + 1) % cfg.poll_every.max(1) == 0 {
            let now = ctx.now();
            comm.record_phase("qr_steps", now - iter_start);
            iter_start = now;
        }
    }
    QrOutcome::Completed
}

/// Step `k`'s Householder reflector, computed by the owner of pivot
/// column `k`: stores R's diagonal entry and the reflector below it in
/// the column, charges the flops, and returns `(w, tau)` with `w[0] = 1`.
pub(crate) fn householder_reflector(
    ctx: &mut Ctx,
    comm: &mut Comm,
    cfg: &QrConfig,
    local: &mut QrLocal,
    k: usize,
) -> (Vec<f64>, f64) {
    let n = cfg.n_real;
    let m = n - k; // reflector length
    let lc = local.dist.local_index(k);
    let col = &mut local.a[lc * n..(lc + 1) * n];
    let x = &col[k..n];
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    let x0 = x[0];
    let alpha = if x0 >= 0.0 { -norm } else { norm };
    let v0 = x0 - alpha;
    let mut w = vec![1.0; m];
    if v0.abs() > 0.0 && norm > 0.0 {
        for (wi, xi) in w[1..].iter_mut().zip(&x[1..]) {
            *wi = xi / v0;
        }
    } else {
        w[1..].fill(0.0);
    }
    let wnorm2: f64 = w.iter().map(|v| v * v).sum();
    let tau = if norm > 0.0 { 2.0 / wnorm2 } else { 0.0 };
    col[k] = alpha;
    col[k + 1..].copy_from_slice(&w[1..]);
    comm.compute(ctx, (4 * m) as f64 * cfg.flop_scale());
    (w, tau)
}

/// Apply step `k`'s reflector `(w, tau)` to this rank's trailing local
/// columns (global index > `k`), record `tau`, and charge the flops.
pub(crate) fn apply_reflector(
    ctx: &mut Ctx,
    comm: &mut Comm,
    cfg: &QrConfig,
    local: &mut QrLocal,
    k: usize,
    w: &[f64],
    tau: f64,
) {
    let n = cfg.n_real;
    local.tau[k] = tau;
    let mut updated = 0usize;
    for lc in 0..local.ncols() {
        if local.dist.global_index(local.rank, lc) <= k {
            continue;
        }
        let col = &mut local.a[lc * n + k..(lc + 1) * n];
        let mut s = 0.0;
        for (wi, ci) in w.iter().zip(col.iter()) {
            s += wi * ci;
        }
        s *= tau;
        for (ci, wi) in col.iter_mut().zip(w) {
            *ci -= s * wi;
        }
        updated += 1;
    }
    comm.compute(ctx, (4 * (n - k) * updated) as f64 * cfg.flop_scale());
}

/// Write the full application checkpoint: matrix, tau, and progress, then
/// acknowledge the stop to RSS.
pub fn checkpoint(
    ctx: &mut Ctx,
    comm: &mut Comm,
    cfg: &QrConfig,
    local: &QrLocal,
    srs: &Srs,
    step: usize,
) {
    write_checkpoint(ctx, comm, cfg, local, srs, step);
    srs.rss.ack_stop();
}

/// Write the checkpoint data without acknowledging a stop — used for
/// periodic (fault-tolerance) checkpointing, where the application keeps
/// running afterwards.
pub fn write_checkpoint(
    ctx: &mut Ctx,
    comm: &mut Comm,
    cfg: &QrConfig,
    local: &QrLocal,
    srs: &Srs,
    step: usize,
) {
    let p = comm.size();
    let edist = cfg.elem_dist(p);
    srs.store_distributed(
        ctx,
        "A",
        edist,
        comm.rank(),
        local.a.clone(),
        8.0 * (cfg.n_nominal as f64).powi(2),
    );
    if comm.rank() == 0 {
        srs.store_value(ctx, "tau", local.tau.clone(), 8.0 * cfg.n_nominal as f64);
        srs.store_value(ctx, "step", step as u64, 8.0);
    }
}

/// Restore a rank's state from an SRS checkpoint under a possibly
/// different rank count. Returns the resume step, or `None` if no
/// checkpoint exists.
pub fn restore(
    ctx: &mut Ctx,
    comm: &mut Comm,
    cfg: &QrConfig,
    srs: &Srs,
) -> Option<(QrLocal, usize)> {
    let p = comm.size();
    let edist = cfg.elem_dist(p);
    let a = srs.read_distributed(ctx, "A", edist, comm.rank())?;
    let tau: Vec<f64> = srs.read_value(ctx, "tau")?;
    let step: u64 = srs.read_value(ctx, "step")?;
    Some((
        QrLocal {
            a,
            tau,
            dist: cfg.dist(p),
            rank: comm.rank(),
        },
        step as usize,
    ))
}

/// Gather the factored matrix (R + reflectors) and taus on rank 0 for
/// verification.
pub fn gather_factors(
    ctx: &mut Ctx,
    comm: &mut Comm,
    cfg: &QrConfig,
    local: &QrLocal,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let n = cfg.n_real;
    let chunks = comm.gather_t(
        ctx,
        0,
        8.0 * local.a.len() as f64,
        (local.rank, local.a.clone()),
    )?;
    let mut full = vec![0.0; n * n];
    for (rank, chunk) in chunks {
        let ncols = local.dist.local_len(rank);
        for lc in 0..ncols {
            let g = local.dist.global_index(rank, lc);
            full[g * n..(g + 1) * n].copy_from_slice(&chunk[lc * n..(lc + 1) * n]);
        }
    }
    Some((full, local.tau.clone()))
}

/// Reconstruct `A ≈ Q·R` from the packed factorization (rank-0 side of
/// [`gather_factors`]) and return the max abs error against the original
/// matrix generated from `cfg`.
pub fn verify_reconstruction(cfg: &QrConfig, packed: &[f64], tau: &[f64]) -> f64 {
    let n = cfg.n_real;
    // M starts as R (upper triangle of packed).
    let mut m = vec![0.0; n * n]; // column-major
    for c in 0..n {
        for r in 0..=c {
            m[c * n + r] = packed[c * n + r];
        }
    }
    // Apply H_k for k = n-2 .. 0: M <- (I - tau_k w w^T) M.
    for k in (0..n.saturating_sub(1)).rev() {
        let len = n - k;
        let mut w = vec![0.0; len];
        w[0] = 1.0;
        for i in 1..len {
            w[i] = packed[k * n + k + i];
        }
        let t = tau[k];
        if t == 0.0 {
            continue;
        }
        for c in 0..n {
            let col = &mut m[c * n..(c + 1) * n];
            let mut s = 0.0;
            for i in 0..len {
                s += w[i] * col[k + i];
            }
            s *= t;
            for i in 0..len {
                col[k + i] -= s * w[i];
            }
        }
    }
    // Compare against the regenerated input.
    let mut max_err = 0.0f64;
    for c in 0..n {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(c as u64));
        for r in 0..n {
            let orig: f64 = rng.gen_range(-1.0..1.0);
            max_err = max_err.max((m[c * n + r] - orig).abs());
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_mpi::launch;
    use grads_sim::topology::{GridBuilder, HostSpec};
    use grads_srs::{IbpStorage, Rss};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn grid(n: usize, speed: f64) -> (Grid, Vec<HostId>) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        b.local_link(c, 1e8, 1e-4);
        let hs = b.add_hosts(c, n, &HostSpec::with_speed(speed));
        (b.build().unwrap(), hs)
    }

    fn run_and_verify(p: usize, n: usize, block: usize) -> f64 {
        let (g, hs) = grid(p, 1e9);
        let mut eng = Engine::new(g);
        let cfg = QrConfig::full(n, block);
        let err = Arc::new(Mutex::new(-1.0f64));
        let err2 = err.clone();
        let cfg2 = cfg.clone();
        launch(&mut eng, "qr", &hs, move |ctx, comm| {
            let mut local = QrLocal::generate(&cfg2, comm.rank(), comm.size());
            let out = run_qr_rank(ctx, comm, &cfg2, &mut local, None, 0);
            assert_eq!(out, QrOutcome::Completed);
            if let Some((packed, tau)) = gather_factors(ctx, comm, &cfg2, &local) {
                *err2.lock() = verify_reconstruction(&cfg2, &packed, &tau);
            }
        });
        eng.run();
        let e = *err.lock();
        assert!(e >= 0.0, "verification ran");
        e
    }

    #[test]
    fn qr_correct_single_rank() {
        let e = run_and_verify(1, 24, 4);
        assert!(e < 1e-10, "max reconstruction error {e}");
    }

    #[test]
    fn qr_correct_multi_rank() {
        let e = run_and_verify(3, 30, 4);
        assert!(e < 1e-10, "max reconstruction error {e}");
    }

    #[test]
    fn qr_correct_awkward_sizes() {
        let e = run_and_verify(4, 27, 5);
        assert!(e < 1e-10, "max reconstruction error {e}");
    }

    #[test]
    fn r_is_upper_triangular() {
        let (g, hs) = grid(2, 1e9);
        let mut eng = Engine::new(g);
        let cfg = QrConfig::full(16, 4);
        let packed = Arc::new(Mutex::new(Vec::new()));
        let packed2 = packed.clone();
        let cfg2 = cfg.clone();
        launch(&mut eng, "qr", &hs, move |ctx, comm| {
            let mut local = QrLocal::generate(&cfg2, comm.rank(), comm.size());
            run_qr_rank(ctx, comm, &cfg2, &mut local, None, 0);
            if let Some((full, _)) = gather_factors(ctx, comm, &cfg2, &local) {
                *packed2.lock() = full;
            }
        });
        eng.run();
        let full = packed.lock();
        let n = 16;
        // Reflector entries live below the diagonal; R's diagonal must be
        // nonzero for a random matrix.
        for c in 0..n {
            assert!(full[c * n + c].abs() > 1e-12, "R[{c}][{c}] zero");
        }
    }

    #[test]
    fn nominal_scaling_charges_cubic_time() {
        // Same real size, 4x nominal: virtual time ~64x for compute-bound.
        let time_for = |nominal: usize| {
            let (g, hs) = grid(1, 1e6);
            let mut eng = Engine::new(g);
            let cfg = QrConfig {
                n_nominal: nominal,
                n_real: 16,
                block: 4,
                poll_every: 8,
                seed: 1,
                efficiency: 1.0,
            };
            launch(&mut eng, "qr", &hs, move |ctx, comm| {
                let mut local = QrLocal::generate(&cfg, comm.rank(), comm.size());
                run_qr_rank(ctx, comm, &cfg, &mut local, None, 0);
            });
            eng.run().end_time
        };
        let t1 = time_for(16);
        let t4 = time_for(64);
        let ratio = t4 / t1;
        assert!(
            ratio > 40.0 && ratio < 80.0,
            "expected ~64x scaling, got {ratio}"
        );
    }

    #[test]
    fn checkpoint_restart_same_ranks_is_exact() {
        let (g, hs) = grid(2, 1e9);
        let mut eng = Engine::new(g);
        let cfg = QrConfig::full(24, 4);
        let srs = Srs::new("qr-test", Rss::new(), IbpStorage::default());
        let err = Arc::new(Mutex::new(-1.0f64));
        // Phase 1: run and stop midway.
        let cfg1 = cfg.clone();
        let srs1 = srs.clone();
        srs.rss.request_stop();
        launch(&mut eng, "qr1", &hs, move |ctx, comm| {
            let mut local = QrLocal::generate(&cfg1, comm.rank(), comm.size());
            // Run a few steps before honouring the pre-set stop flag.
            let out = run_qr_rank(ctx, comm, &cfg1, &mut local, Some(&srs1), 0);
            match out {
                QrOutcome::Stopped { step } => assert!(step > 0),
                QrOutcome::Completed => panic!("should have stopped"),
            }
        });
        eng.run();
        assert_eq!(srs.rss.stop_acks(), 2);
        // Phase 2: restart on the same hosts.
        srs.rss.begin_restart();
        let (g2, hs2) = grid(2, 1e9);
        let mut eng2 = Engine::new(g2);
        let cfg2 = cfg.clone();
        let srs2 = srs.clone();
        let err2 = err.clone();
        launch(&mut eng2, "qr2", &hs2, move |ctx, comm| {
            let (mut local, step) = restore(ctx, comm, &cfg2, &srs2).expect("checkpoint");
            let out = run_qr_rank(ctx, comm, &cfg2, &mut local, Some(&srs2), step);
            assert_eq!(out, QrOutcome::Completed);
            if let Some((packed, tau)) = gather_factors(ctx, comm, &cfg2, &local) {
                *err2.lock() = verify_reconstruction(&cfg2, &packed, &tau);
            }
        });
        eng2.run();
        let e = *err.lock();
        assert!((0.0..1e-10).contains(&e), "reconstruction error {e}");
    }

    #[test]
    fn checkpoint_restart_n_to_m_redistributes() {
        // Stop on 2 ranks, restart on 3: the block-cyclic redistribution
        // must hand each new rank exactly its columns.
        let cfg = QrConfig::full(30, 4);
        let srs = Srs::new("qr-n2m", Rss::new(), IbpStorage::default());
        {
            let (g, hs) = grid(2, 1e9);
            let mut eng = Engine::new(g);
            let cfg1 = cfg.clone();
            let srs1 = srs.clone();
            srs.rss.request_stop();
            launch(&mut eng, "qr1", &hs, move |ctx, comm| {
                let mut local = QrLocal::generate(&cfg1, comm.rank(), comm.size());
                let out = run_qr_rank(ctx, comm, &cfg1, &mut local, Some(&srs1), 0);
                assert!(matches!(out, QrOutcome::Stopped { .. }));
            });
            eng.run();
        }
        srs.rss.begin_restart();
        let err = Arc::new(Mutex::new(-1.0f64));
        {
            let (g, hs) = grid(3, 1e9);
            let mut eng = Engine::new(g);
            let cfg2 = cfg.clone();
            let srs2 = srs.clone();
            let err2 = err.clone();
            launch(&mut eng, "qr2", &hs, move |ctx, comm| {
                let (mut local, step) = restore(ctx, comm, &cfg2, &srs2).expect("checkpoint");
                assert_eq!(
                    local.a.len(),
                    local.dist.local_len(comm.rank()) * cfg2.n_real
                );
                let out = run_qr_rank(ctx, comm, &cfg2, &mut local, Some(&srs2), step);
                assert_eq!(out, QrOutcome::Completed);
                if let Some((packed, tau)) = gather_factors(ctx, comm, &cfg2, &local) {
                    *err2.lock() = verify_reconstruction(&cfg2, &packed, &tau);
                }
            });
            eng.run();
        }
        let e = *err.lock();
        assert!((0.0..1e-10).contains(&e), "reconstruction error {e}");
    }

    #[test]
    fn qr_flops_formula() {
        assert!((qr_flops(100.0) - 4.0 / 3.0 * 1e6).abs() < 1.0);
    }
}
