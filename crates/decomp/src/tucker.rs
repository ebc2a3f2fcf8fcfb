//! Tucker decomposition via HOOI on sparse tensors — the extension the paper
//! says the unified method supports ("A similar approach can be used to
//! implement Tucker using unified", §IV-D).
//!
//! Each HOOI step needs the TTM-chain `W = X ×_{m≠n} A_mᵀ` matricized along
//! mode `n` — exactly the SpTTMc kernel — followed by the leading left
//! singular vectors of `W`. Those are computed with the Gram trick
//! (`eigendecompose WᵀW`, small: `R_a·R_b` square), avoiding any large dense
//! factorization.

use fcoo::{AnyFormatDevice, DeviceMatrix, Fcoo, FormatKind, LaunchConfig, TensorOp};
use gpu_sim::{GpuDevice, OutOfMemory};
use tensor_core::linalg::sym_eigen;
use tensor_core::{DenseMatrix, SparseTensorCoo};

/// Options for a HOOI run.
#[derive(Debug, Clone)]
pub struct TuckerOptions {
    /// Multilinear ranks, one per mode.
    pub ranks: Vec<usize>,
    /// HOOI sweeps.
    pub max_iters: usize,
    /// Factor initialization seed.
    pub seed: u64,
}

/// The Tucker factorization: orthonormal factors plus the explicit core.
#[derive(Debug, Clone)]
pub struct TuckerModel {
    /// One column-orthonormal factor per mode.
    pub factors: Vec<DenseMatrix>,
    /// The core tensor, matricized along mode 1: `R₁ × Π_{m>1} R_m` with
    /// later modes varying fastest (for 3-order: `column = q·R₃ + r`).
    pub core: DenseMatrix,
    /// Frobenius norm of the core. For orthonormal factors, maximizing this
    /// is equivalent to minimizing the residual, so it is the HOOI
    /// convergence gauge.
    pub core_norm: f64,
    /// Squared Frobenius norm of the input.
    pub norm_x_sq: f64,
}

impl TuckerModel {
    /// The relative fit `1 − √(‖X‖² − ‖G‖²)/‖X‖` implied by the core norm.
    pub fn fit(&self) -> f64 {
        1.0 - ((self.norm_x_sq - self.core_norm * self.core_norm).max(0.0)).sqrt()
            / self.norm_x_sq.sqrt()
    }

    /// Reconstructed value at one coordinate:
    /// `Σ G(p₁,…,p_N) · Π_m A_m(i_m, p_m)` (any order).
    pub fn predict(&self, coord: &[u32]) -> f32 {
        let order = self.factors.len();
        let ranks: Vec<usize> = self.factors.iter().map(|f| f.cols()).collect();
        // Mixed-radix strides over the core's column index (modes 2..N,
        // later modes fastest).
        let tail_cols: usize = ranks[1..].iter().product();
        let mut sum = 0.0f32;
        for p1 in 0..ranks[0] {
            let a1 = self.factors[0].get(coord[0] as usize, p1);
            if a1 == 0.0 {
                continue;
            }
            for col in 0..tail_cols {
                let mut weight = a1 * self.core.get(p1, col);
                if weight == 0.0 {
                    continue;
                }
                let mut rest = col;
                for m in (1..order).rev() {
                    let digit = rest % ranks[m];
                    rest /= ranks[m];
                    weight *= self.factors[m].get(coord[m] as usize, digit);
                }
                sum += weight;
            }
        }
        sum
    }
}

/// Runs HOOI on a sparse tensor of any order using the unified SpTTMc
/// kernel on the simulated GPU.
///
/// # Panics
/// If ranks are inconsistent with the shape or options are degenerate.
pub fn tucker_hooi(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    opts: &TuckerOptions,
) -> Result<TuckerModel, OutOfMemory> {
    let order = tensor.order();
    assert!(order >= 2, "HOOI needs at least 2 modes");
    assert_eq!(opts.ranks.len(), order, "one rank per mode required");
    for (mode, (&rank, &size)) in opts.ranks.iter().zip(tensor.shape()).enumerate() {
        assert!(
            rank >= 1 && rank <= size,
            "rank {rank} invalid for mode {mode} (size {size})"
        );
    }
    assert!(opts.max_iters >= 1, "at least one sweep required");

    // Preprocess F-COO for SpTTMc on every mode, once.
    let per_mode: Vec<AnyFormatDevice> = (0..order)
        .map(|mode| {
            let fcoo = Fcoo::from_coo(tensor, TensorOp::SpTtmc { mode }, 8);
            AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo)
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut factors: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .zip(&opts.ranks)
        .enumerate()
        .map(|(m, (&size, &rank))| {
            orthonormalize(DenseMatrix::random(size, rank, opts.seed + m as u64))
        })
        .collect();
    let norm_x_sq: f64 = tensor
        .values()
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum();
    let cfg = LaunchConfig::default();
    let ttmc = |mode: usize, factors: &[DenseMatrix]| -> Result<DenseMatrix, OutOfMemory> {
        let uploaded: Vec<DeviceMatrix> = TensorOp::SpTtmc { mode }
            .factor_modes(order)
            .into_iter()
            .map(|m| DeviceMatrix::upload(device.memory(), &factors[m]))
            .collect::<Result<Vec<_>, _>>()?;
        let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
        let (w, _stats) = per_mode[mode].spttmc_norder(device, &refs, &cfg)?;
        Ok(w)
    };
    for _sweep in 0..opts.max_iters {
        for mode in 0..order {
            let w = ttmc(mode, &factors)?;
            // Leading left singular vectors of W via the Gram trick.
            factors[mode] = leading_left_singular_vectors(&w, opts.ranks[mode]);
        }
    }
    // Explicit core: G(1) = A₁ᵀ · (X ×_{m>1} A_m)(1), one final TTMc.
    let w = ttmc(0, &factors)?;
    let core = factors[0].transpose().matmul(&w);
    let core_norm = core.frobenius();
    Ok(TuckerModel {
        factors,
        core,
        core_norm,
        norm_x_sq,
    })
}

/// Gram–Schmidt column orthonormalization.
fn orthonormalize(mut m: DenseMatrix) -> DenseMatrix {
    let (rows, cols) = (m.rows(), m.cols());
    for c in 0..cols {
        for prev in 0..c {
            let dot: f64 = (0..rows)
                .map(|r| (m.get(r, c) * m.get(r, prev)) as f64)
                .sum();
            for r in 0..rows {
                m.set(r, c, m.get(r, c) - (dot as f32) * m.get(r, prev));
            }
        }
        let norm: f64 = (0..rows)
            .map(|r| (m.get(r, c) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        if norm > 1e-12 {
            for r in 0..rows {
                m.set(r, c, m.get(r, c) / norm as f32);
            }
        }
    }
    m
}

/// The `rank` leading left singular vectors of `w`, via eigenvectors of the
/// small Gram matrix `wᵀw`.
fn leading_left_singular_vectors(w: &DenseMatrix, rank: usize) -> DenseMatrix {
    let gram = w.gram();
    let eig = sym_eigen(&gram);
    // Sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..eig.n).collect();
    order.sort_by(|&a, &b| eig.values[b].total_cmp(&eig.values[a]));
    let mut u = DenseMatrix::zeros(w.rows(), rank);
    for (slot, &k) in order.iter().take(rank).enumerate() {
        let sigma = eig.values[k].max(0.0).sqrt();
        if sigma <= 1e-12 {
            continue;
        }
        // u_slot = W · v_k / σ_k.
        for row in 0..w.rows() {
            let mut sum = 0.0f64;
            for col in 0..w.cols() {
                sum += (w.get(row, col) as f64) * eig.vectors[col * eig.n + k];
            }
            u.set(row, slot, (sum / sigma) as f32);
        }
    }
    orthonormalize(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A dense tensor with exact multilinear rank (2, 2, 2).
    fn low_multirank_tensor(shape: [usize; 3], seed: u64) -> SparseTensorCoo {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = DenseMatrix::from_fn(shape[0], 2, |_, _| rng.gen::<f32>() - 0.5);
        let b = DenseMatrix::from_fn(shape[1], 2, |_, _| rng.gen::<f32>() - 0.5);
        let c = DenseMatrix::from_fn(shape[2], 2, |_, _| rng.gen::<f32>() - 0.5);
        let core: Vec<f32> = (0..8).map(|_| rng.gen::<f32>() + 0.5).collect();
        let mut tensor = SparseTensorCoo::new(shape.to_vec());
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    let mut value = 0.0f32;
                    for (g, &core_value) in core.iter().enumerate() {
                        let (p, q, s) = (g / 4, (g / 2) % 2, g % 2);
                        value += core_value * a.get(i, p) * b.get(j, q) * c.get(k, s);
                    }
                    if value.abs() > 1e-6 {
                        tensor.push(&[i as u32, j as u32, k as u32], value);
                    }
                }
            }
        }
        tensor
    }

    #[test]
    fn hooi_recovers_exact_multirank() {
        let tensor = low_multirank_tensor([8, 7, 6], 3);
        let device = GpuDevice::titan_x();
        let model = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![2, 2, 2],
                max_iters: 6,
                seed: 1,
            },
        )
        .unwrap();
        assert!(model.fit() > 0.98, "fit {} too low", model.fit());
    }

    #[test]
    fn factors_are_orthonormal() {
        let tensor = low_multirank_tensor([7, 7, 7], 5);
        let device = GpuDevice::titan_x();
        let model = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![2, 3, 2],
                max_iters: 3,
                seed: 2,
            },
        )
        .unwrap();
        for factor in &model.factors {
            let gram = factor.gram();
            for a in 0..gram.rows() {
                for b in 0..gram.cols() {
                    let expected = if a == b { 1.0 } else { 0.0 };
                    assert!(
                        (gram.get(a, b) - expected).abs() < 1e-3,
                        "gram({a},{b}) = {}",
                        gram.get(a, b)
                    );
                }
            }
        }
    }

    #[test]
    fn larger_ranks_fit_at_least_as_well() {
        let tensor = low_multirank_tensor([9, 8, 7], 7);
        let device = GpuDevice::titan_x();
        let small = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![1, 1, 1],
                max_iters: 5,
                seed: 3,
            },
        )
        .unwrap();
        let large = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![2, 2, 2],
                max_iters: 5,
                seed: 3,
            },
        )
        .unwrap();
        assert!(large.fit() >= small.fit() - 1e-6);
    }

    #[test]
    fn explicit_core_reconstructs_entries() {
        let tensor = low_multirank_tensor([8, 7, 6], 11);
        let device = GpuDevice::titan_x();
        let model = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![2, 2, 2],
                max_iters: 8,
                seed: 4,
            },
        )
        .unwrap();
        assert!(model.fit() > 0.98);
        assert_eq!((model.core.rows(), model.core.cols()), (2, 4));
        let mut worst = 0.0f64;
        for (coord, value) in tensor.iter() {
            let predicted = model.predict(&coord);
            worst = worst.max(((predicted - value) as f64).abs() / (value.abs().max(0.05) as f64));
        }
        assert!(worst < 0.2, "worst relative reconstruction error {worst}");
    }

    #[test]
    fn core_norm_matches_explicit_core() {
        let tensor = low_multirank_tensor([6, 6, 6], 13);
        let device = GpuDevice::titan_x();
        let model = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![2, 2, 2],
                max_iters: 3,
                seed: 5,
            },
        )
        .unwrap();
        assert!((model.core_norm - model.core.frobenius()).abs() < 1e-9);
    }

    #[test]
    fn hooi_runs_on_4_order_tensors() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Exact multilinear rank (2,2,2,2) 4-way tensor.
        let shape = [6usize, 5, 4, 5];
        let mut rng = SmallRng::seed_from_u64(31);
        let factors: Vec<DenseMatrix> = shape
            .iter()
            .map(|&n| DenseMatrix::from_fn(n, 2, |_, _| rng.gen::<f32>() - 0.5))
            .collect();
        let core: Vec<f32> = (0..16).map(|_| rng.gen::<f32>() + 0.5).collect();
        let mut tensor = SparseTensorCoo::new(shape.to_vec());
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    for l in 0..shape[3] {
                        let mut value = 0.0f32;
                        for (g, &cv) in core.iter().enumerate() {
                            let (p, q, r, s2) = (g / 8, (g / 4) % 2, (g / 2) % 2, g % 2);
                            value += cv
                                * factors[0].get(i, p)
                                * factors[1].get(j, q)
                                * factors[2].get(k, r)
                                * factors[3].get(l, s2);
                        }
                        if value.abs() > 1e-6 {
                            tensor.push(&[i as u32, j as u32, k as u32, l as u32], value);
                        }
                    }
                }
            }
        }
        let device = GpuDevice::titan_x();
        let model = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![2, 2, 2, 2],
                max_iters: 6,
                seed: 2,
            },
        )
        .unwrap();
        assert!(model.fit() > 0.95, "4-order fit {}", model.fit());
        // Reconstruction via the general predict.
        let mut worst = 0.0f64;
        for (coord, value) in tensor.iter() {
            let predicted = model.predict(&coord);
            worst = worst.max(((predicted - value) as f64).abs() / (value.abs().max(0.05) as f64));
        }
        assert!(worst < 0.3, "worst 4-order reconstruction error {worst}");
    }

    #[test]
    #[should_panic(expected = "rank 9 invalid")]
    fn rejects_rank_above_mode_size() {
        let tensor = low_multirank_tensor([4, 4, 4], 9);
        let device = GpuDevice::titan_x();
        let _ = tucker_hooi(
            &device,
            &tensor,
            &TuckerOptions {
                ranks: vec![9, 2, 2],
                max_iters: 1,
                seed: 1,
            },
        );
    }
}
