//! MTTKRP engines for the CP-ALS driver.
//!
//! * [`UnifiedGpuEngine`] — the paper's implementation: F-COO preprocessed
//!   for all modes on the host, transferred to the (simulated) GPU once, one
//!   unified kernel per mode per iteration (§IV-D, §V-E);
//! * [`SplattEngine`] — SPLATT's CSF trees, one per mode, MTTKRP on the CPU
//!   pool (the Fig. 10 competitor);
//! * [`ReferenceEngine`] — the sequential oracle from `tensor_core::ops`.

use crate::cp::MttkrpEngine;
use baselines::csf::{mttkrp_csf, Csf};
use fcoo::{AnyFormatDevice, DeviceMatrix, Fcoo, FormatKind, LaunchConfig, TensorOp};
use gpu_sim::{GpuDevice, OutOfMemory, Timeline};
use tensor_core::{DenseMatrix, SparseTensorCoo};

/// Sequential reference engine (correctness oracle, wall-clock timed).
pub struct ReferenceEngine<'t> {
    tensor: &'t SparseTensorCoo,
}

impl<'t> ReferenceEngine<'t> {
    /// Wraps a tensor.
    pub fn new(tensor: &'t SparseTensorCoo) -> Self {
        ReferenceEngine { tensor }
    }
}

impl MttkrpEngine for ReferenceEngine<'_> {
    fn mttkrp(&mut self, mode: usize, factors: &[DenseMatrix]) -> (DenseMatrix, f64) {
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let (result, elapsed) =
            baselines::timing::time_us(|| tensor_core::ops::spmttkrp(self.tensor, mode, &refs));
        (result, elapsed)
    }

    fn name(&self) -> &'static str {
        "reference"
    }
}

/// The paper's CP engine: unified F-COO kernels on the simulated GPU.
///
/// F-COO is preprocessed for every mode up front and stays resident, so "no
/// format conversions or CPU-GPU data transfers happen inside a CP
/// iteration" (§IV-D).
pub struct UnifiedGpuEngine {
    device: GpuDevice,
    per_mode: Vec<AnyFormatDevice>,
    cfg: LaunchConfig,
    /// Two-stream timeline (§V-E): stream 0 runs the MTTKRP kernels, stream
    /// 1 the CUBLAS-style dense operations; Gram products of the *other*
    /// factors overlap the MTTKRP, only the solve waits for its result.
    timeline: Timeline,
    last_mttkrp_finish: f64,
}

impl UnifiedGpuEngine {
    /// Preprocesses and uploads F-COO for every mode.
    pub fn new(
        device: GpuDevice,
        tensor: &SparseTensorCoo,
        threadlen: usize,
        cfg: LaunchConfig,
    ) -> Result<Self, OutOfMemory> {
        let per_mode = (0..tensor.order())
            .map(|mode| {
                let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, threadlen);
                AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(UnifiedGpuEngine {
            device,
            per_mode,
            cfg,
            timeline: Timeline::new(2),
            last_mttkrp_finish: 0.0,
        })
    }

    /// Preprocesses with per-mode tuned `(BLOCK_SIZE, threadlen)` parameters
    /// (the paper runs its experiments with Table V's tuned configurations).
    /// Sweeps a reduced grid per mode, then uploads the winning F-COO.
    pub fn new_tuned(
        device: GpuDevice,
        tensor: &SparseTensorCoo,
        rank: usize,
    ) -> Result<Self, OutOfMemory> {
        let mut per_mode = Vec::with_capacity(tensor.order());
        let mut cfg = LaunchConfig::default();
        for mode in 0..tensor.order() {
            let result = fcoo::tune(
                &device,
                tensor,
                TensorOp::SpMttkrp { mode },
                rank,
                Some(&[64, 128, 512]),
                Some(&[8, 32]),
            );
            let (block_size, threadlen) = result.best_pair();
            // One launch config per engine; the block size of the slowest
            // mode's winner is a good shared choice, and threadlen is baked
            // into each mode's F-COO.
            cfg.block_size = block_size;
            let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, threadlen);
            per_mode.push(AnyFormatDevice::upload_as(
                device.memory(),
                FormatKind::Fcoo,
                &fcoo,
            )?);
        }
        Ok(UnifiedGpuEngine {
            device,
            per_mode,
            cfg,
            timeline: Timeline::new(2),
            last_mttkrp_finish: 0.0,
        })
    }

    /// The simulated device (for memory statistics).
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }
}

impl MttkrpEngine for UnifiedGpuEngine {
    fn mttkrp(&mut self, mode: usize, factors: &[DenseMatrix]) -> (DenseMatrix, f64) {
        let uploaded: Vec<DeviceMatrix> = factors
            .iter()
            .map(|f| {
                DeviceMatrix::upload(self.device.memory(), f).expect("device sized for CP factors")
            })
            .collect();
        let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
        let (result, stats) = self.per_mode[mode]
            .spmttkrp(&self.device, &refs, &self.cfg)
            .expect("device sized for CP output");
        self.last_mttkrp_finish = self.timeline.push(0, stats.time_us);
        (result, stats.time_us)
    }

    fn dense_update_us(&mut self, rows: usize, rank: usize) -> Option<f64> {
        // CUBLAS-style model: Gram products over the other modes plus the
        // R×R solve, at a conservative 10% of the device's peak single
        // precision throughput, plus per-kernel launch overheads.
        let config = self.device.config();
        let peak_flops_per_us = config.total_cores() as f64 * 2.0 * config.clock_ghz * 1e3;
        let effective = 0.1 * peak_flops_per_us;
        // The Gram products read factors the MTTKRP does not write: they run
        // on stream 1 concurrently with the MTTKRP kernel.
        let gram_flops = 2.0 * rows as f64 * (rank * rank) as f64;
        let gram_us = gram_flops / effective + 2.0 * config.launch_overhead_us;
        // The solve consumes the MTTKRP result: it waits for stream 0.
        let solve_us = (rank * rank * rank) as f64 / effective + config.launch_overhead_us;
        self.timeline.push(1, gram_us);
        self.timeline
            .push_after(1, self.last_mttkrp_finish, solve_us);
        Some(gram_us + solve_us)
    }

    fn overlapped_elapsed_us(&self) -> Option<f64> {
        Some(self.timeline.elapsed_us())
    }

    fn name(&self) -> &'static str {
        "unified-gpu"
    }
}

/// SPLATT engine: one CSF tree per mode, FLOP-reduced CPU MTTKRP.
pub struct SplattEngine {
    per_mode: Vec<Csf>,
}

impl SplattEngine {
    /// Builds CSF trees rooted at each mode.
    pub fn new(tensor: &SparseTensorCoo) -> Self {
        SplattEngine {
            per_mode: (0..tensor.order()).map(|m| Csf::build(tensor, m)).collect(),
        }
    }
}

impl MttkrpEngine for SplattEngine {
    fn mttkrp(&mut self, mode: usize, factors: &[DenseMatrix]) -> (DenseMatrix, f64) {
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        mttkrp_csf(&self.per_mode[mode], &refs)
    }

    fn name(&self) -> &'static str {
        "splatt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::{cp_als, CpOptions};
    use tensor_core::datasets::{self, DatasetKind};

    fn options() -> CpOptions {
        CpOptions {
            rank: 4,
            max_iters: 6,
            tol: 1e-7,
            seed: 3,
        }
    }

    #[test]
    fn engines_agree_on_fit() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2500, 70);
        let mut reference = ReferenceEngine::new(&tensor);
        let reference_run = cp_als(&tensor, &mut reference, &options());
        let mut splatt = SplattEngine::new(&tensor);
        let splatt_run = cp_als(&tensor, &mut splatt, &options());
        let mut unified =
            UnifiedGpuEngine::new(GpuDevice::titan_x(), &tensor, 8, LaunchConfig::default())
                .unwrap();
        let unified_run = cp_als(&tensor, &mut unified, &options());
        // Same initialization, same math → same trajectory up to f32 noise.
        assert!((reference_run.fit - splatt_run.fit).abs() < 1e-3);
        assert!((reference_run.fit - unified_run.fit).abs() < 1e-3);
    }

    #[test]
    fn unified_engine_reports_simulated_time_and_model_other() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 4000, 71);
        let mut unified =
            UnifiedGpuEngine::new(GpuDevice::titan_x(), &tensor, 8, LaunchConfig::default())
                .unwrap();
        let run = cp_als(&tensor, &mut unified, &options());
        assert_eq!(run.engine, "unified-gpu");
        assert!(run.mode_us.iter().all(|&t| t > 0.0));
        assert!(run.other_us > 0.0);
    }

    #[test]
    fn unified_mode_times_are_balanced() {
        // §V-B/Fig. 10: the unified method's per-mode MTTKRP times are
        // "very similar and well-balanced" even on the oddly-shaped brainq.
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 10_000, 72);
        let mut unified =
            UnifiedGpuEngine::new(GpuDevice::titan_x(), &tensor, 8, LaunchConfig::default())
                .unwrap();
        let run = cp_als(&tensor, &mut unified, &options());
        let max = run.mode_us.iter().copied().fold(0.0f64, f64::max);
        let min = run.mode_us.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min < 3.0, "mode times unbalanced: {:?}", run.mode_us);
    }

    #[test]
    fn tuned_engine_matches_default_engine_results() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 4000, 76);
        let opts = options();
        let mut default_engine =
            UnifiedGpuEngine::new(GpuDevice::titan_x(), &tensor, 8, LaunchConfig::default())
                .unwrap();
        let default_run = cp_als(&tensor, &mut default_engine, &opts);
        let mut tuned =
            UnifiedGpuEngine::new_tuned(GpuDevice::titan_x(), &tensor, opts.rank).unwrap();
        let tuned_run = cp_als(&tensor, &mut tuned, &opts);
        assert!((default_run.fit - tuned_run.fit).abs() < 1e-3);
        // Tuning can only help or tie on total simulated kernel time.
        let default_mttkrp: f64 = default_run.mode_us.iter().sum();
        let tuned_mttkrp: f64 = tuned_run.mode_us.iter().sum();
        assert!(
            tuned_mttkrp <= default_mttkrp * 1.25,
            "tuned {tuned_mttkrp:.1}µs should not regress far from default {default_mttkrp:.1}µs"
        );
    }

    #[test]
    fn two_stream_overlap_shortens_the_makespan() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 6000, 74);
        let mut unified =
            UnifiedGpuEngine::new(GpuDevice::titan_x(), &tensor, 8, LaunchConfig::default())
                .unwrap();
        let run = cp_als(&tensor, &mut unified, &options());
        let overlapped = run
            .overlapped_total_us
            .expect("unified engine models streams");
        let serial = run.total_us();
        let mttkrp_total: f64 = run.mode_us.iter().sum();
        assert!(
            overlapped <= serial + 1e-6,
            "overlap {overlapped} vs serial {serial}"
        );
        assert!(
            overlapped >= mttkrp_total,
            "makespan cannot beat the critical path"
        );
        assert!(overlapped < serial, "gram products must actually overlap");
    }

    #[test]
    fn cpu_engines_do_not_claim_overlap() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 75);
        let mut splatt = SplattEngine::new(&tensor);
        let run = cp_als(&tensor, &mut splatt, &options());
        assert!(run.overlapped_total_us.is_none());
    }

    #[test]
    fn engine_preprocessing_fails_cleanly_on_tiny_device() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 5000, 73);
        let device = GpuDevice::new(gpu_sim::DeviceConfig::titan_x_scaled_memory(1e-7));
        assert!(UnifiedGpuEngine::new(device, &tensor, 8, LaunchConfig::default()).is_err());
    }
}
