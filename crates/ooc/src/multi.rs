//! Multi-GPU SpMTTKRP as chunk placement (paper §IV-D / §V-E: "For very
//! large tensors, multiple-GPUs can be used").
//!
//! The out-of-core path places a partition-aligned chunk plan across time;
//! this places the same plan across devices. F-COO is built once and
//! [`fcoo::chunk::split`] into about one chunk per device, each device
//! receives a contiguous run of chunks balanced by non-zeros and streams it
//! with [`run_chunked_format`], and the host sums the partial outputs.
//! Each run starts from a zero accumulator, so a segment cut between two
//! devices contributes its two partial sums to the host sum. Runs are
//! contiguous in segment order, so at most one output row is shared
//! between adjacent devices. Devices run concurrently: the simulated
//! elapsed time is the slowest device plus the interconnect reduction.

use crate::executor::run_chunked_format;
use fcoo::chunk::{self, ChunkPlan};
use fcoo::{Fcoo, FormatKind, LaunchConfig, TensorOp};
use gpu_sim::{GpuDevice, OutOfMemory};
use tensor_core::{DenseMatrix, SparseTensorCoo};

/// Assumed host interconnect bandwidth for the partial-output reduction
/// (PCIe 3.0 x16 class).
const INTERCONNECT_GBS: f64 = 16.0;

/// Timing of a multi-device operation.
#[derive(Debug, Clone)]
pub struct MultiGpuStats {
    /// Simulated kernel time per device (preprocessing excluded, as in the
    /// single-device experiments).
    pub per_device_us: Vec<f64>,
    /// Host-side reduction cost: `(devices − 1)` partial outputs over the
    /// interconnect plus the dense sum.
    pub reduce_us: f64,
    /// Makespan: slowest device plus the reduction.
    pub elapsed_us: f64,
}

/// SpMTTKRP on `mode`, data-parallel over several simulated devices.
///
/// `host_factors` holds one matrix per tensor mode, as for the in-core
/// kernel. Chunk `c` goes to device `⌊mid(c)·D/nnz⌋`, where `mid(c)` is
/// the chunk's midpoint non-zero, so every device streams a contiguous
/// run of about `nnz/D` non-zeros.
///
/// # Panics
/// If `devices` is empty or factor shapes are inconsistent (the kernel
/// validates them).
pub fn spmttkrp_multi_gpu(
    devices: &[GpuDevice],
    tensor: &SparseTensorCoo,
    mode: usize,
    host_factors: &[DenseMatrix],
    threadlen: usize,
    cfg: &LaunchConfig,
) -> Result<(DenseMatrix, MultiGpuStats), OutOfMemory> {
    assert!(!devices.is_empty(), "need at least one device");
    let op = TensorOp::SpMttkrp { mode };
    let cols: Vec<usize> = host_factors.iter().map(DenseMatrix::cols).collect();
    let rows = tensor.shape()[mode];
    let rank = op.output_cols(&cols);
    let mut total = DenseMatrix::zeros(rows, rank);
    let mut per_device_us = vec![0.0; devices.len()];
    if tensor.nnz() > 0 {
        let fcoo = Fcoo::from_coo(tensor, op, threadlen);
        // One device's share of the format per chunk, with headroom for
        // the splitter's per-chunk slack and partition rounding (two
        // average partitions), so no tail chunk trails the last share.
        let bytes = fcoo.storage().total_bytes();
        let budget = bytes.div_ceil(devices.len()) + 2 * bytes.div_ceil(fcoo.partitions()) + 64;
        let plan = chunk::split(&fcoo, budget);
        let mut runs = vec![Vec::new(); devices.len()];
        for desc in plan.chunks {
            let mid = desc.nnz_start + desc.nnz / 2;
            runs[mid * devices.len() / fcoo.nnz()].push(desc);
        }
        for ((device, chunks), us) in devices.iter().zip(runs).zip(&mut per_device_us) {
            if chunks.is_empty() {
                continue;
            }
            let run_plan = ChunkPlan {
                budget_bytes: plan.budget_bytes,
                chunks,
            };
            let run = run_chunked_format(
                device,
                FormatKind::Fcoo,
                &fcoo,
                &run_plan,
                host_factors,
                cfg,
            )?;
            for (acc, &value) in total.data_mut().iter_mut().zip(&run.values) {
                *acc += value;
            }
            *us = run.stats.time_us;
        }
    }
    let output_bytes = (rows * rank * 4) as f64;
    let reduce_us = (devices.len() - 1) as f64 * output_bytes / (INTERCONNECT_GBS * 1e3);
    let slowest = per_device_us.iter().copied().fold(0.0f64, f64::max);
    let stats = MultiGpuStats {
        per_device_us,
        reduce_us,
        elapsed_us: slowest + reduce_us,
    };
    Ok((total, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcoo::{AnyFormatDevice, DeviceMatrix};
    use tensor_core::datasets::{self, DatasetKind};
    use tensor_core::ops;

    fn factors_for(tensor: &SparseTensorCoo, r: usize, seed: u64) -> Vec<DenseMatrix> {
        tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, r, seed + m as u64))
            .collect()
    }

    #[test]
    fn multi_gpu_matches_reference() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 6_000, 80);
        let hosts = factors_for(&tensor, 8, 3);
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let reference = ops::spmttkrp(&tensor, 0, &refs);
        for device_count in [1usize, 2, 3] {
            let devices: Vec<GpuDevice> = (0..device_count).map(|_| GpuDevice::titan_x()).collect();
            let (result, stats) =
                spmttkrp_multi_gpu(&devices, &tensor, 0, &hosts, 8, &LaunchConfig::default())
                    .unwrap();
            assert!(
                result.max_abs_diff(&reference) < 1e-3,
                "{device_count} devices: diff {}",
                result.max_abs_diff(&reference)
            );
            assert_eq!(stats.per_device_us.len(), device_count);
        }
    }

    #[test]
    fn one_device_is_bit_identical_with_in_core() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 6_000, 83);
        let hosts = factors_for(&tensor, 8, 11);
        let cfg = LaunchConfig::default();
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 1 }, 8);
        let format = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).unwrap();
        let uploaded: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
        let (in_core, _) = format.spmttkrp(&device, &refs, &cfg).unwrap();
        let (result, _) =
            spmttkrp_multi_gpu(&[GpuDevice::titan_x()], &tensor, 1, &hosts, 8, &cfg).unwrap();
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&result), bits(&in_core));
    }

    #[test]
    fn splitting_balances_work_and_shortens_makespan() {
        // Multi-GPU only pays off once kernel time dominates the partial
        // reduction — use a tensor large enough for that regime.
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 250_000, 81);
        let hosts = factors_for(&tensor, 16, 5);
        let single: Vec<GpuDevice> = vec![GpuDevice::titan_x()];
        let (_, one) =
            spmttkrp_multi_gpu(&single, &tensor, 0, &hosts, 16, &LaunchConfig::default()).unwrap();
        let quad: Vec<GpuDevice> = (0..4).map(|_| GpuDevice::titan_x()).collect();
        let (_, four) =
            spmttkrp_multi_gpu(&quad, &tensor, 0, &hosts, 16, &LaunchConfig::default()).unwrap();
        assert!(
            four.elapsed_us < one.elapsed_us,
            "4 GPUs ({:.1}µs) should beat 1 ({:.1}µs)",
            four.elapsed_us,
            one.elapsed_us
        );
        // Work split is roughly even across devices.
        let max = four.per_device_us.iter().copied().fold(0.0f64, f64::max);
        let min = four
            .per_device_us
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 2.5,
            "device imbalance: {:?}",
            four.per_device_us
        );
    }

    #[test]
    fn two_small_devices_fit_where_one_cannot() {
        // The paper's motivation: "a single-GPU memory can not store all the
        // tensor data ... multiple GPU cards can be used."
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 20_000, 82);
        let hosts = factors_for(&tensor, 16, 7);
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        // Budget: the factors plus ~60% of one device's tensor-side bytes.
        let factor_bytes: usize = hosts.iter().map(|f| f.rows() * f.cols() * 4).sum();
        let probe = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let output_bytes = tensor.shape()[0] * 16 * 4;
        let capacity =
            factor_bytes + output_bytes + probe.storage().total_bytes() * 6 / 10 + (16 << 10);
        let make_device = || {
            let mut config = gpu_sim::DeviceConfig::titan_x();
            config.memory_capacity = capacity;
            GpuDevice::new(config)
        };
        let single = vec![make_device()];
        assert!(
            spmttkrp_multi_gpu(&single, &tensor, 0, &hosts, 8, &LaunchConfig::default()).is_err(),
            "one small device must run out of memory"
        );
        let pair = vec![make_device(), make_device()];
        let reference = ops::spmttkrp(&tensor, 0, &refs);
        let (result, _) =
            spmttkrp_multi_gpu(&pair, &tensor, 0, &hosts, 8, &LaunchConfig::default())
                .expect("two devices hold half the tensor each");
        assert!(result.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn more_devices_than_segments_still_correct() {
        let tensor = SparseTensorCoo::from_entries(
            vec![4, 4, 4],
            &[(vec![0, 1, 2], 1.0), (vec![1, 2, 3], 2.0)],
        );
        let hosts = factors_for(&tensor, 4, 9);
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let devices: Vec<GpuDevice> = (0..4).map(|_| GpuDevice::titan_x()).collect();
        let (result, _) =
            spmttkrp_multi_gpu(&devices, &tensor, 0, &hosts, 8, &LaunchConfig::default()).unwrap();
        let reference = ops::spmttkrp(&tensor, 0, &refs);
        assert!(result.max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn empty_tensor_returns_zeros_without_splitting() {
        let tensor = SparseTensorCoo::new(vec![3, 4, 5]);
        let hosts = factors_for(&tensor, 2, 1);
        let devices: Vec<GpuDevice> = (0..2).map(|_| GpuDevice::titan_x()).collect();
        let (result, stats) =
            spmttkrp_multi_gpu(&devices, &tensor, 1, &hosts, 8, &LaunchConfig::default()).unwrap();
        assert_eq!((result.rows(), result.cols()), (4, 2));
        assert!(result.data().iter().all(|&v| v == 0.0));
        assert_eq!(stats.per_device_us, vec![0.0, 0.0]);
    }
}
