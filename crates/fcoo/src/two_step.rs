//! The "previous method" of the paper's Fig. 3a: SpMTTKRP computed as a
//! chain of two sparse operations with a materialized semi-sparse
//! intermediate, here built from the *unified* SpTTM kernel so the
//! comparison against the one-shot method (Fig. 3b) isolates exactly the
//! design choice the figure illustrates — the intermediate tensor and the
//! extra kernel, not the kernel quality.
//!
//! `M(i,:) = Σ_j ( Σ_k X(i,j,k)·C(k,:) ) ∗ B(j,:)`
//!
//! Step 1 is [`AnyFormatDevice::spttm`] along the last product mode. Step 2 scales
//! each intermediate fiber by the matching `B` row and reduces fibers with
//! equal output coordinate — the same segmented-scan accumulation as the
//! one-shot kernel, but now reading `nfibs × R` dense values from the
//! intermediate instead of `nnz` scalars.

use crate::device::DeviceMatrix;
use crate::format::Fcoo;
use crate::formats::{AnyFormatDevice, FormatKind};
use crate::kernels::LaunchConfig;
use crate::modes::TensorOp;
use gpu_sim::{GpuDevice, KernelStats, OutOfMemory};
use tensor_core::{DenseMatrix, SparseTensorCoo};

/// Result of the two-step method: the (identical) output, merged kernel
/// statistics, and the bytes the intermediate occupied on the device.
#[derive(Debug)]
pub struct TwoStepOutcome {
    /// The dense `shape[mode] × R` MTTKRP result.
    pub result: DenseMatrix,
    /// Step-1 + step-2 kernel statistics (two launches).
    pub stats: KernelStats,
    /// Device bytes of the materialized semi-sparse intermediate.
    pub intermediate_bytes: usize,
}

/// Two-step SpMTTKRP on a 3-order tensor (Fig. 3a), using unified kernels
/// for both steps.
pub fn spmttkrp_two_step_unified(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    mode: usize,
    host_factors: &[&DenseMatrix],
    threadlen: usize,
    cfg: &LaunchConfig,
) -> Result<TwoStepOutcome, OutOfMemory> {
    assert_eq!(tensor.order(), 3, "two-step method is 3-order");
    assert_eq!(host_factors.len(), 3, "one factor per mode required");
    let product_modes: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
    let (first_product, second_product) = (product_modes[0], product_modes[1]);
    let r = host_factors[first_product].cols();
    assert_eq!(
        host_factors[second_product].cols(),
        r,
        "factor rank mismatch"
    );

    // Step 1: Y = X ×(second_product) C with the unified SpTTM.
    let fcoo = Fcoo::from_coo(
        tensor,
        TensorOp::SpTtm {
            mode: second_product,
        },
        threadlen,
    );
    let step1_dev = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo)?;
    let c = DeviceMatrix::upload(device.memory(), host_factors[second_product])?;
    let (intermediate, step1_stats) = step1_dev.spttm(device, &c, cfg)?;
    drop((step1_dev, c));

    // Host-side bookkeeping for step 2: fibers sorted by output row so that
    // equal rows are contiguous segments.
    let nfibs = intermediate.nfibs();
    let index_modes: Vec<usize> = (0..3).filter(|&m| m != second_product).collect();
    let out_pos = index_modes
        .iter()
        .position(|&m| m == mode)
        .expect("output mode is an index mode");
    let b_pos = index_modes
        .iter()
        .position(|&m| m == first_product)
        .expect("first product mode is an index mode of the intermediate");
    let mut order: Vec<usize> = (0..nfibs).collect();
    order.sort_by_key(|&fib| {
        let coord = intermediate.fiber_coord(fib);
        (coord[out_pos], coord[b_pos])
    });
    let mut out_rows: Vec<u32> = Vec::with_capacity(nfibs);
    let mut b_rows: Vec<u32> = Vec::with_capacity(nfibs);
    let mut y_host: Vec<f32> = Vec::with_capacity(nfibs * r);
    for &fib in &order {
        let coord = intermediate.fiber_coord(fib);
        out_rows.push(coord[out_pos]);
        b_rows.push(coord[b_pos]);
        y_host.extend_from_slice(intermediate.fiber(fib));
    }

    // Materialize the intermediate and step-2 inputs on the device.
    let y = device.memory().alloc_from_slice(&y_host)?;
    let intermediate_bytes = y.bytes() + 8 * nfibs;
    let out_rows_dev = device.memory().alloc_from_slice(&out_rows)?;
    let b_rows_dev = device.memory().alloc_from_slice(&b_rows)?;
    let b = DeviceMatrix::upload(device.memory(), host_factors[first_product])?;
    let rows = tensor.shape()[mode];
    let out = device.memory().alloc_zeroed::<f32>(rows * r)?;

    // Step 2: segmented reduction of scaled fibers into M.
    let partitions = nfibs.div_ceil(threadlen);
    let grid_x = partitions.div_ceil(cfg.block_size);
    let b_ws = b.rows() * b.cols() * 4;
    // Boundary carries fold into `out` in launch order.
    let step2_stats =
        device.launch_columns((grid_x, r), cfg.block_size, 0, None, Some(&out), |ctx| {
            let col = ctx.block_y();
            let warp = ctx.warp_size();
            let mut y_addrs: Vec<u64> = Vec::with_capacity(warp);
            let mut b_addrs: Vec<u64> = Vec::with_capacity(warp);
            let mut write_addrs: Vec<u64> = Vec::with_capacity(warp);
            for w in 0..ctx.warps_per_block() {
                let warp_first_thread = ctx.block_x() * ctx.block_threads() + w * warp;
                if warp_first_thread * threadlen >= nfibs {
                    break;
                }
                ctx.begin_warp();
                // Metadata streams once; the bIdy > 0 siblings hit L2. The
                // out-row stream is one element wider on each side: the segment
                // scan compares against the previous partition's last row and
                // peeks the next partition's first row.
                let warp_fib_start = warp_first_thread * threadlen;
                let span = (warp * threadlen).min(nfibs - warp_fib_start);
                let rows_first = warp_fib_start.saturating_sub(1);
                let rows_last = (warp_fib_start + span).min(nfibs - 1);
                if ctx.block_y() == 0 {
                    ctx.read_global_range(
                        out_rows_dev.addr(rows_first),
                        (rows_last - rows_first + 1) * 4,
                    );
                    ctx.read_global_range(b_rows_dev.addr(warp_fib_start), span * 4);
                } else {
                    ctx.read_global_range_l2(
                        out_rows_dev.addr(rows_first),
                        (rows_last - rows_first + 1) * 4,
                    );
                    ctx.read_global_range_l2(b_rows_dev.addr(warp_fib_start), span * 4);
                }
                for i in 0..threadlen {
                    y_addrs.clear();
                    b_addrs.clear();
                    for lane in 0..warp {
                        let fib = (warp_first_thread + lane) * threadlen + i;
                        if fib < nfibs {
                            y_addrs.push(y.addr(fib * r + col));
                            b_addrs.push(b.addr(b_rows_dev.get(fib) as usize, col));
                        }
                    }
                    if y_addrs.is_empty() {
                        break;
                    }
                    // The intermediate is streamed (too large for reuse);
                    // the factor is a reused working set.
                    ctx.read_global(&y_addrs);
                    ctx.read_global_ws(&b_addrs, b_ws);
                    ctx.compute(2);
                }
                // Functional per-lane accumulation over out-row segments.
                write_addrs.clear();
                for lane in 0..warp {
                    let thread = warp_first_thread + lane;
                    let pstart = thread * threadlen;
                    if pstart >= nfibs {
                        break;
                    }
                    let pend = ((thread + 1) * threadlen).min(nfibs);
                    let mut sum = 0.0f32;
                    let mut began_inside =
                        pstart == 0 || out_rows_dev.get(pstart) != out_rows_dev.get(pstart - 1);
                    let mut current_row = out_rows_dev.get(pstart) as usize;
                    for fib in pstart..pend {
                        let row = out_rows_dev.get(fib) as usize;
                        if row != current_row {
                            finalize(
                                ctx,
                                &out,
                                current_row * r + col,
                                sum,
                                began_inside,
                                &mut write_addrs,
                            );
                            sum = 0.0;
                            began_inside = true;
                            current_row = row;
                        }
                        let j = b_rows_dev.get(fib) as usize;
                        sum += y.get(fib * r + col) * b.get(j, col);
                    }
                    let ends_exclusive =
                        pend == nfibs || out_rows_dev.get(pend) as usize != current_row;
                    finalize(
                        ctx,
                        &out,
                        current_row * r + col,
                        sum,
                        began_inside && ends_exclusive,
                        &mut write_addrs,
                    );
                }
                let sharers = r.min(8) as u64;
                for chunk in write_addrs.chunks(warp) {
                    ctx.write_global_shared(chunk, sharers);
                }
                ctx.compute(gpu_sim::scan::warp_segscan_cycles(ctx.config()));
            }
            if cfg.use_fusion {
                ctx.adjacent_sync();
            }
        });

    let mut stats = step1_stats;
    stats.merge(&step2_stats);
    Ok(TwoStepOutcome {
        result: DenseMatrix::from_vec(rows, r, out.to_vec()),
        stats,
        intermediate_bytes,
    })
}

fn finalize(
    ctx: &mut gpu_sim::BlockCtx<'_>,
    out: &gpu_sim::DeviceBuffer<f32>,
    index: usize,
    sum: f32,
    exclusive: bool,
    write_addrs: &mut Vec<u64>,
) {
    write_addrs.push(out.addr(index));
    if exclusive {
        // SAFETY: exclusive segments are owned by one thread per column.
        unsafe { out.write(index, sum) };
    } else {
        ctx.carry_add_f32(index, sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn two_step_matches_reference_all_modes() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 4_000, 90);
        let hosts = factors_for(&tensor, 8, 3);
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let device = GpuDevice::titan_x();
        for mode in 0..3 {
            let outcome = spmttkrp_two_step_unified(
                &device,
                &tensor,
                mode,
                &refs,
                8,
                &LaunchConfig::default(),
            )
            .unwrap();
            let reference = ops::spmttkrp(&tensor, mode, &refs);
            let diff = outcome.result.max_abs_diff(&reference);
            assert!(diff < 1e-3, "mode {mode} diff {diff}");
            assert!(outcome.intermediate_bytes > 0);
        }
    }

    #[test]
    fn one_shot_beats_two_step() {
        // Fig. 3's point: the one-shot method avoids the intermediate's
        // storage and traffic and the extra kernel.
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 30_000, 91);
        let hosts = factors_for(&tensor, 16, 5);
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
        let on_device =
            AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).unwrap();
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).unwrap())
            .collect();
        let factor_refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (_, one_shot) = on_device
            .spmttkrp(&device, &factor_refs, &LaunchConfig::default())
            .unwrap();
        let outcome =
            spmttkrp_two_step_unified(&device, &tensor, 0, &refs, 16, &LaunchConfig::default())
                .unwrap();
        assert!(
            outcome.stats.time_us > one_shot.time_us,
            "two-step {:.1}µs must exceed one-shot {:.1}µs",
            outcome.stats.time_us,
            one_shot.time_us
        );
        // And it needs memory the one-shot method never allocates.
        assert!(outcome.intermediate_bytes > fcoo.storage().total_bytes() / 4);
    }

    #[test]
    fn two_step_on_skewed_tensor() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 3_000, 92);
        let hosts = factors_for(&tensor, 4, 7);
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let device = GpuDevice::titan_x();
        let outcome =
            spmttkrp_two_step_unified(&device, &tensor, 1, &refs, 8, &LaunchConfig::default())
                .unwrap();
        let reference = ops::spmttkrp(&tensor, 1, &refs);
        assert!(outcome.result.max_abs_diff(&reference) < 1e-3);
    }
}
