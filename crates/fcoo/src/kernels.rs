//! Unified one-shot GPU kernels over F-COO (paper §IV-C/D).
//!
//! All three operations share one skeleton, which is the point of the
//! unified method:
//!
//! * the grid is two-dimensional with **one-dimensional blocks** (Fig. 4):
//!   `bIdx` walks partitions of non-zeros, `bIdy` walks columns of the dense
//!   factor matrices, so the block shape never depends on the rank;
//! * each thread owns `threadlen` consecutive non-zeros, computes the
//!   per-non-zero product (`val × U(k,:)` for SpTTM, `val × B(j,:) ∗ C(k,:)`
//!   for SpMTTKRP, `val × (U₂(j,:) ⊗ U₃(k,:))` for SpTTMc) and reduces along
//!   `bf` segments;
//! * segments are finalized with a **segmented scan** (warp shuffles + one
//!   shared-memory stage), not atomics: segments fully inside a partition
//!   are written exactly once; segments spanning partition/block boundaries
//!   are carried via adjacent synchronization (fused kernels) and account
//!   for at most two extra writes per partition;
//! * factor-matrix rows are read through the **read-only data cache**, which
//!   is where tensor density shows up in performance (§V-A).
//!
//! [`LaunchConfig`] exposes the optimization toggles for the ablation
//! benches: `use_segscan = false` degenerates to per-element atomics (the
//! COO baseline behaviour), `use_rocache = false` reads factors from plain
//! global memory, `use_fusion = false` pays a separate carry-resolution
//! kernel launch.

use crate::device::{DeviceMatrix, FcooDevice};
use crate::modes::TensorOp;
use gpu_sim::memory::DeviceBuffer;
use gpu_sim::scan::{block_segscan_cycles, warp_segscan_cycles};
use gpu_sim::stats::BlockStats;
use gpu_sim::{DeviceConfig, GpuDevice, KernelStats, OutOfMemory};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Warp-shuffle operations each BF-COO gather run spends demultiplexing the
/// bucketed lanes back onto their owning threads (arXiv:1904.03329 §4: one
/// ballot, two index shuffles, two value shuffles per 32-non-zero run).
pub const BUCKET_SHUFFLE_OPS: u64 = 5;

/// How the unified skeleton batches its scattered factor-matrix reads.
///
/// `Strided` is the paper's F-COO schedule: iteration `i` gathers lane
/// `l`'s non-zero `l·threadlen + i`, so one warp-wide batch mixes addresses
/// `threadlen` apart in the non-zero stream. `Bucketed` is the BF-COO
/// schedule: the warp walks its non-zero span in aligned 32-element runs,
/// issuing one batch **per factor** per run — consecutive non-zeros share
/// segment rows under the format's sort order, so each batch dedups to the
/// run's distinct-row count (the per-run bucket metadata streamed alongside
/// the tensor). Both schedules cover exactly the same non-zeros; only the
/// batching — and therefore the cache behaviour — differs.
#[derive(Clone, Copy)]
pub(crate) enum GatherLayout<'a> {
    /// F-COO lane-strided gathers (one batch per threadlen iteration).
    Strided,
    /// BF-COO run-bucketed gathers over per-product-mode bucket arrays.
    Bucketed {
        /// One distinct-row-count array per product mode, one entry per
        /// aligned 32-non-zero run.
        buckets: &'a [DeviceBuffer<u32>],
    },
}

/// Tunable launch parameters and optimization toggles.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Threads per (one-dimensional) block; must be a multiple of 32.
    pub block_size: usize,
    /// Route factor-matrix reads through the read-only data cache.
    pub use_rocache: bool,
    /// Reduce segments with segmented scan; `false` falls back to one
    /// atomic per non-zero (COO-style accumulation).
    pub use_segscan: bool,
    /// Fuse product/scan/accumulate kernels with adjacent synchronization;
    /// `false` pays an extra kernel launch for boundary-carry resolution.
    pub use_fusion: bool,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            block_size: 128,
            use_rocache: true,
            use_segscan: true,
            use_fusion: true,
        }
    }
}

impl LaunchConfig {
    /// A config with the given block size and all optimizations on.
    pub fn with_block_size(block_size: usize) -> Self {
        LaunchConfig {
            block_size,
            ..Default::default()
        }
    }
}

/// Launches the unified kernel for the operation `fcoo` was preprocessed
/// for: the one entry behind every public launch.
///
/// `factors` follows [`TensorOp::factor_modes`]. Once their shapes are
/// checked, `output` provisions the `rows × cols` output buffer from its
/// element count: a fresh zeroed allocation, or a caller-seeded buffer the
/// kernel accumulates into without clearing. An all-zero buffer reproduces
/// a fresh launch exactly; a buffer whose carried-in row holds a running
/// partial sum extends that sum (the out-of-core chunk seeding of
/// `crates/ooc`).
///
/// # Panics
/// If the factor count or shapes do not match the format.
pub(crate) fn launch<B: Borrow<DeviceBuffer<f32>>>(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    layout: GatherLayout<'_>,
    factors: &[&DeviceMatrix],
    cfg: &LaunchConfig,
    output: impl FnOnce(usize) -> Result<B, OutOfMemory>,
) -> Result<(B, KernelStats), OutOfMemory> {
    let op = fcoo.op;
    let factor_modes = op.factor_modes(fcoo.shape.len());
    assert_eq!(
        factors.len(),
        factor_modes.len(),
        "{} takes one factor for each of modes {factor_modes:?}",
        op.label()
    );
    let product_modes = &fcoo.classification.product_modes;
    // One factor per product mode, in product-mode order: the SpMTTKRP
    // factor list also holds the (unread) operating mode's entry.
    let product_factors: Vec<&DeviceMatrix> = match op {
        TensorOp::SpMttkrp { .. } => product_modes.iter().map(|&m| factors[m]).collect(),
        TensorOp::SpTtm { .. } | TensorOp::SpTtmc { .. } => factors.to_vec(),
    };
    let factor_cols: Vec<usize> = factors.iter().map(|f| f.cols()).collect();
    let cols = op.output_cols(&factor_cols);
    for (&m, factor) in product_modes.iter().zip(&product_factors) {
        assert_eq!(
            factor.rows(),
            fcoo.shape[m],
            "factor row count mismatch on mode {m}"
        );
        if let TensorOp::SpMttkrp { .. } = op {
            assert_eq!(factor.cols(), cols, "factor {m} column count mismatch");
        }
    }
    let (rows, row_of_seg, coord_buffer) = match op {
        TensorOp::SpTtm { .. } => (fcoo.segments(), None, None),
        TensorOp::SpMttkrp { mode } | TensorOp::SpTtmc { mode } => (
            fcoo.shape[mode],
            Some(&fcoo.segment_coords_host[0]),
            Some(&fcoo.segment_coords[0]),
        ),
    };
    let out = output(rows * cols)?;
    // Mixed-radix place of each product factor's digit in the output
    // column: 1 for SpTTM and SpMTTKRP (every factor reads column `col`);
    // for the SpTTMc Kronecker column, last factor fastest (matching
    // `tensor_core::ops::spttmc_norder`).
    let mut places = vec![1usize; product_factors.len()];
    if let TensorOp::SpTtmc { .. } = op {
        for p in (0..product_factors.len().saturating_sub(1)).rev() {
            places[p] = places[p + 1] * product_factors[p + 1].cols();
        }
    }
    let accesses: Vec<ColumnAccess<'_>> = product_factors
        .iter()
        .zip(&places)
        .map(|(f, &place)| ColumnAccess::of(f, place))
        .collect();
    let factor_ws: usize = product_factors
        .iter()
        .map(|f| f.rows() * f.cols() * 4)
        .sum();
    let stats = run_unified(
        device,
        fcoo,
        cfg,
        layout,
        cols,
        out.borrow(),
        cols,
        &accesses,
        factor_ws,
        |seg| row_of_seg.map_or(seg, |rows| rows[seg] as usize),
        coord_buffer,
        1 + product_factors.len() as u64,
        |nz, col| {
            let mut product = fcoo.values.get(nz);
            for (access, indices) in accesses.iter().zip(&fcoo.product_indices) {
                product *= access.get(indices.get(nz) as usize, col);
            }
            product
        },
        |nz, col, addrs| {
            for (access, indices) in accesses.iter().zip(&fcoo.product_indices) {
                addrs.push(access.addr(indices.get(nz) as usize, col));
            }
        },
    );
    Ok((out, stats))
}

/// A row-major array (a factor matrix or the output) as the unified kernel
/// addresses it per output column: block column `col` touches word
/// `(col / place) % stride` of every `stride`-float row it visits — the
/// column itself (`place = 1`) for the output and for SpTTM and SpMTTKRP
/// factors, one Kronecker digit for SpTTMc factors.
#[derive(Clone, Copy)]
struct ColumnAccess<'a> {
    buffer: &'a DeviceBuffer<f32>,
    stride: usize,
    place: usize,
}

impl<'a> ColumnAccess<'a> {
    fn of(matrix: &'a DeviceMatrix, place: usize) -> Self {
        ColumnAccess {
            buffer: matrix.buffer(),
            stride: matrix.cols(),
            place,
        }
    }

    /// The word column `col` touches in each row. A place-1 access with
    /// `col` inside the row (every SpTTM and SpMTTKRP factor) skips the
    /// division in the kernel's per-non-zero loop.
    #[inline]
    fn word(&self, col: usize) -> usize {
        if self.place == 1 && col < self.stride {
            col
        } else {
            (col / self.place) % self.stride
        }
    }

    #[inline]
    fn get(&self, row: usize, col: usize) -> f32 {
        self.buffer.get(row * self.stride + self.word(col))
    }

    fn addr(&self, row: usize, col: usize) -> u64 {
        self.buffer.addr(row * self.stride + self.word(col))
    }
}

/// The column-class map of one unified launch (see
/// [`GpuDevice::launch_columns`]): `class[col]` is the first column whose
/// blocks narrate exactly what column `col`'s blocks would.
///
/// Why a copy is exact: every block simulates a fresh read-only cache, so
/// a block's [`BlockStats`] are a pure function of its narration sequence
/// at read-only-line and transaction-sector granularity, plus whether
/// `bIdy > 0` (the L2-hot tensor stream). Column 0 is therefore always its
/// own class. Column `col`'s narration differs from another column's only
/// in the word it touches in each row of the buffers in `accesses`, so
/// columns `c, c' ≥ 1` share a class exactly when,
/// in every row of every such buffer, both words fall in the same line and
/// the same sector. A row's line and sector split depend only on its start
/// address modulo the granule, and row starts advance by `4·stride` bytes,
/// so their residues repeat within `granule` rows: those rows cover all.
fn column_classes(
    config: &DeviceConfig,
    columns: usize,
    accesses: &[ColumnAccess<'_>],
) -> Vec<usize> {
    let mut granules = vec![config.readonly_line_bytes, config.transaction_bytes];
    granules.dedup();
    // Per access: every distinct (row-start residue, granule) pair.
    let residues: Vec<Vec<(u64, u64)>> = accesses
        .iter()
        .map(|access| {
            let rows = access.buffer.len() / access.stride;
            let mut residues = Vec::new();
            for &granule in &granules {
                for row in 0..rows.min(granule) {
                    let start = access.buffer.addr(row * access.stride);
                    let residue = (start % granule as u64, granule as u64);
                    if !residues.contains(&residue) {
                        residues.push(residue);
                    }
                }
            }
            residues
        })
        .collect();
    let granules_touched = |col: usize| -> Vec<u64> {
        accesses
            .iter()
            .zip(&residues)
            .flat_map(|(access, residues)| {
                let offset = (access.word(col) * 4) as u64;
                residues
                    .iter()
                    .map(move |&(residue, granule)| (residue + offset) / granule)
            })
            .collect()
    };
    let mut representatives: HashMap<Vec<u64>, usize> = HashMap::new();
    (0..columns)
        .map(|col| match col {
            0 => 0,
            _ => *representatives.entry(granules_touched(col)).or_insert(col),
        })
        .collect()
}

/// The shared unified kernel skeleton.
///
/// `row_of_seg` maps a segment ordinal to its output row; `coord_buffer`, if
/// given, is the device array those lookups read (charged on finalization).
/// `product` computes one non-zero's full contribution for one column;
/// `factor_addrs` lists the factor-matrix addresses that contribution reads
/// and `factor_accesses` describes the same reads per column, for the
/// column classes; `factor_ws` is the total bytes of those (reused) factor
/// matrices, which bounds whether misses stay in the device L2.
///
/// Only one block column per column class narrates, and boundary carries
/// fold into `out` in launch order (see [`GpuDevice::launch_columns`]).
#[allow(clippy::too_many_arguments)]
fn run_unified<RowOf, Product, Addrs>(
    device: &GpuDevice,
    fcoo: &FcooDevice,
    cfg: &LaunchConfig,
    layout: GatherLayout<'_>,
    columns: usize,
    out: &DeviceBuffer<f32>,
    out_stride: usize,
    factor_accesses: &[ColumnAccess<'_>],
    factor_ws: usize,
    row_of_seg: RowOf,
    coord_buffer: Option<&DeviceBuffer<u32>>,
    compute_per_element: u64,
    product: Product,
    factor_addrs: Addrs,
) -> KernelStats
where
    RowOf: Fn(usize) -> usize + Sync,
    Product: Fn(usize, usize) -> f32 + Sync,
    Addrs: Fn(usize, usize, &mut Vec<u64>) + Sync,
{
    let threadlen = fcoo.threadlen;
    let nnz = fcoo.nnz;
    let partitions = fcoo.partitions();
    let grid_x = partitions.div_ceil(cfg.block_size);
    let warp = 32usize;
    // Shared memory: one carry (value + open-flag word) per warp for the
    // block-level segmented-scan combine.
    let shared_bytes = (cfg.block_size / 32) * 8;
    let out_access = ColumnAccess {
        buffer: out,
        stride: out_stride,
        place: 1,
    };
    let accesses: Vec<ColumnAccess<'_>> = factor_accesses
        .iter()
        .copied()
        .chain([out_access])
        .collect();
    let class = column_classes(device.config(), columns, &accesses);
    let mut stats = device.launch_columns(
        (grid_x, columns),
        cfg.block_size,
        shared_bytes,
        Some(&class),
        Some(out),
        |ctx| {
            let col = ctx.block_y();
            let narrating = ctx.narrating();
            // Column-sibling blocks resident on the same SM read adjacent
            // columns of the same factor rows: one read-only cache line (8
            // floats) serves up to 8 of them, so each block is charged its
            // share of the fill (the "data reuse" of §IV-D).
            if cfg.use_rocache {
                ctx.set_rocache_sharers(columns.min(8) as u64);
            }
            let mut ro_addrs: Vec<u64> = Vec::with_capacity(2 * warp);
            let mut factor_batch: Vec<u64> = Vec::with_capacity(warp);
            let mut write_rows: Vec<u64> = Vec::with_capacity(warp);
            let mut coord_reads: Vec<u64> = Vec::with_capacity(warp);
            let mut atomic_events: Vec<(usize, f32)> = Vec::new();
            let mut any_warp_ran = false;
            for w in 0..ctx.warps_per_block() {
                let warp_first_thread = ctx.block_x() * ctx.block_threads() + w * warp;
                let warp_nnz_start = warp_first_thread * threadlen;
                if warp_nnz_start >= nnz {
                    break;
                }
                any_warp_ran = true;
                ctx.begin_warp();
                let warp_nnz_end = ((warp_first_thread + warp) * threadlen).min(nnz);
                let span = warp_nnz_end - warp_nnz_start;

                if narrating {
                    // Streaming reads of the warp's contiguous tensor region:
                    // values, product-mode indices, bit flags, partition metadata.
                    // The grid places all column blocks of one partition range
                    // adjacently, so the bIdy = 0 block streams the region from
                    // DRAM and its co-resident column siblings hit in L2 (the
                    // "data reuse" optimization of §IV-D).
                    let l2_hot = ctx.block_y() > 0;
                    let stream = |ctx: &mut gpu_sim::BlockCtx<'_>, addr: u64, bytes: usize| {
                        if l2_hot {
                            ctx.read_global_range_l2(addr, bytes);
                        } else {
                            ctx.read_global_range(addr, bytes);
                        }
                    };
                    stream(ctx, fcoo.values.addr(warp_nnz_start), span * 4);
                    for indices in &fcoo.product_indices {
                        stream(ctx, indices.addr(warp_nnz_start), span * 4);
                    }
                    // The bit-flag bytes this warp touches: its own non-zeros plus
                    // the one-byte lookahead for the head flag at `pend` (clamped to
                    // the last flag byte — `head(nnz)` is never read).
                    let bf_first = warp_nnz_start / 8;
                    let bf_last = warp_nnz_end.min(nnz - 1) / 8;
                    stream(ctx, fcoo.bf.addr(bf_first), bf_last - bf_first + 1);
                    let threads_here = warp.min(partitions - warp_first_thread);
                    stream(
                        ctx,
                        fcoo.partition_first_segment.addr(warp_first_thread),
                        threads_here * 4,
                    );
                    let sf_first = warp_first_thread / 8;
                    let sf_last = (warp_first_thread + threads_here - 1) / 8;
                    stream(ctx, fcoo.sf.addr(sf_first), sf_last - sf_first + 1);
                    if let GatherLayout::Bucketed { buckets } = layout {
                        // BF-COO also streams its per-run distinct-row counts,
                        // one array per product mode. `warp_nnz_start` is a
                        // multiple of 32 (warps start on 32-thread boundaries),
                        // so the warp's span aligns with the global runs.
                        let run_first = warp_nnz_start / 32;
                        let runs = span.div_ceil(32);
                        for bucket in buckets {
                            stream(ctx, bucket.addr(run_first), runs * 4);
                        }
                    }

                    // Factor-matrix reads (scattered by product-mode indices →
                    // read-only cache territory) and the product FLOPs. The
                    // strided schedule batches lane-strided addresses per
                    // threadlen iteration; the bucketed schedule batches each
                    // aligned 32-non-zero run per factor, so consecutive
                    // non-zeros sharing a segment row collapse onto the same
                    // cache lines (the load balancing of arXiv:1904.03329).
                    match layout {
                        GatherLayout::Strided => {
                            for i in 0..threadlen {
                                ro_addrs.clear();
                                for lane in 0..warp {
                                    let nz = (warp_first_thread + lane) * threadlen + i;
                                    if nz < nnz {
                                        factor_addrs(nz, col, &mut ro_addrs);
                                    }
                                }
                                if ro_addrs.is_empty() {
                                    break;
                                }
                                if cfg.use_rocache {
                                    ctx.read_readonly_ws(&ro_addrs, factor_ws);
                                } else {
                                    ctx.read_global_ws(&ro_addrs, factor_ws);
                                }
                                ctx.compute(compute_per_element);
                            }
                        }
                        GatherLayout::Bucketed { .. } => {
                            let runs = span.div_ceil(32);
                            for r in 0..runs {
                                let run_start = warp_nnz_start + r * 32;
                                let run_end = (run_start + 32).min(warp_nnz_end);
                                ro_addrs.clear();
                                for nz in run_start..run_end {
                                    factor_addrs(nz, col, &mut ro_addrs);
                                }
                                if ro_addrs.is_empty() {
                                    break;
                                }
                                // Each non-zero pushed the same per-factor
                                // address group; demux into one ≤32-address
                                // batch per factor so the read-only cache's
                                // line-dedup window sees a single factor's rows.
                                let live = run_end - run_start;
                                let per_nz = ro_addrs.len() / live;
                                for f in 0..per_nz {
                                    factor_batch.clear();
                                    factor_batch.extend(
                                        ro_addrs
                                            .iter()
                                            .enumerate()
                                            .filter(|(j, _)| j % per_nz == f)
                                            .map(|(_, &a)| a),
                                    );
                                    if cfg.use_rocache {
                                        ctx.read_readonly_ws(&factor_batch, factor_ws);
                                    } else {
                                        ctx.read_global_ws(&factor_batch, factor_ws);
                                    }
                                }
                                ctx.shuffle(BUCKET_SHUFFLE_OPS);
                                ctx.compute(compute_per_element);
                            }
                        }
                    }
                }

                // Functional per-lane segment accumulation.
                write_rows.clear();
                coord_reads.clear();
                atomic_events.clear();
                for lane in 0..warp {
                    let thread = warp_first_thread + lane;
                    let pstart = thread * threadlen;
                    if pstart >= nnz {
                        break;
                    }
                    let pend = ((thread + 1) * threadlen).min(nnz);
                    // Heads seen so far, including any before this partition.
                    let mut heads = fcoo.partition_first_segment.get(thread) as usize;
                    let mut sum = 0.0f32;
                    let mut began_inside = false;
                    let mut has_open = false;
                    for nz in pstart..pend {
                        let head = fcoo.head(nz);
                        if head {
                            if has_open {
                                // Previous segment closed by this head: its end
                                // is inside the partition.
                                finalize_segment(
                                    ctx,
                                    cfg,
                                    out,
                                    out_stride,
                                    col,
                                    &row_of_seg,
                                    coord_buffer,
                                    heads - 1,
                                    sum,
                                    began_inside,
                                    &mut write_rows,
                                    &mut coord_reads,
                                    &mut atomic_events,
                                );
                            }
                            heads += 1;
                            sum = 0.0;
                            began_inside = true;
                        } else if !has_open {
                            // Partition starts mid-segment (sf bit clear).
                            began_inside = false;
                        }
                        has_open = true;
                        if cfg.use_segscan {
                            sum += product(nz, col);
                        } else {
                            // Ablation: one atomic per non-zero, COO style.
                            let row = row_of_seg(heads - 1);
                            atomic_events.push((row * out_stride + col, product(nz, col)));
                        }
                    }
                    if has_open && cfg.use_segscan {
                        // Final open segment: exclusive only if it both began
                        // inside and the next partition starts a new segment.
                        let ends_exclusive = pend == nnz || fcoo.head(pend);
                        finalize_segment(
                            ctx,
                            cfg,
                            out,
                            out_stride,
                            col,
                            &row_of_seg,
                            coord_buffer,
                            heads - 1,
                            sum,
                            began_inside && ends_exclusive,
                            &mut write_rows,
                            &mut coord_reads,
                            &mut atomic_events,
                        );
                    }
                }

                // Charge the warp-level segmented-scan stages and the batched
                // output traffic.
                if cfg.use_segscan && narrating {
                    ctx.compute(warp_segscan_cycles(ctx.config()));
                    for chunk in coord_reads.chunks(warp) {
                        ctx.read_global(chunk);
                    }
                    // Sibling column blocks write adjacent columns of the same
                    // output rows; the write-back L2 merges them per line.
                    let sharers = columns.min(8) as u64;
                    for chunk in write_rows.chunks(warp) {
                        ctx.write_global_shared(chunk, sharers);
                    }
                }
                for chunk in atomic_events.chunks(warp) {
                    ctx.atomic_add_f32(out, chunk);
                }
            }
            if any_warp_ran && cfg.use_segscan {
                // Block-level scan combine + barriers, plus the inter-block
                // carry when kernels are fused.
                ctx.compute(block_segscan_cycles(ctx.block_threads(), ctx.config()));
                ctx.syncthreads();
                ctx.syncthreads();
                if cfg.use_fusion {
                    ctx.adjacent_sync();
                }
            }
        },
    );
    if cfg.use_segscan && !cfg.use_fusion {
        // Unfused variant: boundary carries resolved by a follow-up kernel
        // that re-reads one partial per partition.
        let carry_block = BlockStats {
            dram_bytes: (partitions * 8) as u64,
            transactions: (partitions * 8).div_ceil(device.config().transaction_bytes) as u64,
            max_warp_cycles: 64,
            total_warp_cycles: 64,
            warps: 1,
            ..Default::default()
        };
        let carry = KernelStats::from_blocks(&[carry_block], cfg.block_size, device.config());
        stats.merge(&carry);
    }
    stats
}

/// Finalizes one segment: exclusive segments are written once; boundary
/// segments are carried into `out` (folded in launch order) while the cost
/// model charges them as scan-carried writes when segmented scan is on.
#[allow(clippy::too_many_arguments)]
fn finalize_segment<RowOf: Fn(usize) -> usize>(
    ctx: &mut gpu_sim::BlockCtx<'_>,
    cfg: &LaunchConfig,
    out: &DeviceBuffer<f32>,
    out_stride: usize,
    col: usize,
    row_of_seg: &RowOf,
    coord_buffer: Option<&DeviceBuffer<u32>>,
    seg: usize,
    sum: f32,
    exclusive: bool,
    write_rows: &mut Vec<u64>,
    coord_reads: &mut Vec<u64>,
    atomic_events: &mut Vec<(usize, f32)>,
) {
    let row = row_of_seg(seg);
    let index = row * out_stride + col;
    if let Some(coords) = coord_buffer {
        coord_reads.push(coords.addr(seg));
    }
    if cfg.use_segscan {
        write_rows.push(out.addr(index));
        if exclusive {
            // SAFETY: exclusive segments are owned by exactly one thread for
            // this output column.
            unsafe { out.write(index, sum) };
        } else {
            ctx.carry_add_f32(index, sum);
        }
    } else {
        atomic_events.push((index, sum));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Fcoo;
    use crate::formats::{AnyFormatDevice, FormatKind};
    use tensor_core::approx::assert_slices_close;
    use tensor_core::datasets::{self, DatasetKind};
    use tensor_core::ops;
    use tensor_core::DenseMatrix;
    use tensor_core::SparseTensorCoo;

    fn upload_factors(
        device: &GpuDevice,
        tensor: &SparseTensorCoo,
        r: usize,
        seed: u64,
    ) -> Vec<DeviceMatrix> {
        tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &size)| {
                let host = DenseMatrix::random(size, r, seed + m as u64);
                DeviceMatrix::upload(device.memory(), &host).unwrap()
            })
            .collect()
    }

    fn check_spttm(tensor: &SparseTensorCoo, mode: usize, r: usize, cfg: &LaunchConfig) {
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(tensor, TensorOp::SpTtm { mode }, 8);
        let dev = upload(&device, &fcoo);
        let u_host = DenseMatrix::random(tensor.shape()[mode], r, 7);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (result, stats) = dev.spttm(&device, &u, cfg).unwrap();
        let reference = ops::spttm(tensor, mode, &u_host);
        let diff = result
            .max_abs_diff(&reference)
            .expect("fiber sets must match");
        assert!(diff < 1e-3, "mode {mode} diff {diff}");
        assert!(stats.time_us > 0.0);
    }

    fn check_spmttkrp(tensor: &SparseTensorCoo, mode: usize, r: usize, cfg: &LaunchConfig) {
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, 8);
        let dev = upload(&device, &fcoo);
        let factors = upload_factors(&device, tensor, r, 40);
        let factor_refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (result, _) = dev.spmttkrp(&device, &factor_refs, cfg).unwrap();
        let host_factors: Vec<DenseMatrix> = factors.iter().map(|f| f.download()).collect();
        let host_refs: Vec<&DenseMatrix> = host_factors.iter().collect();
        let reference = ops::spmttkrp(tensor, mode, &host_refs);
        let diff = result.max_abs_diff(&reference);
        assert!(diff < 1e-3, "mode {mode} diff {diff}");
    }

    fn upload(device: &GpuDevice, fcoo: &Fcoo) -> AnyFormatDevice {
        AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, fcoo).unwrap()
    }

    /// A row-major `rows × cols` zero matrix on `device`.
    fn zero_matrix(device: &GpuDevice, rows: usize, cols: usize) -> DeviceMatrix {
        DeviceMatrix::upload(device.memory(), &DenseMatrix::zeros(rows, cols)).unwrap()
    }

    #[test]
    fn column_classes_match_brute_force_line_and_sector_comparison() {
        // An SpTTMc-shaped launch: factor A at place `cols_b`, factor B at
        // place 1, the output at stride `cols_a × cols_b`. Row counts are
        // odd so row starts take every residue their stride allows.
        let device = GpuDevice::titan_x();
        let config = device.config();
        let (line, sector) = (
            config.readonly_line_bytes as u64,
            config.transaction_bytes as u64,
        );
        for (cols_a, cols_b) in [(1, 1), (3, 1), (4, 2), (5, 3), (6, 1), (8, 1), (12, 2)] {
            for (cols_a, cols_b) in [(cols_a, cols_b), (16, cols_b), (20, cols_a)] {
                let a = zero_matrix(&device, 37, cols_a);
                let b = zero_matrix(&device, 11, cols_b);
                let columns = cols_a * cols_b;
                let out = device.memory().alloc_zeroed::<f32>(9 * columns).unwrap();
                let accesses = [
                    ColumnAccess::of(&a, cols_b),
                    ColumnAccess::of(&b, 1),
                    ColumnAccess {
                        buffer: &out,
                        stride: columns,
                        place: 1,
                    },
                ];
                let class = column_classes(config, columns, &accesses);
                let same_granules = |c: usize, d: usize| {
                    accesses.iter().all(|access| {
                        (0..access.buffer.len() / access.stride).all(|row| {
                            let x = access.buffer.addr(row * access.stride + access.word(c));
                            let y = access.buffer.addr(row * access.stride + access.word(d));
                            x / line == y / line && x / sector == y / sector
                        })
                    })
                };
                for c in 0..columns {
                    assert!(class[c] <= c && class[class[c]] == class[c]);
                    for d in 0..columns {
                        let shared = c == d || (c > 0 && d > 0 && same_granules(c, d));
                        assert_eq!(
                            class[c] == class[d],
                            shared,
                            "{cols_a}×{cols_b}: {c} vs {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spmttkrp_column_classes_at_common_ranks() {
        // Factors and output at stride R: each 32-byte line holds 8 columns.
        let device = GpuDevice::titan_x();
        for (rank, expected) in [
            (16, vec![0, 1, 1, 1, 1, 1, 1, 1, 8, 8, 8, 8, 8, 8, 8, 8]),
            (8, vec![0, 1, 1, 1, 1, 1, 1, 1]),
            (4, vec![0, 1, 1, 1]),
        ] {
            let factors = [
                zero_matrix(&device, 60, rank),
                zero_matrix(&device, 75, rank),
            ];
            let out = zero_matrix(&device, 41, rank);
            let accesses = [
                ColumnAccess::of(&factors[0], 1),
                ColumnAccess::of(&factors[1], 1),
                ColumnAccess::of(&out, 1),
            ];
            assert_eq!(column_classes(device.config(), rank, &accesses), expected);
        }
    }

    #[test]
    fn spttm_matches_reference_all_modes() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 11);
        for mode in 0..3 {
            check_spttm(&tensor, mode, 16, &LaunchConfig::default());
        }
    }

    #[test]
    fn spmttkrp_matches_reference_all_modes() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 12);
        for mode in 0..3 {
            check_spmttkrp(&tensor, mode, 16, &LaunchConfig::default());
        }
    }

    #[test]
    fn kernels_correct_on_dense_and_skewed_datasets() {
        for kind in [DatasetKind::Brainq, DatasetKind::Nell1] {
            let (tensor, _) = datasets::generate(kind, 4000, 13);
            check_spttm(&tensor, 2, 8, &LaunchConfig::default());
            check_spmttkrp(&tensor, 0, 8, &LaunchConfig::default());
        }
    }

    #[test]
    fn results_identical_across_optimization_toggles() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2500, 14);
        for cfg in [
            LaunchConfig {
                use_rocache: false,
                ..Default::default()
            },
            LaunchConfig {
                use_segscan: false,
                ..Default::default()
            },
            LaunchConfig {
                use_fusion: false,
                ..Default::default()
            },
            LaunchConfig {
                block_size: 32,
                ..Default::default()
            },
            LaunchConfig {
                block_size: 1024,
                ..Default::default()
            },
        ] {
            check_spttm(&tensor, 2, 8, &cfg);
            check_spmttkrp(&tensor, 0, 8, &cfg);
        }
    }

    #[test]
    fn various_threadlens_are_correct() {
        let (tensor, _) = datasets::generate(DatasetKind::Delicious, 2500, 15);
        let device = GpuDevice::titan_x();
        let u_host = DenseMatrix::random(tensor.shape()[2], 8, 3);
        let reference = ops::spttm(&tensor, 2, &u_host);
        for threadlen in [1, 3, 8, 16, 64] {
            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, threadlen);
            let dev = upload(&device, &fcoo);
            let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
            let (result, _) = dev.spttm(&device, &u, &LaunchConfig::default()).unwrap();
            let diff = result
                .max_abs_diff(&reference)
                .expect("fiber sets must match");
            assert!(diff < 1e-3, "threadlen {threadlen} diff {diff}");
        }
    }

    #[test]
    fn spttmc_matches_reference() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 16);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtmc { mode: 0 }, 8);
        let dev = upload(&device, &fcoo);
        let a_host = DenseMatrix::random(tensor.shape()[1], 4, 21);
        let b_host = DenseMatrix::random(tensor.shape()[2], 3, 22);
        let a = DeviceMatrix::upload(device.memory(), &a_host).unwrap();
        let b = DeviceMatrix::upload(device.memory(), &b_host).unwrap();
        let (result, _) = dev
            .spttmc_norder(&device, &[&a, &b], &LaunchConfig::default())
            .unwrap();
        let reference = ops::spttmc(
            &tensor,
            0,
            &[&DenseMatrix::zeros(tensor.shape()[0], 1), &a_host, &b_host],
        );
        assert!(result.max_abs_diff(&reference) < 1e-3);
        assert_slices_close(result.row(0), reference.row(0), 1e-3);
    }

    #[test]
    fn spttmc_norder_matches_reference_on_4_order() {
        let tensor = tensor_core::datasets::generate_norder(&[10, 8, 12, 6], 1_500, 0.5, 44);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtmc { mode: 1 }, 8);
        let dev = upload(&device, &fcoo);
        let hosts: Vec<DenseMatrix> = fcoo
            .classification
            .product_modes
            .iter()
            .enumerate()
            .map(|(p, &m)| DenseMatrix::random(tensor.shape()[m], 2 + p % 2, 60 + p as u64))
            .collect();
        let uploaded: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
        let (result, _) = dev
            .spttmc_norder(&device, &refs, &LaunchConfig::default())
            .unwrap();
        let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let reference = tensor_core::ops::spttmc_norder(&tensor, 1, &host_refs);
        assert!(
            result.max_abs_diff(&reference) < 1e-3,
            "diff {}",
            result.max_abs_diff(&reference)
        );
    }

    #[test]
    fn segscan_avoids_atomics_and_beats_atomic_fallback() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 20_000, 17);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let dev = upload(&device, &fcoo);
        let factors = upload_factors(&device, &tensor, 16, 50);
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (_, scan_stats) = dev
            .spmttkrp(&device, &refs, &LaunchConfig::default())
            .unwrap();
        let (_, atomic_stats) = dev
            .spmttkrp(
                &device,
                &refs,
                &LaunchConfig {
                    use_segscan: false,
                    ..Default::default()
                },
            )
            .unwrap();
        // With scan, atomics only occur on partition-boundary segments.
        assert!(scan_stats.atomics < atomic_stats.atomics / 4);
        assert!(
            scan_stats.time_us < atomic_stats.time_us,
            "scan {} vs atomic {}",
            scan_stats.time_us,
            atomic_stats.time_us
        );
    }

    #[test]
    fn rocache_helps_dense_tensors() {
        // Dense-ish tensor: factor rows are reused heavily → high hit rate.
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 20_000, 18);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let dev = upload(&device, &fcoo);
        let u_host = DenseMatrix::random(tensor.shape()[2], 16, 5);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (_, with) = dev.spttm(&device, &u, &LaunchConfig::default()).unwrap();
        assert!(
            with.rocache_hit_rate > 0.5,
            "hit rate {}",
            with.rocache_hit_rate
        );
    }

    #[test]
    fn rocache_cuts_dram_traffic_when_factor_exceeds_l2() {
        // nell1's scaled mode-3 factor is tens of MB — far beyond the 3 MB
        // L2 — so cache hits vs. plain loads show up as DRAM savings.
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 20_000, 18);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let dev = upload(&device, &fcoo);
        let u_host = DenseMatrix::random(tensor.shape()[2], 16, 5);
        assert!(u_host.rows() * u_host.cols() * 4 > device.config().l2_bytes);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (_, with) = dev.spttm(&device, &u, &LaunchConfig::default()).unwrap();
        let (_, without) = dev
            .spttm(
                &device,
                &u,
                &LaunchConfig {
                    use_rocache: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(with.dram_bytes < without.dram_bytes);
    }

    #[test]
    fn brainq_caches_better_than_nell1() {
        // The §V-A density analysis: dense tensors reuse factor rows.
        let device = GpuDevice::titan_x();
        let mut rates = Vec::new();
        for kind in [DatasetKind::Brainq, DatasetKind::Nell1] {
            let (tensor, _) = datasets::generate(kind, 20_000, 19);
            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
            let dev = upload(&device, &fcoo);
            let factors = upload_factors(&device, &tensor, 16, 60);
            let refs: Vec<&DeviceMatrix> = factors.iter().collect();
            let (_, stats) = dev
                .spmttkrp(&device, &refs, &LaunchConfig::default())
                .unwrap();
            rates.push(stats.rocache_hit_rate);
        }
        assert!(
            rates[0] > rates[1] + 0.1,
            "brainq hit rate {} should exceed nell1 {}",
            rates[0],
            rates[1]
        );
    }

    #[test]
    fn unfused_variant_pays_extra_launch() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 5_000, 20);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let dev = upload(&device, &fcoo);
        let u_host = DenseMatrix::random(tensor.shape()[2], 16, 5);
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let (_, fused) = dev.spttm(&device, &u, &LaunchConfig::default()).unwrap();
        let (_, unfused) = dev
            .spttm(
                &device,
                &u,
                &LaunchConfig {
                    use_fusion: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(unfused.time_us > fused.time_us);
    }

    #[test]
    fn unified_kernel_degenerates_to_spmv_on_matrices() {
        // §II: "SpTTM can be seen as a high dimensional generalization of
        // SpMV". A 2-order tensor with a 1-column dense matrix is exactly
        // sparse matrix-vector multiply, and the unified kernel handles it
        // with no special casing.
        let matrix = SparseTensorCoo::from_entries(
            vec![6, 5],
            &[
                (vec![0, 0], 2.0),
                (vec![0, 4], 1.0),
                (vec![2, 1], -3.0),
                (vec![3, 3], 4.0),
                (vec![5, 0], 0.5),
                (vec![5, 4], 2.5),
            ],
        );
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&matrix, TensorOp::SpTtm { mode: 1 }, 2);
        let dev = upload(&device, &fcoo);
        let x_mat = DeviceMatrix::upload(device.memory(), &DenseMatrix::from_vec(5, 1, x.to_vec()))
            .unwrap();
        let (result, _) = dev
            .spttm(&device, &x_mat, &LaunchConfig::default())
            .unwrap();
        // y = A·x by hand: y0 = 2·1 + 1·5 = 7, y2 = -3·2 = -6, y3 = 4·4 = 16,
        // y5 = 0.5·1 + 2.5·5 = 13. Rows 1 and 4 are empty (absent fibers).
        let mut y = vec![0.0f32; 6];
        for fib in 0..result.nfibs() {
            y[result.fiber_coord(fib)[0] as usize] = result.fiber(fib)[0];
        }
        assert_eq!(y, vec![7.0, 0.0, -6.0, 16.0, 0.0, 13.0]);
    }

    #[test]
    fn unified_kernel_computes_spmm_on_matrices() {
        // With R > 1 columns the same degeneration gives SpMM.
        let matrix = SparseTensorCoo::from_entries(
            vec![4, 3],
            &[
                (vec![0, 0], 1.0),
                (vec![1, 1], 2.0),
                (vec![3, 2], 3.0),
                (vec![0, 2], -1.0),
            ],
        );
        let dense = DenseMatrix::random(3, 4, 77);
        let device = GpuDevice::titan_x();
        let fcoo = Fcoo::from_coo(&matrix, TensorOp::SpTtm { mode: 1 }, 4);
        let dev = upload(&device, &fcoo);
        let d = DeviceMatrix::upload(device.memory(), &dense).unwrap();
        let (result, _) = dev.spttm(&device, &d, &LaunchConfig::default()).unwrap();
        let reference = tensor_core::ops::spttm(&matrix, 1, &dense);
        assert_eq!(result.max_abs_diff(&reference), Some(0.0));
    }

    #[test]
    fn single_nonzero_tensor() {
        let tensor = SparseTensorCoo::from_entries(vec![4, 4, 4], &[(vec![1, 2, 3], 2.5)]);
        check_spttm(&tensor, 2, 4, &LaunchConfig::default());
        check_spmttkrp(&tensor, 0, 4, &LaunchConfig::default());
    }

    #[test]
    fn one_giant_segment() {
        // All non-zeros share the same index coordinates: one segment that
        // spans every partition and block.
        let entries: Vec<(Vec<u32>, f32)> = (0..500).map(|k| (vec![1, 1, k], 1.0f32)).collect();
        let tensor = SparseTensorCoo::from_entries(vec![3, 3, 500], &entries);
        check_spttm(
            &tensor,
            2,
            4,
            &LaunchConfig {
                block_size: 32,
                ..Default::default()
            },
        );
        // MTTKRP mode-3: index mode is k → 500 segments; also exercise the
        // transpose case where mode-1 gives one segment.
        check_spmttkrp(
            &tensor,
            0,
            4,
            &LaunchConfig {
                block_size: 32,
                ..Default::default()
            },
        );
    }

    #[test]
    fn oom_on_scaled_device_is_an_error() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 21);
        let device = GpuDevice::new(gpu_sim::DeviceConfig::titan_x_scaled_memory(3e-6));
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        // Upload fits, but the output allocation must fail.
        match AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo) {
            Err(_) => {} // upload itself may already exceed the budget
            Ok(dev) => {
                let mut factors = Vec::new();
                for (m, &size) in tensor.shape().iter().enumerate() {
                    let host = DenseMatrix::random(size, 64, m as u64);
                    match DeviceMatrix::upload(device.memory(), &host) {
                        Ok(f) => factors.push(f),
                        Err(_) => return, // factors alone exceed the budget: also an OOM
                    }
                }
                let refs: Vec<&DeviceMatrix> = factors.iter().collect();
                assert!(dev
                    .spmttkrp(&device, &refs, &LaunchConfig::default())
                    .is_err());
            }
        }
    }
}
