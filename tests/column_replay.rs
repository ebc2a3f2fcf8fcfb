//! Column-class replay is exact.
//!
//! A unified launch narrates one block column per column class and copies
//! that column's cost to the rest of the class; a launch on a tracing
//! device narrates every column for itself. For every dataset kind, rank,
//! threadlen, block size, format, op and optimization toggle, both launches
//! must agree on every `KernelStats` field (floats compared by bit pattern)
//! and on every output bit. See docs/SIMULATOR.md, "Column-class replay".

use proptest::prelude::*;
use unified_tensors::gpu_sim::DeviceBuffer;
use unified_tensors::prelude::*;

const KINDS: [DatasetKind; 4] = [
    DatasetKind::Brainq,
    DatasetKind::Nell2,
    DatasetKind::Delicious,
    DatasetKind::Nell1,
];
const RANKS: [usize; 9] = [1, 3, 4, 5, 6, 8, 12, 16, 20];
const THREADLENS: [usize; 4] = [1, 3, 8, 16];

/// Every `KernelStats` field, floats by bit pattern.
fn stats_bits(stats: &KernelStats) -> [u64; 9] {
    [
        stats.time_us.to_bits(),
        stats.blocks,
        stats.waves,
        stats.transactions,
        stats.dram_bytes,
        stats.rocache_hit_rate.to_bits(),
        stats.atomics,
        stats.atomic_conflict_cycles,
        stats.imbalance.to_bits(),
    ]
}

/// Runs `op` once on a fresh device, traced or not, and returns the output
/// bits and the kernel statistics.
fn launch(
    tensor: &SparseTensorCoo,
    op: TensorOp,
    kind: FormatKind,
    threadlen: usize,
    ranks: (usize, usize),
    cfg: &LaunchConfig,
    traced: bool,
) -> (Vec<u32>, [u64; 9]) {
    let device = GpuDevice::titan_x();
    if traced {
        device.start_tracing();
    }
    let format = AnyFormat::build(kind, tensor, op, threadlen)
        .upload(device.memory())
        .expect("upload");
    let base = format.base();
    let upload = |mode: usize, rank: usize| {
        let host = DenseMatrix::random(tensor.shape()[mode], rank, 17 + mode as u64);
        DeviceMatrix::upload(device.memory(), &host).expect("factor upload")
    };
    let product_modes = base.classification.product_modes.clone();
    let zeroed =
        |len: usize| -> DeviceBuffer<f32> { device.memory().alloc_zeroed(len).expect("output") };
    let (out, stats) = match op {
        TensorOp::SpTtm { mode } => {
            let u = upload(mode, ranks.0);
            let out = zeroed(base.segments() * ranks.0);
            let stats = format.launch_into(&device, &[&u], cfg, &out);
            (out, stats)
        }
        TensorOp::SpMttkrp { mode } => {
            let factors: Vec<DeviceMatrix> =
                (0..tensor.order()).map(|m| upload(m, ranks.0)).collect();
            let refs: Vec<&DeviceMatrix> = factors.iter().collect();
            let out = zeroed(tensor.shape()[mode] * ranks.0);
            let stats = format.launch_into(&device, &refs, cfg, &out);
            (out, stats)
        }
        TensorOp::SpTtmc { mode } => {
            let factors = [
                upload(product_modes[0], ranks.0),
                upload(product_modes[1], ranks.1),
            ];
            let refs: Vec<&DeviceMatrix> = factors.iter().collect();
            let out = zeroed(tensor.shape()[mode] * ranks.0 * ranks.1);
            let stats = format.launch_into(&device, &refs, cfg, &out);
            (out, stats)
        }
    };
    if traced {
        let trace = device.stop_tracing();
        assert_eq!(trace.launches.len(), 1, "one traced launch");
    }
    let bits = out.to_vec().iter().map(|v| v.to_bits()).collect();
    (bits, stats_bits(&stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_replayed_launch_matches_fully_narrated_launch(
        kind_pick in 0usize..4,
        seed in 0u64..1_000,
        nnz in 200usize..1_500,
        mode in 0usize..3,
        op_pick in 0usize..3,
        rank_a in 0usize..RANKS.len(),
        rank_b in 0usize..4,
        threadlen_pick in 0usize..THREADLENS.len(),
        block_pow in 0u32..3,
        bucketed in proptest::bool::ANY,
        use_segscan in proptest::bool::ANY,
        use_rocache in proptest::bool::ANY,
        use_fusion in proptest::bool::ANY,
    ) {
        let (tensor, _) = datasets::generate(KINDS[kind_pick], nnz, seed);
        let op = match op_pick {
            0 => TensorOp::SpTtm { mode },
            1 => TensorOp::SpMttkrp { mode },
            _ => TensorOp::SpTtmc { mode },
        };
        let format = if bucketed { FormatKind::BfCoo } else { FormatKind::Fcoo };
        let cfg = LaunchConfig {
            block_size: 32 << block_pow,
            use_rocache,
            use_segscan,
            use_fusion,
        };
        // SpTTMc's second factor keeps the Kronecker width moderate.
        let ranks = (RANKS[rank_a], [1, 2, 3, 4][rank_b]);
        let threadlen = THREADLENS[threadlen_pick];
        let replayed = launch(&tensor, op, format, threadlen, ranks, &cfg, false);
        let narrated = launch(&tensor, op, format, threadlen, ranks, &cfg, true);
        prop_assert_eq!(replayed.1, narrated.1, "kernel statistics differ");
        prop_assert!(replayed.0 == narrated.0, "output bits differ");
    }
}
