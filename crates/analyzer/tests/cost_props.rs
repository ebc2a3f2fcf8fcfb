//! Property tests for the symbolic cost certifier (`analyzer::cost`).
//!
//! Two claims must hold for *arbitrary* tensors and configurations, not
//! just the golden datasets:
//!
//! * **soundness** — the `[lo, hi]` envelope certified from the F-COO
//!   headers alone contains every raw counter a real traced launch
//!   produces, including the simulated duration;
//! * **winner preservation** — certified dominance pruning never rules
//!   out the configuration an exhaustive launched sweep would pick: the
//!   true winner is neither structurally pruned nor envelope-eliminated,
//!   and its measured time lies inside its certificate.
//!
//! A deterministic case pins the headline acceptance number: on the
//! nell2 stand-in the MTTKRP winner is certified with at least half of
//! the full tuning grid ruled out with zero trial launches.

use analyzer::cost;
use fcoo::{AnyFormatDevice, DeviceMatrix, Fcoo, FormatKind, LaunchConfig, TensorOp};
use gpu_sim::GpuDevice;
use proptest::prelude::*;
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{DenseMatrix, SparseTensorCoo};

const RANK: usize = 8;

fn kind_from(selector: u8) -> DatasetKind {
    match selector % 3 {
        0 => DatasetKind::Nell2,
        1 => DatasetKind::Brainq,
        _ => DatasetKind::Uniform,
    }
}

fn op_from(selector: u8, mode: usize) -> TensorOp {
    if selector.is_multiple_of(2) {
        TensorOp::SpTtm { mode }
    } else {
        TensorOp::SpMttkrp { mode }
    }
}

fn factors(tensor: &SparseTensorCoo, seed: u64) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, RANK, seed + m as u64))
        .collect()
}

/// Runs one traced launch of `op` at `(block_size, threadlen)` on a fresh
/// device and returns the certified envelope next to the drained counters.
fn certify_and_trace(
    tensor: &SparseTensorCoo,
    op: TensorOp,
    threadlen: usize,
    block_size: usize,
    factor_seed: u64,
) -> (cost::CounterEnvelope, Vec<String>) {
    let device = GpuDevice::titan_x();
    let config = device.config();
    let cfg = LaunchConfig::with_block_size(block_size);
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let envelope = cost::certify(config, &fcoo, RANK, &cfg);
    let on_device = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo)
        .expect("format upload");
    let hosts = factors(tensor, factor_seed);
    let uploaded: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("factor upload"))
        .collect();
    device.start_tracing();
    match op {
        TensorOp::SpTtm { mode } => {
            on_device
                .spttm(&device, &uploaded[mode], &cfg)
                .expect("traced spttm");
        }
        _ => {
            let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
            on_device
                .spmttkrp(&device, &refs, &cfg)
                .expect("traced spmttkrp");
        }
    }
    let counters = device.stop_tracing().counters();
    let violations = envelope.violations(&counters);
    (envelope, violations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: for any power-law tensor, kernel, mode and grid point,
    /// every counter of a real traced launch lies within the envelope
    /// certified from the headers alone.
    #[test]
    fn traced_counters_lie_within_their_certified_envelope(
        nnz in 150usize..900,
        dataset_seed in 0u64..1000,
        kind_selector in 0u8..3,
        op_selector in 0u8..2,
        mode in 0usize..3,
        threadlen_index in 0usize..3,
        block_index in 0usize..3,
        factor_seed in 0u64..1000,
    ) {
        let (tensor, _) = datasets::generate(kind_from(kind_selector), nnz, dataset_seed);
        prop_assume!(mode < tensor.order());
        let op = op_from(op_selector, mode);
        let threadlen = [8usize, 16, 32][threadlen_index];
        let block_size = [64usize, 128, 256][block_index];
        let (envelope, violations) =
            certify_and_trace(&tensor, op, threadlen, block_size, factor_seed);
        prop_assert!(
            violations.is_empty(),
            "{:?} B{block_size} T{threadlen}: {violations:?}",
            op
        );
        prop_assert!(envelope.launches >= 1);
    }

    /// Winner preservation: the configuration an exhaustive launched sweep
    /// picks is never pruned or envelope-eliminated by the certified
    /// tuner, and its measured time sits inside its certificate.
    #[test]
    fn certified_pruning_never_rules_out_the_exhaustive_winner(
        nnz in 150usize..700,
        dataset_seed in 0u64..1000,
        op_selector in 0u8..2,
        mode in 0usize..3,
    ) {
        const BLOCKS: [usize; 3] = [64, 128, 256];
        const THREADS: [usize; 3] = [8, 16, 32];
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, dataset_seed);
        prop_assume!(mode < tensor.order());
        let op = op_from(op_selector, mode);
        let exhaustive = fcoo::tune(
            &GpuDevice::titan_x(),
            &tensor,
            op,
            RANK,
            Some(&BLOCKS),
            Some(&THREADS),
        );
        let certified = analyzer::tune_certified(
            &GpuDevice::titan_x(),
            &tensor,
            op,
            RANK,
            Some(&BLOCKS),
            Some(&THREADS),
        );
        let best = exhaustive.best_pair();
        prop_assert!(
            !certified.pruned.contains(&best),
            "structural filter pruned the exhaustive winner {best:?}"
        );
        prop_assert!(
            !certified.eliminated.contains(&best),
            "envelope dominance eliminated the exhaustive winner {best:?}"
        );
        let envelope = certified
            .envelopes
            .iter()
            .find(|p| (p.block_size, p.threadlen) == best)
            .expect("the surviving winner carries a certificate");
        prop_assert!(
            envelope.time_us.contains(exhaustive.best.time_us),
            "winner time {} outside certified [{}, {}]",
            exhaustive.best.time_us,
            envelope.time_us.lo,
            envelope.time_us.hi
        );
        // The trial-launch accounting always partitions the grid.
        prop_assert_eq!(
            certified.launches + certified.launches_avoided(),
            certified.grid_points
        );
    }
}

/// Headline acceptance case: on the nell2 stand-in at golden-suite scale
/// the MTTKRP winner is certified while at least half of the paper's full
/// 6×6 tuning grid is ruled out with zero trial launches — and skipping
/// those launches does not change the winner.
#[test]
fn nell2_mttkrp_certifies_the_winner_with_majority_grid_elimination() {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1_500, 2017);
    let op = TensorOp::SpMttkrp { mode: 0 };
    let certified = analyzer::tune_certified(&GpuDevice::titan_x(), &tensor, op, RANK, None, None);
    assert!(
        certified.launches_avoided() * 2 >= certified.grid_points,
        "only {} of {} grid points were ruled out without a launch",
        certified.launches_avoided(),
        certified.grid_points
    );
    let exhaustive = fcoo::tune(&GpuDevice::titan_x(), &tensor, op, RANK, None, None);
    assert_eq!(
        certified.best_pair(),
        exhaustive.best_pair(),
        "certified winner disagrees with the exhaustive sweep"
    );
}
