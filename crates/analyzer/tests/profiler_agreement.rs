//! Golden agreement between the symbolic analyzer and the dynamic profiler:
//! on every configuration where the analyzer returns `proved`, the traced
//! counters must fall inside the proved bound — occupancy exactly 1.0 when
//! effective-warps is proved (and strictly below when refuted), functional
//! atomic lanes within the confinement bound, and per-access transaction
//! counts within one of ideal where coalescing is proved.

use analyzer::model::LaunchGeometry;
use analyzer::{analyze_tensor, KernelKind, Property, Verdict};
use fcoo::{
    spmttkrp_two_step_unified, AnyFormatDevice, DeviceMatrix, Fcoo, FormatKind, LaunchConfig,
    TensorOp,
};
use gpu_sim::{GpuDevice, LaunchTrace, MemoryEventKind};
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{DenseMatrix, SparseTensorCoo};

const BLOCK_SIZES: [usize; 2] = [64, 256];
const THREADLENS: [usize; 2] = [8, 32];
const RANK: usize = 8;
const MODE: usize = 0;

fn factors(tensor: &SparseTensorCoo) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, RANK, 1 + m as u64))
        .collect()
}

/// Runs `kind` traced at one configuration on a fresh device and returns
/// the captured launches.
fn run_traced(
    tensor: &SparseTensorCoo,
    kind: KernelKind,
    block_size: usize,
    threadlen: usize,
) -> Vec<LaunchTrace> {
    let device = GpuDevice::titan_x();
    let cfg = LaunchConfig {
        block_size,
        ..LaunchConfig::default()
    };
    let hosts = factors(tensor);
    if kind == KernelKind::TwoStep {
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        device.start_tracing();
        spmttkrp_two_step_unified(&device, tensor, MODE, &refs, threadlen, &cfg)
            .expect("two-step run");
        return device.stop_tracing().launches;
    }
    let op = kind.op(MODE, tensor.order());
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let on_device =
        AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("upload");
    let uploaded: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("factor upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = op
        .factor_modes(tensor.order())
        .into_iter()
        .map(|m| &uploaded[m])
        .collect();
    device.start_tracing();
    match op {
        TensorOp::SpTtm { .. } => {
            on_device.spttm(&device, refs[0], &cfg).expect("spttm");
        }
        TensorOp::SpMttkrp { .. } => {
            on_device.spmttkrp(&device, &refs, &cfg).expect("spmttkrp");
        }
        TensorOp::SpTtmc { .. } => {
            on_device
                .spttmc_norder(&device, &refs, &cfg)
                .expect("spttmc");
        }
    }
    device.stop_tracing().launches
}

/// The proved atomic bound for one configuration, recomputed exactly as the
/// analyzer's confinement verdict derives it: two frontier updates per
/// partition per output column, plus the step-2 frontier for the two-step
/// baseline.
fn atomic_bound(tensor: &SparseTensorCoo, kind: KernelKind, block: usize, tl: usize) -> u64 {
    let fcoo = Fcoo::from_coo(tensor, kind.op(MODE, tensor.order()), tl);
    let columns = if kind == KernelKind::SpTtmc {
        RANK * RANK
    } else {
        RANK
    };
    let geometry = LaunchGeometry::new(block, tl, fcoo.nnz(), columns, 0);
    let mut bound = geometry.atomic_bound() as u64;
    if kind == KernelKind::TwoStep {
        let partitions2 = fcoo.segments().div_ceil(tl.max(1));
        bound += (2 * partitions2 * RANK) as u64;
    }
    bound
}

#[test]
fn proved_verdicts_agree_with_traced_counters() {
    let mut proved_checked = 0;
    let mut refuted_checked = 0;
    for kind_name in [DatasetKind::Brainq, DatasetKind::Delicious] {
        let (tensor, _) = datasets::generate(kind_name, 1_200, 7);
        for kind in KernelKind::ALL {
            let Some(analysis) = analyze_tensor(
                &GpuDevice::titan_x().config().clone(),
                &tensor,
                kind,
                MODE,
                RANK,
                &BLOCK_SIZES,
                &THREADLENS,
            ) else {
                continue;
            };
            for config in &analysis.configs {
                let verdict_of = |p: Property| {
                    config
                        .properties
                        .iter()
                        .find(|v| v.property == p)
                        .map(|v| v.verdict)
                };
                // A refuted launch shape cannot be launched at all.
                if verdict_of(Property::LaunchShape) == Some(Verdict::Refuted) {
                    continue;
                }
                let launches = run_traced(&tensor, kind, config.block_size, config.threadlen);
                assert!(!launches.is_empty(), "{kind:?} produced no launches");
                let label = format!(
                    "{:?} B{} T{} on {:?}",
                    kind, config.block_size, config.threadlen, kind_name
                );

                // Effective warps: the analyzer models the primary launch
                // (step 1 for the two-step baseline). Proved means every
                // launched warp slot begins; refuted means a statically dead
                // slot exists, which dynamically never calls `begin_warp`.
                let primary = launches[0].counters();
                match verdict_of(Property::EffectiveWarps) {
                    Some(Verdict::Proved) => {
                        proved_checked += 1;
                        assert_eq!(
                            primary.active_warps,
                            primary.launched_warps,
                            "{label}: effective-warps proved but occupancy {} < 1",
                            primary.occupancy()
                        );
                    }
                    Some(Verdict::Refuted) => {
                        refuted_checked += 1;
                        assert!(
                            primary.active_warps < primary.launched_warps,
                            "{label}: effective-warps refuted but every warp ran"
                        );
                    }
                    _ => {}
                }

                // Atomic confinement: proved bounds the *functional* atomic
                // lanes across the whole operation (all launches).
                if verdict_of(Property::AtomicConfinement) == Some(Verdict::Proved) {
                    proved_checked += 1;
                    let mut total = gpu_sim::KernelCounters::default();
                    for launch in &launches {
                        total.merge(&launch.counters());
                    }
                    let bound = atomic_bound(&tensor, kind, config.block_size, config.threadlen);
                    assert!(
                        total.atomics <= bound,
                        "{label}: {} atomic lanes exceed the proved bound {bound}",
                        total.atomics
                    );
                }

                // Coalescing: proved claims every modeled warp-wide global
                // read stays within one transaction of ideal for any base
                // alignment. The analyzer only proves this for the two-step
                // baseline's step-2 gather, whose reads are traced in the
                // second launch.
                if verdict_of(Property::Coalescing) == Some(Verdict::Proved) {
                    proved_checked += 1;
                    let step2 = launches.last().unwrap();
                    for block in &step2.blocks {
                        for event in &block.events {
                            if event.kind == MemoryEventKind::GlobalRead {
                                assert!(
                                    event.transactions <= event.ideal_transactions + 1,
                                    "{label}: proved-coalesced read issued {} vs ideal {}",
                                    event.transactions,
                                    event.ideal_transactions
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    // The sweep must actually exercise both directions of the agreement.
    assert!(
        proved_checked >= 8,
        "only {proved_checked} proved verdicts were checked — grid too small"
    );
    assert!(
        refuted_checked >= 1,
        "no refuted effective-warps verdict was exercised"
    );
}
