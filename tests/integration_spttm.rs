//! Cross-crate SpTTM integration: the unified F-COO kernel, the ParTI-GPU
//! fiber-centric kernel, the ParTI-OMP CPU kernel and the sequential
//! reference must all agree on every dataset and mode.

use unified_tensors::prelude::*;

fn unified_spttm(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    mode: usize,
    u_host: &DenseMatrix,
    threadlen: usize,
    block_size: usize,
) -> (SemiSparseTensor, KernelStats) {
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpTtm { mode }, threadlen);
    let on_device =
        AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("upload");
    let u = DeviceMatrix::upload(device.memory(), u_host).expect("upload");
    let cfg = LaunchConfig {
        block_size,
        ..Default::default()
    };
    on_device.spttm(device, &u, &cfg).expect("kernel")
}

#[test]
fn all_implementations_agree_across_datasets_and_modes() {
    let device = GpuDevice::titan_x();
    for kind in [DatasetKind::Brainq, DatasetKind::Nell2, DatasetKind::Nell1] {
        let (tensor, _) = datasets::generate(kind, 5_000, 100);
        for mode in 0..3 {
            let u_host = DenseMatrix::random(tensor.shape()[mode], 16, mode as u64);
            let reference = unified_tensors::tensor_core::ops::spttm(&tensor, mode, &u_host);

            let (unified, _) = unified_spttm(&device, &tensor, mode, &u_host, 8, 128);
            let diff = unified.max_abs_diff(&reference).expect("fiber sets");
            assert!(diff < 1e-3, "{kind:?} mode {mode} unified diff {diff}");

            let prepared = SortedCoo::for_spttm(&tensor, mode);
            let (parti_gpu, _) = spttm_fiber_gpu(&device, &prepared, &u_host).expect("kernel");
            let diff = parti_gpu.max_abs_diff(&reference).expect("fiber sets");
            assert!(diff < 1e-3, "{kind:?} mode {mode} parti-gpu diff {diff}");

            let (parti_omp, _) = spttm_omp(&prepared, &u_host);
            let diff = parti_omp.max_abs_diff(&reference).expect("fiber sets");
            assert!(diff < 1e-3, "{kind:?} mode {mode} parti-omp diff {diff}");
        }
    }
}

#[test]
fn unified_spttm_is_mode_insensitive_while_parti_is_not() {
    // The Fig. 7 phenomenon on the oddly-shaped brainq tensor.
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, 30_000, 101);
    let mut unified_times = Vec::new();
    let mut parti_times = Vec::new();
    for mode in 0..3 {
        let u_host = DenseMatrix::random(tensor.shape()[mode], 16, 9);
        let (_, stats) = unified_spttm(&device, &tensor, mode, &u_host, 16, 128);
        unified_times.push(stats.time_us);
        let prepared = SortedCoo::for_spttm(&tensor, mode);
        let (_, stats) = spttm_fiber_gpu(&device, &prepared, &u_host).expect("kernel");
        parti_times.push(stats.time_us);
    }
    let spread = |times: &[f64]| {
        times.iter().copied().fold(0.0f64, f64::max)
            / times.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let unified_spread = spread(&unified_times);
    let parti_spread = spread(&parti_times);
    assert!(
        unified_spread < parti_spread,
        "unified spread {unified_spread:.2} should be below ParTI {parti_spread:.2} \
         (unified {unified_times:?}, parti {parti_times:?})"
    );
    assert!(
        unified_spread < 3.0,
        "unified should be nearly flat: {unified_times:?}"
    );
}

#[test]
fn unified_beats_parti_gpu_on_spttm() {
    // Fig. 6a headline: unified faster than ParTI-GPU (1.1×–3.7×).
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, 40_000, 102);
    let u_host = DenseMatrix::random(tensor.shape()[2], 16, 4);
    let (_, unified) = unified_spttm(&device, &tensor, 2, &u_host, 32, 1024);
    let prepared = SortedCoo::for_spttm(&tensor, 2);
    let (_, parti) = spttm_fiber_gpu(&device, &prepared, &u_host).expect("kernel");
    assert!(
        unified.time_us < parti.time_us,
        "unified {:.1}µs should beat ParTI-GPU {:.1}µs",
        unified.time_us,
        parti.time_us
    );
}

#[test]
fn block_size_and_threadlen_do_not_change_results() {
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Delicious, 4_000, 103);
    let u_host = DenseMatrix::random(tensor.shape()[1], 8, 5);
    let reference = unified_tensors::tensor_core::ops::spttm(&tensor, 1, &u_host);
    for (threadlen, block_size) in [(1, 32), (8, 128), (64, 1024), (16, 256)] {
        let (result, _) = unified_spttm(&device, &tensor, 1, &u_host, threadlen, block_size);
        let diff = result.max_abs_diff(&reference).expect("fiber sets");
        assert!(diff < 1e-3, "({threadlen},{block_size}) diff {diff}");
    }
}
