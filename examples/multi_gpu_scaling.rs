//! Multi-GPU strong scaling of SpMTTKRP (paper §IV-D: "For very large
//! tensors, multiple-GPUs can be used") plus the preprocessing cache:
//! F-COO is built once, serialized, reloaded, and its partition-aligned
//! chunk plan is placed across 1–4 simulated Titan X cards.
//!
//! Run with: `cargo run --release --example multi_gpu_scaling`

use unified_tensors::fcoo::{read_fcoo, write_fcoo};
use unified_tensors::ooc::spmttkrp_multi_gpu;
use unified_tensors::prelude::*;

fn main() {
    let (tensor, info) = datasets::generate(DatasetKind::Nell2, 150_000, 21);
    println!("dataset: {}", info.table_row());
    let rank = 16;
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 300 + m as u64))
        .collect();
    let refs: Vec<&DenseMatrix> = hosts.iter().collect();

    // Preprocess once, persist, reload — the cache a production pipeline
    // would keep next to the tensor file.
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
    let mut cache = Vec::new();
    write_fcoo(&fcoo, &mut cache).expect("serialize");
    let reloaded = read_fcoo(cache.as_slice()).expect("deserialize");
    println!(
        "preprocessed F-COO: {} segments, {:.1} KiB serialized (COO would be {:.1} KiB)\n",
        reloaded.segments(),
        cache.len() as f64 / 1024.0,
        tensor.storage_bytes() as f64 / 1024.0,
    );

    // Reference result for validation.
    let reference = unified_tensors::tensor_core::ops::spmttkrp(&tensor, 0, &refs);

    println!("SpMTTKRP(mode-1) rank {rank}, strong scaling:");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>8}",
        "GPUs", "slowest", "reduce", "elapsed", "speedup"
    );
    let mut single = 0.0f64;
    for device_count in [1usize, 2, 4] {
        let devices: Vec<GpuDevice> = (0..device_count).map(|_| GpuDevice::titan_x()).collect();
        let (result, stats) =
            spmttkrp_multi_gpu(&devices, &tensor, 0, &hosts, 16, &LaunchConfig::default())
                .expect("fits on each card");
        let diff = result.max_abs_diff(&reference);
        assert!(diff < 1e-2, "multi-GPU result diverged: {diff}");
        let slowest = stats.per_device_us.iter().copied().fold(0.0f64, f64::max);
        if device_count == 1 {
            single = stats.elapsed_us;
        }
        println!(
            "{:>6} {:>10.1}µs {:>10.1}µs {:>8.1}µs {:>7.2}x",
            device_count,
            slowest,
            stats.reduce_us,
            stats.elapsed_us,
            single / stats.elapsed_us,
        );
    }
    println!("\n(the partial-output reduction over the interconnect bounds the scaling,");
    println!(" which is why the paper reserves multi-GPU for tensors that do not fit one card)");
}
