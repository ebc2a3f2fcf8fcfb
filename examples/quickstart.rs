//! Quickstart: build a sparse tensor, preprocess it into F-COO, and run the
//! two headline kernels (SpTTM and SpMTTKRP) on the simulated Titan X,
//! checking both against the sequential references.
//!
//! Run with: `cargo run --release --example quickstart`

use unified_tensors::prelude::*;

fn main() {
    // A small NELL-like noun × verb × noun tensor.
    let (tensor, info) = datasets::generate(DatasetKind::Nell2, 20_000, 42);
    println!("dataset: {}", info.table_row());

    let device = GpuDevice::titan_x();
    println!("device:  {}\n", device.config().name);
    let rank = 16;

    // --- SpTTM on mode 3 (paper Eq. 3) -----------------------------------
    let u_host = DenseMatrix::random(tensor.shape()[2], rank, 7);
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
    println!(
        "F-COO for SpTTM: {} nnz → {} segments, {:.1} KiB ({} B/nnz core model)",
        fcoo.nnz(),
        fcoo.segments(),
        fcoo.storage().total_bytes() as f64 / 1024.0,
        fcoo.storage().paper_model_bytes() / fcoo.nnz(),
    );
    let on_device =
        AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("upload");
    let u = DeviceMatrix::upload(device.memory(), &u_host).expect("upload");
    let (result, stats) = on_device
        .spttm(&device, &u, &LaunchConfig::default())
        .expect("SpTTM");
    let reference = unified_tensors::tensor_core::ops::spttm(&tensor, 2, &u_host);
    let diff = result
        .max_abs_diff(&reference)
        .expect("fiber sets must match");
    println!(
        "SpTTM(mode-3):    {:>9.1} µs simulated | {} fibers × {rank} | max |Δ| vs reference {diff:.2e}",
        stats.time_us,
        result.nfibs(),
    );

    // --- SpMTTKRP on mode 1 (paper Eq. 6), one-shot -----------------------
    let factor_hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 100 + m as u64))
        .collect();
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
    let on_device =
        AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("upload");
    let factors: Vec<DeviceMatrix> = factor_hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let (m, stats) = on_device
        .spmttkrp(&device, &refs, &LaunchConfig::default())
        .expect("SpMTTKRP");
    let host_refs: Vec<&DenseMatrix> = factor_hosts.iter().collect();
    let reference = unified_tensors::tensor_core::ops::spmttkrp(&tensor, 0, &host_refs);
    println!(
        "SpMTTKRP(mode-1): {:>9.1} µs simulated | output {}×{} | max |Δ| vs reference {:.2e}",
        stats.time_us,
        m.rows(),
        m.cols(),
        m.max_abs_diff(&reference),
    );
    println!(
        "                  read-only cache hit rate {:.1}%, {} atomics (scan removed the rest)",
        100.0 * stats.rocache_hit_rate,
        stats.atomics,
    );
    println!(
        "\nGPU memory in use: {:.1} MiB",
        device.memory().live_bytes() as f64 / (1 << 20) as f64
    );
}
