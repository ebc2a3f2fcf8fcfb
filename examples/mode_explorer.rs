//! Mode behaviour on the "oddly shaped" brainq tensor (60 × J × 9) — a
//! runnable miniature of the paper's Fig. 7: the unified method's running
//! time stays flat across modes, while the fiber-centric ParTI-GPU baseline
//! and tree-based SPLATT swing with the mode.
//!
//! Run with: `cargo run --release --example mode_explorer`

use unified_tensors::prelude::*;

fn main() {
    let (tensor, info) = datasets::generate(DatasetKind::Brainq, 40_000, 3);
    println!("dataset: {}\n", info.table_row());
    let rank = 16;
    let device = GpuDevice::titan_x();
    let factor_hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 200 + m as u64))
        .collect();
    let host_refs: Vec<&DenseMatrix> = factor_hosts.iter().collect();

    println!("SpMTTKRP (rank {rank}), time per mode:");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "", "mode-1", "mode-2", "mode-3"
    );

    // Unified (simulated GPU).
    let mut unified_times = Vec::new();
    for mode in 0..3 {
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode }, 16);
        let on_device =
            AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("upload");
        let factors: Vec<DeviceMatrix> = factor_hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).expect("upload"))
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (_, stats) = on_device
            .spmttkrp(&device, &refs, &LaunchConfig::default())
            .expect("kernel");
        unified_times.push(stats.time_us);
    }
    print_row("unified", &unified_times);

    // ParTI-GPU (two-step with intermediate + atomics).
    let mut parti_times = Vec::new();
    for mode in 0..3 {
        let (_, stats, _) =
            spmttkrp_two_step_gpu(&device, &tensor, mode, &host_refs).expect("ParTI kernel");
        parti_times.push(stats.time_us);
    }
    print_row("ParTI-GPU", &parti_times);

    // SPLATT (CSF trees on the CPU pool; wall-clock µs).
    let mut splatt_times = Vec::new();
    for mode in 0..3 {
        let csf = Csf::build(&tensor, mode);
        let (_, elapsed) = mttkrp_csf(&csf, &host_refs);
        splatt_times.push(elapsed);
    }
    print_row("SPLATT", &splatt_times);

    println!("\nmode-variation (max/min time across modes; 1.0 = perfectly mode-insensitive):");
    for (name, times) in [
        ("unified", &unified_times),
        ("ParTI-GPU", &parti_times),
        ("SPLATT", &splatt_times),
    ] {
        let max = times.iter().copied().fold(0.0f64, f64::max);
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        println!("  {name:<10} {:.2}", max / min);
    }
}

fn print_row(name: &str, times: &[f64]) {
    println!(
        "{:<12} {:>9.1} µs {:>9.1} µs {:>9.1} µs",
        name, times[0], times[1], times[2]
    );
}
