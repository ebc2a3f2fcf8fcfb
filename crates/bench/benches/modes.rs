//! Fig. 7 bench: mode behaviour of SpTTM and SpMTTKRP on brainq across the
//! three modes, unified vs baselines.

use bench_support::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unified_tensors::prelude::*;

fn bench(c: &mut Criterion) {
    let nnz = bench_nnz();
    eprintln!(
        "SpTTM on brainq:\n{}\nSpMTTKRP on brainq:\n{}",
        render_modes(&fig7_spttm(nnz)),
        render_modes(&fig7_spmttkrp(nnz))
    );
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, nnz, 2017);
    let hosts = make_factors(&tensor, SPEEDUP_RANK, 11);
    let mut group = c.benchmark_group("fig7_mode_behaviour");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for mode in 0..3 {
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode }, 16);
        let on_device =
            AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("fits");
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).expect("fits"))
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        group.bench_with_input(
            BenchmarkId::new("unified-mttkrp", format!("mode{}", mode + 1)),
            &(),
            |b, _| {
                b.iter(|| {
                    on_device
                        .spmttkrp(&device, &refs, &LaunchConfig::default())
                        .expect("bench setup")
                })
            },
        );
        let csf = Csf::build(&tensor, mode);
        let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
        group.bench_with_input(
            BenchmarkId::new("splatt-mttkrp", format!("mode{}", mode + 1)),
            &(),
            |b, _| b.iter(|| mttkrp_csf(&csf, &host_refs)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
