//! Fig. 6b bench: SpMTTKRP mode-1 (rank 16) — unified vs ParTI-GPU vs
//! SPLATT vs ParTI-OMP on each dataset.

use bench_support::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unified_tensors::prelude::*;

fn bench(c: &mut Criterion) {
    let nnz = bench_nnz();
    eprintln!("{}", render_speedups(&fig6b(nnz), true));
    let device = GpuDevice::titan_x();
    let mut group = c.benchmark_group("fig6b_spmttkrp_mode1");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for (tensor, info) in bench_datasets(nnz) {
        let hosts = make_factors(&tensor, SPEEDUP_RANK, 7);
        let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
        let on_device =
            AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("fits");
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).expect("fits"))
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        group.bench_with_input(BenchmarkId::new("unified", &info.name), &(), |b, _| {
            b.iter(|| {
                on_device
                    .spmttkrp(&device, &refs, &LaunchConfig::default())
                    .expect("bench setup")
            })
        });
        group.bench_with_input(BenchmarkId::new("parti-gpu", &info.name), &(), |b, _| {
            b.iter(|| spmttkrp_two_step_gpu(&device, &tensor, 0, &host_refs).expect("bench setup"))
        });
        let csf = Csf::build(&tensor, 0);
        group.bench_with_input(BenchmarkId::new("splatt", &info.name), &(), |b, _| {
            b.iter(|| mttkrp_csf(&csf, &host_refs))
        });
        let prepared = SortedCoo::for_spmttkrp(&tensor, 0);
        group.bench_with_input(BenchmarkId::new("parti-omp", &info.name), &(), |b, _| {
            b.iter(|| spmttkrp_omp(&prepared, &host_refs))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
