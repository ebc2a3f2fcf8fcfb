//! Fig. 6a bench: SpTTM mode-3 (rank 16) — unified vs ParTI-GPU vs
//! ParTI-OMP on each dataset. Prints the simulated/wall-clock comparison
//! once, then criterion-times the host-side execution of each kernel.

use bench_support::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unified_tensors::prelude::*;

fn bench(c: &mut Criterion) {
    let nnz = bench_nnz();
    eprintln!("{}", render_speedups(&fig6a(nnz), false));
    let device = GpuDevice::titan_x();
    let mut group = c.benchmark_group("fig6a_spttm_mode3");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for (tensor, info) in bench_datasets(nnz) {
        let u_host = DenseMatrix::random(tensor.shape()[2], SPEEDUP_RANK, 5);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 16);
        let on_device =
            AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("fits");
        let u = DeviceMatrix::upload(device.memory(), &u_host).expect("fits");
        group.bench_with_input(BenchmarkId::new("unified", &info.name), &(), |b, _| {
            b.iter(|| {
                on_device
                    .spttm(&device, &u, &LaunchConfig::default())
                    .expect("bench setup")
            })
        });
        let prepared = SortedCoo::for_spttm(&tensor, 2);
        group.bench_with_input(BenchmarkId::new("parti-gpu", &info.name), &(), |b, _| {
            b.iter(|| spttm_fiber_gpu(&device, &prepared, &u_host).expect("bench setup"))
        });
        group.bench_with_input(BenchmarkId::new("parti-omp", &info.name), &(), |b, _| {
            b.iter(|| spttm_omp(&prepared, &u_host))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
