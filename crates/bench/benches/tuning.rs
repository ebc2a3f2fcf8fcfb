//! Fig. 5 / Table V bench: the `(BLOCK_SIZE, threadlen)` tuning sweep.
//! Prints the full surfaces, then criterion-times kernels at the corner
//! configurations.

use bench_support::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unified_tensors::prelude::*;

fn bench(c: &mut Criterion) {
    let nnz = bench_nnz();
    for report in fig5_surfaces(nnz) {
        eprintln!("{}", render_surface(&report));
    }
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, nnz, 2017);
    let hosts = make_factors(&tensor, SPEEDUP_RANK, 17);
    let mut group = c.benchmark_group("fig5_tuning_corners");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for (block_size, threadlen) in [(32usize, 8usize), (32, 64), (1024, 8), (1024, 64)] {
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
        let on_device =
            AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("fits");
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).expect("fits"))
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let cfg = LaunchConfig {
            block_size,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("mttkrp-brainq", format!("bs{block_size}_tl{threadlen}")),
            &(),
            |b, _| {
                b.iter(|| {
                    on_device
                        .spmttkrp(&device, &refs, &cfg)
                        .expect("bench setup")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
