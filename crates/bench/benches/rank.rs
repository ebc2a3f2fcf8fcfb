//! Fig. 8 bench: SpTTM rank scaling (8–64) on brainq and nell2, unified vs
//! ParTI-GPU. Also covers DESIGN.md ablation 4 (1-D blocks vs rank-shaped
//! 2-D blocks): the two implementations differ exactly in that choice.

use bench_support::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unified_tensors::prelude::*;

fn bench(c: &mut Criterion) {
    let nnz = bench_nnz();
    eprintln!("{}", render_ranks(&fig8(nnz)));
    let device = GpuDevice::titan_x();
    let mut group = c.benchmark_group("fig8_rank_behaviour");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for kind in [DatasetKind::Brainq, DatasetKind::Nell2] {
        let (tensor, info) = datasets::generate(kind, nnz, 2017);
        for rank in [8usize, 64] {
            let u_host = DenseMatrix::random(tensor.shape()[2], rank, 13);
            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 16);
            let on_device =
                AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("fits");
            let u = DeviceMatrix::upload(device.memory(), &u_host).expect("fits");
            group.bench_with_input(
                BenchmarkId::new(format!("unified-{}", info.name), rank),
                &(),
                |b, _| {
                    b.iter(|| {
                        on_device
                            .spttm(&device, &u, &LaunchConfig::default())
                            .expect("bench setup")
                    })
                },
            );
            let prepared = SortedCoo::for_spttm(&tensor, 2);
            group.bench_with_input(
                BenchmarkId::new(format!("parti-gpu-{}", info.name), rank),
                &(),
                |b, _| {
                    b.iter(|| spttm_fiber_gpu(&device, &prepared, &u_host).expect("bench setup"))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
