//! DESIGN.md ablation benches: segmented scan vs atomics, read-only cache
//! on/off, kernel fusion on/off — the unified method's three optimization
//! pillars, measured in isolation.

use bench_support::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unified_tensors::prelude::*;

fn bench(c: &mut Criterion) {
    let nnz = bench_nnz();
    eprintln!("{}", render_ablations(&ablations(nnz)));
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, nnz, 2017);
    let hosts = make_factors(&tensor, SPEEDUP_RANK, 21);
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
    let on_device =
        AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).expect("fits");
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("fits"))
        .collect();
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let mut group = c.benchmark_group("ablation_unified_mttkrp");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    let variants = [
        ("all-on", LaunchConfig::default()),
        (
            "no-segscan",
            LaunchConfig {
                use_segscan: false,
                ..Default::default()
            },
        ),
        (
            "no-rocache",
            LaunchConfig {
                use_rocache: false,
                ..Default::default()
            },
        ),
        (
            "no-fusion",
            LaunchConfig {
                use_fusion: false,
                ..Default::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        group.bench_with_input(BenchmarkId::new("brainq", name), &(), |b, _| {
            b.iter(|| {
                on_device
                    .spmttkrp(&device, &refs, &cfg)
                    .expect("bench setup")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
