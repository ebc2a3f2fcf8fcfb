use unified_tensors::prelude::*;
fn main() {
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, 60_000, 2017);
    for mode in 0..3 {
        let u_host = DenseMatrix::random(tensor.shape()[mode], 16, 9);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode }, 16);
        let dev = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo)
            .expect("bench setup");
        let u = DeviceMatrix::upload(device.memory(), &u_host).expect("bench setup");
        let (_, s) = dev
            .spttm(&device, &u, &LaunchConfig::default())
            .expect("bench setup");
        println!("mode {mode}: {:.1}us segs={} blocks={} waves={} trans={} bytes={} hit={:.2} atomics={} conflict_cyc={} imb={:.2}",
            s.time_us, fcoo.segments(), s.blocks, s.waves, s.transactions, s.dram_bytes, s.rocache_hit_rate, s.atomics, s.atomic_conflict_cycles, s.imbalance);
    }
}
