//! Format-level integration and property-based tests: F-COO storage model
//! (Table II), `.tns` round-trips, and randomized equivalence of the unified
//! kernels against the sequential references.

use proptest::prelude::*;
use unified_tensors::prelude::*;

#[test]
fn table2_storage_relationships_hold() {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 10_000, 400);
    let nnz = tensor.nnz();
    let coo = unified_tensors::fcoo::table2_coo_bytes(3, nnz);
    assert_eq!(coo, tensor.storage_bytes());
    for threadlen in [8usize, 64] {
        let spttm = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, threadlen);
        let mttkrp = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
        // Core model matches the closed forms.
        let spttm_model = spttm.storage().paper_model_bytes() as f64;
        let mttkrp_model = mttkrp.storage().paper_model_bytes() as f64;
        assert!(
            (spttm_model - unified_tensors::fcoo::table2_fcoo_bytes(1, nnz, threadlen)).abs()
                < 16.0
        );
        assert!(
            (mttkrp_model - unified_tensors::fcoo::table2_fcoo_bytes(2, nnz, threadlen)).abs()
                < 16.0
        );
        // F-COO beats COO even with the auxiliary arrays counted.
        assert!(spttm.storage().total_bytes() < coo);
        assert!(mttkrp.storage().total_bytes() < coo);
        // SpTTM keeps one product index, SpMTTKRP two.
        assert!(spttm_model < mttkrp_model);
    }
}

#[test]
fn tns_round_trip_preserves_kernels() {
    let (tensor, _) = datasets::generate(DatasetKind::Delicious, 2_000, 401);
    let mut buffer = Vec::new();
    unified_tensors::tensor_core::io::write_tns(&tensor, &mut buffer).unwrap();
    let reloaded =
        unified_tensors::tensor_core::io::read_tns(std::io::Cursor::new(buffer)).unwrap();
    // Shapes may shrink to the max observed index; kernels must still agree
    // on the shared coordinates.
    assert_eq!(reloaded.nnz(), tensor.nnz());
    let u = DenseMatrix::random(reloaded.shape()[2], 4, 3);
    let a = unified_tensors::tensor_core::ops::spttm(&reloaded, 2, &u);
    assert!(a.nfibs() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small tensors: the unified SpTTM equals the reference for any
    /// mode, threadlen and block size.
    #[test]
    fn prop_unified_spttm_matches_reference(
        entries in proptest::collection::vec(
            ((0u32..12, 0u32..9, 0u32..14), 0.1f32..2.0),
            1..120,
        ),
        mode in 0usize..3,
        threadlen in 1usize..20,
        block_pow in 0u32..4,
    ) {
        let mut tensor = SparseTensorCoo::new(vec![12, 9, 14]);
        for ((i, j, k), value) in entries {
            tensor.push(&[i, j, k], value);
        }
        tensor.coalesce();
        let block_size = 32usize << block_pow;
        let device = GpuDevice::titan_x();
        let u_host = DenseMatrix::random(tensor.shape()[mode], 5, 77);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode }, threadlen);
        let on_device = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).unwrap();
        let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
        let cfg = LaunchConfig { block_size, ..Default::default() };
        let (result, _) = on_device.spttm(&device, &u, &cfg).unwrap();
        let reference = unified_tensors::tensor_core::ops::spttm(&tensor, mode, &u_host);
        let diff = result.max_abs_diff(&reference).expect("fiber sets must match");
        prop_assert!(diff < 1e-3, "diff {diff}");
    }

    /// Random small tensors: the unified SpMTTKRP equals the reference and
    /// equals the explicit Khatri-Rao unfolding (two independent oracles).
    #[test]
    fn prop_unified_mttkrp_matches_both_oracles(
        entries in proptest::collection::vec(
            ((0u32..10, 0u32..11, 0u32..8), 0.1f32..2.0),
            1..100,
        ),
        mode in 0usize..3,
        threadlen in 1usize..12,
    ) {
        let mut tensor = SparseTensorCoo::new(vec![10, 11, 8]);
        for ((i, j, k), value) in entries {
            tensor.push(&[i, j, k], value);
        }
        tensor.coalesce();
        let device = GpuDevice::titan_x();
        let hosts: Vec<DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, 4, 50 + m as u64))
            .collect();
        let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode }, threadlen);
        let on_device = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo).unwrap();
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (result, _) = on_device.spmttkrp(&device, &refs, &LaunchConfig::default(),
        ).unwrap();
        let reference = unified_tensors::tensor_core::ops::spmttkrp(&tensor, mode, &host_refs);
        prop_assert!(result.max_abs_diff(&reference) < 1e-3);
        let unfolded = unified_tensors::tensor_core::ops::spmttkrp_via_unfolding(
            &tensor, mode, &host_refs,
        );
        prop_assert!(result.max_abs_diff(&unfolded) < 1e-2);
    }

    /// CSF round-trips every non-zero regardless of root mode.
    #[test]
    fn prop_csf_preserves_all_nonzeros(
        entries in proptest::collection::vec(
            ((0u32..7, 0u32..9, 0u32..6), 0.1f32..2.0),
            1..80,
        ),
        root in 0usize..3,
    ) {
        let mut tensor = SparseTensorCoo::new(vec![7, 9, 6]);
        for ((i, j, k), value) in entries {
            tensor.push(&[i, j, k], value);
        }
        tensor.coalesce();
        let csf = Csf::build(&tensor, root);
        prop_assert_eq!(csf.nnz(), tensor.nnz());
        let total_csf: f64 = csf.values.iter().map(|&v| v as f64).sum();
        let total_coo: f64 = tensor.values().iter().map(|&v| v as f64).sum();
        prop_assert!((total_csf - total_coo).abs() < 1e-3);
    }

    /// F-COO segment structure is self-consistent for any tensor and op.
    #[test]
    fn prop_fcoo_flags_consistent(
        entries in proptest::collection::vec(
            ((0u32..6, 0u32..6, 0u32..6), 0.1f32..2.0),
            1..64,
        ),
        mode in 0usize..3,
        spttm in proptest::bool::ANY,
        threadlen in 1usize..10,
    ) {
        let mut tensor = SparseTensorCoo::new(vec![6, 6, 6]);
        for ((i, j, k), value) in entries {
            tensor.push(&[i, j, k], value);
        }
        tensor.coalesce();
        let op = if spttm { TensorOp::SpTtm { mode } } else { TensorOp::SpMttkrp { mode } };
        let fcoo = Fcoo::from_coo(&tensor, op, threadlen);
        prop_assert_eq!(fcoo.nnz(), tensor.nnz());
        prop_assert!(fcoo.bf.get(0), "first non-zero always starts a segment");
        prop_assert_eq!(fcoo.bf.count_ones(), fcoo.segments());
        prop_assert_eq!(fcoo.partitions(), fcoo.nnz().div_ceil(threadlen));
        // sf bit must equal the head bit of the partition's first non-zero.
        for p in 0..fcoo.partitions() {
            prop_assert_eq!(fcoo.sf.get(p), fcoo.bf.get(p * threadlen));
        }
    }
}
