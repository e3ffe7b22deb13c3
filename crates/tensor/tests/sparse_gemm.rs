//! Property tests for the sparse fast path: across random shapes,
//! row-sparsity levels in {0, 25, 50, 75, 95} %, caller-given activity
//! lists, thread counts, and dispatch modes, the compacted path must be
//! **bit-identical** to the dense packed path (skipping exact zeros is
//! exact) and agree with the unfused scalar reference within rounding.

use mime_tensor::{matmul_scalar_ref, matmul_sparse_dispatch_into, SparseDispatch, Tensor};
use proptest::prelude::*;

/// Which activity list the caller hands the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RowList {
    /// No list: the dispatcher probes `B`.
    Probe,
    /// Exactly the rows of `B` holding a nonzero.
    Exact,
    /// The exact rows plus one all-zero row (a legal superset; equals
    /// `Exact` when no row is all zero).
    Superset,
}

/// The activity list `which` names for `b`, as strictly ascending rows.
fn row_list(b: &Tensor, which: RowList) -> Option<Vec<usize>> {
    let (k, n) = (b.dims()[0], b.dims()[1]);
    let nonzero = |p: usize| b.as_slice()[p * n..(p + 1) * n].iter().any(|&v| v != 0.0);
    let mut rows: Vec<usize> = (0..k).filter(|&p| nonzero(p)).collect();
    match which {
        RowList::Probe => return None,
        RowList::Exact => {}
        RowList::Superset => {
            if let Some(zero) = (0..k).find(|&p| !nonzero(p)) {
                rows.push(zero);
                rows.sort_unstable();
            }
        }
    }
    Some(rows)
}

/// Zeroes whole `k`-rows of `b` (the row-structured sparsity a
/// thresholded activation matrix exhibits after im2col) so that about
/// `pct` percent of the rows are inactive, deterministically per seed.
fn zero_rows(b: &mut Tensor, pct: u32, seed: u64) {
    let k = b.dims()[0];
    let n = b.dims()[1];
    let v = b.as_mut_slice();
    for row in 0..k {
        // splitmix-style hash: uniform, deterministic, seed-dependent
        let mut h = seed.wrapping_add(row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        if (h % 100) < u64::from(pct) {
            v[row * n..(row + 1) * n].fill(0.0);
        }
    }
}

fn rel_close(x: f32, y: f32) -> bool {
    (x - y).abs() <= 1e-3 * x.abs().max(y.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compacted_gemm_is_bit_identical_to_dense_packed(
        m in 1usize..40,
        k in 1usize..96,
        n in 1usize..48,
        pct in prop::sample::select(vec![0u32, 25, 50, 75, 95]),
        seed in 0u64..u64::MAX,
        which in prop::sample::select(vec![RowList::Probe, RowList::Exact, RowList::Superset]),
    ) {
        let a = Tensor::from_fn(&[m, k], |i| {
            (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 19) as f32) * 0.3 - 2.7
        });
        let mut b = Tensor::from_fn(&[k, n], |i| {
            (((i as u64).wrapping_mul(40503).wrapping_add(seed) % 17) as f32) * 0.5 - 4.0
        });
        zero_rows(&mut b, pct, seed);

        let mut dense = Tensor::zeros(&[m, n]);
        matmul_sparse_dispatch_into(&a, &b, &mut dense, None, SparseDispatch::DenseOnly, 1)
            .unwrap();
        let scalar = matmul_scalar_ref(&a, &b).unwrap();
        let list = row_list(&b, which);

        for threads in [1usize, 2, 5, 16] {
            for dispatch in [
                SparseDispatch::Auto,
                SparseDispatch::SparseOnly,
                SparseDispatch::DenseOnly,
            ] {
                let mut out = Tensor::zeros(&[m, n]);
                let stats = matmul_sparse_dispatch_into(
                    &a, &b, &mut out, list.as_deref(), dispatch, threads,
                )
                .unwrap();
                // the hard gate: bitwise equality with the dense packed
                // path at every thread count, dispatch mode and list
                let bits = |t: &Tensor| -> Vec<u32> {
                    t.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                prop_assert_eq!(
                    bits(&out),
                    bits(&dense),
                    "dispatch={:?} threads={} pct={} list={:?}",
                    dispatch,
                    threads,
                    pct,
                    which
                );
                // the dense packed kernels use FMA where available, so
                // the unfused scalar reference only agrees to rounding
                for (x, y) in out.as_slice().iter().zip(scalar.as_slice()) {
                    prop_assert!(rel_close(*x, *y), "{} vs scalar {}", x, y);
                }
                prop_assert_eq!(stats.k_total, k);
                if dispatch == SparseDispatch::DenseOnly {
                    prop_assert!(!stats.used_sparse);
                } else {
                    prop_assert!(stats.k_active <= k);
                    if let Some(rows) = &list {
                        prop_assert_eq!(stats.k_active, rows.len());
                    }
                }
            }
        }
    }
}
