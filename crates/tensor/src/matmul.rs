//! Register-blocked, multi-threaded matrix multiplication.
//!
//! The dense `f32` GEMM underneath every training step and every
//! hardware-model sweep in this workspace. The design is a small BLIS:
//!
//! * **Packing** — `B` is repacked block by block ([`KC`]×[`NC`] at
//!   most, so the packed chunk stays cache-resident) into panels of
//!   [`NR`] columns, `p`-major, zero in the lanes past `n`, so the
//!   microkernel streams it with unit stride. The transposed variants
//!   fold their transpose into the packing, and a convolution's im2col
//!   operand is packed straight from the activations (`BLayout::Im2col`)
//!   — neither is ever materialized. `A` is packed one [`MR`]-row block
//!   at a time into a `p`-major strip, or read from strips packed once
//!   at load time ([`crate::PrepackedA`]).
//! * **Microkernel** — an unrolled `MR×NR` register tile: the full
//!   `k`-sum for each output tile is accumulated in registers and
//!   written to memory exactly once. No zero-branch, no per-iteration
//!   `C` traffic — the two costs that bounded the previous kernel. On
//!   AVX-512 a full `MR` block with two full panels left runs an
//!   `MR×2NR` tile that feeds each `A` broadcast to two FMAs, with every
//!   element's FMA sequence unchanged.
//! * **Threading** — rows of `C` are split into contiguous block ranges
//!   (or `NR`-aligned column stripes) as parts
//!   ([`crate::threads::worker_count`], overridable via `MIME_THREADS`
//!   or the `threads` argument of [`matmul_sparse_dispatch_into`]) run
//!   on the persistent worker pool of [`crate::threads`]. Each `C`
//!   element is produced by exactly one part with the same `p`-order
//!   sum, so results are bit-identical at every thread count.
//!
//! Inference has one GEMM entry point per weight form:
//! [`matmul_sparse_dispatch_into`] for a raw `A` (here), and
//! [`crate::matmul_prepacked_a_into`] / [`crate::matmul_fused_batch_into`]
//! (with its `B = 1` case [`crate::matmul_fused_row_into`]) for the
//! resident forms in `prepack.rs`. [`matmul_into`] is the dense
//! `DenseOnly` call at the default worker count; the transposed products
//! ([`matmul_tn`], [`matmul_nt`]) serve training.
//!
//! Zero-skipping (profitable for the sparse masked activations MIME
//! produces at inference) lives in the sparse fast path
//! ([`matmul_sparse_dispatch_into`]): entirely-zero `k`-rows of `B` are
//! *compacted away during packing* — the gathering packers build a dense
//! packed operand from only the active rows, and the unmodified dense
//! microkernels run over it. Skipped rows contribute exact `±0.0` terms,
//! and in round-to-nearest adding `±0.0` to a `+0.0`-initialised or
//! nonzero accumulator never changes its bits, so the compacted product
//! is **bit-identical** to the dense packed product (see DESIGN.md §9). A
//! measured-sparsity probe picks dense below the
//! [`SPARSE_ACTIVE_MAX`] crossover so the dispatcher never regresses;
//! the dense kernels themselves never branch on element values. The
//! pre-rework scalar kernel is kept as [`matmul_scalar_ref`], the
//! reference the property tests compare against.

use crate::conv::Im2col;
use crate::threads::for_each_part;
use crate::{PrepackedA, Result, Tensor, TensorError};

/// Microkernel tile height (rows of `A` / `C` held in registers). Eight
/// rows give eight independent FMA chains per vector column — enough to
/// hide FMA latency on dual-issue cores.
pub const MR: usize = 8;
/// Microkernel tile width (columns of `B` / `C` held in registers).
pub const NR: usize = 16;

/// Below this many multiply-adds the driver stays single-threaded:
/// waking pool workers and joining them would dominate.
pub(crate) const THREAD_MIN_MACS: u128 = 1 << 18;

/// Depth (`k`) blocking factor: the packed `B` chunk (`KC × NC` floats
/// at most) is streamed once per `MR`-row block, so keeping it
/// L2-resident turns what would be repeated DRAM traffic into cache
/// hits. `C` is visited once per chunk (accumulating), which preserves
/// the sequential `p`-order sum per element and therefore bit-identical
/// results at every thread count.
pub(crate) const KC: usize = 384;

/// Column (`n`) blocking factor: bounds the packed `B` chunk at
/// `KC × NC` floats = 1.5 MiB so it stays cache-resident however wide
/// `B` is (batched conv lowers whole image chunks into one GEMM with
/// `n` in the thousands; without this cap the packed chunk falls out of
/// L2 and every `MR`-row block streams it from DRAM). Each output
/// element still belongs to exactly one column block and sees depth
/// chunks in ascending order, so blocking changes no result bits.
pub(crate) const NC: usize = 1024;

fn check_matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: t.rank(), op });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

fn shape_err(a: &Tensor, b: &Tensor, op: &'static str) -> TensorError {
    TensorError::ShapeMismatch { lhs: a.dims().to_vec(), rhs: b.dims().to_vec(), op }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Layout of the `A` operand as seen by the packer.
#[derive(Clone, Copy)]
pub(crate) enum ALayout {
    /// `A: [m, k]`, row-major (plain product).
    Normal,
    /// `A: [k, m]`, logically transposed (`AᵀB` product).
    Trans,
}

/// Layout of the `B` operand as seen by the packer.
#[derive(Clone, Copy)]
pub(crate) enum BLayout {
    /// `B: [k, n]`, row-major (plain product).
    Normal,
    /// `B: [n, k]`, logically transposed (`ABᵀ` product).
    Trans,
    /// `B` is the im2col lowering of the `[N, C, H, W]` activations in
    /// the `b` slice, packed straight from them ([`Im2col::pack`]); the
    /// column matrix is never built.
    Im2col(Im2col),
}

/// Zeroes lanes `w..NR` of each of the `kb` rows of a partial panel.
fn zero_padding_lanes(dst: &mut [f32], kb: usize, w: usize) {
    if w < NR {
        for row in dst[..kb * NR].chunks_exact_mut(NR) {
            row[w..].fill(0.0);
        }
    }
}

/// Packs the `kb×nb` block of `B` at `(p0, c0)` into `⌈nb/NR⌉` panels
/// of `kb×NR`, `p`-major, zero-padding the final partial panel. Panel
/// `jp` starts at `jp·kb·NR` of `packed`.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
pub(crate) fn pack_b_chunk(
    b: &[f32],
    layout: BLayout,
    k: usize,
    n: usize,
    p0: usize,
    kb: usize,
    c0: usize,
    nb: usize,
    packed: &mut [f32],
) {
    if let BLayout::Im2col(g) = layout {
        g.pack(b, p0..p0 + kb, c0, nb, packed);
        return;
    }
    let panels = nb.div_ceil(NR).max(1);
    for jp in 0..panels {
        let j0 = c0 + jp * NR;
        let w = NR.min((c0 + nb).saturating_sub(j0));
        let dst = &mut packed[jp * kb * NR..(jp + 1) * kb * NR];
        match layout {
            BLayout::Normal => {
                for p in 0..kb {
                    dst[p * NR..p * NR + w]
                        .copy_from_slice(&b[(p0 + p) * n + j0..(p0 + p) * n + j0 + w]);
                }
            }
            BLayout::Trans => {
                for jj in 0..w {
                    let col = &b[(j0 + jj) * k + p0..(j0 + jj) * k + p0 + kb];
                    for (p, &v) in col.iter().enumerate() {
                        dst[p * NR + jj] = v;
                    }
                }
            }
            BLayout::Im2col(_) => unreachable!("packed above"),
        }
        zero_padding_lanes(dst, kb, w);
    }
}

/// Packs the depth slice `p0..p0+kb` of `mr ≤ MR` rows of `A` (rows
/// `i0..i0+mr`) into a `p`-major strip with stride `mr`:
/// `pa[p·mr + ii] = A[i0+ii, p0+p]`.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
pub(crate) fn pack_a(
    a: &[f32],
    layout: ALayout,
    m: usize,
    k: usize,
    p0: usize,
    kb: usize,
    i0: usize,
    mr: usize,
    pa: &mut [f32],
) {
    match layout {
        ALayout::Normal => {
            for ii in 0..mr {
                let row = &a[(i0 + ii) * k + p0..(i0 + ii) * k + p0 + kb];
                for (p, &v) in row.iter().enumerate() {
                    pa[p * mr + ii] = v;
                }
            }
        }
        ALayout::Trans => {
            // A is [k, m]: each p-row holds the mr values contiguously.
            for p in 0..kb {
                pa[p * mr..p * mr + mr]
                    .copy_from_slice(&a[(p0 + p) * m + i0..(p0 + p) * m + i0 + mr]);
            }
        }
    }
}

/// Like [`pack_b_chunk`], but gathers only the listed `k`-rows: packed
/// row `p` holds `B` row `act[p]` (`act` ascending, all within the
/// current depth window). This is the compaction step of the sparse
/// fast path — zero rows simply never enter the packed operand, so the
/// microkernels need no zero-branch.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
pub(crate) fn pack_b_chunk_gather(
    b: &[f32],
    layout: BLayout,
    k: usize,
    n: usize,
    act: &[usize],
    c0: usize,
    nb: usize,
    packed: &mut [f32],
) {
    if let BLayout::Im2col(g) = layout {
        g.pack(b, act.iter().copied(), c0, nb, packed);
        return;
    }
    let kb = act.len();
    let panels = nb.div_ceil(NR).max(1);
    for jp in 0..panels {
        let j0 = c0 + jp * NR;
        let w = NR.min((c0 + nb).saturating_sub(j0));
        let dst = &mut packed[jp * kb * NR..(jp + 1) * kb * NR];
        match layout {
            BLayout::Normal => {
                for (p, &pp) in act.iter().enumerate() {
                    dst[p * NR..p * NR + w]
                        .copy_from_slice(&b[pp * n + j0..pp * n + j0 + w]);
                }
            }
            BLayout::Trans => {
                for jj in 0..w {
                    let col = &b[(j0 + jj) * k..(j0 + jj) * k + k];
                    for (p, &pp) in act.iter().enumerate() {
                        dst[p * NR + jj] = col[pp];
                    }
                }
            }
            BLayout::Im2col(_) => unreachable!("packed above"),
        }
        zero_padding_lanes(dst, kb, w);
    }
}

/// Like [`pack_a`], but gathers only the depth indices in `act`:
/// `pa[p·mr + ii] = A[i0+ii, act[p]]`. The strip lines up row-for-row
/// with a [`pack_b_chunk_gather`]-packed panel.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn pack_a_gather(
    a: &[f32],
    layout: ALayout,
    m: usize,
    k: usize,
    act: &[usize],
    i0: usize,
    mr: usize,
    pa: &mut [f32],
) {
    match layout {
        ALayout::Normal => {
            for ii in 0..mr {
                let row = &a[(i0 + ii) * k..(i0 + ii) * k + k];
                for (p, &pp) in act.iter().enumerate() {
                    pa[p * mr + ii] = row[pp];
                }
            }
        }
        ALayout::Trans => {
            for (p, &pp) in act.iter().enumerate() {
                pa[p * mr..p * mr + mr].copy_from_slice(&a[pp * m + i0..pp * m + i0 + mr]);
            }
        }
    }
}

/// Depth-row selection for one packed `B` chunk: either a dense
/// `KC`-window (`p0..p0+kb`) or the compacted list of active rows
/// inside such a window. Chunking stays keyed on the *original* `p`
/// windows in both cases, so each output element's partial sums are
/// grouped — and therefore rounded — exactly as in the dense path.
#[derive(Clone, Copy)]
enum KRows<'a> {
    /// All rows of the window `p0..p0+kb`.
    Dense { p0: usize, kb: usize },
    /// Only the listed rows (ascending) of the window `p0..p0+kb`.
    Gather { p0: usize, kb: usize, act: &'a [usize] },
}

impl KRows<'_> {
    /// Number of rows actually packed for this chunk.
    fn depth(&self) -> usize {
        match *self {
            KRows::Dense { kb, .. } => kb,
            KRows::Gather { act, .. } => act.len(),
        }
    }
}

/// The `A` operand as the drivers see it: a raw matrix, packed into an
/// `MR`-row strip per block per depth window on every call, or strips
/// packed once at load time ([`PrepackedA`]), which the drivers read in
/// place. Both feed the microkernels the same bytes in the same order.
#[derive(Clone, Copy)]
pub(crate) enum AOperand<'a> {
    Raw(&'a [f32], ALayout),
    Prepacked(&'a PrepackedA),
}

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// Computes one `M×NR` register tile: the full `k`-sum is accumulated in
/// `M·NR` register accumulators and only touches `c` once at the end
/// (overwrite or accumulate). `pa` is a packed `A` strip with stride `M`,
/// `pb` a packed `B` panel with stride `NR`; `nv ≤ NR` columns are valid.
#[inline(always)]
fn microkernel<const M: usize>(
    k: usize,
    pa: &[f32],
    pb: &[f32],
    c: &mut [f32],
    ldc: usize,
    nv: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; M];
    for (a, b) in pa.chunks_exact(M).zip(pb.chunks_exact(NR)).take(k) {
        // Fixed-size views keep the inner loops free of bounds checks and
        // let the autovectorizer keep the whole tile in vector registers.
        let b: &[f32; NR] = b.try_into().unwrap();
        for i in 0..M {
            let ai = a[i];
            let row = &mut acc[i];
            for j in 0..NR {
                // With a hardware FMA, `mul_add` lowers to `vfmadd` and
                // doubles throughput; without one it is a *libm call*
                // (~50× slower), so the fused form is gated on the
                // compile-time feature. Either branch executes identical
                // instructions at every thread count, so results stay
                // bit-identical across `MIME_THREADS` settings.
                if cfg!(target_feature = "fma") {
                    row[j] = ai.mul_add(b[j], row[j]);
                } else {
                    row[j] += ai * b[j];
                }
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let dst = &mut c[i * ldc..i * ldc + nv];
        if accumulate {
            for (d, v) in dst.iter_mut().zip(&row[..nv]) {
                *d += v;
            }
        } else {
            dst.copy_from_slice(&row[..nv]);
        }
    }
}

/// Which microkernel implementation the driver dispatches to. Explicit
/// SIMD is used where available because the autovectorizer's axis choice
/// for the register tile is fragile (it has been observed vectorizing
/// across the stride-`MR` row axis, emitting gathers); the intrinsic
/// kernels pin the layout: one vector per tile-row chunk of `B` columns,
/// `A` elements applied by embedded broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512F: one 16-lane zmm accumulator per tile row.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2+FMA: two 8-lane ymm half-tile passes per tile row.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Autovectorized portable kernel ([`microkernel`]).
    Portable,
}

/// Runtime CPU-feature detection, done once per process.
pub(crate) fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        static ISA: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
        *ISA.get_or_init(|| {
            if is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                Isa::Avx2Fma
            } else {
                Isa::Portable
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    Isa::Portable
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod ukern_x86 {
    //! Explicit-SIMD microkernels. Both kernels compute the same
    //! `M×NR` register tile as the portable [`super::microkernel`], with
    //! the same sequential `p`-order per output element, so all three
    //! implementations agree to within one rounding (fused vs unfused
    //! multiply-add) and each is individually bit-identical at every
    //! thread count. The `fused_*` pair does the same for the fused FC
    //! tile of `crate::prepack`.
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// AVX-512F tile: `M` zmm accumulators, `B` panel rows loaded as one
    /// 16-lane vector, `A` values folded in as embedded broadcasts.
    /// Partial panels (`nv < NR`) use lane masks, so no scalar edge loop.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` at runtime and guarantee
    /// `pa.len() ≥ k·M`, `pb.len() ≥ k·NR`, and that rows
    /// `c[i·ldc..i·ldc+nv]` are in bounds for `i < M`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn avx512<const M: usize>(
        k: usize,
        pa: &[f32],
        pb: &[f32],
        c: &mut [f32],
        ldc: usize,
        nv: usize,
        accumulate: bool,
    ) {
        debug_assert!(pa.len() >= k * M && pb.len() >= k * NR);
        let mut acc = [_mm512_setzero_ps(); M];
        let pa = pa.as_ptr();
        let pb = pb.as_ptr();
        for p in 0..k {
            let bv = _mm512_loadu_ps(pb.add(p * NR));
            let ap = pa.add(p * M);
            for (i, a) in acc.iter_mut().enumerate() {
                *a = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(i)), bv, *a);
            }
        }
        let mask: __mmask16 = if nv >= NR { !0 } else { (1u16 << nv) - 1 };
        let cp = c.as_mut_ptr();
        for (i, &av) in acc.iter().enumerate() {
            let dst = cp.add(i * ldc);
            let v = if accumulate {
                _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst), av)
            } else {
                av
            };
            _mm512_mask_storeu_ps(dst, mask, v);
        }
    }

    /// AVX-512F two-panel tile: `MR` rows × two adjacent full panels
    /// (`2·NR` columns), 16 zmm accumulators. Per depth row it loads the
    /// two panel rows once and broadcasts each `A` value once for both,
    /// so a broadcast feeds two FMAs instead of one. Every output element
    /// sees the same FMA sequence as in [`avx512`], so the two kernels
    /// agree bit for bit.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` at runtime and guarantee
    /// `pa.len() ≥ k·MR`, `pb.len() ≥ 2·k·NR` (the second panel at
    /// `k·NR`), and rows `c[i·ldc..i·ldc+2·NR]` in bounds for `i < MR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn avx512_pair(
        k: usize,
        pa: &[f32],
        pb: &[f32],
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
    ) {
        debug_assert!(pa.len() >= k * MR && pb.len() >= 2 * k * NR);
        let mut lo = [_mm512_setzero_ps(); MR];
        let mut hi = [_mm512_setzero_ps(); MR];
        let pa = pa.as_ptr();
        let (pb0, pb1) = (pb.as_ptr(), pb.as_ptr().add(k * NR));
        for p in 0..k {
            let b0 = _mm512_loadu_ps(pb0.add(p * NR));
            let b1 = _mm512_loadu_ps(pb1.add(p * NR));
            let ap = pa.add(p * MR);
            for i in 0..MR {
                let av = _mm512_set1_ps(*ap.add(i));
                lo[i] = _mm512_fmadd_ps(av, b0, lo[i]);
                hi[i] = _mm512_fmadd_ps(av, b1, hi[i]);
            }
        }
        let cp = c.as_mut_ptr();
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            let (d0, d1) = (cp.add(i * ldc), cp.add(i * ldc + NR));
            let (l, h) = if accumulate {
                (
                    _mm512_add_ps(_mm512_loadu_ps(d0), l),
                    _mm512_add_ps(_mm512_loadu_ps(d1), h),
                )
            } else {
                (l, h)
            };
            _mm512_storeu_ps(d0, l);
            _mm512_storeu_ps(d1, h);
        }
    }

    /// AVX2+FMA tile, full `NR`-wide panels only: the 16 columns are
    /// processed as two independent 8-lane half-tiles (two passes over
    /// the packed strips) so `M` accumulators fit the 16 ymm registers
    /// without spilling.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` and `fma` at runtime, pass a full
    /// panel (`nv == NR`), and guarantee `pa.len() ≥ k·M`,
    /// `pb.len() ≥ k·NR`, and rows `c[i·ldc..i·ldc+NR]` in bounds for
    /// `i < M`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn avx2<const M: usize>(
        k: usize,
        pa: &[f32],
        pb: &[f32],
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
    ) {
        debug_assert!(pa.len() >= k * M && pb.len() >= k * NR);
        let pap = pa.as_ptr();
        let pbp = pb.as_ptr();
        let cp = c.as_mut_ptr();
        for half in 0..2 {
            let off = half * (NR / 2);
            let mut acc = [_mm256_setzero_ps(); M];
            for p in 0..k {
                let bv = _mm256_loadu_ps(pbp.add(p * NR + off));
                let ap = pap.add(p * M);
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(i)), bv, *a);
                }
            }
            for (i, &av) in acc.iter().enumerate() {
                let dst = cp.add(i * ldc + off);
                let v =
                    if accumulate { _mm256_add_ps(_mm256_loadu_ps(dst), av) } else { av };
                _mm256_storeu_ps(dst, v);
            }
        }
    }

    /// AVX-512F fused FC tile: `M` samples × `P` panels of one `KC`
    /// window, `M·P` zmm accumulators. Each listed row's `P` panel rows
    /// are loaded once and feed all `M` samples, whose inputs (sample
    /// `i`'s on window row `r` at `x[i·ldx + r]`) are folded in as
    /// embedded broadcasts. Sums land in `acc[i·P + t]` (sample `i`,
    /// panel `t`).
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` at runtime and guarantee
    /// every `rows[q] < kb`, `w.len() ≥ P·kb·NR` (panel `t`'s window
    /// slice at `t·kb·NR`), `x.len() ≥ (M-1)·ldx + kb` and
    /// `acc.len() ≥ M·P`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fused_avx512<const M: usize, const P: usize>(
        rows: &[u16],
        (x, ldx): (&[f32], usize),
        w: &[f32],
        kb: usize,
        acc: &mut [[f32; NR]],
    ) {
        debug_assert!(w.len() >= P * kb * NR && x.len() >= (M - 1) * ldx + kb);
        debug_assert!(acc.len() >= M * P && rows.iter().all(|&r| usize::from(r) < kb));
        let mut sums = [[_mm512_setzero_ps(); P]; M];
        let (xp, wp) = (x.as_ptr(), w.as_ptr());
        for &r in rows {
            let r = usize::from(r);
            let mut wv = [_mm512_setzero_ps(); P];
            for (t, v) in wv.iter_mut().enumerate() {
                *v = _mm512_loadu_ps(wp.add(t * kb * NR + r * NR));
            }
            for (i, si) in sums.iter_mut().enumerate() {
                let xb = _mm512_set1_ps(*xp.add(i * ldx + r));
                for (s, &v) in si.iter_mut().zip(&wv) {
                    *s = _mm512_fmadd_ps(xb, v, *s);
                }
            }
        }
        for (i, si) in sums.iter().enumerate() {
            for (t, &s) in si.iter().enumerate() {
                _mm512_storeu_ps(acc[i * P + t].as_mut_ptr(), s);
            }
        }
    }

    /// AVX2+FMA fused FC tile: as [`fused_avx512`], with the 16 columns
    /// taken as two 8-lane halves (two passes over the rows) so the
    /// `M·P ≤ 8` accumulators fit the 16 ymm registers.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` and `fma` at runtime; otherwise
    /// as [`fused_avx512`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fused_avx2<const M: usize, const P: usize>(
        rows: &[u16],
        (x, ldx): (&[f32], usize),
        w: &[f32],
        kb: usize,
        acc: &mut [[f32; NR]],
    ) {
        debug_assert!(w.len() >= P * kb * NR && x.len() >= (M - 1) * ldx + kb);
        debug_assert!(acc.len() >= M * P && rows.iter().all(|&r| usize::from(r) < kb));
        let (xp, wp) = (x.as_ptr(), w.as_ptr());
        for half in 0..2 {
            let off = half * (NR / 2);
            let mut sums = [[_mm256_setzero_ps(); P]; M];
            for &r in rows {
                let r = usize::from(r);
                let mut wv = [_mm256_setzero_ps(); P];
                for (t, v) in wv.iter_mut().enumerate() {
                    *v = _mm256_loadu_ps(wp.add(t * kb * NR + r * NR + off));
                }
                for (i, si) in sums.iter_mut().enumerate() {
                    let xb = _mm256_set1_ps(*xp.add(i * ldx + r));
                    for (s, &v) in si.iter_mut().zip(&wv) {
                        *s = _mm256_fmadd_ps(xb, v, *s);
                    }
                }
            }
            for (i, si) in sums.iter().enumerate() {
                for (t, &s) in si.iter().enumerate() {
                    _mm256_storeu_ps(acc[i * P + t].as_mut_ptr().add(off), s);
                }
            }
        }
    }
}

/// Computes one output tile, dispatching to the best microkernel for the
/// running CPU. `mr ≤ MR` rows, `nv ≤ NR` columns.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn tile(
    isa: Isa,
    mr: usize,
    k: usize,
    pa: &[f32],
    pb: &[f32],
    c: &mut [f32],
    ldc: usize,
    nv: usize,
    accumulate: bool,
) {
    /// Monomorphizes the row count so each kernel's accumulator array has
    /// a const length (kept fully in registers).
    macro_rules! dispatch_mr {
        ($f:ident) => {
            match mr {
                1 => $f!(1),
                2 => $f!(2),
                3 => $f!(3),
                4 => $f!(4),
                5 => $f!(5),
                6 => $f!(6),
                7 => $f!(7),
                _ => $f!(8),
            }
        };
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            macro_rules! k512 {
                ($m:literal) => {
                    // SAFETY: `isa()` verified avx512f; packing guarantees
                    // the strip/panel lengths; the caller sizes `c`.
                    unsafe { ukern_x86::avx512::<$m>(k, pa, pb, c, ldc, nv, accumulate) }
                };
            }
            dispatch_mr!(k512)
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma if nv == NR => {
            macro_rules! k256 {
                ($m:literal) => {
                    // SAFETY: `isa()` verified avx2+fma; `nv == NR` here;
                    // packing guarantees the strip/panel lengths.
                    unsafe { ukern_x86::avx2::<$m>(k, pa, pb, c, ldc, accumulate) }
                };
            }
            dispatch_mr!(k256)
        }
        _ => {
            macro_rules! kport {
                ($m:literal) => {
                    microkernel::<$m>(k, pa, pb, c, ldc, nv, accumulate)
                };
            }
            dispatch_mr!(kport)
        }
    }
}

/// Runs the packed microkernel over rows `r0..r1` of the output for one
/// packed block of `B` at column `c0` (`packed_b` holds that block's
/// panels; `rows` says which depth rows it contains). `c` rows have
/// stride `ldc`; only columns `c0..c0+nb` are touched (`c0` is an
/// offset into each `c` row — global for the full output, stripe-local
/// for the column-split path).
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn run_rows(
    a: AOperand<'_>,
    kernel_isa: Isa,
    packed_b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    ldc: usize,
    rows: KRows<'_>,
    c0: usize,
    nb: usize,
    r0: usize,
    r1: usize,
    accumulate: bool,
) {
    let kb = rows.depth();
    // Resident strips of a dense window are read in place; every other
    // case builds the strip in this scratch.
    let copies = !matches!((a, rows), (AOperand::Prepacked(_), KRows::Dense { .. }));
    let mut pa = vec![0.0f32; if copies { MR * kb.max(1) } else { 0 }];
    let mut i0 = r0;
    while i0 < r1 {
        let mr = MR.min(r1 - i0);
        let strip: &[f32] = match (a, rows) {
            (AOperand::Raw(av, layout), KRows::Dense { p0, kb }) => {
                pack_a(av, layout, m, k, p0, kb, i0, mr, &mut pa[..kb * mr]);
                &pa[..kb * mr]
            }
            (AOperand::Raw(av, layout), KRows::Gather { act, .. }) => {
                pack_a_gather(av, layout, m, k, act, i0, mr, &mut pa[..kb * mr]);
                &pa[..kb * mr]
            }
            (AOperand::Prepacked(pre), KRows::Dense { p0, kb }) => {
                pre.strip(p0, kb, i0, mr)
            }
            (AOperand::Prepacked(pre), KRows::Gather { p0, kb: wkb, act }) => {
                pre.gather(p0, wkb, act, i0, mr, &mut pa[..kb * mr]);
                &pa[..kb * mr]
            }
        };
        let mut jp = 0;
        let mut j0 = 0;
        while j0 < nb {
            let c_tile = &mut c[(i0 - r0) * ldc + c0 + j0..];
            #[cfg(target_arch = "x86_64")]
            if kernel_isa == Isa::Avx512 && mr == MR && nb - j0 >= 2 * NR {
                let pb = &packed_b[jp * kb * NR..(jp + 2) * kb * NR];
                // SAFETY: `kernel_isa` is Avx512 only once `isa()` (or a
                // test's feature check) verified avx512f; the strip holds
                // `kb·MR` floats, `pb` two whole panels, and `c_tile` rows
                // reach `2·NR` columns past `j0 + 2·NR ≤ nb`.
                unsafe { ukern_x86::avx512_pair(kb, strip, pb, c_tile, ldc, accumulate) };
                jp += 2;
                j0 += 2 * NR;
                continue;
            }
            let nv = NR.min(nb - j0);
            let pb = &packed_b[jp * kb * NR..(jp + 1) * kb * NR];
            tile(kernel_isa, mr, kb, strip, pb, c_tile, ldc, nv, accumulate);
            jp += 1;
            j0 += NR;
        }
        i0 += mr;
    }
}

/// Resolves the depth rows of the window `p0..p0+kb`: every row when
/// `active` is `None`, the compacted sub-list when it is `Some` (`None`
/// result = the whole window is inactive and the chunk is skipped).
fn window_rows<'a>(active: Option<&'a [usize]>, p0: usize, kb: usize) -> Option<KRows<'a>> {
    match active {
        None => Some(KRows::Dense { p0, kb }),
        Some(act) => {
            let lo = act.partition_point(|&p| p < p0);
            let hi = act.partition_point(|&p| p < p0 + kb);
            (lo < hi).then(|| KRows::Gather { p0, kb, act: &act[lo..hi] })
        }
    }
}

/// Packs the `B` chunk of one depth window at column block `c0..c0+nb`:
/// the whole window, or only its listed rows.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn pack_window(
    b: &[f32],
    layout: BLayout,
    k: usize,
    n: usize,
    rows: KRows<'_>,
    c0: usize,
    nb: usize,
    packed: &mut [f32],
) {
    match rows {
        KRows::Dense { p0, kb } => pack_b_chunk(b, layout, k, n, p0, kb, c0, nb, packed),
        KRows::Gather { act, .. } => {
            pack_b_chunk_gather(b, layout, k, n, act, c0, nb, packed);
        }
    }
}

/// Single-threaded blocked driver over output columns `j_lo..j_hi`,
/// writing into `c` with row stride `j_hi - j_lo` (pass `0..n` and the
/// full output for the classic serial GEMM). Depth windows are always
/// the original `p0..p0+KC` ranges — with an `active` list the window
/// merely packs fewer rows — so every output element's partial sums are
/// grouped and rounded exactly as in the dense serial driver.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn gemm_stripe(
    a: AOperand<'_>,
    kernel_isa: Isa,
    b: &[f32],
    b_layout: BLayout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j_lo: usize,
    j_hi: usize,
    accumulate: bool,
    active: Option<&[usize]>,
) {
    let ldc = j_hi - j_lo;
    let panels = NC.min(ldc).div_ceil(NR).max(1);
    let mut packed_b = vec![0.0f32; panels * KC.min(k) * NR];
    let mut c0 = j_lo;
    while c0 < j_hi {
        let nb = NC.min(j_hi - c0);
        // The first *packed* depth chunk overwrites `c` (unless the
        // caller asked to accumulate); subsequent chunks accumulate
        // onto it. Fully-inactive windows are skipped — they would only
        // add exact zeros.
        let mut first = true;
        let mut p0 = 0;
        while p0 < k {
            let kb = KC.min(k - p0);
            if let Some(rows) = window_rows(active, p0, kb) {
                let kbe = rows.depth();
                let np = nb.div_ceil(NR);
                pack_window(
                    b,
                    b_layout,
                    k,
                    n,
                    rows,
                    c0,
                    nb,
                    &mut packed_b[..np * kbe * NR],
                );
                let acc = accumulate || !first;
                first = false;
                run_rows(
                    a,
                    kernel_isa,
                    &packed_b,
                    c,
                    m,
                    k,
                    ldc,
                    rows,
                    c0 - j_lo,
                    nb,
                    0,
                    m,
                    acc,
                );
            }
            p0 += kb;
        }
        c0 += nb;
    }
}

/// Column-split threaded driver for short-`m`/wide-`n` outputs: each
/// part owns a contiguous, `NR`-aligned stripe of output columns and
/// runs the whole blocked loop over it (one pool dispatch per GEMM
/// instead of one per depth chunk, and `B` packing is partitioned
/// across parts instead of serialized). Stripe boundaries sit on panel boundaries,
/// so every panel sees the same width — and thus the same microkernel —
/// as in the serial driver, keeping results bit-identical.
///
/// Workers compute into private stripe buffers that the caller copies
/// back, which keeps the split safe (no aliased `&mut` into
/// column-interleaved memory) at the cost of one extra pass over `C`.
/// When accumulating, the buffer is seeded from `C` first so each
/// element sees the same add order as the serial driver.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn gemm_cols(
    a: AOperand<'_>,
    kernel_isa: Isa,
    b: &[f32],
    b_layout: BLayout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    threads: usize,
    active: Option<&[usize]>,
) {
    let col_panels = n.div_ceil(NR);
    let workers = threads.min(col_panels);
    let base = col_panels / workers;
    let extra = col_panels % workers;
    // (first column, end column, private stripe buffer) per part
    let mut stripes: Vec<(usize, usize, Vec<f32>)> = Vec::with_capacity(workers);
    let mut panel = 0usize;
    for w in 0..workers {
        let npanels = base + usize::from(w < extra);
        if npanels == 0 {
            continue;
        }
        let j_lo = panel * NR;
        panel += npanels;
        let j_hi = n.min(panel * NR);
        let wn = j_hi - j_lo;
        let mut buf = vec![0.0f32; m * wn];
        if accumulate {
            for i in 0..m {
                buf[i * wn..(i + 1) * wn].copy_from_slice(&c[i * n + j_lo..i * n + j_hi]);
            }
        }
        stripes.push((j_lo, j_hi, buf));
    }
    for_each_part(&mut stripes, |_, (j_lo, j_hi, buf)| {
        gemm_stripe(
            a, kernel_isa, b, b_layout, buf, m, k, n, *j_lo, *j_hi, accumulate, active,
        );
    });
    for (j_lo, j_hi, buf) in &stripes {
        let wn = j_hi - j_lo;
        for i in 0..m {
            c[i * n + j_lo..i * n + j_hi].copy_from_slice(&buf[i * wn..(i + 1) * wn]);
        }
    }
}

/// Packed, blocked, threaded GEMM driver shared by every dense entry
/// point and (via `active`) the compacted sparse path. Threading splits
/// `C` into contiguous per-worker row ranges — or, when `m` is too
/// short to feed the workers but `n` is wide, into `NR`-aligned column
/// stripes ([`gemm_cols`]) — so each element is written by exactly one
/// worker and the result is bit-identical for every worker count.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
fn gemm_driver(
    a: AOperand<'_>,
    kernel_isa: Isa,
    b: &[f32],
    b_layout: BLayout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    threads: usize,
    active: Option<&[usize]>,
) {
    if m == 0 || n == 0 {
        return;
    }
    let k_active = active.map_or(k, <[usize]>::len);
    if k == 0 || k_active == 0 {
        // No surviving depth rows: the product is exactly zero.
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    let macs = m as u128 * k_active as u128 * n as u128;
    let threads = threads.max(1);
    let blocks = m.div_ceil(MR);
    if threads <= 1 || macs < THREAD_MIN_MACS {
        gemm_stripe(a, kernel_isa, b, b_layout, c, m, k, n, 0, n, accumulate, active);
        return;
    }
    // Short-`m`/wide-`n` outputs (the conv-lowered GEMMs with few
    // filters but tens of thousands of sites) cannot feed the workers
    // with row blocks; give each worker a column stripe instead.
    if n >= m && n.div_ceil(NR) >= threads {
        gemm_cols(a, kernel_isa, b, b_layout, c, m, k, n, accumulate, threads, active);
        return;
    }
    let workers = threads.min(blocks);
    if workers <= 1 {
        gemm_stripe(a, kernel_isa, b, b_layout, c, m, k, n, 0, n, accumulate, active);
        return;
    }
    // Split whole MR-blocks across workers so tiles never straddle two
    // workers' row ranges.
    let bbase = blocks / workers;
    let bextra = blocks % workers;
    let mut packed_b = Vec::new();
    let mut c0 = 0;
    while c0 < n {
        let nb = NC.min(n - c0);
        let np = nb.div_ceil(NR);
        // Every depth window of the column block is packed up front and the
        // parts are dispatched once per block, not once per window: at the
        // late-conv shapes (`k` = 4608, `n` ≤ 128) a thread spawn cost more
        // than a window's row sweep (raw `A`, 2 threads: conv9 at n = 16 went
        // 4.9 → 3.2 ms, conv14 at n = 1 180 → 142 ms). This split only runs
        // when `n < m` or `n < NR·threads`, which bounds the packed block at
        // `k·max(m + NR, NR·threads)` floats.
        let windows: Vec<KRows<'_>> = (0..k)
            .step_by(KC)
            .filter_map(|p0| window_rows(active, p0, KC.min(k - p0)))
            .collect();
        let sizes: Vec<usize> = windows.iter().map(|rows| np * rows.depth() * NR).collect();
        packed_b.resize(packed_b.len().max(sizes.iter().sum()), 0.0);
        let mut off = 0;
        for (rows, &size) in windows.iter().zip(&sizes) {
            pack_window(b, b_layout, k, n, *rows, c0, nb, &mut packed_b[off..off + size]);
            off += size;
        }
        // (first row, end row, those rows of `c`) per part
        let mut parts: Vec<(usize, usize, &mut [f32])> = Vec::with_capacity(workers);
        let mut rest = &mut *c;
        let mut row = 0usize;
        for w in 0..workers {
            let nblocks = bbase + usize::from(w < bextra);
            if nblocks == 0 {
                continue;
            }
            let r0 = row;
            let r1 = m.min(row + nblocks * MR);
            row = r1;
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * n);
            rest = tail;
            parts.push((r0, r1, mine));
        }
        let (pb, windows, sizes) = (&packed_b, &windows, &sizes);
        for_each_part(&mut parts, |_, (r0, r1, mine)| {
            let mut off = 0;
            for (i, (rows, &size)) in windows.iter().zip(sizes).enumerate() {
                // The first packed depth chunk overwrites `c` (unless the
                // caller asked to accumulate); later chunks accumulate
                // onto it. Column blocks are disjoint, so each element of
                // `c` sees its depth chunks exactly once, in order.
                let acc = accumulate || i > 0;
                let chunk = &pb[off..off + size];
                run_rows(a, kernel_isa, chunk, mine, m, k, n, *rows, c0, nb, *r0, *r1, acc);
                off += size;
            }
        });
        c0 += nb;
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `C = A·B` written into a caller-provided output buffer: the dense
/// [`matmul_sparse_dispatch_into`] call (`None`, `DenseOnly`) at the
/// default worker count.
///
/// Shapes: `A: [m, k]`, `B: [k, n]`, `out: [m, n]`. The output is fully
/// **overwritten** — it is never read and never needs pre-zeroing, so
/// `Tensor::zeros` + `matmul_into` performs no redundant clear (the
/// microkernel holds each tile's `k`-sum in registers and stores it
/// once).
///
/// Threaded per [`crate::threads::worker_count`] (`MIME_THREADS`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] / [`TensorError::RankMismatch`]
/// on inconsistent operands.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let threads = crate::threads::worker_count();
    matmul_sparse_dispatch_into(a, b, out, None, SparseDispatch::DenseOnly, threads)
        .map(|_| ())
}

impl Tensor {
    /// Matrix product `self · rhs`.
    ///
    /// Allocates the output and runs the fresh-output fast path of
    /// [`matmul_into`] (the buffer is written exactly once; no redundant
    /// zero-fill).
    ///
    /// # Errors
    ///
    /// Returns a shape/rank error when operands are not conforming
    /// matrices.
    ///
    /// ```
    /// # use mime_tensor::Tensor;
    /// # fn main() -> Result<(), mime_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?.as_slice(), a.as_slice());
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, _) = check_matrix(self, "matmul")?;
        let (_, n) = check_matrix(rhs, "matmul")?;
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(self, rhs, &mut out)?;
        Ok(out)
    }
}

/// `C = Aᵀ·B` without materializing the transpose (folded into packing).
///
/// Shapes: `A: [k, m]`, `B: [k, n]` → `C: [m, n]`. Used by weight-gradient
/// computations.
///
/// # Errors
///
/// Returns a shape/rank error when operands are not conforming matrices.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (_, m) = check_matrix(a, "matmul_tn")?;
    let (_, n) = check_matrix(b, "matmul_tn")?;
    let mut out = Tensor::zeros(&[m, n]);
    matmul_tn_into(a, b, &mut out)?;
    Ok(out)
}

/// [`matmul_tn`] into a caller-provided buffer (fully overwritten).
///
/// # Errors
///
/// Returns a shape/rank error when operands are not conforming matrices.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (k, m) = check_matrix(a, "matmul_tn")?;
    let (k2, n) = check_matrix(b, "matmul_tn")?;
    if k != k2 || out.dims() != [m, n] {
        return Err(shape_err(a, b, "matmul_tn"));
    }
    gemm_driver(
        AOperand::Raw(a.as_slice(), ALayout::Trans),
        isa(),
        b.as_slice(),
        BLayout::Normal,
        out.as_mut_slice(),
        m,
        k,
        n,
        false,
        crate::threads::worker_count(),
        None,
    );
    Ok(())
}

/// `C = A·Bᵀ` without materializing the transpose (folded into packing).
///
/// Shapes: `A: [m, k]`, `B: [n, k]` → `C: [m, n]`. Used by input-gradient
/// computations.
///
/// # Errors
///
/// Returns a shape/rank error when operands are not conforming matrices.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_matrix(a, "matmul_nt")?;
    let (n, k2) = check_matrix(b, "matmul_nt")?;
    if k != k2 {
        return Err(shape_err(a, b, "matmul_nt"));
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm_driver(
        AOperand::Raw(a.as_slice(), ALayout::Normal),
        isa(),
        b.as_slice(),
        BLayout::Trans,
        out.as_mut_slice(),
        m,
        k,
        n,
        false,
        crate::threads::worker_count(),
        None,
    );
    Ok(out)
}

/// `C += A·Bᵀ` — accumulate variant of [`matmul_nt`], used for weight
/// gradients summed across batch chunks.
///
/// # Errors
///
/// Returns a shape/rank error when operands are not conforming matrices.
pub fn matmul_nt_into_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k) = check_matrix(a, "matmul_nt")?;
    let (n, k2) = check_matrix(b, "matmul_nt")?;
    if k != k2 || out.dims() != [m, n] {
        return Err(shape_err(a, b, "matmul_nt"));
    }
    gemm_driver(
        AOperand::Raw(a.as_slice(), ALayout::Normal),
        isa(),
        b.as_slice(),
        BLayout::Trans,
        out.as_mut_slice(),
        m,
        k,
        n,
        true,
        crate::threads::worker_count(),
        None,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Sparse fast path (row compaction + crossover dispatch)
// ---------------------------------------------------------------------------

/// How the sparse entry points choose between the compacted kernel and
/// the dense packed kernel. Both produce bit-identical output; the
/// choice is purely a performance decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SparseDispatch {
    /// Probe the `k`-rows of `B` (or trust the caller's activity list)
    /// and take the compacted path when the active fraction is at or
    /// below [`SPARSE_ACTIVE_MAX`]; otherwise run dense.
    #[default]
    Auto,
    /// Always run the dense packed kernel (for A/B runs, bisection and
    /// the bitwise tests that pin each policy). The probe is skipped
    /// entirely.
    DenseOnly,
    /// Always run the compacted kernel, even on fully dense operands.
    /// For property tests and benchmarks; never faster than `Auto`.
    SparseOnly,
}

/// [`SparseDispatch::Auto`] crossover: the compacted path is taken when
/// `k_active / k_total ≤` this fraction. Below ~10 % zero rows the
/// gather-packing overhead cancels the skipped arithmetic, so the
/// dispatcher falls back to dense and never regresses.
pub const SPARSE_ACTIVE_MAX: f64 = 0.9;

/// What the sparse dispatcher measured and decided for one product.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Depth (`k`) of the product: total `B` rows.
    pub k_total: usize,
    /// `B` rows with at least one nonzero element (equals `k_total`
    /// under [`SparseDispatch::DenseOnly`], which skips the probe).
    pub k_active: usize,
    /// Whether the compacted kernel ran (vs. the dense packed kernel).
    pub used_sparse: bool,
}

impl SparseStats {
    /// Rows of work actually elided: `k_total - k_active` when the
    /// compacted kernel ran, zero when dense ran (nothing was skipped).
    #[must_use]
    pub fn rows_skipped(&self) -> usize {
        if self.used_sparse {
            self.k_total - self.k_active
        } else {
            0
        }
    }

    /// Measured active fraction (`1.0` for an empty product).
    #[must_use]
    pub fn active_fraction(&self) -> f64 {
        if self.k_total == 0 {
            1.0
        } else {
            self.k_active as f64 / self.k_total as f64
        }
    }
}

/// Lists the `k`-rows of `B` with any nonzero element. `-0.0` counts as
/// zero (it contributes exact `±0.0` terms, which never change an
/// accumulator's bits — see the module docs). Early-exits per row at
/// the first nonzero, so the probe costs `O(k)` loads on dense
/// operands vs. the `O(m·k·n)` multiply-adds it can elide.
fn probe_active_rows(b: &[f32], layout: BLayout, k: usize, n: usize) -> Vec<usize> {
    match layout {
        BLayout::Normal => {
            (0..k).filter(|&p| b[p * n..(p + 1) * n].iter().any(|&v| v != 0.0)).collect()
        }
        BLayout::Trans => (0..k).filter(|&p| (0..n).any(|j| b[j * k + p] != 0.0)).collect(),
        BLayout::Im2col(g) => g.probe(b, n),
    }
}

/// The sparse dispatcher over either `A` operand of shape `(m, k)`:
/// checks `b`/`out` and the activity list, then probes or trusts the
/// list and runs the compacted or dense driver on `kernel_isa`.
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
pub(crate) fn sparse_dispatch(
    a: AOperand<'_>,
    (m, k): (usize, usize),
    b: &Tensor,
    out: &mut Tensor,
    known_rows: Option<&[usize]>,
    dispatch: SparseDispatch,
    threads: usize,
    kernel_isa: Isa,
) -> Result<SparseStats> {
    let (k2, n) = check_matrix(b, "matmul")?;
    if k != k2 || out.dims() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let b = (b.as_slice(), BLayout::Normal);
    let shape = (m, k, n);
    dispatch_gemm(
        a,
        shape,
        b,
        out.as_mut_slice(),
        known_rows,
        dispatch,
        threads,
        kernel_isa,
    )
}

/// [`sparse_dispatch`] over a `B` of any layout with shape-checked
/// operands: `C[m, n] = A[m, k]·B[k, n]` into `out` (`m·n` floats).
#[allow(clippy::too_many_arguments)] // flat kernel-internal plumbing
pub(crate) fn dispatch_gemm(
    a: AOperand<'_>,
    (m, k, n): (usize, usize, usize),
    (b, b_layout): (&[f32], BLayout),
    out: &mut [f32],
    known_rows: Option<&[usize]>,
    dispatch: SparseDispatch,
    threads: usize,
    kernel_isa: Isa,
) -> Result<SparseStats> {
    if let Some(rows) = known_rows {
        let sorted = rows.windows(2).all(|w| w[0] < w[1]);
        if !sorted || rows.last().is_some_and(|&p| p >= k) {
            return Err(TensorError::InvalidGeometry(format!(
                "active-row list must be strictly ascending and < k={k}"
            )));
        }
    }
    let mut run = |active: Option<&[usize]>| {
        gemm_driver(a, kernel_isa, b, b_layout, out, m, k, n, false, threads, active);
    };
    if dispatch == SparseDispatch::DenseOnly {
        run(None);
        return Ok(SparseStats { k_total: k, k_active: k, used_sparse: false });
    }
    let probed;
    let active: &[usize] = match known_rows {
        Some(rows) => rows,
        None => {
            probed = probe_active_rows(b, b_layout, k, n);
            &probed
        }
    };
    let use_sparse = dispatch == SparseDispatch::SparseOnly
        || (active.len() as f64) <= SPARSE_ACTIVE_MAX * k as f64;
    run(use_sparse.then_some(active));
    Ok(SparseStats { k_total: k, k_active: active.len(), used_sparse: use_sparse })
}

/// `C = A·B` through the sparse fast path — the one raw-`A` GEMM entry
/// point. Past the [`SPARSE_ACTIVE_MAX`] crossover it compacts the
/// active `k`-rows of `B` into a dense packed operand and runs the
/// ordinary packed/blocked/threaded microkernels over it (dense
/// otherwise). The output is **bit-identical** to the dense packed
/// product whichever path runs, and bit-identical at every thread count.
///
/// `active` lists the `k`-rows of `B` that may hold nonzeros (strictly
/// ascending, all `< k`) — how a threshold/ReLU layer's activity bitmap
/// reaches the compactor without a re-scan. The list's order and range
/// are checked, but rows it leaves out are *trusted* to be entirely zero
/// and skipped without looking. `None` probes `B` instead.
/// [`SparseDispatch::DenseOnly`] skips both and runs the dense kernel.
/// `threads` is the worker count ([`crate::threads::worker_count`] for
/// the `MIME_THREADS` default).
///
/// Returns the measured [`SparseStats`] so callers (the runtime
/// executor, benchmarks) can publish sparsity and dispatch metrics
/// without this crate depending on the observability layer.
///
/// # Errors
///
/// Returns a shape/rank error when operands are not conforming
/// matrices, or [`TensorError::InvalidGeometry`] when `active` is not
/// strictly ascending or indexes past `k`.
pub fn matmul_sparse_dispatch_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    active: Option<&[usize]>,
    dispatch: SparseDispatch,
    threads: usize,
) -> Result<SparseStats> {
    let (m, k) = check_matrix(a, "matmul")?;
    sparse_dispatch(
        AOperand::Raw(a.as_slice(), ALayout::Normal),
        (m, k),
        b,
        out,
        active,
        dispatch,
        threads,
        isa(),
    )
}

/// The pre-rework scalar kernel, preserved verbatim as the reference the
/// property tests compare the blocked/threaded path to (and the
/// `scalar_native_ms` column of `BENCH_kernels.json`). Allocates the
/// output, like the old `Tensor::matmul` did — including its
/// then-redundant zero-fill.
///
/// # Errors
///
/// Returns a shape/rank error when operands are not conforming matrices.
pub fn matmul_scalar_ref(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    const BLOCK: usize = 64;
    let (m, k) = check_matrix(a, "matmul")?;
    let (k2, n) = check_matrix(b, "matmul")?;
    if k != k2 {
        return Err(shape_err(a, b, "matmul"));
    }
    let mut out = Tensor::zeros(&[m, n]);
    let av = a.as_slice();
    let bv = b.as_slice();
    let cv = out.as_mut_slice();
    cv.fill(0.0);
    // i-k-j loop order with blocking: unit-stride inner loop over both B and C.
    for ib in (0..m).step_by(BLOCK) {
        for kb in (0..k).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(m);
            let k_end = (kb + BLOCK).min(k);
            for i in ib..i_end {
                let c_row = &mut cv[i * n..(i + 1) * n];
                for p in kb..k_end {
                    let aval = av[i * k + p];
                    if aval == 0.0 {
                        continue; // zero-skipping: sparse activations are common here
                    }
                    let b_row = &bv[p * n..(p + 1) * n];
                    for (c, &bv_) in c_row.iter_mut().zip(b_row) {
                        *c += aval * bv_;
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        let cv = c.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
                }
                cv[i * n + j] = s;
            }
        }
        c
    }

    /// The dense packed product at an explicit worker count.
    fn dense_into(a: &Tensor, b: &Tensor, out: &mut Tensor, threads: usize) {
        matmul_sparse_dispatch_into(a, b, out, None, SparseDispatch::DenseOnly, threads)
            .unwrap();
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn(&[3, 3], |i| i as f32);
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matches_naive_on_awkward_sizes() {
        // sizes straddling the MR/NR tile boundaries and the old 64 block
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 70, 5),
            (65, 64, 66),
            (7, 129, 3),
            (6, 5, 16),
            (13, 11, 17),
            (12, 8, 32),
        ] {
            let a = Tensor::from_fn(&[m, k], |i| ((i * 7919) % 13) as f32 - 6.0);
            let b = Tensor::from_fn(&[k, n], |i| ((i * 104729) % 11) as f32 - 5.0);
            let c = a.matmul(&b).unwrap();
            let r = naive(&a, &b);
            for (x, y) in c.as_slice().iter().zip(r.as_slice()) {
                assert!((x - y).abs() < 1e-3, "mismatch at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn thread_count_is_bit_identical() {
        let (m, k, n) = (67, 43, 51);
        let a = Tensor::from_fn(&[m, k], |i| ((i * 31) % 23) as f32 * 0.25 - 2.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 17) % 19) as f32 * 0.5 - 4.0);
        let mut c1 = Tensor::zeros(&[m, n]);
        let mut c4 = Tensor::zeros(&[m, n]);
        let mut c64 = Tensor::zeros(&[m, n]);
        dense_into(&a, &b, &mut c1, 1);
        dense_into(&a, &b, &mut c4, 4);
        dense_into(&a, &b, &mut c64, 64);
        assert_eq!(c1.as_slice(), c4.as_slice());
        assert_eq!(c1.as_slice(), c64.as_slice());
    }

    /// `B` with every third `k`-row zeroed (row-structured activation
    /// sparsity, as thresholded im2col columns produce).
    fn sparse_b(k: usize, n: usize) -> Tensor {
        Tensor::from_fn(&[k, n], |i| {
            if (i / n).is_multiple_of(3) {
                0.0
            } else {
                ((i * 13) % 7) as f32 - 3.0
            }
        })
    }

    #[test]
    fn sparse_variant_matches_dense() {
        // The compacted path must match the dense packed path
        // *bit-for-bit* (skipping exact zeros is exact), under every
        // dispatch mode and thread count; the scalar reference uses
        // unfused multiply-adds, so it only agrees within rounding.
        let a =
            Tensor::from_fn(&[9, 21], |i| if i % 3 == 0 { 0.0 } else { i as f32 * 0.1 });
        let b = sparse_b(21, 14);
        let dense = a.matmul(&b).unwrap();
        let scalar = matmul_scalar_ref(&a, &b).unwrap();
        for dispatch in
            [SparseDispatch::Auto, SparseDispatch::SparseOnly, SparseDispatch::DenseOnly]
        {
            for threads in [1, 4, 32] {
                let mut sparse = Tensor::zeros(&[9, 14]);
                let stats = matmul_sparse_dispatch_into(
                    &a,
                    &b,
                    &mut sparse,
                    None,
                    dispatch,
                    threads,
                )
                .unwrap();
                assert_eq!(sparse.as_slice(), dense.as_slice(), "{dispatch:?} x{threads}");
                assert_eq!(stats.k_total, 21);
                match dispatch {
                    SparseDispatch::DenseOnly => assert!(!stats.used_sparse),
                    _ => {
                        assert_eq!(stats.k_active, 14);
                        assert!(stats.used_sparse);
                        assert_eq!(stats.rows_skipped(), 7);
                    }
                }
                for (x, y) in sparse.as_slice().iter().zip(scalar.as_slice()) {
                    assert!((x - y).abs() <= 1e-3 * y.abs().max(1.0));
                }
            }
        }
    }

    #[test]
    fn caller_supplied_rows_match_probe_and_reject_bad_lists() {
        let a = Tensor::from_fn(&[7, 30], |i| ((i * 11) % 9) as f32 * 0.5 - 2.0);
        let b = sparse_b(30, 19);
        let rows: Vec<usize> = (0..30).filter(|p| p % 3 != 0).collect();
        let threads = crate::threads::worker_count();
        let run = |out: &mut Tensor, active: Option<&[usize]>, dispatch| {
            matmul_sparse_dispatch_into(&a, &b, out, active, dispatch, threads)
        };
        let mut probed = Tensor::zeros(&[7, 19]);
        let mut listed = Tensor::zeros(&[7, 19]);
        run(&mut probed, None, SparseDispatch::Auto).unwrap();
        let stats = run(&mut listed, Some(&rows), SparseDispatch::Auto).unwrap();
        assert_eq!(listed.as_slice(), probed.as_slice());
        assert!(stats.used_sparse);
        // A conservative superset (listing a zero row as active) is
        // legal and changes nothing.
        let mut superset = Tensor::zeros(&[7, 19]);
        let mut extra = rows.clone();
        extra.push(0);
        extra.sort_unstable();
        run(&mut superset, Some(&extra), SparseDispatch::SparseOnly).unwrap();
        assert_eq!(superset.as_slice(), probed.as_slice());
        // Unsorted or out-of-range lists are rejected.
        let mut out = Tensor::zeros(&[7, 19]);
        assert!(run(&mut out, Some(&[3, 1]), SparseDispatch::Auto).is_err());
        assert!(run(&mut out, Some(&[0, 30]), SparseDispatch::Auto).is_err());
    }

    #[test]
    fn all_zero_b_gives_exact_zero_output() {
        let a = Tensor::from_fn(&[6, 40], |i| i as f32 * 0.1 - 2.0);
        let b = Tensor::zeros(&[40, 12]);
        let mut out = Tensor::full(&[6, 12], f32::NAN);
        let threads = crate::threads::worker_count();
        let stats = matmul_sparse_dispatch_into(
            &a,
            &b,
            &mut out,
            None,
            SparseDispatch::Auto,
            threads,
        )
        .unwrap();
        assert_eq!(stats.k_active, 0);
        assert!(stats.used_sparse);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn column_split_is_bit_identical_for_short_wide_outputs() {
        // m=24 rows cannot feed many workers, so the driver splits the
        // n=512 columns into NR-aligned stripes; macs (24·40·512) are
        // above THREAD_MIN_MACS, so the threaded path really runs.
        let (m, k, n) = (24, 40, 512);
        let a = Tensor::from_fn(&[m, k], |i| ((i * 31) % 23) as f32 * 0.25 - 2.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 17) % 19) as f32 * 0.5 - 4.0);
        let mut c1 = Tensor::zeros(&[m, n]);
        let mut c4 = Tensor::zeros(&[m, n]);
        let mut c33 = Tensor::zeros(&[m, n]);
        dense_into(&a, &b, &mut c1, 1);
        dense_into(&a, &b, &mut c4, 4);
        dense_into(&a, &b, &mut c33, 33);
        assert_eq!(c1.as_slice(), c4.as_slice());
        assert_eq!(c1.as_slice(), c33.as_slice());
        // Accumulate mode seeds the stripe buffers from C; the add
        // order must still match the serial driver exactly.
        let mut acc1 = Tensor::full(&[m, n], 1.5);
        let mut acc4 = Tensor::full(&[m, n], 1.5);
        let a2 = Tensor::from_fn(&[m, k], |i| (i % 5) as f32 - 2.0);
        gemm_driver(
            AOperand::Raw(a2.as_slice(), ALayout::Normal),
            isa(),
            b.as_slice(),
            BLayout::Normal,
            acc1.as_mut_slice(),
            m,
            k,
            n,
            true,
            1,
            None,
        );
        gemm_driver(
            AOperand::Raw(a2.as_slice(), ALayout::Normal),
            isa(),
            b.as_slice(),
            BLayout::Normal,
            acc4.as_mut_slice(),
            m,
            k,
            n,
            true,
            4,
            None,
        );
        assert_eq!(acc1.as_slice(), acc4.as_slice());
    }

    #[test]
    fn sparse_path_is_bit_identical_across_kc_windows() {
        // k spans multiple KC=384 windows, including one window whose
        // rows are *entirely* inactive: the first-write bookkeeping
        // must still overwrite the output exactly once.
        let (m, k, n) = (10, 3 * KC + 17, 33);
        let a = Tensor::from_fn(&[m, k], |i| ((i * 7) % 13) as f32 * 0.3 - 1.8);
        let b = Tensor::from_fn(&[k, n], |i| {
            let row = i / n;
            // Window 1 (KC..2KC) fully zero; elsewhere every 5th row zero.
            if (KC..2 * KC).contains(&row) || row % 5 == 0 {
                0.0
            } else {
                ((i * 29) % 11) as f32 - 5.0
            }
        });
        let dense = a.matmul(&b).unwrap();
        for threads in [1, 4] {
            let mut sparse = Tensor::zeros(&[m, n]);
            let stats = matmul_sparse_dispatch_into(
                &a,
                &b,
                &mut sparse,
                None,
                SparseDispatch::SparseOnly,
                threads,
            )
            .unwrap();
            assert!(stats.used_sparse);
            assert!(stats.k_active < k);
            assert_eq!(sparse.as_slice(), dense.as_slice(), "threads={threads}");
        }
    }

    /// Every microkernel arm the running CPU can execute.
    fn available_isas() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                isas.push(Isa::Avx2Fma);
            }
            if is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
        }
        isas
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packers_zero_the_padding_lanes_of_a_partial_panel() {
        // a 5-column last panel packed over a NaN-filled buffer: lanes
        // 5..NR of every packed row must come out +0.0, in every layout
        let (k, n) = (7, 21);
        let b = Tensor::from_fn(&[k, n], |i| i as f32 + 1.0);
        let bt = Tensor::from_fn(&[n, k], |i| i as f32 + 1.0);
        let act = [0usize, 2, 3, 6];
        let (c0, nb) = (NR, n - NR);
        for layout in [BLayout::Normal, BLayout::Trans] {
            let src = if matches!(layout, BLayout::Normal) { &b } else { &bt };
            let mut dense = vec![f32::NAN; k * NR];
            pack_b_chunk(src.as_slice(), layout, k, n, 0, k, c0, nb, &mut dense);
            let mut gathered = vec![f32::NAN; act.len() * NR];
            pack_b_chunk_gather(src.as_slice(), layout, k, n, &act, c0, nb, &mut gathered);
            for packed in [&dense, &gathered] {
                for row in packed.chunks_exact(NR) {
                    assert!(row[..nb].iter().all(|v| *v >= 1.0), "{row:?}");
                    assert!(row[nb..].iter().all(|v| v.to_bits() == 0), "{row:?}");
                }
            }
        }
    }

    #[test]
    fn two_panel_tile_matches_the_one_worker_reference_on_every_arm() {
        // n = 16q + r: q full panels (pairs plus an odd one) and a ragged
        // tail; m has a partial MR block; k spans two KC windows
        for q in 1..=3 {
            for r in [0, 5] {
                let (m, k, n) = (2 * MR + 3, KC + 13, NR * q + r);
                let a = Tensor::from_fn(&[m, k], |i| ((i * 31) % 23) as f32 * 0.25 - 2.0);
                let b = Tensor::from_fn(&[k, n], |i| ((i * 17) % 19) as f32 * 0.5 - 4.0);
                let pa = PrepackedA::from_weight(&a).unwrap();
                let mut reference = Tensor::zeros(&[m, n]);
                dense_into(&a, &b, &mut reference, 1);
                for kernel_isa in available_isas() {
                    for threads in [1, 2] {
                        for operand in [
                            AOperand::Raw(a.as_slice(), ALayout::Normal),
                            AOperand::Prepacked(&pa),
                        ] {
                            let mut out = Tensor::full(&[m, n], f32::NAN);
                            sparse_dispatch(
                                operand,
                                (m, k),
                                &b,
                                &mut out,
                                None,
                                SparseDispatch::DenseOnly,
                                threads,
                                kernel_isa,
                            )
                            .unwrap();
                            assert_eq!(
                                bits(out.as_slice()),
                                bits(reference.as_slice()),
                                "n={n} isa={kernel_isa:?} threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn two_panel_tile_equals_two_one_panel_tiles() {
        if !is_x86_feature_detected!("avx512f") {
            return;
        }
        let kb = 37;
        let pa: Vec<f32> =
            (0..kb * MR).map(|i| ((i * 7) % 13) as f32 * 0.3 - 1.7).collect();
        let pb: Vec<f32> =
            (0..2 * kb * NR).map(|i| ((i * 11) % 17) as f32 * 0.2 - 1.5).collect();
        let ldc = 2 * NR + 3;
        for accumulate in [false, true] {
            let seed: Vec<f32> = (0..MR * ldc).map(|i| i as f32 * 0.01).collect();
            let (mut pair, mut single) = (seed.clone(), seed);
            // SAFETY: avx512f verified above; strips and panels sized to kb.
            unsafe {
                ukern_x86::avx512_pair(kb, &pa, &pb, &mut pair, ldc, accumulate);
                ukern_x86::avx512::<MR>(
                    kb,
                    &pa,
                    &pb[..kb * NR],
                    &mut single,
                    ldc,
                    NR,
                    accumulate,
                );
                ukern_x86::avx512::<MR>(
                    kb,
                    &pa,
                    &pb[kb * NR..],
                    &mut single[NR..],
                    ldc,
                    NR,
                    accumulate,
                );
            }
            assert_eq!(bits(&pair), bits(&single), "accumulate={accumulate}");
        }
    }

    #[test]
    fn concurrent_callers_match_serial_results() {
        // four threads drive threaded GEMMs (row and column splits) through
        // the one pool at once; each result must equal the serial product
        let shapes = [(64, 200, 40), (24, 96, 512), (70, 500, 9)];
        let inputs: Vec<(Tensor, Tensor, Tensor)> = shapes
            .iter()
            .map(|&(m, k, n)| {
                let a = Tensor::from_fn(&[m, k], |i| ((i * 13) % 29) as f32 * 0.125 - 1.5);
                let b = Tensor::from_fn(&[k, n], |i| ((i * 7) % 31) as f32 * 0.25 - 3.0);
                let mut serial = Tensor::zeros(&[m, n]);
                dense_into(&a, &b, &mut serial, 1);
                (a, b, serial)
            })
            .collect();
        let inputs = std::sync::Arc::new(inputs);
        let callers: Vec<_> = (0..4)
            .map(|caller| {
                let inputs = std::sync::Arc::clone(&inputs);
                std::thread::spawn(move || {
                    for round in 0..6 {
                        let (a, b, serial) = &inputs[(caller + round) % inputs.len()];
                        let mut out = Tensor::full(serial.dims(), f32::NAN);
                        dense_into(a, b, &mut out, 2 + (caller + round) % 3);
                        assert_eq!(bits(out.as_slice()), bits(serial.as_slice()));
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a concurrent caller's products match");
        }
    }

    #[test]
    fn a_gemm_inside_a_part_completes_and_many_parts_start_few_threads() {
        let (m, k, n) = (40, 300, 100);
        let a = Tensor::from_fn(&[m, k], |i| ((i * 5) % 11) as f32 - 5.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 3) % 7) as f32 - 3.0);
        let mut serial = Tensor::zeros(&[m, n]);
        dense_into(&a, &b, &mut serial, 1);
        // a threaded GEMM called from inside a part runs inline
        let mut outs = vec![Tensor::zeros(&[m, n]), Tensor::zeros(&[m, n])];
        for_each_part(&mut outs, |_, out| dense_into(&a, &b, out, 4));
        for out in &outs {
            assert_eq!(bits(out.as_slice()), bits(serial.as_slice()));
        }
        // 64 parts run on at most hardware_cap() - 1 pool threads
        let mut wide = Tensor::zeros(&[m, n]);
        dense_into(&a, &b, &mut wide, 64);
        assert_eq!(bits(wide.as_slice()), bits(serial.as_slice()));
        let cap = crate::threads::hardware_cap();
        assert!(crate::threads::started_workers() < cap, "{cap}");
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_fn(&[4, 3], |i| (i as f32) * 0.5 - 2.0);
        let b = Tensor::from_fn(&[4, 5], |i| (i as f32) * 0.25 - 1.0);
        let tn = matmul_tn(&a, &b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        for (x, y) in tn.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }

        let c = Tensor::from_fn(&[2, 3], |i| i as f32);
        let d = Tensor::from_fn(&[4, 3], |i| (i as f32) - 5.0);
        let nt = matmul_nt(&c, &d).unwrap();
        let explicit = c.matmul(&d.transpose().unwrap()).unwrap();
        for (x, y) in nt.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn nt_accumulate_matches_two_products() {
        let a1 = Tensor::from_fn(&[4, 6], |i| (i % 7) as f32 - 3.0);
        let b1 = Tensor::from_fn(&[5, 6], |i| (i % 4) as f32 - 2.0);
        let a2 = Tensor::from_fn(&[4, 6], |i| (i % 5) as f32 - 2.0);
        let b2 = Tensor::from_fn(&[5, 6], |i| (i % 3) as f32 - 1.0);
        let mut acc = Tensor::zeros(&[4, 5]);
        matmul_nt_into_acc(&a1, &b1, &mut acc).unwrap();
        matmul_nt_into_acc(&a2, &b2, &mut acc).unwrap();
        let reference =
            matmul_nt(&a1, &b1).unwrap().add(&matmul_nt(&a2, &b2).unwrap()).unwrap();
        for (x, y) in acc.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(a.matmul(&b).is_err());
        assert!(matmul_tn(&a, &b).is_err());
        assert!(matmul_nt(&a, &b).is_err());
        assert!(Tensor::zeros(&[3]).matmul(&a).is_err());
        let mut out = Tensor::zeros(&[2, 5]);
        assert!(matmul_into(&a, &b, &mut out).is_err());
        assert!(matmul_sparse_dispatch_into(
            &a,
            &b,
            &mut out,
            None,
            SparseDispatch::Auto,
            1
        )
        .is_err());
        assert!(matmul_nt_into_acc(&a, &b, &mut out).is_err());
    }
}
