//! Prepacked weight residency and the fused threshold epilogue.
//!
//! MIME's premise is one resident weight set serving every task, yet a
//! raw-weight GEMM call repacks its weight operand on every call. This
//! module makes the packing a *load-time* step instead, with one GEMM
//! entry point per resident form:
//!
//! * [`PrepackedA`] holds the conv weights, which enter the im2col GEMM
//!   as the `A` operand: the `MR`-row strips the drivers would gather out
//!   of the raw `[K, C·R·S]` matrix on every call are built once, and
//!   [`matmul_prepacked_a_into`] /
//!   [`crate::conv2d_sparse_prepacked_with_scratch`] read them in place
//!   (channel compaction copies whole strip rows instead of gathering
//!   strided elements). The drivers keep their worker split — only the
//!   row split spawns its workers once per column block instead of once
//!   per depth window, since a resident window's sweep costs less than
//!   a spawn — and the microkernels read the same bytes in the same
//!   order, so the output is bit-identical to the raw-`A` call
//!   [`crate::matmul_sparse_dispatch_into`].
//! * [`PrepackedB`] holds the FC weights in the blocked panel layout —
//!   `⌈n/NR⌉` panels of `NR` columns, `p`-major, built exactly once and
//!   shared read-only (the runtime wraps it in an `Arc`). Each `KC` depth
//!   window of a panel is bit-for-bit what the per-call `B` packer would
//!   have produced for that window.
//! * [`matmul_fused_batch_into`] (and its `B = 1` case
//!   [`matmul_fused_row_into`]) is the FC fast path over a [`PrepackedB`]:
//!   the layer is flipped to `x_row[1,k] · Wᵀ[k,n]` (a `[1,n]` row and an
//!   `[n,1]` column have the same flat layout, so no transpose is ever
//!   materialized — see [`PrepackedB::from_weight_transposed`]) and the
//!   per-neuron threshold compare + zero-mask + activity bitmap are fused
//!   into the kernel's epilogue, eliminating the second full pass over
//!   the activations. Multiplication commutes exactly in IEEE-754, and
//!   the fused kernel reproduces the unfused path's depth-window grouping
//!   and per-element `p`-order, so the flipped product is bit-identical
//!   to the unflipped one.
//!
//! The fused kernel is the portable (autovectorized) implementation in
//! both its dense and row-skipping forms, with the same
//! compile-time-FMA gating as the GEMM's portable microkernel.
//! Under the repo's committed build flags (`-C target-cpu=native`) the
//! compile-time FMA feature matches the runtime CPU, so all kernel arms
//! perform the same correctly-rounded fused multiply-adds and the
//! fused path stays bit-identical to the dispatched unfused path.

use crate::matmul::{
    isa, pack_a, pack_b_chunk, sparse_dispatch, ALayout, AOperand, BLayout, KC,
    THREAD_MIN_MACS,
};
use crate::{
    Result, SparseDispatch, SparseStats, Tensor, TensorError, MR, NR, SPARSE_ACTIVE_MAX,
};

/// A `B` operand packed once into the blocked microkernel layout,
/// stored **`KC`-window-major**: for each depth window `p0..p0+kb` (the
/// same `KC` windows the GEMM drivers iterate), the `⌈n/NR⌉` panels'
/// `kb×NR` window slices sit contiguously — window `p0` starts at
/// `p0·⌈n/NR⌉·NR`, and panel `jp`'s slice within it at `jp·kb·NR`. Each
/// window region is therefore byte-for-byte the packed block the GEMM
/// drivers' per-call `B` packer builds for that window (column range
/// `0..n`), so [`matmul_fused_batch_into`] streams it with unit stride.
///
/// Window-major keeps each depth window one contiguous block, exactly as
/// cache-friendly as the dense driver's scratch block. A panel-major
/// layout (full-depth `k×NR` panels side by side) puts one window's
/// slices `k·NR` floats apart — at `k` ≥ 1152 a near power-of-two byte
/// stride, so the slices collide on a handful of L2 cache colors.
///
/// Build it once per weight matrix at model-load time and share it
/// read-only (e.g. behind an `Arc`) across worker threads; the packing
/// cost then never appears on the request path.
#[derive(Debug, Clone)]
pub struct PrepackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PrepackedB {
    /// Packs a weight matrix stored as `Bᵀ: [n, k]` row-major — the FC
    /// flip. An FC layer computes `W[n,k] · x[k,1]`; prepacking `W` as
    /// the *B* operand of `x_row[1,k] · Wᵀ[k,n]` folds the transpose
    /// into packing, and since `[n,1]` and `[1,n]` outputs share one
    /// flat layout, no transpose is ever materialized on either side.
    ///
    /// `w` may have any rank (FC weights ride along as `[n, k, 1, 1]`);
    /// only its flat length is checked.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `w.len() != n·k`.
    pub fn from_weight_transposed(w: &Tensor, k: usize, n: usize) -> Result<Self> {
        if w.len() != n * k {
            return Err(TensorError::LengthMismatch { expected: n * k, actual: w.len() });
        }
        let npanels = n.div_ceil(NR).max(1);
        let mut panels = vec![0.0f32; npanels * k * NR];
        if k > 0 && n > 0 {
            // One pack per KC window: `pack_b_chunk` over the full column
            // range lays the window's panels contiguously, which is
            // exactly this struct's window-major contract.
            let mut p0 = 0;
            while p0 < k {
                let kb = KC.min(k - p0);
                pack_b_chunk(
                    w.as_slice(),
                    BLayout::Trans,
                    k,
                    n,
                    p0,
                    kb,
                    0,
                    n,
                    &mut panels[p0 * npanels * NR..][..npanels * kb * NR],
                );
                p0 += kb;
            }
        }
        Ok(PrepackedB { k, n, panels })
    }

    /// Depth (`k`-rows) of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Width (`n`-columns) of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Heap bytes held by the packed panels (the prepack residency cost
    /// published as `mime_prepack_bytes`).
    pub fn bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }

    /// The depth window `p0..p0+kb` of panel `jp`, contiguous `kb·NR`
    /// floats — bit-identical to what `pack_b_chunk` would produce for
    /// that window. `p0`/`kb` must name a whole `KC` window (`p0` a
    /// multiple of [`KC`], `kb = KC.min(k - p0)`), which is the only
    /// granularity the drivers iterate at.
    #[inline]
    fn window(&self, jp: usize, p0: usize, kb: usize) -> &[f32] {
        let npanels = self.n.div_ceil(NR).max(1);
        &self.panels[p0 * npanels * NR + jp * kb * NR..][..kb * NR]
    }
}

/// An `A` operand `[m, k]` packed once into the strips the GEMM drivers
/// otherwise build per call, stored **`KC`-window-major** like
/// [`PrepackedB`]: for each depth window `p0..p0+kb`, the `MR`-row blocks'
/// strips sit contiguously — window `p0` starts at `p0·m`, the block at
/// row `i0` within it at `i0·kb`, and each strip holds `A[i0+ii, p0+p]`
/// at `p·mr + ii` (`mr ≤ MR` rows, the last block partial). Each strip is
/// byte-for-byte what the GEMM drivers' per-call `A` packer writes for
/// that window and block, and the strips tile exactly `m·k` floats.
///
/// This is the conv weight's resident form: the im2col GEMM multiplies
/// `W[K, C·R·S]` (the `A` side) by the lowered activations, and at the
/// small spatial extents of the late layers the per-call strip gather —
/// `MR` rows read at stride `C·R·S` — dominates the layer. Build it once
/// per weight at model-load time and share it read-only.
#[derive(Debug, Clone)]
pub struct PrepackedA {
    m: usize,
    k: usize,
    strips: Vec<f32>,
}

impl PrepackedA {
    /// Packs a weight whose leading axis is the output (`m`) axis: a
    /// `[m, k]` matrix, or a conv weight `[K, C, R, S]` taken as the
    /// `[K, C·R·S]` matrix the im2col lowering multiplies.
    ///
    /// # Errors
    ///
    /// Returns a rank error for a tensor of rank below 2.
    pub fn from_weight(w: &Tensor) -> Result<Self> {
        if w.rank() < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: w.rank(),
                op: "prepack_a",
            });
        }
        let m = w.dims()[0];
        let k: usize = w.dims()[1..].iter().product();
        let mut strips = vec![0.0f32; m * k];
        let mut p0 = 0;
        while p0 < k {
            let kb = KC.min(k - p0);
            let mut i0 = 0;
            while i0 < m {
                let mr = MR.min(m - i0);
                pack_a(
                    w.as_slice(),
                    ALayout::Normal,
                    m,
                    k,
                    p0,
                    kb,
                    i0,
                    mr,
                    &mut strips[p0 * m + i0 * kb..][..kb * mr],
                );
                i0 += mr;
            }
            p0 += kb;
        }
        Ok(PrepackedA { m, k, strips })
    }

    /// Rows (`m`, the output channels) of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Depth (`k`, the `C·R·S` taps) of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Heap bytes held by the packed strips.
    pub fn bytes(&self) -> usize {
        self.strips.len() * std::mem::size_of::<f32>()
    }

    /// The strip of rows `i0..i0+mr` over the depth window `p0..p0+kb`.
    /// `p0`/`kb` must name a whole `KC` window and `i0` start an `MR`
    /// block, the only granularity the drivers iterate at.
    #[inline]
    pub(crate) fn strip(&self, p0: usize, kb: usize, i0: usize, mr: usize) -> &[f32] {
        &self.strips[p0 * self.m + i0 * kb..][..kb * mr]
    }

    /// The strip compacted to the depth rows in `act` (ascending, inside
    /// the window `p0..p0+kb`): row `p` of `pa` is the strip's row
    /// `act[p]`, `mr` contiguous floats — what `pack_a_gather` builds
    /// from the raw matrix.
    #[allow(clippy::too_many_arguments)] // mirrors the driver's window/block coordinates
    pub(crate) fn gather(
        &self,
        p0: usize,
        kb: usize,
        act: &[usize],
        i0: usize,
        mr: usize,
        pa: &mut [f32],
    ) {
        let strip = self.strip(p0, kb, i0, mr);
        if mr == MR {
            // Full blocks move each row as one fixed-size array instead of a
            // length-`mr` `copy_from_slice` (a memcpy call per row). Measured
            // on the resident_sparse shapes (2-vCPU avx512, median of 101
            // calls, 4 alternating runs): 25–35 % faster, e.g. conv9_b1 at 2
            // threads 1.25 → 0.87 ms and conv4_b1 at 1 thread 1.05 → 0.69 ms.
            for (dst, &pp) in pa.chunks_exact_mut(MR).zip(act) {
                let src: &[f32; MR] =
                    strip[(pp - p0) * MR..][..MR].try_into().expect("an MR-float row");
                let dst: &mut [f32; MR] = dst.try_into().expect("an MR-float chunk");
                *dst = *src;
            }
        } else {
            for (dst, &pp) in pa.chunks_exact_mut(mr).zip(act) {
                dst.copy_from_slice(&strip[(pp - p0) * mr..][..mr]);
            }
        }
    }
}

/// `C = A·B` with `A` resident: the sparse dispatcher of
/// [`crate::matmul_sparse_dispatch_into`] over strips packed once — the
/// one GEMM entry point for a [`PrepackedA`]. `active` lists the `k`-rows of `B` that may be nonzero (strictly
/// ascending, all `< k`; unlisted rows must be zero), or `None` to probe
/// `B`. Output and [`SparseStats`] are bit-identical to the raw-`A` call
/// on the matrix `a` was packed from, at every worker count.
///
/// # Errors
///
/// Returns a shape/rank error when `b`/`out` do not conform to `a`, or
/// [`TensorError::InvalidGeometry`] for a malformed `active` list.
pub fn matmul_prepacked_a_into(
    a: &PrepackedA,
    b: &Tensor,
    out: &mut Tensor,
    active: Option<&[usize]>,
    dispatch: SparseDispatch,
    threads: usize,
) -> Result<SparseStats> {
    sparse_dispatch(
        AOperand::Prepacked(a),
        (a.m, a.k),
        b,
        out,
        active,
        dispatch,
        threads,
        isa(),
    )
}

// ---------------------------------------------------------------------------
// Fused row kernel (FC fast path)
// ---------------------------------------------------------------------------

/// The activation applied by the fused epilogue as the output leaves the
/// kernel — the same arithmetic the unfused path applies in its separate
/// pass, so fusing changes no bits.
#[derive(Debug, Clone, Copy)]
pub enum FusedMask<'a> {
    /// No activation (classifier head): bias add only.
    None,
    /// Baseline ReLU: `v.max(0.0)`.
    Relu,
    /// MIME eq. (2) per-neuron compare-and-zero: keep `v` iff
    /// `v - t[j] >= 0.0`, else exact `0.0`. One threshold per output
    /// column.
    Thresholds(&'a [f32]),
}

/// `p`-order-preserving fused multiply-add, gated exactly like the
/// portable microkernel: with a hardware FMA `mul_add` lowers to
/// `vfmadd`; without one it would be a libm call, so the unfused form is
/// used instead.
#[inline(always)]
fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The fused `1×n` compute over one contiguous panel range: columns
/// `jp0·NR .. jp0·NR + out.len()`. Per depth window a window accumulator
/// is summed in the same per-element `p`-order as the microkernels, then
/// copied (first window) or added (later windows) into `out` — the exact
/// memory-accumulation order of the blocked driver. With a row bitmap,
/// inactive rows are skipped and fully-inactive windows never touch
/// `out`, mirroring the compacting sparse path (skipped rows contribute
/// exact `±0.0` terms, which never change an accumulator's bits).
fn fused_stripe(
    x: &[f32],
    pb: &PrepackedB,
    rows: Option<&[bool]>,
    jp0: usize,
    out: &mut [f32],
) {
    let k = pb.k;
    let nb = out.len();
    // Panel-outer order: each panel's `k·NR` floats stream sequentially
    // (one hardware-prefetchable stream at a time), while `x` — tiny by
    // comparison — is re-read per panel from cache. Output elements are
    // arithmetically independent, so relative to a depth-outer loop this
    // changes only the order *across* columns, never the bits of any one
    // column: per element it is still active windows in increasing `p0`,
    // `p`-ascending register accumulation within a window, first active
    // window copied and later ones added.
    let mut j = 0;
    let mut jp = jp0;
    while j < nb {
        let nv = NR.min(nb - j);
        let o = &mut out[j..j + nv];
        let mut first = true;
        let mut p0 = 0;
        while p0 < k {
            let kb = KC.min(k - p0);
            let window_active = rows.is_none_or(|r| r[p0..p0 + kb].iter().any(|&a| a));
            if window_active {
                let wslice = pb.window(jp, p0, kb);
                // Full-NR accumulator even for the ragged last panel: its
                // padding lanes multiply the panel's zero fill and are
                // never stored.
                let mut wacc = [0.0f32; NR];
                for (p, &a) in x.iter().enumerate().take(p0 + kb).skip(p0) {
                    if rows.is_some_and(|r| !r[p]) {
                        continue;
                    }
                    // Fixed-size views keep the lane loop free of bounds
                    // checks so it vectorizes cleanly.
                    let brow: &[f32; NR] =
                        wslice[(p - p0) * NR..][..NR].try_into().unwrap();
                    for l in 0..NR {
                        wacc[l] = fmadd(a, brow[l], wacc[l]);
                    }
                }
                if first {
                    // Copy, don't add onto a zero-initialised buffer: a
                    // `-0.0` window sum must land as `-0.0`, exactly as
                    // the microkernel's overwrite store does.
                    o.copy_from_slice(&wacc[..nv]);
                } else {
                    for (ov, w) in o.iter_mut().zip(&wacc) {
                        *ov += *w;
                    }
                }
                first = false;
            }
            p0 += kb;
        }
        if first {
            o.fill(0.0);
        }
        j += nv;
        jp += 1;
    }
}

/// The fused epilogue over one column range: bias add, activation mask,
/// and the per-column activity bit, applied as the values leave the
/// compute — this is the pass that used to be a second full sweep over
/// the activation tensor.
fn fused_epilogue(
    out: &mut [f32],
    activity: &mut [bool],
    bias: &[f32],
    mask: &FusedMask<'_>,
    j0: usize,
) {
    for (j, (v, act)) in out.iter_mut().zip(activity.iter_mut()).enumerate() {
        let mut y = *v + bias[j];
        y = match mask {
            FusedMask::None => y,
            FusedMask::Relu => y.max(0.0),
            FusedMask::Thresholds(t) => {
                // same comparison the array's drain stage applies
                // (eq. (2)): keep the accumulator iff acc - t >= 0
                if y - t[j0 + j] >= 0.0 {
                    y
                } else {
                    0.0
                }
            }
        };
        *v = y;
        *act = y != 0.0;
    }
}

/// `out = mask(x_row · B + bias)` with `B` prepacked — the FC fast path
/// with the threshold epilogue fused in. `x` holds the `k` input values
/// and `out` the `n` outputs (any shapes of those lengths); the
/// per-column activity bitmap (`out[j] != 0.0`) is written into
/// `activity`, so the downstream sparse dispatcher needs no re-scan
/// pass.
///
/// Sparsity semantics mirror [`crate::matmul_sparse_dispatch_into`]:
/// `active` (when given) lists which input rows may be nonzero, rows not
/// marked **must** be exactly zero; with `active = None` and a
/// non-dense dispatch the input is probed. The
/// [`SPARSE_ACTIVE_MAX`] crossover and [`SparseDispatch`] modes apply
/// unchanged, and the output is bit-identical whichever arm runs.
///
/// This is the `B = 1` case of [`matmul_fused_batch_into`]: both run the
/// same checks, dispatch and column split.
///
/// # Errors
///
/// Returns a length error when `x`, `bias`, `out`, a threshold vector,
/// or `active` disagree with the packed operand's `k`/`n`.
#[allow(clippy::too_many_arguments)] // flat kernel-entry plumbing
pub fn matmul_fused_row_into(
    x: &Tensor,
    pb: &PrepackedB,
    bias: &Tensor,
    mask: FusedMask<'_>,
    active: Option<&[bool]>,
    dispatch: SparseDispatch,
    out: &mut Tensor,
    activity: &mut Vec<bool>,
    threads: usize,
) -> Result<SparseStats> {
    let stats = fused_rows_into(
        x.as_slice(),
        pb,
        bias,
        &[mask],
        &[active],
        dispatch,
        out.as_mut_slice(),
        activity,
        threads,
    )?;
    Ok(stats[0])
}

// ---------------------------------------------------------------------------
// Batched fused row kernel (Pipelined FC fast path)
// ---------------------------------------------------------------------------

/// Per-sample row selection for the batched fused kernel: the resolved
/// outcome of the probe-or-given dispatch, held per sample so borrowed
/// and probed bitmaps coexist.
enum RowSel<'a> {
    Dense,
    Given(&'a [bool]),
    Probed(Vec<bool>),
}

impl RowSel<'_> {
    fn rows(&self) -> Option<&[bool]> {
        match self {
            RowSel::Dense => None,
            RowSel::Given(r) => Some(r),
            RowSel::Probed(r) => Some(r),
        }
    }
}

/// Batched [`matmul_fused_row_into`]: `B` stacked input rows against one
/// prepacked operand, each sample with its *own* activation mask (the
/// per-task threshold bank — MIME's Pipelined mode) and its own input
/// activity bitmap. Each packed weight panel is streamed from memory
/// once per **batch** instead of once per request — inside a column
/// stripe the loop is panel-outer, sample-inner, so the `k·NR` panel
/// stays cache-hot while every sample consumes it.
///
/// Per sample the arithmetic does not depend on the batch: same
/// per-panel window grouping, same `p`-ascending accumulation, same
/// probe/crossover dispatch decision, same fused epilogue. Sample `s`'s
/// output row and activity bits are therefore **bit-identical** to
/// calling [`matmul_fused_row_into`] on it alone, at every thread count.
///
/// `xs` is `[B, k]`, `out` is `[B, n]`, `activity` is resized to `B·n`
/// (row-major like `out`); `masks` and `actives` give one entry per
/// sample. Returns per-sample [`SparseStats`].
///
/// # Errors
///
/// Returns a shape/length error when any operand disagrees with the
/// packed `k`/`n` or the batch size.
#[allow(clippy::too_many_arguments)] // flat kernel-entry plumbing
pub fn matmul_fused_batch_into(
    xs: &Tensor,
    pb: &PrepackedB,
    bias: &Tensor,
    masks: &[FusedMask<'_>],
    actives: &[Option<&[bool]>],
    dispatch: SparseDispatch,
    out: &mut Tensor,
    activity: &mut Vec<bool>,
    threads: usize,
) -> Result<Vec<SparseStats>> {
    if xs.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: xs.rank(),
            op: "matmul_fused_batch",
        });
    }
    let b = xs.dims()[0];
    if out.dims() != [b, pb.n] {
        return Err(TensorError::ShapeMismatch {
            lhs: out.dims().to_vec(),
            rhs: vec![b, pb.n],
            op: "matmul_fused_batch",
        });
    }
    if masks.len() != b {
        return Err(TensorError::LengthMismatch { expected: b, actual: masks.len() });
    }
    fused_rows_into(
        xs.as_slice(),
        pb,
        bias,
        masks,
        actives,
        dispatch,
        out.as_mut_slice(),
        activity,
        threads,
    )
}

/// The fused-row kernel behind both public entry points: `B =
/// masks.len()` rows of `xv` (`B·k` floats) into `ov` (`B·n` floats).
#[allow(clippy::too_many_arguments)] // flat kernel-entry plumbing
fn fused_rows_into(
    xv: &[f32],
    pb: &PrepackedB,
    bias: &Tensor,
    masks: &[FusedMask<'_>],
    actives: &[Option<&[bool]>],
    dispatch: SparseDispatch,
    ov: &mut [f32],
    activity: &mut Vec<bool>,
    threads: usize,
) -> Result<Vec<SparseStats>> {
    let (k, n, b) = (pb.k, pb.n, masks.len());
    if xv.len() != b * k {
        return Err(TensorError::LengthMismatch { expected: b * k, actual: xv.len() });
    }
    if ov.len() != b * n {
        return Err(TensorError::LengthMismatch { expected: b * n, actual: ov.len() });
    }
    if bias.len() != n {
        return Err(TensorError::LengthMismatch { expected: n, actual: bias.len() });
    }
    if actives.len() != b {
        return Err(TensorError::LengthMismatch { expected: b, actual: actives.len() });
    }
    for mask in masks {
        if let FusedMask::Thresholds(t) = mask {
            if t.len() != n {
                return Err(TensorError::LengthMismatch { expected: n, actual: t.len() });
            }
        }
    }
    for act in actives.iter().flatten() {
        if act.len() != k {
            return Err(TensorError::LengthMismatch { expected: k, actual: act.len() });
        }
    }
    // Per-sample dispatch: the decision depends only on that sample's
    // row and activity list, never on the rest of the batch.
    let mut sels = Vec::with_capacity(b);
    let mut stats = Vec::with_capacity(b);
    for (s, active) in actives.iter().enumerate() {
        if dispatch == SparseDispatch::DenseOnly {
            sels.push(RowSel::Dense);
            stats.push(SparseStats { k_total: k, k_active: k, used_sparse: false });
            continue;
        }
        // probe the input row when no activity list was given: `-0.0`
        // counts as zero, exactly as the unfused probe treats B's k-rows
        let sel = match active {
            Some(act) => RowSel::Given(act),
            None => RowSel::Probed(xv[s * k..][..k].iter().map(|&v| v != 0.0).collect()),
        };
        let k_active = sel.rows().map_or(k, |r| r.iter().filter(|&&a| a).count());
        let use_sparse = dispatch == SparseDispatch::SparseOnly
            || (k_active as f64) <= SPARSE_ACTIVE_MAX * k as f64;
        sels.push(if use_sparse { sel } else { RowSel::Dense });
        stats.push(SparseStats { k_total: k, k_active, used_sparse: use_sparse });
    }
    activity.clear();
    activity.resize(b * n, false);
    if b == 0 || n == 0 {
        return Ok(stats);
    }
    let bv = bias.as_slice();
    let macs: u128 = stats.iter().map(|s| s.k_active as u128 * n as u128).sum();
    let col_panels = n.div_ceil(NR);
    let workers = if macs < THREAD_MIN_MACS { 1 } else { threads.max(1).min(col_panels) };

    // Panel-outer, sample-inner compute over one worker's column stripe,
    // which starts at panel `jp0`. `outs[s]` is sample `s`'s chunk of the
    // stripe's columns.
    let run_stripe = |outs: &mut [&mut [f32]], acts: &mut [&mut [bool]], jp0: usize| {
        let (j_lo, width) = (jp0 * NR, outs[0].len());
        let mut j = 0;
        let mut jp = jp0;
        while j < width {
            let nv = NR.min(width - j);
            for (s, o) in outs.iter_mut().enumerate() {
                fused_stripe(
                    &xv[s * k..(s + 1) * k],
                    pb,
                    sels[s].rows(),
                    jp,
                    &mut o[j..j + nv],
                );
            }
            j += nv;
            jp += 1;
        }
        for (s, (o, a)) in outs.iter_mut().zip(acts.iter_mut()).enumerate() {
            fused_epilogue(o, a, &bv[j_lo..j_lo + width], &masks[s], j_lo);
        }
    };

    // Column-stripe split on panel boundaries: each worker owns its
    // column range of every sample's output row and activity bits, so
    // the split is plain `split_at_mut` and every element is produced by
    // exactly one worker with the serial arithmetic.
    let (base, extra) = (col_panels / workers, col_panels % workers);
    // (first panel, per-sample output slices, per-sample activity slices)
    type StripeSlot<'a> = (usize, Vec<&'a mut [f32]>, Vec<&'a mut [bool]>);
    let mut slots: Vec<StripeSlot<'_>> = Vec::with_capacity(workers);
    let mut widths = Vec::with_capacity(workers);
    let mut panel = 0usize;
    for w in 0..workers {
        let jp0 = panel;
        panel += base + usize::from(w < extra);
        widths.push(n.min(panel * NR) - jp0 * NR);
        slots.push((jp0, Vec::with_capacity(b), Vec::with_capacity(b)));
    }
    for (mut row, mut arow) in ov.chunks_mut(n).zip(activity.chunks_mut(n)) {
        for ((_, outs, acts), &width) in slots.iter_mut().zip(&widths) {
            let (chunk, rest) = std::mem::take(&mut row).split_at_mut(width);
            row = rest;
            outs.push(chunk);
            let (achunk, arest) = std::mem::take(&mut arow).split_at_mut(width);
            arow = arest;
            acts.push(achunk);
        }
    }
    if let [(jp0, outs, acts)] = &mut slots[..] {
        run_stripe(outs, acts, *jp0);
        return Ok(stats);
    }
    std::thread::scope(|scope| {
        for (jp0, mut outs, mut acts) in slots {
            let run_stripe = &run_stripe;
            scope.spawn(move || run_stripe(&mut outs, &mut acts, jp0));
        }
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::Isa;
    use crate::matmul_sparse_dispatch_into;

    /// The dense raw-`A` product at one worker: the reference every
    /// resident path must reproduce bit for bit.
    fn dense_reference(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        matmul_sparse_dispatch_into(a, b, out, None, SparseDispatch::DenseOnly, 1).unwrap();
    }

    /// Every microkernel arm the running CPU can execute. The property
    /// tests drive the prepacked driver through each of them explicitly
    /// — the on-the-fly reference always uses the best arm, so equality
    /// across this list is exactly the cross-arm bit-identity claim.
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

    fn det(seed: u64, i: usize, m: u64) -> f32 {
        (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % m) as f32) * 0.25 - 1.5
    }

    fn mat(dims: &[usize], seed: u64, m: u64) -> Tensor {
        Tensor::from_fn(dims, |i| det(seed, i, m))
    }

    #[test]
    fn prepacked_a_matches_raw_a_bitwise_on_every_arm() {
        // partial MR blocks (61, 13), more than one KC window (k ≥ 385),
        // n < NR, and macs above THREAD_MIN_MACS so threads 2 and 5 take
        // the row split (n < m) and the column split (n ≥ m)
        for &(m, k, n) in &[(61, 1152, 4), (13, 900, 64), (8, 385, 3), (5, 7, 1)] {
            let a = mat(&[m, k], 3, 19);
            let mut b = mat(&[k, n], 5, 17);
            // zero every third row plus the whole second KC window, and
            // list the rest as the caller-given activity
            let active: Vec<usize> =
                (0..k).filter(|p| p % 3 != 1 && !(KC..2 * KC).contains(p)).collect();
            for p in (0..k).filter(|p| active.binary_search(p).is_err()) {
                b.as_mut_slice()[p * n..(p + 1) * n].fill(0.0);
            }
            let pa = PrepackedA::from_weight(&a).unwrap();
            assert_eq!((pa.m(), pa.k(), pa.bytes()), (m, k, m * k * 4));
            let mut reference = Tensor::zeros(&[m, n]);
            dense_reference(&a, &b, &mut reference);
            let cases: [(SparseDispatch, Option<&[usize]>); 3] = [
                (SparseDispatch::DenseOnly, None),
                (SparseDispatch::SparseOnly, None),
                (SparseDispatch::SparseOnly, Some(&active)),
            ];
            for (dispatch, rows) in cases {
                for kernel_isa in available_isas() {
                    for threads in [1usize, 2, 5] {
                        let what = format!(
                            "m={m} k={k} n={n} {dispatch:?} given={} isa={kernel_isa:?} \
                             threads={threads}",
                            rows.is_some()
                        );
                        let run = |operand| {
                            let mut out = Tensor::full(&[m, n], f32::NAN);
                            let stats = sparse_dispatch(
                                operand,
                                (m, k),
                                &b,
                                &mut out,
                                rows,
                                dispatch,
                                threads,
                                kernel_isa,
                            )
                            .unwrap();
                            (out, stats)
                        };
                        let (raw, raw_stats) =
                            run(AOperand::Raw(a.as_slice(), ALayout::Normal));
                        let (res, res_stats) = run(AOperand::Prepacked(&pa));
                        let bits = |t: &Tensor| -> Vec<u32> {
                            t.as_slice().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&res), bits(&raw), "{what}");
                        assert_eq!(bits(&res), bits(&reference), "{what}");
                        assert_eq!(res_stats, raw_stats, "{what}");
                    }
                }
            }
            // the public entry runs the same dispatcher
            let mut out = Tensor::zeros(&[m, n]);
            let stats = matmul_prepacked_a_into(
                &pa,
                &b,
                &mut out,
                Some(&active),
                SparseDispatch::Auto,
                2,
            )
            .unwrap();
            assert_eq!(stats.k_active, active.len());
            assert_eq!(out.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn prepacked_a_rejects_mismatched_operands() {
        assert!(PrepackedA::from_weight(&Tensor::zeros(&[6])).is_err());
        let pa = PrepackedA::from_weight(&mat(&[4, 6], 1, 7)).unwrap();
        let mut out = Tensor::zeros(&[4, 3]);
        let run = |b: &Tensor, out: &mut Tensor, rows: Option<&[usize]>| {
            matmul_prepacked_a_into(&pa, b, out, rows, SparseDispatch::Auto, 1)
        };
        assert!(run(&Tensor::zeros(&[5, 3]), &mut out, None).is_err(), "depth");
        assert!(run(&Tensor::zeros(&[6, 2]), &mut out, None).is_err(), "output shape");
        assert!(run(&Tensor::zeros(&[6, 3]), &mut out, Some(&[2, 1])).is_err(), "order");
        assert!(run(&Tensor::zeros(&[6, 3]), &mut out, Some(&[6])).is_err(), "range");
    }

    #[test]
    fn fused_row_matches_unflipped_fc_bitwise() {
        // W[n,k]·x[k,1] computed conventionally vs the flipped fused
        // kernel over prepacked Wᵀ — must agree bit-for-bit (commuted
        // multiplies, same window grouping, same p-order).
        let (k, n) = (900, 75);
        let w = mat(&[n, k], 11, 21);
        let x = mat(&[k], 13, 15);
        let x_col = x.reshape(&[k, 1]).unwrap();
        let mut reference = Tensor::zeros(&[n, 1]);
        dense_reference(&w, &x_col, &mut reference);
        let pb = PrepackedB::from_weight_transposed(&w, k, n).unwrap();
        assert_eq!((pb.k(), pb.n()), (k, n));
        assert!(pb.bytes() >= k * n * 4);
        let bias = Tensor::zeros(&[n]);
        for threads in [1usize, 3] {
            let mut out = Tensor::zeros(&[n]);
            let mut act = Vec::new();
            let stats = matmul_fused_row_into(
                &x,
                &pb,
                &bias,
                FusedMask::None,
                None,
                SparseDispatch::DenseOnly,
                &mut out,
                &mut act,
                threads,
            )
            .unwrap();
            assert!(!stats.used_sparse);
            assert_eq!(out.as_slice(), reference.as_slice(), "threads={threads}");
            for (v, a) in out.as_slice().iter().zip(&act) {
                assert_eq!(*a, *v != 0.0);
            }
        }
    }

    #[test]
    fn fused_sparse_and_dense_arms_are_bit_identical() {
        let (k, n) = (800, 40);
        let w = mat(&[n, k], 17, 13);
        let mut x = mat(&[k], 19, 11);
        // zero ~60% of the input rows, including one whole KC window
        let mut active = vec![true; k];
        for (p, act) in active.iter_mut().enumerate() {
            if p % 5 != 0 || (384..768).contains(&p) {
                x.as_mut_slice()[p] = 0.0;
                *act = false;
            }
        }
        let pb = PrepackedB::from_weight_transposed(&w, k, n).unwrap();
        let bias = mat(&[n], 23, 9);
        let t = Tensor::from_fn(&[n], |i| det(29, i, 7).abs() * 0.2);
        let run = |dispatch, act_in: Option<&[bool]>, threads| {
            let mut out = Tensor::zeros(&[n]);
            let mut act = Vec::new();
            let stats = matmul_fused_row_into(
                &x,
                &pb,
                &bias,
                FusedMask::Thresholds(t.as_slice()),
                act_in,
                dispatch,
                &mut out,
                &mut act,
                threads,
            )
            .unwrap();
            (out, act, stats)
        };
        let (dense, dense_act, dstats) = run(SparseDispatch::DenseOnly, None, 1);
        assert!(!dstats.used_sparse);
        for dispatch in [SparseDispatch::Auto, SparseDispatch::SparseOnly] {
            for act_in in [None, Some(&active[..])] {
                for threads in [1usize, 4] {
                    let (out, act, stats) = run(dispatch, act_in, threads);
                    assert!(stats.used_sparse);
                    assert_eq!(stats.k_total, k);
                    assert!(stats.rows_skipped() > 0);
                    assert_eq!(
                        out.as_slice(),
                        dense.as_slice(),
                        "dispatch={dispatch:?} given={} threads={threads}",
                        act_in.is_some()
                    );
                    assert_eq!(act, dense_act);
                }
            }
        }
    }

    #[test]
    fn fused_epilogue_masks_match_the_unfused_reference() {
        let (k, n) = (100, 33);
        let w = mat(&[n, k], 31, 19);
        let x = mat(&[k], 37, 17);
        let bias = mat(&[n], 41, 5);
        let x_col = x.reshape(&[k, 1]).unwrap();
        let mut gemm = Tensor::zeros(&[n, 1]);
        dense_reference(&w, &x_col, &mut gemm);
        let pb = PrepackedB::from_weight_transposed(&w, k, n).unwrap();
        let t = Tensor::from_fn(&[n], |i| det(43, i, 9) * 0.1);
        for (mask, expect) in [
            (
                FusedMask::Relu,
                (0..n)
                    .map(|j| (gemm.as_slice()[j] + bias.as_slice()[j]).max(0.0))
                    .collect::<Vec<f32>>(),
            ),
            (
                FusedMask::Thresholds(t.as_slice()),
                (0..n)
                    .map(|j| {
                        let v = gemm.as_slice()[j] + bias.as_slice()[j];
                        if v - t.as_slice()[j] >= 0.0 {
                            v
                        } else {
                            0.0
                        }
                    })
                    .collect::<Vec<f32>>(),
            ),
        ] {
            let mut out = Tensor::zeros(&[n]);
            let mut act = Vec::new();
            matmul_fused_row_into(
                &x,
                &pb,
                &bias,
                mask,
                None,
                SparseDispatch::Auto,
                &mut out,
                &mut act,
                1,
            )
            .unwrap();
            assert_eq!(out.as_slice(), &expect[..]);
            let expect_act: Vec<bool> = expect.iter().map(|&v| v != 0.0).collect();
            assert_eq!(act, expect_act);
        }
    }

    #[test]
    fn fused_row_agrees_with_sparse_dispatch_reference() {
        // the unflipped sparse path (W as A, x as single-column B) vs the
        // flipped fused kernel with the same activity list
        let (k, n) = (500, 24);
        let w = mat(&[n, k], 47, 29);
        let mut x = mat(&[k], 53, 31);
        let mut active = vec![false; k];
        let mut rows = Vec::new();
        for p in (0..k).step_by(3) {
            active[p] = true;
            rows.push(p);
        }
        for (p, &act) in active.iter().enumerate() {
            if !act {
                x.as_mut_slice()[p] = 0.0;
            }
        }
        let x_col = x.reshape(&[k, 1]).unwrap();
        let mut reference = Tensor::zeros(&[n, 1]);
        let ref_stats = matmul_sparse_dispatch_into(
            &w,
            &x_col,
            &mut reference,
            Some(&rows),
            SparseDispatch::SparseOnly,
            crate::threads::worker_count(),
        )
        .unwrap();
        assert!(ref_stats.used_sparse);
        let pb = PrepackedB::from_weight_transposed(&w, k, n).unwrap();
        let bias = Tensor::zeros(&[n]);
        let mut out = Tensor::zeros(&[n]);
        let mut act = Vec::new();
        let stats = matmul_fused_row_into(
            &x,
            &pb,
            &bias,
            FusedMask::None,
            Some(&active),
            SparseDispatch::SparseOnly,
            &mut out,
            &mut act,
            1,
        )
        .unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        assert_eq!(stats.k_active, ref_stats.k_active);
    }

    #[test]
    fn fused_batch_matches_per_sample_single_calls_bitwise() {
        // Mixed per-sample masks (two different threshold banks, a ReLU,
        // a bare head), mixed activity handling (given list, probe,
        // dense), shapes straddling partial panels and multiple KC
        // windows — the batch kernel must reproduce every sample's
        // single-call bits at every thread count.
        let (k, n, b) = (900, 75, 4);
        let w = mat(&[n, k], 11, 21);
        let pb = PrepackedB::from_weight_transposed(&w, k, n).unwrap();
        let bias = mat(&[n], 23, 9);
        let t0 = Tensor::from_fn(&[n], |i| det(29, i, 7).abs() * 0.2);
        let t1 = Tensor::from_fn(&[n], |i| det(31, i, 5).abs() * 0.4);
        let mut xs = mat(&[b, k], 13, 15);
        // sample 2 gets ~70% zero rows plus a matching activity list
        let mut active2 = vec![true; k];
        for (p, a) in active2.iter_mut().enumerate() {
            if p % 3 != 0 {
                xs.as_mut_slice()[2 * k + p] = 0.0;
                *a = false;
            }
        }
        let masks = [
            FusedMask::Thresholds(t0.as_slice()),
            FusedMask::Relu,
            FusedMask::Thresholds(t1.as_slice()),
            FusedMask::None,
        ];
        let actives: [Option<&[bool]>; 4] = [None, None, Some(&active2), None];
        for dispatch in [SparseDispatch::Auto, SparseDispatch::DenseOnly] {
            // per-sample single-call reference
            let mut want = Vec::new();
            let mut want_act = Vec::new();
            let mut want_stats = Vec::new();
            for s in 0..b {
                let x = Tensor::from_vec(xs.as_slice()[s * k..(s + 1) * k].to_vec(), &[k])
                    .unwrap();
                let mut out = Tensor::zeros(&[n]);
                let mut act = Vec::new();
                let stats = matmul_fused_row_into(
                    &x, &pb, &bias, masks[s], actives[s], dispatch, &mut out, &mut act, 1,
                )
                .unwrap();
                want.extend_from_slice(out.as_slice());
                want_act.extend_from_slice(&act);
                want_stats.push(stats);
            }
            for threads in [1usize, 2, 5] {
                let mut out = Tensor::zeros(&[b, n]);
                let mut act = Vec::new();
                let stats = matmul_fused_batch_into(
                    &xs, &pb, &bias, &masks, &actives, dispatch, &mut out, &mut act,
                    threads,
                )
                .unwrap();
                assert_eq!(
                    out.as_slice(),
                    &want[..],
                    "dispatch={dispatch:?} threads={threads}"
                );
                assert_eq!(act, want_act);
                for (got, want) in stats.iter().zip(&want_stats) {
                    assert_eq!(got.k_active, want.k_active);
                    assert_eq!(got.used_sparse, want.used_sparse);
                }
            }
        }
    }

    #[test]
    fn fused_batch_rejects_mismatched_operands() {
        let pb = PrepackedB::from_weight_transposed(&mat(&[6, 4], 1, 7), 4, 6).unwrap();
        let bias = Tensor::zeros(&[6]);
        let xs = Tensor::zeros(&[2, 4]);
        let mut act = Vec::new();
        // wrong output shape
        let mut bad_out = Tensor::zeros(&[2, 5]);
        assert!(matmul_fused_batch_into(
            &xs,
            &pb,
            &bias,
            &[FusedMask::None, FusedMask::None],
            &[None, None],
            SparseDispatch::Auto,
            &mut bad_out,
            &mut act,
            1,
        )
        .is_err());
        // masks count != batch
        let mut out = Tensor::zeros(&[2, 6]);
        assert!(matmul_fused_batch_into(
            &xs,
            &pb,
            &bias,
            &[FusedMask::None],
            &[None, None],
            SparseDispatch::Auto,
            &mut out,
            &mut act,
            1,
        )
        .is_err());
        // activity list with the wrong depth
        let short = [true; 3];
        assert!(matmul_fused_batch_into(
            &xs,
            &pb,
            &bias,
            &[FusedMask::None, FusedMask::None],
            &[Some(&short[..]), None],
            SparseDispatch::Auto,
            &mut out,
            &mut act,
            1,
        )
        .is_err());
    }

    #[test]
    fn fused_row_rejects_mismatched_operands() {
        let pb = PrepackedB::from_weight_transposed(&mat(&[6, 4], 1, 7), 4, 6).unwrap();
        let bias = Tensor::zeros(&[6]);
        let mut out = Tensor::zeros(&[6]);
        let mut act = Vec::new();
        let bad_x = Tensor::zeros(&[5]);
        assert!(matmul_fused_row_into(
            &bad_x,
            &pb,
            &bias,
            FusedMask::None,
            None,
            SparseDispatch::Auto,
            &mut out,
            &mut act,
            1,
        )
        .is_err());
        let x = Tensor::zeros(&[4]);
        let bad_t = vec![0.0; 5];
        assert!(matmul_fused_row_into(
            &x,
            &pb,
            &bias,
            FusedMask::Thresholds(&bad_t),
            None,
            SparseDispatch::Auto,
            &mut out,
            &mut act,
            1,
        )
        .is_err());
        assert!(matmul_fused_row_into(
            &x,
            &pb,
            &bias,
            FusedMask::None,
            Some(&[true; 3]),
            SparseDispatch::Auto,
            &mut out,
            &mut act,
            1,
        )
        .is_err());
    }

    #[test]
    fn empty_depth_yields_bias_plus_mask() {
        let pb = PrepackedB::from_weight_transposed(&Tensor::zeros(&[3, 0]), 0, 3).unwrap();
        let x = Tensor::zeros(&[0]);
        let bias = Tensor::from_vec(vec![1.0, -2.0, 0.0], &[3]).unwrap();
        let mut out = Tensor::zeros(&[3]);
        let mut act = Vec::new();
        matmul_fused_row_into(
            &x,
            &pb,
            &bias,
            FusedMask::Relu,
            None,
            SparseDispatch::Auto,
            &mut out,
            &mut act,
            1,
        )
        .unwrap();
        assert_eq!(out.as_slice(), &[1.0, 0.0, 0.0]);
        assert_eq!(act, vec![true, false, false]);
    }
}
