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
//! The fused kernel is a register tile driven by active-row lists, not
//! a branch per input row. For each `KC` window it walks the union of a
//! tile's active rows: up to `MR` samples × one `NR` panel, so each
//! resident weight row is loaded once per tile and feeds one FMA chain
//! per sample, or one sample × `ROW_PANELS` panels when a sample runs
//! alone. The lists are built once per call, before the column split.
//! Like the GEMM microkernel, the tile has explicit AVX-512 and AVX2+FMA
//! arms (`ukern_x86::fused_*`, chosen by the same runtime detection) and
//! a portable arm with the same compile-time-FMA gating, which is the
//! reference and the fallback on other hosts. Under the repo's committed
//! build flags (`-C target-cpu=native`) the compile-time FMA feature
//! matches the runtime CPU, so all arms perform the same
//! correctly-rounded fused multiply-adds in the same order and the fused
//! path stays bit-identical to the dispatched unfused path.

#[cfg(target_arch = "x86_64")]
use crate::matmul::ukern_x86;
use crate::matmul::{
    isa, pack_a, pack_b_chunk, sparse_dispatch, ALayout, AOperand, BLayout, Isa, KC,
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

    /// The depth window `p0..p0+kb` of panels `jp..jp+np`, contiguous
    /// `np·kb·NR` floats — each panel's `kb·NR` slice bit-identical to
    /// what `pack_b_chunk` would produce for that window. `p0`/`kb` must
    /// name a whole `KC` window (`p0` a multiple of [`KC`],
    /// `kb = KC.min(k - p0)`), which is the only granularity the drivers
    /// iterate at.
    #[inline]
    fn window(&self, jp: usize, np: usize, p0: usize, kb: usize) -> &[f32] {
        let npanels = self.n.div_ceil(NR).max(1);
        &self.panels[p0 * npanels * NR + jp * kb * NR..][..np * kb * NR]
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

/// Panels a one-sample tile spans. A tile of several samples gets its
/// independent FMA chains from the samples; a lone sample (`B = 1`, or
/// the last tile of a batch one past a multiple of `MR`) gets them from
/// this many panels side by side instead.
const ROW_PANELS: usize = 4;
const _: () = assert!(ROW_PANELS <= MR && KC <= u16::MAX as usize);

/// Portable fused FC tile: `M` samples × `P` panels over the listed rows
/// of one `KC` window, the reference the explicit-SIMD arms
/// (`ukern_x86::fused_*`) reproduce bit for bit. `rows` are offsets into
/// the window, `x` holds sample `i`'s input on window row `r` at
/// `x[i·ldx + r]`, and `w` the window slices of the `P` panels (`kb·NR`
/// floats apart). Each sum runs in `rows` order from `+0.0` and lands in
/// `acc[i·P + t]`.
#[inline(always)]
fn tile_portable<const M: usize, const P: usize>(
    rows: &[u16],
    (x, ldx): (&[f32], usize),
    w: &[f32],
    kb: usize,
    acc: &mut [[f32; NR]],
) {
    let mut sums = [[[0.0f32; NR]; P]; M];
    for &r in rows {
        let r = usize::from(r);
        for t in 0..P {
            // Fixed-size views keep the lane loop free of bounds checks.
            let wrow: &[f32; NR] =
                w[t * kb * NR + r * NR..][..NR].try_into().expect("an NR-float row");
            for (i, si) in sums.iter_mut().enumerate() {
                let xi = x[i * ldx + r];
                for (s, &wl) in si[t].iter_mut().zip(wrow) {
                    *s = fmadd(xi, wl, *s);
                }
            }
        }
    }
    for (i, si) in sums.iter().enumerate() {
        acc[i * P..(i + 1) * P].copy_from_slice(si);
    }
}

/// One fused FC tile on the chosen arm: `m ≤ MR` samples × `np` panels,
/// `np` being [`ROW_PANELS`] or 1 for a lone sample and 1 otherwise. See
/// [`tile_portable`] for the operands; every arm performs the same
/// fused multiply-adds in the same order.
///
/// # Safety
///
/// Every `rows[q]` must be `< kb`, as [`TileRows::new`] builds them: the
/// SIMD arms index the panels and inputs with them unchecked. The other
/// operand bounds they rely on are asserted here.
unsafe fn tile_sums(
    kernel_isa: Isa,
    (m, np): (usize, usize),
    rows: &[u16],
    (x, ldx): (&[f32], usize),
    w: &[f32],
    kb: usize,
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(rows.iter().all(|&r| usize::from(r) < kb));
    assert!(
        (1..=MR).contains(&m)
            && (np == 1 || (m == 1 && np == ROW_PANELS))
            && x.len() >= (m - 1) * ldx + kb
            && w.len() >= np * kb * NR
    );
    /// Monomorphizes the tile shape so each arm's accumulators have a
    /// const count (kept in registers).
    macro_rules! dispatch_tile {
        ($f:ident) => {
            match (m, np) {
                (1, ROW_PANELS) => $f!(1, ROW_PANELS),
                (1, _) => $f!(1, 1),
                (2, _) => $f!(2, 1),
                (3, _) => $f!(3, 1),
                (4, _) => $f!(4, 1),
                (5, _) => $f!(5, 1),
                (6, _) => $f!(6, 1),
                (7, _) => $f!(7, 1),
                _ => $f!(8, 1),
            }
        };
    }
    match kernel_isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            macro_rules! k512 {
                ($m:literal, $p:expr) => {
                    // SAFETY: `Isa::Avx512` is only chosen when avx512f was
                    // detected; the caller keeps the row offsets `< kb`
                    // and the assert above bounds the other operands.
                    unsafe { ukern_x86::fused_avx512::<$m, $p>(rows, (x, ldx), w, kb, acc) }
                };
            }
            dispatch_tile!(k512)
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => {
            macro_rules! k256 {
                ($m:literal, $p:expr) => {
                    // SAFETY: `Isa::Avx2Fma` is only chosen when avx2 and
                    // fma were detected; the caller keeps the row offsets
                    // `< kb` and the assert above bounds the other operands.
                    unsafe { ukern_x86::fused_avx2::<$m, $p>(rows, (x, ldx), w, kb, acc) }
                };
            }
            dispatch_tile!(k256)
        }
        Isa::Portable => {
            macro_rules! kport {
                ($m:literal, $p:expr) => {
                    tile_portable::<$m, $p>(rows, (x, ldx), w, kb, acc)
                };
            }
            dispatch_tile!(kport)
        }
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
        isa(),
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

/// How one sample's sum over one `KC` window lands in its output row —
/// the blocked driver's memory-accumulation order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Land {
    /// None of the sample's rows lie in the window: its output is not
    /// touched, even when a tile-mate's rows are summed.
    Skip,
    /// The sample's first active window: copied, never added onto a
    /// zeroed buffer, so a `-0.0` sum lands as `-0.0` exactly as the
    /// microkernel's overwrite store leaves it.
    Copy,
    /// A later active window: added.
    Add,
}

/// The batched fused kernel's row lists, built once per call before the
/// column split and shared read-only by every worker. Samples are taken
/// in tiles of up to `MR`; for each tile and `KC` window this holds the
/// union of the tile's samples' active rows, as offsets into the window,
/// and for each sample and window how that window's sum lands.
struct TileRows {
    /// Depth windows, `⌈k/KC⌉`.
    windows: usize,
    /// Per tile and window (tile-major): the cell's range in `rows`.
    cells: Vec<std::ops::Range<usize>>,
    /// Union row offsets, every cell's list in turn.
    rows: Vec<u16>,
    /// Per sample and window (sample-major): how the window sum lands.
    land: Vec<Land>,
}

impl TileRows {
    /// Resolves the lists from each sample's row selection.
    fn new(k: usize, sels: &[RowSel<'_>]) -> Self {
        let b = sels.len();
        let windows = k.div_ceil(KC);
        let mut tr = TileRows {
            windows,
            cells: Vec::with_capacity(b.div_ceil(MR) * windows),
            rows: Vec::with_capacity(b.div_ceil(MR) * k),
            land: vec![Land::Skip; b * windows],
        };
        for s0 in (0..b).step_by(MR) {
            let tile = &sels[s0..b.min(s0 + MR)];
            let mut seen = [false; MR];
            for w in 0..windows {
                let (p0, kb) = (w * KC, KC.min(k - w * KC));
                let mut any = [false; KC];
                for (i, sel) in tile.iter().enumerate() {
                    let hit = match sel.rows() {
                        None => {
                            any.fill(true);
                            true
                        }
                        Some(on) => {
                            let on = &on[p0..p0 + kb];
                            for (a, &o) in any.iter_mut().zip(on) {
                                *a |= o;
                            }
                            on.contains(&true)
                        }
                    };
                    tr.land[(s0 + i) * windows + w] = match (hit, seen[i]) {
                        (false, _) => Land::Skip,
                        (true, false) => Land::Copy,
                        (true, true) => Land::Add,
                    };
                    seen[i] |= hit;
                }
                let r0 = tr.rows.len();
                tr.rows.extend((0..kb).filter(|&r| any[r]).map(|r| r as u16));
                tr.cells.push(r0..tr.rows.len());
            }
        }
        tr
    }
}

/// Batched [`matmul_fused_row_into`]: `B` stacked input rows against one
/// prepacked operand, each sample with its *own* activation mask (the
/// per-task threshold bank — MIME's Pipelined mode) and its own input
/// activity bitmap. Each packed weight panel is streamed from memory
/// once per **batch** instead of once per request: samples run in
/// register tiles of up to `MR`, and each tile walks the union of its
/// samples' active rows in each `KC` window, so every resident weight
/// row it loads feeds one independent FMA chain per sample. A lone
/// sample spans several panels instead, for the same independence.
///
/// Per sample the arithmetic does not depend on the batch: same `KC`
/// windows in increasing `p0`, same `p`-ascending accumulation within a
/// window, a window none of the sample's own rows lie in skipped for
/// that sample (whatever its tile-mates sum there), same probe/crossover
/// dispatch decision, same fused epilogue. A union row that is not one
/// of the sample's own holds `±0.0` in that sample by the activity
/// contract below, so it adds a `±0.0·w` term, and adding `±0.0` to a
/// sum that starts at `+0.0` never changes its bits — it could only turn
/// a `-0.0` sum into `+0.0`, and a sum reaches `-0.0` only through a
/// product below the smallest subnormal, the caveat the sparse GEMM's
/// compaction carries too. This needs **finite weights** (`0·∞` is NaN);
/// the image load path builds them as `q as f32 · scale` from a scale
/// it checks finite. Sample `s`'s output row and activity bits are
/// therefore **bit-identical** to calling [`matmul_fused_row_into`] on it
/// alone, at every thread count and on every ISA arm.
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
        isa(),
    )
}

/// The fused-row kernel behind both public entry points: `B =
/// masks.len()` rows of `xv` (`B·k` floats) into `ov` (`B·n` floats),
/// with the tiles run on `kernel_isa`.
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
    kernel_isa: Isa,
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
    let tiles = TileRows::new(k, &sels);
    let bv = bias.as_slice();
    let macs: u128 = stats.iter().map(|s| s.k_active as u128 * n as u128).sum();
    let col_panels = n.div_ceil(NR);
    let workers = if macs < THREAD_MIN_MACS { 1 } else { threads.max(1).min(col_panels) };

    // Window-outer compute over one worker's column stripe, which starts
    // at panel `jp0`: each window's slices of the stripe's panels stream
    // contiguously, and each tile's rows and inputs stay cache-hot across
    // them. `outs[s]` is sample `s`'s chunk of the stripe's columns.
    let run_stripe = |outs: &mut [&mut [f32]], acts: &mut [&mut [bool]], jp0: usize| {
        let (j_lo, width) = (jp0 * NR, outs[0].len());
        let panels = width.div_ceil(NR);
        let mut acc = [[0.0f32; NR]; MR];
        for w in 0..tiles.windows {
            let (p0, kb) = (w * KC, KC.min(k - w * KC));
            let mut jp = 0;
            while jp < panels {
                let group = ROW_PANELS.min(panels - jp);
                for (t, s0) in (0..b).step_by(MR).enumerate() {
                    let rows = &tiles.rows[tiles.cells[t * tiles.windows + w].clone()];
                    if rows.is_empty() {
                        continue;
                    }
                    let m = MR.min(b - s0);
                    let xs = &xv[s0 * k + p0..];
                    // a lone sample spans the group's panels at once, a
                    // tile of several takes them one by one
                    let np = if m == 1 && group == ROW_PANELS { ROW_PANELS } else { 1 };
                    for first in (jp..jp + group).step_by(np) {
                        let wslice = pb.window(jp0 + first, np, p0, kb);
                        // SAFETY: `TileRows::new` lists offsets `0..kb` of
                        // this window only.
                        unsafe {
                            tile_sums(
                                kernel_isa,
                                (m, np),
                                rows,
                                (xs, k),
                                wslice,
                                kb,
                                &mut acc,
                            )
                        };
                        for (i, o) in outs[s0..s0 + m].iter_mut().enumerate() {
                            let land = tiles.land[(s0 + i) * tiles.windows + w];
                            if land == Land::Skip {
                                continue;
                            }
                            for (c, sum) in acc[i * np..(i + 1) * np].iter().enumerate() {
                                let j = (first + c) * NR;
                                let o = &mut o[j..(j + NR).min(width)];
                                // Full-NR sums even for the ragged last
                                // panel: its padding lanes multiply the
                                // panel's zero fill and are never stored.
                                if land == Land::Copy {
                                    o.copy_from_slice(&sum[..o.len()]);
                                } else {
                                    for (ov, sv) in o.iter_mut().zip(sum) {
                                        *ov += *sv;
                                    }
                                }
                            }
                        }
                    }
                }
                jp += group;
            }
        }
        for (s, (o, a)) in outs.iter_mut().zip(acts.iter_mut()).enumerate() {
            if tiles.land[s * tiles.windows..][..tiles.windows]
                .iter()
                .all(|&l| l == Land::Skip)
            {
                o.fill(0.0);
            }
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
    fn fused_tile_matches_the_dense_reference_on_every_arm_and_edge() {
        // Every ISA arm through the kernel's internal entry, against each
        // sample's unflipped dense product (the raw-`A` GEMM, one worker)
        // plus a scalar epilogue — a reference that shares no code with
        // the tile. Batches cover a lone sample, partial tiles, a full
        // tile and tiles one past it; depths three and four `KC` windows;
        // widths a ragged panel and a single panel.
        let t0 = Tensor::from_fn(&[75], |i| det(29, i, 7).abs() * 0.2);
        let t1 = Tensor::from_fn(&[75], |i| det(31, i, 5).abs() * 0.4);
        for (k, n) in [(900, 75), (1200, 75), (900, 10), (1200, 10)] {
            let w = mat(&[n, k], 11, 21);
            let pb = PrepackedB::from_weight_transposed(&w, k, n).unwrap();
            let bias = mat(&[n], 23, 9);
            let masks = [
                FusedMask::Thresholds(&t0.as_slice()[..n]),
                FusedMask::Relu,
                FusedMask::Thresholds(&t1.as_slice()[..n]),
                FusedMask::None,
            ];
            for b in [1usize, 2, 7, 8, 9, 17] {
                // each tile of eight holds: two samples with disjoint rows
                // (0, 1), a sample whose second window is wholly inactive
                // while its tile-mates use it (2), a sample with no active
                // row (3), a dense sample above SPARSE_ACTIVE_MAX (4), and
                // ~37 % random rows (5–7); unlisted rows are ±0
                let lists: Vec<Vec<bool>> = (0..b)
                    .map(|s| {
                        (0..k)
                            .map(|p| match s % 8 {
                                0 => p % 3 == 0,
                                1 => p % 3 == 1,
                                2 => {
                                    !(KC..2 * KC).contains(&p) && det(s as u64, p, 8) < 0.0
                                }
                                3 => false,
                                4 => true,
                                _ => (p * 2654435761 + s * 40503) % 1000 < 370,
                            })
                            .collect()
                    })
                    .collect();
                let mut xs = mat(&[b, k], 13, 15);
                for (i, v) in xs.as_mut_slice().iter_mut().enumerate() {
                    if !lists[i / k][i % k] {
                        *v = if i % 5 == 0 { -0.0 } else { 0.0 };
                    }
                }
                let actives: Vec<Option<&[bool]>> =
                    lists.iter().map(|l| Some(&l[..])).collect();
                let sample_masks: Vec<FusedMask> = (0..b).map(|s| masks[s % 4]).collect();
                let mut want = Vec::with_capacity(b * n);
                for (x, mask) in xs.as_slice().chunks_exact(k).zip(&sample_masks) {
                    let x_col = Tensor::from_vec(x.to_vec(), &[k, 1]).unwrap();
                    let mut col = Tensor::zeros(&[n, 1]);
                    dense_reference(&w, &x_col, &mut col);
                    want.extend(col.as_slice().iter().enumerate().map(|(j, &v)| {
                        let y = v + bias.as_slice()[j];
                        match mask {
                            FusedMask::None => y,
                            FusedMask::Relu => y.max(0.0),
                            FusedMask::Thresholds(t) => {
                                if y - t[j] >= 0.0 {
                                    y
                                } else {
                                    0.0
                                }
                            }
                        }
                    }));
                }
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let want_act: Vec<bool> = want.iter().map(|&v| v != 0.0).collect();
                for dispatch in [SparseDispatch::Auto, SparseDispatch::DenseOnly] {
                    for kernel_isa in available_isas() {
                        for threads in [1usize, 2, 5] {
                            let what = format!(
                                "k={k} n={n} B={b} {dispatch:?} isa={kernel_isa:?} \
                                 threads={threads}"
                            );
                            let mut out = vec![f32::NAN; b * n];
                            let mut act = Vec::new();
                            let stats = fused_rows_into(
                                xs.as_slice(),
                                &pb,
                                &bias,
                                &sample_masks,
                                &actives,
                                dispatch,
                                &mut out,
                                &mut act,
                                threads,
                                kernel_isa,
                            )
                            .unwrap();
                            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(bits, want_bits, "{what}");
                            assert_eq!(act, want_act, "{what}");
                            for (s, st) in stats.iter().enumerate() {
                                let listed = lists[s].iter().filter(|&&a| a).count();
                                let sparse = dispatch == SparseDispatch::Auto
                                    && listed as f64 <= SPARSE_ACTIVE_MAX * k as f64;
                                let k_active = if dispatch == SparseDispatch::Auto {
                                    listed
                                } else {
                                    k
                                };
                                assert_eq!(
                                    (st.k_total, st.k_active, st.used_sparse),
                                    (k, k_active, sparse),
                                    "{what} sample {s}"
                                );
                            }
                        }
                    }
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
