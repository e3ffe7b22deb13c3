//! A functional (execution-level) model of the output-stationary systolic
//! array.
//!
//! Unlike the analytical model in [`crate::sim`], which *counts* accesses
//! from reuse formulas, [`FunctionalArray`] actually **executes** a layer:
//! it walks the OS loop nest pass by pass, performs every surviving MAC on
//! real `f32` data, applies the threshold comparison in the PE, and
//! increments per-level access counters as values move DRAM → cache →
//! scratchpad → PE. Its outputs are bit-comparable (up to float summation
//! order) with the reference convolution in `mime-tensor`, and its
//! counters validate the analytical model's approximations — see the
//! `validate_model` bench binary and the cross-validation tests.

use crate::{ArrayConfig, LayerGeometry, Mapping};
use mime_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Exact access counters accumulated by a functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCounters {
    /// Words read from DRAM (weights + activations + thresholds).
    pub dram_reads: u64,
    /// Words written back to DRAM (output activations).
    pub dram_writes: u64,
    /// Words read from the on-chip caches.
    pub cache_reads: u64,
    /// Words written into the on-chip caches.
    pub cache_writes: u64,
    /// Scratchpad/register-file reads inside the PEs.
    pub spad_reads: u64,
    /// Scratchpad/register-file writes inside the PEs.
    pub spad_writes: u64,
    /// Executed MAC operations (after zero-skipping).
    pub macs: u64,
    /// Executed threshold comparisons.
    pub cmps: u64,
    /// Elapsed compute cycles (lockstep PE array; a pass costs its
    /// longest surviving dot product).
    pub cycles: u64,
}

impl AccessCounters {
    /// Event counts accumulated since an earlier snapshot (`self` must
    /// be the later reading of the same monotone counters).
    pub fn delta_since(&self, before: &AccessCounters) -> AccessCounters {
        AccessCounters {
            dram_reads: self.dram_reads - before.dram_reads,
            dram_writes: self.dram_writes - before.dram_writes,
            cache_reads: self.cache_reads - before.cache_reads,
            cache_writes: self.cache_writes - before.cache_writes,
            spad_reads: self.spad_reads - before.spad_reads,
            spad_writes: self.spad_writes - before.spad_writes,
            macs: self.macs - before.macs,
            cmps: self.cmps - before.cmps,
            cycles: self.cycles - before.cycles,
        }
    }

    /// Total energy of this run in MAC-normalized units under a hardware
    /// config (comparisons are charged like scratchpad accesses).
    pub fn energy(&self, cfg: &ArrayConfig) -> f64 {
        cfg.e_dram * (self.dram_reads + self.dram_writes) as f64
            + cfg.e_cache * (self.cache_reads + self.cache_writes) as f64
            + cfg.e_reg * (self.spad_reads + self.spad_writes + self.cmps) as f64
            + cfg.e_mac * self.macs as f64
    }
}

/// The functional OS systolic array.
#[derive(Debug)]
pub struct FunctionalArray {
    cfg: ArrayConfig,
    counters: AccessCounters,
}

impl FunctionalArray {
    /// Creates an array with zeroed counters.
    pub fn new(cfg: ArrayConfig) -> Self {
        FunctionalArray { cfg, counters: AccessCounters::default() }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &AccessCounters {
        &self.counters
    }

    /// Resets the counters.
    pub fn reset(&mut self) {
        self.counters = AccessCounters::default();
    }

    /// Executes one layer for one image under the OS dataflow.
    ///
    /// * `weights`: `[K, C, R, R]`, `bias`: `[K]`, `input`: `[C, H, W]`
    ///   (for FC layers modeled as 1×1 convs: `[C, 1, 1]`).
    /// * `thresholds`: optional per-neuron bank of `K·sites` values; when
    ///   present the PE's CMP unit masks each output (MIME). When absent,
    ///   outputs pass through unmasked (the caller applies ReLU, as the
    ///   baselines do).
    /// * `zero_skip`: whether zero input activations are compressed away
    ///   and skipped (paper Case-2/MIME) or processed densely (Case-1).
    ///
    /// Returns the output activations `[K, Ho, Wo]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when the tensors disagree with `geom` or the
    /// mapping exceeds the PE array.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware port list
    pub fn run_layer(
        &mut self,
        geom: &LayerGeometry,
        mapping: &Mapping,
        weights: &Tensor,
        bias: &Tensor,
        input: &Tensor,
        thresholds: Option<&Tensor>,
        zero_skip: bool,
    ) -> crate::Result<Tensor> {
        let (k, c, r) = (geom.k, geom.c, geom.r);
        let (in_hw, out_hw) = (geom.in_hw, geom.out_hw);
        let sites = geom.sites();
        if weights.dims() != [k, c, r, r] {
            return Err(TensorError::ShapeMismatch {
                lhs: weights.dims().to_vec(),
                rhs: vec![k, c, r, r],
                op: "functional run_layer weights",
            });
        }
        if bias.dims() != [k] || input.len() != geom.input_count() {
            return Err(TensorError::ShapeMismatch {
                lhs: input.dims().to_vec(),
                rhs: vec![c, in_hw, in_hw],
                op: "functional run_layer input",
            });
        }
        if let Some(t) = thresholds {
            if t.len() != k * sites {
                return Err(TensorError::LengthMismatch {
                    expected: k * sites,
                    actual: t.len(),
                });
            }
        }
        if mapping.to * mapping.st > self.cfg.pe_count {
            return Err(TensorError::InvalidGeometry(format!(
                "mapping {}x{} exceeds {} PEs",
                mapping.to, mapping.st, self.cfg.pe_count
            )));
        }
        // Profiling snapshot: published as a per-layer delta on exit so
        // the exported counters stay correct however many layers/images
        // one array instance runs. One relaxed load when disabled.
        let profiled = mime_obs::profiling().then(|| {
            let mut span = mime_obs::trace::span_cat(geom.name.clone(), "systolic.layer");
            span.arg("k", k);
            span.arg("c", c);
            span.arg("sites", sites);
            span.arg("zero_skip", zero_skip);
            (span, self.counters)
        });

        let pad = (r - 1) / 2;
        let wv = weights.as_slice();
        let xv = input.as_slice();
        let tv = thresholds.map(Tensor::as_slice);
        let mut out = Tensor::zeros(&[k, out_hw, out_hw]);
        let ov = out.as_mut_slice();

        let n_sp = mapping.n_sp(geom);
        let n_cg = mapping.n_cg(geom);
        let weights_resident = Mapping::weights_resident(geom, &self.cfg);
        let input_resident = Mapping::input_resident(geom, &self.cfg);
        let ctr = &mut self.counters;

        // --- whole-layer residency fetches ------------------------------
        if weights_resident {
            // dense weight image streamed into the weight cache once
            let w_words = geom.weight_count() as u64;
            ctr.dram_reads += w_words;
            ctr.cache_writes += w_words;
        }
        if input_resident {
            let fetched = if zero_skip {
                xv.iter().filter(|&&a| a != 0.0).count() as u64
            } else {
                geom.input_count() as u64
            };
            ctr.dram_reads += fetched;
            ctr.cache_writes += fetched;
        }
        if thresholds.is_some() {
            // each threshold is used exactly once per image: stream the
            // bank through the threshold cache
            let t_words = (k * sites) as u64;
            ctr.dram_reads += t_words;
            ctr.cache_writes += t_words;
        }

        // scratch marker for per-pass distinct input fetches
        let mut act_seen = vec![u32::MAX; geom.input_count()];

        for sp in 0..n_sp {
            let site_lo = sp * mapping.st;
            let site_hi = ((sp + 1) * mapping.st).min(sites);
            // --- per-tile activation staging ----------------------------
            if !input_resident {
                // fetch this tile's (compressed) receptive field from DRAM
                let mut fetched = 0u64;
                for site in site_lo..site_hi {
                    let (oy, ox) = (site / out_hw, site % out_hw);
                    for ci in 0..c {
                        for ry in 0..r {
                            for rx in 0..r {
                                if let Some(idx) = in_index(ci, oy, ox, ry, rx, pad, in_hw)
                                {
                                    if act_seen[idx] != sp as u32 {
                                        act_seen[idx] = sp as u32;
                                        if !zero_skip || xv[idx] != 0.0 {
                                            fetched += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                ctr.dram_reads += fetched;
                ctr.cache_writes += fetched;
            }
            // distinct taps with any surviving activation in this tile:
            // a weight word is staged cache -> spad once per pass iff it
            // meets at least one non-skipped activation
            let mut tap_used = vec![false; geom.taps()];
            let mut tile_distinct_nz = 0u64;
            for site in site_lo..site_hi {
                let (oy, ox) = (site / out_hw, site % out_hw);
                for ci in 0..c {
                    for ry in 0..r {
                        for rx in 0..r {
                            if let Some(idx) = in_index(ci, oy, ox, ry, rx, pad, in_hw) {
                                if !zero_skip || xv[idx] != 0.0 {
                                    tap_used[(ci * r + ry) * r + rx] = true;
                                }
                            }
                        }
                    }
                }
            }
            // distinct (compressed) input words this tile stages per pass
            {
                let mut seen = std::collections::HashSet::new();
                for site in site_lo..site_hi {
                    let (oy, ox) = (site / out_hw, site % out_hw);
                    for ci in 0..c {
                        for ry in 0..r {
                            for rx in 0..r {
                                if let Some(idx) = in_index(ci, oy, ox, ry, rx, pad, in_hw)
                                {
                                    if (!zero_skip || xv[idx] != 0.0) && seen.insert(idx) {
                                        tile_distinct_nz += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let used_taps = tap_used.iter().filter(|&&u| u).count() as u64;
            for cg in 0..n_cg {
                let k_lo = cg * mapping.to;
                let k_hi = ((cg + 1) * mapping.to).min(k);
                // --- weight staging -------------------------------------
                if !weights_resident {
                    // stream this channel group's weights for this tile
                    let words = ((k_hi - k_lo) * geom.taps()) as u64;
                    ctr.dram_reads += words;
                    ctr.cache_writes += words;
                }
                // cache -> spad staging: each used weight word once per
                // pass (broadcast across the tile's sites), each surviving
                // activation word once per channel group
                ctr.cache_reads += (k_hi - k_lo) as u64 * used_taps;
                ctr.spad_writes += (k_hi - k_lo) as u64 * used_taps;
                ctr.cache_reads += tile_distinct_nz;
                ctr.spad_writes += tile_distinct_nz;
                // --- the pass: each PE owns one (k, site) output --------
                let mut pass_max_macs = 0u64;
                for ki in k_lo..k_hi {
                    for site in site_lo..site_hi {
                        let (oy, ox) = (site / out_hw, site % out_hw);
                        let mut acc = bias.as_slice()[ki];
                        let mut pe_macs = 0u64;
                        for ci in 0..c {
                            for ry in 0..r {
                                for rx in 0..r {
                                    let Some(idx) =
                                        in_index(ci, oy, ox, ry, rx, pad, in_hw)
                                    else {
                                        continue; // zero padding: no fetch
                                    };
                                    let a = xv[idx];
                                    if zero_skip && a == 0.0 {
                                        continue; // skipped end to end
                                    }
                                    // operands served from the spad
                                    ctr.spad_reads += 2;
                                    let w = wv[((ki * c + ci) * r + ry) * r + rx];
                                    acc += w * a;
                                    pe_macs += 1;
                                    ctr.macs += 1;
                                }
                            }
                        }
                        pass_max_macs = pass_max_macs.max(pe_macs);
                        // drain: CMP against the neuron's threshold (MIME)
                        let out_idx = ki * sites + site;
                        let value = if let Some(t) = tv {
                            ctr.cache_reads += 1; // threshold word to PE
                            ctr.spad_reads += 1;
                            ctr.cmps += 1;
                            if acc - t[out_idx] >= 0.0 {
                                acc
                            } else {
                                0.0
                            }
                        } else {
                            acc
                        };
                        ov[out_idx] = value;
                        ctr.spad_writes += 1;
                        ctr.cache_writes += 1;
                        if !zero_skip || value != 0.0 {
                            ctr.dram_writes += 1;
                        }
                    }
                }
                // lockstep pass: the slowest PE sets the pace
                ctr.cycles += pass_max_macs.max(1);
            }
        }
        if let Some((mut span, before)) = profiled {
            let delta = self.counters.delta_since(&before);
            span.arg("macs", delta.macs);
            span.arg("cycles", delta.cycles);
            crate::obs_bridge::publish_access_counters(&delta);
        }
        Ok(out)
    }
}

/// Flat input index of tap `(ry, rx)` of output `(oy, ox)`, or `None` in
/// the zero-padding halo.
fn in_index(
    ci: usize,
    oy: usize,
    ox: usize,
    ry: usize,
    rx: usize,
    pad: usize,
    in_hw: usize,
) -> Option<usize> {
    let iy = (oy + ry) as isize - pad as isize;
    let ix = (ox + rx) as isize - pad as isize;
    if iy < 0 || ix < 0 || iy >= in_hw as isize || ix >= in_hw as isize {
        return None;
    }
    Some((ci * in_hw + iy as usize) * in_hw + ix as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapper;
    use mime_tensor::{conv2d, ConvSpec};

    fn small_geom() -> LayerGeometry {
        LayerGeometry::conv("t", 3, 4, 6)
    }

    fn tensors(geom: &LayerGeometry, seed: usize) -> (Tensor, Tensor, Tensor) {
        let w = Tensor::from_fn(&[geom.k, geom.c, geom.r, geom.r], |i| {
            (((i * 31 + seed) % 13) as f32 - 6.0) * 0.1
        });
        let b = Tensor::from_fn(&[geom.k], |i| (i as f32) * 0.05 - 0.1);
        let x = Tensor::from_fn(&[geom.c, geom.in_hw, geom.in_hw], |i| {
            let v = (((i * 17 + seed) % 11) as f32 - 5.0) * 0.2;
            if (i + seed).is_multiple_of(3) {
                0.0
            } else {
                v
            }
        });
        (w, b, x)
    }

    #[test]
    fn output_matches_reference_convolution() {
        let geom = small_geom();
        let (w, b, x) = tensors(&geom, 0);
        let cfg = ArrayConfig::eyeriss_65nm();
        let mapping = Mapper::new(cfg).best_mapping(&geom, 0.5, 1.0);
        let mut array = FunctionalArray::new(cfg);
        let out = array.run_layer(&geom, &mapping, &w, &b, &x, None, true).unwrap();
        let x4 = x.reshape(&[1, geom.c, geom.in_hw, geom.in_hw]).unwrap();
        let reference = conv2d(&x4, &w, &b, &ConvSpec::vgg3x3()).unwrap();
        for (a, r) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - r).abs() < 1e-4, "{a} vs {r}");
        }
    }

    #[test]
    fn thresholds_mask_in_the_pe() {
        let geom = small_geom();
        let (w, b, x) = tensors(&geom, 1);
        let cfg = ArrayConfig::eyeriss_65nm();
        let mapping = Mapper::new(cfg).best_mapping(&geom, 0.5, 1.0);
        let mut array = FunctionalArray::new(cfg);
        let unmasked = array.run_layer(&geom, &mapping, &w, &b, &x, None, true).unwrap();
        let t = Tensor::full(&[geom.k * geom.sites()], 0.2);
        array.reset();
        let masked = array.run_layer(&geom, &mapping, &w, &b, &x, Some(&t), true).unwrap();
        for (u, m) in unmasked.as_slice().iter().zip(masked.as_slice()) {
            if *u >= 0.2 {
                assert_eq!(u, m);
            } else {
                assert_eq!(*m, 0.0);
            }
        }
        assert_eq!(array.counters().cmps, (geom.k * geom.sites()) as u64);
        assert!(masked.sparsity() > unmasked.sparsity());
    }

    #[test]
    fn zero_skipping_reduces_macs_exactly() {
        let geom = small_geom();
        let (w, b, x) = tensors(&geom, 2);
        let cfg = ArrayConfig::eyeriss_65nm();
        let mapping = Mapper::new(cfg).best_mapping(&geom, 0.5, 1.0);
        let mut dense = FunctionalArray::new(cfg);
        dense.run_layer(&geom, &mapping, &w, &b, &x, None, false).unwrap();
        let mut skip = FunctionalArray::new(cfg);
        skip.run_layer(&geom, &mapping, &w, &b, &x, None, true).unwrap();
        assert!(skip.counters().macs < dense.counters().macs);
        assert!(skip.counters().cycles <= dense.counters().cycles);
        // dense MACs equal the taps actually inside the padded image
        let mut expected = 0u64;
        for oy in 0..geom.out_hw {
            for ox in 0..geom.out_hw {
                for ci in 0..geom.c {
                    for ry in 0..geom.r {
                        for rx in 0..geom.r {
                            if in_index(ci, oy, ox, ry, rx, 1, geom.in_hw).is_some() {
                                expected += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(dense.counters().macs, expected * geom.k as u64);
        // skipped MACs are exactly the nonzero-activation taps
        let mut nz = 0u64;
        for oy in 0..geom.out_hw {
            for ox in 0..geom.out_hw {
                for ci in 0..geom.c {
                    for ry in 0..geom.r {
                        for rx in 0..geom.r {
                            if let Some(idx) = in_index(ci, oy, ox, ry, rx, 1, geom.in_hw) {
                                if x.as_slice()[idx] != 0.0 {
                                    nz += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(skip.counters().macs, nz * geom.k as u64);
    }

    #[test]
    fn weight_streaming_counted_per_tile_when_not_resident() {
        // huge layer whose weights exceed the cache: DRAM weight reads
        // must be n_sp × W; resident layer: exactly W
        let cfg = ArrayConfig {
            weight_cache_bytes: 64, // 32 words: nothing fits
            ..ArrayConfig::eyeriss_65nm()
        };
        let geom = small_geom();
        let (w, b, x) = tensors(&geom, 3);
        let mapping = Mapping { to: 2, st: 4 };
        let mut array = FunctionalArray::new(cfg);
        array.run_layer(&geom, &mapping, &w, &b, &x, None, true).unwrap();
        let n_sp = mapping.n_sp(&geom) as u64;
        let w_words = geom.weight_count() as u64;
        // per (sp, cg) stream: n_sp × (all channel groups' words) = n_sp × W
        let weight_reads =
            array.counters().dram_reads - count_act_reads(&geom, &mapping, &x, &cfg);
        assert_eq!(weight_reads, n_sp * w_words);
    }

    fn count_act_reads(
        geom: &LayerGeometry,
        mapping: &Mapping,
        x: &Tensor,
        cfg: &ArrayConfig,
    ) -> u64 {
        // replicate the per-tile distinct-coordinate fetch count
        let mut seen = vec![u32::MAX; geom.input_count()];
        let mut fetched = 0u64;
        if Mapping::input_resident(geom, cfg) {
            return x.count_nonzero() as u64;
        }
        let sites = geom.sites();
        for sp in 0..mapping.n_sp(geom) {
            let lo = sp * mapping.st;
            let hi = ((sp + 1) * mapping.st).min(sites);
            for site in lo..hi {
                let (oy, ox) = (site / geom.out_hw, site % geom.out_hw);
                for ci in 0..geom.c {
                    for ry in 0..geom.r {
                        for rx in 0..geom.r {
                            if let Some(idx) = in_index(ci, oy, ox, ry, rx, 1, geom.in_hw) {
                                if seen[idx] != sp as u32 {
                                    seen[idx] = sp as u32;
                                    if x.as_slice()[idx] != 0.0 {
                                        fetched += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        fetched
    }

    #[test]
    fn fc_layer_runs_as_1x1() {
        let geom = LayerGeometry::fc("f", 8, 5, true);
        let w = Tensor::from_fn(&[5, 8, 1, 1], |i| (i as f32) * 0.01);
        let b = Tensor::zeros(&[5]);
        let x = Tensor::from_fn(&[8, 1, 1], |i| (i as f32) * 0.1);
        let cfg = ArrayConfig::eyeriss_65nm();
        let mapping = Mapper::new(cfg).best_mapping(&geom, 0.5, 1.0);
        let mut array = FunctionalArray::new(cfg);
        let out = array.run_layer(&geom, &mapping, &w, &b, &x, None, true).unwrap();
        assert_eq!(out.dims(), &[5, 1, 1]);
        // reference dot products
        for ki in 0..5 {
            let want: f32 =
                (0..8).map(|ci| (ki * 8 + ci) as f32 * 0.01 * ci as f32 * 0.1).sum();
            assert!((out.as_slice()[ki] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_bad_shapes_and_mappings() {
        let geom = small_geom();
        let (w, b, x) = tensors(&geom, 4);
        let cfg = ArrayConfig::eyeriss_65nm();
        let mut array = FunctionalArray::new(cfg);
        let good = Mapping { to: 2, st: 4 };
        assert!(array
            .run_layer(&geom, &good, &Tensor::zeros(&[1, 1, 3, 3]), &b, &x, None, true)
            .is_err());
        assert!(array
            .run_layer(&geom, &good, &w, &Tensor::zeros(&[9]), &x, None, true)
            .is_err());
        let bad_t = Tensor::zeros(&[3]);
        assert!(array.run_layer(&geom, &good, &w, &b, &x, Some(&bad_t), true).is_err());
        let oversize = Mapping { to: 4096, st: 4096 };
        assert!(array.run_layer(&geom, &oversize, &w, &b, &x, None, true).is_err());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let geom = small_geom();
        let (w, b, x) = tensors(&geom, 5);
        let cfg = ArrayConfig::eyeriss_65nm();
        let mapping = Mapper::new(cfg).best_mapping(&geom, 0.5, 1.0);
        let mut array = FunctionalArray::new(cfg);
        array.run_layer(&geom, &mapping, &w, &b, &x, None, true).unwrap();
        let once = *array.counters();
        array.run_layer(&geom, &mapping, &w, &b, &x, None, true).unwrap();
        assert_eq!(array.counters().macs, 2 * once.macs);
        array.reset();
        assert_eq!(*array.counters(), AccessCounters::default());
        assert!(once.energy(&cfg) > 0.0);
    }
}
