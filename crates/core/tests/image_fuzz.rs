//! Deployment-image fault-injection fuzz.
//!
//! Property: serialize → corrupt → deserialize never panics and never
//! produces a silently wrong model. Every corrupted byte must surface
//! as a typed [`MimeError`] or a per-section rejection:
//!
//! * single-byte damage is swept over *every* offset of the image;
//! * truncation is swept over every prefix length;
//! * compound damage (random flips/garbles/truncations) is driven by
//!   the seeded [`FaultInjector`], so failures replay exactly.

use bytes::Bytes;
use mime_core::deploy::{pack_model, unpack_model, verify_image};
use mime_core::faults::FaultInjector;
use mime_core::{MimeNetwork, MultiTaskModel};
use mime_nn::{build_network, vgg16_arch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Smallest architecture the builder accepts (1/64 width): keeps the
/// packed image a few KB so the exhaustive O(bytes²) sweeps below stay
/// fast in debug builds.
fn receiver(seed: u64) -> MultiTaskModel {
    let arch = vgg16_arch(0.015625, 32, 3, 2, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let parent = build_network(&arch, &mut rng);
    MultiTaskModel::new(MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap())
}

fn packed_image() -> Vec<u8> {
    let mut model = receiver(3);
    for i in 0..2usize {
        let banks = model
            .network()
            .export_thresholds()
            .into_iter()
            .map(|t| t.map(|_| 0.05 + 0.1 * i as f32))
            .collect();
        model.register_task(format!("task{i}"), banks).unwrap();
    }
    pack_model(&model).unwrap().to_vec()
}

/// Asserts one corrupted image is either rejected with a typed error or
/// loads with the damage attributed in the report — never clean.
fn assert_detected_by_unpack(corrupted: &[u8], context: &str) {
    let mut model = receiver(99);
    match unpack_model(&Bytes::from(corrupted.to_vec()), &mut model) {
        Err(_) => {}
        Ok(report) => {
            assert!(!report.is_clean(), "{context}: corruption loaded as a clean model")
        }
    }
}

#[test]
fn every_single_byte_flip_is_detected_by_verify() {
    let image = packed_image();
    for offset in 0..image.len() {
        let mut bad = image.clone();
        bad[offset] ^= 0xFF;
        match verify_image(&Bytes::from(bad)) {
            Err(_) => {}
            Ok(summary) => {
                assert!(!summary.is_clean(), "flip at byte {offset} verified clean")
            }
        }
    }
}

#[test]
fn byte_flips_are_detected_by_unpack_across_the_image() {
    let image = packed_image();
    // Full unpack builds a receiver per probe, so sweep the header and
    // section-framing region exhaustively and the bulk payload strided.
    let dense = 0..64.min(image.len());
    let strided = (64..image.len()).step_by(61);
    for offset in dense.chain(strided) {
        let mut bad = image.clone();
        bad[offset] ^= 0xFF;
        assert_detected_by_unpack(&bad, &format!("flip at byte {offset}"));
    }
}

#[test]
fn every_truncation_length_is_detected() {
    let image = packed_image();
    // Every strict prefix fails the total-length framing check before
    // any model state is touched, so one receiver serves the whole sweep.
    let mut model = receiver(98);
    for len in 0..image.len() {
        let prefix = Bytes::from(image[..len].to_vec());
        assert!(verify_image(&prefix).is_err(), "truncation to {len} bytes verified clean");
        assert!(
            unpack_model(&prefix, &mut model).is_err(),
            "truncation to {len} bytes unpacked clean"
        );
    }
}

#[test]
fn seeded_compound_faults_never_panic_or_pass_silently() {
    let image = packed_image();
    for seed in 0..24u64 {
        let mut injector = FaultInjector::new(seed);
        let mut bad = image.clone();
        match seed % 3 {
            0 => {
                injector.flip_bits(&mut bad, 1 + (seed as usize % 7));
            }
            1 => {
                injector.truncate(&mut bad);
            }
            _ => {
                injector.garble(&mut bad, 32);
            }
        }
        if bad == image {
            // garbling can by chance rewrite identical bytes; an
            // unchanged image legitimately verifies clean
            continue;
        }
        match verify_image(&Bytes::from(bad.clone())) {
            Err(_) => {}
            Ok(summary) => {
                assert!(!summary.is_clean(), "seed {seed}: corruption verified clean")
            }
        }
        assert_detected_by_unpack(&bad, &format!("seed {seed}"));
    }
}

#[test]
fn compound_faults_replay_identically() {
    let image = packed_image();
    let corrupt = |seed: u64| {
        let mut bad = image.clone();
        FaultInjector::new(seed).flip_bits(&mut bad, 5);
        bad
    };
    assert_eq!(corrupt(7), corrupt(7), "same seed must corrupt identically");
    assert_ne!(corrupt(7), corrupt(8), "different seeds should diverge");
}
