//! Byte-identity guard for the image server's pixels and JPEG bytes.
//!
//! The benchmark checks every JPEG the image server returns byte for
//! byte, and the LFU cache's contents depend on each JPEG's size, so a
//! faster encoder, scaler or synthesiser must produce exactly the bytes
//! the straightforward versions did. These digests were taken from the
//! direct-`cos()` encoder and the per-pixel-trig synthesiser; any change
//! to them is visible to the benchmark.

use flux::image::{jpeg_encode, Image};

/// FNV-1a, 64-bit, over bytes.
fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The image server's default disk: 16 synthetic 256x192 sources.
fn sources() -> Vec<Image> {
    (0..16).map(|i| Image::synthetic(256, 192, i + 1)).collect()
}

#[test]
fn synthetic_sources_are_byte_identical() {
    let rgb: Vec<u8> = sources().into_iter().flat_map(|img| img.rgb).collect();
    assert_eq!(rgb.len(), 2_359_296);
    assert_eq!(fnv1a64(&rgb), 0x371b_be97_2738_48b7);
}

#[test]
fn every_tag_jpeg_is_byte_identical() {
    let mut jpegs = Vec::new();
    for img in sources() {
        for scale in 1..=8 {
            jpegs.extend_from_slice(&jpeg_encode(&img.scale_eighths(scale), 75));
        }
    }
    assert_eq!(jpegs.len(), 470_793);
    assert_eq!(fnv1a64(&jpegs), 0x0c8a_a9ca_72a1_9f09);
}
