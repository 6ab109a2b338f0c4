//! Property-based tests for the image substrate: PPM round-trips, JPEG
//! encode/decode structural integrity across arbitrary dimensions, and
//! LFU cache accounting invariants.

use flux_image::{jpeg_decode, jpeg_encode, jpeg_probe, psnr, Image, LfuCache};
use proptest::prelude::*;

/// A `P6` or `P3` header claiming any `u32` dimensions, over a short
/// tail of arbitrary bytes: the raster sizes a hostile header can ask for.
fn hostile_header() -> BoxedStrategy<Vec<u8>> {
    let side = || prop_oneof![any::<u32>(), 0u32..4];
    let tail = proptest::collection::vec(any::<u8>(), 0..64);
    (any::<bool>(), side(), side(), tail).prop_map(|(p6, w, h, tail)| {
        let magic = if p6 { "P6" } else { "P3" };
        let mut data = format!("{magic}\n{w} {h}\n255\n").into_bytes();
        data.extend(tail);
        data
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ppm_round_trips(w in 1usize..48, h in 1usize..48, seed in any::<u64>()) {
        let img = Image::synthetic(w, h, seed);
        let back = Image::from_ppm(&img.to_ppm()).expect("own encoding decodes");
        prop_assert_eq!(img, back);
    }

    #[test]
    fn ppm_decoder_total(
        data in prop_oneof![proptest::collection::vec(any::<u8>(), 0..256), hostile_header()],
    ) {
        let _ = Image::from_ppm(&data); // never panics
    }

    #[test]
    fn jpeg_any_dimensions(w in 1usize..40, h in 1usize..40, q in 10u8..95) {
        let img = Image::synthetic(w, h, (w * h) as u64);
        let jpg = jpeg_encode(&img, q);
        let info = jpeg_probe(&jpg).expect("valid structure");
        prop_assert_eq!(info.width, w);
        prop_assert_eq!(info.height, h);
        let back = jpeg_decode(&jpg).expect("own encoding decodes");
        prop_assert_eq!(back.width, w);
        prop_assert_eq!(back.height, h);
        // Lossy, but not garbage.
        prop_assert!(psnr(&img, &back) > 12.0);
    }

    #[test]
    fn scaling_dimensions_exact(w in 8usize..64, h in 8usize..64, numer in 1u32..9) {
        let img = Image::synthetic(w, h, 3);
        let s = img.scale_eighths(numer);
        prop_assert_eq!(s.width, (w * numer as usize / 8).max(1));
        prop_assert_eq!(s.height, (h * numer as usize / 8).max(1));
    }

    /// Cache accounting: used_bytes equals the sum of live entries and
    /// never exceeds capacity while anything is evictable.
    #[test]
    fn lfu_accounting(ops in proptest::collection::vec((0u8..3, 0u8..8, 1usize..64), 1..60)) {
        let mut cache: LfuCache<u8, Vec<u8>> = LfuCache::new(256, |v| v.len());
        let mut live_refs: std::collections::HashMap<u8, u32> = Default::default();
        for (op, key, size) in ops {
            match op {
                0 => {
                    if cache.check(&key).is_some() {
                        *live_refs.entry(key).or_insert(0) += 1;
                    }
                }
                1 => {
                    cache.store(key, vec![0; size]);
                    *live_refs.entry(key).or_insert(0) += 1;
                }
                _ => {
                    if let Some(r) = live_refs.get_mut(&key) {
                        if *r > 0 {
                            cache.release(&key);
                            *r -= 1;
                        }
                    }
                }
            }
        }
        // Release everything, then one store must be able to evict down
        // to within capacity.
        for (key, refs) in live_refs {
            for _ in 0..refs {
                cache.release(&key);
            }
        }
        cache.store(200, vec![0; 10]);
        prop_assert!(cache.used_bytes() <= 256, "after full release, capacity holds");
    }
}
