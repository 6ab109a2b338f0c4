//! PPM (portable pixmap) decoding, encoding, scaling and synthesis.
//!
//! The paper's image server "receives HTTP requests for images that are
//! stored in the PPM format and compresses them into JPEGs". Both the
//! binary (`P6`) and ASCII (`P3`) forms are supported, plus the box
//! scaling the benchmark needs (eight sizes from 1/8 scale to full size)
//! and deterministic synthetic image generation for workloads.

use std::fmt;

/// An 8-bit RGB image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    pub width: usize,
    pub height: usize,
    /// Row-major RGB triples, `3 * width * height` bytes.
    pub rgb: Vec<u8>,
}

/// PPM parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpmError(pub String);

impl fmt::Display for PpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppm error: {}", self.0)
    }
}

impl std::error::Error for PpmError {}

fn err<T>(m: impl Into<String>) -> Result<T, PpmError> {
    Err(PpmError(m.into()))
}

impl Image {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Image {
        Image {
            width,
            height,
            rgb: vec![0; 3 * width * height],
        }
    }

    /// Pixel accessor (r, g, b).
    pub fn pixel(&self, x: usize, y: usize) -> (u8, u8, u8) {
        let i = 3 * (y * self.width + x);
        (self.rgb[i], self.rgb[i + 1], self.rgb[i + 2])
    }

    /// Sets one pixel.
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: (u8, u8, u8)) {
        let i = 3 * (y * self.width + x);
        self.rgb[i] = rgb.0;
        self.rgb[i + 1] = rgb.1;
        self.rgb[i + 2] = rgb.2;
    }

    /// Deterministic synthetic photo-like test image: smooth gradients
    /// with superimposed shapes, so JPEG compression has realistic
    /// frequency content.
    ///
    /// The pattern is separable: each trigonometric term depends on x or
    /// on y alone, so it is evaluated once per column or once per row,
    /// with the same f32 expressions as a per-pixel evaluation and hence
    /// the same bytes. A row is computed one channel at a time into three
    /// `width`-byte buffers, a straight run over columns that the
    /// compiler vectorises, and the buffers are then interleaved into the
    /// raster a word at a time.
    ///
    /// Every value the pattern produces lies in [0, 255]: red and green
    /// are 255·(0.5 + 0.5·p) with |p| ≤ 1, blue is 255·fx·(1 − fy) with
    /// both factors in [0, 1], and a rectangle's 255 − v maps [0, 255]
    /// onto itself; no f32 rounding of these steps leaves the interval.
    /// On [0, 256) the floor that `to_u8` computes is exactly `as u8`,
    /// whose saturating conversion does not vectorise.
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Image {
        let mut img = Image::new(width, height);
        let s1 = (seed & 0xff) as f32 / 255.0;
        let s2 = ((seed >> 8) & 0xff) as f32 / 255.0;
        // Per column: fx, the red channel's x term, and whether the
        // column crosses one of the hard-edged rectangles.
        let fx: Vec<f32> = (0..width).map(|x| x as f32 / width.max(1) as f32).collect();
        let red_x: Vec<f32> = fx.iter().map(|&fx| (fx * 7.0 + s1 * 6.0).sin()).collect();
        let box_cols: Vec<bool> = (0..width)
            .map(|x| (x / 37) % 5 == (seed as usize) % 5)
            .collect();
        let [mut r, mut g, mut b] = [(); 3].map(|_| vec![0u8; width]);
        for (y, row) in img.rgb.chunks_exact_mut(3 * width.max(1)).enumerate() {
            let fy = y as f32 / height.max(1) as f32;
            let red_y = (fy * 3.0).cos();
            let green = 255.0 * (0.5 + 0.5 * ((fy * 9.0 + s2 * 4.0).sin()));
            // A few hard-edged rectangles for high-frequency content.
            let boxes = ((y / 23) % 3 == 0).then_some(&box_cols[..]);
            fill_channel(&mut r, &red_x, boxes, |rx| {
                255.0 * (0.5 + 0.5 * (rx * red_y))
            });
            fill_channel(&mut g, &fx, boxes, |_| green);
            fill_channel(&mut b, &fx, boxes, |fx| 255.0 * (fx * (1.0 - fy)));
            interleave(row, &r, &g, &b);
        }
        img
    }

    /// Encodes as binary PPM (`P6`).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.rgb);
        out
    }

    /// Decodes a `P6` or `P3` PPM.
    ///
    /// The header's dimensions are untrusted: a raster size that
    /// overflows `usize` is an error, and a `P3` decode reserves no more
    /// samples than the rest of the input could hold.
    pub fn from_ppm(data: &[u8]) -> Result<Image, PpmError> {
        let mut toks = Tokens { data, pos: 0 };
        let magic = toks.token()?;
        if magic != b"P6" && magic != b"P3" {
            return err(format!("bad magic {:?}", String::from_utf8_lossy(magic)));
        }
        let width = toks.int()? as usize;
        let height = toks.int()? as usize;
        let maxval = toks.int()?;
        if maxval != 255 {
            return err(format!("unsupported maxval {maxval}"));
        }
        let need = width
            .checked_mul(height)
            .and_then(|n| n.checked_mul(3))
            .ok_or_else(|| PpmError(format!("{width}x{height} raster is too large")))?;
        let rgb = if magic == b"P6" {
            // Exactly one whitespace byte separates header and raster.
            let start = toks.pos + 1;
            start
                .checked_add(need)
                .and_then(|end| data.get(start..end))
                .ok_or_else(|| PpmError("truncated raster".into()))?
                .to_vec()
        } else {
            // Each sample takes a digit and all but the last a separator.
            let room = (data.len() - toks.pos).div_ceil(2);
            let mut rgb = Vec::with_capacity(need.min(room));
            for _ in 0..need {
                let v = toks.int()?;
                if v > 255 {
                    return err(format!("sample {v} exceeds maxval"));
                }
                rgb.push(v as u8);
            }
            rgb
        };
        Ok(Image { width, height, rgb })
    }

    /// Box-filter scale to `numer/8` of the original (numer in 1..=8),
    /// the benchmark's "eight sizes between 1/8th scale and full-size".
    pub fn scale_eighths(&self, numer: u32) -> Image {
        assert!((1..=8).contains(&numer), "scale numerator in 1..=8");
        if numer == 8 {
            return self.clone();
        }
        let nw = (self.width * numer as usize / 8).max(1);
        let nh = (self.height * numer as usize / 8).max(1);
        self.resize_box(nw, nh)
    }

    /// Box-filter resize to exactly `nw` x `nh`: each output pixel is the
    /// integer mean of the source pixels its box covers.
    pub fn resize_box(&self, nw: usize, nh: usize) -> Image {
        let mut out = Image::new(nw, nh);
        let stride = 3 * self.width;
        // Output columns share their source spans across rows.
        let columns: Vec<(usize, usize)> = (0..nw).map(|ox| box_span(ox, nw, self.width)).collect();
        // Per source column, the sum of the current output row's source
        // rows: the box sums are then sums of `column_sums` over spans.
        let mut column_sums = vec![0u32; stride];
        for (oy, out_row) in out.rgb.chunks_exact_mut(3 * nw.max(1)).enumerate() {
            let (y0, y1) = box_span(oy, nh, self.height);
            column_sums.fill(0);
            for row in self.rgb[y0 * stride..y1 * stride].chunks_exact(stride.max(1)) {
                for (sum, &v) in column_sums.iter_mut().zip(row) {
                    *sum += v as u32;
                }
            }
            for (px, &(x0, x1)) in out_row.chunks_exact_mut(3).zip(&columns) {
                let mut sum = [0u32; 3];
                for src in column_sums[3 * x0..3 * x1].chunks_exact(3) {
                    sum[0] += src[0];
                    sum[1] += src[1];
                    sum[2] += src[2];
                }
                let n = ((y1 - y0) * (x1 - x0)).max(1) as u32;
                px.copy_from_slice(&sum.map(|s| (s / n) as u8));
            }
        }
        out
    }
}

/// Source span `[lo, hi)` of output index `o` when `len` source samples
/// are boxed into `n` outputs: at least one sample wide, clipped to the
/// source.
fn box_span(o: usize, n: usize, len: usize) -> (usize, usize) {
    let lo = o * len / n;
    let hi = ((o + 1) * len).div_ceil(n).max(lo + 1).min(len);
    (lo, hi)
}

/// One channel of a [`Image::synthetic`] row: `out[x]` is
/// `value(xs[x])`, or 255 minus it in the columns `boxes` marks, as a
/// byte. `boxes` is `None` in rows that cross no rectangle, which then
/// skip the selection.
fn fill_channel(out: &mut [u8], xs: &[f32], boxes: Option<&[bool]>, value: impl Fn(f32) -> f32) {
    match boxes {
        Some(boxes) => {
            for (o, (&x, &inside)) in out.iter_mut().zip(xs.iter().zip(boxes)) {
                let v = value(x);
                *o = to_u8(if inside { 255.0 - v } else { v });
            }
        }
        None => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = to_u8(value(x));
            }
        }
    }
}

/// Interleaves one row's channels into RGB triples. Four pixels go out
/// as three 32-bit words assembled in registers, which the baseline
/// x86-64 target does faster than twelve byte stores; the row's last
/// `width % 4` pixels go one at a time.
fn interleave(row: &mut [u8], r: &[u8], g: &[u8], b: &[u8]) {
    let (quads, tail) = row.as_chunks_mut::<12>();
    let (r4, r_tail) = r.as_chunks::<4>();
    let (g4, g_tail) = g.as_chunks::<4>();
    let (b4, b_tail) = b.as_chunks::<4>();
    for (out, ((r, g), b)) in quads.iter_mut().zip(r4.iter().zip(g4).zip(b4)) {
        let [r, g, b] = [r, g, b].map(|c| u32::from_le_bytes(*c));
        let byte = |c: u32, k: u32| (c >> (8 * k)) & 0xff;
        // r0 g0 b0 r1 | g1 b1 r2 g2 | b2 r3 g3 b3
        let w0 = byte(r, 0) | byte(g, 0) << 8 | byte(b, 0) << 16 | byte(r, 1) << 24;
        let w1 = byte(g, 1) | byte(b, 1) << 8 | byte(r, 2) << 16 | byte(g, 2) << 24;
        let w2 = byte(b, 2) | byte(r, 3) << 8 | byte(g, 3) << 16 | byte(b, 3) << 24;
        out[..4].copy_from_slice(&w0.to_le_bytes());
        out[4..8].copy_from_slice(&w1.to_le_bytes());
        out[8..].copy_from_slice(&w2.to_le_bytes());
    }
    let pixels = tail.as_chunks_mut::<3>().0;
    for (px, ((&r, &g), &b)) in pixels.iter_mut().zip(r_tail.iter().zip(g_tail).zip(b_tail)) {
        *px = [r, g, b];
    }
}

/// `v as u8` for `v` in [0, 256), the range of every value
/// [`Image::synthetic`] converts, in operations that vectorise. Adding
/// 2²³ leaves the nearest integer n to `v` in the low mantissa bits of
/// `m` (its ulp is 1), and subtracting 1 where n > v turns that into
/// ⌊v⌋, which is what `as u8` truncates to on this range. Below 0 it
/// wraps where `as u8` saturates.
fn to_u8(v: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let m = v + TWO_23;
    (m.to_bits() as i32 - (m - TWO_23 > v) as i32) as u8
}

struct Tokens<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Tokens<'a> {
    /// Next whitespace-delimited token, skipping `#` comments.
    fn token(&mut self) -> Result<&'a [u8], PpmError> {
        loop {
            while self.pos < self.data.len() && self.data[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.data.len() && self.data[self.pos] == b'#' {
                while self.pos < self.data.len() && self.data[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
        let start = self.pos;
        while self.pos < self.data.len() && !self.data[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if start == self.pos {
            return err("unexpected end of header");
        }
        Ok(&self.data[start..self.pos])
    }

    fn int(&mut self) -> Result<u32, PpmError> {
        let t = self.token()?;
        std::str::from_utf8(t)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| PpmError(format!("bad integer {:?}", String::from_utf8_lossy(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pixel synthesiser the separable one must match byte for
    /// byte.
    fn synthetic_reference(width: usize, height: usize, seed: u64) -> Image {
        let mut img = Image::new(width, height);
        let s1 = (seed & 0xff) as f32 / 255.0;
        let s2 = ((seed >> 8) & 0xff) as f32 / 255.0;
        for y in 0..height {
            for x in 0..width {
                let fx = x as f32 / width.max(1) as f32;
                let fy = y as f32 / height.max(1) as f32;
                let r = 255.0 * (0.5 + 0.5 * ((fx * 7.0 + s1 * 6.0).sin() * (fy * 3.0).cos()));
                let g = 255.0 * (0.5 + 0.5 * ((fy * 9.0 + s2 * 4.0).sin()));
                let b = 255.0 * (fx * (1.0 - fy));
                let in_box = ((x / 37) % 5 == (seed as usize) % 5) && ((y / 23) % 3 == 0);
                let (r, g, b) = if in_box {
                    (255.0 - r, 255.0 - g, 255.0 - b)
                } else {
                    (r, g, b)
                };
                img.set_pixel(x, y, (r as u8, g as u8, b as u8));
            }
        }
        img
    }

    /// The per-pixel box filter the span-cached one must match byte for
    /// byte.
    fn resize_box_reference(src: &Image, nw: usize, nh: usize) -> Image {
        let mut out = Image::new(nw, nh);
        for oy in 0..nh {
            let y0 = oy * src.height / nh;
            let y1 = (((oy + 1) * src.height).div_ceil(nh)).max(y0 + 1);
            for ox in 0..nw {
                let x0 = ox * src.width / nw;
                let x1 = (((ox + 1) * src.width).div_ceil(nw)).max(x0 + 1);
                let (mut r, mut g, mut b, mut n) = (0u32, 0u32, 0u32, 0u32);
                for y in y0..y1.min(src.height) {
                    for x in x0..x1.min(src.width) {
                        let (pr, pg, pb) = src.pixel(x, y);
                        r += pr as u32;
                        g += pg as u32;
                        b += pb as u32;
                        n += 1;
                    }
                }
                let n = n.max(1);
                out.set_pixel(ox, oy, ((r / n) as u8, (g / n) as u8, (b / n) as u8));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn synthetic_matches_reference(w in 1usize..=260, h in 1usize..97, seed in any::<u64>()) {
            prop_assert_eq!(Image::synthetic(w, h, seed), synthetic_reference(w, h, seed));
        }

        #[test]
        fn scale_eighths_matches_reference(
            w in 1usize..97,
            h in 1usize..97,
            seed in any::<u64>(),
        ) {
            let img = Image::synthetic(w, h, seed);
            for numer in 1..=8u32 {
                let nw = (w * numer as usize / 8).max(1);
                let nh = (h * numer as usize / 8).max(1);
                prop_assert_eq!(img.scale_eighths(numer), resize_box_reference(&img, nw, nh));
            }
        }

        #[test]
        fn resize_box_matches_reference_up_and_down(
            w in 1usize..40,
            h in 1usize..40,
            nw in 1usize..60,
            nh in 1usize..60,
            seed in any::<u64>(),
        ) {
            let img = Image::synthetic(w, h, seed);
            prop_assert_eq!(img.resize_box(nw, nh), resize_box_reference(&img, nw, nh));
        }
    }

    #[test]
    fn to_u8_is_as_u8_on_the_synthesised_range() {
        let mut cases = vec![256f32.next_down()];
        for k in 0..=255u8 {
            let v = k as f32;
            cases.extend([v.next_down(), v, v.next_up()]);
        }
        // 0's lower neighbour is the one below the range.
        for v in cases.into_iter().filter(|&v| v >= 0.0) {
            assert_eq!(to_u8(v), v as u8, "{v:e}");
        }
    }

    #[test]
    fn degenerate_sizes_match_reference() {
        for (w, h) in [(1, 1), (1, 9), (9, 1), (0, 3), (3, 0), (0, 0)] {
            let img = Image::synthetic(w, h, 7);
            assert_eq!(img, synthetic_reference(w, h, 7), "{w}x{h}");
            for (nw, nh) in [(1, 1), (2, 3), (0, 2), (2, 0)] {
                assert_eq!(
                    img.resize_box(nw, nh),
                    resize_box_reference(&img, nw, nh),
                    "{w}x{h} -> {nw}x{nh}"
                );
            }
        }
    }

    #[test]
    fn p6_round_trip() {
        let img = Image::synthetic(33, 17, 7);
        let ppm = img.to_ppm();
        let back = Image::from_ppm(&ppm).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn p3_parses() {
        let src = b"P3\n# a comment\n2 2\n255\n255 0 0  0 255 0\n0 0 255  255 255 255\n";
        let img = Image::from_ppm(src).unwrap();
        assert_eq!(img.width, 2);
        assert_eq!(img.pixel(0, 0), (255, 0, 0));
        assert_eq!(img.pixel(1, 1), (255, 255, 255));
    }

    #[test]
    fn p6_with_comment() {
        let mut head = b"P6\n# made by tests\n2 1\n255\n".to_vec();
        head.extend_from_slice(&[1, 2, 3, 4, 5, 6]);
        let img = Image::from_ppm(&head).unwrap();
        assert_eq!(img.pixel(1, 0), (4, 5, 6));
    }

    #[test]
    fn truncated_raster_rejected() {
        let data = b"P6\n4 4\n255\nshort";
        assert!(Image::from_ppm(data).is_err());
    }

    #[test]
    fn overflowing_dimensions_rejected() {
        let e = Image::from_ppm(b"P6\n4294967295 4294967295\n255\n").unwrap_err();
        assert!(e.0.contains("too large"), "{e}");
        assert!(Image::from_ppm(b"P3\n4294967295 4294967295\n255\n1").is_err());
    }

    #[test]
    fn p3_reserves_only_what_the_input_holds() {
        // A 30 GB raster claimed by a 22-byte file: an error, not an
        // allocation failure.
        let e = Image::from_ppm(b"P3\n100000 100000\n255\n1").unwrap_err();
        assert!(e.0.contains("end of header"), "{e}");
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(Image::from_ppm(b"P9\n1 1\n255\nxyz").is_err());
    }

    #[test]
    fn nonstandard_maxval_rejected() {
        assert!(Image::from_ppm(b"P6\n1 1\n65535\n\0\0\0\0\0\0").is_err());
    }

    #[test]
    fn scale_eighths_dimensions() {
        let img = Image::synthetic(160, 80, 1);
        for numer in 1..=8u32 {
            let s = img.scale_eighths(numer);
            assert_eq!(s.width, 160 * numer as usize / 8);
            assert_eq!(s.height, 80 * numer as usize / 8);
        }
    }

    #[test]
    fn full_scale_is_identity() {
        let img = Image::synthetic(31, 19, 3);
        assert_eq!(img.scale_eighths(8), img);
    }

    #[test]
    fn box_filter_averages() {
        // 2x2 image of distinct grays scaled to 1x1 = average.
        let mut img = Image::new(2, 2);
        img.set_pixel(0, 0, (0, 0, 0));
        img.set_pixel(1, 0, (100, 100, 100));
        img.set_pixel(0, 1, (100, 100, 100));
        img.set_pixel(1, 1, (200, 200, 200));
        let s = img.resize_box(1, 1);
        assert_eq!(s.pixel(0, 0), (100, 100, 100));
    }

    #[test]
    fn synthetic_is_deterministic() {
        assert_eq!(Image::synthetic(64, 64, 5), Image::synthetic(64, 64, 5));
        assert_ne!(Image::synthetic(64, 64, 5), Image::synthetic(64, 64, 6));
    }
}
