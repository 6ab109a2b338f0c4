//! Baseline JPEG encoder and decoder, from scratch (libjpeg substitute).
//!
//! The image server's `Compress` node is the CPU-bound heart of the
//! paper's Figure 6 experiment; this module provides a real encoder so
//! its cost profile is genuine: RGB→YCbCr, 8×8 forward DCT, quality-
//! scaled quantization with the Annex K tables, zig-zag ordering,
//! differential DC + run-length AC Huffman coding with the standard
//! K.3 tables, and JFIF framing. A matching baseline decoder (4:4:4,
//! as produced by the encoder) exists so tests can verify PSNR, not
//! just marker structure.
//!
//! Both DCTs read their 64 cosines from one table filled once, instead
//! of calling `cos()` per term, which made the transform ~90% of an
//! encode. The output is byte-for-byte the output of the per-term
//! version: the table holds the same f32 values, and every sum adds the
//! same products in the same order from `0f32`. That is a contract, not
//! a coincidence. The benchmark compares every JPEG the image server
//! returns byte for byte, and which entries the server's LFU cache keeps
//! depends on each JPEG's size. The root package's `image_golden` test
//! pins the bytes; a faster transform that changes them (AAN, a
//! reciprocal quantiser, FMA) is a different encoder, not an
//! optimisation of this one.
//!
//! The encoder reads the raster where it lies. Each 8×8 block is
//! converted from RGB as it is coded, into three blocks on the stack,
//! instead of from three whole-image YCbCr planes (three `f32`s per
//! pixel, four times the raster); the entropy-coded scan is appended to
//! the header's buffer; and the JPEG comes back at exactly its length.
//! An encode therefore allocates the JPEG and nothing else the size of
//! the image, and the bytes are unchanged: each sample is the same f32
//! expression of the same pixel, and the plane-based encoder survives as
//! a test oracle that the proptests hold this one to.

use crate::ppm::Image;

// ------------------------------------------------------------- tables --

/// Annex K.1 luminance quantization table, in natural (row-major) order.
const Q_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Annex K.2 chrominance quantization table.
const Q_CHROMA: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99, 24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
];

/// Zig-zag scan order: `ZIGZAG[i]` is the natural index of coefficient i.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

// Standard K.3 Huffman table specifications: (bits[1..=16], values).
const DC_LUMA_BITS: [u8; 16] = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0];
const DC_LUMA_VALS: [u8; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
const DC_CHROMA_BITS: [u8; 16] = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0];
const DC_CHROMA_VALS: [u8; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
const AC_LUMA_BITS: [u8; 16] = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125];
const AC_LUMA_VALS: [u8; 162] = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08, 0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7,
    0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5,
    0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
    0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
    0xf9, 0xfa,
];
const AC_CHROMA_BITS: [u8; 16] = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119];
const AC_CHROMA_VALS: [u8; 162] = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0,
    0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
    0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
    0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3,
    0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
    0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
    0xf9, 0xfa,
];

/// (code, length) pairs indexed by symbol value.
fn build_encode_table(bits: &[u8; 16], vals: &[u8]) -> Vec<(u16, u8)> {
    let mut table = vec![(0u16, 0u8); 256];
    let mut code = 0u16;
    let mut k = 0;
    for (len_minus_1, &count) in bits.iter().enumerate() {
        for _ in 0..count {
            table[vals[k] as usize] = (code, len_minus_1 as u8 + 1);
            code += 1;
            k += 1;
        }
        code <<= 1;
    }
    table
}

// ---------------------------------------------------------- bit writer --

/// Appends byte-stuffed entropy-coded bits to the end of `out`, the JPEG
/// written so far, so the scan follows the headers without a copy.
struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    fn new(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    fn put(&mut self, code: u16, len: u8) {
        debug_assert!((1..=16).contains(&len));
        self.acc = (self.acc << len) | (code as u32 & ((1 << len) - 1));
        self.nbits += len as u32;
        while self.nbits >= 8 {
            let byte = ((self.acc >> (self.nbits - 8)) & 0xff) as u8;
            self.out.push(byte);
            if byte == 0xff {
                self.out.push(0x00); // byte stuffing
            }
            self.nbits -= 8;
        }
    }

    /// Pads the last byte with 1-bits and returns the buffer.
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put((1u16 << pad) - 1, pad as u8);
        }
        self.out
    }
}

// ----------------------------------------------------------------- DCT --

/// `cos_table()[n][k]` is the DCT basis value for sample `n` at frequency
/// `k`, cos((2n+1)·k·π/16), evaluated once with the f32 expression the
/// per-term `cos()` encoder used, so every product below is bit-identical
/// to it.
fn cos_table() -> &'static [[f32; 8]; 8] {
    static TABLE: std::sync::OnceLock<[[f32; 8]; 8]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0f32; 8]; 8];
        for (n, row) in t.iter_mut().enumerate() {
            for (k, c) in row.iter_mut().enumerate() {
                *c = ((2 * n + 1) as f32 * k as f32 * std::f32::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

/// The normalisation factor C(k): 1/√2 for the DC term, 1 otherwise.
fn norm(k: usize) -> f32 {
    if k == 0 {
        std::f32::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// Forward 8x8 DCT, separable, in f32 over [`cos_table`].
///
/// Each pass computes the eight outputs of a row as eight independent
/// lanes, but every lane still starts from `0f32` and adds its eight
/// products in sample order, the order of the textbook triple loop. Rust
/// neither reassociates nor contracts to FMA, so the coefficients are
/// bit-identical to that loop's and so are the encoded bytes.
fn fdct(block: &mut [f32; 64]) {
    let c = cos_table();
    let mut tmp = [0f32; 64];
    // Rows: tmp[y][u] = ½·C(u)·Σx block[y][x]·cos(x, u), lanes over u.
    for (row, out) in block.chunks_exact(8).zip(tmp.chunks_exact_mut(8)) {
        let mut s = [0f32; 8];
        for (&v, cx) in row.iter().zip(c) {
            mul_add_lanes(&mut s, v, cx);
        }
        for (u, (o, su)) in out.iter_mut().zip(s).enumerate() {
            *o = 0.5 * norm(u) * su;
        }
    }
    // Columns: block[v][u] = ½·C(v)·Σy tmp[y][u]·cos(y, v), lanes over u.
    for (v, out) in block.chunks_exact_mut(8).enumerate() {
        let mut s = [0f32; 8];
        for (trow, cy) in tmp.chunks_exact(8).zip(c) {
            mul_add_lanes(&mut s, cy[v], trow);
        }
        for (o, su) in out.iter_mut().zip(s) {
            *o = 0.5 * norm(v) * su;
        }
    }
}

/// `acc[i] += a * x[i]` on eight independent lanes (one rounding for the
/// product, one for the sum: no FMA).
fn mul_add_lanes(acc: &mut [f32; 8], a: f32, x: &[f32]) {
    for (s, &xi) in acc.iter_mut().zip(x) {
        *s += a * xi;
    }
}

/// Inverse 8x8 DCT over the same table, each sum in frequency order.
fn idct(block: &mut [f32; 64]) {
    let c = cos_table();
    let mut tmp = [0f32; 64];
    // Rows: tmp[v][x] = ½·Σu C(u)·block[v][u]·cos(x, u).
    for (row, out) in block.chunks_exact(8).zip(tmp.chunks_exact_mut(8)) {
        for (o, cx) in out.iter_mut().zip(c) {
            let mut s = 0f32;
            for (u, (&f, &cxu)) in row.iter().zip(cx).enumerate() {
                s += norm(u) * f * cxu;
            }
            *o = 0.5 * s;
        }
    }
    // Columns: block[y][x] = ½·Σv C(v)·tmp[v][x]·cos(y, v).
    for x in 0..8 {
        for (y, cy) in c.iter().enumerate() {
            let mut s = 0f32;
            for (v, &cyv) in cy.iter().enumerate() {
                s += norm(v) * tmp[v * 8 + x] * cyv;
            }
            block[y * 8 + x] = 0.5 * s;
        }
    }
}

// -------------------------------------------------------------- encode --

/// Scales an Annex K table for a libjpeg-style quality in 1..=100.
fn scaled_table(base: &[u16; 64], quality: u8) -> [u16; 64] {
    let q = quality.clamp(1, 100) as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut out = [0u16; 64];
    for i in 0..64 {
        let v = (base[i] as i32 * scale + 50) / 100;
        out[i] = v.clamp(1, 255) as u16;
    }
    out
}

fn rgb_to_ycbcr(r: u8, g: u8, b: u8) -> (f32, f32, f32) {
    let (r, g, b) = (r as f32, g as f32, b as f32);
    (
        0.299 * r + 0.587 * g + 0.114 * b,
        -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
        0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
    )
}

fn ycbcr_to_rgb(y: f32, cb: f32, cr: f32) -> (u8, u8, u8) {
    let cb = cb - 128.0;
    let cr = cr - 128.0;
    let r = y + 1.402 * cr;
    let g = y - 0.344136 * cb - 0.714136 * cr;
    let b = y + 1.772 * cb;
    (
        r.round().clamp(0.0, 255.0) as u8,
        g.round().clamp(0.0, 255.0) as u8,
        b.round().clamp(0.0, 255.0) as u8,
    )
}

/// Magnitude category (number of bits) of a coefficient.
fn category(v: i32) -> u8 {
    (32 - (v.unsigned_abs()).leading_zeros()) as u8
}

/// Two's-complement-style JPEG magnitude bits.
fn magnitude_bits(v: i32) -> u16 {
    if v >= 0 {
        v as u16
    } else {
        (v - 1) as u16 & ((1u32 << category(v)) - 1) as u16
    }
}

/// Encodes `img` as a baseline JFIF JPEG (4:4:4, quality 1..=100).
///
/// Each 8×8 block is converted from `img.rgb` where it lies: its 64
/// pixels, at the clamped rows and columns that replicate the edge of a
/// partial block, go through `rgb_to_ycbcr` and the `- 128.0` level
/// shift straight into three blocks on the stack. No whole-image YCbCr
/// planes are made, yet the bytes are those of the encoder that made
/// them: each sample is the same f32 expression of the same pixel. The
/// scan is appended to the header's buffer, and the JPEG is returned at
/// exactly its length, so a cache that counts `len()` counts what it
/// holds.
pub fn encode(img: &Image, quality: u8) -> Vec<u8> {
    let mut scan = Scan::start(img, quality);
    for by in 0..img.height.div_ceil(8) {
        let rows = block_rows(img, by);
        for bx in 0..img.width.div_ceil(8) {
            let cols = block_cols(img, bx);
            let mut ycc = [[0f32; 64]; 3];
            for (dy, &row) in rows.iter().enumerate() {
                for (dx, &col) in cols.iter().enumerate() {
                    let p = 3 * (row + col);
                    let (y, cb, cr) = rgb_to_ycbcr(img.rgb[p], img.rgb[p + 1], img.rgb[p + 2]);
                    let i = 8 * dy + dx;
                    ycc[0][i] = y - 128.0;
                    ycc[1][i] = cb - 128.0;
                    ycc[2][i] = cr - 128.0;
                }
            }
            for (comp, block) in ycc.iter_mut().enumerate() {
                scan.block(comp, block);
            }
        }
    }
    scan.finish()
}

/// Pixel index of the first sample of each of block row `by`'s eight
/// rows; rows past the bottom edge repeat the last one.
fn block_rows(img: &Image, by: usize) -> [usize; 8] {
    std::array::from_fn(|dy| (by * 8 + dy).min(img.height.saturating_sub(1)) * img.width)
}

/// Column of each of block column `bx`'s eight samples; columns past the
/// right edge repeat the last one.
fn block_cols(img: &Image, bx: usize) -> [usize; 8] {
    std::array::from_fn(|dx| (bx * 8 + dx).min(img.width.saturating_sub(1)))
}

/// One baseline scan being written: the headers first, then each block's
/// entropy-coded coefficients appended to the same buffer.
struct Scan {
    /// Quantisers in natural order, luma then chroma.
    quant: [[u16; 64]; 2],
    /// DC and AC Huffman codes, luma then chroma.
    dc: [Vec<(u16, u8)>; 2],
    ac: [Vec<(u16, u8)>; 2],
    /// Last DC coefficient of each component.
    prev_dc: [i32; 3],
    bits: BitWriter,
}

impl Scan {
    /// Writes SOI through SOS for `img` at `quality`.
    fn start(img: &Image, quality: u8) -> Scan {
        let qy = scaled_table(&Q_LUMA, quality);
        let qc = scaled_table(&Q_CHROMA, quality);
        // The headers take 623 bytes; the scan grows the buffer from there.
        let mut out = Vec::with_capacity(1024);
        // SOI + APP0 (JFIF).
        out.extend_from_slice(&[0xff, 0xd8]);
        out.extend_from_slice(&[0xff, 0xe0, 0x00, 0x10]);
        out.extend_from_slice(b"JFIF\0");
        out.extend_from_slice(&[0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00]);
        // DQT x2.
        for (id, table) in [(0u8, &qy), (1u8, &qc)] {
            out.extend_from_slice(&[0xff, 0xdb, 0x00, 0x43, id]);
            for i in 0..64 {
                out.push(table[ZIGZAG[i]] as u8);
            }
        }
        // SOF0: 8-bit, 3 components, 1x1 sampling (4:4:4).
        let (w, h) = (img.width as u16, img.height as u16);
        out.extend_from_slice(&[0xff, 0xc0, 0x00, 0x11, 0x08]);
        out.extend_from_slice(&h.to_be_bytes());
        out.extend_from_slice(&w.to_be_bytes());
        out.extend_from_slice(&[0x03, 1, 0x11, 0, 2, 0x11, 1, 3, 0x11, 1]);
        // DHT x4.
        for (class_id, bits, vals) in [
            (0x00u8, &DC_LUMA_BITS, &DC_LUMA_VALS[..]),
            (0x10, &AC_LUMA_BITS, &AC_LUMA_VALS[..]),
            (0x01, &DC_CHROMA_BITS, &DC_CHROMA_VALS[..]),
            (0x11, &AC_CHROMA_BITS, &AC_CHROMA_VALS[..]),
        ] {
            let len = 2 + 1 + 16 + vals.len();
            out.extend_from_slice(&[0xff, 0xc4]);
            out.extend_from_slice(&(len as u16).to_be_bytes());
            out.push(class_id);
            out.extend_from_slice(bits);
            out.extend_from_slice(vals);
        }
        // SOS.
        out.extend_from_slice(&[
            0xff, 0xda, 0x00, 0x0c, 0x03, 1, 0x00, 2, 0x11, 3, 0x11, 0x00, 0x3f, 0x00,
        ]);
        Scan {
            quant: [qy, qc],
            dc: [
                build_encode_table(&DC_LUMA_BITS, &DC_LUMA_VALS),
                build_encode_table(&DC_CHROMA_BITS, &DC_CHROMA_VALS),
            ],
            ac: [
                build_encode_table(&AC_LUMA_BITS, &AC_LUMA_VALS),
                build_encode_table(&AC_CHROMA_BITS, &AC_CHROMA_VALS),
            ],
            prev_dc: [0; 3],
            bits: BitWriter::new(out),
        }
    }

    /// Transforms, quantises and codes one level-shifted 8×8 block of
    /// component `comp` (0 is luma).
    fn block(&mut self, comp: usize, block: &mut [f32; 64]) {
        let table = comp.min(1);
        let (q, dc, ac) = (&self.quant[table], &self.dc[table], &self.ac[table]);
        fdct(block);
        // Quantize into zig-zag order.
        let mut coeffs = [0i32; 64];
        for i in 0..64 {
            let nat = ZIGZAG[i];
            coeffs[i] = (block[nat] / q[nat] as f32).round() as i32;
        }
        // DC.
        let diff = coeffs[0] - self.prev_dc[comp];
        self.prev_dc[comp] = coeffs[0];
        let cat = category(diff);
        let (code, len) = dc[cat as usize];
        self.bits.put(code, len);
        if cat > 0 {
            self.bits.put(magnitude_bits(diff), cat);
        }
        // AC with run-length coding.
        let mut run = 0u8;
        for &cf in &coeffs[1..] {
            if cf == 0 {
                run += 1;
                continue;
            }
            while run >= 16 {
                let (zc, zl) = ac[0xf0]; // ZRL
                self.bits.put(zc, zl);
                run -= 16;
            }
            let cat = category(cf);
            let sym = (run << 4) | cat;
            let (code, len) = ac[sym as usize];
            debug_assert!(len > 0, "missing AC code for symbol {sym:#x}");
            self.bits.put(code, len);
            self.bits.put(magnitude_bits(cf), cat);
            run = 0;
        }
        if run > 0 {
            let (ec, el) = ac[0x00]; // EOB
            self.bits.put(ec, el);
        }
    }

    /// Ends the scan with EOI and returns the JPEG at exactly its length.
    fn finish(self) -> Vec<u8> {
        let mut out = self.bits.finish();
        out.extend_from_slice(&[0xff, 0xd9]);
        out.shrink_to_fit();
        out
    }
}

// -------------------------------------------------------------- decode --

/// JPEG decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JpegError(pub String);

impl std::fmt::Display for JpegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jpeg error: {}", self.0)
    }
}

impl std::error::Error for JpegError {}

fn jerr<T>(m: impl Into<String>) -> Result<T, JpegError> {
    Err(JpegError(m.into()))
}

struct HuffDecoder {
    /// (length, code) -> value.
    lookup: std::collections::HashMap<(u8, u16), u8>,
    max_len: u8,
}

impl HuffDecoder {
    fn new(bits: &[u8; 16], vals: &[u8]) -> Self {
        let mut lookup = std::collections::HashMap::new();
        let mut code = 0u16;
        let mut k = 0;
        let mut max_len = 0;
        for (lm1, &count) in bits.iter().enumerate() {
            for _ in 0..count {
                lookup.insert((lm1 as u8 + 1, code), vals[k]);
                code += 1;
                k += 1;
                max_len = lm1 as u8 + 1;
            }
            code <<= 1;
        }
        HuffDecoder { lookup, max_len }
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn fill(&mut self) {
        while self.nbits <= 24 && self.pos < self.data.len() {
            let mut byte = self.data[self.pos];
            self.pos += 1;
            if byte == 0xff {
                // Skip the stuffed 0x00; a marker ends the stream.
                match self.data.get(self.pos) {
                    Some(0x00) => {
                        self.pos += 1;
                    }
                    _ => {
                        byte = 0; // treat as padding at stream end
                        self.pos = self.data.len();
                    }
                }
            }
            self.acc = (self.acc << 8) | byte as u32;
            self.nbits += 8;
        }
    }

    fn get_bits(&mut self, n: u8) -> Result<u16, JpegError> {
        if n == 0 {
            return Ok(0);
        }
        self.fill();
        if self.nbits < n as u32 {
            return jerr("bit stream exhausted");
        }
        let v = ((self.acc >> (self.nbits - n as u32)) & ((1u32 << n) - 1)) as u16;
        self.nbits -= n as u32;
        Ok(v)
    }

    fn decode(&mut self, table: &HuffDecoder) -> Result<u8, JpegError> {
        let mut code = 0u16;
        for len in 1..=table.max_len {
            code = (code << 1) | self.get_bits(1)?;
            if let Some(&v) = table.lookup.get(&(len, code)) {
                return Ok(v);
            }
        }
        jerr("invalid Huffman code")
    }
}

fn extend(v: u16, cat: u8) -> i32 {
    if cat == 0 {
        return 0;
    }
    let vt = 1i32 << (cat - 1);
    if (v as i32) < vt {
        v as i32 - (1 << cat) + 1
    } else {
        v as i32
    }
}

/// Header info parsed from a baseline JPEG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JpegInfo {
    pub width: usize,
    pub height: usize,
    pub components: usize,
}

/// Parses markers to extract dimensions without a full decode.
pub fn probe(data: &[u8]) -> Result<JpegInfo, JpegError> {
    if data.len() < 4 || data[0] != 0xff || data[1] != 0xd8 {
        return jerr("missing SOI");
    }
    let mut pos = 2;
    while pos + 4 <= data.len() {
        if data[pos] != 0xff {
            return jerr(format!("expected marker at {pos}"));
        }
        let marker = data[pos + 1];
        if marker == 0xd9 {
            break;
        }
        let len = u16::from_be_bytes([data[pos + 2], data[pos + 3]]) as usize;
        if marker == 0xc0 || marker == 0xc1 {
            if pos + 9 >= data.len() {
                return jerr("truncated SOF");
            }
            let height = u16::from_be_bytes([data[pos + 5], data[pos + 6]]) as usize;
            let width = u16::from_be_bytes([data[pos + 7], data[pos + 8]]) as usize;
            let components = data[pos + 9] as usize;
            return Ok(JpegInfo {
                width,
                height,
                components,
            });
        }
        if marker == 0xda {
            // Entropy data follows; SOF should have come first.
            return jerr("SOS before SOF");
        }
        pos += 2 + len;
    }
    jerr("no SOF marker found")
}

/// Decodes a baseline 4:4:4 JPEG produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Image, JpegError> {
    let info = probe(data)?;
    if info.components != 3 {
        return jerr("decoder supports 3-component images");
    }
    // Re-parse to collect tables and the scan offset.
    let mut qtables: [[u16; 64]; 4] = [[0; 64]; 4];
    let mut dc_tabs: Vec<Option<HuffDecoder>> = (0..4).map(|_| None).collect();
    let mut ac_tabs: Vec<Option<HuffDecoder>> = (0..4).map(|_| None).collect();
    let mut comp_q = [0usize; 3];
    let mut comp_dc = [0usize; 3];
    let mut comp_ac = [0usize; 3];
    let mut scan_start = None;
    let mut pos = 2;
    while pos + 4 <= data.len() {
        if data[pos] != 0xff {
            return jerr(format!("expected marker at {pos}"));
        }
        let marker = data[pos + 1];
        if marker == 0xd9 {
            break;
        }
        let len = u16::from_be_bytes([data[pos + 2], data[pos + 3]]) as usize;
        let body = &data[pos + 4..pos + 2 + len];
        match marker {
            0xdb => {
                let mut b = body;
                while !b.is_empty() {
                    let id = (b[0] & 0x0f) as usize;
                    if b[0] >> 4 != 0 {
                        return jerr("16-bit quant tables unsupported");
                    }
                    for i in 0..64 {
                        qtables[id][ZIGZAG[i]] = b[1 + i] as u16;
                    }
                    b = &b[65..];
                }
            }
            0xc4 => {
                let mut b = body;
                while b.len() >= 17 {
                    let class = b[0] >> 4;
                    let id = (b[0] & 0x0f) as usize;
                    let mut bits = [0u8; 16];
                    bits.copy_from_slice(&b[1..17]);
                    let total: usize = bits.iter().map(|&x| x as usize).sum();
                    let vals = &b[17..17 + total];
                    let dec = HuffDecoder::new(&bits, vals);
                    if class == 0 {
                        dc_tabs[id] = Some(dec);
                    } else {
                        ac_tabs[id] = Some(dec);
                    }
                    b = &b[17 + total..];
                }
            }
            0xc0 => {
                let ncomp = body[5] as usize;
                for c in 0..ncomp {
                    let sampling = body[7 + 3 * c];
                    if sampling != 0x11 {
                        return jerr("decoder supports 4:4:4 only");
                    }
                    comp_q[c] = body[8 + 3 * c] as usize;
                }
            }
            0xda => {
                let ncomp = body[0] as usize;
                for c in 0..ncomp {
                    let tabs = body[2 + 2 * c];
                    comp_dc[c] = (tabs >> 4) as usize;
                    comp_ac[c] = (tabs & 0x0f) as usize;
                }
                scan_start = Some(pos + 2 + len);
                break;
            }
            _ => {}
        }
        pos += 2 + len;
    }
    let scan_start = scan_start.ok_or_else(|| JpegError("no SOS".into()))?;
    let scan_end = data
        .len()
        .checked_sub(2)
        .ok_or_else(|| JpegError("truncated".into()))?;
    let mut br = BitReader::new(&data[scan_start..scan_end]);

    let mut img = Image::new(info.width, info.height);
    let mut planes: Vec<Vec<f32>> = vec![vec![0f32; info.width * info.height]; 3];
    let mut prev_dc = [0i32; 3];
    let bh = info.height.div_ceil(8);
    let bw = info.width.div_ceil(8);
    for by in 0..bh {
        for bx in 0..bw {
            for comp in 0..3 {
                let dc_tab = dc_tabs[comp_dc[comp]]
                    .as_ref()
                    .ok_or_else(|| JpegError("missing DC table".into()))?;
                let ac_tab = ac_tabs[comp_ac[comp]]
                    .as_ref()
                    .ok_or_else(|| JpegError("missing AC table".into()))?;
                let q = &qtables[comp_q[comp]];
                let mut coeffs = [0i32; 64];
                let cat = br.decode(dc_tab)?;
                let diff = extend(br.get_bits(cat)?, cat);
                prev_dc[comp] += diff;
                coeffs[0] = prev_dc[comp];
                let mut k = 1;
                while k < 64 {
                    let sym = br.decode(ac_tab)?;
                    if sym == 0x00 {
                        break; // EOB
                    }
                    if sym == 0xf0 {
                        k += 16;
                        continue;
                    }
                    k += (sym >> 4) as usize;
                    if k >= 64 {
                        return jerr("AC run past block end");
                    }
                    let cat = sym & 0x0f;
                    coeffs[k] = extend(br.get_bits(cat)?, cat);
                    k += 1;
                }
                let mut block = [0f32; 64];
                for i in 0..64 {
                    let nat = ZIGZAG[i];
                    block[nat] = (coeffs[i] * q[nat] as i32) as f32;
                }
                idct(&mut block);
                for dy in 0..8 {
                    for dx in 0..8 {
                        let py = by * 8 + dy;
                        let px = bx * 8 + dx;
                        if py < info.height && px < info.width {
                            planes[comp][py * info.width + px] = block[dy * 8 + dx] + 128.0;
                        }
                    }
                }
            }
        }
    }
    for y in 0..info.height {
        for x in 0..info.width {
            let i = y * info.width + x;
            img.set_pixel(x, y, ycbcr_to_rgb(planes[0][i], planes[1][i], planes[2][i]));
        }
    }
    Ok(img)
}

/// Peak signal-to-noise ratio between two same-sized images, in dB.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.width, b.width);
    assert_eq!(a.height, b.height);
    let mse: f64 = a
        .rgb
        .iter()
        .zip(&b.rgb)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.rgb.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-term `cos()` forward DCT the table version must match bit
    /// for bit.
    fn fdct_reference(block: &mut [f32; 64]) {
        let mut tmp = [0f32; 64];
        // Rows.
        for y in 0..8 {
            for u in 0..8 {
                let mut s = 0f32;
                for x in 0..8 {
                    s += block[y * 8 + x]
                        * ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / 16.0).cos();
                }
                let cu = if u == 0 {
                    std::f32::consts::FRAC_1_SQRT_2
                } else {
                    1.0
                };
                tmp[y * 8 + u] = 0.5 * cu * s;
            }
        }
        // Columns.
        for u in 0..8 {
            for v in 0..8 {
                let mut s = 0f32;
                for y in 0..8 {
                    s += tmp[y * 8 + u]
                        * ((2 * y + 1) as f32 * v as f32 * std::f32::consts::PI / 16.0).cos();
                }
                let cv = if v == 0 {
                    std::f32::consts::FRAC_1_SQRT_2
                } else {
                    1.0
                };
                block[v * 8 + u] = 0.5 * cv * s;
            }
        }
    }

    /// The per-term `cos()` inverse DCT the table version must match bit
    /// for bit.
    fn idct_reference(block: &mut [f32; 64]) {
        let mut tmp = [0f32; 64];
        for v in 0..8 {
            for x in 0..8 {
                let mut s = 0f32;
                for u in 0..8 {
                    let cu = if u == 0 {
                        std::f32::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    s += cu
                        * block[v * 8 + u]
                        * ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / 16.0).cos();
                }
                tmp[v * 8 + x] = 0.5 * s;
            }
        }
        for x in 0..8 {
            for y in 0..8 {
                let mut s = 0f32;
                for v in 0..8 {
                    let cv = if v == 0 {
                        std::f32::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    s += cv
                        * tmp[v * 8 + x]
                        * ((2 * y + 1) as f32 * v as f32 * std::f32::consts::PI / 16.0).cos();
                }
                block[y * 8 + x] = 0.5 * s;
            }
        }
    }

    /// The plane-based encoder the in-place one must match byte for byte:
    /// the whole image is converted to YCbCr planes first, and each block
    /// is then read from the planes.
    fn encode_planes(img: &Image, quality: u8) -> Vec<u8> {
        let mut planes = [(); 3].map(|_| vec![0f32; img.width * img.height]);
        for (i, px) in img.rgb.chunks_exact(3).enumerate() {
            let (y, cb, cr) = rgb_to_ycbcr(px[0], px[1], px[2]);
            planes[0][i] = y;
            planes[1][i] = cb;
            planes[2][i] = cr;
        }
        let mut scan = Scan::start(img, quality);
        for by in 0..img.height.div_ceil(8) {
            let rows = block_rows(img, by);
            for bx in 0..img.width.div_ceil(8) {
                let cols = block_cols(img, bx);
                for (comp, plane) in planes.iter().enumerate() {
                    let mut block = [0f32; 64];
                    for (dst, &row) in block.chunks_exact_mut(8).zip(&rows) {
                        for (d, &col) in dst.iter_mut().zip(&cols) {
                            *d = plane[row + col] - 128.0;
                        }
                    }
                    scan.block(comp, &mut block);
                }
            }
        }
        scan.finish()
    }

    fn to_block(v: Vec<f32>) -> [f32; 64] {
        v.try_into().expect("64 samples")
    }

    fn bits(block: &[f32; 64]) -> Vec<u32> {
        block.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fdct_is_bit_identical_to_reference(
            samples in prop::collection::vec(-128f32..127f32, 64..65),
        ) {
            let mut fast = to_block(samples);
            let mut slow = fast;
            fdct(&mut fast);
            fdct_reference(&mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }

        #[test]
        fn fdct_is_bit_identical_on_integer_samples(
            samples in prop::collection::vec(-128i32..128, 64..65),
        ) {
            let mut fast = to_block(samples.into_iter().map(|v| v as f32).collect());
            let mut slow = fast;
            fdct(&mut fast);
            fdct_reference(&mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }

        #[test]
        fn idct_is_bit_identical_to_reference(
            coeffs in prop::collection::vec(-1024i32..1024, 64..65),
        ) {
            let mut fast = to_block(coeffs.into_iter().map(|v| v as f32).collect());
            let mut slow = fast;
            idct(&mut fast);
            idct_reference(&mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }

        #[test]
        fn encode_is_byte_identical_to_planes(
            w in 1usize..=97,
            h in 1usize..=97,
            seed in any::<u64>(),
            quality in 1u8..=100,
        ) {
            let img = Image::synthetic(w, h, seed);
            prop_assert_eq!(encode(&img, quality), encode_planes(&img, quality));
        }
    }

    #[test]
    fn encode_returns_exact_size() {
        let img = Image::synthetic(256, 192, 1);
        for scale in 1..=8 {
            let jpg = encode(&img.scale_eighths(scale), 75);
            assert_eq!(jpg.len(), jpg.capacity(), "scale {scale}");
        }
    }

    #[test]
    fn encodes_valid_structure() {
        let img = Image::synthetic(64, 48, 1);
        let jpg = encode(&img, 75);
        assert_eq!(&jpg[..2], &[0xff, 0xd8], "SOI");
        assert_eq!(&jpg[jpg.len() - 2..], &[0xff, 0xd9], "EOI");
        let info = probe(&jpg).unwrap();
        assert_eq!(info.width, 64);
        assert_eq!(info.height, 48);
        assert_eq!(info.components, 3);
    }

    #[test]
    fn round_trip_psnr_reasonable() {
        let img = Image::synthetic(96, 64, 3);
        let jpg = encode(&img, 90);
        let back = decode(&jpg).unwrap();
        let quality = psnr(&img, &back);
        assert!(quality > 28.0, "q90 PSNR {quality} dB too low");
    }

    #[test]
    fn flat_image_compresses_nearly_losslessly() {
        let mut img = Image::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                img.set_pixel(x, y, (120, 130, 140));
            }
        }
        let jpg = encode(&img, 90);
        let back = decode(&jpg).unwrap();
        assert!(psnr(&img, &back) > 40.0);
        // A flat image is tiny.
        assert!(
            jpg.len() < 2048,
            "flat image should compress well: {}",
            jpg.len()
        );
    }

    #[test]
    fn higher_quality_is_larger_and_better() {
        let img = Image::synthetic(128, 96, 9);
        let q30 = encode(&img, 30);
        let q90 = encode(&img, 90);
        assert!(q90.len() > q30.len());
        let p30 = psnr(&img, &decode(&q30).unwrap());
        let p90 = psnr(&img, &decode(&q90).unwrap());
        assert!(p90 > p30, "PSNR q90 {p90} must beat q30 {p30}");
    }

    #[test]
    fn non_multiple_of_8_sizes() {
        for (w, h) in [(1, 1), (7, 3), (9, 17), (65, 33)] {
            let img = Image::synthetic(w, h, 2);
            let jpg = encode(&img, 80);
            let back = decode(&jpg).unwrap();
            assert_eq!(back.width, w);
            assert_eq!(back.height, h);
        }
    }

    #[test]
    fn category_and_magnitude() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(255), 8);
        assert_eq!(category(-255), 8);
        // JPEG encoding of -1 in category 1 is bit 0.
        assert_eq!(magnitude_bits(-1), 0);
        assert_eq!(magnitude_bits(1), 1);
        assert_eq!(extend(magnitude_bits(-5), category(-5)), -5);
        assert_eq!(extend(magnitude_bits(5), category(5)), 5);
    }

    #[test]
    fn dct_idct_round_trip() {
        let mut block = [0f32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 251) as f32 - 128.0;
        }
        let original = block;
        fdct(&mut block);
        idct(&mut block);
        for i in 0..64 {
            assert!(
                (block[i] - original[i]).abs() < 0.01,
                "coefficient {i}: {} vs {}",
                block[i],
                original[i]
            );
        }
    }

    #[test]
    fn probe_rejects_garbage() {
        assert!(probe(b"not a jpeg").is_err());
        assert!(probe(&[0xff, 0xd8, 0xff, 0xd9]).is_err());
    }

    #[test]
    fn quality_scaling_bounds() {
        let q1 = scaled_table(&Q_LUMA, 1);
        let q100 = scaled_table(&Q_LUMA, 100);
        assert!(q1.iter().all(|&v| (1..=255).contains(&v)));
        assert!(q100.iter().all(|&v| v >= 1));
        assert!(q1[0] > q100[0]);
    }

    #[test]
    fn byte_stuffing_in_entropy_stream() {
        // Encode many images; ensure no bare 0xFF marker bytes appear
        // inside the entropy stream (all must be stuffed or markers).
        let img = Image::synthetic(80, 80, 11);
        let jpg = encode(&img, 95);
        let mut i = 2;
        let mut sos_seen = false;
        while i + 1 < jpg.len() {
            if jpg[i] == 0xff {
                let m = jpg[i + 1];
                if sos_seen {
                    assert!(
                        m == 0x00 || m == 0xd9,
                        "unexpected marker {m:#x} inside scan at {i}"
                    );
                }
                if m == 0xda {
                    sos_seen = true;
                }
            }
            i += 1;
        }
    }
}
