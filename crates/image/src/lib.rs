//! # flux-image — image substrate for the Flux image-compression server
//!
//! Everything the paper's image server (§2, Figure 2) needs, built from
//! scratch: a PPM codec with box scaling (the benchmark requests eight
//! sizes of each image), a baseline JFIF JPEG encoder *and* decoder
//! (libjpeg substitute; the encoder is the CPU-bound `Compress` node of
//! the Figure 6 experiment), and the LFU cache with reference counts
//! whose `CheckCache`/`StoreInCache`/`Complete` protocol the paper's
//! atomicity constraints protect.
//!
//! The hot paths are table-driven, as libjpeg's are: the DCT reads a
//! cosine table, the synthetic images evaluate their trigonometric terms
//! once per row or column, and the box scaler sums each output row's
//! source rows once per column. Their inner loops are written to
//! vectorise on the baseline x86-64 target: the synthesiser computes a
//! row one channel at a time with a float-to-byte conversion that needs
//! no saturation, the quantiser rounds without a `roundf` call, and the
//! entropy coder writes 32 bits at a time. Each is held byte-identical
//! to its straightforward per-pixel form (kept as a test oracle),
//! because the benchmark checks JPEG bytes and the cache's contents
//! depend on JPEG sizes.
//!
//! The encoder reads the raster where it lies: blocks are converted from
//! RGB as they are coded, with no whole-image colour planes, and the JPEG
//! is returned at exactly its length. An encode allocates its output and
//! nothing else the size of the image, and the bytes are those of the
//! plane-based encoder it replaced (kept as a test oracle too).

pub mod cache;
pub mod jpeg;
pub mod ppm;

pub use cache::LfuCache;
pub use jpeg::{
    decode as jpeg_decode, encode as jpeg_encode, probe as jpeg_probe, psnr, JpegError, JpegInfo,
};
pub use ppm::{Image, PpmError};
