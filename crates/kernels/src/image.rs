//! 8-bit grayscale images — the data the paper's image-processing cores
//! stream through the FPGA's memory banks.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// An 8-bit grayscale image in row-major order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// An all-zero image.
    pub fn zeros(width: usize, height: usize) -> Image {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Image {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// A constant-valued image.
    pub fn constant(width: usize, height: usize, value: u8) -> Image {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Image {
            width,
            height,
            pixels: vec![value; width * height],
        }
    }

    /// Builds an image from a function of `(x, y)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Image {
        assert!(width > 0 && height > 0, "image must be non-empty");
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y));
            }
        }
        Image {
            width,
            height,
            pixels,
        }
    }

    /// A deterministic pseudo-random image (seeded ChaCha8).
    pub fn random(width: usize, height: usize, seed: u64) -> Image {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Image::from_fn(width, height, |_, _| rng.gen())
    }

    /// Builds an image from existing row-major pixel data.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or the image is empty.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Image {
        assert!(width > 0 && height > 0, "image must be non-empty");
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)` without bounds clamping.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    /// Pixel at signed coordinates with **edge replication** (clamp) — the
    /// border policy of the streaming hardware filters.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[y * self.width + x]
    }

    /// Sets pixel `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x] = value;
    }

    /// Raw row-major pixels.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// One row as a slice.
    pub fn row(&self, y: usize) -> &[u8] {
        &self.pixels[y * self.width..(y + 1) * self.width]
    }

    /// Mutable rows, split into `chunks` contiguous horizontal bands for
    /// parallel writers. Returns `(start_row, band)` pairs.
    pub fn row_bands_mut(&mut self, chunks: usize) -> Vec<(usize, &mut [u8])> {
        let rows_per_band = self.height.div_ceil(chunks.max(1));
        let width = self.width;
        self.pixels
            .chunks_mut(rows_per_band * width)
            .enumerate()
            .map(|(i, band)| (i * rows_per_band, band))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_is_row_major() {
        let img = Image::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(img.pixels(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(img.get(2, 1), 12);
        assert_eq!(img.row(1), &[10, 11, 12]);
    }

    #[test]
    fn clamped_access_replicates_edges() {
        let img = Image::from_fn(2, 2, |x, y| (y * 2 + x) as u8);
        assert_eq!(img.get_clamped(-1, -1), 0);
        assert_eq!(img.get_clamped(5, 0), 1);
        assert_eq!(img.get_clamped(0, 5), 2);
        assert_eq!(img.get_clamped(5, 5), 3);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Image::random(16, 16, 42);
        let b = Image::random(16, 16, 42);
        let c = Image::random(16, 16, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn row_bands_cover_image_disjointly() {
        let mut img = Image::random(8, 10, 1);
        let total: usize = img.row_bands_mut(3).iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 80);
        let starts: Vec<usize> = img.row_bands_mut(3).iter().map(|(s, _)| *s).collect();
        assert_eq!(starts, vec![0, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_image_rejected() {
        Image::zeros(0, 5);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn pixel_count_mismatch_rejected() {
        Image::from_pixels(2, 2, vec![0; 5]);
    }
}
