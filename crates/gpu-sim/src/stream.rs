//! A Brook-like stream layer over the raw device.
//!
//! The paper (Section 2) abstracts the GPU as a stream processor: data lives
//! in *streams* (ordered sets backed by textures), computation in *kernels*
//! (fragment programs mapped over whole streams) with no ordering guarantees
//! between output elements. This module is that abstraction: [`Stream`]
//! wraps a texture and [`map`] applies an assembled kernel to whole
//! streams.

use crate::counters::PassStats;
use crate::error::Result;
use crate::gpu::{Gpu, TextureId};
use crate::isa::Program;
use crate::raster::TexCoordSet;

/// A 2D stream of float4 elements, resident on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Backing texture.
    pub id: TextureId,
    /// Width in elements.
    pub width: usize,
    /// Height in elements.
    pub height: usize,
}

impl Stream {
    /// Allocate an uninitialised (zero) stream.
    pub fn create(gpu: &mut Gpu, width: usize, height: usize) -> Result<Stream> {
        let id = gpu.alloc_texture(width, height)?;
        Ok(Stream { id, width, height })
    }

    /// Allocate and fill a stream from host data (4 floats per element).
    pub fn upload(gpu: &mut Gpu, width: usize, height: usize, data: &[f32]) -> Result<Stream> {
        let s = Stream::create(gpu, width, height)?;
        gpu.upload(s.id, data)?;
        Ok(s)
    }

    /// Read the stream back to the host.
    pub fn read(&self, gpu: &mut Gpu) -> Result<Vec<f32>> {
        gpu.download(self.id)
    }

    /// Release the backing texture.
    pub fn free(self, gpu: &mut Gpu) -> Result<()> {
        gpu.free_texture(self.id)
    }

    /// Elements in the stream.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// True if the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Apply an assembled kernel to input streams, writing `output`.
///
/// Identity texture coordinates are generated for each input unless
/// `texcoords` overrides them (e.g. neighbour-shifted sets).
pub fn map(
    gpu: &mut Gpu,
    kernel: &Program,
    inputs: &[&Stream],
    constants: &[(u8, [f32; 4])],
    texcoords: Option<&[TexCoordSet]>,
    output: &Stream,
) -> Result<PassStats> {
    let ids: Vec<TextureId> = inputs.iter().map(|s| s.id).collect();
    let default_coords: Vec<TexCoordSet> = inputs.iter().map(|_| TexCoordSet::identity()).collect();
    let coords = texcoords.unwrap_or(&default_coords);
    gpu.run_pass(kernel, &ids, constants, coords, output.id, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::device::GpuProfile;

    fn gpu() -> Gpu {
        Gpu::new(GpuProfile::geforce_7800gtx())
    }

    #[test]
    fn stream_lifecycle() {
        let mut gpu = gpu();
        let data: Vec<f32> = (0..4 * 2 * 4).map(|i| i as f32).collect();
        let s = Stream::upload(&mut gpu, 4, 2, &data).unwrap();
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(s.read(&mut gpu).unwrap(), data);
        let used = gpu.allocated_bytes();
        assert_eq!(used, 4 * 2 * 16);
        s.free(&mut gpu).unwrap();
        assert_eq!(gpu.allocated_bytes(), 0);
    }

    #[test]
    fn map_applies_kernel_elementwise() {
        let mut gpu = gpu();
        let data: Vec<f32> = (0..4 * 4 * 4).map(|i| i as f32 * 0.25).collect();
        let a = Stream::upload(&mut gpu, 4, 4, &data).unwrap();
        let out = Stream::create(&mut gpu, 4, 4).unwrap();
        let scale = assemble("TEX R0, T0, tex0\nMUL OC, R0, C0.x").unwrap();
        map(
            &mut gpu,
            &scale,
            &[&a],
            &[(0, [3.0, 0.0, 0.0, 0.0])],
            None,
            &out,
        )
        .unwrap();
        let got = out.read(&mut gpu).unwrap();
        for (g, d) in got.iter().zip(&data) {
            assert!((g - d * 3.0).abs() < 1e-6);
        }
    }
}
