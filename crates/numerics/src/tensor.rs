//! A minimal row-major `f32` tensor shared across the workspace.
//!
//! Functional emulation works on `f32` values that are exact members of the
//! emulated format's value set (see [`crate::format::FpFormat`]); this type
//! is the container those values live in.

use crate::NumericsError;

/// Dense row-major tensor of `f32` values.
///
/// # Example
///
/// ```
/// use rapid_numerics::Tensor;
///
/// let mut t = Tensor::zeros(vec![2, 3]);
/// t.set(&[1, 2], 5.0);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension product overflow.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape {shape:?} does not match data length {}", data.len());
        Self { shape, data }
    }

    /// Creates a tensor filled by `f(flat_index)`.
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(&mut f).collect();
        Self { shape, data }
    }

    /// Uniform random tensor in `[lo, hi)` from a deterministic seed.
    pub fn random_uniform(shape: Vec<usize>, lo: f32, hi: f32, seed: u64) -> Self {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_fn(shape, |_| rng.gen_range(lo..hi))
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes in place to `shape`, zero-filling all elements. Existing
    /// contents are discarded but the backing allocation is kept, so scratch
    /// tensors (e.g. im2col buffers) can be reused across calls without
    /// reallocating.
    pub fn reset(&mut self, shape: Vec<usize>) {
        let n: usize = shape.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
        self.shape = shape;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut flat = 0usize;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(ix < dim, "index {ix} out of bounds for dim {i} of size {dim}");
            flat = flat * dim + ix;
        }
        flat
    }

    /// Element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let i = self.flat_index(idx);
        self.data[i] = v;
    }

    /// Returns a tensor with every element mapped through `f`.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Reshapes without moving data.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self, NumericsError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(NumericsError::ShapeMismatch {
                expected: format!("{} elements", self.data.len()),
                actual: format!("shape {shape:?} = {n} elements"),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Largest absolute value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        // Eight independent lanes let the loop vectorize. The maximum of a
        // set does not depend on the order it is taken in, and `f32::max`
        // never returns a NaN here (every lane starts at 0.0), so this is
        // the plain left fold's value.
        let mut lanes = [0.0f32; 8];
        let runs = self.data.chunks_exact(8);
        let rest = runs.remainder();
        for run in runs {
            for (l, &x) in lanes.iter_mut().zip(run) {
                *l = l.max(x.abs());
            }
        }
        rest.iter().chain(&lanes).fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Arithmetic mean (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|&x| f64::from(x)).sum::<f64>() / self.data.len() as f64) as f32
    }

    /// Mean and standard deviation (population), used by SaWB.
    pub fn mean_std(&self) -> (f32, f32) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        let mean = f64::from(self.mean());
        let var = self
            .data
            .iter()
            .map(|&x| {
                let d = f64::from(x) - mean;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64;
        (mean as f32, var.sqrt() as f32)
    }

    /// Fraction of exactly-zero elements (drives the sparsity/throttling
    /// model).
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&x| x == 0.0).count() as f64 / self.data.len() as f64
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transposed(&self) -> Self {
        assert_eq!(self.shape.len(), 2, "transpose requires a rank-2 tensor");
        // In 32×32 blocks: each output row segment is written contiguously
        // from 32 source rows that stay cache-resident across the block.
        const B: usize = 32;
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(vec![c, r]);
        for i0 in (0..r).step_by(B) {
            let i1 = (i0 + B).min(r);
            for j0 in (0..c).step_by(B) {
                for j in j0..(j0 + B).min(c) {
                    for i in i0..i1 {
                        out.data[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        out
    }

    /// Maximum relative element-wise difference against `other`, normalized
    /// by `other`'s max magnitude (useful for accuracy comparisons).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_rel_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_rel_diff");
        let denom = other.max_abs().max(1e-12);
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs() / denom))
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Self { shape: vec![data.len()], data }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
        assert_eq!(t.get(&[1, 0]), 3.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(vec![2, 3]);
        t.get(&[0, 3]);
    }

    #[test]
    fn reshape_checks_count() {
        let t = Tensor::zeros(vec![2, 3]);
        assert!(t.clone().reshape(vec![3, 2]).is_ok());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::random_uniform(vec![3, 5], -1.0, 1.0, 42);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed().get(&[4, 2]), t.get(&[2, 4]));
        // Several blocks each way, with ragged edges.
        let t = Tensor::random_uniform(vec![70, 45], -1.0, 1.0, 43);
        let tt = t.transposed();
        assert_eq!(tt.shape(), &[45, 70]);
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(tt.get(&[j, i]).to_bits(), t.get(&[i, j]).to_bits());
            }
        }
    }

    #[test]
    fn stats() {
        let t = Tensor::from_vec(vec![4], vec![0.0, 0.0, 2.0, -4.0]);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.sparsity(), 0.5);
        assert_eq!(t.mean(), -0.5);
        let (m, s) = Tensor::from_vec(vec![2], vec![1.0, 3.0]).mean_std();
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn max_abs_matches_a_sequential_fold() {
        let specials = [f32::NAN, -0.0, f32::NEG_INFINITY, 1.0e-40, -3.5, 2.0];
        for len in 0..40 {
            let mut v = Tensor::random_uniform(vec![len], -4.0, 4.0, len as u64).into_vec();
            for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 5 == len % 5) {
                *x = specials[i % specials.len()];
            }
            let seq = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let t = Tensor::from_vec(vec![len], v);
            assert_eq!(t.max_abs().to_bits(), seq.to_bits(), "len {len}");
        }
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random_uniform(vec![10], 0.0, 1.0, 9);
        let b = Tensor::random_uniform(vec![10], 0.0, 1.0, 9);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn collect_makes_rank1() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[4]);
    }
}
