use crate::{Result, Shape, TensorError};
use std::sync::Arc;

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single data container used by every crate in this
/// workspace: network weights, activations, gradients, threshold banks and
/// dataset batches are all `Tensor`s. Storage is always contiguous, so
/// kernels can assume unit inner stride.
///
/// Clones and reshapes share storage copy-on-write: they cost no copy
/// until one owner writes through [`as_mut_slice`](Tensor::as_mut_slice),
/// which first copies shared storage. A tensor is still a value — a
/// write never shows through another owner — so one backbone can be held
/// by a model and by every plan bound from it without a copy per holder.
///
/// ```
/// # use mime_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: Arc::new(vec![0.0; len]) }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: Arc::new(vec![value; len]) }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: Arc::new(vec![value]) }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let v = t.as_mut_slice();
        for i in 0..n {
            v[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` does not
    /// equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data: Arc::new(data) })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::new(&[data.len()]), data: Arc::new(data.to_vec()) }
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(&mut f).collect();
        Tensor { shape, data: Arc::new(data) }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the flat storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat storage. Storage shared with another
    /// tensor is copied first, so the write shows through this tensor
    /// only. Take the slice once outside a loop: each call checks
    /// whether the storage is shared.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its flat storage: the buffer
    /// itself when no other tensor shares it, otherwise a copy.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::unwrap_or_clone(self.data)
    }

    /// Whether `other` is this tensor bit for bit: the same shape over
    /// shared storage (a clone, or the object itself), or the same shape
    /// and the same `to_bits` of every element. Stricter than `==`
    /// (`-0.0` differs from `0.0`, a NaN equals itself), which is what
    /// deciding that two weights are one layer needs: kernels built from
    /// either must produce the same bits.
    pub fn bits_eq(&self, other: &Tensor) -> bool {
        self.dims() == other.dims()
            && (Arc::ptr_eq(&self.data, &other.data)
                || self.data.chunks(1024).zip(other.data.chunks(1024)).all(|(x, y)| {
                    // OR-of-XOR over a whole chunk vectorizes; stopping at the
                    // first unequal chunk keeps distinct same-shaped tensors cheap
                    x.iter()
                        .zip(y)
                        .fold(0u32, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits()))
                        == 0
                }))
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.as_mut_slice()[off] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of identical element
    /// count. The result shares this tensor's storage copy-on-write.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts
    /// differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: self.len(),
            });
        }
        Ok(Tensor { shape, data: Arc::clone(&self.data) })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is a matrix.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        let dst = out.as_mut_slice();
        for i in 0..r {
            for j in 0..c {
                dst[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Fraction of elements equal to zero — the *sparsity* of the tensor.
    ///
    /// This is the quantity reported throughout the paper's Tables II and
    /// III (neuronal sparsity of activation maps). Returns 0 for an empty
    /// tensor.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Count of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).rank(), 0);
        assert_eq!(Tensor::eye(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 6.0);
        t.set(&[0, 1], 9.0).unwrap();
        assert_eq!(t.at(&[0, 1]).unwrap(), 9.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn bits_eq_compares_shape_and_bits() {
        let t = Tensor::from_vec(vec![1.0, 0.0, f32::NAN, 4.0], &[2, 2]).unwrap();
        assert!(t.bits_eq(&t));
        // clones and reshapes share storage: equal dims decide at once
        assert!(t.bits_eq(&t.clone()));
        assert!(t.bits_eq(&t.reshape(&[2, 2]).unwrap()));
        assert!(!t.bits_eq(&t.reshape(&[4]).unwrap()));
        let mut neg_zero = t.clone();
        neg_zero.as_mut_slice()[1] = -0.0;
        assert!(!t.bits_eq(&neg_zero));
        // a difference past the first comparison chunk is still seen
        let a = Tensor::zeros(&[3000]);
        let mut b = a.clone();
        b.as_mut_slice()[2999] = 1.0;
        assert!(!a.bits_eq(&b));
    }

    #[test]
    fn clones_are_values_over_copy_on_write_storage() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut b = a.clone();
        assert_eq!(b.as_slice().as_ptr(), a.as_slice().as_ptr(), "a clone shares storage");
        b.as_mut_slice()[0] = 9.0;
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0], "a write through a clone stays there");
        assert_eq!(b.as_slice(), &[9.0, 2.0, 3.0]);
        let mut c = a.clone();
        let c_view = c.clone();
        c.set(&[2], -1.0).unwrap();
        assert_eq!(c_view.as_slice(), &[1.0, 2.0, 3.0], "and the other way round");
        assert_eq!(c.as_slice(), &[1.0, 2.0, -1.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        // value equality is unchanged: NaN differs from itself, shared or not
        let nan = Tensor::from_slice(&[f32::NAN]);
        assert_ne!(nan, nan.clone());
        assert_eq!(a, Tensor::from_slice(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn reshape_shares_storage_until_a_write() {
        let mut t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.as_slice().as_ptr(), t.as_slice().as_ptr());
        t.as_mut_slice()[3] = 0.5;
        assert_ne!(r.as_slice().as_ptr(), t.as_slice().as_ptr());
        assert_eq!(r.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 0.5]);
    }

    #[test]
    fn into_vec_moves_unique_storage_and_copies_shared() {
        let v = vec![1.0, 2.0];
        let ptr = v.as_ptr();
        let t = Tensor::from_vec(v, &[2]).unwrap();
        let shared = t.clone();
        let copied = t.into_vec();
        assert_ne!(copied.as_ptr(), ptr, "shared storage is copied out");
        assert_eq!(copied, [1.0, 2.0]);
        assert_eq!(shared.as_slice(), &[1.0, 2.0], "the other owner is intact");
        let moved = shared.into_vec();
        assert_eq!(moved.as_ptr(), ptr, "unique storage is moved out");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(Tensor::from_slice(&[1.0]).transpose().is_err());
    }

    #[test]
    fn sparsity_counts_zeros() {
        let t = Tensor::from_slice(&[0.0, 1.0, 0.0, 2.0]);
        assert!((t.sparsity() - 0.5).abs() < 1e-9);
        assert_eq!(t.count_nonzero(), 2);
        assert_eq!(Tensor::zeros(&[0]).sparsity(), 0.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(t.map(|x| x * 2.0).as_slice(), &[2.0, -4.0]);
        let mut m = t.clone();
        m.map_inplace(f32::abs);
        assert_eq!(m.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Tensor::zeros(&[2])).is_empty());
        assert!(!format!("{}", Tensor::zeros(&[100])).is_empty());
    }
}
