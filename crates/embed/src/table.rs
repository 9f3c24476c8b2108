//! Embedding tables with per-row ("lazy") Adam.
//!
//! SUPA updates only the handful of rows touched by each edge event, so
//! optimiser state is per-row: each row keeps its own Adam step counter and
//! bias correction. Untouched rows pay nothing, which is what keeps the
//! per-edge training cost at `O((k·l + N_neg) · d)`.

use supa_rng::SmallRng;

use crate::codec::{self, Reader};

/// Bytes before the first value of an [`EmbeddingTable`] blob: row count
/// and dimension (`u64`), then five `f32` optimiser hyper-parameters.
const BLOB_HEADER: usize = 8 + 8 + 5 * 4;

fn corrupt_header() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "corrupt embedding table header",
    )
}

#[inline]
fn init_val(scale: f32, rng: &mut SmallRng) -> f32 {
    if scale > 0.0 {
        rng.random_range(-scale..scale)
    } else {
        0.0
    }
}

/// Accumulators [`max_abs`] folds side by side. A maximum is exact in any
/// order, so eight lanes give the one-chain fold's result while the CPU
/// keeps eight comparisons in flight.
const MAX_LANES: usize = 8;

/// The largest absolute value in `xs` (0 when empty), or `f32::INFINITY`
/// when any entry is NaN or ±∞.
fn max_abs(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; MAX_LANES];
    let mut chunks = xs.chunks_exact(MAX_LANES);
    for chunk in &mut chunks {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc = fold_abs(*acc, x);
        }
    }
    for (acc, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *acc = fold_abs(*acc, x);
    }
    // No lane holds a NaN, so `f32::max` drops nothing here.
    lanes.into_iter().fold(0.0, f32::max)
}

/// One step of [`max_abs`]: a non-finite `x` pins the result at ∞.
#[inline(always)]
fn fold_abs(acc: f32, x: f32) -> f32 {
    if x.is_finite() {
        acc.max(x.abs())
    } else {
        f32::INFINITY
    }
}

/// One row's complete learnable state — its values, Adam moments and step
/// count — borrowed from a table ([`EmbeddingTable::row_state`]) or from a
/// saved pre-image ([`EmbeddingTable::set_row_state`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowState<'a> {
    /// The embedding row.
    pub values: &'a [f32],
    /// Adam first moment.
    pub m: &'a [f32],
    /// Adam second moment.
    pub v: &'a [f32],
    /// The row's own Adam step count.
    pub t: u32,
}

/// A dense `n × d` embedding table with per-row Adam state.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    data: Vec<f32>,
    adam_m: Vec<f32>,
    adam_v: Vec<f32>,
    adam_t: Vec<u32>,
    init_scale: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
}

impl EmbeddingTable {
    /// Creates a table of `n` rows initialised `U(-scale, scale)` (all zeros
    /// when `scale == 0`).
    pub fn new(n: usize, dim: usize, scale: f32, rng: &mut SmallRng) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let data = (0..n * dim).map(|_| init_val(scale, rng)).collect();
        EmbeddingTable {
            dim,
            data,
            adam_m: vec![0.0; n * dim],
            adam_v: vec![0.0; n * dim],
            adam_t: vec![0; n],
            init_scale: scale,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }

    /// Sets decoupled weight decay applied on every Adam row step (the paper
    /// trains with weight decay 1e-4).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.adam_t.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.adam_t.is_empty()
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i` as a mutable slice (bypasses the optimiser).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Two distinct rows mutably (for same-table SGNS updates).
    ///
    /// # Panics
    /// Panics if `i == j`.
    pub fn two_rows_mut(&mut self, i: usize, j: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(i, j, "two_rows_mut needs distinct rows");
        let d = self.dim;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * d);
            (&mut a[i * d..(i + 1) * d], &mut b[..d])
        } else {
            let (a, b) = self.data.split_at_mut(i * d);
            let (jrow, irow) = (&mut a[j * d..(j + 1) * d], &mut b[..d]);
            (irow, jrow)
        }
    }

    /// Grows the table to at least `n` rows, initialising new rows randomly
    /// (streaming graphs add nodes over time).
    pub fn ensure_len(&mut self, n: usize, rng: &mut SmallRng) {
        while self.adam_t.len() < n {
            for _ in 0..self.dim {
                self.data.push(init_val(self.init_scale, rng));
                self.adam_m.push(0.0);
                self.adam_v.push(0.0);
            }
            self.adam_t.push(0);
        }
    }

    /// Shrinks the table to its first `n` rows (no-op when it has fewer),
    /// keeping the allocation.
    pub fn truncate(&mut self, n: usize) {
        self.data.truncate(n * self.dim);
        self.adam_m.truncate(n * self.dim);
        self.adam_v.truncate(n * self.dim);
        self.adam_t.truncate(n);
    }

    /// Row `i`'s complete state, for saving a pre-image before a write.
    #[inline]
    pub fn row_state(&self, i: usize) -> RowState<'_> {
        let span = i * self.dim..(i + 1) * self.dim;
        RowState {
            values: &self.data[span.clone()],
            m: &self.adam_m[span.clone()],
            v: &self.adam_v[span],
            t: self.adam_t[i],
        }
    }

    /// Overwrites row `i`'s complete state with a saved pre-image; after it
    /// the row is bit-identical to the row [`EmbeddingTable::row_state`]
    /// read.
    ///
    /// # Panics
    /// Panics if a slice of `s` is not `dim` long.
    pub fn set_row_state(&mut self, i: usize, s: RowState<'_>) {
        let span = i * self.dim..(i + 1) * self.dim;
        self.data[span.clone()].copy_from_slice(s.values);
        self.adam_m[span.clone()].copy_from_slice(s.m);
        self.adam_v[span].copy_from_slice(s.v);
        self.adam_t[i] = s.t;
    }

    /// Applies one Adam step to row `i` with gradient `grad`.
    ///
    /// Bias correction uses the row's own step count (lazy Adam), so rarely
    /// touched rows are corrected as if freshly started.
    ///
    /// The inner loop iterates exact-size zipped slices rather than
    /// indexing, so the compiler proves all four streams in-bounds once and
    /// emits no per-element bounds checks. Each element's arithmetic is
    /// independent and unchanged — the result is bit-identical to the naive
    /// indexed loop, which the checkpoint-compatibility tests rely on.
    ///
    /// Returns the largest |x| among the values written, `f32::INFINITY`
    /// if any is non-finite — [`EmbeddingTable::row_max_abs`] of the row
    /// just written, read while the row is still in cache, so a divergence
    /// guard need not come back for it.
    #[inline]
    pub fn adam_step_row(&mut self, i: usize, grad: &[f32], lr: f32) -> f32 {
        debug_assert_eq!(grad.len(), self.dim);
        self.adam_t[i] += 1;
        let t = self.adam_t[i] as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (wd, eps) = (self.weight_decay, self.eps);
        let d = self.dim.min(grad.len());
        let span = i * self.dim..i * self.dim + d;
        let m = &mut self.adam_m[span.clone()];
        let v = &mut self.adam_v[span.clone()];
        let x = &mut self.data[span];
        for ((x, (m, v)), &gk) in x.iter_mut().zip(m.iter_mut().zip(v.iter_mut())).zip(grad) {
            let g = gk + wd * *x;
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *x -= lr * mhat / (vhat.sqrt() + eps);
        }
        max_abs(x)
    }

    /// Applies one plain SGD step to row `i`.
    #[inline]
    pub fn sgd_step_row(&mut self, i: usize, grad: &[f32], lr: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        let row = self.row_mut(i);
        for (x, &g) in row.iter_mut().zip(grad) {
            *x -= lr * g;
        }
    }

    /// The raw value buffer (e.g. for whole-table export).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The largest absolute value in the table, or `f32::INFINITY` when any
    /// entry is NaN or ±∞. Divergence guards compare this against a blow-up
    /// threshold; a single scan answers both "finite?" and "exploded?".
    pub fn max_abs_value(&self) -> f32 {
        max_abs(&self.data)
    }

    /// [`EmbeddingTable::max_abs_value`] of row `i` alone. The table's value
    /// is the maximum of its rows' (for a non-empty table), so a probe that
    /// knows which rows changed since a passing check need scan only those.
    pub fn row_max_abs(&self, i: usize) -> f32 {
        max_abs(self.row(i))
    }

    /// Bytes [`EmbeddingTable::encode_into`] appends: the 36-byte header,
    /// then values, both Adam moments and the step counts.
    pub fn encoded_len(&self) -> usize {
        BLOB_HEADER + self.len() * (12 * self.dim + 4)
    }

    /// Appends the full table state (values + optimiser moments) as a
    /// little-endian blob: row count and dimension (`u64`), the five
    /// optimiser hyper-parameters (`f32`), then `data`, `adam_m`, `adam_v`
    /// (`f32`) and `adam_t` (`u32`). See [`EmbeddingTable::decode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        codec::put_u64(out, self.len() as u64);
        codec::put_u64(out, self.dim as u64);
        for x in [
            self.init_scale,
            self.beta1,
            self.beta2,
            self.eps,
            self.weight_decay,
        ] {
            codec::put_f32(out, x);
        }
        for buf in [&self.data, &self.adam_m, &self.adam_v] {
            codec::put_f32s(out, buf);
        }
        codec::put_u32s(out, &self.adam_t);
    }

    /// Decodes a blob written by [`EmbeddingTable::encode_into`]. Every
    /// block's length is checked against the bytes that remain before it
    /// is allocated, so a corrupt row count is an
    /// [`std::io::ErrorKind::InvalidData`] error, never an allocation
    /// failure.
    pub fn decode(r: &mut Reader<'_>) -> std::io::Result<Self> {
        let n = usize::try_from(r.u64()?).map_err(|_| corrupt_header())?;
        let dim = usize::try_from(r.u64()?).map_err(|_| corrupt_header())?;
        let cells = n
            .checked_mul(dim)
            .filter(|_| dim > 0)
            .ok_or_else(corrupt_header)?;
        let init_scale = r.f32()?;
        let beta1 = r.f32()?;
        let beta2 = r.f32()?;
        let eps = r.f32()?;
        let weight_decay = r.f32()?;
        let data = r.f32s(cells)?;
        let adam_m = r.f32s(cells)?;
        let adam_v = r.f32s(cells)?;
        let adam_t = r.u32s(n)?;
        Ok(EmbeddingTable {
            dim,
            data,
            adam_m,
            adam_v,
            adam_t,
            init_scale,
            beta1,
            beta2,
            eps,
            weight_decay,
        })
    }
}

/// Asks the CPU to bring every cache line of `xs` into the cache. A hint
/// only: it changes no value, and is a no-op off x86-64. Scattered row
/// writers (the serving snapshot's recycled patch) call it a few rows ahead
/// of the row they work on.
#[inline(always)]
pub fn prefetch(xs: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for line in xs.chunks(16).chain([&xs[xs.len().saturating_sub(1)..]]) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` reads no memory and cannot fault, whatever
        // the address; its one requirement, SSE, is part of the x86-64
        // baseline every target of this architecture enables.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = xs;
}

/// An immutable, values-only embedding matrix: `n × d` values and none
/// of an [`EmbeddingTable`]'s optimiser state.
///
/// Carries exactly what a query path needs and nothing a trainer needs, so
/// it is `Send + Sync` by construction and safe to share behind an `Arc`
/// across reader threads while training continues on the live tables (the
/// serving snapshot's tables are these).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingValues {
    dim: usize,
    data: Box<[f32]>,
}

impl EmbeddingValues {
    /// Builds a values matrix from a raw row-major buffer.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim` —
    /// callers deserialising untrusted bytes must validate the shape first.
    pub fn from_vec(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "value buffer length must be a multiple of the dimension"
        );
        EmbeddingValues {
            dim,
            data: data.into_boxed_slice(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the snapshot has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i` as a mutable slice. Replication applies per-row epoch deltas
    /// in place rather than re-allocating the whole matrix per epoch.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The raw row-major value buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major value buffer, writable in place.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize, d: usize) -> EmbeddingTable {
        let mut rng = SmallRng::seed_from_u64(1);
        EmbeddingTable::new(n, d, 0.1, &mut rng)
    }

    #[test]
    fn shape_and_init_bounds() {
        let t = table(5, 3);
        assert_eq!(t.len(), 5);
        assert_eq!(t.dim(), 3);
        assert!(!t.is_empty());
        assert!(t.data().iter().all(|&x| x.abs() <= 0.1));
        // Not all identical.
        assert!(t.row(0) != t.row(1));
    }

    #[test]
    fn two_rows_mut_aliases_correctly() {
        let mut t = table(4, 2);
        let r1 = t.row(1).to_vec();
        let r3 = t.row(3).to_vec();
        {
            let (a, b) = t.two_rows_mut(1, 3);
            assert_eq!(a, r1.as_slice());
            assert_eq!(b, r3.as_slice());
            a[0] = 42.0;
            b[1] = -42.0;
        }
        assert_eq!(t.row(1)[0], 42.0);
        assert_eq!(t.row(3)[1], -42.0);
        // Reversed order too.
        let (a, b) = t.two_rows_mut(3, 1);
        assert_eq!(a[1], -42.0);
        assert_eq!(b[0], 42.0);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_rows_mut_rejects_same_row() {
        let mut t = table(4, 2);
        let _ = t.two_rows_mut(2, 2);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut t = table(2, 2);
        let before = t.row(0).to_vec();
        t.sgd_step_row(0, &[1.0, -1.0], 0.5);
        assert!((t.row(0)[0] - (before[0] - 0.5)).abs() < 1e-6);
        assert!((t.row(0)[1] - (before[1] + 0.5)).abs() < 1e-6);
        // Other rows untouched.
        assert_eq!(t.row(1), table(2, 2).row(1));
    }

    #[test]
    fn adam_minimises_row_quadratic() {
        let mut t = table(3, 4);
        // Minimise ||row1||² while leaving rows 0 and 2 alone.
        for _ in 0..500 {
            let grad: Vec<f32> = t.row(1).iter().map(|&x| 2.0 * x).collect();
            t.adam_step_row(1, &grad, 0.05);
        }
        let n: f32 = t.row(1).iter().map(|&x| x * x).sum();
        assert!(n < 1e-4, "row norm² still {n}");
        assert_eq!(t.row(0), table(3, 4).row(0));
    }

    #[test]
    fn adam_step_matches_indexed_reference_bitwise() {
        // The zipped loop must reproduce the naive indexed Adam step bit for
        // bit — checkpoint compatibility across releases depends on it.
        let mut t = table(3, 7).with_weight_decay(1e-4);
        let mut reference = t.clone();
        let grad: Vec<f32> = (0..7).map(|k| ((k as f32) - 3.0) * 0.11).collect();
        for step in 0..5 {
            let lr = 0.01 * (step + 1) as f32;
            t.adam_step_row(1, &grad, lr);
            // Naive indexed replica of the documented per-element math.
            {
                let r = &mut reference;
                r.adam_t[1] += 1;
                let tt = r.adam_t[1] as f32;
                let bc1 = 1.0 - r.beta1.powf(tt);
                let bc2 = 1.0 - r.beta2.powf(tt);
                let span = 7..14;
                for (k, &gk) in grad.iter().enumerate() {
                    let g = gk + r.weight_decay * r.data[span.start + k];
                    r.adam_m[span.start + k] =
                        r.beta1 * r.adam_m[span.start + k] + (1.0 - r.beta1) * g;
                    r.adam_v[span.start + k] =
                        r.beta2 * r.adam_v[span.start + k] + (1.0 - r.beta2) * g * g;
                    let mhat = r.adam_m[span.start + k] / bc1;
                    let vhat = r.adam_v[span.start + k] / bc2;
                    r.data[span.start + k] -= lr * mhat / (vhat.sqrt() + r.eps);
                }
            }
            assert!(
                t.row(1)
                    .iter()
                    .zip(reference.row(1))
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "diverged at step {step}"
            );
            assert_eq!(t.adam_m, reference.adam_m);
            assert_eq!(t.adam_v, reference.adam_v);
        }
    }

    #[test]
    fn lazy_adam_first_step_is_lr_sized() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut t = EmbeddingTable::new(1, 1, 0.0, &mut rng);
        // Row starts at exactly 0 (scale 0), gradient 5 → first Adam step ≈ lr.
        t.adam_step_row(0, &[5.0], 0.1);
        assert!((t.row(0)[0] + 0.1).abs() < 1e-3, "got {}", t.row(0)[0]);
    }

    #[test]
    fn ensure_len_grows_and_preserves() {
        let mut t = table(2, 3);
        let r0 = t.row(0).to_vec();
        let mut rng = SmallRng::seed_from_u64(5);
        t.ensure_len(5, &mut rng);
        assert_eq!(t.len(), 5);
        assert_eq!(t.row(0), r0.as_slice());
        assert!(t.row(4).iter().all(|&x| x.abs() <= 0.1));
        // No-op when already long enough.
        t.ensure_len(3, &mut rng);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let mut t = table(4, 3).with_weight_decay(0.01);
        // Exercise the optimiser so the moments are non-trivial.
        t.adam_step_row(1, &[0.3, -0.2, 0.1], 0.05);
        t.adam_step_row(1, &[0.1, 0.2, -0.3], 0.05);
        t.adam_step_row(3, &[1.0, 1.0, 1.0], 0.05);

        let mut blob = Vec::new();
        t.encode_into(&mut blob);
        assert_eq!(blob.len(), t.encoded_len());
        let mut r = Reader::new(&blob);
        let t2 = EmbeddingTable::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(t2.len(), t.len());
        assert_eq!(t2.dim(), t.dim());
        assert_eq!(t2.data(), t.data());
        assert_eq!(t2.adam_m, t.adam_m);
        assert_eq!(t2.adam_v, t.adam_v);
        assert_eq!(t2.adam_t, t.adam_t);
        // Post-restore optimiser behaviour is identical.
        let mut a = t.clone();
        let mut b = t2;
        a.adam_step_row(1, &[0.5, 0.5, 0.5], 0.05);
        b.adam_step_row(1, &[0.5, 0.5, 0.5], 0.05);
        assert_eq!(a.row(1), b.row(1));
    }

    #[test]
    fn max_abs_value_flags_non_finite_and_blowups() {
        let mut t = table(2, 2);
        assert!(t.max_abs_value() <= 0.1);
        t.row_mut(0)[1] = -7.5;
        assert_eq!(t.max_abs_value(), 7.5);
        t.row_mut(1)[0] = f32::NAN;
        assert_eq!(t.max_abs_value(), f32::INFINITY);
        t.row_mut(1)[0] = f32::NEG_INFINITY;
        assert_eq!(t.max_abs_value(), f32::INFINITY);
    }

    #[test]
    fn row_pre_image_restores_the_row_bit_for_bit() {
        let mut t = table(4, 3).with_weight_decay(0.01);
        t.adam_step_row(2, &[0.3, -0.2, 0.1], 0.05);
        let reference = t.clone();
        let s = t.row_state(2);
        let (values, m, v, step) = (s.values.to_vec(), s.m.to_vec(), s.v.to_vec(), s.t);
        t.adam_step_row(2, &[1.0, 1.0, -1.0], 0.05);
        t.row_mut(2)[1] = f32::NAN;
        assert_ne!(t.row_state(2).t, step);
        t.set_row_state(
            2,
            RowState {
                values: &values,
                m: &m,
                v: &v,
                t: step,
            },
        );
        for i in 0..4 {
            assert_eq!(t.row_state(i), reference.row_state(i), "row {i}");
        }
        // The restored optimiser state steps exactly like the original.
        let mut a = reference;
        a.adam_step_row(2, &[0.5, 0.5, 0.5], 0.05);
        t.adam_step_row(2, &[0.5, 0.5, 0.5], 0.05);
        assert_eq!(t.row_state(2), a.row_state(2));
    }

    #[test]
    fn truncate_keeps_the_leading_rows() {
        let mut t = table(5, 2);
        let r1 = t.row(1).to_vec();
        t.truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.data().len(), 4);
        assert_eq!(t.row(1), r1.as_slice());
        t.truncate(9);
        assert_eq!(t.len(), 2, "truncating past the end is a no-op");
    }

    #[test]
    fn adam_step_returns_the_written_rows_max() {
        // Rows longer than the lane count, a remainder, and steps that turn
        // the row non-finite: the returned max is always the row's
        // `row_max_abs`, and a NaN reads as ∞.
        let mut t = table(3, 19).with_weight_decay(1e-4);
        let grad: Vec<f32> = (0..19).map(|k| ((k as f32) - 9.0) * 0.37).collect();
        for step in 0..6 {
            let got = t.adam_step_row(1, &grad, 0.3 * (step + 1) as f32);
            assert_eq!(got.to_bits(), t.row_max_abs(1).to_bits(), "step {step}");
        }
        for poison in [f32::INFINITY, f32::NAN] {
            let mut bad = grad.clone();
            bad[11] = poison;
            let got = t.adam_step_row(2, &bad, 0.05);
            assert_eq!(got, f32::INFINITY, "gradient {poison}");
            assert_eq!(t.row_max_abs(2), f32::INFINITY);
        }
    }

    #[test]
    fn lane_max_equals_the_one_chain_fold() {
        let one_chain = |xs: &[f32]| {
            xs.iter().fold(0.0f32, |acc, &x| {
                if x.is_finite() {
                    acc.max(x.abs())
                } else {
                    f32::INFINITY
                }
            })
        };
        let mut rng = SmallRng::seed_from_u64(17);
        for len in 0..40 {
            let mut xs: Vec<f32> = (0..len).map(|_| rng.random_range(-5.0f32..5.0)).collect();
            assert_eq!(
                max_abs(&xs).to_bits(),
                one_chain(&xs).to_bits(),
                "len {len}"
            );
            if len > 0 {
                let at = rng.random_range(0..len);
                for poison in [f32::NAN, f32::NEG_INFINITY, -0.0] {
                    xs[at] = poison;
                    assert_eq!(max_abs(&xs).to_bits(), one_chain(&xs).to_bits());
                }
            }
        }
    }

    #[test]
    fn row_max_abs_folds_to_the_table_value() {
        let mut t = table(3, 2);
        t.row_mut(1)[0] = -7.5;
        let rows = (0..3).map(|i| t.row_max_abs(i));
        assert_eq!(rows.fold(0.0f32, f32::max), t.max_abs_value());
        assert_eq!(t.row_max_abs(1), 7.5);
        t.row_mut(2)[1] = f32::NAN;
        assert_eq!(t.row_max_abs(2), f32::INFINITY);
        assert_eq!(t.row_max_abs(0), t.row(0)[0].abs().max(t.row(0)[1].abs()));
    }

    #[test]
    fn truncated_blob_is_an_error() {
        let t = table(3, 2);
        let mut blob = Vec::new();
        t.encode_into(&mut blob);
        blob.truncate(blob.len() - 5);
        assert!(EmbeddingTable::decode(&mut Reader::new(&blob)).is_err());
    }

    #[test]
    fn corrupt_header_is_an_error() {
        // dim = 0 is invalid.
        let mut blob = Vec::new();
        blob.extend_from_slice(&1u64.to_le_bytes());
        blob.extend_from_slice(&0u64.to_le_bytes());
        blob.extend_from_slice(&[0u8; 64]);
        assert!(EmbeddingTable::decode(&mut Reader::new(&blob)).is_err());
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut t = EmbeddingTable::new(1, 2, 0.0, &mut rng).with_weight_decay(0.5);
        t.row_mut(0).copy_from_slice(&[1.0, -1.0]);
        for _ in 0..200 {
            t.adam_step_row(0, &[0.0, 0.0], 0.05);
        }
        assert!(t.row(0).iter().all(|&x| x.abs() < 0.05));
    }
}
