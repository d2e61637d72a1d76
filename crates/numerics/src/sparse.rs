//! Sparse matrices for MNA systems.
//!
//! Circuit matrices are structurally sparse (a node touches only its
//! neighbours), and the sparsity pattern is fixed across Newton iterations
//! and time steps — only the values change. This module provides:
//!
//! * [`TripletMatrix`] — a coordinate-format accumulator that element stamps
//!   write into;
//! * [`CsrMatrix`] — compressed sparse row storage with fast mat-vec;
//! * [`CsrPattern`] — a triplet→CSR conversion that remembers where each
//!   push lands, so repeated assembly of one pattern skips the sort;
//! * [`SparseLu`] — an LU factorization with threshold partial pivoting,
//!   operating on row linked-lists with a scattered working row (the
//!   classic right-looking "GP"-style elimination), plus a values-only
//!   [`SparseLu::refactor`] that keeps the pivot order.
//!
//! The sparse solver is validated against the dense one in tests and by
//! property tests at the crate boundary.

use crate::dense::DenseMatrix;
use crate::lu::FactorError;
use crate::scalar::Scalar;

/// Coordinate-format (COO) sparse matrix accumulator.
///
/// Duplicate entries are *summed* on conversion, which makes it a natural
/// target for MNA stamping.
///
/// # Examples
///
/// ```
/// use remix_numerics::{TripletMatrix, CsrMatrix};
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // accumulates
/// t.push(1, 1, 5.0);
/// let csr: CsrMatrix<f64> = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// assert_eq!(csr.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TripletMatrix<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletMatrix<T> {
    /// Creates an empty accumulator of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Appends a contribution to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols, "triplet out of bounds");
        self.entries.push((r, c, v));
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Drops all entries, retaining capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Converts to CSR, summing duplicates and dropping explicit zeros is
    /// *not* done (structural zeros are kept so patterns stay stable).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if last == Some((r, c)) {
                let n = values.len();
                values[n - 1] += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to a dense matrix (test/debug helper).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            m.add_at(r, c, v);
        }
        m
    }
}

/// A triplet→CSR conversion that remembers where each push lands.
///
/// MNA assembly pushes the same `(row, col)` sequence on every Newton
/// iteration; only the values change. The first [`convert`](Self::convert)
/// runs [`TripletMatrix::to_csr`] and records the value slot of every
/// push. Later calls zero the values and add each push into its slot in
/// push order, so duplicates sum in the same order as `to_csr`. Every call
/// checks the push sequence against the recorded one and rebuilds the map
/// on any mismatch.
///
/// # Examples
///
/// ```
/// use remix_numerics::{CsrPattern, TripletMatrix};
///
/// let mut t = TripletMatrix::new(2, 2);
/// let mut pattern = CsrPattern::new();
/// for v in [1.0, 2.0] {
///     t.clear();
///     t.push(0, 0, v);
///     t.push(0, 0, v);
///     t.push(1, 1, 5.0);
///     assert_eq!(pattern.convert(&t), &t.to_csr());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CsrPattern<T> {
    /// `(row, col, value slot)` of every recorded push, in push order.
    slots: Vec<(usize, usize, usize)>,
    csr: CsrMatrix<T>,
}

impl<T: Scalar> Default for CsrPattern<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> CsrPattern<T> {
    /// An empty map; the first conversion records the pattern.
    pub fn new() -> Self {
        CsrPattern {
            slots: Vec::new(),
            csr: CsrMatrix {
                rows: 0,
                cols: 0,
                row_ptr: vec![0],
                col_idx: Vec::new(),
                values: Vec::new(),
            },
        }
    }

    /// Converts `t` to CSR, equal to `t.to_csr()`.
    pub fn convert(&mut self, t: &TripletMatrix<T>) -> &CsrMatrix<T> {
        if !self.refill(t) {
            self.rebuild(t);
        }
        &self.csr
    }

    /// Adds the pushes of `t` into their recorded slots; `false` when the
    /// push sequence differs from the recorded one.
    fn refill(&mut self, t: &TripletMatrix<T>) -> bool {
        if (t.rows, t.cols, t.entries.len()) != (self.csr.rows, self.csr.cols, self.slots.len()) {
            return false;
        }
        let values = &mut self.csr.values;
        values.fill(T::zero());
        for (&(r, c, v), &(sr, sc, slot)) in t.entries.iter().zip(&self.slots) {
            if (r, c) != (sr, sc) {
                return false;
            }
            values[slot] += v;
        }
        true
    }

    fn rebuild(&mut self, t: &TripletMatrix<T>) {
        self.csr = t.to_csr();
        let csr = &self.csr;
        self.slots.clear();
        self.slots.extend(t.entries.iter().map(|&(r, c, _)| {
            let lo = csr.row_ptr[r];
            let Ok(k) = csr.col_idx[lo..csr.row_ptr[r + 1]].binary_search(&c) else {
                unreachable!("to_csr stores every pushed entry"); // audit: allow(AUD002): to_csr keeps every pushed position, so the search cannot miss
            };
            (r, c, lo + k)
        }));
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(r, c)`, zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> T {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(k) => self.values[lo + k],
            Err(_) => T::zero(),
        }
    }

    /// Iterates over `(col, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mat_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mat_vec");
        let mut y = vec![T::zero(); self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (c, v) in self.row(r) {
                acc += v * x[c];
            }
            *yr = acc;
        }
        y
    }

    /// Converts to dense (test/debug helper).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m[(r, c)] = v;
            }
        }
        m
    }
}

/// Sparse LU factorization with threshold partial pivoting.
///
/// Rows are held as sorted `(col, value)` vectors; elimination scatters the
/// current row into a dense working buffer, updates, and gathers back. For
/// the matrix sizes the simulator produces (≲ a few hundred unknowns) this
/// is both simple and fast, while preserving sparsity where it exists.
///
/// [`factor`](Self::factor) chooses the pivot order afresh;
/// [`refactor`](Self::refactor) keeps it and only recomputes values, for a
/// matrix of the same pattern whose values moved.
#[derive(Debug, Clone)]
pub struct SparseLu<T> {
    n: usize,
    /// Unit-lower-triangular factors: `lower[i]` holds the `(col, mult)`
    /// multipliers of permuted row `i` (all with `col < i`). The lists are
    /// swapped together with the rows during pivoting so they stay attached
    /// to the correct (permuted) row.
    lower: Vec<Vec<(usize, T)>>,
    /// Upper-triangular rows (sorted by column, diagonal first).
    upper: Vec<Vec<(usize, T)>>,
    /// Row permutation applied to the RHS.
    perm: Vec<usize>,
    /// Largest |a_ij| of the factored matrix (for pivot-growth estimates).
    scale: f64,
    /// Set once [`refactor`](Self::refactor) has replaced the pattern of
    /// `lower`/`upper` by the structural pattern of this pivot order.
    symbolic: Option<Symbolic<T>>,
}

/// The CSR structure a structural L/U pattern was computed for, and the
/// scatter buffer of the numeric phase.
#[derive(Debug, Clone)]
struct Symbolic<T> {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    work: Vec<T>,
}

/// Pivot tolerance relative to the largest candidate in the column.
const PIVOT_THRESHOLD: f64 = 1e-3;

/// Counts a declined [`SparseLu::refactor`] and returns its `false`.
fn declined() -> bool {
    if remix_telemetry::is_armed() {
        remix_telemetry::counter_add(remix_telemetry::names::LU_REFACTOR_DECLINES, 1);
    }
    false
}
/// Magnitude below which an eliminated fill-in entry is dropped.
const DROP_TOL: f64 = 0.0; // keep everything: exactness over speed

impl<T: Scalar> SparseLu<T> {
    /// Factors a CSR matrix.
    ///
    /// # Errors
    ///
    /// [`FactorError::NotSquare`] / [`FactorError::NotFinite`] /
    /// [`FactorError::Singular`] as for the dense factorization.
    pub fn factor(a: &CsrMatrix<T>) -> Result<Self, FactorError> {
        remix_exec::check_matrix_dim(a.rows()).map_err(FactorError::Budget)?;
        if a.rows() != a.cols() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.values.iter().all(|v| v.is_finite_scalar()) {
            return Err(FactorError::NotFinite);
        }
        let n = a.rows();
        let scale = a
            .values
            .iter()
            .map(|v| v.magnitude())
            .fold(0.0, f64::max)
            .max(f64::MIN_POSITIVE);

        // Mutable row storage.
        let mut rows: Vec<Vec<(usize, T)>> = (0..n).map(|r| a.row(r).collect()).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut lower: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        let mut upper: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];

        // Dense scatter buffer reused per eliminated row.
        let mut work = vec![T::zero(); n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n);

        for k in 0..n {
            // --- pivot selection among rows k..n having an entry in col k ---
            // Threshold partial pivoting: among rows whose candidate pivot is
            // within PIVOT_THRESHOLD of the column maximum, choose the
            // sparsest (a cheap Markowitz-style fill heuristic). Two passes
            // keep the logic obviously correct.
            let candidates: Vec<(usize, f64, usize)> = rows
                .iter()
                .enumerate()
                .skip(k)
                .filter_map(|(ri, row)| {
                    row.binary_search_by_key(&k, |e| e.0)
                        .ok()
                        .map(|pos| (ri, row[pos].1.magnitude(), row.len()))
                        .filter(|&(_, m, _)| m > 0.0)
                })
                .collect();
            let max_mag = candidates.iter().map(|c| c.1).fold(0.0, f64::max);
            let best_row = candidates
                .iter()
                .filter(|c| c.1 >= PIVOT_THRESHOLD * max_mag)
                .min_by_key(|c| c.2)
                .map(|c| c.0)
                .unwrap_or(usize::MAX);
            let best_mag = max_mag;
            if best_row == usize::MAX || best_mag <= 1e-13 * scale {
                return Err(FactorError::Singular { step: k });
            }
            rows.swap(k, best_row);
            perm.swap(k, best_row);
            lower.swap(k, best_row);

            // --- extract pivot row into U ---
            let pivot_row = std::mem::take(&mut rows[k]);
            // The pivot-selection scan above only accepts rows holding
            // a finite entry in column k, so the search cannot miss; a
            // miss would be a broken factorization invariant, not a
            // property of the input matrix.
            let Ok(pivot_pos) = pivot_row.binary_search_by_key(&k, |e| e.0) else {
                unreachable!("pivot entry must exist"); // audit: allow(AUD002): a miss is a broken factorization invariant, per the comment above
            };
            let pivot_val = pivot_row[pivot_pos].1;

            // --- eliminate column k from all remaining rows ---
            for ri in (k + 1)..n {
                let Ok(pos) = rows[ri].binary_search_by_key(&k, |e| e.0) else {
                    continue;
                };
                let mult = rows[ri][pos].1 / pivot_val;
                lower[ri].push((k, mult));

                // Scatter target row.
                pattern.clear();
                for &(c, v) in &rows[ri] {
                    if c != k {
                        work[c] = v;
                        pattern.push(c);
                    }
                }
                // Subtract mult * pivot_row (entries beyond column k).
                for &(c, v) in &pivot_row[pivot_pos + 1..] {
                    let delta = mult * v;
                    if work[c] == T::zero() && !pattern.contains(&c) {
                        pattern.push(c);
                    }
                    work[c] -= delta;
                }
                // Gather back, sorted.
                pattern.sort_unstable();
                let mut new_row = Vec::with_capacity(pattern.len());
                for &c in &pattern {
                    let v = work[c];
                    work[c] = T::zero();
                    if v.magnitude() > DROP_TOL {
                        new_row.push((c, v));
                    }
                }
                rows[ri] = new_row;
            }

            upper[k] = pivot_row[pivot_pos..].to_vec();
        }

        let lu = SparseLu {
            n,
            lower,
            upper,
            perm,
            scale,
            symbolic: None,
        };
        lu.record();
        Ok(lu)
    }

    /// Refactors a matrix of the same dimension in place, keeping the row
    /// permutation of the last fresh [`factor`](Self::factor) and only
    /// recomputing values, in the same operation order as `factor`.
    ///
    /// The first call computes the structural L/U pattern of that order
    /// (exact zeros are not dropped, so it fits every later value set of
    /// the same CSR structure); a matrix of another structure recomputes
    /// it. Returns `Ok(false)` — *declined* — when a multiplier exceeds
    /// `1/PIVOT_THRESHOLD` (where `factor`'s threshold pivoting would have
    /// rejected the pivot) or a pivot fails the `factor` singularity test;
    /// the factors are then left partly updated, and only a successful
    /// refactor or a fresh `factor` makes them fit to solve with again.
    ///
    /// # Errors
    ///
    /// As for [`factor`](Self::factor), except that a singular pivot
    /// declines instead: [`FactorError::Budget`],
    /// [`FactorError::NotSquare`], [`FactorError::NotFinite`].
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<bool, FactorError> {
        remix_exec::check_matrix_dim(a.rows()).map_err(FactorError::Budget)?;
        if a.rows() != a.cols() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.values.iter().all(|v| v.is_finite_scalar()) {
            return Err(FactorError::NotFinite);
        }
        if a.rows() != self.n {
            return Ok(declined());
        }
        let scale = a
            .values
            .iter()
            .map(|v| v.magnitude())
            .fold(0.0, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut sym = match self.symbolic.take() {
            Some(sym) if sym.row_ptr == a.row_ptr && sym.col_idx == a.col_idx => sym,
            _ => self.symbolize(a),
        };
        let done = self.eliminate(a, &mut sym.work, scale);
        self.symbolic = Some(sym);
        if !done {
            return Ok(declined());
        }
        self.scale = scale;
        self.record();
        Ok(true)
    }

    /// The numeric phase of [`refactor`](Self::refactor): row by row in
    /// pivot order, scatters `a`'s row into `work` (all zero on entry and
    /// on return), eliminates it by the finished upper rows and gathers
    /// the multipliers and the new upper row. `false` at the first
    /// multiplier or pivot that fails its test.
    fn eliminate(&mut self, a: &CsrMatrix<T>, work: &mut [T], scale: f64) -> bool {
        let max_mult = 1.0 / PIVOT_THRESHOLD;
        for i in 0..self.n {
            for (c, v) in a.row(self.perm[i]) {
                work[c] = v;
            }
            let (done, rest) = self.upper.split_at_mut(i);
            for entry in self.lower[i].iter_mut() {
                let k = entry.0;
                let pivot_row = &done[k];
                let mult = work[k] / pivot_row[0].1;
                work[k] = T::zero();
                if mult.magnitude() > max_mult {
                    work.fill(T::zero());
                    return false;
                }
                entry.1 = mult;
                for &(c, v) in &pivot_row[1..] {
                    work[c] -= mult * v;
                }
            }
            for entry in rest[0].iter_mut() {
                entry.1 = work[entry.0];
                work[entry.0] = T::zero();
            }
            if rest[0][0].1.magnitude() <= 1e-13 * scale {
                return false;
            }
        }
        true
    }

    /// Replaces the pattern of `lower`/`upper` by the structural pattern
    /// of `a` under the current row permutation: row `i` starts from the
    /// columns of `a`'s row `perm[i]` and gains the columns of every upper
    /// row it is eliminated by. The diagonal is always stored, first in
    /// its upper row.
    fn symbolize(&mut self, a: &CsrMatrix<T>) -> Symbolic<T> {
        let n = self.n;
        let mut mark = vec![false; n];
        for i in 0..n {
            for (c, _) in a.row(self.perm[i]) {
                mark[c] = true;
            }
            mark[i] = true;
            let mut lower = Vec::new();
            for k in 0..i {
                if mark[k] {
                    mark[k] = false;
                    lower.push((k, T::zero()));
                    for &(c, _) in &self.upper[k][1..] {
                        mark[c] = true;
                    }
                }
            }
            let mut upper = Vec::new();
            for (c, m) in mark.iter_mut().enumerate().skip(i) {
                if *m {
                    *m = false;
                    upper.push((c, T::zero()));
                }
            }
            self.lower[i] = lower;
            self.upper[i] = upper;
        }
        Symbolic {
            row_ptr: a.row_ptr.clone(),
            col_idx: a.col_idx.clone(),
            work: vec![T::zero(); n],
        }
    }

    /// Counts one factorization and sets the fill and condition gauges.
    fn record(&self) {
        if remix_telemetry::is_armed() {
            remix_telemetry::counter_add(remix_telemetry::names::LU_FACTORIZATIONS, 1);
            remix_telemetry::gauge_set(remix_telemetry::names::LU_FILL_NNZ, self.fill_nnz() as f64);
            remix_telemetry::gauge_set(remix_telemetry::names::LU_RCOND, self.rcond_estimate());
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries in L plus U (fill measure). After a fresh
    /// [`factor`](Self::factor) these are its nonzeros; after a
    /// [`refactor`](Self::refactor) they are the structural pattern, which
    /// may hold exact zeros.
    pub fn fill_nnz(&self) -> usize {
        self.lower.iter().map(Vec::len).sum::<usize>()
            + self.upper.iter().map(Vec::len).sum::<usize>()
    }

    /// Crude reciprocal condition estimate from the pivot magnitudes:
    /// `min |Uᵢᵢ| / max |Uᵢᵢ|`. Cheap (one pass over the stored diagonal)
    /// and sufficient for flagging near-singular circuit matrices —
    /// floating nodes held up only by gmin, broken feedback loops —
    /// where a solve *succeeds* numerically but deserves distrust.
    pub fn rcond_estimate(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for row in &self.upper {
            // Diagonal is stored first in each upper row.
            let m = row[0].1.magnitude();
            min = min.min(m);
            max = max.max(m);
        }
        if max == 0.0 {
            0.0
        } else {
            min / max
        }
    }

    /// Reciprocal pivot growth `max |aᵢⱼ| / max |uᵢⱼ|`: values far below
    /// one mean elimination amplified entries, i.e. the threshold-pivoting
    /// factorization was numerically unstable on this matrix.
    pub fn recip_pivot_growth(&self) -> f64 {
        let mut umax = 0.0f64;
        for row in &self.upper {
            for &(_, v) in row {
                umax = umax.max(v.magnitude());
            }
        }
        if umax == 0.0 {
            0.0
        } else {
            (self.scale / umax).min(1.0)
        }
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// [`FactorError::NotFinite`] if `b` contains non-finite values.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, FactorError> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        if !b.iter().all(|v| v.is_finite_scalar()) {
            return Err(FactorError::NotFinite);
        }
        let mut x: Vec<T> = (0..self.n).map(|i| b[self.perm[i]]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 0..self.n {
            let mut acc = x[i];
            for &(k, mult) in &self.lower[i] {
                acc -= mult * x[k];
            }
            x[i] = acc;
        }
        // Backward with U.
        for i in (0..self.n).rev() {
            let row = &self.upper[i];
            let mut acc = x[i];
            for &(c, v) in &row[1..] {
                acc -= v * x[c];
            }
            x[i] = acc / row[0].1;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::dense::vecops;
    use crate::lu::solve_dense;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    #[test]
    fn triplet_accumulates_duplicates() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(1, 1, 2.0);
        t.push(1, 1, 3.0);
        t.push(0, 1, -1.0);
        let csr = t.to_csr();
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(0, 0), 0.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_check() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 1, 1.0);
    }

    #[test]
    fn csr_mat_vec_matches_dense() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, -3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        let csr = t.to_csr();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(csr.mat_vec(&x), t.to_dense().mat_vec(&x));
    }

    #[test]
    fn sparse_solve_matches_dense_random() {
        let n = 20;
        let mut state = 0xDEADBEEFu64;
        // Sparse-ish random pattern with dominant diagonal.
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            t.push(r, r, 5.0 + lcg(&mut state).abs());
            for _ in 0..3 {
                let c = ((lcg(&mut state).abs() * n as f64) as usize).min(n - 1);
                t.push(r, c, lcg(&mut state));
            }
        }
        let csr = t.to_csr();
        let b: Vec<f64> = (0..n).map(|_| lcg(&mut state)).collect();
        let xs = SparseLu::factor(&csr).unwrap().solve(&b).unwrap();
        let xd = solve_dense(&t.to_dense(), &b).unwrap();
        for (a, b) in xs.iter().zip(xd.iter()) {
            assert!((a - b).abs() < 1e-9, "sparse {a} vs dense {b}");
        }
    }

    #[test]
    fn sparse_solve_requires_pivoting() {
        // Zero diagonal head forces a permutation.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 2, 1.0);
        t.push(2, 2, 1.0);
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b = [1.0, 5.0, 2.0];
        let x = lu.solve(&b).unwrap();
        let r = vecops::sub(&csr.mat_vec(&x), &b);
        assert!(vecops::norm_inf(&r) < 1e-12, "residual {r:?}");
    }

    #[test]
    fn sparse_singular_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 0.5);
        t.push(1, 1, 1.0);
        match SparseLu::factor(&t.to_csr()) {
            Err(FactorError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn sparse_complex_solve() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, Complex::new(1.0, 1.0));
        t.push(0, 1, Complex::ONE);
        t.push(1, 1, Complex::new(0.0, 2.0));
        let csr = t.to_csr();
        let b = [Complex::new(2.0, 0.0), Complex::new(0.0, 4.0)];
        let x = SparseLu::factor(&csr).unwrap().solve(&b).unwrap();
        let ax = csr.mat_vec(&x);
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((*l - *r).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_rcond_flags_bad_conditioning() {
        let mut good = TripletMatrix::new(3, 3);
        for i in 0..3 {
            good.push(i, i, 1.0);
        }
        let lu = SparseLu::factor(&good.to_csr()).unwrap();
        assert!(lu.rcond_estimate() > 0.9);
        assert!((lu.recip_pivot_growth() - 1.0).abs() < 1e-12);

        let mut bad = TripletMatrix::new(3, 3);
        bad.push(0, 0, 1.0);
        bad.push(1, 1, 1.0);
        bad.push(2, 2, 1e-12);
        let lu = SparseLu::factor(&bad.to_csr()).unwrap();
        assert!(lu.rcond_estimate() < 1e-10, "{}", lu.rcond_estimate());
    }

    #[test]
    fn sparse_rcond_matches_dense_on_random_system() {
        let n = 10;
        let mut state = 0xC0FFEEu64;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            t.push(r, r, 4.0 + lcg(&mut state).abs());
            let c = ((lcg(&mut state).abs() * n as f64) as usize).min(n - 1);
            t.push(r, c, lcg(&mut state));
        }
        let sp = SparseLu::factor(&t.to_csr()).unwrap();
        // Same order of magnitude as the dense estimate (pivot orders can
        // differ): both are crude estimators, not exact condition numbers.
        let de = crate::lu::LuFactor::factor(&t.to_dense()).unwrap();
        let (a, b) = (sp.rcond_estimate(), de.rcond_estimate());
        assert!(a > 0.0 && b > 0.0);
        assert!(
            a / b < 100.0 && b / a < 100.0,
            "sparse {a:.3e} dense {b:.3e}"
        );
    }

    #[test]
    fn fill_reported() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        let lu = SparseLu::factor(&t.to_csr()).unwrap();
        assert!(lu.fill_nnz() >= 3);
        assert_eq!(lu.dim(), 2);
    }

    #[test]
    fn csr_row_iteration_sorted() {
        let mut t = TripletMatrix::new(1, 4);
        t.push(0, 3, 3.0);
        t.push(0, 1, 1.0);
        let csr = t.to_csr();
        let row: Vec<(usize, f64)> = csr.row(0).collect();
        assert_eq!(row, vec![(1, 1.0), (3, 3.0)]);
    }

    #[test]
    fn clear_resets_accumulator() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.clear();
        assert_eq!(t.raw_len(), 0);
        assert_eq!(t.to_csr().nnz(), 0);
    }

    /// A random sparse pattern of dimension `n` fixed by `seed`: a
    /// diagonal in [5, 6) and three off-diagonal pushes per row of
    /// magnitude [0.5, 1.5) and random sign. `perturb` scales every value
    /// by `1 + perturb·u`, `u` uniform in [-1, 0).
    fn random_system(n: usize, seed: u64, perturb: f64) -> TripletMatrix<f64> {
        let mut pat = seed;
        let mut val = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..n {
            let d = 6.0 + lcg(&mut val);
            t.push(r, r, d * (1.0 + perturb * lcg(&mut val)));
            for _ in 0..3 {
                let c = ((lcg(&mut pat) + 1.0) * n as f64) as usize;
                let sign = if lcg(&mut pat) < -0.5 { -1.0 } else { 1.0 };
                let v = sign * (1.5 + lcg(&mut val));
                t.push(r, c.min(n - 1), v * (1.0 + perturb * lcg(&mut val)));
            }
        }
        t
    }

    #[test]
    fn pattern_conversion_matches_to_csr() {
        let mut pattern = CsrPattern::new();
        for (k, perturb) in [0.0, 0.1, 0.3].into_iter().enumerate() {
            let t = random_system(15, 7, perturb);
            assert_eq!(pattern.convert(&t), &t.to_csr(), "conversion {k}");
        }
    }

    #[test]
    fn pattern_conversion_rebuilds_on_a_new_push_sequence() {
        let mut pattern = CsrPattern::new();
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 1, 2.0);
        assert_eq!(pattern.convert(&t), &t.to_csr());
        // Same length, another position.
        t.clear();
        t.push(0, 0, 1.0);
        t.push(1, 2, 2.0);
        assert_eq!(pattern.convert(&t), &t.to_csr());
        // Longer, with a duplicate summed in push order.
        t.push(1, 2, 0.5);
        let csr = pattern.convert(&t).clone();
        assert_eq!(csr, t.to_csr());
        assert_eq!(csr.get(1, 2), 2.5);
        // Another shape.
        let mut wide = TripletMatrix::new(3, 4);
        wide.push(0, 0, 1.0);
        wide.push(1, 2, 2.0);
        wide.push(1, 2, 0.5);
        assert_eq!(pattern.convert(&wide), &wide.to_csr());
    }

    /// Solves with both factors and checks the solutions agree to `tol`
    /// relative to the largest entry.
    fn assert_same_solution<T: Scalar + std::fmt::Debug>(
        a: &SparseLu<T>,
        b: &SparseLu<T>,
        rhs: &[T],
        tol: f64,
    ) {
        let (xa, xb) = (a.solve(rhs).unwrap(), b.solve(rhs).unwrap());
        let scale = xb.iter().map(|v| v.magnitude()).fold(1.0, f64::max);
        for (u, v) in xa.iter().zip(&xb) {
            assert!((*u - *v).magnitude() <= tol * scale, "{u:?} vs {v:?}");
        }
    }

    #[test]
    fn refactor_matches_a_fresh_factor_on_perturbed_values() {
        for seed in 1..=20u64 {
            let n = 10 + (seed as usize % 3) * 10;
            let base = random_system(n, seed, 0.0);
            let mut lu = SparseLu::factor(&base.to_csr()).unwrap();
            let mut state = seed;
            let rhs: Vec<f64> = (0..n).map(|_| lcg(&mut state)).collect();
            for round in 1..=3 {
                let moved = random_system(n, seed, 0.05 * round as f64).to_csr();
                assert!(lu.refactor(&moved).unwrap(), "seed {seed} round {round}");
                let fresh = SparseLu::factor(&moved).unwrap();
                if fresh.perm == lu.perm {
                    // Same pivot order: the same operations, bit for bit.
                    assert_eq!(lu.solve(&rhs).unwrap(), fresh.solve(&rhs).unwrap());
                } else {
                    // Threshold pivoting lets either order grow entries by
                    // up to its pivot growth, which scales its round-off.
                    let growth = 1.0 / lu.recip_pivot_growth().min(fresh.recip_pivot_growth());
                    assert_same_solution(&lu, &fresh, &rhs, 1e-12 * growth);
                }
            }
        }
    }

    #[test]
    fn refactor_of_the_same_values_reproduces_factor_exactly() {
        let csr = random_system(20, 3, 0.0).to_csr();
        let fresh = SparseLu::factor(&csr).unwrap();
        let mut lu = fresh.clone();
        assert!(lu.refactor(&csr).unwrap());
        let mut state = 11u64;
        let rhs: Vec<f64> = (0..20).map(|_| lcg(&mut state)).collect();
        assert_eq!(lu.solve(&rhs).unwrap(), fresh.solve(&rhs).unwrap());
        assert_eq!(lu.rcond_estimate(), fresh.rcond_estimate());
    }

    #[test]
    fn refactor_declines_a_multiplier_past_the_threshold() {
        let system = |a00: f64| {
            let mut t = TripletMatrix::new(2, 2);
            t.push(0, 0, a00);
            t.push(0, 1, 1.0);
            t.push(1, 0, 1.0);
            t.push(1, 1, 1.0);
            t.to_csr()
        };
        let mut lu = SparseLu::factor(&system(2.0)).unwrap();
        assert!(lu.refactor(&system(1.5)).unwrap());
        // |l| = 1 / 1e-5 > 1 / PIVOT_THRESHOLD: factor would pivot.
        assert!(!lu.refactor(&system(1e-5)).unwrap());
        // The decline left the scatter buffer clean: a fresh order of the
        // same structure refactors again.
        let mut lu = SparseLu::factor(&system(2.0)).unwrap();
        assert!(!lu.refactor(&system(1e-5)).unwrap());
        assert!(lu.refactor(&system(1.5)).unwrap());
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        let r = vecops::sub(&system(1.5).mat_vec(&x), &[1.0, 2.0]);
        assert!(vecops::norm_inf(&r) < 1e-12, "residual {r:?}");
    }

    #[test]
    fn refactor_declines_a_singular_pivot() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 0.5);
        t.push(1, 1, 3.0);
        let mut lu = SparseLu::factor(&t.to_csr()).unwrap();
        t.clear();
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 0.5);
        t.push(1, 1, 1.0);
        assert!(!lu.refactor(&t.to_csr()).unwrap());
    }

    #[test]
    fn refactor_keeps_positions_that_cancelled_exactly() {
        // Eliminating column 0 from row 2 cancels (2, 1) exactly in the
        // first factorization, so `factor` stores no multiplier there.
        let system = |a21: f64| {
            let mut t = TripletMatrix::new(3, 3);
            t.push(0, 0, 2.0);
            t.push(0, 1, 1.0);
            t.push(1, 1, 1.0);
            t.push(1, 2, 1.0);
            t.push(2, 0, 1.0);
            t.push(2, 1, a21);
            t.push(2, 2, 1.0);
            t.to_csr()
        };
        let first = system(0.5);
        let mut lu = SparseLu::factor(&first).unwrap();
        let fresh_fill = lu.fill_nnz();
        let moved = system(0.7);
        assert!(lu.refactor(&moved).unwrap());
        assert!(lu.fill_nnz() > fresh_fill, "structural pattern kept (2, 1)");
        let b = [1.0, -2.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let xd = solve_dense(&moved.to_dense(), &b).unwrap();
        for (u, v) in x.iter().zip(&xd) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn refactor_works_on_a_complex_matrix() {
        let system = |s: f64| {
            let mut t = TripletMatrix::new(3, 3);
            t.push(0, 0, Complex::new(1.0, s));
            t.push(0, 2, Complex::ONE);
            t.push(1, 0, Complex::new(0.5, -s));
            t.push(1, 1, Complex::new(0.0, 2.0 + s));
            t.push(2, 1, Complex::new(s, 1.0));
            t.push(2, 2, Complex::new(3.0, 0.0));
            t.to_csr()
        };
        let mut lu = SparseLu::factor(&system(0.25)).unwrap();
        let moved = system(0.5);
        assert!(lu.refactor(&moved).unwrap());
        let b = [Complex::new(2.0, 0.0), Complex::new(0.0, 4.0), Complex::ONE];
        assert_same_solution(&lu, &SparseLu::factor(&moved).unwrap(), &b, 1e-12);
    }

    #[test]
    fn refactor_reports_a_nan_as_not_finite() {
        let mut t = random_system(8, 5, 0.0);
        let mut lu = SparseLu::factor(&t.to_csr()).unwrap();
        t.push(3, 3, f64::NAN);
        match lu.refactor(&t.to_csr()) {
            Err(FactorError::NotFinite) => {}
            other => panic!("expected NotFinite, got {other:?}"),
        }
    }
}
