//! Minimum Covariance Determinant estimation via FastMCD (Section 4.1,
//! Appendix A) and Mahalanobis-distance scoring for multivariate metrics.
//!
//! The exact MCD — the `h`-point subset whose covariance matrix has minimum
//! determinant — is combinatorial, so MacroBase adopts the FastMCD iterative
//! approximation [Rousseeuw & Van Driessen 1999]: start from several random
//! small subsets, repeatedly apply *C-steps* (re-fit location/scatter on the
//! `h` points with smallest Mahalanobis distance under the current fit) until
//! the determinant stops decreasing, and keep the best run.
//!
//! Training parallelizes at two nested levels on the shared [`mb_pool`]
//! work-stealing pool:
//!
//! * **Restarts** — FastMCD's random restarts are embarrassingly parallel:
//!   each becomes one pool task with a restart-local RNG split
//!   deterministically from the seed ([`SplitMix64::split`]), and the winner
//!   is chosen by a deterministic best-of-restarts merge (lowest covariance
//!   log-determinant, ties broken by restart index).
//! * **Distance pass** — the Mahalanobis pass inside each C-step, the
//!   dominant per-iteration cost, scatters row chunks on the same pool
//!   (nested parallelism: the pool's helping waits let restart tasks fan
//!   out further).
//!
//! Both levels keep per-row/per-restart arithmetic independent of the
//! schedule, so training is bit-identical at any thread count and pool size.
//! Each C-step performs exactly one O(d³) matrix factorization
//! ([`SpdFactors`]: Cholesky for the SPD covariance, LU fallback), from
//! which the inverse (distance pass) and log-determinant (convergence and
//! merge) are both derived.
//!
//! Training works on one contiguous row-major buffer (`dim` values per
//! row): [`Estimator::train_flat`] fits on the caller's buffer as is, and
//! the row-major entry points flatten once. Every distance — C-step,
//! batch scoring, single-point scoring — comes from one kernel that
//! computes four rows at a time with each row's additions in the serial
//! order. A C-step then selects the `h` smallest distances
//! (`select_nth_unstable` plus a sort of that prefix only) under the key
//! `(d²` by `total_cmp`, row index`)`, packed into one `u128` so a
//! comparison is a single integer compare. The pass emits rows in index
//! order, so that prefix is exactly the first `h` entries of a stable
//! sort by `d²`, in the same order: the covariance refit sums the same
//! rows in the same order, and fits stay bit-identical to the row-major,
//! fully sorted formulation.

use crate::matrix::{covariance_of_indices, Matrix, SpdFactors};
use crate::rand_ext::SplitMix64;
use crate::{Estimator, Result, StatsError};
use mb_pool::Pool;

/// Minimum rows per task when the distance pass fans out on the shared
/// work-stealing pool. Below this (per chunk) the arithmetic is cheaper
/// than the queue round-trip, so the pass runs inline on the caller.
const DISTANCE_GRAIN: usize = 2048;

/// Rows per block of the distance kernel: four independent add chains
/// are enough to hide floating-point add latency at every dimension.
const BLOCK: usize = 4;

/// Squared Mahalanobis distances of the rows of `rows` (row-major,
/// `mean.len()` values per row) under `(mean, inv)`, written into `out`
/// through `put(row offset, d²)` — one slot per row. This is the only
/// distance kernel: the C-step, batch scoring and single-point scoring all
/// call it. Whole blocks of [`BLOCK`] rows go through the blocked body; the
/// remaining rows go through the same body one row at a time.
fn squared_distances<T>(
    inv: &Matrix,
    mean: &[f64],
    rows: &[f64],
    out: &mut [T],
    put: impl Fn(usize, f64) -> T,
) {
    let dim = mean.len();
    debug_assert_eq!(rows.len(), out.len() * dim);
    debug_assert_eq!(inv.as_slice().len(), dim * dim);
    let blocked = out.len() - out.len() % BLOCK;
    let (head, tail) = out.split_at_mut(blocked);
    let (head_rows, tail_rows) = rows.split_at(blocked * dim);
    squared_distances_by::<BLOCK, T>(inv, mean, head_rows, head, &put);
    squared_distances_by::<1, T>(inv, mean, tail_rows, tail, |row, d2| put(blocked + row, d2));
}

/// The kernel body, `B` rows at a time. The block's centered rows are
/// stored column-interleaved (`centered[j][k]` is row `k`'s `j`-th value)
/// so every step updates `B` independent accumulators, but each row keeps
/// the serial formulation's accumulation order: `c = row - mean`, then for
/// each `i`, `t_i = Σ_j inv[i][j]·c[j]` left to right, and
/// `d² = Σ_i c[i]·t_i` left to right from `+0.0`. (The serial `.sum()`
/// starts `t_i` from `-0.0`; that can only flip the sign of a zero `t_i`,
/// and a signed zero added to `d²` leaves it unchanged.) So a row's
/// distance does not depend on `B`, its neighbours or the chunking.
fn squared_distances_by<const B: usize, T>(
    inv: &Matrix,
    mean: &[f64],
    rows: &[f64],
    out: &mut [T],
    put: impl Fn(usize, f64) -> T,
) {
    let dim = mean.len();
    let mut centered = vec![[0.0; B]; dim];
    for (block, (rows, slots)) in rows
        .chunks_exact(B * dim)
        .zip(out.chunks_exact_mut(B))
        .enumerate()
    {
        for (k, row) in rows.chunks_exact(dim).enumerate() {
            for ((c, r), m) in centered.iter_mut().zip(row).zip(mean) {
                c[k] = r - m;
            }
        }
        let mut totals = [0.0; B];
        for (inv_i, c_i) in inv.as_slice().chunks_exact(dim).zip(&centered) {
            let mut t = [0.0; B];
            for (a, c_j) in inv_i.iter().zip(&centered) {
                for (t, c) in t.iter_mut().zip(c_j) {
                    *t += a * c;
                }
            }
            for ((total, c), t) in totals.iter_mut().zip(c_i).zip(&t) {
                *total += c * t;
            }
        }
        for (k, (slot, &d2)) in slots.iter_mut().zip(&totals).enumerate() {
            *slot = put(block * B + k, d2);
        }
    }
}

/// Fill `out` with one `put(row index, d²)` per row of the row-major `flat`
/// buffer under `(mean, inv)`, scattering row chunks onto `pool` when the
/// buffer is large enough to amortize submission. Each row's arithmetic is
/// the kernel's fixed order, so results are bit-identical regardless of
/// thread count or chunking.
fn distance_pass<T: Send>(
    pool: &Pool,
    flat: &[f64],
    mean: &[f64],
    inv: &Matrix,
    out: &mut [T],
    put: impl Fn(usize, f64) -> T + Sync,
) {
    let dim = mean.len();
    pool.parallel_for(out, DISTANCE_GRAIN, |start, chunk| {
        let rows = &flat[start * dim..(start + chunk.len()) * dim];
        squared_distances(inv, mean, rows, chunk, |offset, d2| put(start + offset, d2));
    });
}

/// `x`'s bits reordered so that unsigned integer order is the IEEE total
/// order [`f64::total_cmp`] uses: `total_cmp` flips the magnitude bits of
/// negative values and compares as signed; flipping the sign bit as well
/// makes the comparison unsigned.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63)
}

/// The C-step's selection key for `row` at squared distance `d2`:
/// [`total_order_bits`] of `d2` in the high half, the row index in the low
/// half. Integer order on keys is the order "ascending `d2` under
/// `total_cmp`, ties by ascending row index" — a strict total order, as row
/// indices are unique — at the cost of one 128-bit compare.
fn selection_key(row: usize, d2: f64) -> u128 {
    (u128::from(total_order_bits(d2)) << 64) | row as u128
}

/// Whether a selection key holds a NaN distance: NaNs are the only values
/// ordered above +∞ or below −∞.
fn is_nan_key(key: u128) -> bool {
    let bits = (key >> 64) as u64;
    bits > total_order_bits(f64::INFINITY) || bits < total_order_bits(f64::NEG_INFINITY)
}

/// Configuration for the FastMCD estimator.
#[derive(Debug, Clone)]
pub struct FastMcdConfig {
    /// Fraction of the sample used for the robust subset `h` (`0.5..=1.0`).
    /// The paper (and the reference implementation) default to `0.5`, the
    /// maximum-breakdown choice.
    pub support_fraction: f64,
    /// Number of random restarts. More restarts improve the chance of
    /// escaping a bad initial subset; FastMCD's authors recommend a handful.
    pub num_starts: usize,
    /// Maximum number of C-steps per restart.
    pub max_iterations: usize,
    /// Convergence threshold on the decrease of the covariance log-determinant.
    pub tolerance: f64,
    /// Seed for the internal subset-selection RNG (deterministic training).
    pub seed: u64,
}

impl Default for FastMcdConfig {
    fn default() -> Self {
        FastMcdConfig {
            support_fraction: 0.5,
            num_starts: 4,
            max_iterations: 50,
            tolerance: 1e-7,
            seed: 0xC0FFEE,
        }
    }
}

/// FastMCD robust multivariate location/scatter estimator with
/// Mahalanobis-distance scoring.
#[derive(Debug, Clone)]
pub struct McdEstimator {
    config: FastMcdConfig,
    mean: Vec<f64>,
    covariance: Option<Matrix>,
    inverse_covariance: Option<Matrix>,
}

impl Default for McdEstimator {
    fn default() -> Self {
        Self::new(FastMcdConfig::default())
    }
}

impl McdEstimator {
    /// Create an untrained estimator with the given configuration.
    pub fn new(config: FastMcdConfig) -> Self {
        McdEstimator {
            config,
            mean: Vec::new(),
            covariance: None,
            inverse_covariance: None,
        }
    }

    /// Create an untrained estimator with default configuration.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The robust location estimate, if trained.
    pub fn location(&self) -> Option<&[f64]> {
        self.covariance.as_ref().map(|_| self.mean.as_slice())
    }

    /// The robust scatter (covariance) estimate, if trained.
    pub fn scatter(&self) -> Option<&Matrix> {
        self.covariance.as_ref()
    }

    /// The inverse scatter matrix, if trained (used by scoring and corr-max).
    pub fn inverse_scatter(&self) -> Option<&Matrix> {
        self.inverse_covariance.as_ref()
    }

    /// Squared Mahalanobis distance of `x` from the fitted distribution.
    pub fn squared_mahalanobis(&self, x: &[f64]) -> Result<f64> {
        let inv = self
            .inverse_covariance
            .as_ref()
            .ok_or(StatsError::NotTrained)?;
        if x.len() != self.mean.len() {
            return Err(StatsError::DimensionMismatch {
                expected: self.mean.len(),
                actual: x.len(),
            });
        }
        let mut d2 = [0.0];
        squared_distances(inv, &self.mean, x, &mut d2, |_, d2| d2);
        Ok(d2[0].max(0.0))
    }

    /// Mahalanobis distance (square root of [`squared_mahalanobis`]).
    ///
    /// [`squared_mahalanobis`]: McdEstimator::squared_mahalanobis
    pub fn mahalanobis(&self, x: &[f64]) -> Result<f64> {
        Ok(self.squared_mahalanobis(x)?.sqrt())
    }

    /// Compute mean, covariance, and covariance factors of the rows of
    /// `flat` selected by `indices` — without copying a single row — ridge-
    /// regularizing the covariance until it factors. The factors are the
    /// *only* decomposition a C-step performs: the caller derives both the
    /// inverse and the log-determinant from them.
    fn fit_subset(
        flat: &[f64],
        dim: usize,
        indices: &[usize],
    ) -> Result<(Vec<f64>, Matrix, SpdFactors)> {
        let (mean, mut cov) = covariance_of_indices(flat, dim, indices)?;
        // Ridge-regularize until factorable; degenerate subsets (e.g.
        // repeated points) otherwise break the C-step.
        let mut ridge = 1e-9;
        loop {
            match SpdFactors::factor(&cov) {
                Ok(factors) => return Ok((mean, cov, factors)),
                Err(e) if ridge >= 1e3 => return Err(e),
                Err(_) => {
                    cov.add_diagonal(ridge);
                    ridge *= 10.0;
                }
            }
        }
    }

    /// One C-step: given a fit's inverse scatter, select the `h` rows of
    /// `flat` with the smallest Mahalanobis distances under it, in
    /// ascending `(d², row index)` order. The distance pass fans out
    /// across `pool` for large samples and emits one [`selection_key`] per
    /// row; selection partitions the `h` smallest keys to the front and
    /// sorts only that prefix. A NaN distance (a numerically destroyed fit)
    /// fails the step: it has no meaningful place in the order.
    fn c_step(
        pool: &Pool,
        flat: &[f64],
        mean: &[f64],
        inv: &Matrix,
        h: usize,
        keys: &mut Vec<u128>,
    ) -> Result<Vec<usize>> {
        keys.clear();
        keys.resize(flat.len() / mean.len(), 0);
        distance_pass(pool, flat, mean, inv, keys, selection_key);
        if keys.iter().any(|&key| is_nan_key(key)) {
            return Err(StatsError::NonFinite);
        }
        debug_assert!(
            (1..=keys.len()).contains(&h),
            "h = {h} of {} rows",
            keys.len()
        );
        // The pass emits rows in ascending index order, so the `h`
        // smallest keys, sorted, are exactly the first `h` entries a
        // stable sort by `d²` alone would give.
        keys.select_nth_unstable(h - 1);
        let selected = &mut keys[..h];
        selected.sort_unstable();
        Ok(selected.iter().map(|&key| key as u64 as usize).collect())
    }

    /// One full FastMCD restart: draw an elemental start with the restart-
    /// local RNG, then iterate C-steps to convergence. Exactly one matrix
    /// factorization per C-step (inside [`fit_subset`]); the inverse and
    /// log-determinant both come from those factors. Any failure —
    /// unfactorable subset after maximal ridging, NaN distances — fails
    /// *this restart only*; the caller skips to the next start.
    ///
    /// [`fit_subset`]: McdEstimator::fit_subset
    fn run_restart(
        config: &FastMcdConfig,
        pool: &Pool,
        flat: &[f64],
        dim: usize,
        h: usize,
        start_index: usize,
    ) -> Result<RestartFit> {
        let n = flat.len() / dim;
        let mut rng = SplitMix64::new(config.seed).split(start_index as u64);
        // Initial subset: d + 1 random distinct points (FastMCD's elemental
        // start), falling back to 2 points when the sample is tiny.
        let init_size = (dim + 1).min(n).max(2);
        let mut indices: Vec<usize> = (0..n).collect();
        // Partial Fisher-Yates to pick `init_size` distinct indices.
        for i in 0..init_size {
            let j = i + rng.next_below(n - i);
            indices.swap(i, j);
        }
        let mut subset: Vec<usize> = indices[..init_size].to_vec();
        let mut keys: Vec<u128> = Vec::with_capacity(n);

        let (mut mean, mut cov, mut factors) = Self::fit_subset(flat, dim, &subset)?;
        let mut logdet = factors.log_abs_determinant();

        for _iter in 0..config.max_iterations {
            let inv = factors.inverse();
            subset = Self::c_step(pool, flat, &mean, &inv, h, &mut keys)?;
            let (new_mean, new_cov, new_factors) = Self::fit_subset(flat, dim, &subset)?;
            let new_logdet = new_factors.log_abs_determinant();
            mean = new_mean;
            cov = new_cov;
            factors = new_factors;
            let converged = (logdet - new_logdet).abs() < config.tolerance;
            logdet = new_logdet;
            if converged {
                break;
            }
        }
        Ok(RestartFit {
            logdet,
            mean,
            cov,
            factors,
        })
    }

    /// [`Estimator::train`] on an explicit pool instead of the process-wide
    /// one. Restarts scatter as pool tasks and each restart's C-step
    /// distance passes fan out on the same pool (nested parallelism); the
    /// best-of-restarts merge is by lowest covariance log-determinant with
    /// ties broken by restart index, so the fit is a pure function of
    /// `(sample, config)` — bit-identical at any thread count, including
    /// `Pool::new(1)`, and to [`Estimator::train_flat`] on the same rows.
    ///
    /// A failed restart (degenerate beyond ridging, NaN distances) is
    /// skipped; training errors only when *every* restart fails.
    pub fn train_on_pool(&mut self, pool: &Pool, sample: &[Vec<f64>]) -> Result<()> {
        let dim = crate::validate_sample(sample)?;
        self.fit_validated(pool, &sample.concat(), dim)
    }

    /// The FastMCD fit proper, on a validated (non-empty, whole-row,
    /// finite) row-major buffer.
    fn fit_validated(&mut self, pool: &Pool, flat: &[f64], dim: usize) -> Result<()> {
        let n = flat.len() / dim;
        // Need enough points for a non-degenerate covariance of a subset.
        let min_required = (dim + 2).max(4);
        if n < min_required {
            return Err(StatsError::InsufficientData {
                required: min_required,
                provided: n,
            });
        }
        if !(0.5..=1.0).contains(&self.config.support_fraction) {
            return Err(StatsError::InvalidParameter(format!(
                "support_fraction must be in [0.5, 1.0], got {}",
                self.config.support_fraction
            )));
        }

        let h = ((n as f64 * self.config.support_fraction).ceil() as usize)
            .max(dim + 1)
            .min(n);

        // Scatter: one pool task per restart, each with an RNG split
        // deterministically from the seed by restart index.
        let config = &self.config;
        let starts: Vec<usize> = (0..self.config.num_starts.max(1)).collect();
        let results: Vec<Result<RestartFit>> = pool.map_vec(starts, |start| {
            Self::run_restart(config, pool, flat, dim, h, start)
        });

        // Gather: deterministic best-of-restarts merge — lowest covariance
        // log-determinant wins; the strict `<` over index order breaks ties
        // toward the lowest restart index. Failed restarts are skipped;
        // the first failure is surfaced only if no restart succeeded.
        let mut best: Option<RestartFit> = None;
        let mut first_error: Option<StatsError> = None;
        for result in results {
            match result {
                Ok(fit) => {
                    if best.as_ref().map_or(true, |b| fit.logdet < b.logdet) {
                        best = Some(fit);
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        let Some(fit) = best else {
            return Err(first_error.unwrap_or(StatsError::SingularMatrix));
        };

        // The winning restart's factors are already the factors of its
        // (ridged-if-needed) covariance: the scoring inverse reuses them
        // instead of decomposing a third time.
        self.mean = fit.mean;
        self.inverse_covariance = Some(fit.factors.inverse());
        self.covariance = Some(fit.cov);
        Ok(())
    }

    /// Squared Mahalanobis distances of every row of `rows` from the fitted
    /// distribution, computed in parallel on the shared pool — the same
    /// kernel a C-step runs during training, exposed for batch scoring
    /// and the hot-path micro-benchmarks.
    pub fn squared_mahalanobis_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        if self.inverse_covariance.is_none() {
            return Err(StatsError::NotTrained);
        }
        if let Some(row) = rows.iter().find(|row| row.len() != self.mean.len()) {
            return Err(StatsError::DimensionMismatch {
                expected: self.mean.len(),
                actual: row.len(),
            });
        }
        self.map_distances(&rows.concat(), self.mean.len(), |d2| d2.max(0.0))
    }

    /// `f(d²)` for every row of the row-major `flat` buffer, in row order,
    /// via the pool-scattered distance pass.
    fn map_distances(
        &self,
        flat: &[f64],
        dim: usize,
        f: impl Fn(f64) -> f64 + Sync,
    ) -> Result<Vec<f64>> {
        let inv = self
            .inverse_covariance
            .as_ref()
            .ok_or(StatsError::NotTrained)?;
        if dim != self.mean.len() || flat.len() % self.mean.len() != 0 {
            return Err(StatsError::DimensionMismatch {
                expected: self.mean.len(),
                actual: if dim != self.mean.len() {
                    dim
                } else {
                    flat.len() % self.mean.len()
                },
            });
        }
        let mut out = vec![0.0; flat.len() / dim];
        distance_pass(
            mb_pool::global(),
            flat,
            &self.mean,
            inv,
            &mut out,
            |_, d2| f(d2),
        );
        Ok(out)
    }
}

/// The outcome of one successful FastMCD restart: the converged fit and
/// the factors of its covariance (reused for the final scoring inverse).
struct RestartFit {
    logdet: f64,
    mean: Vec<f64>,
    cov: Matrix,
    factors: SpdFactors,
}

impl Estimator for McdEstimator {
    fn train(&mut self, sample: &[Vec<f64>]) -> Result<()> {
        self.train_on_pool(mb_pool::global(), sample)
    }

    // Fit straight off the caller's row-major buffer. Validation reports
    // what the default (materialize rows, then `train`) would: shape
    // first, then finiteness — all before any restart runs.
    fn train_flat(&mut self, flat: &[f64], dim: usize) -> Result<()> {
        crate::validate_flat(flat, dim)?;
        self.fit_validated(mb_pool::global(), flat, dim)
    }

    fn score(&self, metrics: &[f64]) -> Result<f64> {
        self.mahalanobis(metrics)
    }

    fn score_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        // The parallel distance pass, then the same clamp-and-sqrt as
        // `score` — bit-identical to scoring row by row.
        Ok(self
            .squared_mahalanobis_batch(rows)?
            .into_iter()
            .map(f64::sqrt)
            .collect())
    }

    fn score_batch_flat(&self, flat: &[f64], dim: usize) -> Result<Vec<f64>> {
        // The same kernel and clamp-and-sqrt as `score`, so results are
        // bit-identical regardless of layout or threads.
        self.map_distances(flat, dim, |d2| d2.max(0.0).sqrt())
    }

    fn dimension(&self) -> Option<usize> {
        self.covariance.as_ref().map(|_| self.mean.len())
    }
}

/// The row-major FastMCD this module used before the flat kernel: one
/// `Vec<f64>` per row, a serial per-row distance loop, a full stable sort
/// per C-step and a row-major covariance refit. Kept verbatim in its
/// arithmetic as the oracle the bit-identity tests compare against.
#[cfg(test)]
mod reference {
    use super::{FastMcdConfig, DISTANCE_GRAIN};
    use crate::matrix::{Matrix, SpdFactors};
    use crate::rand_ext::SplitMix64;
    use crate::{Result, StatsError};
    use mb_pool::Pool;

    /// A trained reference model: location, scatter and inverse scatter.
    pub(super) struct Fit {
        pub mean: Vec<f64>,
        pub cov: Matrix,
        pub inv: Matrix,
    }

    fn squared_distance(inv: &Matrix, mean: &[f64], row: &[f64], centered: &mut [f64]) -> f64 {
        for ((c, r), m) in centered.iter_mut().zip(row.iter()).zip(mean.iter()) {
            *c = r - m;
        }
        let mut total = 0.0;
        for (i, &ci) in centered.iter().enumerate() {
            let row_i = inv.row(i);
            let transformed: f64 = row_i.iter().zip(centered.iter()).map(|(a, b)| a * b).sum();
            total += ci * transformed;
        }
        total
    }

    fn distance_pass(
        pool: &Pool,
        sample: &[Vec<f64>],
        mean: &[f64],
        inv: &Matrix,
        distances: &mut Vec<(f64, usize)>,
    ) {
        distances.clear();
        distances.resize(sample.len(), (0.0, 0));
        pool.parallel_for(distances, DISTANCE_GRAIN, |start, chunk| {
            let mut centered = vec![0.0; mean.len()];
            for (offset, slot) in chunk.iter_mut().enumerate() {
                let index = start + offset;
                *slot = (
                    squared_distance(inv, mean, &sample[index], &mut centered),
                    index,
                );
            }
        });
    }

    fn covariance_of_indices(sample: &[Vec<f64>], indices: &[usize]) -> (Vec<f64>, Matrix) {
        let dim = sample[0].len();
        let mut means = vec![0.0; dim];
        for &idx in indices {
            for (m, v) in means.iter_mut().zip(sample[idx].iter()) {
                *m += v;
            }
        }
        let n = indices.len() as f64;
        means.iter_mut().for_each(|m| *m /= n);
        let mut cov = Matrix::zeros(dim, dim);
        for &idx in indices {
            let row = &sample[idx];
            for i in 0..dim {
                let di = row[i] - means[i];
                for j in i..dim {
                    let dj = row[j] - means[j];
                    cov[(i, j)] += di * dj;
                }
            }
        }
        let denom = (indices.len() - 1) as f64;
        for i in 0..dim {
            for j in i..dim {
                cov[(i, j)] /= denom;
                if i != j {
                    cov[(j, i)] = cov[(i, j)];
                }
            }
        }
        (means, cov)
    }

    fn fit_subset(
        sample: &[Vec<f64>],
        indices: &[usize],
    ) -> Result<(Vec<f64>, Matrix, SpdFactors)> {
        let (mean, mut cov) = covariance_of_indices(sample, indices);
        let mut ridge = 1e-9;
        loop {
            match SpdFactors::factor(&cov) {
                Ok(factors) => return Ok((mean, cov, factors)),
                Err(e) if ridge >= 1e3 => return Err(e),
                Err(_) => {
                    cov.add_diagonal(ridge);
                    ridge *= 10.0;
                }
            }
        }
    }

    fn run_restart(
        config: &FastMcdConfig,
        pool: &Pool,
        sample: &[Vec<f64>],
        dim: usize,
        h: usize,
        start_index: usize,
    ) -> Result<(f64, Vec<f64>, Matrix, SpdFactors)> {
        let n = sample.len();
        let mut rng = SplitMix64::new(config.seed).split(start_index as u64);
        let init_size = (dim + 1).min(n).max(2);
        let mut indices: Vec<usize> = (0..n).collect();
        for i in 0..init_size {
            let j = i + rng.next_below(n - i);
            indices.swap(i, j);
        }
        let mut subset: Vec<usize> = indices[..init_size].to_vec();
        let mut distances: Vec<(f64, usize)> = Vec::with_capacity(n);
        let (mut mean, mut cov, mut factors) = fit_subset(sample, &subset)?;
        let mut logdet = factors.log_abs_determinant();
        for _iter in 0..config.max_iterations {
            let inv = factors.inverse();
            distance_pass(pool, sample, &mean, &inv, &mut distances);
            if distances.iter().any(|(d2, _)| d2.is_nan()) {
                return Err(StatsError::NonFinite);
            }
            // The full stable sort: equal distances keep ascending row
            // order.
            distances.sort_by(|a, b| a.0.total_cmp(&b.0));
            subset = distances.iter().take(h).map(|&(_, idx)| idx).collect();
            let (new_mean, new_cov, new_factors) = fit_subset(sample, &subset)?;
            let new_logdet = new_factors.log_abs_determinant();
            mean = new_mean;
            cov = new_cov;
            factors = new_factors;
            let converged = (logdet - new_logdet).abs() < config.tolerance;
            logdet = new_logdet;
            if converged {
                break;
            }
        }
        Ok((logdet, mean, cov, factors))
    }

    /// Train on `sample` (validated by the caller) exactly as the
    /// row-major implementation did.
    pub(super) fn train(config: &FastMcdConfig, pool: &Pool, sample: &[Vec<f64>]) -> Result<Fit> {
        let dim = crate::validate_sample(sample)?;
        let n = sample.len();
        let min_required = (dim + 2).max(4);
        if n < min_required {
            return Err(StatsError::InsufficientData {
                required: min_required,
                provided: n,
            });
        }
        let h = ((n as f64 * config.support_fraction).ceil() as usize)
            .max(dim + 1)
            .min(n);
        let starts: Vec<usize> = (0..config.num_starts.max(1)).collect();
        let results = pool.map_vec(starts, |start| {
            run_restart(config, pool, sample, dim, h, start)
        });
        let mut best: Option<(f64, Vec<f64>, Matrix, SpdFactors)> = None;
        let mut first_error: Option<StatsError> = None;
        for result in results {
            match result {
                Ok(fit) => {
                    if best.as_ref().map_or(true, |b| fit.0 < b.0) {
                        best = Some(fit);
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        let Some((_, mean, cov, factors)) = best else {
            return Err(first_error.unwrap_or(StatsError::SingularMatrix));
        };
        Ok(Fit {
            mean,
            inv: factors.inverse(),
            cov,
        })
    }

    /// The per-row scoring loop `score_batch_flat` used to run.
    pub(super) fn score_flat(fit: &Fit, flat: &[f64]) -> Vec<f64> {
        let dim = fit.mean.len();
        let mut centered = vec![0.0; dim];
        flat.chunks_exact(dim)
            .map(|row| {
                squared_distance(&fit.inv, &fit.mean, row, &mut centered)
                    .max(0.0)
                    .sqrt()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_ext::{normal, SplitMix64};

    fn gaussian_cloud(
        rng: &mut SplitMix64,
        n: usize,
        center: &[f64],
        std_dev: f64,
    ) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| center.iter().map(|&c| normal(rng, c, std_dev)).collect())
            .collect()
    }

    #[test]
    fn untrained_estimator_errors() {
        let est = McdEstimator::with_defaults();
        assert_eq!(est.score(&[1.0, 2.0]), Err(StatsError::NotTrained));
        assert!(!est.is_trained());
    }

    #[test]
    fn insufficient_data_is_rejected() {
        let mut est = McdEstimator::with_defaults();
        assert!(matches!(
            est.train(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn invalid_support_fraction_rejected() {
        let cfg = FastMcdConfig {
            support_fraction: 0.3,
            ..FastMcdConfig::default()
        };
        let mut est = McdEstimator::new(cfg);
        let mut rng = SplitMix64::new(1);
        let sample = gaussian_cloud(&mut rng, 100, &[0.0, 0.0], 1.0);
        assert!(matches!(
            est.train(&sample),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn recovers_gaussian_center() {
        let mut rng = SplitMix64::new(11);
        let sample = gaussian_cloud(&mut rng, 2000, &[5.0, -3.0], 2.0);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let loc = est.location().unwrap();
        assert!((loc[0] - 5.0).abs() < 0.5, "location[0] = {}", loc[0]);
        assert!((loc[1] + 3.0).abs() < 0.5, "location[1] = {}", loc[1]);
    }

    #[test]
    fn outliers_score_higher_than_inliers() {
        let mut rng = SplitMix64::new(21);
        let sample = gaussian_cloud(&mut rng, 1000, &[0.0, 0.0, 0.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let inlier_score = est.score(&[0.5, -0.5, 0.2]).unwrap();
        let outlier_score = est.score(&[20.0, 20.0, 20.0]).unwrap();
        assert!(outlier_score > 10.0 * inlier_score);
    }

    #[test]
    fn robust_to_forty_percent_contamination() {
        // The defining property of MCD (Figure 3): a 40% cluster of extreme
        // points must not drag the fitted center toward itself.
        let mut rng = SplitMix64::new(31);
        let mut sample = gaussian_cloud(&mut rng, 600, &[0.0, 0.0], 1.0);
        sample.extend(gaussian_cloud(&mut rng, 400, &[1000.0, 1000.0], 1.0));
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let loc = est.location().unwrap();
        assert!(loc[0].abs() < 5.0, "location dragged to {loc:?}");
        assert!(loc[1].abs() < 5.0, "location dragged to {loc:?}");
        // And the contaminating cluster still scores as extremely outlying.
        assert!(est.score(&[1000.0, 1000.0]).unwrap() > 50.0);
    }

    #[test]
    fn mahalanobis_of_center_is_zero() {
        let mut rng = SplitMix64::new(41);
        let sample = gaussian_cloud(&mut rng, 500, &[2.0, 2.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let loc: Vec<f64> = est.location().unwrap().to_vec();
        assert!(est.score(&loc).unwrap() < 1e-6);
    }

    #[test]
    fn score_batch_flat_is_bit_identical_to_row_scoring() {
        let mut rng = SplitMix64::new(61);
        let sample = gaussian_cloud(&mut rng, 400, &[1.0, -2.0, 0.5], 1.5);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let queries = gaussian_cloud(&mut rng, 257, &[0.0, 0.0, 0.0], 3.0);
        let flat: Vec<f64> = queries.iter().flatten().copied().collect();
        let flat_scores = est.score_batch_flat(&flat, 3).unwrap();
        assert_eq!(est.score_batch(&queries).unwrap(), flat_scores);
        let serial: Vec<f64> = queries.iter().map(|q| est.score(q).unwrap()).collect();
        assert_eq!(serial, flat_scores);
        assert!(matches!(
            est.score_batch_flat(&flat, 4),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_on_score() {
        let mut rng = SplitMix64::new(51);
        let sample = gaussian_cloud(&mut rng, 100, &[0.0, 0.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        assert!(matches!(
            est.score(&[1.0, 2.0, 3.0]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn handles_degenerate_dimension_via_regularization() {
        // Third dimension is constant -> covariance singular without ridging.
        let mut rng = SplitMix64::new(61);
        let sample: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0), 7.0])
            .collect();
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        assert!(est.score(&[0.0, 0.0, 7.0]).unwrap().is_finite());
        assert!(est.score(&[10.0, 10.0, 7.0]).unwrap() > 1.0);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let mut rng = SplitMix64::new(71);
        let sample = gaussian_cloud(&mut rng, 300, &[1.0, 2.0], 1.5);
        let mut a = McdEstimator::with_defaults();
        let mut b = McdEstimator::with_defaults();
        a.train(&sample).unwrap();
        b.train(&sample).unwrap();
        assert_eq!(a.location().unwrap(), b.location().unwrap());
        assert_eq!(
            a.score(&[3.0, 3.0]).unwrap(),
            b.score(&[3.0, 3.0]).unwrap()
        );
    }

    #[test]
    fn batch_distances_match_single_point_scoring() {
        // The batch pass must agree with per-point scoring even when the
        // sample is large enough for the parallel path to engage.
        let mut rng = SplitMix64::new(91);
        let sample = gaussian_cloud(&mut rng, 1_000, &[1.0, -1.0, 0.5], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let rows = gaussian_cloud(&mut rng, 10_000, &[1.0, -1.0, 0.5], 3.0);
        let batch = est.squared_mahalanobis_batch(&rows).unwrap();
        assert_eq!(batch.len(), rows.len());
        for (row, &d2) in rows.iter().zip(batch.iter()) {
            assert_eq!(d2, est.squared_mahalanobis(row).unwrap());
        }
    }

    #[test]
    fn batch_distances_validate_training_and_dimensions() {
        let untrained = McdEstimator::with_defaults();
        assert_eq!(
            untrained.squared_mahalanobis_batch(&[vec![0.0]]),
            Err(StatsError::NotTrained)
        );
        let mut rng = SplitMix64::new(92);
        let sample = gaussian_cloud(&mut rng, 200, &[0.0, 0.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        assert!(matches!(
            est.squared_mahalanobis_batch(&[vec![1.0, 2.0, 3.0]]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn training_is_identical_above_the_parallel_threshold() {
        // 6_000 rows puts every C-step's distance pass on the pool; the fit
        // must be bit-identical to what the serial path produced (same
        // arithmetic per row, same sort input).
        let mut rng = SplitMix64::new(93);
        let sample = gaussian_cloud(&mut rng, 6_000, &[3.0, -2.0], 1.5);
        let mut a = McdEstimator::with_defaults();
        let mut b = McdEstimator::with_defaults();
        a.train(&sample).unwrap();
        b.train(&sample).unwrap();
        assert_eq!(a.location().unwrap(), b.location().unwrap());
        assert_eq!(a.score(&[5.0, 5.0]).unwrap(), b.score(&[5.0, 5.0]).unwrap());
    }

    #[test]
    fn trains_on_small_scaled_data() {
        // Covariance entries of 1e-7-unit data are ~1e-14: the old absolute
        // pivot threshold misreported them as singular, so the ridge loop
        // swamped the real covariance with a 1e-9 ridge and scores went
        // flat. With the scale-relative threshold the fit is correct and a
        // 10-sigma point scores like one.
        let mut rng = SplitMix64::new(101);
        let sample: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![normal(&mut rng, 0.0, 1e-7), normal(&mut rng, 0.0, 1e-7)])
            .collect();
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let center: Vec<f64> = est.location().unwrap().to_vec();
        assert!(est.score(&center).unwrap() < 1e-3);
        let ten_sigma = est.score(&[1e-6, -1e-6]).unwrap();
        assert!(ten_sigma > 5.0, "10-sigma point scored only {ten_sigma}");
    }

    #[test]
    fn c_step_rejects_nan_distances() {
        // A NaN in the inverse scatter poisons every distance; the C-step
        // must surface that as an error instead of sorting NaNs into an
        // encounter-order-dependent subset.
        let pool = mb_pool::Pool::new(1);
        let sample = [0.0, 1.0, 2.0, 3.0];
        let inv = Matrix::from_vec(1, 1, vec![f64::NAN]);
        let mut keys = Vec::new();
        assert_eq!(
            McdEstimator::c_step(&pool, &sample, &[0.0], &inv, 2, &mut keys),
            Err(StatsError::NonFinite)
        );
    }

    #[test]
    fn selection_keys_order_like_total_cmp_then_row() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1.0,
            3.5e10,
            f64::MAX,
            f64::INFINITY,
        ];
        let pairs: Vec<(f64, usize)> = values.iter().rev().copied().zip(0..).collect();
        for a in &pairs {
            for b in &pairs {
                assert_eq!(
                    selection_key(a.1, a.0).cmp(&selection_key(b.1, b.0)),
                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)),
                    "{a:?} vs {b:?}"
                );
            }
            assert!(!is_nan_key(selection_key(a.1, a.0)));
            assert_eq!(selection_key(a.1, a.0) as u64 as usize, a.1);
        }
        for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001)] {
            assert!(is_nan_key(selection_key(3, nan)));
        }
    }

    #[test]
    fn failed_restarts_are_skipped_not_fatal() {
        // 40% of the sample sits at ±1e160: any elemental start touching
        // one of those points overflows its covariance to infinity and the
        // restart fails. Training must skip such restarts and fit from the
        // clean ones.
        let mut rng = SplitMix64::new(77);
        let mut sample = gaussian_cloud(&mut rng, 120, &[0.0], 1.0);
        for i in 0..80 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            sample.push(vec![sign * 1e160]);
        }
        let config = FastMcdConfig {
            num_starts: 8,
            ..FastMcdConfig::default()
        };
        // Pin the mixed outcome this sample is built to produce: some
        // restarts fail (their elemental start hits an overflow point),
        // some succeed — exercising the skip-and-merge path for real.
        let n = sample.len();
        let dim = 1;
        let h = ((n as f64 * config.support_fraction).ceil() as usize)
            .max(dim + 1)
            .min(n);
        let pool = mb_pool::Pool::new(2);
        let flat = sample.concat();
        let outcomes: Vec<bool> = (0..config.num_starts)
            .map(|start| McdEstimator::run_restart(&config, &pool, &flat, dim, h, start).is_ok())
            .collect();
        assert!(
            outcomes.iter().any(|&ok| ok) && outcomes.iter().any(|&ok| !ok),
            "sample should produce both failed and successful restarts, got {outcomes:?}"
        );
        let mut est = McdEstimator::new(config);
        est.train(&sample).unwrap();
        let loc = est.location().unwrap();
        assert!(loc[0].abs() < 2.0, "location dragged to {loc:?}");
    }

    #[test]
    fn training_errors_only_when_every_restart_fails() {
        // Every pair of these points is ~1e160 apart, so every subset's
        // covariance overflows to infinity, every restart fails, and the
        // first restart error is surfaced.
        let sample: Vec<Vec<f64>> = (0..40).map(|i| vec![(i + 1) as f64 * 1e160]).collect();
        let mut est = McdEstimator::with_defaults();
        assert_eq!(est.train(&sample), Err(StatsError::SingularMatrix));
        assert!(!est.is_trained());
    }

    #[test]
    fn score_batch_matches_per_row_scoring_exactly() {
        let mut rng = SplitMix64::new(83);
        let sample = gaussian_cloud(&mut rng, 800, &[0.0, 1.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        let rows = gaussian_cloud(&mut rng, 3_000, &[0.0, 1.0], 2.0);
        let batch = est.score_batch(&rows).unwrap();
        for (row, &s) in rows.iter().zip(batch.iter()) {
            assert_eq!(s, est.score(row).unwrap());
        }
    }

    #[test]
    fn explicit_pools_reproduce_global_pool_training_bitwise() {
        // 6_000 rows puts every C-step's distance pass over the parallel
        // grain; restarts also scatter. The fit must be a pure function of
        // (sample, config): one worker, four workers, and the global pool
        // must agree to the bit.
        let mut rng = SplitMix64::new(97);
        let sample = gaussian_cloud(&mut rng, 6_000, &[3.0, -2.0], 1.5);
        let mut serial = McdEstimator::with_defaults();
        let mut wide = McdEstimator::with_defaults();
        let mut global = McdEstimator::with_defaults();
        serial
            .train_on_pool(&mb_pool::Pool::new(1), &sample)
            .unwrap();
        wide.train_on_pool(&mb_pool::Pool::new(4), &sample).unwrap();
        global.train(&sample).unwrap();
        assert_eq!(serial.location().unwrap(), wide.location().unwrap());
        assert_eq!(serial.location().unwrap(), global.location().unwrap());
        assert_eq!(serial.scatter().unwrap(), wide.scatter().unwrap());
        assert_eq!(serial.scatter().unwrap(), global.scatter().unwrap());
        assert_eq!(
            serial.score(&[5.0, 5.0]).unwrap(),
            wide.score(&[5.0, 5.0]).unwrap()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        // Parallel-restart training is bit-identical to serial for any
        // seed and dimension: location, scatter, and scores all match
        // between a one-worker pool and a multi-worker pool.
        #[test]
        fn parallel_restart_training_is_bit_identical_to_serial(
            seed in 0u64..1_000,
            dim in 1usize..4,
        ) {
            let mut rng = SplitMix64::new(seed.wrapping_add(0x5EED));
            let center: Vec<f64> = (0..dim).map(|i| i as f64 - 1.0).collect();
            let sample = gaussian_cloud(&mut rng, 150, &center, 1.5);
            let mut serial = McdEstimator::with_defaults();
            let mut parallel = McdEstimator::with_defaults();
            serial.train_on_pool(&mb_pool::Pool::new(1), &sample).unwrap();
            parallel.train_on_pool(&mb_pool::Pool::new(3), &sample).unwrap();
            proptest::prop_assert_eq!(serial.location().unwrap(), parallel.location().unwrap());
            proptest::prop_assert_eq!(serial.scatter().unwrap(), parallel.scatter().unwrap());
            let probe: Vec<f64> = vec![2.5; dim];
            proptest::prop_assert_eq!(
                serial.score(&probe).unwrap(),
                parallel.score(&probe).unwrap()
            );
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Train on `sample` with the flat path (on `pool`, and through
    /// `train_flat` on the global pool) and with the row-major reference,
    /// and require equal outcomes: the same error, or the same location,
    /// scatter, inverse scatter and scores, to the bit.
    fn assert_matches_reference(pool: &Pool, sample: &[Vec<f64>]) {
        let config = FastMcdConfig::default();
        let reference = reference::train(&config, pool, sample);
        let flat = sample.concat();
        let dim = sample[0].len();
        let mut on_pool = McdEstimator::new(config.clone());
        let mut columnar = McdEstimator::new(config.clone());
        let trained = [
            on_pool.train_on_pool(pool, sample),
            columnar.train_flat(&flat, dim),
        ];
        let fit = match reference {
            Ok(fit) => fit,
            Err(e) => {
                assert_eq!(trained, [Err(e.clone()), Err(e)]);
                return;
            }
        };
        assert_eq!(trained, [Ok(()), Ok(())]);
        // Score the training rows plus a few probes off the bulk, so both
        // full blocks and a short tail reach the kernel.
        let mut queries = flat.clone();
        queries.extend((0..3 * dim).map(|i| (i as f64 - 4.0) * 1.7));
        let expected = reference::score_flat(&fit, &queries);
        for est in [&on_pool, &columnar] {
            assert_eq!(bits(est.location().unwrap()), bits(&fit.mean));
            assert_eq!(
                bits(est.scatter().unwrap().as_slice()),
                bits(fit.cov.as_slice())
            );
            assert_eq!(
                bits(est.inverse_scatter().unwrap().as_slice()),
                bits(fit.inv.as_slice())
            );
            assert_eq!(
                bits(&est.score_batch_flat(&queries, dim).unwrap()),
                bits(&expected)
            );
            let single: Vec<f64> = queries
                .chunks_exact(dim)
                .map(|row| est.score(row).unwrap())
                .collect();
            assert_eq!(bits(&single), bits(&expected));
        }
    }

    /// Sample shapes for the bit-identity tests, combined as bit flags.
    /// Duplicated rows tie exactly on d² (the row-index tie-break).
    const DUPLICATES: u8 = 1;
    /// A constant last column: a singular covariance (the ridge loop).
    const CONSTANT: u8 = 2;
    /// Small integer values: rows that mirror each other around an exactly
    /// representable location tie on d² although they differ.
    const LATTICE: u8 = 4;

    /// A Gaussian sample of `n` rows in the given `shape`.
    fn tie_prone_sample(seed: u64, n: usize, dim: usize, shape: u8) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(seed);
        let center: Vec<f64> = (0..dim).map(|i| i as f64 * 0.5 - 1.0).collect();
        let mut sample = gaussian_cloud(&mut rng, n, &center, 1.5);
        if shape & LATTICE != 0 {
            sample.iter_mut().flatten().for_each(|v| *v = v.round());
        }
        if shape & DUPLICATES != 0 {
            for i in (n / 2..n).step_by(2) {
                sample[i] = sample[i - n / 2].clone();
            }
        }
        if shape & CONSTANT != 0 {
            for row in &mut sample {
                row[dim - 1] = 7.0;
            }
        }
        sample
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        // The flat, selection-based, row-blocked FastMCD reproduces the
        // row-major, stable-sort formulation bit for bit: every dimension
        // 1..=8, every row count modulo the kernel's block of four, every
        // combination of duplicated rows, a constant column and lattice
        // values, on one and three workers.
        #[test]
        fn flat_training_is_bit_identical_to_the_row_major_reference(
            seed in 0u64..10_000,
            dim in 1usize..9,
            blocks in 3usize..60,
            tail in 0usize..4,
            shape in 0u8..8,
        ) {
            let sample = tie_prone_sample(seed, 4 * blocks + tail, dim, shape);
            assert_matches_reference(&Pool::new(1), &sample);
            assert_matches_reference(&Pool::new(3), &sample);
        }
    }

    #[test]
    fn flat_training_matches_the_reference_across_parallel_chunks() {
        // Above `DISTANCE_GRAIN` the distance pass splits into chunks whose
        // lengths are not multiples of the block size; every row count
        // modulo four must still reproduce the reference.
        for (n, shape) in [
            (6_000, DUPLICATES),
            (6_001, CONSTANT | LATTICE),
            (4_102, DUPLICATES | CONSTANT),
            (4_099, LATTICE),
        ] {
            let sample = tie_prone_sample(n as u64, n, 3, shape);
            assert_matches_reference(&Pool::new(3), &sample);
        }
    }

    #[test]
    fn distance_ties_between_distinct_rows_break_by_row_index() {
        // Samples symmetric about the origin in integer steps: once a fit
        // centres on the origin exactly, a row and its mirror image tie on
        // d², and which of them makes the `h` cut decides the next fit. The
        // order of the mirrors alternates, so neither sign wins every tie.
        let line: Vec<Vec<f64>> = std::iter::once(vec![0.0])
            .chain((1..=20).flat_map(|k| {
                let k = f64::from(k);
                let sign = if k % 2.0 == 0.0 { 1.0 } else { -1.0 };
                [vec![sign * k], vec![-sign * k]]
            }))
            .collect();
        let cross: Vec<Vec<f64>> = (1..=10)
            .flat_map(|k| {
                let k = f64::from(k);
                [vec![k, 0.0], vec![0.0, -k], vec![-k, 0.0], vec![0.0, k]]
            })
            .collect();
        // Centred on the origin, the cut at h = 20 falls between a mirror
        // pair (±10): the C-step must keep the stable sort's choice, the
        // lower row index, and its order.
        let flat = line.concat();
        let mut keys = Vec::new();
        let selected = McdEstimator::c_step(
            &Pool::new(1),
            &flat,
            &[0.0],
            &Matrix::identity(1),
            20,
            &mut keys,
        )
        .unwrap();
        let mut stable: Vec<(f64, usize)> = flat.iter().map(|x| x * x).zip(0..).collect();
        stable.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expected: Vec<usize> = stable[..20].iter().map(|&(_, row)| row).collect();
        assert_eq!(selected, expected);
        for sample in [line, cross] {
            assert_matches_reference(&Pool::new(1), &sample);
            assert_matches_reference(&Pool::new(3), &sample);
        }
    }

    /// An MCD estimator without its own `train_flat`: the trait default
    /// (materialize rows, then `train`) is the contract the columnar fit
    /// must keep.
    struct RowsOnly(McdEstimator);

    impl Estimator for RowsOnly {
        fn train(&mut self, sample: &[Vec<f64>]) -> Result<()> {
            self.0.train(sample)
        }
        fn score(&self, metrics: &[f64]) -> Result<f64> {
            self.0.score(metrics)
        }
        fn dimension(&self) -> Option<usize> {
            self.0.dimension()
        }
    }

    #[test]
    fn flat_training_reports_the_row_path_errors() {
        let mut rng = SplitMix64::new(5);
        let good: Vec<f64> = gaussian_cloud(&mut rng, 40, &[0.0, 0.0], 1.0).concat();
        let with = |at: usize, value: f64| {
            let mut flat = good.clone();
            flat[at] = value;
            flat
        };
        let narrow = FastMcdConfig {
            support_fraction: 0.3,
            ..FastMcdConfig::default()
        };
        let cases: Vec<(&str, Vec<f64>, usize, FastMcdConfig, StatsError)> = vec![
            (
                "empty buffer",
                vec![],
                2,
                FastMcdConfig::default(),
                StatsError::EmptyInput,
            ),
            (
                "zero dimension",
                good.clone(),
                0,
                FastMcdConfig::default(),
                StatsError::EmptyInput,
            ),
            (
                "ragged length",
                good[..7].to_vec(),
                2,
                FastMcdConfig::default(),
                StatsError::DimensionMismatch {
                    expected: 2,
                    actual: 1,
                },
            ),
            (
                "NaN",
                with(31, f64::NAN),
                2,
                FastMcdConfig::default(),
                StatsError::NonFinite,
            ),
            (
                "+inf",
                with(0, f64::INFINITY),
                2,
                FastMcdConfig::default(),
                StatsError::NonFinite,
            ),
            (
                "-inf",
                with(79, f64::NEG_INFINITY),
                2,
                FastMcdConfig::default(),
                StatsError::NonFinite,
            ),
            (
                "too few rows",
                good[..6].to_vec(),
                2,
                FastMcdConfig::default(),
                StatsError::InsufficientData {
                    required: 4,
                    provided: 3,
                },
            ),
            (
                "support fraction",
                good.clone(),
                2,
                narrow,
                StatsError::InvalidParameter(
                    "support_fraction must be in [0.5, 1.0], got 0.3".to_string(),
                ),
            ),
        ];
        for (name, flat, dim, config, expected) in cases {
            let rows: Vec<Vec<f64>> = if dim == 0 {
                vec![Vec::new()]
            } else {
                flat.chunks(dim).map(<[f64]>::to_vec).collect()
            };
            let mut columnar = McdEstimator::new(config.clone());
            let mut row_major = McdEstimator::new(config.clone());
            let mut default_flat = RowsOnly(McdEstimator::new(config));
            let outcomes = [
                columnar.train_flat(&flat, dim),
                row_major.train(&rows),
                default_flat.train_flat(&flat, dim),
            ];
            assert_eq!(
                outcomes,
                [Err(expected.clone()), Err(expected.clone()), Err(expected)],
                "{name}"
            );
            assert!(!columnar.is_trained(), "{name}");
        }
    }

    #[test]
    fn univariate_mcd_works() {
        let mut rng = SplitMix64::new(81);
        let sample: Vec<Vec<f64>> = (0..400).map(|_| vec![normal(&mut rng, 10.0, 2.0)]).collect();
        let mut est = McdEstimator::with_defaults();
        est.train(&sample).unwrap();
        assert!(est.score(&[10.0]).unwrap() < est.score(&[40.0]).unwrap());
    }
}
