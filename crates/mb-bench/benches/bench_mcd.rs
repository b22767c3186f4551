//! Criterion micro-benchmarks for the robust estimators: FastMCD training
//! versus metric dimensionality (Figure 10), MAD training versus sample
//! size (Figure 9), and the two halves of a C-step — the Mahalanobis
//! distance pass (which fans out on the mb-pool work-stealing pool for
//! large samples) and the selection of the `h` nearest rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mb_stats::mad::MadEstimator;
use mb_stats::matrix::{covariance_matrix, Matrix, SpdFactors};
use mb_stats::mcd::{FastMcdConfig, McdEstimator};
use mb_stats::rand_ext::{normal, SplitMix64};
use mb_stats::Estimator;

fn mcd_train_by_dimension(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcd_train_by_dimension");
    group.sample_size(10);
    for &dim in &[2usize, 8, 32] {
        let mut rng = SplitMix64::new(dim as u64);
        let sample: Vec<Vec<f64>> = (0..2_000)
            .map(|_| (0..dim).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &sample, |b, sample| {
            b.iter(|| {
                let mut est = McdEstimator::with_defaults();
                est.train(sample).expect("train failed");
                est.score(&sample[0]).unwrap()
            })
        });
    }
    group.finish();
}

/// One C-step costs a full Mahalanobis-distance pass over the sample plus a
/// selection; the pass is what `mb_pool::parallel_for` scatters. Both
/// cases run the C-step's row-blocked kernel per row count, so pool-size
/// changes (`--threads` on the harness binaries, thread count in CI) have
/// a number to move: `squared_mahalanobis_batch` takes row vectors (and
/// flattens them first), `flat` scores the row-major buffer training
/// works on (plus a clamp-and-sqrt per row).
fn mcd_c_step_distance_pass(c: &mut Criterion) {
    let dim = 8;
    let mut rng = SplitMix64::new(17);
    let train: Vec<Vec<f64>> = (0..2_000)
        .map(|_| (0..dim).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
        .collect();
    let mut est = McdEstimator::with_defaults();
    est.train(&train).expect("train failed");

    let mut group = c.benchmark_group("mcd_c_step_distance_pass");
    group.sample_size(10);
    for &rows in &[10_000usize, 100_000] {
        let sample: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..dim).map(|_| normal(&mut rng, 0.0, 2.0)).collect())
            .collect();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &sample, |b, sample| {
            b.iter(|| est.squared_mahalanobis_batch(sample).expect("distance pass failed"))
        });
        let flat: Vec<f64> = sample.concat();
        group.bench_with_input(BenchmarkId::new("flat", rows), &flat, |b, flat| {
            b.iter(|| {
                est.score_batch_flat(flat, dim)
                    .expect("distance pass failed")
            })
        });
    }
    group.finish();
}

/// The other half of a C-step: picking the `h` smallest `(d², row)` pairs
/// in ascending order. `stable_sort` is a full stable sort by `d²`;
/// `select_prefix_sort` partitions the `h` smallest to the front, then
/// sorts only them, keyed on `(d², row index)` so the prefix is exactly
/// the stable sort's; `select_prefix_sort_packed` is the same selection on
/// the key packed into one `u128` (total-order bits of `d²` high, row
/// index low), which is what `mcd.rs` runs. All three include copying the
/// pass output, as the C-step reuses its buffer.
fn mcd_c_step_select(c: &mut Criterion) {
    let (n, h) = (10_000usize, 5_000usize);
    let mut rng = SplitMix64::new(29);
    // Chi-square-like distances, one per row in row order, as the pass
    // emits them.
    let distances: Vec<(f64, usize)> = (0..n)
        .map(|row| (normal(&mut rng, 0.0, 1.0).powi(2), row))
        .collect();
    let by_key = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let mut group = c.benchmark_group("mcd_c_step_select");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    let mut scratch = distances.clone();
    group.bench_with_input(
        BenchmarkId::new("stable_sort", n),
        &distances,
        |b, distances| {
            b.iter(|| {
                scratch.copy_from_slice(distances);
                scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
                scratch[h - 1].1
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("select_prefix_sort", n),
        &distances,
        |b, distances| {
            b.iter(|| {
                scratch.copy_from_slice(distances);
                scratch.select_nth_unstable_by(h - 1, by_key);
                scratch[..h].sort_unstable_by(by_key);
                scratch[h - 1].1
            })
        },
    );
    // `f64::total_cmp` order as unsigned integer order: flip the magnitude
    // bits of negatives, then the sign bit.
    let packed: Vec<u128> = distances
        .iter()
        .map(|&(d2, row)| {
            let bits = d2.to_bits();
            let ordered = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63);
            (u128::from(ordered) << 64) | row as u128
        })
        .collect();
    let mut packed_scratch = packed.clone();
    group.bench_with_input(
        BenchmarkId::new("select_prefix_sort_packed", n),
        &packed,
        |b, packed| {
            b.iter(|| {
                packed_scratch.copy_from_slice(packed);
                packed_scratch.select_nth_unstable(h - 1);
                packed_scratch[..h].sort_unstable();
                packed_scratch[h - 1] as u64
            })
        },
    );
    group.finish();
}

/// A single-start, single-C-step training run: initial elemental fit plus
/// one select-and-refit — the unit of work `max_iterations` multiplies.
fn mcd_single_c_step_train(c: &mut Criterion) {
    let dim = 8;
    let mut rng = SplitMix64::new(19);
    let sample: Vec<Vec<f64>> = (0..20_000)
        .map(|_| (0..dim).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
        .collect();
    let mut group = c.benchmark_group("mcd_single_c_step_train");
    group.sample_size(10);
    group.throughput(Throughput::Elements(sample.len() as u64));
    group.bench_function("20000x8", |b| {
        b.iter(|| {
            let mut est = McdEstimator::new(FastMcdConfig {
                num_starts: 1,
                max_iterations: 1,
                ..FastMcdConfig::default()
            });
            est.train(&sample).expect("train failed");
            est.location().unwrap()[0]
        })
    });
    group.finish();
}

/// The linear-algebra cost of one C-step, before and after the factor-once
/// refactor. `inverse_plus_logdet` is the migrated-away pattern — two
/// independent [`Matrix`] calls, each running its own LU decomposition
/// (and, before this refactor, `inverse()` re-decomposed per *column*:
/// O(d⁴)). `factor_once` is what `mcd.rs` does now: one [`SpdFactors`]
/// factorization (Cholesky for the SPD covariance) yielding both products.
fn mcd_inverse_vs_factors(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcd_inverse_vs_factors");
    group.sample_size(10);
    for &dim in &[8usize, 16, 32] {
        let mut rng = SplitMix64::new(dim as u64 + 5);
        let rows: Vec<Vec<f64>> = (0..4 * dim)
            .map(|_| (0..dim).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
            .collect();
        let (_, cov) = covariance_matrix(&rows).expect("covariance failed");
        group.bench_with_input(
            BenchmarkId::new("inverse_plus_logdet", dim),
            &cov,
            |b, cov: &Matrix| {
                b.iter(|| {
                    let inv = cov.inverse().expect("inverse failed");
                    let logdet = cov.log_abs_determinant().expect("logdet failed");
                    inv[(0, 0)] + logdet
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("factor_once", dim),
            &cov,
            |b, cov: &Matrix| {
                b.iter(|| {
                    let factors = SpdFactors::factor(cov).expect("factor failed");
                    let inv = factors.inverse();
                    inv[(0, 0)] + factors.log_abs_determinant()
                })
            },
        );
    }
    group.finish();
}

/// Full FastMCD training with its restarts scattered on an explicit pool:
/// one worker (the serial reference) versus four. Restart tasks nest their
/// C-step distance passes on the same pool; results are bit-identical, so
/// this measures pure scheduling — on a multi-core box the 4-worker run
/// approaches `min(num_starts, workers)`-way speedup, on a 1-core CI box
/// it shows the (small) scatter overhead.
fn mcd_parallel_restarts(c: &mut Criterion) {
    let dim = 8;
    let mut rng = SplitMix64::new(23);
    let sample: Vec<Vec<f64>> = (0..20_000)
        .map(|_| (0..dim).map(|_| normal(&mut rng, 0.0, 1.0)).collect())
        .collect();
    let config = FastMcdConfig {
        num_starts: 8,
        max_iterations: 2,
        ..FastMcdConfig::default()
    };
    let mut group = c.benchmark_group("mcd_parallel_restarts");
    group.sample_size(10);
    group.throughput(Throughput::Elements(sample.len() as u64));
    for &threads in &[1usize, 4] {
        let pool = mb_pool::Pool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("workers", threads),
            &sample,
            |b, sample| {
                b.iter(|| {
                    let mut est = McdEstimator::new(config.clone());
                    est.train_on_pool(&pool, sample).expect("train failed");
                    est.location().unwrap()[0]
                })
            },
        );
    }
    group.finish();
}

fn mad_train_by_sample_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("mad_train_by_sample_size");
    group.sample_size(10);
    let mut rng = SplitMix64::new(9);
    let full: Vec<f64> = (0..100_000).map(|_| normal(&mut rng, 10.0, 10.0)).collect();
    for &size in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let mut est = MadEstimator::new();
                est.train_univariate(&full[..size]).expect("train failed");
                est.score_value(42.0).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    mcd_train_by_dimension,
    mcd_c_step_distance_pass,
    mcd_c_step_select,
    mcd_single_c_step_train,
    mcd_inverse_vs_factors,
    mcd_parallel_restarts,
    mad_train_by_sample_size
);
criterion_main!(benches);
