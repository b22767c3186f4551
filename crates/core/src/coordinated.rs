//! Coordinated partitioned execution: the mergeable-state answer to the
//! naïve shared-nothing scale-out of Appendix D.
//!
//! [`Executor::NaivePartitioned`](crate::query::Executor) trades accuracy
//! for cores: every partition trains its own model, cuts its own threshold,
//! prunes by its own local support, and the partitions' *rendered*
//! explanations are unioned after the fact — so accuracy degrades as
//! partitions shrink (the Figure 11 trade-off). In the spirit of
//! coordination-avoiding execution,
//! [`Executor::Coordinated`](crate::query::Executor) keeps the
//! communication-free partition loop but reconciles through mergeable state
//! instead of rendered strings:
//!
//! 1. **One model** — the robust estimator is fitted once on the global
//!    batch (honoring the configured training-sample cap) and broadcast to
//!    partitions by reference; partitions score in parallel against it.
//!    The single fit is itself no longer serial: FastMCD scatters its
//!    training restarts as pool tasks with a deterministic
//!    best-of-restarts merge, so training scales with cores while the
//!    broadcast model stays a pure function of the batch and seed.
//! 2. **One threshold** — the percentile cutoff is computed over the merged
//!    score vector, not per partition.
//! 3. **Merged counts** — the explanation runs Algorithm 2 once over the
//!    outlier rows and scatters its two inlier counting passes over the
//!    partitions, which return candidate (then combination) count vectors
//!    that are summed
//!    ([`BatchExplainer::explain_labeled`](mb_explain::batch::BatchExplainer::explain_labeled));
//!    support/risk-ratio thresholds apply to the *merged* counts.
//!
//! The result is the one-shot report byte for byte — integer counts sum
//! exactly — for any partition count, while the scoring and counting
//! passes (the bulk of the work) still scale with cores. The engine lives in [`crate::executor`]; this module keeps the
//! deprecated free-function entry point.

use crate::query::{AnalysisConfig, Executor, MdpQuery};
use crate::types::{MdpReport, Point};
use crate::Result;

/// Execute `config` over `points` split into `num_partitions` partitions
/// with a shared trained model, a global score threshold, and merged
/// explanation counts (superseded by
/// [`MdpQuery::execute`](crate::query::MdpQuery::execute) with
/// [`Executor::Coordinated`](crate::query::Executor)). Produces exactly the
/// one-shot report for any partition count. Pass `0` for `num_partitions`
/// to use one partition per pool worker
/// ([`crate::parallel::default_num_partitions`]).
#[deprecated(
    since = "0.5.0",
    note = "use MdpQuery::execute with Executor::Coordinated { partitions }"
)]
pub fn run_coordinated(
    points: &[Point],
    num_partitions: usize,
    config: &AnalysisConfig,
) -> Result<MdpReport> {
    MdpQuery::new(config.clone()).execute(
        &Executor::Coordinated {
            partitions: num_partitions,
        },
        points,
    )
}

#[allow(deprecated)]
#[cfg(test)]
mod tests {
    use super::*;
    #[allow(deprecated)]
    use crate::oneshot::MdpOneShot;
    use mb_explain::ExplanationConfig;

    fn workload(n: usize) -> Vec<Point> {
        let mut points: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    vec![10.0 + (i % 9) as f64 * 0.2],
                    vec![format!("device_{}", i % 60)],
                )
            })
            .collect();
        for i in 0..(n / 100) {
            points[i * 100] = Point::new(vec![400.0], vec!["device_bad".to_string()]);
        }
        points
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            explanation: ExplanationConfig::new(0.01, 3.0),
            attribute_names: vec!["device_id".to_string()],
            ..AnalysisConfig::default()
        }
    }

    fn attribute_sets(report: &MdpReport) -> Vec<Vec<String>> {
        let mut sets: Vec<Vec<String>> = report
            .explanations
            .iter()
            .map(|e| {
                let mut attrs = e.attributes.clone();
                attrs.sort();
                attrs
            })
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn coordinated_reproduces_one_shot_for_any_partition_count() {
        let points = workload(20_000);
        let one_shot = MdpOneShot::new(config()).run(&points).unwrap();
        for num_partitions in [1, 2, 3, 4, 8] {
            let coordinated = run_coordinated(&points, num_partitions, &config()).unwrap();
            assert_eq!(coordinated.num_outliers, one_shot.num_outliers);
            assert_eq!(coordinated.score_cutoff, one_shot.score_cutoff);
            assert_eq!(
                attribute_sets(&coordinated),
                attribute_sets(&one_shot),
                "explanation sets diverged at {num_partitions} partitions"
            );
        }
    }

    #[test]
    fn coordinated_respects_skip_explanation_and_retain_scores() {
        let points = workload(5_000);
        let report = run_coordinated(
            &points,
            4,
            &AnalysisConfig {
                skip_explanation: true,
                retain_scores: true,
                ..config()
            },
        )
        .unwrap();
        assert!(report.explanations.is_empty());
        assert_eq!(report.scores.len(), 5_000);
        assert!(report.num_outliers > 0);
    }

    #[test]
    fn coordinated_rejects_empty_input() {
        assert!(run_coordinated(&[], 4, &config()).is_err());
    }

    #[test]
    fn zero_partitions_matches_explicit_partition_count() {
        // 0 = "one partition per core"; coordinated results are partition-
        // count-invariant, so auto must equal the single-partition report.
        let points = workload(5_000);
        let auto = run_coordinated(&points, 0, &config()).unwrap();
        let explicit = run_coordinated(&points, 1, &config()).unwrap();
        assert_eq!(auto.num_outliers, explicit.num_outliers);
        assert_eq!(auto.score_cutoff, explicit.score_cutoff);
        assert_eq!(attribute_sets(&auto), attribute_sets(&explicit));
    }

    #[test]
    fn more_partitions_than_points_still_works() {
        let points = workload(500);
        let report = run_coordinated(&points, 8, &config()).unwrap();
        assert_eq!(report.num_points, 500);
        assert!(report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))));
    }
}
