//! Parameter sweeps: the experiment driver behind Figures 7–10.
//!
//! A sweep runs a set of protocols over one scenario trace for every requested
//! accuracy in the paper's range (20–500 m for cars, 20–250 m for the walking
//! person) and reports updates per hour, absolute and relative to the
//! distance-based baseline — exactly the two panels of each figure.
//!
//! Runs are independent, so they execute in parallel on std scoped
//! threads; the shared map, spatial index and trace are only read.

use crate::metrics::RunMetrics;
use crate::protocols::{ProtocolContext, ProtocolKind};
use crate::runner::{run_protocol, RunConfig};
use mbdr_trace::ScenarioData;

/// One (protocol, requested accuracy) measurement of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Protocol that was run.
    pub protocol: ProtocolKind,
    /// Requested accuracy `u_s`, metres.
    pub requested_accuracy: f64,
    /// Full metrics of the run.
    pub metrics: RunMetrics,
    /// Updates per hour relative to the distance-based baseline at the same
    /// accuracy, in percent (the right-hand panels of Figs. 7–10). `None` if
    /// the baseline was not part of the sweep or sent no updates.
    pub relative_to_baseline_pct: Option<f64>,
}

/// The result of sweeping one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Scenario name (Table 1 row label).
    pub scenario: String,
    /// The accuracies swept, metres.
    pub accuracies: Vec<f64>,
    /// All measurements.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The measurement for a given protocol and accuracy, if present.
    pub fn point(&self, protocol: ProtocolKind, accuracy: f64) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| p.protocol == protocol && (p.requested_accuracy - accuracy).abs() < 1e-9)
    }

    /// Maximum reduction (in percent) of the given protocol's update rate
    /// relative to another protocol across the sweep — the statistic behind
    /// claims like "reduces the number of updates by up to 83 %".
    pub fn max_reduction_pct(&self, of: ProtocolKind, versus: ProtocolKind) -> Option<f64> {
        let mut best: Option<f64> = None;
        for &a in &self.accuracies {
            let (Some(p), Some(q)) = (self.point(of, a), self.point(versus, a)) else { continue };
            let (r_of, r_vs) = (p.metrics.updates_per_hour, q.metrics.updates_per_hour);
            if r_vs <= 0.0 {
                continue;
            }
            let reduction = (1.0 - r_of / r_vs) * 100.0;
            best = Some(best.map_or(reduction, |b: f64| b.max(reduction)));
        }
        best
    }
}

/// Runs the sweep: every protocol at every accuracy, in parallel.
pub fn sweep_scenario(
    data: &ScenarioData,
    protocols: &[ProtocolKind],
    accuracies: &[f64],
    run_config: RunConfig,
) -> SweepResult {
    let ctx = ProtocolContext::for_scenario(data);
    let mut jobs: Vec<(ProtocolKind, f64)> = Vec::new();
    for &p in protocols {
        for &a in accuracies {
            jobs.push((p, a));
        }
    }

    // Parallel fan-out over independent (protocol, accuracy) runs.
    let mut outcomes: Vec<Option<(ProtocolKind, f64, RunMetrics)>> = Vec::new();
    outcomes.resize_with(jobs.len(), || None);
    let workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for (chunk_jobs, chunk_out) in jobs
            .chunks(jobs.len().div_ceil(workers))
            .zip(outcomes.chunks_mut(jobs.len().div_ceil(workers)))
        {
            let ctx = &ctx;
            let data = &data;
            scope.spawn(move || {
                for ((kind, accuracy), slot) in chunk_jobs.iter().zip(chunk_out.iter_mut()) {
                    let protocol = kind.build(ctx, *accuracy);
                    let outcome = run_protocol(&data.trace, protocol, run_config);
                    *slot = Some((*kind, *accuracy, outcome.metrics));
                }
            });
        }
    });

    // Relative rates against the distance-based baseline.
    let flat: Vec<(ProtocolKind, f64, RunMetrics)> =
        outcomes.into_iter().map(|o| o.expect("every job ran")).collect();
    let baseline_rate = |accuracy: f64| -> Option<f64> {
        flat.iter()
            .find(|(k, a, _)| *k == ProtocolKind::DistanceBased && (*a - accuracy).abs() < 1e-9)
            .map(|(_, _, m)| m.updates_per_hour)
    };
    let points = flat
        .iter()
        .map(|(kind, accuracy, metrics)| {
            let relative = baseline_rate(*accuracy).and_then(|b| {
                if b > 0.0 {
                    Some(metrics.updates_per_hour / b * 100.0)
                } else {
                    None
                }
            });
            SweepPoint {
                protocol: *kind,
                requested_accuracy: *accuracy,
                metrics: metrics.clone(),
                relative_to_baseline_pct: relative,
            }
        })
        .collect();

    SweepResult {
        scenario: data.scenario.kind.name().to_string(),
        accuracies: accuracies.to_vec(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_trace::{Scenario, ScenarioKind};

    #[test]
    fn sweep_covers_every_protocol_and_accuracy() {
        let data = Scenario { kind: ScenarioKind::Freeway, scale: 0.05, seed: 3 }.build();
        let accuracies = [50.0, 200.0];
        let result =
            sweep_scenario(&data, &ProtocolKind::PAPER_SET, &accuracies, RunConfig::default());
        assert_eq!(result.points.len(), 6);
        assert!(result.point(ProtocolKind::MapBased, 50.0).is_some());
        assert!(result.point(ProtocolKind::MapBased, 75.0).is_none());
        assert_eq!(result.scenario, "car, freeway");
    }

    #[test]
    fn dead_reckoning_beats_the_baseline_and_rates_fall_with_accuracy() {
        let data = Scenario { kind: ScenarioKind::Freeway, scale: 0.08, seed: 4 }.build();
        let accuracies = [50.0, 250.0];
        let result =
            sweep_scenario(&data, &ProtocolKind::PAPER_SET, &accuracies, RunConfig::default());
        for &a in &accuracies {
            let base = result.point(ProtocolKind::DistanceBased, a).unwrap();
            let linear = result.point(ProtocolKind::Linear, a).unwrap();
            let map = result.point(ProtocolKind::MapBased, a).unwrap();
            assert!(
                linear.metrics.updates_per_hour <= base.metrics.updates_per_hour,
                "at {a} m linear must not exceed the baseline"
            );
            assert!(
                map.metrics.updates_per_hour <= linear.metrics.updates_per_hour * 1.1,
                "at {a} m map-based should be at least on par with linear"
            );
            // Relative percentages are populated and sensible.
            assert!(base.relative_to_baseline_pct.unwrap() > 99.0);
            assert!(linear.relative_to_baseline_pct.unwrap() <= 100.0);
        }
        // Looser accuracy ⇒ fewer updates for the baseline.
        let tight = result.point(ProtocolKind::DistanceBased, 50.0).unwrap();
        let loose = result.point(ProtocolKind::DistanceBased, 250.0).unwrap();
        assert!(loose.metrics.updates_per_hour < tight.metrics.updates_per_hour);
        // The headline statistic is computable.
        let reduction = result.max_reduction_pct(ProtocolKind::Linear, ProtocolKind::DistanceBased);
        assert!(reduction.unwrap() > 0.0);
    }
}
