//! The million-object-scale baseline behind `reproduce scale`: the
//! [`mbdr_sim::scale_workload`] grid over N × {uniform, hotspot}, emitted as
//! JSON and gated against `baselines/BENCH_scale.json`.
//!
//! The committed baseline runs the CI-sized axis (N up to 10⁵ at
//! `--scale 1.0`). Result counts, occupancy diagnostics and the
//! candidate-dedup counters are single-threaded and seed-determined, so the
//! gate compares them strictly; wall clocks and throughputs ride along as
//! machine-dependent sanity checks.

use mbdr_sim::{run_scale_workload, ScaleConfig, ScaleReport};
use std::fmt::Write as _;

/// The N axis of the committed baseline (scaled by `--scale`, floored so a
/// smoke run still exercises a multi-cell, multi-shard fleet).
pub const SCALE_N_AXIS: [usize; 2] = [10_000, 100_000];

/// Runs the baseline grid: every N in [`SCALE_N_AXIS`] (multiplied by
/// `scale`) in uniform and hotspot mode.
pub fn scale_grid(scale: f64, seed: u64) -> Vec<ScaleReport> {
    let mut points = Vec::new();
    for &n in &SCALE_N_AXIS {
        let objects = ((n as f64 * scale).round() as usize).max(500);
        for hotspot in [false, true] {
            points.push(run_scale_workload(&ScaleConfig::standard(objects, hotspot, seed)));
        }
    }
    points
}

/// Renders the grid as one JSON document (schema `mbdr-scale/1`).
pub fn render_scale_json(scale: f64, seed: u64, points: &[ScaleReport]) -> String {
    let mut out = String::from("{\"schema\":\"mbdr-scale/1\"");
    let _ = write!(out, ",\"scale\":{scale},\"seed\":{seed},\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"objects\":{},\"hotspot\":{},\"updates_applied\":{},\
             \"ingest_wall_s\":{:.4},\"updates_per_sec\":{:.1},\
             \"rect_queries\":{},\"nearest_queries\":{},\
             \"rect_hits\":{},\"nearest_hits\":{},\
             \"rect_wall_s\":{:.4},\"nearest_wall_s\":{:.4},\
             \"rect_per_sec\":{:.1},\"nearest_per_sec\":{:.1},\
             \"indexed\":{},\"occupied_cells\":{},\"max_cell_occupancy\":{},\
             \"candidates_inspected\":{},\"candidates_unique\":{}}}",
            p.objects,
            p.hotspot,
            p.updates_applied,
            p.ingest_wall_s,
            p.updates_per_sec,
            p.rect_queries,
            p.nearest_queries,
            p.rect_hits,
            p.nearest_hits,
            p.rect_wall_s,
            p.nearest_wall_s,
            p.rect_per_sec,
            p.nearest_per_sec,
            p.indexed,
            p.occupied_cells,
            p.max_cell_occupancy,
            p.candidates_inspected,
            p.candidates_unique,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_renders_valid_deterministic_json() {
        let points = scale_grid(0.01, 7);
        assert_eq!(points.len(), 4, "two N points x two placement modes");
        assert!(points.iter().all(|p| p.indexed == p.objects));
        let json = render_scale_json(0.01, 7, &points);
        assert!(json.contains("\"schema\":\"mbdr-scale/1\""));
        assert!(json.contains("\"max_cell_occupancy\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let doc = crate::check::parse_json(&json).expect("scale JSON parses");
        let again = render_scale_json(0.01, 7, &scale_grid(0.01, 7));
        let report = crate::check::compare_baseline(
            &doc,
            &crate::check::parse_json(&again).expect("parses"),
        );
        assert!(report.passed(), "{:?}", report.mismatches);
    }
}
