//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its kind: all of [`END_TO_END`] untraced,
//! all of [`PER_LAYER`] traced. A per-layer metric of a layer the workload
//! never calls reads 0. `BENCHMARK.json` declares exactly these names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A metric's name and unit.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics. Their meaning per workload is in `perfbench/README.md`.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("ops_per_s", "1/s"),
    def("latency_p50_ms", "ms"),
    def("latency_p99_ms", "ms"),
    def("wire_bytes_per_unit", "B"),
    def("ok_op_ratio", "ratio"),
    def("peak_rss_mb", "MiB"),
    def("cpu_us_per_op", "us"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[Def] = &[
    def("core.frame_encode_ns", "ns"),
    def("core.frame_validate_ns", "ns"),
    def("core.request_bytes_per_update", "B"),
    def("core.on_sighting_ns", "ns"),
    def("core.map_predict_ns", "ns"),
    def("core.updates_per_1k_fixes", "count"),
    def("mapmatch.update_ns", "ns"),
    def("mapmatch.matched_ratio", "ratio"),
    def("roadnet.nearest_link_ns", "ns"),
    def("locserver.apply_ns_per_update", "ns"),
    def("locserver.applied_ratio", "ratio"),
    def("locserver.write_locks_per_frame", "count"),
    def("locserver.rect_ns", "ns"),
    def("locserver.nearest_ns", "ns"),
    def("locserver.candidates_per_result", "count"),
    def("locserver.dedup_ratio", "ratio"),
    def("locserver.results_per_query", "count"),
    def("locserver.max_cell_occupancy", "count"),
    def("locserver.restore_ms", "ms"),
    def("journal.append_ns_per_frame", "ns"),
    def("journal.fsyncs_per_1k_frames", "count"),
    def("journal.snapshots", "count"),
    def("journal.bytes_per_user_byte", "ratio"),
    def("journal.open_ms", "ms"),
    def("journal.replay_ns_per_frame", "ns"),
    def("net.send_frame_ns", "ns"),
    def("net.flush_rtt_us", "us"),
    def("net.served_ingest_overhead_ns_per_update", "ns"),
    def("net.query_overhead_us", "us"),
    def("net.readiness_wakeups_per_request", "count"),
    def("net.spurious_wakeup_ratio", "ratio"),
    def("net.backpressure_stalls", "count"),
    def("net.response_bytes_per_query", "B"),
    def("net.connections_dropped", "count"),
    def("net.evicted_slow", "count"),
    def("gen.lateness_p99_ms", "ms"),
    def("gen.achieved_ratio", "ratio"),
    def("city.update_visible_p50_ms", "ms"),
    def("city.update_visible_p99_ms", "ms"),
    def("city.recovery_s", "s"),
    def("self.bench_ns", "ns"),
    def("self.core_ns", "ns"),
    def("self.mapmatch_ns", "ns"),
    def("self.roadnet_ns", "ns"),
    def("self.locserver_ns", "ns"),
    def("self.journal_ns", "ns"),
    def("self.net_ns", "ns"),
    def("ledger.l0_ns", "ns"),
    def("ledger.l2_minus_l0_ns", "ns"),
    def("ledger.l3_minus_l2_ns", "ns"),
    def("trace.overhead_pct", "%"),
    def("trace.spans", "count"),
    def("trace.spans_dropped", "count"),
];

/// Each layer and the metric carrying the mean self time of its spans.
pub const SELF_TIME: &[(&str, &str)] = &[
    ("bench", "self.bench_ns"),
    ("core", "self.core_ns"),
    ("mapmatch", "self.mapmatch_ns"),
    ("roadnet", "self.roadnet_ns"),
    ("locserver", "self.locserver_ns"),
    ("journal", "self.journal_ns"),
    ("net", "self.net_ns"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: updates, queries, fixes, restarts and checks.
    pub attempted: u64,
    /// Operations that failed, were refused or dropped, or whose output did
    /// not match the reference.
    pub failed: u64,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    /// The metrics of this run's kind, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own figures under their own names
    /// (`ingest_ups`, `update_visible_p99_ms`, sample counts, ...), printed
    /// on a line of their own before the result.
    pub detail: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.insert(name.to_string(), value);
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(what.into());
    }

    /// Checks `ok`, recording `what` as a failed check when it is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.problem(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Keeps the metrics of `catalogue`, filling in 0 for any not set, and
    /// drops those of `other` (a run of one kind passes some of the other
    /// kind's on the way). Returns the names found in neither.
    pub fn complete(&mut self, catalogue: &[Def], other: &[Def]) -> Vec<&'static str> {
        let known = |defs: &[Def], k: &str| defs.iter().any(|d| d.name == k);
        let unknown: Vec<&'static str> = self
            .metrics
            .keys()
            .filter(|k| !known(catalogue, k) && !known(other, k))
            .copied()
            .collect();
        self.metrics.retain(|k, _| known(catalogue, k));
        for d in catalogue {
            self.metrics.entry(d.name).or_insert(0.0);
        }
        unknown
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric of
    /// `catalogue` with its unit.
    pub fn result_line(&self, catalogue: &[Def]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in catalogue.iter().enumerate() {
            let value = self.metrics.get(d.name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The detail line: `{"detail": {...}, "problems": [...]}`.
    pub fn detail_line(&self) -> String {
        let mut out = String::from("{\"detail\": {");
        for (i, (k, v)) in self.detail.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {}", json_number(*v));
        }
        out.push_str("}, \"problems\": [");
        for (i, p) in self.problems.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let escaped = p.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "{sep}\"{escaped}\"");
        }
        out.push_str("]}");
        out
    }
}

/// A finite number in full precision (Rust's shortest round-trip form);
/// non-finite values, which JSON cannot carry, print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        for (layer, name) in SELF_TIME {
            assert_eq!(*name, format!("self.{layer}_ns"));
            assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name} is declared");
        }
    }

    #[test]
    fn result_line_carries_every_catalogue_metric_in_full_precision() {
        let mut o = Outcome::default();
        o.ops(3, 0);
        o.set("setup_s", 0.123_456_789_012);
        o.set("net.evicted_slow", 0.0);
        assert!(o.complete(END_TO_END, PER_LAYER).is_empty());
        assert!(!o.metrics.contains_key("net.evicted_slow"));
        let line = o.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\"", d.name)));
        }
        o.set("not_declared", 1.0);
        assert_eq!(o.complete(END_TO_END, PER_LAYER), vec!["not_declared"]);
        o.check(false, || "mismatch \"x\"".into());
        assert!(!o.correct());
        assert!(o.detail_line().contains("mismatch \\\"x\\\""));
    }

    /// The names and units `BENCHMARK.json` declares are exactly the ones the
    /// benchmark prints.
    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: Option<&str>| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = next.and_then(|n| json[start..].find(&format!("\"{n}\""))).map(|e| start + e);
            let body = &json[start..end.unwrap_or(json.len())];
            body.split('{')
                .skip(1)
                .map(|obj| (string_field(obj, "name"), string_field(obj, "unit")))
                .collect()
        };
        let declared = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
        };
        assert_eq!(section("end_to_end", Some("per_layer")), declared(END_TO_END));
        assert_eq!(section("per_layer", None), declared(PER_LAYER));
        let workloads: Vec<String> =
            section("workloads", Some("end_to_end")).into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    fn string_field(obj: &str, key: &str) -> String {
        let Some(at) = obj.find(&format!("\"{key}\"")) else { return String::new() };
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closing quote") + open;
        rest[open..close].to_string()
    }
}
