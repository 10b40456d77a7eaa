//! The metric tables: names, units and directions of everything the
//! benchmark reports.  `BENCHMARK.json` at the repository root lists the
//! same names (a unit test holds the two together); the regression bounds
//! live only there.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// The metrics a later change is gated on; every workload reports all of
/// them (see the README for what each means on each workload).
pub const END_TO_END: [Def; 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("p50_us", "us", "lower"),
    ("recall_at_10", "frac", "higher"),
    ("bytes_per_object", "B", "lower"),
];

/// Single-layer metrics of the traced pass, outside in.  Metrics with a
/// time unit are measured on every workload; a layer a workload bypasses
/// reports its product-path share or count as 0.
pub const PER_LAYER: [Def; 62] = [
    ("host.memcpy_gbps", "GB/s", "higher"),
    ("host.timer_ns", "ns", "lower"),
    ("vector.kernels.ip_seq_ns_per_row", "ns", "lower"),
    ("vector.kernels.ip_seq_gbps", "GB/s", "higher"),
    ("vector.kernels.l2_sq_seg_ns", "ns", "lower"),
    ("vector.fused.query_build_ns", "ns", "lower"),
    ("vector.fused.ip_rand_ns_per_row", "ns", "lower"),
    ("vector.fused.ip_pruned_rand_ns_per_row", "ns", "lower"),
    ("vector.fused.kernel_evals_per_query", "count", "lower"),
    ("vector.quant.query_build_ns", "ns", "lower"),
    ("vector.quant.ip_rand_ns_per_row", "ns", "lower"),
    ("vector.quant.ip_pruned_rand_ns_per_row", "ns", "lower"),
    ("vector.quant.kernel_evals_per_query", "count", "lower"),
    ("vector.quant.quantize_s", "s", "lower"),
    ("vector.quant.bytes_per_object", "B", "lower"),
    ("core.oracle.scorer_build_ns", "ns", "lower"),
    ("core.oracle.qscorer_build_ns", "ns", "lower"),
    ("core.oracle.score_ns_per_eval", "ns", "lower"),
    ("graph.walk_ns", "ns", "lower"),
    ("graph.walk_self_ns", "ns", "lower"),
    ("graph.walk_self_ns_per_eval", "ns", "lower"),
    ("graph.hops", "count", "lower"),
    ("graph.evals", "count", "lower"),
    ("graph.pruned_frac", "frac", "higher"),
    ("graph.build_us_per_object", "us", "lower"),
    ("graph.build_t1_s", "s", "lower"),
    ("graph.par.build_speedup", "x", "higher"),
    ("core.server.search_ns", "ns", "lower"),
    ("core.server.rerank_frac", "frac", "lower"),
    ("core.server.rerank_changed_frac", "frac", "lower"),
    ("core.server.residual_frac", "frac", "lower"),
    ("core.server.batch64_qps", "1/s", "higher"),
    ("core.server.worker_new_us", "us", "lower"),
    ("core.server.freeze_s", "s", "lower"),
    ("core.shard.self_frac", "frac", "lower"),
    ("core.shard.fanout_mean", "count", "lower"),
    ("core.runtime.idle_overhead_us", "us", "lower"),
    ("core.runtime.shutdown_drain_ms", "ms", "lower"),
    ("core.runtime.stolen_frac", "frac", "lower"),
    ("core.runtime.lane_depth_max", "count", "lower"),
    ("client.p99_us", "us", "lower"),
    ("client.nonservice_us_p50", "us", "lower"),
    ("client.nonservice_us_p99", "us", "lower"),
    ("open.r1.p50_x", "x", "lower"),
    ("open.r1.p99_x", "x", "lower"),
    ("open.r3.p50_x", "x", "lower"),
    ("open.r3.p99_x", "x", "lower"),
    ("open.r3.achieved_frac", "frac", "higher"),
    ("open.r2.slo_miss_frac", "frac", "lower"),
    ("open.r3.slo_miss_frac", "frac", "lower"),
    ("open.gen_late_p99_x", "x", "lower"),
    ("open.weighted_p50_x", "x", "lower"),
    ("core.persist.save_s", "s", "lower"),
    ("core.persist.load_must_s", "s", "lower"),
    ("core.persist.bundle_bytes", "B", "lower"),
    ("data.embed_s", "s", "lower"),
    ("core.weights.learn_s", "s", "lower"),
    ("core.search.ground_truth_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("setup.persist_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(pub BTreeMap<&'static str, Summary>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    pub fn put(&mut self, name: &'static str, summary: Summary) {
        assert!(summary.median.is_finite(), "{name} is not finite");
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|d| d.0 == name);
        assert!(known, "{name} is not in the metric tables");
        let fresh = self.0.insert(name, summary).is_none();
        assert!(fresh, "{name} reported twice");
    }

    /// The values of `table` in table order.
    ///
    /// # Panics
    /// When a metric of the table was never set: every run reports every
    /// metric of its pass.
    pub fn in_order<'a>(
        &'a self,
        table: &'a [Def],
    ) -> impl Iterator<Item = (&'a Def, Summary)> + 'a {
        table.iter().map(|def| {
            let v = self
                .0
                .get(def.0)
                .unwrap_or_else(|| panic!("{} was not measured", def.0));
            (def, *v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get_field(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let f = |k| {
                    m.get_field(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[Def]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|d| (d.0.into(), d.1.into(), d.2.into()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get_field("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get_field("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::inputs::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
    }
}
