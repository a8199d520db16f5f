//! The metric inventory (names and units exactly as `BENCHMARK.json`
//! declares them) and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's printed name and unit.
pub type Def = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [Def; 9] = [
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("body_steps_per_s", "1/s"),
    ("force_rel_err", "ratio"),
    ("setup_s", "s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("large_steps_per_s", "1/s"),
    ("fairness_jain", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: [Def; 52] = [
    ("stdpar.busy_share", "ratio"),
    ("stdpar.speedup", "x"),
    ("stdpar.par_regions_per_step", "count"),
    ("stdpar.dag_steals_per_tick", "count"),
    ("octree.build_ms", "ms"),
    ("octree.build_ms_1w", "ms"),
    ("octree.cas_retries_per_body", "count"),
    ("octree.moments_ms", "ms"),
    ("octree.moments_ms_1w", "ms"),
    ("octree.force_ms", "ms"),
    ("octree.force_ms_1w", "ms"),
    ("octree.mac_accept_ratio", "ratio"),
    ("bvh.sort_ms", "ms"),
    ("bvh.sort_ms_1w", "ms"),
    ("bvh.lazy_resort_frac", "ratio"),
    ("bvh.build_ms", "ms"),
    ("bvh.build_ms_1w", "ms"),
    ("bvh.moments_ms", "ms"),
    ("bvh.moments_ms_1w", "ms"),
    ("bvh.force_ms", "ms"),
    ("bvh.force_ms_1w", "ms"),
    ("bvh.mac_accept_ratio", "ratio"),
    ("math.simd_lane_occupancy", "ratio"),
    ("math.interactions_per_body", "count"),
    ("math.kernel_gflops_computed", "GFLOP/s"),
    ("sim.bbox_ms", "ms"),
    ("sim.bbox_ms_1w", "ms"),
    ("sim.tree_reuse_frac", "ratio"),
    ("sim.step_residual_ms", "ms"),
    ("sim.step_residual_ms_1w", "ms"),
    ("sim.kick_drift_ms", "ms"),
    ("sim.closure_gap", "ratio"),
    ("sim.closure_gap_1w", "ratio"),
    ("sim.health_us", "us"),
    ("sim.checkpoint_us", "us"),
    ("server.tick_ms_p50", "ms"),
    ("server.tick_ms_p90", "ms"),
    ("server.tick_busy_share", "ratio"),
    ("server.steps_per_tick", "count"),
    ("server.admit_us", "us"),
    ("server.close_us", "us"),
    ("server.snapshot_us", "us"),
    ("server.resume_us", "us"),
    ("server.quarantines", "count"),
    ("server.rejections", "count"),
    ("server.large_planned_frac", "ratio"),
    ("server.large_starved", "count"),
    ("server.starved_sessions", "count"),
    ("load.admit_lag_ms_p90", "ms"),
    ("load.max_sessions_per_s", "1/s"),
    ("load.failed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Metric values by name. Names not in the inventory are rejected when the
/// result is printed, so a typo cannot slip a metric past `BENCHMARK.json`.
#[derive(Default, Debug)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The benchmark's last output line: the verdict, the operation counts and
/// every metric of `defs` with its unit. Errors name a metric that is
/// missing, unknown or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values.0.keys().find(|k| !defs.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not in the inventory"));
    }
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in defs.iter().enumerate() {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest string that round-trips the f64, so
        // every measured digit survives.
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_telemetry::json::{parse, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.as_object().unwrap()[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_object().unwrap();
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc.as_object().unwrap()["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_object().unwrap()["name"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut v = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            v.set(name, 1.0 + i as f64 / 3.0);
        }
        let line = result_line(true, 7, 0, &END_TO_END, &v).unwrap();
        let doc = parse(&line).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(obj["attempted"].as_u64(), Some(7));
        let m = obj["metrics"].as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m["setup_s"].as_object().unwrap()["unit"].as_str(),
            Some("s")
        );

        v.set("step_ms_p50", f64::NAN);
        assert!(result_line(true, 1, 0, &END_TO_END, &v).is_err());
        let mut w = Values::default();
        w.set("not_a_metric", 1.0);
        assert!(result_line(true, 1, 0, &END_TO_END, &w).is_err());
        assert!(result_line(true, 1, 0, &END_TO_END, &Values::default()).is_err());
    }
}
