//! The benchmark's output: named metrics with units, the per-layer
//! metric catalogue, and the final result line.

/// Per-layer metrics the traced run reports, with their units, in
/// output order. `BENCHMARK.json` lists exactly these (a test checks).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("arena.prepare_s", "s"),
    ("runner.setup_s", "s"),
    ("runner.sim_s", "s"),
    ("runner.run_ms_p50", "ms"),
    ("runner.run_ms_p95", "ms"),
    ("runner.runs", "count"),
    ("report.reduce_ms", "ms"),
    ("campaign.parallel_eff", "ratio"),
    ("campaign.setup_fraction", "ratio"),
    ("thicket.aggregate_ms", "ms"),
    ("simcore.events", "count"),
    ("simcore.events_per_frame", "count"),
    ("simcore.host_ns_per_event", "ns"),
    ("simcore.shard_imbalance", "ratio"),
    ("probe.simcore.wake_ns", "ns"),
    ("probe.bandwidth.transfer_ns", "ns"),
    ("probe.cluster.build_ms", "ms"),
    ("probe.mdsim.template_ms.jac", "ms"),
    ("probe.mdsim.template_ms.stmv", "ms"),
    ("probe.transport.bulk_rpc_ns", "ns"),
    ("kvs.commits", "count"),
    ("kvs.lookups", "count"),
    ("kvs.waits", "count"),
    ("kvs.peak_queue", "count"),
    ("kvs.deltas_sent", "count"),
    ("probe.kvs.op_ns", "ns"),
    ("probe.kvs_mesh.op_ns", "ns"),
    ("probe.localfs.frame_ns", "ns"),
    ("probe.pfs.frame_ns", "ns"),
    ("staging.evicted_frames", "count"),
    ("staging.spilled_frames", "count"),
    ("staging.backpressure_stalls", "count"),
    ("staging.pfs_fallbacks", "count"),
    ("probe.dyad.frame_ns", "ns"),
    ("dyad.cons_sync_ms", "ms"),
    ("dyad.cons_fetch_ms", "ms"),
    ("streaming.ack_refreshes", "count"),
    ("streaming.cold_syncs", "count"),
    ("streaming.warm_syncs", "count"),
    ("streaming.local_hits", "count"),
    ("streaming.fetches_served", "count"),
    ("streaming.window_stalls", "count"),
    ("probe.streaming.step_ns", "ns"),
    ("faults.injected", "count"),
    ("faults.rpc_retries", "count"),
    ("faults.frames_lost_observed", "count"),
    ("alloc.per_event", "count"),
    ("alloc.per_frame", "count"),
    ("alloc.peak_heap_mb", "MB"),
    ("model.makespan_s", "s"),
    ("model.cons_ms_per_frame", "ms"),
    ("model.prod_ms_per_frame", "ms"),
    ("model.findings_held", "count"),
    ("self_ms.arena.prepare", "ms"),
    ("self_ms.runner.run", "ms"),
    ("self_ms.report.reduce", "ms"),
    ("self_ms.thicket.aggregate", "ms"),
    ("self_ms.probes", "ms"),
    ("self_ms.workload", "ms"),
    ("trace.spans", "count"),
    ("trace.program_events", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// End-to-end metrics (tracing off), with their units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn num(v: f64) -> String {
    if v == 0.0 {
        // Also turns -0 (an empty f64 sum) into 0.
        "0".to_string()
    } else if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Named metric values with units, kept in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Set `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.0.push((name.to_string(), value, unit.to_string())),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Exactly the metrics of `catalogue`, in its order, with 0 for any
    /// this run did not set (a failed run still prints every name).
    pub fn select(&self, catalogue: &[(&str, &str)]) -> Metrics {
        Metrics(
            catalogue
                .iter()
                .map(|&(n, u)| (n.to_string(), self.get(n).unwrap_or(0.0), u.to_string()))
                .collect(),
        )
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Parse the `to_json` form back.
    pub fn from_value(v: &serde_json::Value) -> Metrics {
        let mut m = Metrics::default();
        if let serde_json::Value::Object(map) = v {
            for (name, entry) in map {
                let value = entry.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
                let unit = entry.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                m.set(name, value, unit);
            }
        }
        m
    }
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}
