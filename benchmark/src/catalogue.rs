//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a test keeps the two equal).

/// End-to-end metrics: every workload reports each of them, untraced.
/// The latency tail and the fit epoch time are printed in the notes but
/// not gated (see the README's "Steadiness").
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("cf_per_s", "1/s"),
    ("ok_pct", "%"),
    ("cf_valid_pct", "%"),
    ("cf_feasible_pct", "%"),
];

/// Tape op kinds reported one by one; the rest sum into `other`.
pub const TOP_OPS: [&str; 8] = [
    "affine_relu",
    "affine",
    "sigmoid_bce",
    "sigmoid",
    "tanh",
    "sub",
    "dropout",
    "add",
];

/// Explain-ladder replay shapes: one row (a served request) and the
/// held-out batch (offline explain).
pub const SHAPES: [&str; 2] = ["b1", "bn"];

/// Explain-ladder layer metrics, suffixed with each of [`SHAPES`].
pub const EXPLAIN_LAYERS: [(&str, &str); 10] = [
    ("core.explain.batch_us", "us"),
    ("models.blackbox.predict_us", "us"),
    ("models.cvae.encode_us", "us"),
    ("models.cvae.decode_us", "us"),
    ("core.mask.apply_us", "us"),
    ("core.constraints.check_us", "us"),
    ("manifold.pairwise_sq_dists_us", "us"),
    ("core.explain.unattributed_us", "us"),
    ("core.explain.fallback.useful_distance_ratio", "ratio"),
    ("core.explain.fallback_share", "ratio"),
];

/// Serving-layer metrics from the stage records and `/metrics`.
pub const SERVE_LAYERS: [(&str, &str); 23] = [
    ("serve.client_us", "us"),
    ("serve.total_us", "us"),
    ("serve.http.parse_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.queue.wait_us", "us"),
    ("serve.batcher.linger_us", "us"),
    ("serve.explain_us", "us"),
    ("serve.explain_us.p50", "us"),
    ("serve.explain_us.p99", "us"),
    ("serve.serialize_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.unstaged_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.stage_residual_us", "us"),
    ("serve.transport_residual_us", "us"),
    ("serve.traced_requests", "count"),
    ("serve.batcher.jobs_per_batch", "jobs"),
    ("serve.explain.fallback_share", "ratio"),
    ("serve.explain.resample_share", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.shed", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Fit and kernel metrics besides the per-op ones.
pub const FIT_LAYERS: [(&str, &str); 6] = [
    ("core.model.epoch_ms", "ms"),
    ("tensor.pool.hit_ratio", "ratio"),
    ("tensor.pool.peak_bytes", "bytes"),
    ("tensor.kernel.matmul_gflops", "GFLOP/s"),
    ("core.model.step_ms", "ms"),
    ("core.model.fit_s", "s"),
];

/// Table IV, data-generation metrics besides the per-method ones.
pub const TABLE_LAYERS: [(&str, &str); 5] = [
    ("metrics.evaluate_ms", "ms"),
    ("table4.wall_s", "s"),
    ("table4.rows_sum_s", "s"),
    ("data.generate_ms", "ms"),
    ("data.encode_ms", "ms"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    out.extend(SERVE_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    for shape in SHAPES {
        out.extend(
            EXPLAIN_LAYERS
                .iter()
                .map(|&(n, u)| (format!("{n}.{shape}"), u)),
        );
    }
    for op in TOP_OPS.iter().chain(["other"].iter()) {
        out.push((format!("tensor.op.{op}.self_ms_per_epoch"), "ms"));
    }
    out.extend(FIT_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    for method in crate::program::TABLE4_METHODS {
        out.push((format!("baselines.{method}.fit_s"), "s"));
        out.push((format!("baselines.{method}.ms_per_cf"), "ms"));
    }
    out.extend(TABLE_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units of one `BENCHMARK.json` metric list, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &obj[at + f.len() + 2..];
                    let open = rest.find('"').expect("string value") + 1;
                    let close = open + rest[open..].find('"').expect("string closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(per_layer().len() <= 128);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names are used once");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
