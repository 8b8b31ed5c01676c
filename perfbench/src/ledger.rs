//! The metric names `BENCHMARK.json` lists, with their units. Every run
//! prints all of the list for its mode; a per-layer metric of a layer
//! the workload does not exercise reads 0 with 0 samples.

use crate::report::Report;

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    (crate::TAIL_METRIC, "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 51] = [
    // compile
    ("ptx.parse_us", "us"),
    ("translate.us", "us"),
    ("vectorize.us", "us"),
    ("vectorize.insts", "count"),
    ("ir.opt_removed_ratio", "ratio"),
    ("decode.us", "us"),
    ("decode.uops", "count"),
    ("jit.emit_us", "us"),
    ("jit.code_bytes", "bytes"),
    ("cache.compile_us", "us"),
    ("cache.unattributed_us", "us"),
    ("persist.writes", "count"),
    ("persist.dir_bytes", "bytes"),
    ("persist.restart_hit_ratio", "ratio"),
    ("jit.restart_emit_us", "us"),
    // launch
    ("devmem.alloc_us", "us"),
    ("devmem.free_us", "us"),
    ("devmem.htod_us", "us"),
    ("devmem.dtoh_us", "us"),
    ("devmem.reuse_ratio", "ratio"),
    ("devmem.high_water_mb", "MiB"),
    ("exec.launch_us.scale", "us"),
    ("exec.launch_us.blackscholes", "us"),
    ("exec.launch_us.matrixmul", "us"),
    ("exec.launch_us.bitonic", "us"),
    ("exec.ns_per_warp.scale", "ns"),
    ("exec.ns_per_warp.blackscholes", "ns"),
    ("exec.ns_per_warp.matrixmul", "ns"),
    ("exec.ns_per_warp.bitonic", "ns"),
    ("exec.threads_per_warp.scale", "count"),
    ("exec.threads_per_warp.blackscholes", "count"),
    ("exec.threads_per_warp.matrixmul", "count"),
    ("exec.threads_per_warp.bitonic", "count"),
    ("exec.yield_cycle_share.scale", "ratio"),
    ("exec.yield_cycle_share.blackscholes", "ratio"),
    ("exec.yield_cycle_share.matrixmul", "ratio"),
    ("exec.yield_cycle_share.bitonic", "ratio"),
    ("cache.queries_per_launch", "count"),
    ("cache.hit_ratio", "ratio"),
    ("jit.helper_ratio", "ratio"),
    ("job.unattributed_share", "ratio"),
    ("trace.span_overhead_ratio", "ratio"),
    ("trace.program_on_ratio", "ratio"),
    // serve
    ("server.exec_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("server.shed_ratio", "ratio"),
    ("server.retry_ratio", "ratio"),
    ("server.heap_high_water_mb", "MiB"),
    ("generator.late_p99_ms", "ms"),
];

/// Put the report's listed metrics in list order, add the per-layer
/// metrics the workload does not measure as 0, and flag any metric that
/// is missing, unlisted or in the wrong unit.
pub fn complete(report: &mut Report, trace: bool) {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in list {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.remove(i);
                if m.unit != unit {
                    report.error(format!("metric {name} in {} instead of {unit}", m.unit));
                }
                report.metrics.push(m);
            }
            None if trace => report.metric(name, 0.0, unit, 0),
            None => report.error(format!("end-to-end metric {name} was not measured")),
        }
    }
    for m in measured {
        report.error(format!("metric {} is not listed in BENCHMARK.json", m.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists here and in `BENCHMARK.json` name the same metrics in
    /// the same order, with the same units.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn missing_per_layer_metrics_read_zero() {
        let mut r = Report::default();
        r.metric("server.exec_ms", 1.5, "ms", 10);
        complete(&mut r, true);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r.errors.is_empty());
        let exec = r.metrics.iter().find(|m| m.name == "server.exec_ms").expect("kept");
        assert_eq!(exec.value, 1.5);
        assert_eq!(r.metrics[0].value, 0.0);
        assert_eq!(r.metrics[0].samples, 0);
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let mut r = Report::default();
        r.metric("setup_s", 0.1, "s", 7);
        r.metric("unlisted", 1.0, "ms", 1);
        complete(&mut r, false);
        assert!(!r.correct());
        assert!(r.errors.iter().any(|e| e.contains("unlisted")));
    }
}
