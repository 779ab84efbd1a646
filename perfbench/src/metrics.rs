//! The metric catalogue: every metric the benchmark reports, with its unit
//! and direction, and for per-layer metrics the end-to-end metric and the
//! workload it should move. `BENCHMARK.json` lists the same names, units
//! and directions; a test keeps the two in step.

use std::collections::BTreeMap;

use bench::driver::{BenchResult, OP_NAMES};
use bench::report::Report;
use obs::{Phase, RetryCause};

use crate::probe::Probes;

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "model_mops",
        unit: "Mops",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "model_avg_us",
        unit: "us",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "cn_cache_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "host_kops",
        unit: "kops",
        better: "higher",
        // Host speed on a shared machine drifts by a quarter between
        // quiet and busy periods, so this sits just under `setup_s`'s.
        bound: 0.24,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload(s) on which it should move it.
    pub on: &'static str,
}

/// CN-side index phases of the taxonomy. `cq_wait` belongs to `sched`;
/// the serve and routing phases never run in these workloads.
const CORE_PHASES: [Phase; 10] = [
    Phase::Other,
    Phase::CacheLookup,
    Phase::Traversal,
    Phase::LockAcquire,
    Phase::LeafRead,
    Phase::SpeculativeRead,
    Phase::WriteBack,
    Phase::Validate,
    Phase::RetryBackoff,
    Phase::ScanChain,
];

/// Retry causes; injected faults never occur without a fault plan.
const CAUSES: [RetryCause; 4] = [
    RetryCause::VersionMismatch,
    RetryCause::LockConflict,
    RetryCause::StaleSibling,
    RetryCause::StaleRoute,
];

/// Per-layer metrics before the generated `core` ones: name, unit, better,
/// the end-to-end metric it should move, and on which workload.
#[rustfmt::skip]
const HEAD: [(&str, &str, &str, &str, &str); 4] = [
    ("ycsb.opgen_new_ms", "ms", "lower", "host_kops", "ycsb-a-k4 most (256 generators vs 64)"),
    ("ycsb.next_op_ns", "ns", "lower", "host_kops", ALL),
    ("driver.self_us_per_op", "us", "lower", "host_kops", "ycsb-c-smallcache"),
    ("driver.rdwc_combined_frac", "ratio", "higher", "model_mops", "ycsb-c-smallcache, ycsb-a-k4; 0 on ycsb-e-scan"),
];

/// Per-layer metrics after the generated `core` ones. The last four are
/// driver-level figures reported here, without a bound: the latency-bound
/// workload's percentiles are histogram buckets that repeat exactly across
/// seeds, a correct run fails nothing, and the tracing overhead is a
/// property of the benchmark.
#[rustfmt::skip]
const TAIL: [(&str, &str, &str, &str, &str); 20] = [
    ("dmem.wire_bytes_per_op", "B/op", "lower", "model_mops", "ycsb-e-scan; not ycsb-c-smallcache"),
    ("dmem.read_amp", "ratio", "lower", "model_mops", "ycsb-e-scan; not ycsb-c-smallcache"),
    ("dmem.msgs_per_op", "1/op", "lower", "model_mops", "ycsb-a-k4"),
    ("dmem.verbs_per_op", "1/op", "lower", "host_kops", "ycsb-a-k4"),
    ("dmem.queueing_us_per_op", "us", "lower", "model_p50_us, model_p99_us", "ycsb-a-k4, ycsb-e-scan"),
    ("dmem.read_ns", "ns", "lower", "host_kops", "ycsb-c-smallcache, ycsb-e-scan"),
    ("dmem.write_ns", "ns", "lower", "host_kops", "ycsb-a-k4, ycsb-e-scan"),
    ("dmem.masked_cas_ns", "ns", "lower", "host_kops", "ycsb-a-k4, ycsb-e-scan"),
    ("dmem.pool_create_ms", "ms", "lower", "setup_s, peak_rss_mb", ALL),
    ("sched.park_ns", "ns", "lower", "host_kops", "ycsb-a-k4 only"),
    ("sched.doorbells_per_op", "1/op", "lower", "model_mops", "ycsb-a-k4"),
    ("sched.doorbell_batch_mean", "count", "higher", "model_mops", "ycsb-a-k4"),
    ("sched.cq_wait_ns_per_op", "ns", "lower", "model_p99_us", "ycsb-a-k4"),
    ("sched.cq_depth_p99", "count", "lower", "model_p99_us", "ycsb-a-k4"),
    ("obs.timeseries_snapshot_us", "us", "lower", "host_kops", ALL),
    ("obs.detect_ms", "ms", "lower", "host_kops", ALL),
    ("model_p50_us", "us", "lower", "", ALL),
    ("model_p99_us", "us", "lower", "", ALL),
    ("failed_frac", "ratio", "lower", "", ALL),
    ("trace.overhead_frac", "ratio", "lower", "", ALL),
];

const ALL: &str = "all three";

/// The per-layer metrics, measured by the traced run.
pub fn per_layer() -> Vec<PerLayer> {
    let m = |name: String, unit, better, moves, on| PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    };
    let row = |&(name, unit, better, moves, on): &(&str, _, _, _, _)| {
        m(name.to_string(), unit, better, moves, on)
    };
    let by_op = "workloads issuing the op";
    let mut v: Vec<PerLayer> = HEAD.iter().map(row).collect();
    for op in OP_NAMES {
        for q in ["p50", "p99"] {
            v.push(m(
                format!("core.op_host_us.{op}.{q}"),
                "us",
                "lower",
                "host_kops",
                by_op,
            ));
        }
    }
    let c = "ycsb-c-smallcache";
    v.push(m(
        "core.cache_hit_ratio".into(),
        "ratio",
        "higher",
        "model_avg_us, model_mops",
        c,
    ));
    v.push(m(
        "core.rtts_per_op".into(),
        "1/op",
        "lower",
        "model_avg_us, model_mops",
        c,
    ));
    v.push(m(
        "core.hotspot_hit_ratio".into(),
        "ratio",
        "higher",
        "model_avg_us",
        "ycsb-c-smallcache; not ycsb-e-scan",
    ));
    for p in CORE_PHASES {
        let on = match p {
            Phase::LeafRead | Phase::Traversal | Phase::SpeculativeRead => c,
            Phase::LockAcquire | Phase::WriteBack | Phase::Validate => "ycsb-a-k4",
            Phase::ScanChain => "ycsb-e-scan",
            _ => ALL,
        };
        let name = format!("core.phase_ns_per_op.{}", p.as_str());
        v.push(m(name, "ns", "lower", "model_avg_us", on));
    }
    for cause in CAUSES {
        let name = format!("core.retries_per_op.{}", cause.as_str());
        v.push(m(name, "1/op", "lower", "model_p99_us", "ycsb-a-k4"));
    }
    v.push(m(
        "core.lock_retries_per_op".into(),
        "1/op",
        "lower",
        "model_p99_us",
        "ycsb-a-k4",
    ));
    for op in OP_NAMES {
        for q in ["p50", "p99"] {
            let name = format!("core.lat_virtual_us.{op}.{q}");
            v.push(m(name, "us", "lower", "model_p50_us, model_p99_us", by_op));
        }
    }
    v.extend(TAIL.iter().map(row));
    v
}

/// Everything the per-layer values are computed from.
pub struct LayerInputs<'a> {
    /// The traced run's result.
    pub result: &'a BenchResult,
    /// Index calls per op type.
    pub calls: [u64; 4],
    /// Probe results.
    pub probes: &'a Probes,
    /// Host wall time `(p50, p99)` of the wrapped index calls per op type,
    /// µs, indexed like [`OP_NAMES`]; 0 for op types the workload never issues.
    pub host_ops: [(f64, f64); 4],
    /// `run_deployed` wall time minus the time covered by index spans, ns.
    pub driver_self_ns: f64,
    /// Untraced `host_kops`.
    pub kops_untraced: f64,
    /// Traced `host_kops`.
    pub kops_traced: f64,
    /// Failed ops of the whole run.
    pub failed: u64,
    /// Attempted ops.
    pub attempted: u64,
}

/// Computes every per-layer metric value.
pub fn layer_values(i: &LayerInputs) -> BTreeMap<String, f64> {
    let r = i.result;
    let flat = Report::flat_metrics(r);
    let ops = r.metrics.counter_value("ops_total", &[]).max(1) as f64;
    let per_op = |counter: &str| r.metrics.counter_value(counter, &[]) as f64 / ops;
    let p = i.probes;
    let mut v = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("ycsb.opgen_new_ms", p.opgen_new_ms);
    put("ycsb.next_op_ns", p.next_op_ns);
    put("driver.self_us_per_op", i.driver_self_ns / ops / 1e3);
    put(
        "driver.rdwc_combined_frac",
        1.0 - i.calls.iter().sum::<u64>() as f64 / ops,
    );
    for (o, op) in OP_NAMES.iter().enumerate() {
        let (p50, p99) = i.host_ops[o];
        put(&format!("core.op_host_us.{op}.p50"), p50);
        put(&format!("core.op_host_us.{op}.p99"), p99);
        put(
            &format!("core.lat_virtual_us.{op}.p50"),
            flat[&format!("lat.{op}.p50_us")],
        );
        put(
            &format!("core.lat_virtual_us.{op}.p99"),
            flat[&format!("lat.{op}.p99_us")],
        );
    }
    put("core.cache_hit_ratio", r.cache_hit_ratio);
    put("core.rtts_per_op", r.rtts_per_op);
    put("core.hotspot_hit_ratio", r.hotspot_hit_ratio);
    for ph in CORE_PHASES {
        let k = format!("phase_ns_per_op.{}", ph.as_str());
        put(&format!("core.{k}"), flat[&k]);
    }
    for c in CAUSES {
        let k = format!("retries_per_op.{}", c.as_str());
        put(&format!("core.{k}"), flat[&k]);
    }
    put(
        "core.lock_retries_per_op",
        per_op("client_lock_retries_total"),
    );
    put("dmem.wire_bytes_per_op", r.bytes_per_op);
    put("dmem.read_amp", r.read_amp);
    put("dmem.msgs_per_op", r.msgs_per_op);
    put("dmem.verbs_per_op", flat["verbs_per_op"]);
    let attributed_ns: f64 = flat
        .iter()
        .filter(|(k, _)| k.starts_with("phase_ns_per_op."))
        .map(|(_, x)| x)
        .sum();
    put("dmem.queueing_us_per_op", r.avg_us - attributed_ns / 1e3);
    put("dmem.read_ns", p.read_ns);
    put("dmem.write_ns", p.write_ns);
    put("dmem.masked_cas_ns", p.masked_cas_ns);
    put("dmem.pool_create_ms", p.pool_create_ms);
    put("sched.park_ns", p.park_ns);
    put("sched.doorbells_per_op", flat["qp.doorbells_per_op"]);
    put("sched.doorbell_batch_mean", flat["doorbell.batch_mean"]);
    put("sched.cq_wait_ns_per_op", flat["phase_ns_per_op.cq_wait"]);
    put("sched.cq_depth_p99", flat["cq.depth_p99"]);
    put("obs.timeseries_snapshot_us", p.timeseries_snapshot_us);
    put("obs.detect_ms", p.detect_ms);
    put("model_p50_us", r.p50_us);
    put("model_p99_us", r.p99_us);
    put("failed_frac", i.failed as f64 / i.attempted.max(1) as f64);
    put("trace.overhead_frac", i.kops_untraced / i.kops_traced - 1.0);
    v
}
