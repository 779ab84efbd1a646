//! The benchmark measures the program the figure binaries measure, and
//! measures it reproducibly.

use std::collections::BTreeMap;

use bench::driver::{run, BenchResult, BenchSetup};
use obs::json::{parse, Json};
use perfbench::metrics::{self, LayerInputs, END_TO_END};
use perfbench::probe::Probes;
use perfbench::workload::{Scale, Workload};
use perfbench::{flat_json, preloaded_keys, run_rep, Rep};

/// Small enough for a test, large enough to split leaves and to overflow
/// the 32 KB cache.
const SMALL: Scale = Scale {
    preload: 20_000,
    ops: 4_000,
};

fn small(w: Workload, seed: u64) -> BenchSetup {
    w.setup(seed, SMALL)
}

fn wrapped(setup: &BenchSetup) -> Rep {
    run_rep(setup, &preloaded_keys(setup.preload), None, true).0
}

/// Everything the driver exports for a run, for byte comparison.
fn exported(r: &BenchResult) -> String {
    format!(
        "{}\n{}\n{}\n{}",
        flat_json(r),
        r.metrics.to_json(),
        r.timeline.to_json().to_compact(),
        r.perfetto.as_deref().unwrap_or("")
    )
}

#[test]
fn wrapper_is_transparent() {
    for w in Workload::ALL {
        // Driver tracers on a few clients exercise the forwarded
        // `set_trace_id`, `set_tracer` and `take_tracer`; the phase and
        // timeline exports exercise `profile` and `telemetry`.
        let setup = BenchSetup {
            trace_clients: 2,
            ..small(w, 7)
        };
        let plain = run(&setup);
        let rep = wrapped(&setup);
        assert_eq!(exported(&plain), exported(&rep.result), "{}", w.name());
        assert_eq!(rep.failed, 0, "{}: {:?}", w.name(), rep.failures);
        assert!(rep.calls.iter().sum::<u64>() > 0);
    }
}

/// Every per-layer value of `rep`, with zero probes and host times.
fn layers(rep: &Rep) -> BTreeMap<String, f64> {
    let probes = Probes::default();
    metrics::layer_values(&LayerInputs {
        result: &rep.result,
        calls: rep.calls,
        probes: &probes,
        host_ops: [(0.0, 0.0); 4],
        driver_self_ns: 0.0,
        kops_untraced: 1.0,
        kops_traced: 1.0,
        failed: rep.failed,
        attempted: rep.attempted(),
    })
}

/// Whether a per-layer metric is a pure function of the seed: a count or
/// a virtual-clock figure, not a host time, a probe or the trace overhead.
fn is_modeled(name: &str) -> bool {
    let host = [
        "ycsb.",
        "obs.",
        "trace.",
        "core.op_host_us.",
        "driver.self_us_per_op",
    ];
    let probes = [
        "dmem.read_ns",
        "dmem.write_ns",
        "dmem.masked_cas_ns",
        "dmem.pool_create_ms",
        "sched.park_ns",
    ];
    !host.iter().any(|p| name.starts_with(p)) && !probes.contains(&name)
}

/// The per-layer metrics that are pure functions of the seed.
fn modeled_layers(rep: &Rep) -> BTreeMap<String, f64> {
    layers(rep)
        .into_iter()
        .filter(|(k, _)| is_modeled(k))
        .collect()
}

#[test]
fn same_seed_same_model_and_counts() {
    for w in Workload::ALL {
        let a = wrapped(&small(w, 11));
        let b = wrapped(&small(w, 11));
        assert_eq!(flat_json(&a.result), flat_json(&b.result), "{}", w.name());
        assert_eq!(a.calls, b.calls, "{}", w.name());
        assert_eq!(a.verified, b.verified, "{}", w.name());
        assert_eq!(modeled_layers(&a), modeled_layers(&b), "{}", w.name());
    }
}

#[test]
fn another_seed_fails_nothing() {
    for w in Workload::ALL {
        let r = wrapped(&small(w, 12_345));
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.failures);
        assert_eq!(modeled_layers(&r)["failed_frac"], 0.0);
        assert!(r.verified >= SMALL.preload);
    }
}

#[test]
fn regime_guard_rejects_a_cache_that_fits() {
    // At 20k keys the internal nodes fit in 32 KB, so the read path no
    // longer misses: the guard must notice.
    let r = run(&small(Workload::CSmallCache, 5));
    let err = Workload::CSmallCache.check_regime(&r).unwrap_err();
    assert!(err.contains("cache hit ratio"), "{err}");
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).expect(key)
}

fn field<'a>(e: &'a Json, key: &str) -> &'a str {
    e.get(key).and_then(Json::as_str).expect(key)
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    let e2e: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|e| {
            let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
            (
                field(e, "name"),
                field(e, "unit"),
                field(e, "better"),
                bound,
            )
        })
        .collect();
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    assert_eq!(e2e, want);
    let per_layer: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect();
    let cat = metrics::per_layer();
    let want: Vec<_> = cat
        .iter()
        .map(|m| (m.name.as_str(), m.unit, m.better))
        .collect();
    assert_eq!(per_layer, want);
    // Every per-layer metric, and nothing else, gets a value.
    let rep = wrapped(&small(Workload::EScan, 3));
    let computed: Vec<String> = layers(&rep).into_keys().collect();
    let mut listed: Vec<String> = cat.iter().map(|m| m.name.clone()).collect();
    listed.sort();
    assert_eq!(computed, listed);
}
