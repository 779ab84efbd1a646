//! Host-time probes of each layer's public functions, timed from the
//! benchmark at the sizes the workload uses. Each probe reports the median
//! of a few trials and records one span per probe.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bench::driver::{BenchResult, BenchSetup, Deployment};
use dmem::{Endpoint, GlobalAddr, Pool, QpConfig};
use obs::{AnomalyConfig, TimeSeries};
use sched::{Engine, EngineConfig, LaneBody};
use ycsb::{OpGen, WorkloadState};

use crate::trace::Trace;

const TRIALS: usize = 5;
const VERBS_PER_TRIAL: usize = 20_000;
const NEXT_OPS_PER_TRIAL: usize = 50_000;
const PARKS_PER_LANE: usize = 2_000;

/// Probe results, in the units of their metric names.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `OpGen::with_theta` at the workload's key count and θ, ms.
    pub opgen_new_ms: f64,
    /// `OpGen::next_op`, ns.
    pub next_op_ns: f64,
    /// `Endpoint::read`, ns.
    pub read_ns: f64,
    /// `Endpoint::write`, ns.
    pub write_ns: f64,
    /// `Endpoint::masked_cas`, ns.
    pub masked_cas_ns: f64,
    /// `Engine::run_client` wall time minus serial verb cost, per verb, ns.
    pub park_ns: f64,
    /// `TimeSeries` clone + `since` + `merge` of one client's timeline, µs.
    pub timeseries_snapshot_us: f64,
    /// `obs::detect` over the run's merged timeline, ms.
    pub detect_ms: f64,
    /// `Pool::with_defaults` at the workload's capacity, ms.
    pub pool_create_ms: f64,
}

/// Median wall time of `TRIALS` runs of `f`, in ns.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..TRIALS)
        .map(|_| {
            // chime-lint: allow(determinism): host-time probe; nothing modeled reads it
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[TRIALS / 2]
}

/// Runs `f` inside a root span named `name`.
fn spanned<T>(trace: &mut Trace, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = trace.open(name);
    let out = f();
    trace.close(id);
    out
}

/// Probes every layer against the live deployment of a finished run.
/// `Pool::with_defaults` is probed separately by [`pool_create`], after
/// the deployment is dropped, so two pools never coexist.
pub fn run(setup: &BenchSetup, dep: &Deployment, r: &BenchResult, trace: &mut Trace) -> Probes {
    let opgen_new_ms = spanned(trace, "ycsb.opgen_new", || {
        median_ns(|| {
            black_box(OpGen::with_theta(
                setup.workload,
                WorkloadState::new(setup.preload),
                setup.seed,
                setup.theta,
            ));
        }) / 1e6
    });
    let next_op_ns = spanned(trace, "ycsb.next_op", || {
        let mut gen = OpGen::with_theta(
            setup.workload,
            WorkloadState::new(setup.preload),
            setup.seed,
            setup.theta,
        );
        median_ns(|| {
            for _ in 0..NEXT_OPS_PER_TRIAL {
                black_box(gen.next_op());
            }
        }) / NEXT_OPS_PER_TRIAL as f64
    });

    let m = &r.metrics;
    let moved =
        m.counter_value("client_reads_total", &[]) + m.counter_value("client_writes_total", &[]);
    // Verb probes move the run's mean payload per READ or WRITE.
    let verb_bytes =
        (m.counter_value("client_app_bytes_total", &[]) / moved.max(1)).max(8) as usize;
    let pool = &dep.pool;
    let buf_addr = pool
        .mn(0)
        .alloc(verb_bytes as u64)
        .expect("probe buffer fits the pool");
    let word = pool.mn(0).alloc(8).expect("probe word fits the pool");
    let mut ep = Endpoint::new(Arc::clone(pool));
    let mut buf = vec![0u8; verb_bytes];
    let read_ns = spanned(trace, "dmem.read", || {
        median_ns(|| {
            for _ in 0..VERBS_PER_TRIAL {
                ep.read(buf_addr, &mut buf);
            }
        }) / VERBS_PER_TRIAL as f64
    });
    let write_ns = spanned(trace, "dmem.write", || {
        median_ns(|| {
            for _ in 0..VERBS_PER_TRIAL {
                ep.write(buf_addr, &buf);
            }
        }) / VERBS_PER_TRIAL as f64
    });
    let masked_cas_ns = spanned(trace, "dmem.masked_cas", || {
        median_ns(|| {
            // Acquire then release a lock bit, as a leaf lock does.
            // chime-lint: allow(lock-discipline): times the verb alone; every acquire succeeds and is released by the next iteration, so nothing retries
            for i in 0..VERBS_PER_TRIAL as u64 {
                black_box(ep.masked_cas(word, i & 1, 1, !i & 1, 1));
            }
        }) / VERBS_PER_TRIAL as f64
    });
    let park_ns = spanned(trace, "sched.park", || {
        park_ns(setup, pool, buf_addr, verb_bytes) - read_ns
    });

    let series: Vec<TimeSeries> = dep.cns[0]
        .iter()
        .filter_map(|h| h.telemetry().map(|t| t.series.clone()))
        .collect();
    let timeseries_snapshot_us = spanned(trace, "obs.timeseries_snapshot", || {
        median_ns(|| {
            // The driver's per-client calls: a clone of the series, then
            // `since` the (empty) pre-run snapshot and `merge` of the delta.
            let mut acc = TimeSeries::default();
            for s in &series {
                black_box(s.clone());
                acc.merge(&s.since(&TimeSeries::new(s.window_ns())));
            }
            black_box(acc);
        }) / series.len().max(1) as f64
            / 1e3
    });
    let detect_ms = spanned(trace, "obs.detect", || {
        median_ns(|| {
            black_box(obs::detect(&r.timeline, &AnomalyConfig::default()));
        }) / 1e6
    });
    Probes {
        opgen_new_ms,
        next_op_ns,
        read_ns,
        write_ns,
        masked_cas_ns,
        park_ns,
        timeseries_snapshot_us,
        detect_ms,
        pool_create_ms: 0.0,
    }
}

/// `Engine::run_client` with the workload's lane count, each lane issuing
/// `PARKS_PER_LANE` READs on its own endpoint: wall time per verb, ns.
fn park_ns(setup: &BenchSetup, pool: &Arc<Pool>, addr: GlobalAddr, bytes: usize) -> f64 {
    let lanes = setup.coroutines.max(1);
    let engine = Engine::new(EngineConfig {
        lanes,
        qp: QpConfig::default(),
    });
    median_ns(|| {
        let bodies: Vec<LaneBody<()>> = (0..lanes)
            .map(|_| {
                let pool = Arc::clone(pool);
                Box::new(move || {
                    let mut ep = Endpoint::new(pool);
                    let mut buf = vec![0u8; bytes];
                    for _ in 0..PARKS_PER_LANE {
                        ep.read(addr, &mut buf);
                    }
                }) as LaneBody<()>
            })
            .collect();
        engine
            .run_client(*pool.net(), setup.num_mns, bodies)
            .into_results();
    }) / (lanes * PARKS_PER_LANE) as f64
}

/// Probes `Pool::with_defaults` at the workload's capacity, ms. Only the
/// construction is timed, not the drop.
pub fn pool_create(setup: &BenchSetup, trace: &mut Trace) -> f64 {
    spanned(trace, "dmem.pool_create", || {
        let mut t: Vec<f64> = (0..3)
            .map(|_| {
                // chime-lint: allow(determinism): host-time probe; nothing modeled reads it
                let t0 = Instant::now();
                let pool = black_box(Pool::with_defaults(setup.num_mns, setup.mn_capacity));
                let ms = t0.elapsed().as_nanos() as f64 / 1e6;
                drop(pool);
                ms
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[1]
    })
}
