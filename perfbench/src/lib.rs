//! The repository benchmark.
//!
//! Three closed-loop YCSB workloads run through the same public entry
//! points the figure binaries use, [`bench::driver::deploy`] and
//! [`bench::driver::run_deployed`]. Every client handle is wrapped in the
//! benchmark's pass-through [`check::Checked`] index, which checks each
//! result and, in a traced run, times each call. Layer probes
//! ([`probe`]) and the spans ([`trace`]) attribute the measured phase's
//! host time to the workspace crates the workloads execute.

#![forbid(unsafe_code)]

pub mod check;
pub mod metrics;
pub mod probe;
pub mod trace;
pub mod workload;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use bench::driver::{deploy, run_deployed, BenchResult, BenchSetup, Deployment};
use dmem::RangeIndex;
use ycsb::KeySpace;

use check::{Checked, Ledger};
use trace::{Span, Trace};

/// The value byte `bench::driver::deploy` preloads every key with.
pub const PRELOAD_BYTE: u8 = 0xAB;

/// The preloaded keys of a deployment with `preload` keys.
pub fn preloaded_keys(preload: u64) -> Arc<HashSet<u64>> {
    Arc::new((0..preload).map(KeySpace::key).collect())
}

/// One repetition: deploy, measured phase, read-back verification.
pub struct Rep {
    /// The driver's modeled result.
    pub result: BenchResult,
    /// Wall time of `deploy`, s.
    pub setup_s: f64,
    /// Wall time of `run_deployed`, s.
    pub run_s: f64,
    /// Wall time of the read-back verification, s (0 without one).
    pub verify_s: f64,
    /// Keys read back after the measured phase (0 without a read-back).
    pub verified: u64,
    /// Index calls per op type during the measured phase.
    pub calls: [u64; 4],
    /// Failed ops: measured phase and read-back.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Index-call spans (traced repetitions only).
    pub spans: Vec<Span>,
}

impl Rep {
    /// Ops the measured phase completed, RDWC-combined ones included.
    pub fn ops(&self) -> u64 {
        self.result.metrics.counter_value("ops_total", &[])
    }

    /// Simulated ops per wall-clock second of `run_deployed`, thousands.
    pub fn host_kops(&self) -> f64 {
        self.ops() as f64 / self.run_s / 1e3
    }

    /// Ops attempted: the measured phase plus the read-back.
    pub fn attempted(&self) -> u64 {
        self.ops() + self.verified
    }
}

/// Wraps every handle of `dep` in a [`Checked`] reporting to `ledger`.
pub fn wrap(dep: &mut Deployment, ledger: &Arc<Ledger>) {
    let mut track = 0u32;
    for handles in &mut dep.cns {
        *handles = std::mem::take(handles)
            .into_iter()
            .map(|h| {
                track += 1;
                Box::new(Checked::new(h, Arc::clone(ledger), track - 1))
                    as Box<dyn RangeIndex + Send>
            })
            .collect();
    }
}

/// Runs one repetition of `setup` and returns it with its deployment.
/// With a `trace`, `deploy` and `run_deployed` become root spans and every
/// index call a span under `run_deployed`. With `read_back`, every stored
/// key is read back after the measured phase.
pub fn run_rep(
    setup: &BenchSetup,
    preloaded: &Arc<HashSet<u64>>,
    mut trace: Option<&mut Trace>,
    read_back: bool,
) -> (Rep, Deployment) {
    let ledger = Ledger::new(
        Arc::clone(preloaded),
        vec![PRELOAD_BYTE; setup.value_size],
        trace.as_ref().map(|t| t.epoch()),
    );
    let t = Timer::start("deploy", &mut trace);
    let mut dep = deploy(setup);
    let setup_s = t.stop(&mut trace);
    wrap(&mut dep, &ledger);

    let t = Timer::start("run_deployed", &mut trace);
    if let Timer::Span(id) = t {
        ledger.state().parent = id;
    }
    ledger.set_recording(true);
    let result = run_deployed(setup, &mut dep);
    ledger.set_recording(false);
    let run_s = t.stop(&mut trace);

    // chime-lint: allow(determinism): the benchmark measures host wall time by design; nothing modeled reads it
    let t0 = Instant::now();
    let verified = if read_back {
        verify(setup, &mut dep, &ledger)
    } else {
        0
    };
    let verify_s = t0.elapsed().as_secs_f64();

    let mut st = ledger.state();
    let rep = Rep {
        result,
        setup_s,
        run_s,
        verify_s,
        verified,
        calls: st.calls,
        failed: st.failed,
        failures: std::mem::take(&mut st.failures),
        spans: std::mem::take(&mut st.spans),
    };
    drop(st);
    (rep, dep)
}

/// Reads back every preloaded key and every key the measured phase
/// inserted, outside the timed window; a missing key or a value the run
/// never wrote is a failure. Returns the number of keys read.
fn verify(setup: &BenchSetup, dep: &mut Deployment, ledger: &Ledger) -> u64 {
    let inserted: Vec<u64> = ledger.state().inserted.iter().copied().collect();
    let keys = (0..setup.preload).map(KeySpace::key).chain(inserted);
    let h = &mut dep.cns[0][0];
    let mut st = ledger.state();
    let mut n = 0;
    for k in keys {
        match h.search(k) {
            None => st.fail(format!("read-back of stored key {k:#018x} found no value")),
            Some(v) => st.check_read(ledger.preloaded(), k, Some(&v)),
        }
        n += 1;
    }
    n
}

/// A running wall-clock measurement: a root span or a bare timer.
enum Timer {
    Span(u32),
    Wall(Instant),
}

impl Timer {
    fn start(name: &'static str, trace: &mut Option<&mut Trace>) -> Timer {
        match trace {
            Some(t) => Timer::Span(t.open(name)),
            // chime-lint: allow(determinism): the benchmark measures host wall time by design; nothing modeled reads it
            None => Timer::Wall(Instant::now()),
        }
    }

    /// Stops the measurement and returns its duration in seconds.
    fn stop(self, trace: &mut Option<&mut Trace>) -> f64 {
        match (self, trace) {
            (Timer::Span(id), Some(t)) => t.close(id),
            (Timer::Wall(t0), _) => t0.elapsed().as_secs_f64(),
            (Timer::Span(_), None) => unreachable!("a span timer needs its trace"),
        }
    }
}

/// The driver's flat metric map of `r` as compact JSON: equal strings mean
/// byte-identical modeled results.
pub fn flat_json(r: &BenchResult) -> String {
    let m = bench::report::Report::flat_metrics(r);
    obs::Json::Obj(m.into_iter().map(|(k, v)| (k, obs::Json::Num(v))).collect()).to_compact()
}

/// The median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
