//! The repository benchmark's command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb-c-smallcache --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The process first pins itself to one CPU. `--trace 0` repeats deploy +
//! measured phase until `--seconds` have passed (at least three times),
//! reads every stored key back after the first, checks every repetition
//! against the first, and reports the end-to-end metrics: modeled ones
//! from the driver, host ones as medians over the repetitions. `--trace 1`
//! runs once untraced and once traced, probes every layer, prints the
//! per-layer self-time table, writes a Perfetto trace under
//! `perfbench/out/`, and reports the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is 0 only when every
//! op and every check passed.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bench::driver::{BenchSetup, OP_NAMES};
use obs::Json;
use perfbench::metrics::{self, LayerInputs, END_TO_END};
use perfbench::trace::{self, AttributionInput, Trace};
use perfbench::workload::Workload;
use perfbench::{flat_json, median, preloaded_keys, probe, run_rep, Rep};

/// Fewest repetitions an untraced run makes, so medians have a middle.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!(
                    "unknown workload {val:?}; expected one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| bad)?),
            "--seconds" => seconds = val.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What a run concludes, whatever its mode.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed checks that are not ops: regime, determinism, a panic.
    errors: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn absorb(&mut self, rep: &Rep) {
        self.attempted += rep.attempted();
        self.failed += rep.failed;
        for f in &rep.failures {
            println!("FAILED: {f}");
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn print(&self) {
        for e in &self.errors {
            println!("FAILED: {e}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::from(unit.as_str())),
                    ]),
                )
            })
            .collect();
        let out = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::from(self.attempted)),
            ("failed".into(), Json::from(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", out.to_compact());
    }
}

/// Runs one repetition, turning a panic inside the program into an error.
fn run_one(
    setup: &BenchSetup,
    preloaded: &std::sync::Arc<std::collections::HashSet<u64>>,
    trace: Option<&mut Trace>,
    read_back: bool,
    out: &mut Outcome,
) -> Option<(Rep, bench::driver::Deployment)> {
    match catch_unwind(AssertUnwindSafe(|| {
        run_rep(setup, preloaded, trace, read_back)
    })) {
        Ok((r, dep)) => {
            println!(
                "rep: setup {:.3} s, run {:.3} s ({:.2} kops), read-back {:.3} s of {} keys, {} failed",
                r.setup_s,
                r.run_s,
                r.host_kops(),
                r.verify_s,
                r.verified,
                r.failed
            );
            out.absorb(&r);
            Some((r, dep))
        }
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            out.failed += 1;
            out.errors.push(format!("the program panicked: {msg}"));
            None
        }
    }
}

/// Checks that `r` measured the same modeled run as `first`.
fn same_model(first: &Rep, r: &Rep, what: &str, out: &mut Outcome) {
    if flat_json(&first.result) != flat_json(&r.result) {
        out.errors
            .push(format!("modeled metrics differ between {what} of one seed"));
    }
}

/// The process's peak resident set, MB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

fn untraced(w: Workload, setup: &BenchSetup, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let preloaded = preloaded_keys(setup.preload);
    // chime-lint: allow(determinism): the benchmark measures host wall time by design; nothing modeled reads it
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        // The first repetition reads every key back; the others must match
        // its modeled metrics byte for byte.
        let Some((r, dep)) = run_one(setup, &preloaded, None, reps.is_empty(), &mut out) else {
            return out;
        };
        drop(dep);
        if let Some(first) = reps.first() {
            same_model(first, &r, "repetitions", &mut out);
        }
        reps.push(r);
    }
    let r = &reps[0].result;
    match w.check_regime(r) {
        Ok(what) => println!("regime: {what}"),
        Err(e) => out.errors.push(e),
    }
    let samples = r
        .metrics
        .histogram_value("op_latency", &[])
        .unwrap_or_default()
        .count;
    let values = [
        r.mops,
        r.avg_us,
        r.cache_bytes as f64 / (1 << 20) as f64,
        median(&reps.iter().map(Rep::host_kops).collect::<Vec<_>>()),
        median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        peak_rss_mb(),
    ];
    println!(
        "{} seed {}: {} repetitions of {} ops, 64 closed-loop clients on 2 CNs, K={}",
        w.name(),
        setup.seed,
        reps.len(),
        reps[0].ops(),
        setup.coroutines
    );
    for (m, v) in END_TO_END.iter().zip(values) {
        println!(
            "{:<14} {v:>14.4} {:<5} ({} is better)",
            m.name, m.unit, m.better
        );
        out.metrics
            .push((m.name.to_string(), v, m.unit.to_string()));
    }
    // Bucketed percentiles and the failure share ride beside the bounded
    // metrics: see `metrics::per_layer`.
    println!(
        "{:<14} {:>14.4} us    ({samples} samples)",
        "model_p50_us", r.p50_us
    );
    println!(
        "{:<14} {:>14.4} us    ({samples} samples, {} beyond it)",
        "model_p99_us",
        r.p99_us,
        samples / 100
    );
    println!(
        "{:<14} {:>14.4} ratio ({} of {} ops failed)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    out
}

/// Nearest-rank `(p50, p99)` of the durations of spans named `name`, µs.
fn host_quantiles(spans: &[trace::Span], name: &str) -> (f64, f64) {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .collect();
    if d.is_empty() {
        return (0.0, 0.0);
    }
    d.sort_unstable();
    let q = |p: f64| d[((p * d.len() as f64).ceil() as usize).clamp(1, d.len()) - 1] as f64 / 1e3;
    (q(0.5), q(0.99))
}

fn traced(w: Workload, setup: &BenchSetup) -> Outcome {
    let mut out = Outcome::default();
    let preloaded = preloaded_keys(setup.preload);
    let Some((plain, dep)) = run_one(setup, &preloaded, None, true, &mut out) else {
        return out;
    };
    drop(dep);
    let mut tr = Trace::default();
    let Some((r, dep)) = run_one(setup, &preloaded, Some(&mut tr), false, &mut out) else {
        return out;
    };
    same_model(&plain, &r, "the untraced and the traced run", &mut out);
    let mut probes = probe::run(setup, &dep, &r.result, &mut tr);
    drop(dep);
    probes.pool_create_ms = probe::pool_create(setup, &mut tr);

    let m = &r.result.metrics;
    let count = |n: &str| m.counter_value(n, &[]) as f64;
    let lanes = setup.coroutines as f64;
    let run_ns = tr
        .spans
        .iter()
        .find(|s| s.name == "run_deployed")
        .map_or(0, |s| s.dur_ns()) as f64;
    let index_ns = trace::covered_ns(&r.spans) as f64;
    let verbs = count("client_reads_total")
        + count("client_writes_total")
        + count("client_atomics_total")
        + count("client_rpcs_total");
    let input = AttributionInput {
        run_ns,
        index_ns,
        ops: r.ops() as f64,
        generators: setup.clients as f64 * lanes,
        snapshots: setup.clients as f64 * lanes,
        reads: count("client_reads_total"),
        writes: count("client_writes_total"),
        atomics: count("client_atomics_total") + count("client_rpcs_total"),
        parks: if setup.coroutines > 1 { verbs } else { 0.0 },
        opgen_new_ns: probes.opgen_new_ms * 1e6,
        next_op_ns: probes.next_op_ns,
        read_ns: probes.read_ns,
        write_ns: probes.write_ns,
        masked_cas_ns: probes.masked_cas_ns,
        park_ns: probes.park_ns,
        snapshot_ns: probes.timeseries_snapshot_us * 1e3,
        detect_ns: probes.detect_ms * 1e6,
    };
    println!("\nself time of the measured phase (run_deployed), by layer:");
    let rows = trace::attribute(&input);
    for row in &rows {
        println!(
            "  {:<7} {:>10.2} ms {:>6.1}%  {}",
            row.layer,
            row.ns / 1e6,
            100.0 * row.ns / run_ns,
            row.how
        );
    }
    let sum: f64 = rows.iter().map(|r| r.ns).sum();
    println!(
        "  {:<7} {:>10.2} ms  = run_deployed {:.2} ms",
        "sum",
        sum / 1e6,
        run_ns / 1e6
    );

    let host_ops = OP_NAMES.map(|op| host_quantiles(&r.spans, &format!("core.{op}")));
    let kops_untraced = plain.host_kops();
    let kops_traced = r.host_kops();
    println!(
        "\ntracing overhead: {:+.1}% (host_kops {kops_untraced:.2} untraced vs \
         {kops_traced:.2} traced, one pair of repetitions)",
        100.0 * (kops_untraced / kops_traced - 1.0)
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", w.name()));
    let mut spans = tr.spans.clone();
    spans.extend(r.spans.iter().cloned());
    match trace::write_perfetto(&path, &spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
    }

    let values: BTreeMap<String, f64> = metrics::layer_values(&LayerInputs {
        result: &r.result,
        calls: r.calls,
        probes: &probes,
        host_ops,
        driver_self_ns: run_ns - index_ns,
        kops_untraced,
        kops_traced,
        failed: out.failed,
        attempted: out.attempted,
    });
    println!("\nper-layer metrics ({}):", w.name());
    for m in metrics::per_layer() {
        let v = values[&m.name];
        let why = if m.moves.is_empty() {
            "driver-level figure, no bound".to_string()
        } else {
            format!("moves {} on {}", m.moves, m.on)
        };
        println!("  {:<36} {v:>14.4} {:<6} {why}", m.name, m.unit);
        out.metrics.push((m.name, v, m.unit.to_string()));
    }
    out
}

/// CPU-set size in bytes handed to the affinity calls (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Pins the calling thread, and so every thread it spawns later, to the
/// lowest-numbered CPU it may run on, and returns that CPU. The coroutine
/// engine runs exactly one lane thread at a time while the driver thread
/// waits, so one CPU costs no parallelism, and lane handoffs stop
/// depending on when the host schedules a second CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}"),
        Err(e) => println!("not pinned to one CPU ({e}): host times will spread more"),
    }
    let setup = args.workload.setup(args.seed, args.workload.scale());
    let out = if args.trace {
        traced(args.workload, &setup)
    } else {
        untraced(args.workload, &setup, args.seconds)
    };
    out.print();
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
