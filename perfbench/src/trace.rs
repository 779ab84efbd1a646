//! Wall-clock spans recorded from the benchmark's own files, their
//! Perfetto export, and the per-layer self-time table of the measured
//! phase.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed: `deploy`, `run_deployed`, an index call such as
    /// `core.read`, or a probe such as `dmem.read`.
    pub name: &'static str,
    /// Start, wall-clock ns since the trace epoch.
    pub start_ns: u64,
    /// End, wall-clock ns since the trace epoch.
    pub end_ns: u64,
    /// Id of the enclosing span (ids are 1-based positions in the
    /// exported list); 0 for a root span.
    pub parent: u32,
    /// The driver's trace id for index calls; 0 otherwise.
    pub op_id: u64,
    /// Perfetto track: 0 for the benchmark thread, 1 + handle index for
    /// index calls.
    pub track: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The root spans of a traced run, kept in memory until exit.
pub struct Trace {
    epoch: Instant,
    /// Root spans, in the order they were opened.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            // chime-lint: allow(determinism): the benchmark measures host wall time by design; nothing modeled reads it
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// The shared wall-clock origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a root span and returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: 0,
            op_id: 0,
            track: 0,
        });
        self.spans.len() as u32
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = now;
        s.dur_ns() as f64 / 1e9
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Writes `spans` as a Chrome trace-event document that Perfetto loads:
/// one complete (`X`) slice per span, on its track.
pub fn write_perfetto(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in &tracks {
        let name = match t {
            0 => "benchmark".to_string(),
            h => format!("handle {}", h - 1),
        };
        writeln!(
            w,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{t},\"args\":{{\"name\":\"{name}\"}}}},"
        )?;
    }
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
            s.name,
            s.track,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i + 1,
            s.parent,
            s.op_id
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// Wall time covered by the union of `spans`' intervals, in ns. Index
/// calls of parked coroutine lanes overlap, so their durations cannot
/// simply be summed.
pub fn covered_ns(spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// One row of the self-time table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer (workspace crate) name.
    pub layer: &'static str,
    /// Self time, ns.
    pub ns: f64,
    /// How the row was obtained.
    pub how: String,
}

/// Counts and probe costs the attribution of the measured phase needs.
#[derive(Debug, Clone, Default)]
pub struct AttributionInput {
    /// Wall time of `run_deployed`, ns.
    pub run_ns: f64,
    /// Wall time covered by index-call spans, ns.
    pub index_ns: f64,
    /// Ops the driver completed.
    pub ops: f64,
    /// `OpGen`s the driver built (one per lane).
    pub generators: f64,
    /// Handles whose telemetry the driver snapshots.
    pub snapshots: f64,
    /// READ / WRITE / atomic verbs issued by the measured phase.
    pub reads: f64,
    /// WRITE verbs.
    pub writes: f64,
    /// Atomic verbs (CAS, masked-CAS, FAA) and allocation RPCs.
    pub atomics: f64,
    /// Engine parks (one per verb when lanes > 1, else 0).
    pub parks: f64,
    /// Probe costs.
    pub opgen_new_ns: f64,
    /// ns per `OpGen::next_op`.
    pub next_op_ns: f64,
    /// ns per `Endpoint::read`.
    pub read_ns: f64,
    /// ns per `Endpoint::write`.
    pub write_ns: f64,
    /// ns per `Endpoint::masked_cas`.
    pub masked_cas_ns: f64,
    /// ns per engine park beyond the verb itself.
    pub park_ns: f64,
    /// ns per telemetry snapshot (clone, since, merge).
    pub snapshot_ns: f64,
    /// ns per `obs::detect` over the run's timeline.
    pub detect_ns: f64,
}

/// Splits the measured phase into per-layer self times that sum to its
/// wall time. Index spans are measured; inside them `dmem` and `sched`
/// are probe cost × count and `core` keeps the rest. Outside them `ycsb`
/// and `obs` are probe cost × count and `driver` keeps the rest.
pub fn attribute(a: &AttributionInput) -> Vec<Row> {
    let dmem = a.reads * a.read_ns + a.writes * a.write_ns + a.atomics * a.masked_cas_ns;
    let sched = a.parks * a.park_ns;
    let ycsb = a.generators * a.opgen_new_ns + a.ops * a.next_op_ns;
    let obs = a.snapshots * a.snapshot_ns + a.detect_ns;
    vec![
        Row {
            layer: "driver",
            ns: a.run_ns - a.index_ns - ycsb - obs,
            how: "run_deployed span minus index spans, ycsb and obs".into(),
        },
        Row {
            layer: "ycsb",
            ns: ycsb,
            how: format!(
                "{} OpGen::with_theta x probe + {} next_op x probe",
                a.generators, a.ops
            ),
        },
        Row {
            layer: "obs",
            ns: obs,
            how: format!("{} telemetry snapshots x probe + 1 detect", a.snapshots),
        },
        Row {
            layer: "core",
            ns: a.index_ns - dmem - sched,
            how: "index spans minus dmem and sched".into(),
        },
        Row {
            layer: "dmem",
            ns: dmem,
            how: format!(
                "{} reads, {} writes, {} atomics x Endpoint probes",
                a.reads, a.writes, a.atomics
            ),
        },
        Row {
            layer: "sched",
            ns: sched,
            how: if a.parks > 0.0 {
                format!(
                    "sched.park_ns x {} parks ({:.2}/op); index spans include time parked while other lanes run",
                    a.parks,
                    a.parks / a.ops
                )
            } else {
                "serial run: no engine".into()
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: u64, b: u64) -> Span {
        Span {
            name: "x",
            start_ns: a,
            end_ns: b,
            parent: 0,
            op_id: 0,
            track: 0,
        }
    }

    #[test]
    fn covered_merges_overlaps() {
        let s = [span(0, 10), span(5, 20), span(30, 40), span(35, 36)];
        assert_eq!(covered_ns(&s), 30);
        assert_eq!(covered_ns(&[]), 0);
    }

    #[test]
    fn attribution_sums_to_the_measured_phase() {
        let a = AttributionInput {
            run_ns: 1e9,
            index_ns: 6e8,
            ops: 1e4,
            generators: 64.0,
            snapshots: 64.0,
            reads: 3e4,
            writes: 1e3,
            atomics: 2e3,
            parks: 3.3e4,
            opgen_new_ns: 1e6,
            next_op_ns: 50.0,
            read_ns: 200.0,
            write_ns: 250.0,
            masked_cas_ns: 400.0,
            park_ns: 1e4,
            snapshot_ns: 3e3,
            detect_ns: 1e6,
        };
        let sum: f64 = attribute(&a).iter().map(|r| r.ns).sum();
        assert!((sum - a.run_ns).abs() < 1e-3, "{sum}");
    }
}
