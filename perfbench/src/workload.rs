//! The three benchmark workloads and the regime each one must stay in.
//!
//! Every workload is closed-loop: 64 simulated clients on 2 CNs each wait
//! for a reply before issuing the next op, so there is no offered rate.
//! All run CHIME with its default configuration unless noted, 200 000
//! preloaded keys, 8 B values, Zipfian θ = 0.99 and RDWC on.

use bench::driver::{BenchResult, BenchSetup, IndexKind};
use bench::report::Report;
use dmem::Bound;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-C, serial, 32 KB internal-node cache.
    CSmallCache,
    /// YCSB-A, K = 4 coroutine lanes per client.
    AK4,
    /// YCSB-E, serial.
    EScan,
}

/// Preload and measured-phase sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys preloaded by `deploy`.
    pub preload: u64,
    /// Ops in one `run_deployed` call.
    pub ops: u64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::CSmallCache, Workload::AK4, Workload::EScan];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CSmallCache => "ycsb-c-smallcache",
            Workload::AK4 => "ycsb-a-k4",
            Workload::EScan => "ycsb-e-scan",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Coroutine lanes per client.
    pub fn lanes(self) -> usize {
        match self {
            Workload::AK4 => 4,
            _ => 1,
        }
    }

    /// The full-size run. On a 2-vCPU host each `run_deployed` call takes
    /// 1.5-3.5 s, of which the driver's fixed cost of one Zipfian
    /// generator per lane is about 0.6 s serial and 2.5 s at K = 4.
    pub fn scale(self) -> Scale {
        let ops = match self {
            Workload::CSmallCache => 200_000,
            Workload::AK4 => 60_000,
            Workload::EScan => 40_000,
        };
        Scale {
            preload: 200_000,
            ops,
        }
    }

    /// The driver configuration for `seed` at `scale`.
    pub fn setup(self, seed: u64, scale: Scale) -> BenchSetup {
        let mut cfg = chime::ChimeConfig::default();
        let workload = match self {
            Workload::CSmallCache => {
                // Internal nodes of 200k keys take about 70 KB: a 32 KB
                // budget makes the working set larger than the CN cache.
                cfg.cache_bytes = 32 << 10;
                ycsb::Workload::C
            }
            Workload::AK4 => ycsb::Workload::A,
            Workload::EScan => ycsb::Workload::E,
        };
        BenchSetup {
            kind: IndexKind::Chime(cfg),
            num_mns: 1,
            // The runs allocate 23-51 MB of remote memory.
            mn_capacity: 256 << 20,
            num_cns: 2,
            clients: 64,
            preload: scale.preload,
            ops: scale.ops,
            workload,
            theta: ycsb::ZIPFIAN_CONSTANT,
            value_size: 8,
            rdwc: true,
            coroutines: self.lanes(),
            trace_clients: 0,
            seed,
        }
    }

    /// Checks that a full-size run still exercises the layer the workload
    /// was chosen for, so configuration drift cannot quietly turn it into
    /// a different workload.
    pub fn check_regime(self, r: &BenchResult) -> Result<String, String> {
        let doorbells = Report::flat_metrics(r)["qp.doorbells_per_op"];
        let (ok, want, got) = match self {
            Workload::CSmallCache => (
                r.bound == Bound::Latency && r.cache_hit_ratio < 0.9,
                "Latency-bound, cache hit ratio < 0.9",
                format!(
                    "{:?}-bound, cache hit ratio {:.3}",
                    r.bound, r.cache_hit_ratio
                ),
            ),
            Workload::AK4 => (
                r.bound == Bound::Iops && doorbells > 0.0,
                "Iops-bound, doorbells per op > 0",
                format!("{:?}-bound, {doorbells:.3} doorbells per op", r.bound),
            ),
            Workload::EScan => (
                r.bound == Bound::Bandwidth && r.hotspot_hit_ratio == 0.0,
                "Bandwidth-bound, hotspot hit ratio 0",
                format!(
                    "{:?}-bound, hotspot hit ratio {}",
                    r.bound, r.hotspot_hit_ratio
                ),
            ),
        };
        let msg = format!("{}: want {want}; got {got}", self.name());
        if ok {
            Ok(msg)
        } else {
            Err(format!("left its regime: {msg}"))
        }
    }
}
