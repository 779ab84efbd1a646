//! The benchmark's pass-through [`RangeIndex`]: it forwards every call to
//! the wrapped client handle unchanged, checks what the index returned,
//! and in a traced run records a wall-clock span around each call.
//!
//! `bench::driver` discards read and scan results, so this wrapper is
//! where the benchmark sees whether the index answered correctly.

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dmem::{ClientStats, IndexError, RangeIndex, Telemetry};
use obs::{OpProfile, Tracer};

use crate::trace::Span;

/// The failure messages kept for printing; later ones are only counted.
const KEPT_FAILURES: usize = 16;

/// What every wrapped handle of one deployment reports into.
pub struct Ledger {
    /// Off outside the measured phase: the wrapper then only forwards.
    recording: AtomicBool,
    /// Wall-clock origin of span timestamps; `None` when untraced.
    epoch: Option<Instant>,
    preloaded: Arc<HashSet<u64>>,
    state: Mutex<LedgerState>,
}

/// The mutable part of a [`Ledger`].
#[derive(Default)]
pub struct LedgerState {
    /// Index calls per op type (indexed like `bench::driver::OP_NAMES`).
    pub calls: [u64; 4],
    /// Failed calls.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Keys the measured phase inserted.
    pub inserted: BTreeSet<u64>,
    /// Every value the run wrote: the preload value and each value passed
    /// to `insert` or `update`.
    pub values: BTreeSet<Vec<u8>>,
    /// Index-call spans (traced runs only).
    pub spans: Vec<Span>,
    /// Parent span of the index-call spans.
    pub parent: u32,
}

impl LedgerState {
    /// Counts one failure, keeping its message if there is room.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Adds `value` to the values the run wrote.
    fn note_value(&mut self, value: &[u8]) {
        if !self.values.contains(value) {
            self.values.insert(value.to_vec());
        }
    }

    /// Whether `key` was preloaded or inserted by the run.
    fn known(&self, preloaded: &HashSet<u64>, key: u64) -> bool {
        preloaded.contains(&key) || self.inserted.contains(&key)
    }

    /// Checks a point read of `key`.
    pub fn check_read(&mut self, preloaded: &HashSet<u64>, key: u64, got: Option<&[u8]>) {
        match got {
            None if self.known(preloaded, key) => {
                self.fail(format!("read of stored key {key:#018x} returned no value"))
            }
            Some(v) if !self.values.contains(v) => self.fail(format!(
                "read of key {key:#018x} returned {v:02x?}, a value the run never wrote"
            )),
            _ => {}
        }
    }

    fn check_scan(&mut self, start: u64, count: usize, out: &[(u64, Vec<u8>)]) {
        if out.len() > count {
            self.fail(format!(
                "scan from {start:#018x} asked for {count} items and returned {}",
                out.len()
            ));
        }
        if out.first().is_some_and(|&(k, _)| k < start) {
            self.fail(format!(
                "scan from {start:#018x} returned a key below its start"
            ));
        }
        if out.windows(2).any(|w| w[0].0 >= w[1].0) {
            self.fail(format!(
                "scan from {start:#018x} returned keys out of order"
            ));
        }
        if let Some((k, v)) = out.iter().find(|(_, v)| !self.values.contains(v)) {
            self.fail(format!(
                "scan from {start:#018x} returned {v:02x?} for key {k:#018x}, a value the run never wrote"
            ));
        }
    }
}

impl Ledger {
    /// A ledger for a deployment preloaded with `preloaded` keys, all set
    /// to `preload_value`. With an `epoch`, calls are recorded as spans
    /// timed from it.
    pub fn new(
        preloaded: Arc<HashSet<u64>>,
        preload_value: Vec<u8>,
        epoch: Option<Instant>,
    ) -> Arc<Self> {
        let state = LedgerState {
            values: BTreeSet::from([preload_value]),
            ..Default::default()
        };
        Arc::new(Ledger {
            recording: AtomicBool::new(false),
            epoch,
            preloaded,
            state: Mutex::new(state),
        })
    }

    /// Starts or stops checking and recording index calls.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Wall-clock nanoseconds since the ledger's epoch (0 when untraced).
    pub fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Whether spans are recorded.
    pub fn traced(&self) -> bool {
        self.epoch.is_some()
    }

    /// The preloaded key set.
    pub fn preloaded(&self) -> &HashSet<u64> {
        &self.preloaded
    }

    /// Locks the mutable state.
    pub fn state(&self) -> MutexGuard<'_, LedgerState> {
        self.state
            .lock()
            .expect("a benchmark thread panicked while holding the ledger")
    }
}

/// A client handle wrapped by the benchmark.
pub struct Checked {
    inner: Box<dyn RangeIndex + Send>,
    ledger: Arc<Ledger>,
    track: u32,
    op_id: u64,
}

impl Checked {
    /// Wraps `inner`; `track` names the handle in the trace.
    pub fn new(inner: Box<dyn RangeIndex + Send>, ledger: Arc<Ledger>, track: u32) -> Self {
        Checked {
            inner,
            ledger,
            track,
            op_id: 0,
        }
    }

    /// The start time of a call, or `None` outside the measured phase.
    fn begin(&self) -> Option<u64> {
        self.ledger
            .recording
            .load(Ordering::SeqCst)
            .then(|| self.ledger.now_ns())
    }

    /// Counts and checks a call of op type `op` begun at `start`, and
    /// records its span.
    fn finish(
        &self,
        op: usize,
        start: Option<u64>,
        check: impl FnOnce(&mut LedgerState, &HashSet<u64>),
    ) {
        let Some(start) = start else { return };
        let end = self.ledger.now_ns();
        let mut st = self.ledger.state();
        st.calls[op] += 1;
        check(&mut st, &self.ledger.preloaded);
        if self.ledger.traced() {
            let parent = st.parent;
            st.spans.push(Span {
                name: SPAN_NAMES[op],
                start_ns: start,
                end_ns: end,
                parent,
                op_id: self.op_id,
                track: self.track + 1,
            });
        }
    }
}

/// Span names of the index calls, by op type.
const SPAN_NAMES: [&str; 4] = ["core.read", "core.update", "core.insert", "core.scan"];

impl RangeIndex for Checked {
    fn insert(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let t0 = self.begin();
        let out = self.inner.insert(key, value);
        self.finish(2, t0, |st, _| match &out {
            Ok(()) => {
                st.inserted.insert(key);
                st.note_value(value);
            }
            Err(e) => st.fail(format!("insert of key {key:#018x} failed: {e:?}")),
        });
        out
    }

    fn search(&mut self, key: u64) -> Option<Vec<u8>> {
        let t0 = self.begin();
        let out = self.inner.search(key);
        self.finish(0, t0, |st, pre| st.check_read(pre, key, out.as_deref()));
        out
    }

    fn update(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        let t0 = self.begin();
        let out = self.inner.update(key, value);
        self.finish(1, t0, |st, _| match &out {
            Ok(true) => st.note_value(value),
            Ok(false) => st.fail(format!("update of stored key {key:#018x} found no key")),
            Err(e) => st.fail(format!("update of key {key:#018x} failed: {e:?}")),
        });
        out
    }

    fn delete(&mut self, key: u64) -> Result<bool, IndexError> {
        self.inner.delete(key)
    }

    fn scan(&mut self, start: u64, count: usize, out: &mut Vec<(u64, Vec<u8>)>) {
        let from = out.len();
        let t0 = self.begin();
        self.inner.scan(start, count, out);
        self.finish(3, t0, |st, _| st.check_scan(start, count, &out[from..]));
    }

    fn stats(&self) -> &ClientStats {
        self.inner.stats()
    }

    fn clock_ns(&self) -> u64 {
        self.inner.clock_ns()
    }

    fn cache_bytes(&self) -> u64 {
        self.inner.cache_bytes()
    }

    fn profile(&self) -> Option<&OpProfile> {
        self.inner.profile()
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.inner.telemetry()
    }

    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.inner.telemetry_mut()
    }

    fn set_trace_id(&mut self, id: u64) {
        self.op_id = id;
        self.inner.set_trace_id(id)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer)
    }

    fn take_tracer(&mut self) -> Option<Tracer> {
        self.inner.take_tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> (LedgerState, HashSet<u64>) {
        let st = LedgerState {
            values: BTreeSet::from([vec![1u8; 8]]),
            ..Default::default()
        };
        (st, HashSet::from([10, 20, 30]))
    }

    #[test]
    fn reads_of_stored_keys_must_return_a_written_value() {
        let (mut st, pre) = state();
        st.check_read(&pre, 10, Some(&[1; 8]));
        st.check_read(&pre, 99, None);
        assert_eq!(st.failed, 0);
        st.check_read(&pre, 20, None);
        st.check_read(&pre, 30, Some(&[2; 8]));
        st.inserted.insert(40);
        st.check_read(&pre, 40, None);
        assert_eq!(st.failed, 3, "{:?}", st.failures);
    }

    #[test]
    fn scans_must_be_ordered_bounded_and_short_enough() {
        let (mut st, _) = state();
        let v = |k: u64| (k, vec![1u8; 8]);
        st.check_scan(10, 3, &[v(10), v(20), v(30)]);
        assert_eq!(st.failed, 0);
        st.check_scan(10, 2, &[v(10), v(20), v(30)]);
        st.check_scan(15, 3, &[v(10), v(20)]);
        st.check_scan(10, 3, &[v(20), v(20)]);
        st.check_scan(10, 3, &[(20, vec![7u8; 8])]);
        assert_eq!(st.failed, 4, "{:?}", st.failures);
    }
}
