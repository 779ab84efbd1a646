//! The CHIME tree: search / insert / update / delete / scan.
//!
//! A [`Chime`] handle owns the shared description of one remote tree
//! (geometry, root-pointer slot). Each compute node creates one [`CnState`]
//! (internal-node cache + hotspot buffer, shared by its clients) and any
//! number of [`ChimeClient`]s, each with its own verb endpoint.
//!
//! The operation protocols follow §4.4 of the paper, including sibling-based
//! validation with the `argmax_keys` corner case, Sherman-style node splits
//! with up-propagation, and hotness-aware speculative reads.

use std::sync::Arc;

use parking_lot::Mutex;

use dmem::hash::{fingerprint16, home_entry};
use dmem::{
    ChunkAlloc, ClientStats, Endpoint, GlobalAddr, IndexError, Phase, Pool, RangeIndex, RetryCause,
};

use crate::backoff::Backoff;
use crate::cache::NodeCache;
use crate::config::ChimeConfig;
use crate::hopscotch::{build_table, Window};
use crate::hotspot::HotspotBuffer;
use crate::internal::{InternalNode, InternalOps};
use crate::layout::{InternalLayout, LeafLayout};
use crate::leaf::{LeafMeta, LeafOps, LockedRead};
use crate::lockword::{LockWord, ARGMAX_NONE};

const OP_RETRY_LIMIT: usize = 100_000;

/// Max split-off leaves a scan will bridge via sibling pointers between two
/// consecutive parent entries before declaring the parent view stale.
const SCAN_BRIDGE_LIMIT: usize = 64;

/// Shared description of one remote CHIME tree.
pub struct Shared {
    pool: Arc<Pool>,
    /// The tree configuration.
    pub cfg: ChimeConfig,
    root_slot: GlobalAddr,
    leaf: LeafOps,
    internal: InternalOps,
}

/// A handle to a CHIME tree on the memory pool.
///
/// # Examples
///
/// ```
/// use chime::{Chime, ChimeConfig};
/// use dmem::{Pool, RangeIndex};
///
/// let pool = Pool::with_defaults(1, 64 << 20);
/// let tree = Chime::create(&pool, ChimeConfig::default(), 0);
/// let cn = tree.new_cn();
/// let mut client = tree.client(&cn);
/// client.insert(7, b"hello").unwrap();
/// assert_eq!(client.search(7).unwrap()[..5], *b"hello");
/// assert!(client.delete(7).unwrap());
/// ```
#[derive(Clone)]
pub struct Chime {
    shared: Arc<Shared>,
}

/// Per-compute-node shared state: the internal-node cache and the hotspot
/// buffer, shared by all clients of that CN.
pub struct CnState {
    cache: Mutex<NodeCache>,
    hotspot: Mutex<HotspotBuffer>,
    root_hint: Mutex<GlobalAddr>,
    lock_table: Arc<dmem::LocalLockTable>,
}

impl CnState {
    /// Bytes of compute-side memory this CN spends on the index.
    pub fn cache_bytes(&self) -> u64 {
        self.cache.lock().bytes() + self.hotspot.lock().bytes()
    }

    /// `(hits, lookups)` of the hotspot buffer.
    pub fn hotspot_stats(&self) -> (u64, u64) {
        self.hotspot.lock().hit_stats()
    }

    /// `(hits, misses)` of the internal-node cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().hit_stats()
    }

    /// `(node cache bytes, hotspot buffer bytes)` currently used.
    pub fn cache_breakdown(&self) -> (u64, u64) {
        (self.cache.lock().bytes(), self.hotspot.lock().bytes())
    }
}

/// Per-client operation counters beyond the raw verb statistics.
#[derive(Debug, Default, Clone)]
pub struct OpCounters {
    /// Speculative reads attempted.
    pub spec_attempts: u64,
    /// Speculative reads that returned the correct value.
    pub spec_hits: u64,
    /// Leaf splits this client performed.
    pub splits: u64,
    /// Sibling chases (half-split windows observed).
    pub chases: u64,
    /// Leaf merges this client performed.
    pub merges: u64,
    /// Compute-side cache invalidations triggered by sibling validation.
    pub invalidations: u64,
}

/// One client of a CHIME tree (implements [`RangeIndex`]).
pub struct ChimeClient {
    shared: Arc<Shared>,
    cn: Arc<CnState>,
    ep: Endpoint,
    alloc: ChunkAlloc,
    /// Operation counters.
    pub counters: OpCounters,
    /// Backoff state for whole-operation optimistic retries; the conflict
    /// streak resets at the start of each operation.
    retry_backoff: Backoff,
    /// One-shot descent override installed by a migration forwarding
    /// tombstone: the next traversal starts from this internal node (the
    /// moved subtree's root) instead of the live root slot.
    forward: Option<GlobalAddr>,
}

/// Result of a sibling chase: either the operation finished, or the chase hit
/// an invalidated node and the whole operation must restart from the root.
enum ChaseOutcome {
    Done(Option<Vec<u8>>),
    Restart,
}

/// Where a traversal landed: the leaf plus validation context.
struct LeafLoc {
    addr: GlobalAddr,
    /// The next child pointer in the parent (sibling-validation expectation);
    /// `None` when the leaf is the parent's last child.
    expected: Option<GlobalAddr>,
    via_cache: bool,
    parent: GlobalAddr,
}

impl Chime {
    /// Creates a new empty tree whose root pointer lives in well-known slot
    /// `slot` of memory node 0.
    pub fn create(pool: &Arc<Pool>, cfg: ChimeConfig, slot: u64) -> Self {
        let t = Self::open(pool, cfg, slot);
        t.bootstrap(ChunkAlloc::with_defaults());
        t
    }

    /// Like [`Chime::create`], but every bootstrap allocation is pinned to
    /// memory node `mn` (partitioned deployments place each partition's
    /// subtree on its home MN). Uses the simulation-scaled chunk size so a
    /// fleet of partition trees does not exhaust the pool on reservation.
    pub fn create_pinned(pool: &Arc<Pool>, cfg: ChimeConfig, slot: u64, mn: u16) -> Self {
        let t = Self::open(pool, cfg, slot);
        t.bootstrap(ChunkAlloc::pinned(dmem::alloc::SIM_CHUNK_SIZE, mn));
        t
    }

    /// Attaches to an existing tree whose root pointer lives in slot `slot`
    /// (no bootstrap writes; the creator already published the root).
    pub fn open(pool: &Arc<Pool>, cfg: ChimeConfig, slot: u64) -> Self {
        cfg.validate();
        let leaf = LeafOps::new(leaf_layout(&cfg)).with_lease_spins(cfg.lock_lease_spins);
        let internal = InternalOps {
            layout: InternalLayout {
                span: cfg.internal_span,
            },
        };
        let shared = Arc::new(Shared {
            pool: Arc::clone(pool),
            cfg,
            root_slot: dmem::root_slot(slot),
            leaf,
            internal,
        });
        Chime { shared }
    }

    fn bootstrap(&self, mut alloc: ChunkAlloc) {
        let s = &self.shared;
        let mut ep = Endpoint::new(Arc::clone(&s.pool));
        let leaf_addr = alloc
            .alloc(&mut ep, s.leaf.layout.node_size() as u64)
            .expect("pool too small for bootstrap");
        let w = Window::new(s.cfg.span, s.cfg.neighborhood, 0, s.cfg.span);
        let meta = LeafMeta {
            sibling: GlobalAddr::NULL,
            valid: true,
            fences: s.leaf.layout.fences.then_some((0, u64::MAX)),
        };
        s.leaf.write_new(&mut ep, leaf_addr, &w, &meta);
        let root_addr = alloc
            .alloc(&mut ep, s.internal.layout.node_size() as u64)
            .expect("pool too small for bootstrap");
        let root = InternalNode {
            addr: root_addr,
            level: 1,
            valid: true,
            fence_low: 0,
            fence_high: u64::MAX,
            sibling: GlobalAddr::NULL,
            entries: vec![(0, leaf_addr)],
            nv: 0,
        };
        s.internal.write_new(&mut ep, &root);
        ep.write(s.root_slot, &root_addr.raw().to_le_bytes());
    }

    /// Creates the shared state for one compute node.
    pub fn new_cn(&self) -> Arc<CnState> {
        Arc::new(CnState {
            cache: Mutex::new(NodeCache::new(self.shared.cfg.cache_bytes)),
            hotspot: Mutex::new(HotspotBuffer::new(self.shared.cfg.hotspot_bytes)),
            root_hint: Mutex::new(GlobalAddr::NULL),
            lock_table: Arc::new(dmem::LocalLockTable::new()),
        })
    }

    /// Creates a client attached to compute node `cn`.
    pub fn client(&self, cn: &Arc<CnState>) -> ChimeClient {
        self.client_with_endpoint(cn, Endpoint::new(Arc::clone(&self.shared.pool)))
    }

    /// Creates a client whose node allocations (splits, indirect values)
    /// are pinned to memory node `mn` — see [`ChunkAlloc::pinned`].
    pub fn client_pinned(&self, cn: &Arc<CnState>, mn: u16) -> ChimeClient {
        let mut c = self.client(cn);
        c.alloc = ChunkAlloc::pinned(dmem::alloc::SIM_CHUNK_SIZE, mn);
        c
    }

    /// Creates a client over a pre-built endpoint (e.g. one wired to a
    /// [`dmem::FaultSession`] for fault-injection runs).
    pub fn client_with_endpoint(&self, cn: &Arc<CnState>, mut ep: Endpoint) -> ChimeClient {
        if self.shared.cfg.trace_events > 0 && ep.tracer().is_none() {
            ep.set_tracer(dmem::Tracer::new(
                ep.client_id(),
                self.shared.cfg.trace_events,
            ));
        }
        let seed = 0xC1BE_u64 ^ ((ep.client_id() as u64) << 32);
        ChimeClient {
            shared: Arc::clone(&self.shared),
            cn: Arc::clone(cn),
            ep,
            alloc: ChunkAlloc::sim_scaled(),
            counters: OpCounters::default(),
            retry_backoff: Backoff::new(seed),
            forward: None,
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> &ChimeConfig {
        &self.shared.cfg
    }

    /// Builds a detached [`TreeBinding`] for this tree. `home` pins the
    /// binding's allocator to that memory node (partitioned deployments);
    /// `None` round-robins allocations as usual.
    pub fn binding(&self, cn: &Arc<CnState>, home: Option<u16>) -> TreeBinding {
        TreeBinding {
            shared: Arc::clone(&self.shared),
            cn: Arc::clone(cn),
            alloc: match home {
                Some(mn) => ChunkAlloc::pinned(dmem::alloc::SIM_CHUNK_SIZE, mn),
                None => ChunkAlloc::sim_scaled(),
            },
        }
    }
}

/// A client's attachment to one tree: the root slot and geometry, the
/// CN-local cache state, and the allocator that places the tree's new
/// nodes. A partition router holds one binding per partition and swaps
/// them through a single [`ChimeClient`] (see [`ChimeClient::rebind`]),
/// so one endpoint — one clock, one statistics block, one phase profile —
/// serves the whole key space.
pub struct TreeBinding {
    shared: Arc<Shared>,
    cn: Arc<CnState>,
    alloc: ChunkAlloc,
}

/// Derives the leaf geometry from a configuration.
pub fn leaf_layout(cfg: &ChimeConfig) -> LeafLayout {
    LeafLayout {
        span: cfg.span,
        h: cfg.neighborhood,
        key_size: cfg.key_size,
        value_size: if cfg.indirect_values { 8 } else { cfg.value_size },
        replication: cfg.metadata_replication,
        fences: !cfg.sibling_validation,
        piggyback: cfg.vacancy_piggyback,
    }
}

impl ChimeClient {
    /// The span/event trace of this client, when `cfg.trace_events > 0`.
    pub fn tracer(&self) -> Option<&dmem::Tracer> {
        self.ep.tracer()
    }

    /// Detaches and returns this client's tracer (e.g. for JSONL export).
    pub fn take_tracer(&mut self) -> Option<dmem::Tracer> {
        self.ep.take_tracer()
    }

    /// Advances this client's virtual clock by `ns`, attributing the time
    /// to `phase`. The serve layer charges request decode, admission waits,
    /// backpressure deferrals and response encoding through this, so those
    /// costs land in the same phase taxonomy (and, under the coroutine
    /// engine, park the lane like any other virtual-time advance).
    pub fn advance_phase(&mut self, phase: Phase, ns: u64) {
        let frame = self.ep.phase_begin(phase);
        self.ep.advance_clock(ns);
        self.ep.phase_end(frame);
    }

    fn leaf(&self) -> LeafOps {
        self.shared.leaf
    }

    fn span(&self) -> usize {
        self.shared.cfg.span
    }

    fn h(&self) -> usize {
        self.shared.cfg.neighborhood
    }

    /// Queues locally for a remote node lock (Sherman's local lock table):
    /// contending clients of one CN hand the lock over locally instead of
    /// hammering the MN with CAS retries.
    fn local_lock(&mut self, addr: GlobalAddr) -> dmem::LocalLockGuard {
        let table = Arc::clone(&self.cn.lock_table);
        table.acquire_with(addr.raw(), &mut self.ep)
    }

    /// Runs `f` with `phase` as the active attribution phase.
    fn in_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        let fr = self.ep.phase_begin(phase);
        let r = f(self);
        self.ep.phase_end(fr);
        r
    }

    /// Records a whole-operation optimistic retry attributed to its root
    /// `cause` and backs off with seeded jitter before the next attempt.
    fn on_op_conflict(&mut self, cause: RetryCause) {
        self.ep.note_op_retry(cause);
        let fr = self.ep.phase_begin(Phase::RetryBackoff);
        self.retry_backoff.wait(&mut self.ep);
        self.ep.phase_end(fr);
    }

    /// Reads the root pointer slot and refreshes the CN-wide hint.
    fn refresh_root(&mut self) -> GlobalAddr {
        let fr = self.ep.phase_begin(Phase::Traversal);
        let mut b = [0u8; 8];
        self.ep.read(self.shared.root_slot, &mut b);
        self.ep.phase_end(fr);
        let addr = GlobalAddr::from_raw(u64::from_le_bytes(b));
        *self.cn.root_hint.lock() = addr;
        addr
    }

    fn root(&mut self) -> GlobalAddr {
        let hint = *self.cn.root_hint.lock();
        if hint.is_null() {
            self.refresh_root()
        } else {
            hint
        }
    }

    /// Where the next traversal starts: a pending forwarding target if a
    /// migration tombstone installed one, otherwise the (hinted) root.
    fn descent_origin(&mut self) -> GlobalAddr {
        match self.forward.take() {
            Some(f) => f,
            None => self.root(),
        }
    }

    /// Reacts to an invalid leaf observed mid-operation. A leaf retired by
    /// a partition migration carries a forwarding pointer (invalid, sibling
    /// non-null: the destination tree's root internal node) — when `follow`
    /// is set, the next descent restarts from there, keeping the operation
    /// wait-free while a crashed migration leaves the live root stale.
    /// Searches, updates and deletes follow (they never split, so they
    /// cannot up-propagate pivots into the wrong tree's internals); inserts
    /// and scans do not — they retry through the live root until recovery
    /// republishes it. A leaf retired by a merge (sibling null) always
    /// falls back to a root refresh. Either way the cached parent route is
    /// dropped.
    fn on_invalid_leaf(&mut self, parent: GlobalAddr, tombstone_sibling: GlobalAddr, follow: bool) {
        self.cn.cache.lock().invalidate(parent);
        if follow && !tombstone_sibling.is_null() {
            self.counters.chases += 1;
            self.forward = Some(tombstone_sibling);
        }
        // Either way, re-read the root slot: a tombstone means this
        // partition is (or was) migrating, and once the switch has
        // published, the refreshed CN-wide hint sends every subsequent
        // descent straight to the live tree instead of chasing the forward
        // on each operation. Before the switch the slot still names the
        // old root and the chase repeats — correct, just slower.
        self.refresh_root();
        self.on_op_conflict(RetryCause::StaleRoute);
    }

    /// Reads an internal node through the CN cache; remote reads populate it.
    fn read_internal_cached(&mut self, addr: GlobalAddr, key: u64) -> (InternalNode, bool) {
        let hit = self.in_phase(Phase::CacheLookup, |me| {
            me.cn.cache.lock().get(addr).filter(|n| n.covers(key))
        });
        if let Some(n) = hit {
            return (n, true);
        }
        let n = self.shared.internal.read(&mut self.ep, addr);
        if n.valid {
            self.cn.cache.lock().insert(n.clone());
        }
        (n, false)
    }

    /// Traverses internal levels down to the parent of the target leaf.
    fn locate_leaf(&mut self, key: u64) -> LeafLoc {
        let fr = self.ep.phase_begin(Phase::Traversal);
        let loc = self.locate_leaf_inner(key);
        self.ep.phase_end(fr);
        loc
    }

    fn locate_leaf_inner(&mut self, key: u64) -> LeafLoc {
        let mut addr = self.descent_origin();
        for _ in 0..OP_RETRY_LIMIT {
            let (node, via_cache) = self.read_internal_cached(addr, key);
            if !node.valid {
                self.cn.cache.lock().invalidate(addr);
                addr = self.refresh_root();
                self.on_op_conflict(RetryCause::StaleRoute);
                continue;
            }
            if !node.covers(key) {
                if key >= node.fence_high && !node.sibling.is_null() {
                    // B-link lateral move (half-split at this level).
                    addr = node.sibling;
                } else {
                    addr = self.refresh_root();
                    self.on_op_conflict(RetryCause::StaleRoute);
                }
                continue;
            }
            let (child, mut next) = node.select(key);
            if node.level == 1 {
                if next.is_none() && !node.sibling.is_null() {
                    // The leaf is its parent's last child: the expected
                    // sibling pointer is the *first child of the parent's
                    // B-link sibling* (usually cached). Without it, every
                    // interior last-child access would look half-split.
                    next = self.first_child_of(node.sibling);
                }
                return LeafLoc {
                    addr: child,
                    expected: next,
                    via_cache,
                    parent: node.addr,
                };
            }
            addr = child;
        }
        panic!("locate_leaf retry limit for key {key}");
    }

    /// First child pointer of the internal node at `addr` (cached when
    /// possible). Used to resolve the expected sibling of last children.
    fn first_child_of(&mut self, addr: GlobalAddr) -> Option<GlobalAddr> {
        if let Some(n) = self.cn.cache.lock().get(addr) {
            return n.entries.first().map(|e| e.1);
        }
        let n = self.shared.internal.read(&mut self.ep, addr);
        if !n.valid {
            return None;
        }
        self.cn.cache.lock().insert(n.clone());
        n.entries.first().map(|e| e.1)
    }

    /// Like [`Self::locate_leaf`] but returns the parent node itself
    /// (used by scans to batch-read consecutive leaves).
    fn locate_parent(&mut self, key: u64) -> InternalNode {
        let fr = self.ep.phase_begin(Phase::Traversal);
        let node = self.locate_parent_inner(key);
        self.ep.phase_end(fr);
        node
    }

    fn locate_parent_inner(&mut self, key: u64) -> InternalNode {
        let mut addr = self.descent_origin();
        for _ in 0..OP_RETRY_LIMIT {
            let (node, _) = self.read_internal_cached(addr, key);
            if !node.valid {
                addr = self.refresh_root();
                self.on_op_conflict(RetryCause::StaleRoute);
                continue;
            }
            if !node.covers(key) {
                if key >= node.fence_high && !node.sibling.is_null() {
                    addr = node.sibling;
                } else {
                    addr = self.refresh_root();
                    self.on_op_conflict(RetryCause::StaleRoute);
                }
                continue;
            }
            if node.level == 1 {
                return node;
            }
            let (child, _) = node.select(key);
            addr = child;
        }
        panic!("locate_parent retry limit for key {key}");
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    fn search_impl(&mut self, key: u64) -> Option<Vec<u8>> {
        assert_ne!(key, 0, "key 0 is reserved");
        self.retry_backoff.reset();
        let cfg = self.shared.cfg;
        let span = self.span();
        let h = self.h();
        let fp = fingerprint16(key);
        let home = home_entry(key, span);
        for attempt in 0..OP_RETRY_LIMIT {
            let loc = self.locate_leaf(key);
            // Hotness-aware speculative read (§4.3).
            if cfg.speculative_read && cfg.hotspot_bytes > 0 {
                let idx = {
                    let mut buf = self.cn.hotspot.lock();
                    buf.lookup(loc.addr, (0..h).map(|d| ((home + d) % span) as u16), fp)
                };
                if let Some(idx) = idx {
                    if let Some(v) = self.try_speculative_read(loc.addr, idx, key, fp) {
                        return Some(v);
                    }
                }
            }
            let r = self
                .in_phase(Phase::LeafRead, |me| {
                    me.leaf().read_neighborhood(&mut me.ep, loc.addr, key)
                });
            if !r.meta.valid {
                self.on_invalid_leaf(loc.parent, r.meta.sibling, true);
                continue;
            }
            // Fence-key validation path (sibling validation disabled).
            if let Some((lo, hi)) = r.meta.fences {
                if key < lo {
                    self.cn.cache.lock().invalidate(loc.parent);
                    self.refresh_root();
                    self.on_op_conflict(RetryCause::StaleRoute);
                    continue;
                }
                if !dmem::hash::in_range(key, lo, hi) {
                    self.counters.chases += 1;
                    self.cn.cache.lock().invalidate(loc.parent);
                    let out = self
                        .in_phase(Phase::Validate, |me| me.chase_fences(r.meta.sibling, key));
                    return match out {
                        ChaseOutcome::Done(v) => v,
                        ChaseOutcome::Restart => self.search_impl(key),
                    };
                }
            }
            if let Some((idx, v)) = r.found {
                self.ep.note_app_bytes(cfg.value_size as u64 + 8);
                if cfg.hotspot_bytes > 0 {
                    self.cn.hotspot.lock().on_access(loc.addr, idx as u16, fp);
                }
                return Some(self.resolve_value(v));
            }
            if r.meta.fences.is_some() {
                return None; // fences proved ownership; the key is absent
            }
            // Sibling-based validation (§4.2.3).
            match loc.expected {
                Some(e) if r.meta.sibling == e => return None,
                None if r.meta.sibling.is_null() => return None,
                _ => {
                    if loc.via_cache && attempt == 0 {
                        // Cache validation: refresh the parent and retry.
                        self.counters.invalidations += 1;
                        self.cn.cache.lock().invalidate(loc.parent);
                        self.on_op_conflict(RetryCause::StaleSibling);
                        continue;
                    }
                    // Half-split window: chase the sibling chain.
                    self.counters.chases += 1;
                    let out = self.in_phase(Phase::Validate, |me| me.chase(loc.addr, key));
                    return match out {
                        ChaseOutcome::Done(v) => v,
                        ChaseOutcome::Restart => self.search_impl(key),
                    };
                }
            }
        }
        panic!("search retry limit for key {key}");
    }

    /// Reads the hotspot-predicted slot directly (the speculative read),
    /// returning the value on a hit.
    fn try_speculative_read(
        &mut self,
        addr: GlobalAddr,
        idx: u16,
        key: u64,
        fp: u16,
    ) -> Option<Vec<u8>> {
        let fr = self.ep.phase_begin(Phase::SpeculativeRead);
        self.counters.spec_attempts += 1;
        let mut out = None;
        if let Some(v) = self.leaf().spec_read(&mut self.ep, addr, idx as usize, key) {
            self.counters.spec_hits += 1;
            self.ep
                .note_app_bytes(self.shared.cfg.value_size as u64 + 8);
            self.cn.hotspot.lock().on_access(addr, idx, fp);
            out = Some(self.resolve_value(v));
        }
        self.ep.phase_end(fr);
        out
    }

    /// Sibling chase with whole-node reads (sibling-validation mode).
    /// `Restart` tells the caller to re-run the whole operation (outside the
    /// validate phase, so the restart is attributed to its own phases).
    fn chase(&mut self, mut addr: GlobalAddr, key: u64) -> ChaseOutcome {
        for _ in 0..OP_RETRY_LIMIT {
            let snap = self.leaf().read_full(&mut self.ep, addr);
            if !snap.meta.valid {
                return ChaseOutcome::Restart;
            }
            if let Some((_, v)) = snap.find(key, self.h()) {
                let v = v.to_vec();
                return ChaseOutcome::Done(Some(self.resolve_value(v)));
            }
            match snap.max_key() {
                Some(mx) if mx >= key => return ChaseOutcome::Done(None),
                _ => {}
            }
            if snap.meta.sibling.is_null() {
                return ChaseOutcome::Done(None);
            }
            addr = snap.meta.sibling;
        }
        panic!("chase retry limit for key {key}");
    }

    /// Sibling chase guided by fence keys (fence mode).
    fn chase_fences(&mut self, mut addr: GlobalAddr, key: u64) -> ChaseOutcome {
        for _ in 0..OP_RETRY_LIMIT {
            if addr.is_null() {
                return ChaseOutcome::Done(None);
            }
            let r = self.leaf().read_neighborhood(&mut self.ep, addr, key);
            if !r.meta.valid {
                return ChaseOutcome::Restart;
            }
            let (lo, hi) = r.meta.fences.expect("fence mode");
            if key < lo {
                return ChaseOutcome::Restart;
            }
            if !dmem::hash::in_range(key, lo, hi) {
                addr = r.meta.sibling;
                continue;
            }
            let v = r.found.map(|(_, v)| v).map(|v| self.resolve_value(v));
            return ChaseOutcome::Done(v);
        }
        panic!("fence chase retry limit for key {key}");
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Decides whether the locked leaf still owns `key`; on a half-split it
    /// returns the sibling the caller should move to.
    fn owns_key(
        &mut self,
        key: u64,
        loc_expected: Option<GlobalAddr>,
        lr: &LockedRead,
    ) -> Option<GlobalAddr> {
        if let Some((lo, hi)) = lr.meta.fences {
            // Fence mode: exact ownership.
            if !dmem::hash::in_range(key, lo, hi) {
                return Some(lr.meta.sibling);
            }
            assert!(key >= lo, "routed below fence_low");
            return None;
        }
        match loc_expected {
            Some(e) if lr.meta.sibling == e => None,
            _ if lr.meta.sibling.is_null() => None,
            _ => match lr.max_key {
                // Empty node ⇒ no split happened ⇒ routing was valid.
                None => None,
                // key <= max is always sound: a split leaves only keys
                // below the propagated pivot behind, so max < pivot.
                Some(mx) if key <= mx => None,
                // key > max: the key is definitely NOT here. Searches,
                // updates and deletes may chase the chain (presence checks
                // are sound); inserts must NOT place the key by this
                // heuristic — deletes can open a gap below the pivot — and
                // instead re-traverse from a fresh parent (see insert_impl).
                Some(_) => Some(lr.meta.sibling),
            },
        }
    }

    fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        self.retry_backoff.reset();
        let stored = self.store_value(key, value)?;
        let span = self.span();
        let home = home_entry(key, span);
        let mut override_addr: Option<GlobalAddr> = None;
        for _ in 0..OP_RETRY_LIMIT {
            let (addr, expected, parent) = match override_addr.take() {
                Some(a) => (a, None, GlobalAddr::NULL),
                None => {
                    let loc = self.locate_leaf(key);
                    (loc.addr, loc.expected, loc.parent)
                }
            };
            // On an ownership miss in sibling-validation mode, inserts must
            // not trust the rightward heuristic (unsound under deletes);
            // they invalidate the cached parent and re-traverse until the
            // pending split has propagated.
            let mut on_miss = |me: &mut Self, next: GlobalAddr, fenced: bool| {
                if fenced {
                    override_addr = Some(next);
                } else {
                    me.cn.cache.lock().invalidate(parent);
                    me.refresh_root();
                }
            };
            if !self.shared.cfg.vacancy_piggyback {
                // Without the vacancy bitmap the insert cannot identify the
                // hop range remotely: lock and fetch the entire leaf
                // (the paper's pre-piggybacking baseline).
                let _lk = self.local_lock(addr);
                let word = self
                    .in_phase(Phase::LockAcquire, |me| me.leaf().lock_plain(&mut me.ep, addr));
                let lr = self
                    .in_phase(Phase::LeafRead, |me| {
                        me.leaf().read_full_locked(&mut me.ep, addr, word)
                    });
                if !lr.meta.valid {
                    self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                    self.on_invalid_leaf(parent, lr.meta.sibling, false);
                    continue;
                }
                if let Some(next) = self.owns_key(key, expected, &lr) {
                    self.counters.chases += 1;
                    let fenced = lr.meta.fences.is_some();
                    self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                    on_miss(self, next, fenced);
                    self.on_op_conflict(RetryCause::StaleSibling);
                    continue;
                }
                match self.insert_into_full_window(addr, word, lr, key, &stored)? {
                    true => return Ok(()),
                    false => continue,
                }
            }
            let _lk = self.local_lock(addr);
            let word = self.in_phase(Phase::LockAcquire, |me| me.leaf().lock(&mut me.ep, addr));
            let Some(mut lr) = self.in_phase(Phase::LeafRead, |me| {
                me.leaf().read_hop_window(&mut me.ep, addr, home, word)
            }) else {
                // Vacancy bitmap shows a full node: read everything & split.
                let lr = self
                    .in_phase(Phase::LeafRead, |me| {
                        me.leaf().read_full_locked(&mut me.ep, addr, word)
                    });
                if !lr.meta.valid {
                    self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                    self.on_invalid_leaf(parent, lr.meta.sibling, false);
                    continue;
                }
                if let Some(next) = self.owns_key(key, expected, &lr) {
                    let fenced = lr.meta.fences.is_some();
                    self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                    on_miss(self, next, fenced);
                    self.on_op_conflict(RetryCause::StaleSibling);
                    continue;
                }
                self.split_leaf(addr, lr)?;
                continue;
            };
            if !lr.meta.valid {
                // The leaf was merged away or migrated: drop the stale route.
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                self.on_invalid_leaf(parent, lr.meta.sibling, false);
                continue;
            }
            if let Some(next) = self.owns_key(key, expected, &lr) {
                self.counters.chases += 1;
                let fenced = lr.meta.fences.is_some();
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                on_miss(self, next, fenced);
                self.on_op_conflict(RetryCause::StaleSibling);
                continue;
            }
            // Duplicate: update in place.
            if let Some(pos) = lr.w.find_in_neighborhood(key) {
                lr.w.set_value(pos, stored.clone());
                self.in_phase(Phase::WriteBack, |me| {
                    let leaf = me.leaf();
                    leaf.write_window_and_unlock(
                        &mut me.ep,
                        addr,
                        &lr.w,
                        &lr.evs,
                        lr.nv,
                        &lr.meta,
                        word,
                    );
                });
                return Ok(());
            }
            // Find the true first empty slot at/after home in the window.
            let Some(empty) = lr.w.first_empty_from(home) else {
                // The vacant group's empties sat before `home` (conservative
                // bitmap): fall back to a full-node window.
                let lr_full = self.in_phase(Phase::LeafRead, |me| {
                    me.leaf().read_full_locked(&mut me.ep, addr, word)
                });
                match self.insert_into_full_window(addr, word, lr_full, key, &stored)? {
                    true => return Ok(()),
                    false => continue,
                }
            };
            match lr.w.insert(key, stored.clone(), empty) {
                Ok(pos) => {
                    let new_word = self.word_after_insert(&lr, word, key, pos, empty);
                    self.in_phase(Phase::WriteBack, |me| {
                        let leaf = me.leaf();
                        leaf.write_window_and_unlock(
                            &mut me.ep,
                            addr,
                            &lr.w,
                            &lr.evs,
                            lr.nv,
                            &lr.meta,
                            new_word,
                        );
                    });
                    return Ok(());
                }
                Err(_) => {
                    // No feasible hopping: split.
                    let lr_full = self.in_phase(Phase::LeafRead, |me| {
                    me.leaf().read_full_locked(&mut me.ep, addr, word)
                });
                    self.split_leaf(addr, lr_full)?;
                    continue;
                }
            }
        }
        panic!("insert retry limit for key {key}");
    }

    /// Inserts into a freshly read full-node window; returns `Ok(true)` on
    /// success, `Ok(false)` to retry after a split.
    fn insert_into_full_window(
        &mut self,
        addr: GlobalAddr,
        word: LockWord,
        mut lr: LockedRead,
        key: u64,
        stored: &[u8],
    ) -> Result<bool, IndexError> {
        let home = home_entry(key, self.span());
        if let Some(pos) = lr.w.find_in_neighborhood(key) {
            lr.w.set_value(pos, stored.to_vec());
            self.in_phase(Phase::WriteBack, |me| {
                let leaf = me.leaf();
                leaf.write_window_and_unlock(&mut me.ep, addr, &lr.w, &lr.evs, lr.nv, &lr.meta, word);
            });
            return Ok(true);
        }
        let empty = (0..self.span())
            .map(|d| (home + d) % self.span())
            .find(|&i| lr.w.slot_empty(i));
        let Some(empty) = empty else {
            self.split_leaf(addr, lr)?;
            return Ok(false);
        };
        match lr.w.insert(key, stored.to_vec(), empty) {
            Ok(pos) => {
                let new_word = self.word_after_insert(&lr, word, key, pos, empty);
                self.in_phase(Phase::WriteBack, |me| {
                    let leaf = me.leaf();
                    leaf.write_window_and_unlock(
                        &mut me.ep,
                        addr,
                        &lr.w,
                        &lr.evs,
                        lr.nv,
                        &lr.meta,
                        new_word,
                    );
                });
                Ok(true)
            }
            Err(_) => {
                self.split_leaf(addr, lr)?;
                Ok(false)
            }
        }
    }

    /// Computes the post-insert lock word (vacancy + argmax).
    fn word_after_insert(
        &self,
        lr: &LockedRead,
        word: LockWord,
        key: u64,
        pos: usize,
        empty: usize,
    ) -> LockWord {
        let w = &lr.w;
        let vm = self.leaf().vm;
        // Only `empty`'s occupancy changed; recompute its group exactly.
        let g = vm.group_of(empty);
        let (gs, ge) = vm.group_range(g);
        let any_empty = (gs..=ge).any(|i| w.rel(i).map(|_| w.slot_empty(i)).unwrap_or(false));
        let mut new_word = word.with_vacancy_bit(g, any_empty);
        // Track the maximum key's position.
        let new_max = match lr.max_key {
            None => Some(pos),
            Some(mx) if key > mx => Some(pos),
            Some(mx) => {
                // The old max may have been hopped to a new slot.
                let old_am = word.argmax() as usize % self.span();
                if w.rel(old_am).is_some() && w.slot(old_am).0 != mx {
                    Some(
                        (0..self.span())
                            .filter(|&i| w.rel(i).is_some())
                            .find(|&i| w.slot(i).0 == mx)
                            .expect("max key vanished during hop"),
                    )
                } else {
                    None
                }
            }
        };
        if let Some(am) = new_max {
            new_word = new_word.with_argmax(am as u16);
        }
        new_word
    }

    fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        self.retry_backoff.reset();
        let stored = self.store_value(key, value)?;
        let span = self.span();
        let home = home_entry(key, span);
        let mut override_addr: Option<GlobalAddr> = None;
        for _ in 0..OP_RETRY_LIMIT {
            let (addr, expected, parent) = match override_addr.take() {
                Some(a) => (a, None, GlobalAddr::NULL),
                None => {
                    let loc = self.locate_leaf(key);
                    (loc.addr, loc.expected, loc.parent)
                }
            };
            let _lk = self.local_lock(addr);
            let word = self.in_phase(Phase::LockAcquire, |me| {
                if me.shared.cfg.vacancy_piggyback {
                    me.leaf().lock(&mut me.ep, addr)
                } else {
                    me.leaf().lock_plain(&mut me.ep, addr)
                }
            });
            let mut lr = self.in_phase(Phase::LeafRead, |me| {
                me.leaf().read_nbh_window(&mut me.ep, addr, home, word)
            });
            if !lr.meta.valid {
                // The leaf was merged away or migrated: drop the stale route.
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                self.on_invalid_leaf(parent, lr.meta.sibling, true);
                continue;
            }
            if let Some(next) = self.owns_key(key, expected, &lr) {
                self.counters.chases += 1;
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                if next.is_null() {
                    return Ok(false);
                }
                override_addr = Some(next);
                self.on_op_conflict(RetryCause::StaleSibling);
                continue;
            }
            let Some(pos) = lr.w.find_in_neighborhood(key) else {
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                return Ok(false);
            };
            lr.w.set_value(pos, stored);
            self.in_phase(Phase::WriteBack, |me| {
                let leaf = me.leaf();
                leaf.write_window_and_unlock(&mut me.ep, addr, &lr.w, &lr.evs, lr.nv, &lr.meta, word);
            });
            return Ok(true);
        }
        panic!("update retry limit for key {key}");
    }

    fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        self.retry_backoff.reset();
        let span = self.span();
        let home = home_entry(key, span);
        let mut override_addr: Option<GlobalAddr> = None;
        for _ in 0..OP_RETRY_LIMIT {
            let (addr, expected, parent) = match override_addr.take() {
                Some(a) => (a, None, GlobalAddr::NULL),
                None => {
                    let loc = self.locate_leaf(key);
                    (loc.addr, loc.expected, loc.parent)
                }
            };
            let _lk = self.local_lock(addr);
            let word = self.in_phase(Phase::LockAcquire, |me| {
                if me.shared.cfg.vacancy_piggyback {
                    me.leaf().lock(&mut me.ep, addr)
                } else {
                    me.leaf().lock_plain(&mut me.ep, addr)
                }
            });
            let mut lr = self.in_phase(Phase::LeafRead, |me| {
                me.leaf().read_nbh_window(&mut me.ep, addr, home, word)
            });
            if !lr.meta.valid {
                // The leaf was merged away or migrated: drop the stale route.
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                self.on_invalid_leaf(parent, lr.meta.sibling, true);
                continue;
            }
            if let Some(next) = self.owns_key(key, expected, &lr) {
                self.counters.chases += 1;
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                if next.is_null() {
                    return Ok(false);
                }
                override_addr = Some(next);
                self.on_op_conflict(RetryCause::StaleSibling);
                continue;
            }
            if lr.w.find_in_neighborhood(key).is_none() {
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                return Ok(false);
            }
            // Deleting the maximum key requires recomputing argmax from the
            // whole node.
            let deleting_max = lr.max_key == Some(key);
            if deleting_max {
                lr = self.in_phase(Phase::LeafRead, |me| {
                    me.leaf().read_full_locked(&mut me.ep, addr, word)
                });
            }
            let pos = lr
                .w
                .find_in_neighborhood(key)
                .expect("key vanished under lock");
            lr.w.remove(pos);
            let vm = self.leaf().vm;
            let mut new_word = word.with_vacancy_bit(vm.group_of(pos), true);
            if deleting_max {
                let am = (0..span)
                    .filter(|&i| !lr.w.slot_empty(i))
                    .max_by_key(|&i| lr.w.slot(i).0);
                new_word = new_word.with_argmax(am.map(|i| i as u16).unwrap_or(ARGMAX_NONE));
            }
            // Underflow check (§4.4 Delete): when the whole node was in
            // hand and it dropped below a quarter full, attempt a merge
            // with the right sibling after the delete completes.
            let underflow = deleting_max
                && (0..span).filter(|&i| !lr.w.slot_empty(i)).count() <= span / 4;
            let probe = if underflow {
                (0..span)
                    .filter(|&i| !lr.w.slot_empty(i))
                    .map(|i| lr.w.slot(i).0)
                    .next()
            } else {
                None
            };
            self.in_phase(Phase::WriteBack, |me| {
                let leaf = me.leaf();
                leaf.write_window_and_unlock(
                    &mut me.ep,
                    addr,
                    &lr.w,
                    &lr.evs,
                    lr.nv,
                    &lr.meta,
                    new_word,
                );
            });
            if underflow {
                // Best-effort merge; drop the local guard first so the
                // merge can take locks in parent-first order.
                drop(_lk);
                self.try_merge(addr, probe.unwrap_or(key));
            }
            return Ok(true);
        }
        panic!("delete retry limit for key {key}");
    }

    /// Best-effort merge of the underflowed leaf `addr` with its right
    /// sibling *under the same parent* (merging across parent boundaries
    /// would break routing).
    ///
    /// Lock order: parent -> left leaf -> right leaf. Holding the parent
    /// throughout pins both pivots (no racing parent split can move them),
    /// so the pivot removal is a plain in-place rewrite. Leaf locks are
    /// taken without the CN-local table here: remote holders always release
    /// their leaf lock before waiting on a parent, so the spin is bounded
    /// and the parent-first order introduces no cycle.
    fn try_merge(&mut self, addr: GlobalAddr, probe_key: u64) {
        let cfg = self.shared.cfg;
        // Find and lock the (fresh) parent of `addr`.
        let parent_addr = self.locate_parent(probe_key).addr;
        let _pk = self.local_lock(parent_addr);
        self.in_phase(Phase::LockAcquire, |me| {
            me.shared.internal.lock(&mut me.ep, parent_addr)
        });
        let mut parent = self
            .in_phase(Phase::Traversal, |me| {
                me.shared.internal.read(&mut me.ep, parent_addr)
            });
        let unlock_parent = |me: &mut Self| {
            me.in_phase(Phase::WriteBack, |m| {
                m.shared.internal.unlock(&mut m.ep, parent_addr)
            });
        };
        if !parent.valid {
            return unlock_parent(self);
        }
        let Some(i) = parent.entries.iter().position(|e| e.1 == addr) else {
            return unlock_parent(self);
        };
        let Some(&(sib_pivot, sib)) = parent.entries.get(i + 1) else {
            return unlock_parent(self); // last child: partner elsewhere
        };
        // Lock and re-validate the left leaf.
        let xword = self.in_phase(Phase::LockAcquire, |me| me.leaf().lock(&mut me.ep, addr));
        let xlr = self.in_phase(Phase::LeafRead, |me| {
            me.leaf().read_full_locked(&mut me.ep, addr, xword)
        });
        let span = cfg.span;
        let xcount = (0..span).filter(|&j| !xlr.w.slot_empty(j)).count();
        if !xlr.meta.valid || xlr.meta.sibling != sib || xcount > span / 4 {
            self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, xword));
            return unlock_parent(self);
        }
        // Lock the right leaf and check the combined fit.
        let sword = self.in_phase(Phase::LockAcquire, |me| me.leaf().lock(&mut me.ep, sib));
        let slr = self.in_phase(Phase::LeafRead, |me| {
            me.leaf().read_full_locked(&mut me.ep, sib, sword)
        });
        let mut items: Vec<(u64, Vec<u8>)> = Vec::new();
        for w in [&xlr.w, &slr.w] {
            for j in 0..span {
                if !w.slot_empty(j) {
                    let (k, v, _) = w.slot(j);
                    items.push((k, v.to_vec()));
                }
            }
        }
        let merged = if !slr.meta.valid || items.len() > (span * 2) / 3 {
            None
        } else {
            build_table(span, cfg.neighborhood, &items)
        };
        let Some(merged) = merged else {
            self.in_phase(Phase::WriteBack, |me| {
                me.leaf().unlock(&mut me.ep, sib, sword);
                me.leaf().unlock(&mut me.ep, addr, xword);
            });
            return unlock_parent(self);
        };
        self.counters.merges += 1;
        // Publish order: merged left node (all keys stay reachable) ->
        // invalidate the right node -> drop its pivot from the parent.
        let (old_lo, _) = xlr.meta.fences.unwrap_or((0, u64::MAX));
        let (_, sib_hi) = slr.meta.fences.unwrap_or((0, u64::MAX));
        let meta = LeafMeta {
            sibling: slr.meta.sibling,
            valid: true,
            fences: self.leaf().layout.fences.then_some((old_lo, sib_hi)),
        };
        self.in_phase(Phase::WriteBack, |me| {
            me.leaf()
                .rewrite_and_unlock(&mut me.ep, addr, &merged, xlr.nv, &meta)
        });
        let empty = Window::new(span, cfg.neighborhood, 0, span);
        let dead = LeafMeta {
            sibling: GlobalAddr::NULL,
            valid: false,
            fences: self.leaf().layout.fences.then_some((sib_pivot, sib_pivot)),
        };
        self.in_phase(Phase::WriteBack, |me| {
            me.leaf()
                .rewrite_and_unlock(&mut me.ep, sib, &empty, slr.nv, &dead)
        });
        assert!(i + 1 > 0);
        parent.entries.remove(i + 1);
        self.in_phase(Phase::WriteBack, |me| {
            me.shared.internal.write_and_unlock(&mut me.ep, &parent)
        });
        self.cn.cache.lock().invalidate(parent_addr);
    }

    // ------------------------------------------------------------------
    // Split & up-propagation
    // ------------------------------------------------------------------

    /// Splits the locked leaf `addr` (whose full content is in `lr`),
    /// releases its lock and up-propagates the new pivots.
    fn split_leaf(&mut self, addr: GlobalAddr, lr: LockedRead) -> Result<(), IndexError> {
        self.counters.splits += 1;
        let cfg = self.shared.cfg;
        let mut items: Vec<(u64, Vec<u8>)> = (0..cfg.span)
            .filter(|&i| !lr.w.slot_empty(i))
            .map(|i| {
                let (k, v, _) = lr.w.slot(i);
                (k, v.to_vec())
            })
            .collect();
        items.sort_by_key(|&(k, _)| k);
        assert!(items.len() >= 2, "splitting a near-empty node");
        let mid = items.len() / 2;
        // Build chains (usually exactly one chunk per half).
        let chunks = {
            let mut c = build_chunks(cfg.span, cfg.neighborhood, &items[..mid]);
            c.extend(build_chunks(cfg.span, cfg.neighborhood, &items[mid..]));
            c
        };
        assert!(chunks.len() >= 2);
        // Boundary pivots: max of previous chunk + 1 (argmax-corner rule).
        let mut pivots = Vec::with_capacity(chunks.len());
        pivots.push(0u64); // unused for chunk 0 (keeps the old low bound)
        for pair in chunks.windows(2) {
            let prev_max = pair[0].1.last().expect("chunk cannot be empty").0;
            pivots.push(prev_max + 1);
        }
        // Allocate the new nodes (all but chunk 0, which reuses `addr`).
        let node_size = self.leaf().layout.node_size() as u64;
        let mut addrs = vec![addr];
        for _ in 1..chunks.len() {
            let a = self.in_phase(Phase::WriteBack, |me| me.alloc.alloc(&mut me.ep, node_size));
            addrs.push(a?);
        }
        let (old_lo, old_hi) = lr.meta.fences.unwrap_or((0, u64::MAX));
        // Write new nodes right-to-left so each points at an already
        // written sibling; the old node is rewritten last (publish point).
        for i in (1..chunks.len()).rev() {
            let sibling = if i + 1 < chunks.len() {
                addrs[i + 1]
            } else {
                lr.meta.sibling
            };
            let hi = if i + 1 < chunks.len() {
                pivots[i + 1]
            } else {
                old_hi
            };
            let meta = LeafMeta {
                sibling,
                valid: true,
                fences: self.leaf().layout.fences.then_some((pivots[i], hi)),
            };
            self.in_phase(Phase::WriteBack, |me| {
                me.leaf()
                    .write_new(&mut me.ep, addrs[i], &chunks[i].0, &meta)
            });
        }
        let meta0 = LeafMeta {
            sibling: addrs[1],
            valid: true,
            fences: self.leaf().layout.fences.then_some((old_lo, pivots[1])),
        };
        self.in_phase(Phase::WriteBack, |me| {
            me.leaf()
                .rewrite_and_unlock(&mut me.ep, addr, &chunks[0].0, lr.nv, &meta0)
        });
        // Up-propagate every new pivot.
        for i in 1..chunks.len() {
            self.insert_into_parent(1, pivots[i], addrs[i])?;
        }
        Ok(())
    }

    /// Inserts `(pivot, child)` into the internal node at `level` covering
    /// `pivot`, splitting upward as needed (Sherman's Steps 1–3).
    fn insert_into_parent(
        &mut self,
        level: u8,
        pivot: u64,
        child: GlobalAddr,
    ) -> Result<(), IndexError> {
        for _ in 0..OP_RETRY_LIMIT {
            let root_addr = self.refresh_root();
            let mut node = self
                .in_phase(Phase::Traversal, |me| {
                    me.shared.internal.read(&mut me.ep, root_addr)
                });
            if node.level < level {
                continue; // racing root growth; re-read the slot
            }
            // Descend to `level`.
            let mut ok = true;
            while node.level > level {
                if !node.covers(pivot) {
                    if pivot >= node.fence_high && !node.sibling.is_null() {
                        let sib = node.sibling;
                        node = self
                            .in_phase(Phase::Traversal, |me| {
                                me.shared.internal.read(&mut me.ep, sib)
                            });
                        continue;
                    }
                    ok = false;
                    break;
                }
                let (c, _) = node.select(pivot);
                node = self.in_phase(Phase::Traversal, |me| me.shared.internal.read(&mut me.ep, c));
            }
            if !ok || node.level != level {
                continue;
            }
            // Lateral moves at the target level.
            while node.valid && !node.covers(pivot) && pivot >= node.fence_high {
                if node.sibling.is_null() {
                    break;
                }
                let sib = node.sibling;
                node = self.in_phase(Phase::Traversal, |me| me.shared.internal.read(&mut me.ep, sib));
            }
            if !node.valid || !node.covers(pivot) {
                continue;
            }
            // Lock and re-read the authoritative copy.
            let addr = node.addr;
            let _lk = self.local_lock(addr);
            self.in_phase(Phase::LockAcquire, |me| {
                me.shared.internal.lock(&mut me.ep, addr)
            });
            let mut fresh = self
                .in_phase(Phase::Traversal, |me| {
                    me.shared.internal.read(&mut me.ep, addr)
                });
            if !fresh.valid || !fresh.covers(pivot) {
                self.in_phase(Phase::WriteBack, |me| {
                me.shared.internal.unlock(&mut me.ep, addr)
            });
                self.on_op_conflict(RetryCause::StaleRoute);
                continue;
            }
            match fresh.entries.binary_search_by_key(&pivot, |e| e.0) {
                Ok(i) => {
                    // Idempotent re-insert of the same pivot.
                    assert_eq!(fresh.entries[i].1, child, "pivot collision");
                    self.in_phase(Phase::WriteBack, |me| {
                me.shared.internal.unlock(&mut me.ep, addr)
            });
                    return Ok(());
                }
                Err(i) => {
                    if fresh.entries.len() < self.shared.cfg.internal_span {
                        fresh.entries.insert(i, (pivot, child));
                        self.shared.internal.write_and_unlock(&mut self.ep, &fresh);
                        self.cn.cache.lock().invalidate(addr);
                        return Ok(());
                    }
                }
            }
            // Node full: split it (unlocks), then retry this insert.
            self.split_internal(&mut fresh, root_addr)?;
        }
        panic!("insert_into_parent retry limit (pivot {pivot})");
    }

    /// Splits a locked, full internal node and up-propagates (or grows a
    /// new root). Leaves the node unlocked.
    fn split_internal(
        &mut self,
        node: &mut InternalNode,
        root_addr: GlobalAddr,
    ) -> Result<(), IndexError> {
        let mid = node.entries.len() / 2;
        let split_key = node.entries[mid].0;
        let upper: Vec<_> = node.entries.split_off(mid);
        let new_addr = self.in_phase(Phase::WriteBack, |me| {
            me.alloc
                .alloc(&mut me.ep, me.shared.internal.layout.node_size() as u64)
        })?;
        let new_node = InternalNode {
            addr: new_addr,
            level: node.level,
            valid: true,
            fence_low: split_key,
            fence_high: node.fence_high,
            sibling: node.sibling,
            entries: upper,
            nv: 0,
        };
        self.in_phase(Phase::WriteBack, |me| {
            me.shared.internal.write_new(&mut me.ep, &new_node)
        });
        node.fence_high = split_key;
        node.sibling = new_addr;
        self.in_phase(Phase::WriteBack, |me| {
            me.shared.internal.write_and_unlock(&mut me.ep, node)
        });
        self.cn.cache.lock().invalidate(node.addr);
        if node.addr == root_addr {
            // Grow a new root.
            let new_root_addr = self.in_phase(Phase::WriteBack, |me| {
                me.alloc
                    .alloc(&mut me.ep, me.shared.internal.layout.node_size() as u64)
            })?;
            let new_root = InternalNode {
                addr: new_root_addr,
                level: node.level + 1,
                valid: true,
                fence_low: 0,
                fence_high: u64::MAX,
                sibling: GlobalAddr::NULL,
                entries: vec![(node.fence_low, node.addr), (split_key, new_addr)],
                nv: 0,
            };
            self.in_phase(Phase::WriteBack, |me| {
                me.shared.internal.write_new(&mut me.ep, &new_root)
            });
            let old = self.in_phase(Phase::WriteBack, |me| {
                me.ep
                    .cas(me.shared.root_slot, root_addr.raw(), new_root_addr.raw())
            });
            if old == root_addr.raw() {
                *self.cn.root_hint.lock() = new_root_addr;
                return Ok(());
            }
            // Someone else grew the root first: insert into the new tree.
            return self.insert_into_parent(node.level + 1, split_key, new_addr);
        }
        self.insert_into_parent(node.level + 1, split_key, new_addr)
    }

    // ------------------------------------------------------------------
    // Scan
    // ------------------------------------------------------------------

    /// Walks the whole remote tree and verifies its structural invariants
    /// (test/debug aid; issues many READs):
    ///
    /// * internal fences tile the key space and children respect pivots;
    /// * the leaf sibling chain is reachable left-to-right with strictly
    ///   ascending key ranges and no duplicates;
    /// * every leaf satisfies the hopscotch bitmap/occupancy bijection
    ///   (checked by the validated read itself);
    /// * the lock word's argmax names the true maximum key.
    ///
    /// Returns the total number of keys, or a description of the first
    /// violation.
    pub fn check_integrity(&mut self) -> Result<u64, String> {
        let root = self.refresh_root();
        let node = self.shared.internal.read(&mut self.ep, root);
        if node.fence_low != 0 || node.fence_high != u64::MAX {
            return Err(format!(
                "root fences not unbounded: [{}, {}]",
                node.fence_low, node.fence_high
            ));
        }
        let leftmost_leaf = self.check_internal_level(&node)?;
        // Walk the leaf chain.
        let mut addr = leftmost_leaf;
        let mut prev_max: Option<u64> = None;
        let mut total = 0u64;
        let mut seen = std::collections::HashSet::new();
        while !addr.is_null() {
            if !seen.insert(addr.raw()) {
                return Err(format!("leaf chain cycle at {addr:?}"));
            }
            let snap = self.leaf().read_full(&mut self.ep, addr);
            if !snap.meta.valid {
                return Err(format!("invalid leaf {addr:?} in chain"));
            }
            let keys: Vec<u64> = snap.keys.iter().copied().filter(|&k| k != 0).collect();
            if let (Some(pmax), Some(&min)) = (prev_max, keys.iter().min()) {
                if min <= pmax {
                    return Err(format!(
                        "leaf {addr:?} min {min} <= previous leaf max {pmax}"
                    ));
                }
            }
            // argmax in the lock word must name the true maximum.
            let _lk = self.local_lock(addr);
            let word = self.leaf().lock(&mut self.ep, addr);
            let argmax = word.argmax();
            let true_max = keys.iter().max().copied();
            match (true_max, argmax) {
                (None, am) if am == ARGMAX_NONE => {}
                (Some(mx), am) if am != ARGMAX_NONE => {
                    // Re-read under the lock (the snapshot may have raced).
                    let lr = self
                    .in_phase(Phase::LeafRead, |me| {
                        me.leaf().read_full_locked(&mut me.ep, addr, word)
                    });
                    let locked_max = lr.max_key;
                    self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                    if locked_max != Some(mx) && locked_max.is_none() {
                        return Err(format!("leaf {addr:?} argmax empty but max {mx}"));
                    }
                }
                (mx, am) => {
                    self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                    return Err(format!("leaf {addr:?} argmax {am} vs max {mx:?}"));
                }
            }
            if true_max.is_none() {
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
            }
            if let Some(&mx) = keys.iter().max().as_ref() {
                prev_max = Some(*mx);
            }
            total += keys.len() as u64;
            addr = snap.meta.sibling;
        }
        Ok(total)
    }

    /// Recursively checks one internal node and its subtree; returns the
    /// leftmost leaf address under it.
    fn check_internal_level(&mut self, node: &InternalNode) -> Result<GlobalAddr, String> {
        if node.entries.is_empty() {
            return Err(format!("internal {:?} has no entries", node.addr));
        }
        if node.entries[0].0 != node.fence_low {
            return Err(format!(
                "internal {:?} first pivot {} != fence_low {}",
                node.addr, node.entries[0].0, node.fence_low
            ));
        }
        for w in node.entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("internal {:?} pivots not ascending", node.addr));
            }
        }
        if node.level == 1 {
            return Ok(node.entries[0].1);
        }
        let mut leftmost = GlobalAddr::NULL;
        for (i, &(pivot, child)) in node.entries.iter().enumerate() {
            let c = self.shared.internal.read(&mut self.ep, child);
            if c.level != node.level - 1 {
                return Err(format!("child {child:?} level {} under level {}", c.level, node.level));
            }
            if c.fence_low != pivot {
                return Err(format!(
                    "child {child:?} fence_low {} != pivot {pivot}",
                    c.fence_low
                ));
            }
            let hi = node
                .entries
                .get(i + 1)
                .map(|e| e.0)
                .unwrap_or(node.fence_high);
            if c.fence_high > hi && (hi != u64::MAX) {
                return Err(format!(
                    "child {child:?} fence_high {} beyond parent bound {hi}",
                    c.fence_high
                ));
            }
            let lm = self.check_internal_level(&c)?;
            if i == 0 {
                leftmost = lm;
            }
        }
        Ok(leftmost)
    }

    fn scan_impl(&mut self, start: u64, count: usize, out: &mut Vec<(u64, Vec<u8>)>) {
        assert_ne!(start, 0, "key 0 is reserved");
        if count == 0 {
            return;
        }
        self.retry_backoff.reset();
        let per_leaf = (self.span() * 3) / 4; // load-factor estimate
        'attempt: for _ in 0..OP_RETRY_LIMIT {
            let mut collected: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut parent = self.locate_parent(start);
            let mut idx = match parent.entries.binary_search_by_key(&start, |e| e.0) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            // Right sibling of the previously consumed leaf: every further
            // leaf must continue this chain. A half-split leaf may be linked
            // in the chain before its pivot reaches the parent (B-link), so
            // a gap is bridged by walking the sibling pointers; only a chain
            // that cannot reconnect means the parent view is stale.
            let mut chain: Option<GlobalAddr> = None;
            loop {
                // Batch-read the next group of candidate leaves in one RTT.
                let need = count.saturating_sub(collected.len());
                let take = need
                    .div_ceil(per_leaf)
                    .max(1)
                    .min(parent.entries.len() - idx);
                let addrs: Vec<GlobalAddr> = parent.entries[idx..idx + take]
                    .iter()
                    .map(|e| e.1)
                    .collect();
                let snaps = self.in_phase(Phase::LeafRead, |me| {
                    me.leaf().read_full_batch(&mut me.ep, &addrs)
                });
                for (i, snap) in snaps.into_iter().enumerate() {
                    if !snap.meta.valid {
                        // Deprecated leaf: the parent view is stale.
                        self.counters.invalidations += 1;
                        self.cn.cache.lock().invalidate(parent.addr);
                        self.refresh_root();
                        self.on_op_conflict(RetryCause::StaleRoute);
                        continue 'attempt;
                    }
                    // Bridge split-off leaves the parent does not know yet.
                    if let Some(mut c) = chain {
                        let mut hops = 0usize;
                        while c != addrs[i] {
                            if c.is_null() || hops >= SCAN_BRIDGE_LIMIT {
                                // The chain ends (or wanders) before the
                                // parent's next child: stale parent view.
                                self.counters.invalidations += 1;
                                self.cn.cache.lock().invalidate(parent.addr);
                                self.refresh_root();
                                self.on_op_conflict(RetryCause::StaleRoute);
                                continue 'attempt;
                            }
                            let gap = self.in_phase(Phase::ScanChain, |me| {
                                me.leaf().read_full_batch(&mut me.ep, &[c]).swap_remove(0)
                            });
                            if !gap.meta.valid {
                                self.counters.invalidations += 1;
                                self.cn.cache.lock().invalidate(parent.addr);
                                self.refresh_root();
                                self.on_op_conflict(RetryCause::StaleRoute);
                                continue 'attempt;
                            }
                            c = gap.meta.sibling;
                            collected.extend(gap.into_items().filter(|&(k, _)| k >= start));
                            hops += 1;
                        }
                    }
                    chain = Some(snap.meta.sibling);
                    collected.extend(snap.into_items().filter(|&(k, _)| k >= start));
                }
                idx += take;
                if collected.len() >= count {
                    break;
                }
                if idx >= parent.entries.len() {
                    if parent.sibling.is_null() {
                        // Drain trailing split-off leaves past the parent's
                        // last known child before concluding the tree ends.
                        let mut c = chain.unwrap_or(GlobalAddr::NULL);
                        let mut hops = 0usize;
                        while !c.is_null() && collected.len() < count {
                            if hops >= SCAN_BRIDGE_LIMIT {
                                self.counters.invalidations += 1;
                                self.cn.cache.lock().invalidate(parent.addr);
                                self.refresh_root();
                                self.on_op_conflict(RetryCause::StaleRoute);
                                continue 'attempt;
                            }
                            let tail = self.in_phase(Phase::ScanChain, |me| {
                                me.leaf().read_full_batch(&mut me.ep, &[c]).swap_remove(0)
                            });
                            if !tail.meta.valid {
                                self.counters.invalidations += 1;
                                self.cn.cache.lock().invalidate(parent.addr);
                                self.refresh_root();
                                self.on_op_conflict(RetryCause::StaleRoute);
                                continue 'attempt;
                            }
                            c = tail.meta.sibling;
                            collected.extend(tail.into_items().filter(|&(k, _)| k >= start));
                            hops += 1;
                        }
                        break;
                    }
                    let sib = parent.sibling;
                    let next = self
                        .in_phase(Phase::Traversal, |me| {
                            me.shared.internal.read(&mut me.ep, sib)
                        });
                    if !next.valid {
                        self.counters.invalidations += 1;
                        self.cn.cache.lock().invalidate(parent.addr);
                        self.refresh_root();
                        self.on_op_conflict(RetryCause::StaleRoute);
                        continue 'attempt;
                    }
                    parent = next;
                    idx = 0;
                }
            }
            collected.sort_by_key(|&(k, _)| k);
            collected.truncate(count);
            for (k, v) in collected {
                let v = self.resolve_value(v);
                out.push((k, v));
            }
            return;
        }
        panic!("scan retry limit from key {start}");
    }

    // ------------------------------------------------------------------
    // Indirect values (§4.5)
    // ------------------------------------------------------------------

    /// Converts an application value into the stored leaf-entry bytes
    /// (inline value, or a pointer to a freshly written value block).
    fn store_value(&mut self, key: u64, value: &[u8]) -> Result<Vec<u8>, IndexError> {
        let cfg = self.shared.cfg;
        if !cfg.indirect_values {
            let mut v = value.to_vec();
            v.resize(cfg.value_size, 0);
            return Ok(v);
        }
        let block_len = 16 + cfg.value_size;
        let addr = self
            .in_phase(Phase::WriteBack, |me| {
                me.alloc.alloc(&mut me.ep, block_len as u64)
            })?;
        let mut block = Vec::with_capacity(block_len);
        block.extend_from_slice(&key.to_le_bytes());
        block.extend_from_slice(&(value.len() as u64).to_le_bytes());
        block.extend_from_slice(value);
        block.resize(block_len, 0);
        self.in_phase(Phase::WriteBack, |me| me.ep.write(addr, &block));
        Ok(addr.raw().to_le_bytes().to_vec())
    }

    /// Converts stored leaf-entry bytes back into the application value.
    fn resolve_value(&mut self, stored: Vec<u8>) -> Vec<u8> {
        let cfg = self.shared.cfg;
        if !cfg.indirect_values {
            return stored;
        }
        let addr = GlobalAddr::from_raw(u64::from_le_bytes(
            stored[..8].try_into().expect("pointer entry"),
        ));
        let mut block = vec![0u8; 16 + cfg.value_size];
        self.in_phase(Phase::LeafRead, |me| me.ep.read(addr, &mut block));
        let len = u64::from_le_bytes(block[8..16].try_into().unwrap()) as usize;
        block[16..16 + len.min(cfg.value_size)].to_vec()
    }

    // ------------------------------------------------------------------
    // Migration support (partitioned deployments)
    // ------------------------------------------------------------------

    /// Re-reads the live root pointer slot. Migrators use this to snapshot
    /// the root of the tree they are about to move.
    pub fn current_root(&mut self) -> GlobalAddr {
        self.refresh_root()
    }

    /// The remote address of this tree's root-pointer slot.
    pub fn root_slot_addr(&self) -> GlobalAddr {
        self.shared.root_slot
    }

    /// Retargets this client's pinned allocator to `mn` (no-op for
    /// round-robin allocators); see [`ChunkAlloc::retarget`].
    pub fn retarget_alloc(&mut self, mn: u16) {
        self.alloc.retarget(mn);
    }

    /// Advances this client's virtual clock to `ns` if it lags behind.
    /// A partition router multiplexes one logical client over several
    /// per-partition clients and keeps their clocks on one timeline.
    pub fn sync_clock_to(&mut self, ns: u64) {
        let now = self.ep.clock_ns();
        if ns > now {
            self.ep.advance_clock(ns - now);
        }
    }

    /// Fires the labeled crash point on this client's endpoint (see
    /// [`dmem::Endpoint::crash_point`]); migration drivers mark their
    /// protocol steps through this.
    pub fn crash_point(&mut self, label: &str) {
        self.ep.crash_point(label);
    }

    /// Swaps this client's tree binding — root slot, CN cache state and
    /// allocator — returning the previous one. The endpoint stays put:
    /// its clock, verb statistics and phase profile span every tree the
    /// client serves, which is exactly what a partition router wants.
    /// Any pending forwarding override is dropped (it pointed into the
    /// previous binding's tree).
    pub fn rebind(&mut self, b: TreeBinding) -> TreeBinding {
        debug_assert_eq!(
            self.shared.cfg.span, b.shared.cfg.span,
            "rebind across trees of different geometry"
        );
        self.forward = None;
        TreeBinding {
            shared: std::mem::replace(&mut self.shared, b.shared),
            cn: std::mem::replace(&mut self.cn, b.cn),
            alloc: std::mem::replace(&mut self.alloc, b.alloc),
        }
    }

    /// Reads raw bytes at `addr` on this client's endpoint, attributed to
    /// `phase`. Partition routers read routing-table words through the
    /// operating client so the cost lands on its timeline and profile.
    pub fn read_raw(&mut self, addr: GlobalAddr, dst: &mut [u8], phase: Phase) {
        let fr = self.ep.phase_begin(phase);
        self.ep.read(addr, dst);
        self.ep.phase_end(fr);
    }

    /// Leaf addresses reachable through the level-1 entries of the tree
    /// rooted at `root`, left to right (tombstoned leaves included; the
    /// caller filters). Pivot up-propagation completes before any index
    /// operation returns, so between operations the level-1 entries are
    /// the complete leaf set — unlike the leaf sibling chain, which
    /// forwarding tombstones sever, this enumeration stays sound while a
    /// partition is half-migrated (crash recovery relies on that).
    pub fn leaf_addrs_under(&mut self, root: GlobalAddr) -> Vec<GlobalAddr> {
        let fr = self.ep.phase_begin(Phase::Traversal);
        let mut node = self.shared.internal.read(&mut self.ep, root);
        while node.level > 1 {
            let child = node.entries[0].1;
            node = self.shared.internal.read(&mut self.ep, child);
        }
        let mut out: Vec<GlobalAddr> = Vec::new();
        loop {
            out.extend(node.entries.iter().map(|e| e.1));
            if node.sibling.is_null() {
                break;
            }
            let sib = node.sibling;
            node = self.shared.internal.read(&mut self.ep, sib);
        }
        self.ep.phase_end(fr);
        out
    }

    /// Atomically moves one leaf into `dst`'s tree: locks the leaf, copies
    /// every item over (inserts upsert, so a crash-recovery re-drive of a
    /// partially copied leaf converges), then retires the leaf behind a
    /// forwarding tombstone whose sibling pointer names `forward` — the
    /// destination tree's root internal node. Point operations landing on
    /// the tombstone restart their descent from `forward`. Returns the
    /// number of items moved, or `None` if the leaf was already retired.
    pub fn move_leaf_into(
        &mut self,
        addr: GlobalAddr,
        dst: &mut ChimeClient,
        forward: GlobalAddr,
    ) -> Result<Option<u64>, IndexError> {
        let _lk = self.local_lock(addr);
        let word = self.in_phase(Phase::LockAcquire, |me| me.leaf().lock(&mut me.ep, addr));
        let lr = self.in_phase(Phase::LeafRead, |me| {
            me.leaf().read_full_locked(&mut me.ep, addr, word)
        });
        if !lr.meta.valid {
            self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
            return Ok(None);
        }
        let span = self.span();
        let mut items: Vec<(u64, Vec<u8>)> = (0..span)
            .filter(|&i| !lr.w.slot_empty(i))
            .map(|i| {
                let (k, v, _) = lr.w.slot(i);
                (k, v.to_vec())
            })
            .collect();
        items.sort_by_key(|&(k, _)| k);
        let mut moved = 0u64;
        for (k, stored) in items {
            let v = self.resolve_value(stored);
            if let Err(e) = dst.insert(k, &v) {
                // Abort without tombstoning: the source leaf stays live and
                // authoritative; the half-built destination is abandoned.
                self.in_phase(Phase::WriteBack, |me| me.leaf().unlock(&mut me.ep, addr, word));
                return Err(e);
            }
            moved += 1;
        }
        let empty = Window::new(span, self.h(), 0, span);
        let dead = LeafMeta {
            sibling: forward,
            valid: false,
            fences: lr.meta.fences,
        };
        self.in_phase(Phase::WriteBack, |me| {
            me.leaf().rewrite_and_unlock(&mut me.ep, addr, &empty, lr.nv, &dead)
        });
        Ok(Some(moved))
    }
}

/// One built leaf chunk: its hopscotch window plus the items it holds.
type Chunk = (Window, Vec<(u64, Vec<u8>)>);

/// Recursively builds hopscotch tables for `items`, splitting chunks that
/// do not fit. Returns `(window, sorted items)` per chunk, in key order.
fn build_chunks(span: usize, h: usize, items: &[(u64, Vec<u8>)]) -> Vec<Chunk> {
    if let Some(w) = build_table(span, h, items) {
        return vec![(w, items.to_vec())];
    }
    assert!(items.len() >= 2, "cannot split a single unfittable item");
    let mid = items.len() / 2;
    let mut out = build_chunks(span, h, &items[..mid]);
    out.extend(build_chunks(span, h, &items[mid..]));
    out
}

impl RangeIndex for ChimeClient {
    fn insert(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let sp = self.ep.span_begin("insert", key);
        let r = self.insert_impl(key, value);
        self.ep.span_end(sp, r.is_ok());
        r
    }

    fn search(&mut self, key: u64) -> Option<Vec<u8>> {
        let sp = self.ep.span_begin("search", key);
        let r = self.search_impl(key);
        self.ep.span_end(sp, r.is_some());
        r
    }

    fn update(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        let sp = self.ep.span_begin("update", key);
        let r = self.update_impl(key, value);
        self.ep.span_end(sp, matches!(r, Ok(true)));
        r
    }

    fn delete(&mut self, key: u64) -> Result<bool, IndexError> {
        let sp = self.ep.span_begin("delete", key);
        let r = self.delete_impl(key);
        self.ep.span_end(sp, matches!(r, Ok(true)));
        r
    }

    fn scan(&mut self, start: u64, count: usize, out: &mut Vec<(u64, Vec<u8>)>) {
        let sp = self.ep.span_begin("scan", start);
        self.scan_impl(start, count, out);
        self.ep.span_end(sp, true);
    }

    fn stats(&self) -> &ClientStats {
        self.ep.stats()
    }

    fn profile(&self) -> Option<&dmem::OpProfile> {
        Some(self.ep.profile())
    }

    fn clock_ns(&self) -> u64 {
        self.ep.clock_ns()
    }

    fn cache_bytes(&self) -> u64 {
        self.cn.cache_bytes()
    }

    fn telemetry(&self) -> Option<&dmem::Telemetry> {
        Some(self.ep.telemetry())
    }

    fn telemetry_mut(&mut self) -> Option<&mut dmem::Telemetry> {
        Some(self.ep.telemetry_mut())
    }

    fn set_trace_id(&mut self, id: u64) {
        self.ep.set_trace_id(id);
    }

    fn set_tracer(&mut self, tracer: dmem::Tracer) {
        self.ep.set_tracer(tracer);
    }

    fn take_tracer(&mut self) -> Option<dmem::Tracer> {
        self.ep.take_tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ChimeConfig {
        ChimeConfig {
            span: 16,
            internal_span: 8,
            neighborhood: 4,
            value_size: 8,
            cache_bytes: 1 << 20,
            hotspot_bytes: 1 << 16,
            ..Default::default()
        }
    }

    fn pool() -> Arc<Pool> {
        Pool::with_defaults(1, 256 << 20)
    }

    fn v(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    #[test]
    fn insert_search_small() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=10u64 {
            c.insert(k, &v(k)).unwrap();
        }
        for k in 1..=10u64 {
            assert_eq!(c.search(k), Some(v(k)), "key {k}");
        }
        assert_eq!(c.search(999), None);
    }

    #[test]
    fn trace_events_attaches_tracer_and_records_op_spans() {
        let pool = pool();
        let cfg = ChimeConfig {
            trace_events: 4096,
            ..small_cfg()
        };
        let t = Chime::create(&pool, cfg, 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        assert!(c.tracer().is_some(), "trace_events > 0 must attach a tracer");
        c.insert(7, &v(7)).unwrap();
        assert_eq!(c.search(7), Some(v(7)));
        assert_eq!(c.search(8), None);
        let spans = c.tracer().unwrap().spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.op).collect::<Vec<_>>(),
            ["insert", "search", "search"]
        );
        assert!(spans.iter().all(|s| s.closed));
        assert_eq!(
            spans.iter().map(|s| s.ok).collect::<Vec<_>>(),
            [true, true, false]
        );
        // Every index op on an empty cache must issue at least one verb, and
        // the verb events carry real wire bytes on the virtual clock.
        for s in &spans {
            assert!(!s.verbs.is_empty(), "span {:?} recorded no verbs", s.op);
            assert!(s.wire_bytes > 0);
            assert!(s.end_ns >= s.start_ns);
        }
        // Tracing is off by default.
        let t2 = Chime::create(&pool, small_cfg(), 8);
        let cn2 = t2.new_cn();
        let c2 = t2.client(&cn2);
        assert!(c2.tracer().is_none());
    }

    #[test]
    fn scan_bridges_leaf_chain_gaps_missing_from_parent() {
        // Regression for the fig12 YCSB-E livelock: a leaf can be reachable
        // through the sibling chain while its pivot is absent from the
        // level-1 node (unpropagated half-split). The scan must bridge the
        // gap by walking the chain instead of restarting forever.
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        let n = 2_000u64;
        for k in 1..=n {
            c.insert(k, &v(k)).unwrap();
        }
        // Drop a mid pivot from a level-1 node, leaving its leaf reachable
        // only through the previous leaf's sibling pointer.
        let parent = c.locate_parent(n / 2);
        assert!(parent.entries.len() >= 3, "need a populated level-1 node");
        let victim_pivot = parent.entries[parent.entries.len() / 2].0;
        let shared = Arc::clone(&c.shared);
        shared.internal.lock(&mut c.ep, parent.addr);
        let mut fresh = shared.internal.read(&mut c.ep, parent.addr);
        let i = fresh
            .entries
            .iter()
            .position(|e| e.0 == victim_pivot)
            .expect("victim pivot present");
        fresh.entries.remove(i);
        shared.internal.write_and_unlock(&mut c.ep, &fresh);
        c.cn.cache.lock().invalidate(parent.addr);
        // A full scan must still return every key exactly once, in order.
        let mut out = Vec::new();
        c.scan(1, n as usize, &mut out);
        assert_eq!(out.len(), n as usize);
        for (i, (k, val)) in out.iter().enumerate() {
            assert_eq!(*k, i as u64 + 1);
            assert_eq!(val, &v(i as u64 + 1));
        }
    }

    #[test]
    fn inserts_force_splits_and_root_growth() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        let n = 5_000u64;
        for k in 1..=n {
            c.insert(k * 3 + 1, &v(k)).unwrap();
        }
        assert!(c.counters.splits > 0, "tiny nodes must split");
        for k in 1..=n {
            assert_eq!(c.search(k * 3 + 1), Some(v(k)), "key {}", k * 3 + 1);
        }
        // Absent keys in between.
        for k in (1..=200u64).map(|k| k * 3) {
            assert_eq!(c.search(k), None, "absent key {k}");
        }
    }

    #[test]
    fn update_and_delete() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=500u64 {
            c.insert(k, &v(k)).unwrap();
        }
        for k in 1..=500u64 {
            assert!(c.update(k, &v(k + 1000)).unwrap());
        }
        for k in 1..=500u64 {
            assert_eq!(c.search(k), Some(v(k + 1000)));
        }
        assert!(!c.update(9999, &v(0)).unwrap());
        for k in (1..=500u64).step_by(2) {
            assert!(c.delete(k).unwrap());
        }
        assert!(!c.delete(1).unwrap());
        for k in 1..=500u64 {
            if k % 2 == 1 {
                assert_eq!(c.search(k), None);
            } else {
                assert_eq!(c.search(k), Some(v(k + 1000)));
            }
        }
    }

    #[test]
    fn insert_overwrites_duplicate() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        c.insert(7, &v(1)).unwrap();
        c.insert(7, &v(2)).unwrap();
        assert_eq!(c.search(7), Some(v(2)));
    }

    #[test]
    fn scan_returns_sorted_range() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=2_000u64 {
            c.insert(k * 2, &v(k)).unwrap();
        }
        let mut out = Vec::new();
        c.scan(101, 50, &mut out);
        assert_eq!(out.len(), 50);
        let want: Vec<u64> = (51..101).map(|k| k * 2).collect();
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, want);
        for (k, val) in &out {
            assert_eq!(val, &v(k / 2));
        }
        // Scan past the end is truncated.
        let mut out = Vec::new();
        c.scan(3_999, 50, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 4_000);
    }

    #[test]
    fn stale_cn_cache_self_heals() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn_a = t.new_cn();
        let cn_b = t.new_cn();
        let mut a = t.client(&cn_a);
        let mut b = t.client(&cn_b);
        // Warm B's cache with the small tree.
        a.insert(1, &v(1)).unwrap();
        assert_eq!(b.search(1), Some(v(1)));
        // A grows the tree massively; B's cache is now stale everywhere.
        for k in 2..=3_000u64 {
            a.insert(k, &v(k)).unwrap();
        }
        for k in (1..=3_000u64).step_by(17) {
            assert_eq!(b.search(k), Some(v(k)), "stale-cache search {k}");
        }
        let mut out = Vec::new();
        b.scan(1, 100, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn speculative_reads_hit_on_hot_keys() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=200u64 {
            c.insert(k, &v(k)).unwrap();
        }
        for _ in 0..50 {
            assert_eq!(c.search(42), Some(v(42)));
        }
        assert!(c.counters.spec_attempts > 0);
        assert!(c.counters.spec_hits > 0);
        assert!(c.counters.spec_hits >= c.counters.spec_attempts - 2);
        let (hits, lookups) = cn.hotspot_stats();
        assert!(hits > 0 && lookups >= hits);
    }

    #[test]
    fn default_config_large_nodes() {
        let pool = pool();
        let t = Chime::create(&pool, ChimeConfig::default(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=2_000u64 {
            c.insert(k * 7 + 3, &v(k)).unwrap();
        }
        for k in (1..=2_000u64).step_by(7) {
            assert_eq!(c.search(k * 7 + 3), Some(v(k)));
        }
    }

    #[test]
    fn baseline_config_works() {
        // All optimizations off (Fig. 15 starting point): dedicated vacancy
        // word, single header, fence keys, no speculation.
        let pool = pool();
        let t = Chime::create(&pool, ChimeConfig { span: 16, internal_span: 8, neighborhood: 4, ..ChimeConfig::baseline() }, 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=1_500u64 {
            c.insert(k, &v(k)).unwrap();
        }
        for k in 1..=1_500u64 {
            assert_eq!(c.search(k), Some(v(k)), "key {k}");
        }
        assert_eq!(c.search(5_000), None);
        for k in 1..=100u64 {
            assert!(c.update(k, &v(k + 9)).unwrap());
            assert_eq!(c.search(k), Some(v(k + 9)));
        }
    }

    #[test]
    fn indirect_values_roundtrip() {
        let pool = pool();
        let cfg = ChimeConfig {
            indirect_values: true,
            value_size: 64,
            span: 16,
            internal_span: 8,
            neighborhood: 4,
            ..Default::default()
        };
        let t = Chime::create(&pool, cfg, 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=300u64 {
            let val = vec![k as u8; 40];
            c.insert(k, &val).unwrap();
        }
        for k in 1..=300u64 {
            assert_eq!(c.search(k), Some(vec![k as u8; 40]));
        }
        assert!(c.update(5, &[9u8; 33]).unwrap());
        assert_eq!(c.search(5), Some(vec![9u8; 33]));
        let mut out = Vec::new();
        c.scan(1, 10, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].1, vec![1u8; 40]);
    }

    #[test]
    fn concurrent_clients_disjoint_inserts() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let threads = 4;
        let per = 800u64;
        crossbeam::thread::scope(|s| {
            for tid in 0..threads {
                let t = t.clone();
                s.spawn(move |_| {
                    let cn = t.new_cn();
                    let mut c = t.client(&cn);
                    for i in 0..per {
                        let k = 1 + i * threads + tid;
                        c.insert(k, &v(k)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=(per * threads) {
            assert_eq!(c.search(k), Some(v(k)), "key {k}");
        }
    }

    #[test]
    fn concurrent_mixed_readers_and_writers() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        {
            let cn = t.new_cn();
            let mut c = t.client(&cn);
            for k in 1..=1_000u64 {
                c.insert(k, &v(k)).unwrap();
            }
        }
        crossbeam::thread::scope(|s| {
            // Writers keep inserting new keys and updating old ones.
            for tid in 0..2u64 {
                let t = t.clone();
                s.spawn(move |_| {
                    let cn = t.new_cn();
                    let mut c = t.client(&cn);
                    for i in 0..500u64 {
                        c.insert(10_000 + tid * 1_000 + i, &v(i)).unwrap();
                        c.update(1 + (i * 7 + tid) % 1_000, &v(i)).unwrap();
                    }
                });
            }
            // Readers must always see the preloaded keys.
            for _ in 0..2 {
                let t = t.clone();
                s.spawn(move |_| {
                    let cn = t.new_cn();
                    let mut c = t.client(&cn);
                    for i in 0..2_000u64 {
                        let k = 1 + (i * 13) % 1_000;
                        assert!(c.search(k).is_some(), "preloaded key {k} lost");
                    }
                });
            }
        })
        .unwrap();
    }

    #[test]
    fn leaf_addrs_under_enumerates_every_leaf() {
        let pool = pool();
        let t = Chime::create(&pool, small_cfg(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        let n = 2_000u64;
        for k in 1..=n {
            c.insert(k, &v(k)).unwrap();
        }
        let root = c.current_root();
        let leaves = c.leaf_addrs_under(root);
        let mut total = 0u64;
        let mut prev_max = 0u64;
        for addr in &leaves {
            let snap = c.leaf().read_full(&mut c.ep, *addr);
            assert!(snap.meta.valid);
            let items: Vec<_> = snap.into_items().collect();
            let min = items.iter().map(|&(k, _)| k).min().unwrap();
            assert!(min > prev_max, "leaves out of order");
            prev_max = items.iter().map(|&(k, _)| k).max().unwrap();
            total += items.len() as u64;
        }
        assert_eq!(total, n);
    }

    #[test]
    fn pinned_tree_and_client_allocate_on_home_mn() {
        let pool = Pool::with_defaults(4, 64 << 20);
        let t = Chime::create_pinned(&pool, small_cfg(), 0, 2);
        let cn = t.new_cn();
        let mut c = t.client_pinned(&cn, 2);
        for k in 1..=2_000u64 {
            c.insert(k, &v(k)).unwrap();
        }
        let root = c.current_root();
        assert_eq!(root.mn(), 2, "root internal node off the home MN");
        for addr in c.leaf_addrs_under(root) {
            assert_eq!(addr.mn(), 2, "leaf off the home MN");
        }
        assert_eq!(c.check_integrity().unwrap(), 2_000);
    }

    #[test]
    fn moved_leaves_forward_point_ops_to_the_new_tree() {
        // Simulate a partition migration by hand: move every leaf of the
        // old tree into a fresh tree on another slot, leaving forwarding
        // tombstones behind, and verify that clients still routed through
        // the *old* root reach every key (and can write) via the forwards.
        let pool = pool();
        let old = Chime::create(&pool, small_cfg(), 0);
        let new = Chime::create(&pool, small_cfg(), 1);
        let cn = old.new_cn();
        let mut w = old.client(&cn);
        let n = 1_200u64;
        for k in 1..=n {
            w.insert(k, &v(k)).unwrap();
        }
        let new_cn = new.new_cn();
        let mut dst = new.client(&new_cn);
        let old_root = w.current_root();
        let mut mover = old.client(&cn);
        let mut moved = 0u64;
        for addr in mover.leaf_addrs_under(old_root) {
            let fwd = dst.current_root();
            moved += mover.move_leaf_into(addr, &mut dst, fwd).unwrap().unwrap();
        }
        assert_eq!(moved, n);
        assert_eq!(dst.check_integrity().unwrap(), n);
        // A reader attached to the old tree, with a cold cache, follows the
        // forwarding tombstones into the new tree.
        let cold_cn = old.new_cn();
        let mut r = old.client(&cold_cn);
        for k in (1..=n).step_by(97) {
            assert_eq!(r.search(k), Some(v(k)), "forwarded search for {k}");
        }
        assert!(r.counters.chases > 0, "no forward chase recorded");
        // Updates and deletes never split, so they may chase forwards too.
        r.update(5, &v(999)).unwrap();
        assert!(r.delete(7).unwrap());
        assert_eq!(dst.search(5), Some(v(999)));
        assert_eq!(dst.search(7), None);
        // Inserts refuse to chase (a split would anchor to the wrong
        // tree); they go through only after the live slot is switched,
        // as the migration protocol's switch step does.
        let new_root = dst.current_root();
        let mut ctl = Endpoint::new(Arc::clone(&pool));
        let prev = ctl.cas(r.root_slot_addr(), old_root.raw(), new_root.raw());
        assert_eq!(prev, old_root.raw());
        r.insert(n + 1, &v(n + 1)).unwrap();
        assert_eq!(dst.search(n + 1), Some(v(n + 1)));
        // Re-driving a move over an already-retired leaf is a no-op.
        let first_leaf = mover.leaf_addrs_under(old_root)[0];
        let fwd = dst.current_root();
        let again = mover.move_leaf_into(first_leaf, &mut dst, fwd).unwrap();
        assert_eq!(again, None);
    }
}
