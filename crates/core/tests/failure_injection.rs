//! Failure injection: crafted torn/intermediate remote states that the
//! three-level optimistic synchronization must refuse to return.
//!
//! A "stalled writer" is simulated by writing an inconsistent intermediate
//! image directly through the substrate (bypassing the index protocol),
//! letting a reader observe it, and then completing the write. The reader
//! must block in its retry loop while the state is torn and return the
//! correct value once it heals — never a torn result.
//!
//! The batched whole-leaf read (scans) is checked deterministically: the
//! reader's own endpoint schedules the heal as a torn write that lands
//! nothing now and the rest a fixed number of verbs later, so the leaf is
//! torn for exactly the reader's first READs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chime::hopscotch::build_table;
use chime::layout::{entry_field, LeafLayout};
use chime::leaf::{LeafMeta, LeafOps};
use dmem::node::RESERVED_BYTES;
use dmem::versioned::{bump, ev, nv, pack_ver, Layout, LINE};
use dmem::{Endpoint, FaultAction, FaultPlan, FaultRule, FaultSession, GlobalAddr, Pool, VerbKind};

fn ops() -> LeafOps {
    LeafOps::new(LeafLayout {
        span: 64,
        h: 8,
        key_size: 8,
        value_size: 8,
        replication: true,
        fences: false,
        piggyback: true,
    })
}

type Setup = (Arc<Pool>, LeafOps, GlobalAddr, Vec<(u64, Vec<u8>)>);

fn setup(n: u64) -> Setup {
    let pool = Pool::with_defaults(1, 4 << 20);
    let ops = ops();
    let addr = GlobalAddr::new(0, RESERVED_BYTES);
    let items = write_leaf(&pool, &ops, addr, n, 3);
    (pool, ops, addr, items)
}

/// Writes a fresh leaf at `addr` holding keys `k * stride` for `k` in
/// `1..=n`; returns its items.
fn write_leaf(
    pool: &Arc<Pool>,
    ops: &LeafOps,
    addr: GlobalAddr,
    n: u64,
    stride: u64,
) -> Vec<(u64, Vec<u8>)> {
    let mut ep = Endpoint::new(Arc::clone(pool));
    let items: Vec<(u64, Vec<u8>)> = (1..=n)
        .map(|k| (k * stride, k.to_le_bytes().to_vec()))
        .collect();
    let w = build_table(64, 8, &items).unwrap();
    let meta = LeafMeta {
        sibling: GlobalAddr::NULL,
        valid: true,
        fences: None,
    };
    ops.write_new(&mut ep, addr, &w, &meta);
    items
}

/// Overwrites one entry's version byte with a mismatching NV, simulating a
/// node write stalled after touching only part of the node.
fn tear_nv(pool: &Arc<Pool>, ops: &LeafOps, addr: GlobalAddr, entry: usize) -> Vec<u8> {
    let layout: Layout = ops.layout.versioned();
    let off = ops.layout.entry_off(entry);
    let p = layout.phys_of(off);
    let mut ep = Endpoint::new(Arc::clone(pool));
    let mut orig = vec![0u8; 1];
    ep.read(addr.add(p as u64), &mut orig);
    ep.write(addr.add(p as u64), &[pack_ver(0xA, 0)]);
    orig
}

#[test]
fn reader_waits_out_torn_nv_and_returns_correct_value() {
    let (pool, ops, addr, items) = setup(40);
    let (target_key, target_val) = items[10].clone();
    // Find the entry index so we can tear exactly the fetched range.
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let snap = ops.read_full(&mut ep, addr);
    let (idx, _) = snap.find(target_key, 8).unwrap();
    // Tear the entry: a stalled node write bumped this NV only.
    let orig = tear_nv(&pool, &ops, addr, idx);
    let healed = Arc::new(AtomicBool::new(false));
    let reader = {
        let pool = Arc::clone(&pool);
        let healed = Arc::clone(&healed);
        std::thread::spawn(move || {
            let mut ep = Endpoint::new(pool);
            let r = ops.read_neighborhood(&mut ep, addr, target_key);
            // By the time the read validates, the state must be healed.
            assert!(
                healed.load(Ordering::SeqCst),
                "reader returned from a torn state"
            );
            r.found.expect("key present").1
        })
    };
    // Let the reader spin on the torn state, then heal it.
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!reader.is_finished(), "reader must retry while torn");
    healed.store(true, Ordering::SeqCst);
    let layout = ops.layout.versioned();
    let p = layout.phys_of(ops.layout.entry_off(idx));
    let mut ep = Endpoint::new(Arc::clone(&pool));
    ep.write(addr.add(p as u64), &orig);
    assert_eq!(reader.join().unwrap(), target_val);
}

/// A hop-range write stalled between moving a key and updating its home
/// bitmap: the reused-bitmap check must reject the intermediate state.
#[test]
fn reader_rejects_intermediate_hop_state() {
    let (pool, ops, addr, items) = setup(40);
    let (target_key, target_val) = items[5].clone();
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let snap = ops.read_full(&mut ep, addr);
    let (idx, _) = snap.find(target_key, 8).unwrap();
    let home = dmem::hash::home_entry(target_key, 64);
    // Simulate: the key moved out of `idx` (zeroed) but the home bitmap
    // still claims it — exactly the middle row of the paper's Fig. 7b.
    let layout = ops.layout.versioned();
    let key_off = ops.layout.entry_off(idx) + chime::layout::entry_field::KEY;
    let p = layout.phys_of(key_off);
    let mut orig = vec![0u8; 8];
    ep.read(addr.add(p as u64), &mut orig);
    ep.write(addr.add(p as u64), &0u64.to_le_bytes());
    let healed = Arc::new(AtomicBool::new(false));
    let reader = {
        let pool = Arc::clone(&pool);
        let healed = Arc::clone(&healed);
        std::thread::spawn(move || {
            let mut ep = Endpoint::new(pool);
            let r = ops.read_neighborhood(&mut ep, addr, target_key);
            assert!(
                healed.load(Ordering::SeqCst),
                "reader accepted a half-hopped state"
            );
            r.found.expect("key present after heal").1
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!reader.is_finished(), "bitmap check must force retries");
    healed.store(true, Ordering::SeqCst);
    ep.write(addr.add(p as u64), &orig);
    assert_eq!(reader.join().unwrap(), target_val);
    let _ = home;
}

/// Speculative reads fail closed: a torn entry never yields a value, the
/// caller just falls back to the neighborhood path.
#[test]
fn speculative_read_fails_closed_on_torn_entry() {
    let (pool, ops, addr, items) = setup(40);
    let (target_key, _) = items[3];
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let snap = ops.read_full(&mut ep, addr);
    let (idx, _) = snap.find(target_key, 8).unwrap();
    // Tear the entry's EV (lead byte bumped, line slots not).
    let layout = ops.layout.versioned();
    let off = ops.layout.entry_off(idx);
    let p = layout.phys_of(off);
    let mut orig = vec![0u8; 1];
    ep.read(addr.add(p as u64), &mut orig);
    // Entries straddling a line have interior version slots; bumping only
    // the lead byte makes them disagree.
    let interior_slots = layout.line_ver_slots(off, off + ops.layout.entry_size());
    if interior_slots.len() == 0 {
        // Entry fits one line: a torn EV is impossible by construction;
        // nothing to inject (that is itself the guarantee).
        return;
    }
    ep.write(addr.add(p as u64), &[pack_ver(0, 0x7)]);
    assert_eq!(
        ops.spec_read(&mut ep, addr, idx, target_key),
        None,
        "speculation must fail closed on EV mismatch"
    );
    ep.write(addr.add(p as u64), &orig);
}

/// Verbs of the reader's endpoint after which a scheduled heal lands.
const HEAL_AFTER: u64 = 3;

/// A reader endpoint that has already issued the heal of a torn state: a
/// WRITE of `orig` at `at` torn to zero lines, so all of it lands
/// [`HEAL_AFTER`] verbs later. A reader retrying once per READ therefore
/// sees the torn state on exactly `HEAL_AFTER - 1` READs.
fn reader_healing_later(pool: &Arc<Pool>, at: GlobalAddr, orig: &[u8]) -> Endpoint {
    let mut plan = FaultPlan::seeded(1);
    plan.rules.push(FaultRule::always(
        "heal-later",
        Some(VerbKind::Write),
        FaultAction::TornWrite {
            lines: 0,
            heal_after: Some(HEAL_AFTER),
        },
    ));
    let mut ep = Endpoint::with_faults(Arc::clone(pool), Arc::new(FaultSession::new(plan)), 0);
    ep.write(at, orig);
    ep
}

/// Two leaves read in one batch, the second one torn by `tear`, which
/// overwrites bytes of it through a plain endpoint and returns the address
/// and original bytes that heal it. The batch must keep re-reading the torn
/// leaf until the heal lands, then return both leaves' exact content.
fn batch_read_waits_out(
    tear: impl FnOnce(&Arc<Pool>, &LeafOps, GlobalAddr) -> (GlobalAddr, Vec<u8>),
) {
    let pool = Pool::with_defaults(1, 4 << 20);
    let ops = ops();
    let first = GlobalAddr::new(0, RESERVED_BYTES);
    let second = GlobalAddr::new(0, RESERVED_BYTES + 4096);
    let want_first = write_leaf(&pool, &ops, first, 40, 3);
    let want_second = write_leaf(&pool, &ops, second, 40, 5);
    let (at, orig) = tear(&pool, &ops, second);
    let mut ep = reader_healing_later(&pool, at, &orig);
    let torn_before = ep.stats().torn_reads_detected;
    let snaps = ops.read_full_batch(&mut ep, &[first, second]);
    assert_eq!(
        ep.stats().torn_reads_detected - torn_before,
        HEAL_AFTER - 1,
        "one torn read per READ until the heal lands"
    );
    for (snap, want) in snaps.into_iter().zip([want_first, want_second]) {
        let mut got: Vec<_> = snap.into_items().collect();
        got.sort();
        assert_eq!(got, want);
    }
}

/// Overwrites the logical bytes at `off` of the leaf at `addr` with
/// `bytes` (which must not cross a line-version slot); returns the heal.
fn overwrite(
    pool: &Arc<Pool>,
    ops: &LeafOps,
    addr: GlobalAddr,
    off: usize,
    bytes: &[u8],
) -> (GlobalAddr, Vec<u8>) {
    let layout = ops.layout.versioned();
    let span = layout.phys_of(off + bytes.len() - 1) - layout.phys_of(off);
    assert_eq!(span, bytes.len() - 1, "bytes cross a line-version slot");
    let at = addr.add(layout.phys_of(off) as u64);
    let mut ep = Endpoint::new(Arc::clone(pool));
    let mut orig = vec![0u8; bytes.len()];
    ep.read(at, &mut orig);
    ep.write(at, bytes);
    (at, orig)
}

/// A node write stalled after touching one line: that line's version byte
/// carries a newer NV than the rest of the leaf.
#[test]
fn batch_read_waits_out_torn_line_nv() {
    batch_read_waits_out(|pool, _ops, addr| {
        let at = addr.add(5 * LINE as u64);
        let mut ep = Endpoint::new(Arc::clone(pool));
        let mut orig = vec![0u8; 1];
        ep.read(at, &mut orig);
        ep.write(at, &[pack_ver(bump(nv(orig[0])), ev(orig[0]))]);
        (at, orig)
    });
}

/// An entry write stalled between the entry's leading version byte and
/// the line-version slot inside it: the entry straddles a line, and its
/// two version bytes disagree on EV while every NV still agrees.
#[test]
fn batch_read_waits_out_torn_ev_of_straddling_entry() {
    batch_read_waits_out(|pool, ops, addr| {
        let layout = ops.layout.versioned();
        let esize = ops.layout.entry_size();
        let idx = (0..64)
            .find(|&i| {
                let off = ops.layout.entry_off(i);
                layout.line_ver_slots(off, off + esize).len() == 1 && off % 63 != 0
            })
            .expect("some entry straddles a line");
        let off = ops.layout.entry_off(idx);
        let mut ep = Endpoint::new(Arc::clone(pool));
        let mut lead = [0u8; 1];
        ep.read(addr.add(layout.phys_of(off) as u64), &mut lead);
        overwrite(
            pool,
            ops,
            addr,
            off,
            &[pack_ver(nv(lead[0]), bump(ev(lead[0])))],
        )
    });
}

/// A hop stalled between moving a key out of its slot and clearing the
/// home bitmap bit: the bitmap claims an empty slot.
#[test]
fn batch_read_waits_out_bitmap_occupancy_mismatch() {
    batch_read_waits_out(|pool, ops, addr| {
        let layout = ops.layout.versioned();
        let mut ep = Endpoint::new(Arc::clone(pool));
        let snap = ops.read_full(&mut ep, addr);
        let key_off = (0..64)
            .filter(|&i| snap.keys[i] != 0)
            .map(|i| ops.layout.entry_off(i) + entry_field::KEY)
            .find(|&k| layout.line_ver_slots(k, k + 8).len() == 0)
            .expect("some stored key lies inside one line");
        overwrite(pool, ops, addr, key_off, &0u64.to_le_bytes())
    });
}
