//! Criterion microbenchmarks for the hot paths of the substrate and the
//! index implementations (wall-clock cost of the simulator itself, not the
//! modeled network numbers — those come from the figure binaries).

use std::sync::Arc;

use chime::hopscotch::build_table;
use chime::layout::LeafLayout;
use chime::leaf::{LeafMeta, LeafOps};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dmem::hash::home_entry;
use dmem::node::RESERVED_BYTES;
use dmem::versioned::Layout;
use dmem::{Endpoint, GlobalAddr, Pool, RangeIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ycsb::{KeySpace, Zipfian};

fn bench_substrate(c: &mut Criterion) {
    let pool = Pool::with_defaults(1, 16 << 20);
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let addr = GlobalAddr::new(0, RESERVED_BYTES);
    let data = vec![0xABu8; 256];
    let mut buf = vec![0u8; 256];
    let mut g = c.benchmark_group("substrate");
    g.bench_function("write_256B", |b| b.iter(|| ep.write(addr, &data)));
    g.bench_function("read_256B", |b| b.iter(|| ep.read(addr, &mut buf)));
    g.bench_function("masked_cas", |b| {
        b.iter(|| {
            let _ = ep.masked_cas(addr, 0, 1, 1, 1);
            ep.write(addr, &0u64.to_le_bytes());
        })
    });
    let layout = Layout::new(1300);
    layout.write(&mut ep, addr, 0, &vec![7u8; 1300], |_| 0);
    g.bench_function("versioned_fetch_neighborhood", |b| {
        b.iter(|| layout.fetch(&mut ep, addr, 170, 170 + 162))
    });
    // One 64-entry leaf (48 keys): fetch, NV/EV checks, snapshot, bitmaps.
    let ops = LeafOps::new(LeafLayout {
        span: 64,
        h: 8,
        key_size: 8,
        value_size: 8,
        replication: true,
        fences: false,
        piggyback: true,
    });
    let items: Vec<(u64, Vec<u8>)> = (1..=48u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
    let meta = LeafMeta {
        sibling: GlobalAddr::NULL,
        valid: true,
        fences: None,
    };
    ops.write_new(&mut ep, addr, &build_table(64, 8, &items).unwrap(), &meta);
    g.bench_function("leaf_read_full", |b| {
        b.iter(|| ops.read_full(&mut ep, addr))
    });
    g.finish();
}

fn bench_hopscotch(c: &mut Criterion) {
    use chime::hopscotch::Window;
    let items: Vec<(u64, Vec<u8>)> = (1..=48u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
    let mut g = c.benchmark_group("hopscotch");
    g.bench_function("build_table_48_of_64", |b| {
        b.iter(|| build_table(64, 8, &items).unwrap())
    });
    let base = build_table(64, 8, &items).unwrap();
    g.bench_function("window_insert_with_hops", |b| {
        b.iter_batched(
            || base.clone(),
            |mut w: Window| {
                let key = 999_999u64;
                let home = home_entry(key, 64);
                if let Some(e) = w.first_empty_from(home) {
                    let _ = w.insert(key, vec![0u8; 8], e);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_ycsb(c: &mut Criterion) {
    let z = Zipfian::new(60_000_000, 0.99);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut g = c.benchmark_group("ycsb");
    g.bench_function("zipfian_sample", |b| b.iter(|| z.next(&mut rng)));
    g.bench_function("key_space", |b| {
        let mut s = 0u64;
        b.iter(|| {
            s += 1;
            KeySpace::key(s)
        })
    });
    g.finish();
}

fn bench_index_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_ops");
    g.sample_size(20);
    // CHIME search against a 50k-key tree.
    let pool = Pool::with_defaults(1, 512 << 20);
    let t = chime::Chime::create(&pool, chime::ChimeConfig::default(), 0);
    let cn = t.new_cn();
    let mut cc = t.client(&cn);
    for seq in 0..50_000u64 {
        cc.insert(KeySpace::key(seq), &[1u8; 8]).unwrap();
    }
    let mut i = 0u64;
    g.bench_function("chime_search", |b| {
        b.iter(|| {
            i += 1;
            cc.search(KeySpace::key(i * 7 % 50_000)).unwrap()
        })
    });
    let mut out = Vec::with_capacity(100);
    g.bench_function("chime_scan_100", |b| {
        b.iter(|| {
            i += 1;
            out.clear();
            cc.scan(KeySpace::key(i * 7 % 50_000), 100, &mut out);
            out.len()
        })
    });
    let mut j = 60_000u64;
    g.bench_function("chime_insert", |b| {
        b.iter(|| {
            j += 1;
            cc.insert(KeySpace::key(j), &[2u8; 8]).unwrap()
        })
    });
    // Sherman search for comparison (whole-node reads).
    let ts = sherman::Sherman::create(&pool, sherman::ShermanConfig::default(), 1);
    let cns = ts.new_cn();
    let mut cs = ts.client(&cns);
    for seq in 0..50_000u64 {
        cs.insert(KeySpace::key(seq), &[1u8; 8]).unwrap();
    }
    let mut k = 0u64;
    g.bench_function("sherman_search", |b| {
        b.iter(|| {
            k += 1;
            cs.search(KeySpace::key(k * 7 % 50_000)).unwrap()
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_substrate, bench_hopscotch, bench_ycsb, bench_index_ops
}
criterion_main!(benches);
