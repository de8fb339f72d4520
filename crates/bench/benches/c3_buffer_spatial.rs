//! C3 — "the interface has to provide large buffers … efficient
//! management of buffers is a typical dbms problem the gis interface must
//! deal with."
//!
//! Three measurements:
//!
//! 1. Spatial access methods on map-viewport queries: R-tree vs. uniform
//!    grid vs. sequential scan at 1k / 10k / 50k poles. Expected shape:
//!    scan linear in extension size; R-tree and grid roughly flat in the
//!    non-matching population — R-tree wins clearly past ~10³ features.
//! 2. Buffer-pool hit rate under a map-browsing workload (panning a
//!    viewport) as the pool shrinks below the working set, LRU vs.
//!    clock. Expected: hit-rate knee when the pool no longer covers the
//!    hot region; clock within a few points of LRU at a fraction of the
//!    bookkeeping.
//! 3. End-to-end pan latency through the page store (query + record
//!    fetch through the pool).
//!
//! The database itself keeps its rows in memory-resident copy-on-write
//! partitions; sections 2 and 3 store the same generated poles as page
//! records ([`PagedPoles`]) so the pool sees every record fetch.

use std::collections::HashMap;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bench::db_with_poles;
use geodb::db::IndexKind;
use geodb::gen::{phone_net_db, TelecomConfig};
use geodb::geometry::Rect;
use geodb::index::{RTree, SpatialIndex};
use geodb::instance::{Instance, Oid};
use geodb::storage::{BufferPool, EvictionPolicy, HeapFile, MemStore, RecordId};

fn db_with_index(n: usize, kind: IndexKind) -> geodb::db::Database {
    let mut db = geodb::db::Database::new("bench");
    db.set_index_kind(kind);
    geodb::gen::generate_phone_net(&mut db, &TelecomConfig::with_poles(n)).unwrap();
    db
}

/// Generated poles stored as JSON page records in a heap file behind a
/// buffer pool, located through an R-tree over their locations.
struct PagedPoles {
    pool: BufferPool<MemStore>,
    heap: HeapFile,
    records: HashMap<Oid, RecordId>,
    index: RTree,
}

impl PagedPoles {
    fn new(poles: usize, frames: usize, policy: EvictionPolicy) -> PagedPoles {
        let db = db_with_poles(poles);
        let rows = db.snapshot().get_class("phone_net", "Pole", false).unwrap();
        let mut paged = PagedPoles {
            pool: BufferPool::new(MemStore::new(), frames, policy),
            heap: HeapFile::new(),
            records: HashMap::with_capacity(rows.len()),
            index: RTree::new(),
        };
        for row in &rows {
            let bytes = serde_json::to_vec(&**row).unwrap();
            let rid = paged.heap.insert(&mut paged.pool, &bytes).unwrap();
            paged.records.insert(row.oid, rid);
            let bbox = row.get("pole_location").as_geometry().unwrap().bbox();
            paged.index.insert(row.oid, bbox);
        }
        paged.pool.reset_stats();
        paged
    }

    /// A map viewport: index candidates fetched through the pool,
    /// decoded, and refined against their exact geometry.
    fn window(&mut self, w: Rect) -> Vec<Instance> {
        let mut out = Vec::new();
        for oid in self.index.query_rect(&w) {
            let bytes = self.heap.get(&mut self.pool, self.records[&oid]).unwrap();
            let pole: Instance = serde_json::from_slice(&bytes).unwrap();
            let geom = pole.get("pole_location").as_geometry();
            if geom.is_some_and(|g| g.intersects_rect(&w)) {
                out.push(pole);
            }
        }
        out
    }
}

fn bench_spatial(c: &mut Criterion) {
    let mut group = c.benchmark_group("c3_access_methods");
    group.sample_size(20);

    for &n in &[1000usize, 10_000, 50_000] {
        // Viewport ≈ 1% of the map area.
        let side = (2.0 * (n as f64)).sqrt() * 100.0 / 10.0; // rough grid extent / 10
        let window = Rect::new(0.0, 0.0, side, side);

        for (label, kind) in [
            ("rtree", IndexKind::RTree),
            ("grid", IndexKind::Grid { cell: 50.0 }),
            ("scan", IndexKind::None),
        ] {
            let mut db = db_with_index(n, kind);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(label, n), &window, |b, window| {
                b.iter(|| black_box(db.window_query("phone_net", "Pole", *window).unwrap()));
            });
        }
    }
    group.finish();

    // Ablation: insertion-built vs. STR bulk-loaded R-tree (DESIGN.md §6).
    {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let items: Vec<(Oid, Rect)> = (0..50_000u64)
            .map(|i| {
                let x = rng.gen_range(0.0..10_000.0);
                let y = rng.gen_range(0.0..10_000.0);
                (Oid(i), Rect::new(x, y, x + 2.0, y + 2.0))
            })
            .collect();
        let inserted = RTree::from_items(items.iter().cloned());
        let bulk = RTree::bulk_load(items.iter().cloned());
        eprintln!(
            "\n[c3] R-tree fill factor at 50k rects: insertion-built {:.2}, STR bulk {:.2}",
            inserted.fill_factor(),
            bulk.fill_factor()
        );
        let mut group = c.benchmark_group("c3_rtree_build_ablation");
        group.sample_size(10);
        group.bench_function("build_by_insertion", |b| {
            b.iter(|| black_box(RTree::from_items(items.iter().cloned())));
        });
        group.bench_function("build_by_str_bulk_load", |b| {
            b.iter(|| black_box(RTree::bulk_load(items.iter().cloned())));
        });
        let window = Rect::new(2000.0, 2000.0, 3000.0, 3000.0);
        group.bench_function("query_insertion_built", |b| {
            b.iter(|| black_box(inserted.query_rect(&window)));
        });
        group.bench_function("query_bulk_loaded", |b| {
            b.iter(|| black_box(bulk.query_rect(&window)));
        });
        group.finish();
    }

    // Buffer-pool hit rates under a panning workload (printed series).
    eprintln!("\n[c3] buffer hit rate, panning browse over ~10k poles");
    eprintln!("{:>8} {:>10} {:>10}", "frames", "LRU", "Clock");
    for &frames in &[8usize, 32, 128, 512] {
        let mut rates = Vec::new();
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Clock] {
            let mut paged = PagedPoles::new(10_000, frames, policy);
            // Pan a viewport across the map twice (re-visits = hits).
            let extent = 2.0 * (10_000f64).sqrt() * 10.0;
            for _ in 0..2 {
                let mut x = 0.0;
                while x < extent {
                    paged.window(Rect::new(x, 0.0, x + extent / 8.0, extent));
                    x += extent / 16.0;
                }
            }
            rates.push(paged.pool.stats().hit_rate());
        }
        eprintln!(
            "{:>8} {:>9.1}% {:>9.1}%",
            frames,
            rates[0] * 100.0,
            rates[1] * 100.0
        );
    }
    eprintln!();

    // End-to-end pan latency with a tight pool vs. a roomy one.
    let mut group = c.benchmark_group("c3_pan_latency");
    group.sample_size(20);
    for &frames in &[16usize, 1024] {
        let mut paged = PagedPoles::new(10_000, frames, EvictionPolicy::Lru);
        let extent = 2.0 * (10_000f64).sqrt() * 10.0;
        let mut x = 0.0f64;
        group.bench_with_input(BenchmarkId::from_parameter(frames), &frames, |b, _| {
            b.iter(|| {
                x = (x + extent / 16.0) % extent;
                black_box(paged.window(Rect::new(x, 0.0, x + extent / 8.0, extent)))
            });
        });
    }
    group.finish();

    // Raw snapshot determinism guard (cheap sanity while we are here).
    let (mut db, _) = phone_net_db(&TelecomConfig::small()).unwrap();
    let a = geodb::snapshot::save(&mut db).unwrap();
    assert!(!a.is_empty());
}

criterion_group!(benches, bench_spatial);
criterion_main!(benches);
