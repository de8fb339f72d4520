//! Allocation guard for the single-writer commit: a warm one-row
//! update on the 1,092-pole volatile store stays under a per-commit
//! allocation bound. A commit patches the shared partitions in place:
//! it copies the touched row, its row bucket and the partition header,
//! never the extent, its spatial index or a page record.
//!
//! This test binary must stay single-test: the counting allocator is
//! process-global, and a parallel test allocating on another thread
//! would poison the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use geodb::gen::{phone_net_db, TelecomConfig};
use geodb::{DbStore, Oid, Value};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counters are
// relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const WARM_COMMITS: usize = 16;
const MEASURED_COMMITS: usize = 64;

fn pole_type(value: i64) -> Vec<(String, Value)> {
    vec![("pole_type".to_string(), Value::Int(value))]
}

#[test]
fn one_row_commit_stays_under_the_allocation_bound() {
    obs::set_enabled(true);
    let (db, stats) = phone_net_db(&TelecomConfig::with_poles(1000)).unwrap();
    assert_eq!(stats.poles, 1092);
    let store = DbStore::new(db);
    let poles: Vec<Oid> = store
        .snapshot()
        .get_class("phone_net", "Pole", false)
        .unwrap()
        .iter()
        .map(|p| p.oid)
        .collect();
    for (i, &oid) in poles.iter().take(WARM_COMMITS).enumerate() {
        store
            .write(|db| db.update(oid, pole_type(i as i64)))
            .unwrap();
    }

    let (mut allocations, mut bytes) = (0, 0);
    for (i, &oid) in poles
        .iter()
        .skip(WARM_COMMITS)
        .take(MEASURED_COMMITS)
        .enumerate()
    {
        let value = 100 + i as i64;
        let epoch = store.epoch();
        let changes = pole_type(value);
        let (a0, b0) = (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        let committed = store.write(|db| db.update(oid, changes)).unwrap();
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - a0;
        bytes += BYTES.load(Ordering::Relaxed) - b0;
        assert_eq!(
            committed.epoch,
            epoch.next(),
            "the commit advanced the epoch"
        );
        let row = store.snapshot().get_value(oid).unwrap();
        assert_eq!(
            row.get("pole_type"),
            &Value::Int(value),
            "the value changed"
        );
    }
    let per_commit = allocations as f64 / MEASURED_COMMITS as f64;
    let kb_per_commit = bytes as f64 / MEASURED_COMMITS as f64 / 1024.0;
    eprintln!("per commit: {per_commit:.1} allocations, {kb_per_commit:.1} KiB");
    // Measured 29.0 allocations and 2.9 KiB: the copied row, its bucket,
    // the partition and partition-map headers, the `Update` event and
    // the published snapshot. A page-backed extent with a rebuilt
    // mirror cost 617 and 224 KiB; copying the insertion order alone
    // would add 8.5 KiB, and the R-tree hundreds of allocations.
    assert!(per_commit <= 36.0, "{per_commit:.1} allocations per commit");
    assert!(
        kb_per_commit <= 4.0,
        "{kb_per_commit:.1} KiB allocated per commit"
    );
}
