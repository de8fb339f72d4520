//! Allocation guard for the shipped dispatch path: a warm 32-event
//! `Dispatcher::dispatch_db_batch` with engine tracing and metrics on
//! (the defaults) stays under a per-event allocation bound. The
//! explanation trace is recorded for every event and kept by the log,
//! so the bound prices the trace in: interned rule names, one shared
//! `Arc<Trace>` per event, no rendering and no per-event metric keys.
//!
//! This test binary must stay single-test: the counting allocator is
//! process-global, and a parallel test allocating on another thread
//! would poison the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use activegis::{Dispatcher, SessionContext, TelecomConfig, FIG6_PROGRAM};
use geodb::query::DbEvent;
use geodb::Oid;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const BATCH: usize = 32;
const WARM_BATCHES: usize = 8;
const MEASURED_BATCHES: usize = 16;

/// A small synthetic program: one Pole customization per `user{i}`.
fn synthetic_program(n: usize) -> String {
    (0..n)
        .map(|i| {
            let fmt = ["pointFormat", "symbolFormat", "tableFormat", "default"][i % 4];
            format!(
                "for user user{i} application pole_manager\n\
                 schema phone_net display as default\n\
                 class Pole display presentation as {fmt}\n\
                 instances display attribute pole_location as Null\n"
            )
        })
        .collect()
}

/// 32 events in the server's kind-sorted order: `Get_Class` over three
/// classes, then `Get_Value` over eight poles.
fn batch() -> Vec<DbEvent> {
    let classes = (0..12).map(|i| DbEvent::GetClass {
        schema: "phone_net".into(),
        class: ["Pole", "Duct", "Supplier"][i % 3].into(),
    });
    let values = (0..BATCH - 12).map(|i| DbEvent::GetValue {
        schema: "phone_net".into(),
        class: "Pole".into(),
        oid: Oid(1 + (i as u64 % 8)),
    });
    classes.chain(values).collect()
}

/// Mean allocations per event over `MEASURED_BATCHES` warm batches for
/// one session, checking every batch answers all 32 events and adds 32
/// explanation records.
fn allocations_per_event(d: &mut Dispatcher, context: SessionContext) -> f64 {
    let sid = d.open_session(context);
    for _ in 0..WARM_BATCHES {
        d.dispatch_db_batch(sid, batch()).unwrap();
    }
    let mut allocations = 0;
    for _ in 0..MEASURED_BATCHES {
        let events = batch();
        let recorded = d.explanation_log().total_recorded();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcomes = d.dispatch_db_batch(sid, events).unwrap();
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        let ok = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(ok, BATCH, "every event answered");
        assert_eq!(
            d.explanation_log().total_recorded() - recorded,
            BATCH as u64,
            "one explanation record per event"
        );
    }
    allocations as f64 / (MEASURED_BATCHES * BATCH) as f64
}

#[test]
fn traced_batches_stay_under_the_allocation_bound() {
    obs::set_enabled(true);
    let mut d = gisui::paper_dispatcher(&TelecomConfig::small()).unwrap();
    assert!(d.engine().config().tracing, "tracing ships on");
    d.install_program(FIG6_PROGRAM, "fig6").unwrap();
    d.install_program(&synthetic_program(64), "synthetic")
        .unwrap();

    let customized = allocations_per_event(
        &mut d,
        SessionContext::new("juliano", "planner", "pole_manager"),
    );
    let generic = allocations_per_event(
        &mut d,
        SessionContext::new("user9999", "planner", "pole_manager"),
    );
    eprintln!("allocations per event: customized {customized:.2}, generic {generic:.2}");
    // Measured 17.8 and 3.7. The customized figure is mostly the fired
    // rules' `Customization` payloads, cloned into each outcome; the
    // generic one is the trace: its `Arc<Trace>`, entry vector and event
    // description. Copying and rendering the trace per event cost 35.6
    // and 15.5.
    assert!(
        customized <= 19.0,
        "customized: {customized:.2} allocations per event"
    );
    assert!(
        generic <= 4.0,
        "generic: {generic:.2} allocations per event"
    );
}
