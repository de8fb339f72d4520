//! F4 — generic (default) window construction (paper Fig. 4).
//!
//! The generic interface builder's cost to assemble each of the three
//! window types, scaled along the axes that matter: Schema windows vs.
//! number of classes, Class-set windows vs. extension size, Instance
//! windows vs. attribute count.
//!
//! Expected shape: Schema linear in classes, Class-set linear in visible
//! instances (scene population dominates), Instance linear in attributes.

use bench::db_with_poles;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use builder::InterfaceBuilder;
use geodb::db::Database;
use geodb::schema::{ClassDef, SchemaDef};
use geodb::value::AttrType;

/// A schema with `n` classes.
fn wide_schema(n: usize) -> SchemaDef {
    let mut s = SchemaDef::new("wide");
    for i in 0..n {
        s = s.class(
            ClassDef::new(format!("Class{i}"))
                .attr("name", AttrType::Text)
                .attr("location", AttrType::Geometry),
        );
    }
    s
}

fn bench_default_windows(c: &mut Criterion) {
    let builder = InterfaceBuilder::with_paper_library();

    // Schema window vs. class count.
    let mut group = c.benchmark_group("fig4_schema_window");
    for &n in &[4usize, 16, 64, 256] {
        let mut db = Database::new("bench");
        db.register_schema(wide_schema(n)).unwrap();
        let schema = db.catalog().schema("wide").unwrap().clone();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(builder.schema_window(&schema, db.catalog(), None).unwrap()));
        });
    }
    group.finish();

    // Class-set window vs. extension size.
    let mut group = c.benchmark_group("fig4_class_window");
    group.sample_size(20);
    for &n in &[100usize, 1000, 10_000] {
        let snap = geodb::store::DbStore::new(db_with_poles(n)).snapshot();
        let poles = snap.get_class("phone_net", "Pole", false).unwrap();
        group.throughput(Throughput::Elements(poles.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &poles, |b, poles| {
            b.iter(|| {
                black_box(
                    builder
                        .class_window("phone_net", "Pole", poles, None)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();

    // Instance window (fixed: the 6-attribute Pole of Fig. 5) and its
    // ASCII rendering. Instance windows build against a pinned snapshot
    // since the shared-storage refactor.
    let mut group = c.benchmark_group("fig4_instance_window");
    let snap = geodb::store::DbStore::new(db_with_poles(100)).snapshot();
    let poles = snap.get_class("phone_net", "Pole", false).unwrap();
    group.bench_function("build", |b| {
        b.iter(|| black_box(builder.instance_window(&snap, &poles[0], None).unwrap()));
    });
    let win = builder.instance_window(&snap, &poles[0], None).unwrap();
    group.bench_function("render_ascii", |b| {
        b.iter(|| black_box(win.to_ascii()));
    });
    group.bench_function("render_svg", |b| {
        b.iter(|| black_box(win.to_svg()));
    });
    group.finish();
}

criterion_group!(benches, bench_default_windows);
criterion_main!(benches);
