//! Differential suite for the binary WAL record codec (`walcodec`).
//!
//! Three contracts (`docs/storage.md`):
//!
//! 1. **Format equivalence**: for any record, decoding the binary frame
//!    yields exactly the same `WalRecord` as serializing to JSON and
//!    parsing that back — the two formats are interchangeable.
//! 2. **Torn frames**: a binary payload truncated at *any* byte offset
//!    fails to decode cleanly (`None`), never panics and never yields a
//!    wrong record — recovery treats it as a torn tail.
//! 3. **Mixed logs**: a log holding a JSON prefix and a binary tail (a
//!    log from a JSON-writing build, version 1 or 2, reopened by this
//!    one) recovers to the same state as an oracle replay, at every
//!    truncation offset. Stores write binary frames only, so these tests
//!    write the JSON prefix themselves ([`write_json_log`]).

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use geodb::db::Database;
use geodb::geometry::{Geometry, Point, Polygon, Polyline};
use geodb::instance::{Instance, Oid};
use geodb::query::DbEvent;
use geodb::schema::{ClassDef, SchemaDef};
use geodb::value::{AttrType, Value};
use geodb::wal::{self, Wal, WalConfig, WalOp, WalRecord};
use geodb::walcodec;
use geodb::Epoch;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "activegis-walcodec-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Arbitrary WalRecords
// ---------------------------------------------------------------------------

/// Attribute/class names drawn from a pool that collides with the
/// codec's static vocabulary about half the time, exercising both the
/// static and the per-frame string table.
fn arb_name() -> BoxedStrategy<String> {
    prop_oneof![
        Just("name".to_string()),
        Just("schema".to_string()),
        Just("x".to_string()),
        Just("optional".to_string()),
        (0..40u32).prop_map(|n| format!("attr_{n}")),
        (0..40u32).prop_map(|n| format!("weird \"n\\ame\" {n}\n")),
    ]
    .boxed()
}

fn arb_float() -> BoxedStrategy<f64> {
    // Finite only: the JSON oracle cannot represent NaN/infinity.
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        -1.0e12..1.0e12f64,
        (-1.0..1.0f64).prop_map(|f| f / 1.0e9),
    ]
    .boxed()
}

fn arb_point() -> impl Strategy<Value = Point> {
    (arb_float(), arb_float()).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_geometry() -> BoxedStrategy<Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        proptest::collection::vec(arb_point(), 2..6)
            .prop_map(|pts| Geometry::Polyline(Polyline::new(pts).expect("2+ points"))),
        (arb_float(), arb_float(), 1.0..50.0f64).prop_map(|(x, y, r)| {
            // A triangle is always a valid non-degenerate ring.
            let ring = vec![Point::new(x, y), Point::new(x + r, y), Point::new(x, y + r)];
            Geometry::Polygon(Polygon::new(ring).expect("triangle ring"))
        }),
    ]
    .boxed()
}

fn arb_value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        arb_float().prop_map(Value::Float),
        arb_name().prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|n| Value::Ref(Oid(n))),
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(Value::Bitmap),
        arb_geometry().prop_map(Value::Geometry),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        leaf,
        proptest::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::List),
        proptest::collection::vec((arb_name(), arb_value(depth - 1)), 0..4).prop_map(Value::Tuple),
    ]
    .boxed()
}

fn arb_attr_type(depth: u32) -> BoxedStrategy<AttrType> {
    let leaf = prop_oneof![
        Just(AttrType::Int),
        Just(AttrType::Float),
        Just(AttrType::Text),
        Just(AttrType::Bool),
        Just(AttrType::Geometry),
        Just(AttrType::Bitmap),
        arb_name().prop_map(AttrType::Ref),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        leaf,
        arb_attr_type(depth - 1).prop_map(|t| AttrType::List(Box::new(t))),
        proptest::collection::vec((arb_name(), arb_attr_type(depth - 1)), 0..3)
            .prop_map(AttrType::Tuple),
    ]
    .boxed()
}

fn arb_schema_def() -> BoxedStrategy<SchemaDef> {
    (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_attr_type(1), any::<bool>()), 0..4),
    )
        .prop_map(|(name, attrs)| {
            let mut class = ClassDef::new("C");
            for (attr, ty, optional) in attrs {
                class = if optional {
                    class.optional_attr(attr, ty)
                } else {
                    class.attr(attr, ty)
                };
            }
            SchemaDef::new(name).class(class)
        })
        .boxed()
}

fn arb_instance() -> BoxedStrategy<Instance> {
    (
        any::<u64>(),
        arb_name(),
        proptest::collection::vec((arb_name(), arb_value(2)), 0..5),
    )
        .prop_map(|(oid, class, values)| {
            let mut inst = Instance::new(Oid(oid), class);
            inst.values = values.into_iter().collect();
            inst
        })
        .boxed()
}

fn arb_event() -> BoxedStrategy<DbEvent> {
    prop_oneof![
        arb_name().prop_map(|schema| DbEvent::GetSchema { schema }),
        (arb_name(), arb_name()).prop_map(|(schema, class)| DbEvent::GetClass { schema, class }),
        (arb_name(), arb_name(), any::<u64>()).prop_map(|(schema, class, oid)| DbEvent::Insert {
            schema,
            class,
            oid: Oid(oid)
        }),
        (arb_name(), arb_name(), any::<u64>()).prop_map(|(schema, class, oid)| DbEvent::Update {
            schema,
            class,
            oid: Oid(oid)
        }),
        (arb_name(), arb_name(), any::<u64>()).prop_map(|(schema, class, oid)| DbEvent::Delete {
            schema,
            class,
            oid: Oid(oid)
        }),
        arb_name().prop_map(|schema| DbEvent::SchemaRegistered { schema }),
    ]
    .boxed()
}

fn arb_op() -> BoxedStrategy<WalOp> {
    prop_oneof![
        arb_schema_def().prop_map(|def| WalOp::Schema { def }),
        (arb_name(), arb_instance())
            .prop_map(|(schema, instance)| WalOp::Upsert { schema, instance }),
        any::<u64>().prop_map(|oid| WalOp::Delete { oid: Oid(oid) }),
    ]
    .boxed()
}

fn arb_record() -> BoxedStrategy<WalRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(arb_event(), 0..4),
        proptest::collection::vec(arb_op(), 0..4),
    )
        .prop_map(|(epoch, next_oid, events, ops)| WalRecord {
            epoch: Epoch(epoch),
            next_oid,
            events,
            ops,
        })
        .boxed()
}

// ---------------------------------------------------------------------------
// Codec properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(binary(rec)) == rec == decode(json(rec)): the binary codec
    /// and the JSON codec agree on every record either can produce.
    #[test]
    fn binary_and_json_decode_to_the_same_record(rec in arb_record()) {
        let bin = walcodec::encode_record(&rec);
        prop_assert_eq!(bin.first(), Some(&walcodec::BINARY_MARKER));
        let via_binary = walcodec::decode_record(&bin)
            .expect("well-formed binary frame must decode");
        prop_assert_eq!(&via_binary, &rec, "binary round-trip diverged");

        let json = serde_json::to_vec(&rec).expect("finite floats encode");
        let via_json: WalRecord = serde_json::from_slice(&json).expect("JSON round-trip");
        prop_assert_eq!(&via_binary, &via_json, "formats disagree");

        // Both paths feed the same sniffing decoder recovery uses.
        let sniffed_bin = wal::decode_payload(&bin);
        let sniffed_json = wal::decode_payload(&json);
        prop_assert_eq!(sniffed_bin.as_ref(), Some(&rec));
        prop_assert_eq!(sniffed_json.as_ref(), Some(&rec));
    }

    /// Every strict prefix of a binary frame fails to decode — no panic,
    /// no bogus record. This is what makes torn-tail truncation safe for
    /// binary frames.
    #[test]
    fn truncated_binary_frames_never_decode(rec in arb_record()) {
        let bin = walcodec::encode_record(&rec);
        for cut in 0..bin.len() {
            prop_assert!(
                walcodec::decode_record(&bin[..cut]).is_none(),
                "prefix of {} bytes decoded to a record",
                cut
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Mixed-format logs
// ---------------------------------------------------------------------------

fn seeded_db(name: &str) -> Database {
    let mut db = Database::new(name);
    db.register_schema(
        SchemaDef::new("grid").class(
            ClassDef::new("Cell")
                .attr("name", AttrType::Text)
                .attr("level", AttrType::Int),
        ),
    )
    .unwrap();
    db.drain_events();
    db
}

fn insert_cell(db: &mut Database, i: i64) -> geodb::Result<Oid> {
    db.insert(
        "grid",
        "Cell",
        vec![
            ("name".into(), Value::Text(format!("c{i}"))),
            ("level".into(), Value::Int(i)),
        ],
    )
}

/// Oracle: the first `n` inserts replayed on a plain database.
fn oracle_bytes(n: usize) -> String {
    let mut db = seeded_db("mixed");
    for i in 0..n {
        insert_cell(&mut db, i as i64).unwrap();
        db.drain_events();
    }
    geodb::snapshot::save(&mut db).unwrap()
}

/// The payload kind of a log frame, sniffed by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Json,
    Binary,
}

/// The payload kind of each complete frame in a log file.
fn frame_kinds(path: &Path) -> Vec<FrameKind> {
    let bytes = std::fs::read(path).unwrap();
    let mut kinds = Vec::new();
    let mut off = 12; // file header
    while off + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let start = off + 12;
        if start + len > bytes.len() {
            break;
        }
        kinds.push(if bytes[start] == walcodec::BINARY_MARKER {
            FrameKind::Binary
        } else {
            FrameKind::Json
        });
        off = start + len;
    }
    kinds
}

/// The version field of a log file's header.
fn header_version(path: &Path) -> u32 {
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(&bytes[..8], b"GEODBWAL");
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

/// Rewrite the log in `dir` as a JSON-writing build left it: the
/// `GEODBWAL` magic, `version` in the log header and the checkpoint
/// meta, and one JSON frame (`serde_json::to_vec`, appended through
/// `Wal::append_frame`) per record.
fn write_json_log(dir: &Path, version: u32, records: &[WalRecord]) {
    let mut log = Wal::create(WalConfig::new(dir)).unwrap();
    for rec in records {
        log.append_frame(&serde_json::to_vec(rec).unwrap()).unwrap();
    }
    log.sync().unwrap();
    drop(log);
    let path = dir.join(wal::WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    let meta_path = dir.join(wal::CHECKPOINT_META_FILE);
    let meta = std::fs::read_to_string(&meta_path).unwrap();
    assert!(meta.contains("\"version\": 2"), "unexpected meta: {meta}");
    let meta = meta.replace("\"version\": 2", &format!("\"version\": {version}"));
    std::fs::write(&meta_path, meta).unwrap();
}

/// A durable store in `dir` after `writes` inserts, left on disk as a
/// JSON-writing build at `version` would have left it: the records the
/// store logged, rewritten as JSON frames.
fn json_era_store(dir: &Path, version: u32, writes: usize) {
    let (store, report) = wal::open(seeded_db("mixed"), WalConfig::new(dir)).unwrap();
    assert!(report.is_none());
    for i in 0..writes {
        store.write(|db| insert_cell(db, i as i64)).unwrap();
    }
    drop(store);
    let logged = wal::read_wal(&dir.join(wal::WAL_FILE)).unwrap().records;
    assert_eq!(logged.len(), writes);
    write_json_log(dir, version, &logged);
    assert_eq!(header_version(&dir.join(wal::WAL_FILE)), version);
    assert_eq!(
        frame_kinds(&dir.join(wal::WAL_FILE)),
        vec![FrameKind::Json; writes]
    );
}

/// A JSON-era log reopened by this build: recovery replays the JSON
/// prefix to the oracle, the store appends binary frames after it, and
/// a second recovery replays the mixed log to the same state as the
/// oracle.
fn json_prefix_recovers_then_continues_in_binary(tag: &str, version: u32) {
    const JSON_WRITES: usize = 4;
    const BINARY_WRITES: usize = 4;
    let dir = tmp_dir(tag);
    json_era_store(&dir, version, JSON_WRITES);
    {
        let (store, report) = wal::recover(WalConfig::new(&dir)).unwrap();
        assert_eq!(report.replayed_records, JSON_WRITES as u64);
        assert!(report.torn.is_none());
        assert_eq!(
            geodb::snapshot::save_snapshot(&store.snapshot()).unwrap(),
            oracle_bytes(JSON_WRITES),
            "JSON-prefix recovery diverged from the oracle"
        );
        for i in 0..BINARY_WRITES {
            store
                .write(|db| insert_cell(db, (JSON_WRITES + i) as i64))
                .unwrap();
        }
        let (status, _) = store.wal_status().unwrap();
        assert_eq!(status.records, BINARY_WRITES as u64);
        assert!(status.payload_bytes > 0);
    }

    let kinds = frame_kinds(&dir.join(wal::WAL_FILE));
    assert_eq!(kinds.len(), JSON_WRITES + BINARY_WRITES);
    assert_eq!(&kinds[..JSON_WRITES], &[FrameKind::Json; JSON_WRITES]);
    assert_eq!(&kinds[JSON_WRITES..], &[FrameKind::Binary; BINARY_WRITES]);

    let (recovered, report) = wal::recover(WalConfig::new(&dir)).unwrap();
    assert_eq!(
        report.replayed_records,
        (JSON_WRITES + BINARY_WRITES) as u64,
        "both formats replay"
    );
    assert!(report.torn.is_none());
    assert_eq!(
        geodb::snapshot::save_snapshot(&recovered.snapshot()).unwrap(),
        oracle_bytes(JSON_WRITES + BINARY_WRITES),
        "mixed-format recovery diverged from the oracle"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// A version-2 log whose prefix holds JSON frames (an older build could
/// write either format under version 2).
#[test]
fn mixed_format_log_recovers_like_the_oracle() {
    json_prefix_recovers_then_continues_in_binary("mixed", 2);
}

/// A version-1 log (JSON frames only, version-1 checkpoint meta) still
/// recovers, and this build continues it in binary.
#[test]
fn version_one_log_recovers_and_continues_in_binary() {
    json_prefix_recovers_then_continues_in_binary("v1", 1);
}

/// Truncate the mixed log at a sweep of byte offsets: recovery always
/// succeeds and lands on the oracle prefix of however many complete
/// frames survive — JSON and binary frames alike.
#[test]
fn mixed_log_truncation_sweep_holds_at_every_offset() {
    const JSON_WRITES: usize = 3;
    const BINARY_WRITES: usize = 3;
    let dir = tmp_dir("mixed-torn");

    json_era_store(&dir, 2, JSON_WRITES);
    {
        let (store, _) = wal::recover(WalConfig::new(&dir)).unwrap();
        for i in 0..BINARY_WRITES {
            store
                .write(|db| insert_cell(db, (JSON_WRITES + i) as i64))
                .unwrap();
        }
    }

    let wal_path = dir.join(wal::WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    let scratch = tmp_dir("mixed-torn-scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    for name in [wal::CHECKPOINT_FILE, wal::CHECKPOINT_META_FILE] {
        std::fs::copy(dir.join(name), scratch.join(name)).unwrap();
    }
    // Prime stride hits every alignment class; the final iteration is
    // the untruncated log.
    let mut cut = 0usize;
    while cut <= full.len() {
        std::fs::write(scratch.join(wal::WAL_FILE), &full[..cut.min(full.len())]).unwrap();
        let (store, report) = wal::recover(WalConfig::new(&scratch)).unwrap();
        let replayed = report.replayed_records as usize;
        assert!(
            replayed <= JSON_WRITES + BINARY_WRITES,
            "cut {cut}: replayed more than was written"
        );
        assert_eq!(
            geodb::snapshot::save_snapshot(&store.snapshot()).unwrap(),
            oracle_bytes(replayed),
            "cut {cut}: recovered bytes diverge from the {replayed}-op oracle"
        );
        drop(store);
        if cut == full.len() {
            break;
        }
        cut = (cut + 7).min(full.len());
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// The size win the format exists for: binary frames for a realistic
/// commit stream are at least 2x smaller than the same records as JSON.
#[test]
fn binary_frames_are_at_least_twice_as_small_as_json() {
    let mut json_bytes = 0usize;
    let mut binary_bytes = 0usize;
    let mut db = seeded_db("size");
    for i in 0..32i64 {
        let oid = insert_cell(&mut db, i).unwrap();
        let events = db.drain_events();
        let rec = WalRecord {
            epoch: Epoch(i as u64 + 2),
            next_oid: oid.0 + 1,
            events,
            ops: vec![WalOp::Upsert {
                schema: "grid".into(),
                instance: Instance {
                    oid,
                    class: "Cell".into(),
                    values: [
                        ("name".to_string(), Value::Text(format!("c{i}"))),
                        ("level".to_string(), Value::Int(i)),
                    ]
                    .into_iter()
                    .collect(),
                },
            }],
        };
        json_bytes += serde_json::to_vec(&rec).unwrap().len();
        binary_bytes += walcodec::encode_record(&rec).len();
    }
    assert!(
        binary_bytes * 2 <= json_bytes,
        "binary {binary_bytes}B not 2x smaller than JSON {json_bytes}B"
    );
}
