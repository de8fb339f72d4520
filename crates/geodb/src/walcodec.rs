//! Compact binary encoding for WAL record frames.
//!
//! JSON frames (the version-1 format, which stores now only read)
//! spend most of their bytes on repeated field names,
//! variant tags and stringified numbers. This codec serializes the same
//! self-describing [`Content`] tree the JSON path serializes — so the
//! two formats are interchangeable record-for-record — but encodes it
//! as tagged binary nodes with varint integers and an interned string
//! table:
//!
//! ```text
//! payload := MARKER(0x01)
//!            varint(dyn_count) { varint(len) utf8-bytes }*   string table
//!            node                                            record tree
//!
//! node    := 0                        null
//!          | 1 | 2                    false | true
//!          | 3 zigzag-varint          signed integer
//!          | 4 varint                 unsigned integer
//!          | 5 f64-le-bits            float (exact, NaN-safe)
//!          | 6 varint(sid)            string
//!          | 7 varint(n) node*        sequence
//!          | 8 varint(n) {node node}* map (key, value pairs)
//! ```
//!
//! String ids below `STATIC_VOCAB.len()` name well-known strings
//! (field names, enum variants) and cost one or two bytes; the rest
//! index the per-frame dynamic table in first-appearance order, so
//! repeated schema/class names are written once per frame. The vocab is
//! append-only: ids are part of the on-disk format.
//!
//! The marker byte `0x01` can never start a JSON record (those begin
//! with `{`, 0x7B), which is how [`crate::wal::decode_payload`] tells
//! the formats apart per frame — a log may freely mix them.
//!
//! Decoding is strict: unknown tags, out-of-range string ids, short
//! buffers or trailing bytes all return `None`, which WAL recovery
//! treats exactly like any other torn tail.

use std::collections::HashMap;
use std::sync::OnceLock;

use serde::content::Content;
use serde::{Deserialize, Serialize};

use crate::wal::WalRecord;

/// First payload byte of every binary frame.
pub const BINARY_MARKER: u8 = 0x01;

/// Well-known strings with fixed ids. **Append-only** — reordering or
/// removing an entry changes the meaning of every log written so far.
const STATIC_VOCAB: &[&str] = &[
    // WalRecord fields
    "epoch",
    "next_oid",
    "events",
    "ops",
    // WalOp variants + payload fields
    "Schema",
    "Upsert",
    "Delete",
    "def",
    "schema",
    "instance",
    "oid",
    "class",
    "values",
    // DbEvent variants
    "GetSchema",
    "GetClass",
    "GetValue",
    "Insert",
    "Update",
    "SchemaRegistered",
    // Value / AttrType variants
    "Null",
    "Int",
    "Float",
    "Text",
    "Bool",
    "Tuple",
    "Ref",
    "Geometry",
    "Bitmap",
    "List",
    // Geometry variants + fields
    "Point",
    "Polyline",
    "Polygon",
    "x",
    "y",
    "points",
    "ring",
    // Schema definition fields
    "name",
    "classes",
    "parent",
    "attrs",
    "methods",
    "doc",
    "ty",
    "optional",
    "params",
    "returns",
];

fn static_ids() -> &'static HashMap<&'static str, u32> {
    static IDS: OnceLock<HashMap<&'static str, u32>> = OnceLock::new();
    IDS.get_or_init(|| {
        STATIC_VOCAB
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, i as u32))
            .collect()
    })
}

// Node tags.
const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_I64: u8 = 3;
const T_U64: u8 = 4;
const T_F64: u8 = 5;
const T_STR: u8 = 6;
const T_SEQ: u8 = 7;
const T_MAP: u8 = 8;

/// Nesting deeper than any real record; a backstop against corrupt
/// frames recursing the decoder off the stack.
const MAX_DEPTH: u32 = 64;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Encoder {
    /// Node bytes (assembled after the string table, which is only
    /// complete once the whole tree has been walked).
    buf: Vec<u8>,
    dyn_ids: HashMap<String, u32>,
    dyn_strings: Vec<String>,
}

impl Encoder {
    fn sid(&mut self, s: &str) -> u32 {
        if let Some(&id) = static_ids().get(s) {
            return id;
        }
        if let Some(&id) = self.dyn_ids.get(s) {
            return id;
        }
        let id = (STATIC_VOCAB.len() + self.dyn_strings.len()) as u32;
        self.dyn_ids.insert(s.to_string(), id);
        self.dyn_strings.push(s.to_string());
        id
    }

    fn node(&mut self, c: &Content) {
        match c {
            Content::Null => self.buf.push(T_NULL),
            Content::Bool(false) => self.buf.push(T_FALSE),
            Content::Bool(true) => self.buf.push(T_TRUE),
            Content::I64(n) => {
                self.buf.push(T_I64);
                put_varint(&mut self.buf, zigzag(*n));
            }
            Content::U64(n) => {
                self.buf.push(T_U64);
                put_varint(&mut self.buf, *n);
            }
            Content::F64(f) => {
                self.buf.push(T_F64);
                self.buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Content::Str(s) => {
                let id = self.sid(s);
                self.buf.push(T_STR);
                put_varint(&mut self.buf, id as u64);
            }
            Content::Seq(items) => {
                self.buf.push(T_SEQ);
                put_varint(&mut self.buf, items.len() as u64);
                for item in items {
                    self.node(item);
                }
            }
            Content::Map(entries) => {
                self.buf.push(T_MAP);
                put_varint(&mut self.buf, entries.len() as u64);
                for (k, v) in entries {
                    self.node(k);
                    self.node(v);
                }
            }
        }
    }
}

/// Encode any serializable value as a binary frame payload. Total —
/// unlike JSON this handles non-finite floats and non-string map keys.
pub fn encode_value<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut enc = Encoder {
        buf: Vec::new(),
        dyn_ids: HashMap::new(),
        dyn_strings: Vec::new(),
    };
    enc.node(&value.to_content());
    let mut out = Vec::with_capacity(enc.buf.len() + 16);
    out.push(BINARY_MARKER);
    put_varint(&mut out, enc.dyn_strings.len() as u64);
    for s in &enc.dyn_strings {
        put_varint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&enc.buf);
    out
}

/// Encode one WAL record as a binary frame payload.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    encode_value(rec)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    dyn_strings: Vec<String>,
}

impl<'a> Decoder<'a> {
    fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = (b & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return None; // overflow past 64 bits
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn string(&self, sid: u64) -> Option<String> {
        let sid = usize::try_from(sid).ok()?;
        if sid < STATIC_VOCAB.len() {
            return Some(STATIC_VOCAB[sid].to_string());
        }
        self.dyn_strings.get(sid - STATIC_VOCAB.len()).cloned()
    }

    fn node(&mut self, depth: u32) -> Option<Content> {
        if depth > MAX_DEPTH {
            return None;
        }
        Some(match self.byte()? {
            T_NULL => Content::Null,
            T_FALSE => Content::Bool(false),
            T_TRUE => Content::Bool(true),
            T_I64 => Content::I64(unzigzag(self.varint()?)),
            T_U64 => Content::U64(self.varint()?),
            T_F64 => {
                let bits = u64::from_le_bytes(self.take(8)?.try_into().ok()?);
                Content::F64(f64::from_bits(bits))
            }
            T_STR => {
                let sid = self.varint()?;
                Content::Str(self.string(sid)?)
            }
            T_SEQ => {
                let n = self.varint()?;
                // Each element costs at least one byte: a count beyond
                // the remaining buffer is corruption, not a request to
                // preallocate.
                if n > (self.bytes.len() - self.pos) as u64 {
                    return None;
                }
                let mut items = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    items.push(self.node(depth + 1)?);
                }
                Content::Seq(items)
            }
            T_MAP => {
                let n = self.varint()?;
                if n > (self.bytes.len() - self.pos) as u64 {
                    return None;
                }
                let mut entries = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let k = self.node(depth + 1)?;
                    let v = self.node(depth + 1)?;
                    entries.push((k, v));
                }
                Content::Map(entries)
            }
            _ => return None,
        })
    }
}

/// Decode a binary frame payload into a [`Content`] tree. `None` on any
/// malformation (wrong marker, short buffer, bad tag or string id,
/// trailing bytes).
pub fn decode_content(payload: &[u8]) -> Option<Content> {
    let mut dec = Decoder {
        bytes: payload,
        pos: 0,
        dyn_strings: Vec::new(),
    };
    if dec.byte()? != BINARY_MARKER {
        return None;
    }
    let count = dec.varint()?;
    if count > (payload.len() - dec.pos) as u64 {
        return None;
    }
    for _ in 0..count {
        let len = usize::try_from(dec.varint()?).ok()?;
        let s = std::str::from_utf8(dec.take(len)?).ok()?;
        dec.dyn_strings.push(s.to_string());
    }
    let root = dec.node(0)?;
    if dec.pos != payload.len() {
        return None;
    }
    Some(root)
}

/// Decode a binary frame payload into a WAL record. `None` on any
/// malformation — recovery treats that as a torn tail.
pub fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    WalRecord::from_content(&decode_content(payload)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::Epoch;
    use crate::instance::{Instance, Oid};
    use crate::query::DbEvent;
    use crate::schema::{ClassDef, SchemaDef};
    use crate::value::{AttrType, Value};
    use crate::wal::WalOp;

    fn sample() -> WalRecord {
        let def = SchemaDef::new("utility").class(
            ClassDef::new("Pole")
                .attr("pole_height", AttrType::Float)
                .optional_attr("pole_note", AttrType::Text),
        );
        let mut inst = Instance::new(Oid(42), "Pole");
        inst.values.insert("pole_height".into(), Value::Float(9.5));
        inst.values.insert(
            "pole_tags".into(),
            Value::List(vec![Value::Text("wood".into()), Value::Int(-3)]),
        );
        WalRecord {
            epoch: Epoch(7),
            next_oid: 43,
            events: vec![DbEvent::Insert {
                schema: "utility".into(),
                class: "Pole".into(),
                oid: Oid(42),
            }],
            ops: vec![
                WalOp::Schema { def },
                WalOp::Upsert {
                    schema: "utility".into(),
                    instance: inst,
                },
            ],
        }
    }

    #[test]
    fn binary_round_trips_and_matches_json() {
        let rec = sample();
        let bin = encode_record(&rec);
        assert_eq!(bin[0], BINARY_MARKER);
        assert_eq!(decode_record(&bin).unwrap(), rec);
        let json = serde_json::to_vec(&rec).unwrap();
        let via_json: WalRecord = serde_json::from_slice(&json).unwrap();
        assert_eq!(decode_record(&bin).unwrap(), via_json);
        assert!(
            bin.len() < json.len(),
            "binary ({}) should beat JSON ({})",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bin = encode_record(&sample());
        for cut in 0..bin.len() {
            assert!(decode_record(&bin[..cut]).is_none(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bin = encode_record(&sample());
        bin.push(0);
        assert!(decode_record(&bin).is_none());
    }

    #[test]
    fn unknown_tag_and_bad_sid_are_rejected() {
        // Marker, empty string table, bogus tag.
        assert!(decode_content(&[BINARY_MARKER, 0, 9]).is_none());
        // String id past both tables.
        assert!(decode_content(&[BINARY_MARKER, 0, T_STR, 0xff, 0x7f]).is_none());
    }

    #[test]
    fn nan_floats_survive_binary() {
        let c = Content::F64(f64::NAN);
        let mut enc = Encoder {
            buf: Vec::new(),
            dyn_ids: HashMap::new(),
            dyn_strings: Vec::new(),
        };
        enc.node(&c);
        let mut payload = vec![BINARY_MARKER, 0];
        payload.extend_from_slice(&enc.buf);
        match decode_content(&payload).unwrap() {
            Content::F64(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn repeated_strings_are_interned_once() {
        let v = vec!["a-long-dynamic-string".to_string(); 16];
        let bin = encode_value(&v);
        // One table entry + 16 two-byte string nodes, far below 16 copies.
        assert!(bin.len() < 2 + 22 + 16 * 3 + 2);
        match decode_content(&bin).unwrap() {
            Content::Seq(items) => assert_eq!(items.len(), 16),
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 10 continuation bytes with high bits that overflow 64 bits.
        let mut payload = vec![BINARY_MARKER, 0, T_U64];
        payload.extend_from_slice(&[0xff; 9]);
        payload.push(0x7f);
        assert!(decode_content(&payload).is_none());
    }
}
