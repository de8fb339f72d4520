//! The explanation log: a bounded ring buffer of structured traces.
//!
//! The paper's explanation mode says "users want to know why and how the
//! system presented a specific answer to a query". The dispatcher keeps
//! the rule trace of every interaction here — as structured
//! [`active::Trace`] values, not pre-flattened text — so the answer can
//! be exported (JSON), filtered, or rendered. A record holds the very
//! `Arc<Trace>` the engine's outcome carries, and its text is rendered
//! only when read. The buffer is bounded and the capacity is
//! configurable: long-lived sessions keep the most recent traces instead
//! of growing without limit.

use std::collections::VecDeque;
use std::sync::Arc;

use active::Trace;
use geodb::Epoch;
use serde::content::Content;
use serde::{Deserialize, Serialize};

/// Default number of traces retained.
pub const DEFAULT_EXPLANATION_CAPACITY: usize = 128;

/// Event-string prefix of the synthetic trace entries recorded by
/// [`ExplanationLog::push_degraded`]. Degradations share the trace
/// stream (and its JSON export) instead of widening `TraceRecord`.
pub const DEGRADED_EVENT_PREFIX: &str = "degraded";

/// One recorded interaction: the structured cascade and a monotonic
/// sequence number (stable even after older records are evicted). The
/// explanation text is rendered on demand ([`TraceRecord::rendered`]);
/// the JSON form still carries it under `rendered`, and deserializing
/// ignores that key.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct TraceRecord {
    /// Position in the dispatcher's lifetime stream of traces (0-based).
    pub seq: u64,
    /// The database epoch the interaction was served against (0 when the
    /// dispatcher predates versioned storage — e.g. records deserialized
    /// from an older export).
    #[serde(default)]
    pub db_epoch: Epoch,
    /// How many epochs behind the primary's frontier the pinned snapshot
    /// was when the interaction ran — non-zero only for reads routed to
    /// a replica (0 on a primary-served read or in older exports).
    #[serde(default)]
    pub staleness: u64,
    /// The obs request-trace id the interaction ran under (0 when no
    /// trace was being recorded, or for records from older exports).
    /// Cross-links explanation entries with `obs::find_trace` both
    /// ways: `:trace <id>` answers "what did the system do", this
    /// record answers "which rules decided it".
    #[serde(default)]
    pub trace_id: u64,
    /// The structured cascade, entry depths and shadowing intact —
    /// shared with the dispatch outcome that produced it.
    pub trace: Arc<Trace>,
}

impl TraceRecord {
    /// Human-readable rendering, as served by `Dispatcher::explanation`.
    pub fn rendered(&self) -> String {
        self.trace.render()
    }
}

impl Serialize for TraceRecord {
    fn to_content(&self) -> Content {
        let field = |k: &str, v: Content| (Content::Str(k.to_string()), v);
        Content::Map(vec![
            field("seq", self.seq.to_content()),
            field("db_epoch", self.db_epoch.to_content()),
            field("staleness", self.staleness.to_content()),
            field("trace_id", self.trace_id.to_content()),
            field("trace", self.trace.to_content()),
            field("rendered", Content::Str(self.rendered())),
        ])
    }
}

/// Bounded ring of [`TraceRecord`]s.
#[derive(Debug)]
pub struct ExplanationLog {
    capacity: usize,
    next_seq: u64,
    /// Epoch stamped into records pushed from here on (see
    /// [`Self::note_db_epoch`]).
    db_epoch: Epoch,
    /// Replica lag stamped into records pushed from here on (see
    /// [`Self::note_staleness`]).
    staleness: u64,
    records: VecDeque<TraceRecord>,
}

impl Default for ExplanationLog {
    fn default() -> Self {
        ExplanationLog::new(DEFAULT_EXPLANATION_CAPACITY)
    }
}

impl ExplanationLog {
    /// A log retaining at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> ExplanationLog {
        ExplanationLog {
            capacity: capacity.max(1),
            next_seq: 0,
            db_epoch: Epoch::ZERO,
            staleness: 0,
            records: VecDeque::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resize the ring; shrinking evicts the oldest records.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.records.len() > self.capacity {
            self.records.pop_front();
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Traces recorded over the log's lifetime, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// The dispatcher pinned a new database epoch: stamp it into every
    /// trace recorded from here on, so an exported explanation says not
    /// just *which rules* fired but *which version of the data* the
    /// interaction saw.
    pub fn note_db_epoch(&mut self, epoch: Epoch) {
        self.db_epoch = epoch;
    }

    /// The epoch currently stamped into new records.
    pub fn db_epoch(&self) -> Epoch {
        self.db_epoch
    }

    /// The read was served from a replica `lag` epochs behind the
    /// primary's frontier (0 = primary-fresh): stamp the lag into every
    /// trace recorded from here on, so an exported explanation says not
    /// just which version the interaction saw but how stale that version
    /// was allowed to be.
    pub fn note_staleness(&mut self, lag: u64) {
        self.staleness = lag;
    }

    /// The staleness currently stamped into new records.
    pub fn staleness(&self) -> u64 {
        self.staleness
    }

    /// Record a trace, evicting the oldest record when full. The record
    /// shares `trace` — nothing is copied or rendered here.
    pub fn push(&mut self, trace: Arc<Trace>) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord {
            seq: self.next_seq,
            db_epoch: self.db_epoch,
            staleness: self.staleness,
            trace_id: obs::current_trace_id(),
            trace,
        });
        self.next_seq += 1;
    }

    /// Record a graceful-degradation incident — a customized build that
    /// fell back to the default presentation, a stored program that was
    /// skipped at boot, a contained panic — as a synthetic single-entry
    /// trace, so degradations appear in the same explanation stream the
    /// user already consults to ask "why does my window look like this?".
    pub fn push_degraded(&mut self, stage: &str, detail: &str) {
        // A degradation retains the surrounding request trace even when
        // the sampler did not pick it.
        obs::trace_mark_fault();
        self.push(Arc::new(Trace {
            entries: vec![active::TraceEntry {
                depth: 0,
                event: format!("{DEGRADED_EVENT_PREFIX}({stage}): {detail}").into(),
                matched: Vec::new(),
                fired: Vec::new(),
                shadowed: Vec::new(),
            }],
        }));
    }

    /// Retained degradation records (see [`Self::push_degraded`]),
    /// oldest first.
    pub fn degradations(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(|r| {
            r.trace.entries.first().is_some_and(|e| {
                e.event.starts_with(DEGRADED_EVENT_PREFIX)
                    && e.event[DEGRADED_EVENT_PREFIX.len()..].starts_with('(')
            })
        })
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// The most recent `n` records, oldest of them first.
    pub fn recent(&self, n: usize) -> Vec<&TraceRecord> {
        let skip = self.records.len().saturating_sub(n);
        self.records.iter().skip(skip).collect()
    }

    /// Rendered explanation lines, in lockstep with [`Self::records`].
    pub fn rendered(&self) -> Vec<String> {
        self.records.iter().map(TraceRecord::rendered).collect()
    }

    /// JSON export of the retained records (oldest first).
    pub fn to_json(&self) -> String {
        let records: Vec<&TraceRecord> = self.records.iter().collect();
        serde_json::to_string_pretty(&records).expect("trace records serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use active::trace::TraceEntry;

    fn trace(event: &str) -> Arc<Trace> {
        Arc::new(Trace {
            entries: vec![TraceEntry {
                depth: 0,
                event: event.into(),
                matched: vec!["r".into()],
                fired: vec!["r".into()],
                shadowed: vec!["s".into()],
            }],
        })
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_sequence_numbers() {
        let mut log = ExplanationLog::new(3);
        for i in 0..5 {
            log.push(trace(&format!("E{i}")));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 5);
        let seqs: Vec<u64> = log.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        // Rendered lines stay in lockstep with the records.
        assert_eq!(log.rendered().len(), 3);
        assert!(log.rendered()[0].contains("E2"));
        assert!(log.rendered()[2].contains("E4"));
    }

    #[test]
    fn recent_returns_the_tail() {
        let mut log = ExplanationLog::new(10);
        for i in 0..4 {
            log.push(trace(&format!("E{i}")));
        }
        let recent: Vec<u64> = log.recent(2).iter().map(|r| r.seq).collect();
        assert_eq!(recent, vec![2, 3]);
        assert_eq!(log.recent(99).len(), 4);
    }

    #[test]
    fn shrinking_capacity_trims_the_front() {
        let mut log = ExplanationLog::new(8);
        for i in 0..6 {
            log.push(trace(&format!("E{i}")));
        }
        log.set_capacity(2);
        let seqs: Vec<u64> = log.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert_eq!(log.rendered().len(), 2);
    }

    #[test]
    fn db_epoch_stamps_records_from_the_note_onward() {
        let mut log = ExplanationLog::new(8);
        log.push(trace("E0"));
        log.note_db_epoch(Epoch(3));
        log.push(trace("E1"));
        log.note_staleness(2);
        log.push(trace("E2"));
        log.note_db_epoch(Epoch(4));
        log.note_staleness(0);
        log.push(trace("E3"));
        let epochs: Vec<Epoch> = log.records().map(|r| r.db_epoch).collect();
        assert_eq!(epochs, vec![Epoch(0), Epoch(3), Epoch(3), Epoch(4)]);
        let stale: Vec<u64> = log.records().map(|r| r.staleness).collect();
        assert_eq!(stale, vec![0, 0, 2, 0]);
        assert_eq!(log.db_epoch(), Epoch(4));
        // Old exports (no db_epoch / staleness / trace_id fields) still
        // deserialize.
        let legacy = r#"{"seq":9,"trace":{"entries":[]},"rendered":""}"#;
        let rec: TraceRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(rec.db_epoch, 0);
        assert_eq!(rec.staleness, 0);
        assert_eq!(rec.trace_id, 0);
    }

    #[test]
    fn json_export_preserves_structure() {
        let mut log = ExplanationLog::new(4);
        log.push(trace("Get_Schema(phone_net)"));
        let json = log.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["seq"].as_u64(), Some(0));
        assert_eq!(
            v[0]["trace"]["entries"][0]["event"].as_str(),
            Some("Get_Schema(phone_net)")
        );
        assert_eq!(
            v[0]["trace"]["entries"][0]["shadowed"][0].as_str(),
            Some("s")
        );
        // Round-trips back into structured records.
        let records: Vec<TraceRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].trace.entries[0].fired, vec![Arc::from("r")]);
    }
}
