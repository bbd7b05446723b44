//! Record-and-replay support for VM migration (§4.3) and swap-in.
//!
//! Functions annotated `record(config|alloc|modify)` in the specification
//! are logged (in wire form, pre-translation) as they execute. To migrate,
//! AvA suspends invocations, synthesizes copies of extant device buffers,
//! and frees device resources; on arrival it replays the recorded calls to
//! reinitialize the device and reallocate objects, restores buffer
//! contents, and resumes — the Nooks-style object tracking the paper cites.

use std::collections::VecDeque;

use ava_spec::RecordCategory;
use ava_wire::{CallId, CallMode, CallReply, CallRequest, FnId, Value};

/// How many recent sync replies are kept for duplicate suppression. The
/// guest library serializes sync calls, so a retry can only ever chase the
/// most recent executions; 64 leaves generous slack for batched traffic.
pub(crate) const REPLY_CACHE_CAP: usize = 64;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedCall {
    /// Function id within the API descriptor.
    pub fn_id: FnId,
    /// Arguments in wire form (handles are wire handles).
    pub args: Vec<Value>,
    /// Record category.
    pub category: RecordCategory,
    /// Every wire handle this call produced, in canonical order (return
    /// value first, then outputs in parameter order, list elements in
    /// sequence), with its handle kind. Replay rebinds these to the
    /// freshly created silo objects.
    pub produced: Vec<(u64, String)>,
}

impl RecordedCall {
    /// The primary created handle (for alloc records).
    pub fn created_wire(&self) -> Option<u64> {
        self.produced.first().map(|(w, _)| *w)
    }
}

/// The ordered log of recorded calls; vector order is replay order.
#[derive(Debug, Default, Clone)]
pub struct RecordLog {
    calls: Vec<RecordedCall>,
}

impl RecordLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a recorded call.
    pub fn record(
        &mut self,
        fn_id: FnId,
        args: Vec<Value>,
        category: RecordCategory,
        produced: Vec<(u64, String)>,
    ) {
        self.calls.push(RecordedCall {
            fn_id,
            args,
            category,
            produced,
        });
    }

    /// Cancels tracking for a deallocated object: removes its `alloc`
    /// record and every `modify` record that references its wire handle.
    pub fn cancel_for_handle(&mut self, wire: u64) {
        self.calls.retain(|c| {
            let creates = c.category == RecordCategory::Alloc && c.created_wire() == Some(wire);
            let modifies = c.category == RecordCategory::Modify
                && c.args.iter().any(|a| references_handle(a, wire));
            !(creates || modifies)
        });
    }

    /// The `alloc` record that created `wire`, if tracked.
    pub fn alloc_record_for(&self, wire: u64) -> Option<&RecordedCall> {
        self.calls
            .iter()
            .find(|c| c.category == RecordCategory::Alloc && c.created_wire() == Some(wire))
    }

    /// All records in replay (original temporal) order.
    pub fn replay_order(&self) -> impl Iterator<Item = &RecordedCall> {
        self.calls.iter()
    }

    /// Number of records currently tracked.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

fn references_handle(value: &Value, wire: u64) -> bool {
    match value {
        Value::Handle(h) => *h == wire,
        Value::List(items) => items.iter().any(|v| references_handle(v, wire)),
        _ => false,
    }
}

/// A complete migration image: everything needed to reconstruct a VM's API
/// state on another host.
#[derive(Debug, Clone, Default)]
pub struct MigrationImage {
    /// Recorded calls in replay order.
    pub records: Vec<RecordedCall>,
    /// Saved device-buffer payloads, as `(wire handle, bytes)`.
    pub buffers: Vec<(u64, Vec<u8>)>,
    /// Recently sent sync replies, so duplicate suppression keeps answering
    /// guest retries that straddle the migration.
    pub replies: Vec<CallReply>,
    /// At-most-once execution highwater mark (`None`: nothing executed).
    pub highwater: Option<CallId>,
}

/// One fully-executed call, journaled for crash recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The request exactly as executed (cache references materialized).
    pub request: CallRequest,
    /// The reply the server produced for it. Its outputs are kept only
    /// while replay could serve them to a guest retry (see
    /// [`CallJournal::record`]).
    pub reply: CallReply,
}

/// One VM's recoverable state: a base image plus every call executed on
/// top of it.
///
/// The base is a [`MigrationImage`]: empty when the VM attaches, and
/// replaced by the image every planned move takes ([`CallJournal::rebase`]).
/// The suffix holds *every* call executed since — not just the
/// `record`-annotated ones the [`RecordLog`] keeps — because after a crash
/// there is no chance to snapshot buffers, and kernel launches or writes
/// that mutated device state must be re-run, not restored. Any server for
/// the VM is built the same way: restore the base, replay the suffix. The
/// supervisor owns the journal, behind a mutex, because it must survive
/// the server process it describes.
#[derive(Debug, Default, Clone)]
pub struct CallJournal {
    base: MigrationImage,
    entries: Vec<JournalEntry>,
    /// Indices of the newest sync entries, at most [`REPLY_CACHE_CAP`]:
    /// the only ones whose reply outputs are kept.
    recent_sync: VecDeque<usize>,
}

impl CallJournal {
    /// Creates a journal with an empty base and an empty suffix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one executed call to the suffix.
    ///
    /// Replay re-executes every call, so a reply is journaled only for the
    /// at-most-once step, which keeps just the newest 64 sync replies
    /// (the reply cache's capacity) to answer guest retries. Reply outputs (readback bytes
    /// among them) are therefore kept for those entries only: an async
    /// entry, or a sync one that falls out of that window, keeps its
    /// status and return value but drops its outputs.
    pub fn record(&mut self, request: CallRequest, mut reply: CallReply) {
        if request.mode == CallMode::Sync {
            self.recent_sync.push_back(self.entries.len());
            if self.recent_sync.len() > REPLY_CACHE_CAP {
                if let Some(old) = self.recent_sync.pop_front() {
                    self.entries[old].reply.outputs = Vec::new();
                }
            }
        } else {
            reply.outputs = Vec::new();
        }
        self.entries.push(JournalEntry { request, reply });
    }

    /// Makes `image` the base and clears the suffix: the image already
    /// holds everything the suffix did.
    pub fn rebase(&mut self, image: MigrationImage) {
        self.base = image;
        self.entries.clear();
        self.recent_sync.clear();
    }

    /// The image the suffix replays on top of.
    pub fn base(&self) -> &MigrationImage {
        &self.base
    }

    /// The suffix, in execution (and therefore replay) order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of calls in the suffix.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has executed since the base.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when every suffix call id is distinct and above the base's
    /// highwater mark — the at-most-once guarantee made observable: a
    /// duplicate frame that slipped past dedup and re-executed would
    /// journal its call id twice, or journal one the base already covers.
    pub fn call_ids_unique(&self) -> bool {
        let floor = self.base.highwater;
        let mut seen = std::collections::HashSet::new();
        self.entries.iter().all(|e| {
            let id = e.request.call_id;
            floor.is_none_or(|h| id > h) && seen.insert(id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(log: &mut RecordLog, fn_id: u32, wire: u64) {
        log.record(
            fn_id,
            vec![Value::U64(64)],
            RecordCategory::Alloc,
            vec![(wire, "buf".to_string())],
        );
    }

    #[test]
    fn records_keep_temporal_order() {
        let mut log = RecordLog::new();
        log.record(0, vec![], RecordCategory::Config, vec![]);
        alloc(&mut log, 1, 100);
        log.record(2, vec![Value::Handle(100)], RecordCategory::Modify, vec![]);
        let fn_ids: Vec<u32> = log.replay_order().map(|c| c.fn_id).collect();
        assert_eq!(fn_ids, vec![0, 1, 2]);
    }

    #[test]
    fn cancel_removes_alloc_and_its_modifies() {
        let mut log = RecordLog::new();
        alloc(&mut log, 1, 100);
        alloc(&mut log, 1, 101);
        log.record(2, vec![Value::Handle(100)], RecordCategory::Modify, vec![]);
        log.record(2, vec![Value::Handle(101)], RecordCategory::Modify, vec![]);
        log.cancel_for_handle(100);
        assert_eq!(log.len(), 2);
        assert!(log.alloc_record_for(100).is_none());
        assert!(log.alloc_record_for(101).is_some());
    }

    #[test]
    fn cancel_finds_handles_inside_lists() {
        let mut log = RecordLog::new();
        alloc(&mut log, 1, 100);
        log.record(
            3,
            vec![Value::List(vec![Value::Handle(100), Value::Handle(200)])],
            RecordCategory::Modify,
            vec![],
        );
        log.cancel_for_handle(100);
        assert!(log.is_empty());
    }

    fn executed(journal: &mut CallJournal, id: u64) {
        use ava_wire::{CallMode, ReplyStatus};
        let request = CallRequest {
            call_id: id,
            fn_id: 0,
            mode: CallMode::Sync,
            args: vec![],
            budget_us: 0,
        };
        let reply = CallReply {
            call_id: id,
            status: ReplyStatus::Ok,
            ret: Value::Unit,
            outputs: vec![],
        };
        journal.record(request, reply);
    }

    #[test]
    fn journal_detects_duplicate_call_ids() {
        let mut journal = CallJournal::new();
        executed(&mut journal, 1);
        executed(&mut journal, 2);
        assert!(journal.call_ids_unique());
        assert_eq!(journal.len(), 2);
        executed(&mut journal, 2);
        assert!(!journal.call_ids_unique());
    }

    #[test]
    fn rebase_clears_the_suffix_and_its_ids_must_clear_the_base() {
        let mut journal = CallJournal::new();
        executed(&mut journal, 1);
        executed(&mut journal, 2);
        journal.rebase(MigrationImage {
            highwater: Some(2),
            ..MigrationImage::default()
        });
        assert!(journal.is_empty());
        assert_eq!(journal.base().highwater, Some(2));
        executed(&mut journal, 3);
        assert!(journal.call_ids_unique());
        // Re-executing a call the base already covers is a duplicate even
        // though the suffix never saw it.
        executed(&mut journal, 2);
        assert!(!journal.call_ids_unique());
    }

    #[test]
    fn config_records_survive_cancellation() {
        let mut log = RecordLog::new();
        log.record(0, vec![Value::Handle(100)], RecordCategory::Config, vec![]);
        alloc(&mut log, 1, 100);
        log.cancel_for_handle(100);
        assert_eq!(log.len(), 1);
    }
}
