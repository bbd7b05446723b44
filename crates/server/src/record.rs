//! Record-and-replay support for VM migration (§4.3) and swap-in.
//!
//! The spec says what each call leaves behind, and the `RecordLog`
//! keeps exactly that (in wire form, pre-translation): every
//! `record(config)` call, the `record(alloc)` call of each live object,
//! and the latest call to write each state slot a `writes(...)`
//! annotation names. To migrate, AvA suspends invocations, synthesizes
//! copies of extant device buffers, and frees device resources; on
//! arrival it replays the records to reinitialize the device and
//! reallocate objects, restores buffer contents, and resumes — the
//! Nooks-style object tracking the paper cites.

use std::collections::{BTreeMap, VecDeque};

use ava_spec::{FunctionDesc, RecordCategory};
use ava_telemetry::IntMap;
use ava_wire::{CallId, CallMode, CallReply, CallRequest, FnId, Value};

/// How many recent sync replies are kept for duplicate suppression. The
/// guest library serializes sync calls, so a retry can only ever chase the
/// most recent executions; 64 leaves generous slack for batched traffic.
pub(crate) const REPLY_CACHE_CAP: usize = 64;

/// One recorded call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedCall {
    /// Function id within the API descriptor.
    pub fn_id: FnId,
    /// Arguments in wire form (handles are wire handles).
    pub args: Vec<Value>,
    /// Every wire handle this call produced, in canonical order (return
    /// value first, then outputs in parameter order, list elements in
    /// sequence), with its handle kind. Replay rebinds these to the
    /// freshly created silo objects.
    pub produced: Vec<(u64, String)>,
}

/// The records that rebuild a VM's device state. A record replays at
/// its latest write, so every record replays after the objects its
/// arguments name were created.
#[derive(Debug, Default, Clone)]
pub(crate) struct RecordLog {
    /// Records by the sequence number of their latest write.
    order: BTreeMap<u64, RecordedCall>,
    next: u64,
    /// Created wire handle → its `alloc` record's sequence number.
    allocs: IntMap<u64, u64>,
    /// Holder wire handle → its slots.
    slots: IntMap<u64, Vec<Slot>>,
}

/// One slot of an object.
#[derive(Debug, Clone)]
struct Slot {
    /// The values of the key's index parameters.
    index: Vec<i64>,
    /// The sequence number of the slot's latest write.
    seq: u64,
    /// The wire handles that write names.
    held: Vec<u64>,
}

impl RecordLog {
    /// Records a succeeded call of `func` as its spec says: a `config`
    /// call for good, an `alloc` call until [`RecordLog::cancel`] names
    /// the handle it created, and a `writes` call in place of its slot's
    /// older record.
    pub fn record(&mut self, func: &FunctionDesc, args: &[Value], produced: Vec<(u64, String)>) {
        let seq = self.next;
        self.next += 1;
        let older = match &func.record {
            None => return,
            Some(RecordCategory::Config) => None,
            Some(RecordCategory::Alloc) => {
                if let Some(&(wire, _)) = produced.first() {
                    self.allocs.insert(wire, seq);
                }
                None
            }
            Some(RecordCategory::Writes { holder, index }) => {
                // A write that names no object has no slot to replay into.
                let Some(holder) = args.get(*holder).and_then(Value::as_handle) else {
                    return;
                };
                let index = index.iter();
                let index = index.map(|&i| args.get(i).and_then(Value::as_i64).unwrap_or(0));
                let slots = self.slots.entry(holder).or_default();
                let at = slots
                    .iter()
                    .position(|s| s.index.iter().copied().eq(index.clone()));
                let at = at.unwrap_or_else(|| {
                    let (index, held) = (index.collect(), Vec::new());
                    slots.push(Slot { index, seq, held });
                    slots.len() - 1
                });
                let slot = &mut slots[at];
                slot.held.clear();
                args.iter().for_each(|a| handles_in(a, &mut slot.held));
                self.order.remove(&std::mem::replace(&mut slot.seq, seq))
            }
        };
        // A rewrite reuses the older record's argument vector.
        let mut call = older.unwrap_or_default();
        call.fn_id = func.id;
        call.args.clear();
        call.args.extend_from_slice(args);
        call.produced = produced;
        self.order.insert(seq, call);
    }

    /// Forgets a deallocated object: its `alloc` record, its slots, and
    /// every slot whose latest write names it. Config records stay.
    pub fn cancel(&mut self, wire: u64) {
        let own_slots = self.slots.remove(&wire).unwrap_or_default();
        let own_alloc = self.allocs.remove(&wire);
        for seq in own_slots.iter().map(|s| s.seq).chain(own_alloc) {
            self.order.remove(&seq);
        }
        let order = &mut self.order;
        self.slots.retain(|_, slots| {
            slots.retain(|s| {
                let names = s.held.contains(&wire);
                if names {
                    order.remove(&s.seq);
                }
                !names
            });
            !slots.is_empty()
        });
    }

    /// The `alloc` record that created `wire`, if tracked.
    pub fn alloc_record_for(&self, wire: u64) -> Option<&RecordedCall> {
        self.order.get(self.allocs.get(&wire)?)
    }

    /// The wire handles named by the latest write of each of `holder`'s
    /// slots.
    pub fn held_by(&self, holder: u64) -> impl Iterator<Item = u64> + '_ {
        let slots = self.slots.get(&holder).into_iter().flatten();
        slots.flat_map(|s| s.held.iter().copied())
    }

    /// All records in replay order.
    pub fn replay_order(&self) -> impl Iterator<Item = &RecordedCall> {
        self.order.values()
    }

    /// Number of records currently tracked.
    pub fn len(&self) -> usize {
        self.order.len()
    }
}

/// Pushes every wire handle in `value` onto `out`.
fn handles_in(value: &Value, out: &mut Vec<u64>) {
    match value {
        Value::Handle(h) => out.push(*h),
        Value::List(items) => items.iter().for_each(|v| handles_in(v, out)),
        _ => {}
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
/// `record`-annotated ones the `RecordLog` keeps — because after a crash
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
    use ava_spec::{compile_spec, ApiDescriptor, LowerOptions, MapResolver};

    const SPEC: &str = r#"
typedef struct _b *buf;
int cfg(buf b) { record(config); }
buf create(unsigned long n) { record(alloc); }
int set(buf b, int slot, buf v) { writes(b, slot); }
int set_list(buf b, int slot, unsigned int n, const buf *vs) {
  writes(b, slot);
  parameter(vs) { buffer(n); }
}
"#;

    fn desc() -> ApiDescriptor {
        compile_spec(SPEC, &MapResolver::new(), LowerOptions::default()).unwrap()
    }

    fn alloc(log: &mut RecordLog, desc: &ApiDescriptor, wire: u64) {
        let create = desc.by_name("create").unwrap();
        log.record(create, &[Value::U64(64)], vec![(wire, "buf".to_string())]);
    }

    /// Binds `value` in slot `slot` of `holder`.
    fn set(log: &mut RecordLog, desc: &ApiDescriptor, holder: u64, slot: i32, value: Value) {
        let args = [Value::Handle(holder), Value::I32(slot), value];
        log.record(desc.by_name("set").unwrap(), &args, vec![]);
    }

    fn fn_ids(log: &RecordLog) -> Vec<u32> {
        log.replay_order().map(|c| c.fn_id).collect()
    }

    #[test]
    fn records_keep_temporal_order() {
        let (desc, mut log) = (desc(), RecordLog::default());
        log.record(desc.by_name("cfg").unwrap(), &[Value::Null], vec![]);
        alloc(&mut log, &desc, 100);
        set(&mut log, &desc, 100, 0, Value::Handle(100));
        assert_eq!(fn_ids(&log), vec![0, 1, 2]);
    }

    #[test]
    fn a_write_replaces_its_slot_and_replays_last() {
        let (desc, mut log) = (desc(), RecordLog::default());
        alloc(&mut log, &desc, 100);
        set(&mut log, &desc, 100, 0, Value::Handle(7));
        set(&mut log, &desc, 100, 1, Value::Null);
        alloc(&mut log, &desc, 101);
        set(&mut log, &desc, 100, 0, Value::Handle(101));
        assert_eq!(log.len(), 4, "two allocs and two slots");
        // The rebind replays after the buffer it binds was created.
        let order: Vec<&[Value]> = log.replay_order().map(|c| &c.args[..]).collect();
        assert_eq!(order[2], [Value::U64(64)]);
        assert_eq!(order[3][2], Value::Handle(101));
        let held: Vec<u64> = log.held_by(100).collect();
        assert!(held.contains(&101));
        assert!(!held.contains(&7));
    }

    #[test]
    fn cancel_removes_alloc_and_its_modifies() {
        let (desc, mut log) = (desc(), RecordLog::default());
        alloc(&mut log, &desc, 100);
        alloc(&mut log, &desc, 101);
        set(&mut log, &desc, 100, 0, Value::Null);
        set(&mut log, &desc, 101, 0, Value::Null);
        set(&mut log, &desc, 101, 1, Value::Handle(100));
        log.cancel(100);
        assert_eq!(log.len(), 2);
        assert!(log.alloc_record_for(100).is_none());
        assert!(log.alloc_record_for(101).is_some());
        assert_eq!(log.held_by(100).count(), 0);
        assert_eq!(
            log.held_by(101).collect::<Vec<_>>(),
            [101],
            "the slot naming 100 went"
        );
    }

    #[test]
    fn cancel_finds_handles_inside_lists() {
        let (desc, mut log) = (desc(), RecordLog::default());
        alloc(&mut log, &desc, 100);
        let list = Value::List(vec![Value::Handle(100), Value::Handle(200)]);
        let args = [Value::Handle(300), Value::I32(0), Value::U32(2), list];
        log.record(desc.by_name("set_list").unwrap(), &args, vec![]);
        log.cancel(100);
        assert_eq!(log.len(), 0);
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
        let (desc, mut log) = (desc(), RecordLog::default());
        log.record(desc.by_name("cfg").unwrap(), &[Value::Handle(100)], vec![]);
        alloc(&mut log, &desc, 100);
        log.cancel(100);
        assert_eq!(log.len(), 1);
    }
}
