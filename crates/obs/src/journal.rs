//! Causal run journal: a deterministic, append-only event log.
//!
//! The journal is the trace-native layer beneath the Chrome export: a
//! flat sequence of [`JournalRecord`]s — span opens/closes, point
//! events, cross-component flow links, and metric deltas — whose ids
//! derive from a seed *salt* and a logical sequence counter. No wall
//! clock is ever consulted, so two runs with the same inputs produce
//! byte-identical journals at any `--jobs` level, and a journal can be
//! *replayed*: re-running the experiment from the recorded ctx must
//! regenerate the identical byte stream.
//!
//! # Id derivation
//!
//! Every span/event id is `mix(salt, seq)` where `mix` is the
//! splitmix64 finalizer, `salt` comes from the deterministic ctx seed,
//! and `seq` is a logical counter that advances once per id handed out
//! (even when a budget drops the record's storage — ids are part of
//! the causal structure, storage is an accounting concern). Child
//! journals ([`Journal::child`]) re-salt by index so parallel shards
//! mint non-colliding ids; the parent merges shard records back in
//! index order, which is what makes the log `--jobs`-invariant.
//!
//! # Fast-path replay
//!
//! The steady-state executors jump over repeated cycles instead of
//! simulating them. [`Journal::replay_cycle`] is their journal-side
//! dual: it re-emits the records of one verified cycle `m` more times,
//! minting fresh ids *in the same order the reference path would* and
//! remapping intra-cycle references, so the fast path's journal is
//! byte-identical to the reference executor's.
//!
//! # Cost
//!
//! A traced run stores millions of records, so the record path neither
//! allocates nor hashes. [`JournalRecord`] is `Copy` with `&'static str`
//! names; a name built at run time goes through `hprc_ctx::Symbol`,
//! whose interned text lives for the process. Storing, merging, and
//! replaying records are memcpys, and [`Journal::replay_cycle`]
//! resolves the block's references once per call rather than once per
//! copy. [`Journal::to_jsonl`] streams from the locked record slice
//! into one pre-sized buffer: digits two at a time from a table, and a
//! name with nothing to escape in one slice copy.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::budget::BudgetAccount;
use crate::chrome::ChromeEvent;
use crate::delta::DeltaAccount;

/// Journal schema identifier written into every JSONL header line.
pub const JOURNAL_SCHEMA: &str = "hprc-journal/v1";

/// Stable identifier of a journal span or event.
///
/// Derived deterministically from the journal salt and a logical
/// sequence counter — never from wall clock or memory addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// splitmix64 finalizer over `(salt, seq)` — the id derivation.
fn mix(salt: u64, seq: u64) -> u64 {
    let mut z = salt ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const CHILD_TAG: u64 = 0xC41D_5EED_0000_0001;
const FORK_TAG: u64 = 0xF04B_5EED_0000_0002;

fn derive_salt(salt: u64, tag: u64, index: u64) -> u64 {
    mix(salt ^ tag, index)
}

/// One entry in the journal's append-only log.
///
/// Names are `&'static str` so a record is `Copy`: storing, replaying,
/// merging, and serializing records never allocates. A name built at
/// run time goes through `hprc_ctx::Symbol::intern(..).as_str()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A span opened: it has duration and may parent other records.
    Open {
        /// The span's id.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Span class name (e.g. `sim.run_prtr`, a task name, `recovery`).
        name: &'static str,
        /// Simulated open time, nanoseconds.
        t_ns: u64,
        /// Chrome lane (tid) the span renders on.
        tid: u64,
    },
    /// A previously opened span closed.
    Close {
        /// Id of the span being closed.
        id: SpanId,
        /// Simulated close time, nanoseconds.
        t_ns: u64,
    },
    /// A point event: zero duration, but addressable by flow links.
    Event {
        /// The event's id.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Event class name (e.g. `decide`, `configure`, `execute`).
        name: &'static str,
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// Chrome lane (tid) the event renders on.
        tid: u64,
    },
    /// A causal edge between two records (exported as Chrome
    /// `ph:"s"`/`ph:"f"` flow events).
    Flow {
        /// Source record.
        from: SpanId,
        /// Destination record.
        to: SpanId,
        /// Edge kind: `hide`, `hit`, `activate`, `fault`, `retry`,
        /// `escalate`; preemptive schedules add `preempt` (execution →
        /// context-save), `save` (context-save → host context buffer),
        /// and `restore` (host context buffer → context write-back).
        kind: &'static str,
    },
    /// A metric delta attributed to this point in the log.
    Metric {
        /// Metric name.
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
}

impl JournalRecord {
    /// The simulated time this record carries, if any.
    pub fn t_ns(&self) -> Option<u64> {
        match self {
            JournalRecord::Open { t_ns, .. }
            | JournalRecord::Close { t_ns, .. }
            | JournalRecord::Event { t_ns, .. } => Some(*t_ns),
            JournalRecord::Flow { .. } | JournalRecord::Metric { .. } => None,
        }
    }
}

/// A position in the journal, captured with [`Journal::mark`] and
/// consumed by [`Journal::replay_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalMark {
    stored: usize,
    would: u64,
}

#[derive(Debug)]
struct State {
    salt: u64,
    seq: u64,
    budget: Option<u64>,
    /// Records *offered* (stored or dropped by the budget).
    would: u64,
    /// Latest simulated time seen on any offered record.
    max_t_ns: u64,
    records: Vec<JournalRecord>,
    stack: Vec<SpanId>,
    /// Run-budget accounting attached for the JSONL footer, if any.
    budget_account: Option<BudgetAccount>,
    /// Delta-cache accounting attached for the JSONL footer, if any.
    delta_account: Option<DeltaAccount>,
}

impl State {
    fn new(salt: u64) -> Self {
        State {
            salt,
            seq: 0,
            budget: None,
            would: 0,
            max_t_ns: 0,
            records: Vec::new(),
            stack: Vec::new(),
            budget_account: None,
            delta_account: None,
        }
    }

    fn next_id(&mut self) -> SpanId {
        let id = SpanId(mix(self.salt, self.seq));
        self.seq += 1;
        id
    }

    fn offer(&mut self, rec: JournalRecord) {
        self.would += 1;
        if let Some(t) = rec.t_ns() {
            if t > self.max_t_ns {
                self.max_t_ns = t;
            }
        }
        if self.budget.is_none_or(|b| (self.records.len() as u64) < b) {
            self.records.push(rec);
        }
    }

    /// How many more records the budget lets this journal store.
    fn room(&self) -> usize {
        self.budget.map_or(usize::MAX, |b| {
            usize::try_from(b)
                .unwrap_or(usize::MAX)
                .saturating_sub(self.records.len())
        })
    }

    /// [`Journal::to_jsonl`], written straight from the stored records.
    /// It builds bytes rather than a `String`, so a number is one slice
    /// copy with no UTF-8 check; one check at the end covers the buffer.
    fn to_jsonl(&self, experiment: &str, seed: u64) -> String {
        let mut out = Vec::with_capacity(JSONL_BYTES_PER_RECORD * (self.records.len() + 2));
        out.extend_from_slice(b"{\"schema\":\"");
        out.extend_from_slice(JOURNAL_SCHEMA.as_bytes());
        out.extend_from_slice(b"\",\"experiment\":");
        push_quoted(&mut out, experiment);
        out.extend_from_slice(b",\"seed\":");
        push_u64(&mut out, seed);
        out.extend_from_slice(b"}\n");
        for rec in &self.records {
            match *rec {
                JournalRecord::Open {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                } => push_span_line(
                    &mut out,
                    b"{\"ev\":\"open\",\"id\":",
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                ),
                JournalRecord::Event {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                } => push_span_line(
                    &mut out,
                    b"{\"ev\":\"event\",\"id\":",
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                ),
                JournalRecord::Close { id, t_ns } => {
                    out.extend_from_slice(b"{\"ev\":\"close\",\"id\":");
                    push_u64(&mut out, id.0);
                    out.extend_from_slice(b",\"t_ns\":");
                    push_u64(&mut out, t_ns);
                    out.extend_from_slice(b"}\n");
                }
                JournalRecord::Flow { from, to, kind } => {
                    out.extend_from_slice(b"{\"ev\":\"flow\",\"from\":");
                    push_u64(&mut out, from.0);
                    out.extend_from_slice(b",\"to\":");
                    push_u64(&mut out, to.0);
                    out.extend_from_slice(b",\"kind\":");
                    push_quoted(&mut out, kind);
                    out.extend_from_slice(b"}\n");
                }
                JournalRecord::Metric { name, delta } => {
                    out.extend_from_slice(b"{\"ev\":\"metric\",\"name\":");
                    push_quoted(&mut out, name);
                    out.extend_from_slice(b",\"delta\":");
                    push_u64(&mut out, delta);
                    out.extend_from_slice(b"}\n");
                }
            }
        }
        let stored = self.records.len() as u64;
        let bytes = out.len() as u64;
        out.extend_from_slice(b"{\"account\":{");
        push_fields(
            &mut out,
            &[
                ("events", Some(stored)),
                ("dropped", Some(self.would - stored)),
                ("bytes", Some(bytes)),
                ("sim_ns", Some(self.max_t_ns)),
            ],
        );
        if let Some(b) = self.budget_account {
            out.extend_from_slice(b",\"budget\":{");
            push_fields(
                &mut out,
                &[
                    ("max_events", b.max_events),
                    ("max_sim_ns", b.max_sim_ns),
                    ("charged_events", Some(b.charged_events)),
                    ("charged_sim_ns", Some(b.charged_sim_ns)),
                    ("would_have_run", Some(b.would_have_run)),
                    ("cutoff_seq", b.cutoff_seq),
                    ("runs_cut", Some(b.runs_cut)),
                ],
            );
            out.push(b'}');
        }
        if let Some(d) = self.delta_account {
            out.extend_from_slice(b",\"delta\":{");
            push_fields(
                &mut out,
                &[
                    ("lookups", Some(d.lookups)),
                    ("full_hits", Some(d.full_hits)),
                    ("resumes", Some(d.resumes)),
                    ("misses", Some(d.misses)),
                    ("calls_replayed", Some(d.calls_replayed)),
                    ("calls_resimulated", Some(d.calls_resimulated)),
                    ("stored", Some(d.stored)),
                    ("evictions", Some(d.evictions)),
                    ("entries", Some(d.entries)),
                    ("bytes_held", Some(d.bytes_held)),
                ],
            );
            out.push(b'}');
        }
        out.extend_from_slice(b"}}\n");
        String::from_utf8(out).expect("JSONL is built from UTF-8 text")
    }
}

/// Handle to a causal run journal (or a no-op stand-in).
///
/// Cloning shares the underlying log, mirroring
/// [`Registry`](crate::Registry)'s handle semantics; a
/// [`noop`](Journal::noop) journal makes every operation free.
#[derive(Debug, Clone, Default)]
pub struct Journal(Option<Arc<Mutex<State>>>);

impl Journal {
    /// A disabled journal: every operation is a no-op returning `None`.
    pub fn noop() -> Self {
        Journal(None)
    }

    /// A live journal whose ids derive from `salt`.
    pub fn new(salt: u64) -> Self {
        Journal(Some(Arc::new(Mutex::new(State::new(salt)))))
    }

    /// Caps *storage* at `budget` records. Ids keep advancing past the
    /// cutoff (they are causal structure, not storage), and the account
    /// line reports the overflow as `dropped`. A budgeted journal
    /// forfeits the byte-identical replay guarantee.
    pub fn with_budget(self, budget: u64) -> Self {
        if let Some(cell) = &self.0 {
            cell.lock().budget = Some(budget);
        }
        self
    }

    /// Whether records are being collected.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches a run-budget account to the JSONL footer. Journals
    /// without one keep the exact pre-budget footer bytes, so golden
    /// logs are unaffected; a replayed run re-derives the same account
    /// from its ctx, so budgeted journals stay replayable too.
    pub fn set_budget_account(&self, account: BudgetAccount) {
        if let Some(cell) = &self.0 {
            cell.lock().budget_account = Some(account);
        }
    }

    /// The attached run-budget account, if any.
    pub fn budget_account(&self) -> Option<BudgetAccount> {
        self.0.as_ref().and_then(|c| c.lock().budget_account)
    }

    /// Attaches a delta-cache account to the JSONL footer. Like the
    /// budget account, journals without one keep the exact pre-delta
    /// footer bytes, so existing golden logs are unaffected. Only
    /// attach accounts from serial, private caches — shared-cache
    /// hit/miss tallies vary with worker interleaving and would break
    /// the journal's `--jobs` byte-identity.
    pub fn set_delta_account(&self, account: DeltaAccount) {
        if let Some(cell) = &self.0 {
            cell.lock().delta_account = Some(account);
        }
    }

    /// The attached delta-cache account, if any.
    pub fn delta_account(&self) -> Option<DeltaAccount> {
        self.0.as_ref().and_then(|c| c.lock().delta_account)
    }

    /// A journal for parallel shard `index`: live iff `self` is, with a
    /// salt re-derived from `index` so shard ids never collide with the
    /// parent's. Merge it back with [`merge_from`](Journal::merge_from)
    /// in index order.
    pub fn child(&self, index: u64) -> Journal {
        match &self.0 {
            Some(cell) => Journal::new(derive_salt(cell.lock().salt, CHILD_TAG, index)),
            None => Journal::noop(),
        }
    }

    /// A journal for a side computation: live iff `self` is, with a
    /// distinct salt, and *not* merged back unless done explicitly.
    pub fn fork(&self) -> Journal {
        match &self.0 {
            Some(cell) => Journal::new(derive_salt(cell.lock().salt, FORK_TAG, 0)),
            None => Journal::noop(),
        }
    }

    /// Opens a span parented to the innermost [`enter`](Journal::enter)ed
    /// span and pushes it on the enter stack.
    pub fn enter(&self, name: &'static str, t_ns: u64, tid: u64) -> Option<SpanId> {
        let cell = self.0.as_ref()?;
        let mut s = cell.lock();
        let parent = s.stack.last().copied();
        let id = s.next_id();
        s.offer(JournalRecord::Open {
            id,
            parent,
            name,
            t_ns,
            tid,
        });
        s.stack.push(id);
        Some(id)
    }

    /// Closes an [`enter`](Journal::enter)ed span and pops it off the
    /// enter stack (if it is on top).
    pub fn exit(&self, id: Option<SpanId>, t_ns: u64) {
        let (Some(cell), Some(id)) = (self.0.as_ref(), id) else {
            return;
        };
        let mut s = cell.lock();
        if s.stack.last() == Some(&id) {
            s.stack.pop();
        }
        s.offer(JournalRecord::Close { id, t_ns });
    }

    /// Opens a span under an explicit parent (no enter-stack effect).
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        t_ns: u64,
        tid: u64,
    ) -> Option<SpanId> {
        let cell = self.0.as_ref()?;
        let mut s = cell.lock();
        let id = s.next_id();
        s.offer(JournalRecord::Open {
            id,
            parent,
            name,
            t_ns,
            tid,
        });
        Some(id)
    }

    /// Closes a span opened with [`open`](Journal::open).
    pub fn close(&self, id: Option<SpanId>, t_ns: u64) {
        let (Some(cell), Some(id)) = (self.0.as_ref(), id) else {
            return;
        };
        cell.lock().offer(JournalRecord::Close { id, t_ns });
    }

    /// Records a point event; returns its id for flow linking.
    pub fn event(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        t_ns: u64,
        tid: u64,
    ) -> Option<SpanId> {
        let cell = self.0.as_ref()?;
        let mut s = cell.lock();
        let id = s.next_id();
        s.offer(JournalRecord::Event {
            id,
            parent,
            name,
            t_ns,
            tid,
        });
        Some(id)
    }

    /// Records a causal edge; a no-op unless both endpoints exist.
    pub fn flow(&self, from: Option<SpanId>, to: Option<SpanId>, kind: &'static str) {
        let (Some(cell), Some(from), Some(to)) = (self.0.as_ref(), from, to) else {
            return;
        };
        cell.lock().offer(JournalRecord::Flow { from, to, kind });
    }

    /// Records a metric delta.
    pub fn metric(&self, name: &'static str, delta: u64) {
        let Some(cell) = self.0.as_ref() else {
            return;
        };
        cell.lock().offer(JournalRecord::Metric { name, delta });
    }

    /// Captures the current log position for
    /// [`replay_cycle`](Journal::replay_cycle).
    pub fn mark(&self) -> JournalMark {
        match &self.0 {
            Some(cell) => {
                let s = cell.lock();
                JournalMark {
                    stored: s.records.len(),
                    would: s.would,
                }
            }
            None => JournalMark::default(),
        }
    }

    /// Re-emits everything logged since `mark` another `times` times,
    /// each copy shifted `shift_ns` further in simulated time. Fresh
    /// ids are minted in record order — exactly the order the reference
    /// path would consume the sequence counter — and references *inside*
    /// the copied block are remapped to the copy's ids, while references
    /// to records outside the block (e.g. the enclosing run span) pass
    /// through unchanged. This is the fast-path executors' journal dual
    /// of their timeline `push_repeat`.
    ///
    /// References are resolved once per call, so each copy is a plain
    /// pass over the block: the `j`-th id a copy mints is
    /// `mix(salt, base + j)`, with `base` the copy's first sequence number.
    pub fn replay_cycle(&self, mark: JournalMark, times: u64, shift_ns: u64) {
        let Some(cell) = self.0.as_ref() else {
            return;
        };
        let mut s = cell.lock();
        let start = mark.stored.min(s.records.len());
        let len = s.records.len() - start;
        // Offers the budget suppressed can't be copied, but the
        // reference path would still have offered them: account for
        // the shortfall so `dropped` stays honest under a budget.
        let missed = (s.would - mark.would).saturating_sub(len as u64);

        // Slot 0 resolves the record's own id (always minted for an
        // `Open`/`Event`), a `Close`'s id, or a flow's `from`; slot 1 a
        // parent or a flow's `to`. A reference resolves to a mint only
        // when that record came earlier in the block (or is the record
        // itself), as it would while the reference path walks the cycle.
        let mut minted: HashMap<SpanId, u64> = HashMap::new();
        let mut mints = 0u64;
        let mut refs: Vec<[Ref; 2]> = Vec::with_capacity(len);
        let resolve = |minted: &HashMap<SpanId, u64>, id: SpanId| {
            minted.get(&id).map_or(Ref::Keep, |&j| Ref::Mint(j))
        };
        for rec in &s.records[start..] {
            refs.push(match *rec {
                JournalRecord::Open { id, parent, .. }
                | JournalRecord::Event { id, parent, .. } => {
                    minted.insert(id, mints);
                    let own = Ref::Mint(mints);
                    mints += 1;
                    [own, parent.map_or(Ref::Keep, |p| resolve(&minted, p))]
                }
                JournalRecord::Close { id, .. } => [resolve(&minted, id), Ref::Keep],
                JournalRecord::Flow { from, to, .. } => {
                    [resolve(&minted, from), resolve(&minted, to)]
                }
                JournalRecord::Metric { .. } => [Ref::Keep; 2],
            });
        }

        let copies = usize::try_from(times).unwrap_or(usize::MAX);
        let room = s.room();
        s.records.reserve(len.saturating_mul(copies).min(room));
        let salt = s.salt;
        for k in 1..=times {
            let off = k.saturating_mul(shift_ns);
            let base = s.seq;
            let at = |r: Ref, id: SpanId| match r {
                Ref::Keep => id,
                Ref::Mint(j) => SpanId(mix(salt, base + j)),
            };
            for (i, &[a, b]) in refs.iter().enumerate() {
                let copy = match s.records[start + i] {
                    JournalRecord::Open {
                        id,
                        parent,
                        name,
                        t_ns,
                        tid,
                    } => JournalRecord::Open {
                        id: at(a, id),
                        parent: parent.map(|p| at(b, p)),
                        name,
                        t_ns: t_ns + off,
                        tid,
                    },
                    JournalRecord::Event {
                        id,
                        parent,
                        name,
                        t_ns,
                        tid,
                    } => JournalRecord::Event {
                        id: at(a, id),
                        parent: parent.map(|p| at(b, p)),
                        name,
                        t_ns: t_ns + off,
                        tid,
                    },
                    JournalRecord::Close { id, t_ns } => JournalRecord::Close {
                        id: at(a, id),
                        t_ns: t_ns + off,
                    },
                    JournalRecord::Flow { from, to, kind } => JournalRecord::Flow {
                        from: at(a, from),
                        to: at(b, to),
                        kind,
                    },
                    metric @ JournalRecord::Metric { .. } => metric,
                };
                s.offer(copy);
            }
            s.seq += mints;
            s.would += missed;
        }
    }

    /// Appends a child journal's records (index-order merge after a
    /// parallel fan-out). The child's offer/time accounting folds into
    /// the parent's; the parent's budget still caps storage.
    pub fn merge_from(&self, child: &Journal) {
        let (Some(cell), Some(ccell)) = (self.0.as_ref(), child.0.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(cell, ccell) {
            return;
        }
        let (recs, cwould, cmax) = {
            let c = ccell.lock();
            (c.records.clone(), c.would, c.max_t_ns)
        };
        let mut s = cell.lock();
        s.would += cwould;
        if cmax > s.max_t_ns {
            s.max_t_ns = cmax;
        }
        let room = s.room();
        s.records.extend_from_slice(&recs[..recs.len().min(room)]);
    }

    /// A snapshot of the stored records.
    pub fn records(&self) -> Vec<JournalRecord> {
        match &self.0 {
            Some(cell) => cell.lock().records.clone(),
            None => Vec::new(),
        }
    }

    /// Serializes the journal as schema-versioned JSONL: a header line,
    /// one line per record, and a resource-accounting footer (`events`
    /// stored, `dropped` by the budget, `bytes` of everything above the
    /// footer, `sim_ns` — the latest simulated time touched — and, when
    /// a [`BudgetAccount`] is attached, a nested `budget` object with
    /// the run-budget caps, charges, would-have-run tally, and cutoff).
    pub fn to_jsonl(&self, experiment: &str, seed: u64) -> String {
        match &self.0 {
            Some(cell) => cell.lock().to_jsonl(experiment, seed),
            None => State::new(0).to_jsonl(experiment, seed),
        }
    }

    /// Exports the flow links as paired Chrome flow events
    /// (`ph:"s"`/`ph:"f"`), numbered deterministically. With
    /// `under: Some(name)`, only flows whose *both* endpoints sit under
    /// an ancestor span of that name are exported (e.g.
    /// `Some("sim.run_prtr")` picks out the PRTR run's arrows).
    pub fn chrome_flow_events(&self, pid: u64, under: Option<&str>) -> Vec<ChromeEvent> {
        struct Node {
            t_ns: u64,
            tid: u64,
            parent: Option<SpanId>,
            name: &'static str,
        }
        let records = self.records();
        let mut nodes: HashMap<SpanId, Node> = HashMap::new();
        for &rec in &records {
            if let JournalRecord::Open {
                id,
                parent,
                name,
                t_ns,
                tid,
            }
            | JournalRecord::Event {
                id,
                parent,
                name,
                t_ns,
                tid,
            } = rec
            {
                nodes.insert(
                    id,
                    Node {
                        t_ns,
                        tid,
                        parent,
                        name,
                    },
                );
            }
        }
        let within = |start: SpanId| -> bool {
            let Some(target) = under else { return true };
            let mut id = start;
            for _ in 0..64 {
                let Some(n) = nodes.get(&id) else {
                    return false;
                };
                if n.name == target {
                    return true;
                }
                match n.parent {
                    Some(p) => id = p,
                    None => return false,
                }
            }
            false
        };
        let mut out = Vec::new();
        let mut flow_idx = 0u64;
        for &rec in &records {
            if let JournalRecord::Flow { from, to, kind } = rec {
                let (Some(a), Some(b)) = (nodes.get(&from), nodes.get(&to)) else {
                    continue;
                };
                if !within(from) || !within(to) {
                    continue;
                }
                out.push(ChromeEvent::flow_start(
                    kind,
                    a.t_ns / 1_000,
                    pid,
                    a.tid,
                    flow_idx,
                ));
                out.push(ChromeEvent::flow_end(
                    kind,
                    b.t_ns / 1_000,
                    pid,
                    b.tid,
                    flow_idx,
                ));
                flow_idx += 1;
            }
        }
        out
    }

    /// Exports the journal's spans and events as Chrome complete
    /// events, in record order: each `Open` becomes an `X` event whose
    /// duration runs to its matching `Close` (0 if never closed), and
    /// each point `Event` becomes a zero-duration `X` at its timestamp.
    /// This renders a journal directly as a trace without consulting a
    /// timeline — the cluster-level view for fleet runs, where the
    /// orchestrator journal *is* the source of truth.
    pub fn chrome_span_events(&self, pid: u64) -> Vec<ChromeEvent> {
        let records = self.records();
        let mut close_ns: HashMap<SpanId, u64> = HashMap::new();
        for &rec in &records {
            if let JournalRecord::Close { id, t_ns } = rec {
                close_ns.entry(id).or_insert(t_ns);
            }
        }
        let mut out = Vec::new();
        for &rec in &records {
            match rec {
                JournalRecord::Open {
                    id,
                    name,
                    t_ns,
                    tid,
                    ..
                } => {
                    let end = close_ns.get(&id).copied().unwrap_or(t_ns).max(t_ns);
                    out.push(ChromeEvent::complete(
                        name,
                        t_ns / 1_000,
                        (end - t_ns) / 1_000,
                        pid,
                        tid,
                    ));
                }
                JournalRecord::Event {
                    name, t_ns, tid, ..
                } => {
                    out.push(ChromeEvent::complete(name, t_ns / 1_000, 0, pid, tid));
                }
                _ => {}
            }
        }
        out
    }
}

/// How a block reference resolves in every copy [`Journal::replay_cycle`]
/// makes: `Keep` passes the original id through, `Mint(j)` takes the id
/// the copy mints for the block's `j`-th `Open`/`Event`.
#[derive(Clone, Copy)]
enum Ref {
    Keep,
    Mint(u64),
}

/// Output bytes reserved per record: the mean line of every journal in
/// a seed-0 `all` is 97–99 bytes, so one allocation suffices.
const JSONL_BYTES_PER_RECORD: usize = 104;

/// `"00" "01" … "99"`: two decimal digits per table step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends `v` in decimal, two digits per step.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Appends `"key":value` pairs, comma-separated; `None` is `null`.
fn push_fields(out: &mut Vec<u8>, fields: &[(&str, Option<u64>)]) {
    for (i, (key, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'"');
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(b"\":");
        match v {
            Some(v) => push_u64(out, *v),
            None => out.extend_from_slice(b"null"),
        }
    }
}

/// Appends `s` JSON-escaped, without quotes: `"`, `\` and the control
/// characters below U+0020 are escaped as serde_json does; everything
/// else, U+007F and non-ASCII included, is copied as is. A string with
/// nothing to escape is copied in one piece.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.extend_from_slice(&rest.as_bytes()[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            c => {
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(c >> 4)]);
                out.push(HEX[usize::from(c & 0xf)]);
            }
        }
        // The escaped byte is ASCII, so `at + 1` is a char boundary.
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest.as_bytes());
}

/// Appends a quoted, escaped JSON string. Shared with the run-manifest
/// writer, which hand-rolls JSONL the same way.
pub(crate) fn push_quoted(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    push_escaped(out, s);
    out.push(b'"');
}

/// Appends an `open`/`event` line, `prefix` being `{"ev":"<kind>","id":`.
fn push_span_line(
    out: &mut Vec<u8>,
    prefix: &[u8],
    id: SpanId,
    parent: Option<SpanId>,
    name: &str,
    t_ns: u64,
    tid: u64,
) {
    out.extend_from_slice(prefix);
    push_u64(out, id.0);
    if let Some(p) = parent {
        out.extend_from_slice(b",\"parent\":");
        push_u64(out, p.0);
    }
    out.extend_from_slice(b",\"name\":");
    push_quoted(out, name);
    out.extend_from_slice(b",\"t_ns\":");
    push_u64(out, t_ns);
    out.extend_from_slice(b",\"tid\":");
    push_u64(out, tid);
    out.extend_from_slice(b"}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_call(j: &Journal, t0: u64) {
        let call = j.open("call", None, t0, 0);
        let exec = j.event("execute", call, t0 + 5, 10);
        j.flow(call, exec, "activate");
        j.close(call, t0 + 9);
    }

    #[test]
    fn noop_is_inert() {
        let j = Journal::noop();
        assert!(!j.is_enabled());
        assert_eq!(j.enter("x", 0, 0), None);
        assert_eq!(j.event("x", None, 0, 0), None);
        j.flow(None, None, "k");
        j.metric("m", 1);
        assert!(j.records().is_empty());
        let text = j.to_jsonl("empty", 0);
        assert_eq!(text.lines().count(), 2, "header + account only");
        assert!(text.contains(r#""events":0,"dropped":0"#));
    }

    #[test]
    fn ids_are_deterministic_and_salt_dependent() {
        let a = Journal::new(7);
        let b = Journal::new(7);
        let c = Journal::new(8);
        for j in [&a, &b, &c] {
            emit_call(j, 100);
        }
        assert_eq!(a.records(), b.records());
        assert_eq!(a.to_jsonl("x", 1), b.to_jsonl("x", 1));
        assert_ne!(a.records(), c.records(), "salt must move the ids");
    }

    #[test]
    fn enter_exit_builds_the_parent_chain() {
        let j = Journal::new(1);
        let outer = j.enter("run", 0, 0);
        let inner = j.enter("call", 10, 0);
        j.exit(inner, 20);
        j.exit(outer, 30);
        let recs = j.records();
        match (&recs[0], &recs[1]) {
            (
                JournalRecord::Open {
                    id: o,
                    parent: None,
                    ..
                },
                JournalRecord::Open {
                    parent: Some(p), ..
                },
            ) => assert_eq!(p, o),
            other => panic!("unexpected records: {other:?}"),
        }
    }

    #[test]
    fn children_merge_in_index_order_with_distinct_ids() {
        let parent = Journal::new(42);
        let c0 = parent.child(0);
        let c1 = parent.child(1);
        emit_call(&c1, 200);
        emit_call(&c0, 100);
        parent.merge_from(&c0);
        parent.merge_from(&c1);
        let recs = parent.records();
        assert_eq!(recs.len(), 8);
        // The two shards minted disjoint ids.
        let ids: Vec<u64> = recs
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Open { id, .. } | JournalRecord::Event { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len());
        // c0's records landed first (merge order, not emit order).
        assert_eq!(recs[0].t_ns(), Some(100));
        // Noop child of a noop parent stays inert.
        assert!(!Journal::noop().child(0).is_enabled());
        assert!(parent.child(0).is_enabled());
    }

    #[test]
    fn budget_caps_storage_but_ids_keep_advancing() {
        let j = Journal::new(3).with_budget(2);
        let ids: Vec<_> = (0..5).map(|i| j.event("e", None, i, 0).unwrap()).collect();
        let mut uniq = ids.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 5, "dropped offers still consume ids");
        assert_eq!(j.records().len(), 2);
        let text = j.to_jsonl("b", 0);
        assert!(text.contains(r#""events":2,"dropped":3"#), "{text}");
    }

    #[test]
    fn replay_cycle_matches_the_reference_emission() {
        let fast = Journal::new(9);
        let reference = Journal::new(9);
        let run_f = fast.enter("run", 0, 0);
        let run_r = reference.enter("run", 0, 0);
        // One simulated cycle, then a jump over two more.
        let m = fast.mark();
        emit_call(&fast, 100);
        fast.replay_cycle(m, 2, 50);
        fast.exit(run_f, 250);
        // The reference path emits all three cycles longhand.
        for t0 in [100, 150, 200] {
            emit_call(&reference, t0);
        }
        reference.exit(run_r, 250);
        assert_eq!(fast.records(), reference.records());
        assert_eq!(fast.to_jsonl("x", 5), reference.to_jsonl("x", 5));
    }

    #[test]
    fn replay_cycle_keeps_out_of_block_parents() {
        let j = Journal::new(4);
        let run = j.enter("run", 0, 0);
        let m = j.mark();
        let call = j.open("call", run, 10, 0);
        j.close(call, 20);
        j.replay_cycle(m, 1, 100);
        let recs = j.records();
        match (&recs[1], &recs[3]) {
            (
                JournalRecord::Open {
                    id: first,
                    parent: Some(p1),
                    ..
                },
                JournalRecord::Open {
                    id: second,
                    parent: Some(p2),
                    t_ns,
                    ..
                },
            ) => {
                assert_eq!(Some(*p1), run);
                assert_eq!(p2, p1, "run-span parent passes through the remap");
                assert_ne!(second, first, "the copy minted a fresh id");
                assert_eq!(*t_ns, 110);
            }
            other => panic!("unexpected records: {other:?}"),
        }
    }

    #[test]
    fn jsonl_escapes_names_and_accounts_bytes() {
        let j = Journal::new(6);
        let e = j.event("we\"ird\\name", None, 7, 1);
        assert!(e.is_some());
        let text = j.to_jsonl("exp\"q", 9);
        assert!(text.contains(r#""experiment":"exp\"q""#));
        assert!(text.contains(r#""name":"we\"ird\\name""#));
        // Every line is one object (full JSON parsing is exercised by
        // the exp-side CLI tests; obs stays dependency-free).
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        // `bytes` equals the length of everything before the footer.
        let footer = text.lines().last().unwrap();
        let body_len = text.len() - footer.len() - 1;
        assert!(
            footer.contains(&format!(r#""bytes":{body_len}"#)),
            "{footer}"
        );
    }

    #[test]
    fn budget_account_lands_inside_the_footer_object() {
        let j = Journal::new(2);
        emit_call(&j, 50);
        let plain = j.to_jsonl("x", 1);
        let plain_footer = plain.lines().last().unwrap().to_string();
        assert!(!plain_footer.contains("budget"));

        j.set_budget_account(BudgetAccount {
            max_events: Some(8),
            max_sim_ns: None,
            charged_events: 5,
            charged_sim_ns: 900,
            would_have_run: 3,
            cutoff_seq: Some(6),
            runs_cut: 1,
        });
        assert_eq!(j.budget_account().unwrap().charged_events, 5);
        let text = j.to_jsonl("x", 1);
        let footer = text.lines().last().unwrap();
        assert!(
            footer.contains(
                r#""budget":{"max_events":8,"max_sim_ns":null,"charged_events":5,"charged_sim_ns":900,"would_have_run":3,"cutoff_seq":6,"runs_cut":1}"#
            ),
            "{footer}"
        );
        // The budget rides inside the account object; the record lines
        // and their byte accounting are unchanged.
        assert!(footer.starts_with(r#"{"account":{"events":"#));
        assert!(footer.ends_with("}}"));
        let body_len = text.len() - footer.len() - 1;
        assert!(
            footer.contains(&format!(r#""bytes":{body_len}"#)),
            "{footer}"
        );
        assert_eq!(
            plain.lines().count(),
            text.lines().count(),
            "budget adds no lines"
        );
    }

    #[test]
    fn delta_account_lands_inside_the_footer_object() {
        let j = Journal::new(2);
        emit_call(&j, 50);
        let plain = j.to_jsonl("x", 1);
        assert!(!plain.lines().last().unwrap().contains("delta"));

        j.set_delta_account(DeltaAccount {
            lookups: 4,
            full_hits: 2,
            resumes: 1,
            misses: 1,
            calls_replayed: 700,
            calls_resimulated: 200,
            stored: 2,
            evictions: 0,
            entries: 2,
            bytes_held: 4096,
        });
        assert_eq!(j.delta_account().unwrap().full_hits, 2);
        let text = j.to_jsonl("x", 1);
        let footer = text.lines().last().unwrap();
        assert!(
            footer.contains(
                r#""delta":{"lookups":4,"full_hits":2,"resumes":1,"misses":1,"calls_replayed":700,"calls_resimulated":200,"stored":2,"evictions":0,"entries":2,"bytes_held":4096}"#
            ),
            "{footer}"
        );
        assert!(footer.starts_with(r#"{"account":{"events":"#));
        assert!(footer.ends_with("}}"));
        assert_eq!(
            plain.lines().count(),
            text.lines().count(),
            "delta adds no lines"
        );
    }

    #[test]
    fn chrome_span_events_render_opens_closes_and_instants() {
        let j = Journal::new(13);
        let run = j.enter("fleet.run", 0, 0);
        let d = j.event("fleet.dispatch", run, 2_000, 0);
        let node = j.open("fleet.node", run, 2_000, 3);
        j.flow(d, node, "dispatch");
        j.close(node, 9_000);
        let dangling = j.open("unclosed", run, 4_000, 1);
        assert!(dangling.is_some());
        j.exit(run, 10_000);

        let evs = j.chrome_span_events(7);
        assert_eq!(evs.len(), 4, "flows are not span events");
        assert_eq!(evs[0].name, "fleet.run");
        assert_eq!((evs[0].ts, evs[0].dur), (0, 10));
        assert_eq!(evs[1].name, "fleet.dispatch");
        assert_eq!((evs[1].ts, evs[1].dur), (2, 0));
        assert_eq!(evs[2].name, "fleet.node");
        assert_eq!((evs[2].ts, evs[2].dur, evs[2].tid), (2, 7, 3));
        assert_eq!(evs[3].name, "unclosed");
        assert_eq!((evs[3].ts, evs[3].dur), (4, 0));
        assert!(evs.iter().all(|e| e.ph == "X" && e.pid == 7));
    }

    #[test]
    fn chrome_flow_events_pair_and_filter() {
        let j = Journal::new(11);
        let frtr = j.enter("sim.run_frtr", 0, 0);
        let a = j.event("configure", frtr, 1_000, 1);
        let b = j.event("execute", frtr, 2_000, 10);
        j.flow(a, b, "activate");
        j.exit(frtr, 3_000);
        let prtr = j.enter("sim.run_prtr", 0, 0);
        let c = j.event("decide", prtr, 4_000, 0);
        let d = j.event("execute", prtr, 5_000, 10);
        j.flow(c, d, "hit");
        j.exit(prtr, 6_000);

        let all = j.chrome_flow_events(1, None);
        assert_eq!(all.len(), 4, "two flows, two endpoints each");
        assert_eq!(all[0].ph, "s");
        assert_eq!(all[1].ph, "f");
        assert_eq!(all[0].id, all[1].id);
        assert_ne!(all[0].id, all[2].id);

        let prtr_only = j.chrome_flow_events(1, Some("sim.run_prtr"));
        assert_eq!(prtr_only.len(), 2);
        assert_eq!(prtr_only[0].ts, 4); // 4_000 ns floored to µs
        assert_eq!(prtr_only[1].ts, 5);
    }

    /// The oracle: the `write!`-based serializer `to_jsonl` replaced,
    /// kept verbatim so the streaming writer is checked byte for byte
    /// against code that shares none of its formatting.
    fn reference_jsonl(j: &Journal, experiment: &str, seed: u64) -> String {
        use std::fmt::Write as _;

        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }

        fn write_span_line(
            out: &mut String,
            ev: &str,
            id: SpanId,
            parent: Option<SpanId>,
            name: &str,
            t_ns: u64,
            tid: u64,
        ) {
            let _ = write!(out, r#"{{"ev":"{ev}","id":{}"#, id.0);
            if let Some(p) = parent {
                let _ = write!(out, r#","parent":{}"#, p.0);
            }
            let _ = writeln!(
                out,
                r#","name":"{}","t_ns":{t_ns},"tid":{tid}}}"#,
                esc(name)
            );
        }

        let (records, would, max_t, budget, delta) = match &j.0 {
            Some(cell) => {
                let s = cell.lock();
                (
                    s.records.clone(),
                    s.would,
                    s.max_t_ns,
                    s.budget_account,
                    s.delta_account,
                )
            }
            None => (Vec::new(), 0, 0, None, None),
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"{{"schema":"{JOURNAL_SCHEMA}","experiment":"{}","seed":{seed}}}"#,
            esc(experiment)
        );
        for rec in &records {
            match rec {
                JournalRecord::Open {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                } => write_span_line(&mut out, "open", *id, *parent, name, *t_ns, *tid),
                JournalRecord::Event {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                } => write_span_line(&mut out, "event", *id, *parent, name, *t_ns, *tid),
                JournalRecord::Close { id, t_ns } => {
                    let _ = writeln!(out, r#"{{"ev":"close","id":{},"t_ns":{t_ns}}}"#, id.0);
                }
                JournalRecord::Flow { from, to, kind } => {
                    let _ = writeln!(
                        out,
                        r#"{{"ev":"flow","from":{},"to":{},"kind":"{}"}}"#,
                        from.0,
                        to.0,
                        esc(kind)
                    );
                }
                JournalRecord::Metric { name, delta } => {
                    let _ = writeln!(
                        out,
                        r#"{{"ev":"metric","name":"{}","delta":{delta}}}"#,
                        esc(name)
                    );
                }
            }
        }
        let stored = records.len() as u64;
        let bytes = out.len();
        let _ = write!(
            out,
            r#"{{"account":{{"events":{stored},"dropped":{},"bytes":{bytes},"sim_ns":{max_t}"#,
            would - stored
        );
        if let Some(b) = budget {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                r#","budget":{{"max_events":{},"max_sim_ns":{},"charged_events":{},"charged_sim_ns":{},"would_have_run":{},"cutoff_seq":{},"runs_cut":{}}}"#,
                opt(b.max_events),
                opt(b.max_sim_ns),
                b.charged_events,
                b.charged_sim_ns,
                b.would_have_run,
                opt(b.cutoff_seq),
                b.runs_cut
            );
        }
        if let Some(d) = delta {
            let _ = write!(
                out,
                r#","delta":{{"lookups":{},"full_hits":{},"resumes":{},"misses":{},"calls_replayed":{},"calls_resimulated":{},"stored":{},"evictions":{},"entries":{},"bytes_held":{}}}"#,
                d.lookups,
                d.full_hits,
                d.resumes,
                d.misses,
                d.calls_replayed,
                d.calls_resimulated,
                d.stored,
                d.evictions,
                d.entries,
                d.bytes_held
            );
        }
        out.push_str("}}\n");
        out
    }

    /// Deterministic test randomness: one splitmix64 step.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Names that take every path through the escaper.
    const NAMES: [&str; 12] = [
        "core",
        "",
        "we\"ird",
        "back\\slash",
        "new\nline",
        "cr\rtab\t",
        "\u{1}ctl\u{1f}",
        "del\u{7f}",
        "naïve → µs",
        "\"\\\"",
        "sim.run_prtr",
        "ctx:task0",
    ];

    /// A journal holding `len` random records, with random offer and
    /// time accounting, built directly so ids, parents, and times can
    /// take values the id mint never hands out.
    fn random_journal(rng: &mut u64, len: usize) -> Journal {
        let pick = |rng: &mut u64| match splitmix64(rng) % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => splitmix64(rng) % 1_000,
            _ => splitmix64(rng),
        };
        let mut s = State::new(splitmix64(rng));
        for _ in 0..len {
            let name = NAMES[(splitmix64(rng) % NAMES.len() as u64) as usize];
            let id = SpanId(pick(rng));
            let parent = (!splitmix64(rng).is_multiple_of(3)).then(|| SpanId(pick(rng)));
            let (t_ns, tid) = (pick(rng), pick(rng));
            s.records.push(match splitmix64(rng) % 5 {
                0 => JournalRecord::Open {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                },
                1 => JournalRecord::Event {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                },
                2 => JournalRecord::Close { id, t_ns },
                3 => JournalRecord::Flow {
                    from: id,
                    to: SpanId(pick(rng)),
                    kind: name,
                },
                _ => JournalRecord::Metric {
                    name,
                    delta: pick(rng),
                },
            });
        }
        s.would = len as u64 + splitmix64(rng) % 3;
        s.max_t_ns = pick(rng);
        if splitmix64(rng).is_multiple_of(2) {
            s.budget_account = Some(BudgetAccount {
                max_events: splitmix64(rng).is_multiple_of(2).then(|| pick(rng)),
                max_sim_ns: splitmix64(rng).is_multiple_of(2).then(|| pick(rng)),
                charged_events: pick(rng),
                charged_sim_ns: pick(rng),
                would_have_run: pick(rng),
                cutoff_seq: splitmix64(rng).is_multiple_of(2).then(|| pick(rng)),
                runs_cut: pick(rng),
            });
        }
        if splitmix64(rng).is_multiple_of(2) {
            s.delta_account = Some(DeltaAccount {
                lookups: pick(rng),
                full_hits: pick(rng),
                resumes: pick(rng),
                misses: pick(rng),
                calls_replayed: pick(rng),
                calls_resimulated: pick(rng),
                stored: pick(rng),
                evictions: pick(rng),
                entries: pick(rng),
                bytes_held: pick(rng),
            });
        }
        Journal(Some(Arc::new(Mutex::new(s))))
    }

    #[test]
    fn push_u64_matches_display() {
        let mut rng = 3;
        let mut values = vec![
            0,
            1,
            9,
            10,
            99,
            100,
            101,
            999,
            1_000,
            u64::MAX,
            u64::MAX - 1,
        ];
        values.extend((0..20).map(|k| 10u64.pow(k)));
        values.extend((1..20).map(|k| 10u64.pow(k) - 1));
        values.extend((0..1_000).map(|_| splitmix64(&mut rng) >> (splitmix64(&mut rng) % 64)));
        for v in values {
            let mut out = b"x".to_vec();
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
    }

    #[test]
    fn to_jsonl_matches_the_write_based_oracle() {
        for j in [Journal::noop(), Journal::new(1)] {
            assert_eq!(j.to_jsonl("e\"x", 0), reference_jsonl(&j, "e\"x", 0));
        }
        let mut rng = 0x5EED;
        let (mut budgets, mut deltas) = (0, 0);
        for case in 0..256 {
            let len = (splitmix64(&mut rng) % 64) as usize;
            let j = random_journal(&mut rng, len);
            budgets += j.budget_account().is_some() as u32;
            deltas += j.delta_account().is_some() as u32;
            let experiment = NAMES[case % NAMES.len()];
            let seed = [0, u64::MAX, case as u64][case % 3];
            assert_eq!(
                j.to_jsonl(experiment, seed),
                reference_jsonl(&j, experiment, seed),
                "case {case}"
            );
        }
        assert!(budgets > 0 && deltas > 0, "both footers were exercised");
    }

    /// One cycle body with references that leave the block: it closes
    /// `outer` (opened before the mark), links `outer` into the block
    /// with a flow, and nests an event under a span of its own.
    fn emit_cycle(j: &Journal, run: Option<SpanId>, outer: Option<SpanId>, t0: u64) {
        j.close(outer, t0 + 1);
        let call = j.open("call", run, t0, 0);
        let exec = j.event("execute", call, t0 + 5, 10);
        j.flow(outer, exec, "enter");
        j.flow(call, exec, "activate");
        j.metric("calls", 1);
        j.close(call, t0 + 9);
    }

    #[test]
    fn replay_cycle_keeps_outside_references_and_budget_accounting() {
        // No budget; one that runs out part-way through the second copy;
        // and one that runs out inside the simulated cycle itself.
        for budget in [None, Some(12), Some(5)] {
            let journal = || match budget {
                Some(b) => Journal::new(21).with_budget(b),
                None => Journal::new(21),
            };
            let (fast, reference) = (journal(), journal());
            let mut runs = Vec::new();
            for j in [&fast, &reference] {
                let run = j.enter("run", 0, 0);
                let outer = j.open("outer", run, 1, 0);
                runs.push((run, outer));
            }
            let m = fast.mark();
            emit_cycle(&fast, runs[0].0, runs[0].1, 100);
            fast.replay_cycle(m, 3, 50);
            fast.exit(runs[0].0, 300);
            for t0 in [100, 150, 200, 250] {
                emit_cycle(&reference, runs[1].0, runs[1].1, t0);
            }
            reference.exit(runs[1].0, 300);
            assert_eq!(fast.records(), reference.records(), "budget {budget:?}");
            assert_eq!(
                fast.to_jsonl("x", 5),
                reference.to_jsonl("x", 5),
                "budget {budget:?}"
            );
        }
    }
}
