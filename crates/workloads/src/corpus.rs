//! Seeded-bug corpus: deterministic broken variants of the workload
//! traces for the persistency sanitizer (`thoth-psan`) to catch.
//!
//! Each [`SeededBug`] takes an annotated clean trace and plants exactly
//! one persistency bug at a deterministically chosen site:
//!
//! * [`SeededBug::DroppedFlush`] — an in-place data store is demoted to a
//!   relaxed store whose write-back never happens: the transaction
//!   commits with no durable-ordering edge for that block (a durability
//!   bug — the classic missing `clwb`).
//! * [`SeededBug::SwappedLogData`] — an undo-log append and the in-place
//!   update it guards change places: the data becomes durable before its
//!   old value does, so a crash between them is unrecoverable (an
//!   ordering violation — write-ahead logging inverted).
//! * [`SeededBug::DoubleFlush`] — a redundant flush of a block the
//!   preceding store already persisted (a performance smell — the
//!   back-to-back `clwb` anti-pattern).
//!
//! Four cross-core race variants exercise the happens-before layer of
//! psan v2 ([`SeededBug::is_cross_core`]); they need a trace with at
//! least two cores:
//!
//! * [`SeededBug::UnfencedCounter`] — a second core updates the same
//!   hot block with no synchronizing drain between the two persists
//!   (a cross-core persist race: WPQ drain order decides recovery).
//! * [`SeededBug::SwappedDrainOrder`] — a second core persists two of
//!   the victim core's blocks in the *opposite* order, so the two
//!   cores disagree on which block reaches NVM first.
//! * [`SeededBug::RelaxedSteal`] — the victim's store is demoted to a
//!   relaxed store *and* a second core persists the same block: the
//!   owner's durability now hinges on a racing core's write-back
//!   (a fence-elision race).
//! * [`SeededBug::CoverOverlap`] — a second core raises a metadata
//!   cover for a block whose cover from the victim core is still
//!   live and unordered (a stale-cover overlap).
//!
//! The mutation site is recorded as a [`BugSite`] so the sanitizer's
//! attribution (core, op index, address) can be checked exactly.

use crate::runtime::{AnnotatedTrace, MultiCoreTrace, OpClass, TraceOp};
use thoth_sim_engine::DetRng;

/// One plantable persistency bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeededBug {
    /// Demote a data store to a relaxed store with no flush (durability).
    DroppedFlush,
    /// Swap an undo-log append with the update it guards (ordering).
    SwappedLogData,
    /// Insert a flush of an already-persisted block (performance smell).
    DoubleFlush,
    /// A second core updates the same block with no ordering drain
    /// between the persists (cross-core race).
    UnfencedCounter,
    /// A second core persists two victim blocks in the opposite order
    /// (cross-core race on the later-drained block).
    SwappedDrainOrder,
    /// Demote the owner's store to relaxed and let a second core
    /// persist the block (fence elision).
    RelaxedSteal,
    /// A second core covers a block whose metadata cover from the
    /// victim core is still live (stale cover overlap).
    CoverOverlap,
}

impl SeededBug {
    /// Every bug kind, in a fixed order.
    pub const ALL: [SeededBug; 7] = [
        SeededBug::DroppedFlush,
        SeededBug::SwappedLogData,
        SeededBug::DoubleFlush,
        SeededBug::UnfencedCounter,
        SeededBug::SwappedDrainOrder,
        SeededBug::RelaxedSteal,
        SeededBug::CoverOverlap,
    ];

    /// The original single-core bugs (one finding class each, no
    /// happens-before reasoning needed).
    pub const CLASSIC: [SeededBug; 3] = [
        SeededBug::DroppedFlush,
        SeededBug::SwappedLogData,
        SeededBug::DoubleFlush,
    ];

    /// The cross-core race bugs psan v2's vector-clock layer catches.
    pub const RACES: [SeededBug; 4] = [
        SeededBug::UnfencedCounter,
        SeededBug::SwappedDrainOrder,
        SeededBug::RelaxedSteal,
        SeededBug::CoverOverlap,
    ];

    /// True for the bugs that plant a racing op on a second core.
    #[must_use]
    pub fn is_cross_core(self) -> bool {
        matches!(
            self,
            SeededBug::UnfencedCounter
                | SeededBug::SwappedDrainOrder
                | SeededBug::RelaxedSteal
                | SeededBug::CoverOverlap
        )
    }

    /// Stable lowercase name (reports, JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SeededBug::DroppedFlush => "dropped-flush",
            SeededBug::SwappedLogData => "swapped-log-data",
            SeededBug::DoubleFlush => "double-flush",
            SeededBug::UnfencedCounter => "unfenced-counter",
            SeededBug::SwappedDrainOrder => "swapped-drain-order",
            SeededBug::RelaxedSteal => "relaxed-steal",
            SeededBug::CoverOverlap => "cover-overlap",
        }
    }

    /// Parses a [`Self::name`] back.
    #[must_use]
    pub fn from_name(name: &str) -> Option<SeededBug> {
        SeededBug::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Per-kind salt so different bugs pick independent sites.
    fn salt(self) -> u64 {
        match self {
            SeededBug::DroppedFlush => 0xD90F_F1A5,
            SeededBug::SwappedLogData => 0x5A99_ED10,
            SeededBug::DoubleFlush => 0xD0B1_EF15,
            SeededBug::UnfencedCounter => 0x0FEC_C017,
            SeededBug::SwappedDrainOrder => 0x5DA1_0D07,
            SeededBug::RelaxedSteal => 0x7E1A_57EA,
            SeededBug::CoverOverlap => 0xC0FE_071A,
        }
    }
}

impl std::fmt::Display for SeededBug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution-order alignment for cross-core planting: for each core and
/// op index, the global sequence number of the op's first observable
/// persist event in a pilot run of the *clean* trace.
///
/// Op indices do not line up in time across cores (streams drift apart
/// as they run), so a racing op planted "at the same index" on a peer
/// core can land far outside the victim persist's WPQ residency window.
/// With an alignment table the corpus plants the racing op at the peer
/// position that executes closest to the victim op in simulated time.
///
/// The table is built by whoever can run the trace (the sanitizer
/// driver). Ops that emitted no events hold [`u64::MAX`]; entries with
/// events are non-decreasing along each row.
#[derive(Debug, Clone)]
pub struct RaceAlignment {
    /// `first_seq[core][op]` — see the type docs.
    pub first_seq: Vec<Vec<u64>>,
}

impl RaceAlignment {
    /// First-event sequence of `(core, op)`, or `u64::MAX` when the op
    /// produced no events.
    #[must_use]
    pub fn seq(&self, core: usize, op: usize) -> u64 {
        self.first_seq
            .get(core)
            .and_then(|row| row.get(op).copied())
            .unwrap_or(u64::MAX)
    }

    /// Index of the first op in `peer`'s stream whose own first event
    /// lands at or after global sequence `victim_seq` (ops without
    /// events are skipped — their position in global order is unknown).
    /// An op inserted at this index executes in the same event gap as
    /// `victim_seq`; inserted one slot later, it is guaranteed to
    /// execute after it.
    #[must_use]
    pub fn insert_index(&self, peer: usize, victim_seq: u64) -> usize {
        self.first_seq.get(peer).map_or(0, |row| {
            row.iter()
                .position(|&s| s != u64::MAX && s >= victim_seq)
                .unwrap_or(row.len())
        })
    }

    /// The insertion-slot bracket around `victim_seq` in `peer`'s
    /// stream: `(lo, hi)` where `lo` is the slot right after the last
    /// peer op observed *before* `victim_seq` and `hi` is
    /// [`Self::insert_index`]. Ops in `lo..hi` emitted no events; an op
    /// inserted anywhere in the bracket executes near `victim_seq`.
    #[must_use]
    pub fn gap(&self, peer: usize, victim_seq: u64) -> (usize, usize) {
        let hi = self.insert_index(peer, victim_seq);
        let lo = self.first_seq.get(peer).map_or(0, |row| {
            row.iter()
                .rposition(|&s| s != u64::MAX && s < victim_seq)
                .map_or(0, |q| q + 1)
        });
        (lo, hi)
    }
}

/// Where a bug was planted — the exact site the sanitizer must attribute
/// its finding to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BugSite {
    /// Core whose op stream was mutated.
    pub core: usize,
    /// Index (into the mutated stream) of the op the finding must name.
    pub op: usize,
    /// Target address of the mutated/inserted op.
    pub addr: u64,
}

/// A broken trace variant plus its ground truth.
#[derive(Debug, Clone)]
pub struct SeededVariant {
    /// The planted bug.
    pub bug: SeededBug,
    /// Ground-truth site of the expected finding.
    pub site: BugSite,
    /// The mutated trace.
    pub trace: MultiCoreTrace,
    /// Per-core, per-op semantic classes, mutated in lock-step with the
    /// trace (the dropped-flush victim keeps its `DataInPlace` class —
    /// the *intent* of the op is unchanged, only its durability is).
    pub classes: Vec<Vec<OpClass>>,
}

/// Block-aligned indices spanned by `[addr, addr+len)`.
fn blocks_spanned(addr: u64, len: u32, block_bytes: u64) -> (u64, u64) {
    let first = addr / block_bytes;
    let last = (addr + u64::from(len).max(1) - 1) / block_bytes;
    (first, last)
}

fn spans_intersect(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// Transaction ranges `[start, commit_index]` of one core's op stream.
fn tx_ranges(ops: &[TraceOp]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, TraceOp::Commit) {
            out.push((start, i));
            start = i + 1;
        }
    }
    out
}

/// Plants `bug` into a deterministically (by `seed`) chosen eligible site
/// of `annotated`. Returns `None` if the trace exposes no eligible site
/// (e.g. no in-place update whose blocks are private to it within its
/// transaction). `block_bytes` must match the simulator configuration the
/// variant will be replayed under — eligibility is block-granular.
#[must_use]
pub fn seed_bug(
    annotated: &AnnotatedTrace,
    bug: SeededBug,
    seed: u64,
    block_bytes: u64,
) -> Option<SeededVariant> {
    seed_bug_with(annotated, bug, seed, block_bytes, None)
}

/// [`seed_bug`] with an optional execution-order alignment table. The
/// cross-core bugs need one on real-scale traces: without it the racing
/// op is planted at `victim index + 1` on the peer core, which only
/// stays inside the victim persist's WPQ residency window while the
/// cores are still running in lock-step (early in the trace).
#[must_use]
pub fn seed_bug_with(
    annotated: &AnnotatedTrace,
    bug: SeededBug,
    seed: u64,
    block_bytes: u64,
    align: Option<&RaceAlignment>,
) -> Option<SeededVariant> {
    let sites = eligible_sites(annotated, bug, block_bytes);
    if sites.is_empty() {
        return None;
    }
    let mut rng = DetRng::seed_from(seed ^ bug.salt());
    let (core, op) = sites[rng.gen_index(sites.len())];
    let mut trace = annotated.trace.clone();
    let mut classes = annotated.classes.clone();
    // Cross-core bugs plant a small cluster of racing ops on the next
    // core, at slots bracketing the victim op's position in global
    // execution order (see [`thief_slots`]): at least one of them makes
    // contact with the victim persist's WPQ residency window however
    // far the two cores have drifted apart. The planted site is the
    // *victim* endpoint — the checker reports races at both endpoints,
    // and the victim one is stable no matter which racing op connects.
    let peer = (core + 1) % trace.cores.len();
    let site = match bug {
        SeededBug::DroppedFlush => {
            let ops = &mut trace.cores[core];
            let TraceOp::Store { addr, len } = ops[op] else {
                unreachable!("eligible site is a store");
            };
            ops[op] = TraceOp::StoreRelaxed { addr, len };
            BugSite { core, op, addr }
        }
        SeededBug::SwappedLogData => {
            trace.cores[core].swap(op, op + 1);
            classes[core].swap(op, op + 1);
            let TraceOp::Store { addr, .. } = trace.cores[core][op] else {
                unreachable!("swapped-in data op is a store");
            };
            BugSite { core, op, addr }
        }
        SeededBug::DoubleFlush => {
            let ops = &mut trace.cores[core];
            let TraceOp::Store { addr, len } = ops[op] else {
                unreachable!("eligible site is a store");
            };
            ops.insert(op + 1, TraceOp::Flush { addr, len });
            classes[core].insert(op + 1, OpClass::Flush);
            BugSite { core, op: op + 1, addr }
        }
        SeededBug::UnfencedCounter => {
            let TraceOp::Store { addr, len } = trace.cores[core][op] else {
                unreachable!("eligible site is a store");
            };
            for at in thief_slots(align, peer, trace.cores[peer].len(), core, op, false) {
                trace.cores[peer].insert(at, TraceOp::Store { addr, len });
                classes[peer].insert(at, OpClass::DataFresh);
            }
            BugSite { core, op, addr }
        }
        SeededBug::SwappedDrainOrder => {
            let TraceOp::Store { addr: a0, len: l0 } = trace.cores[core][op] else {
                unreachable!("eligible site is a store");
            };
            let (_, a1, l1) =
                drain_pair_partner(&trace.cores[core], &classes[core], op, block_bytes)
                    .expect("eligible site has a partner store");
            // The peer persists the victim's *later* block first: the
            // two cores now disagree on the drain order of the pair.
            for at in thief_slots(align, peer, trace.cores[peer].len(), core, op, false) {
                trace.cores[peer].insert(at, TraceOp::Store { addr: a0, len: l0 });
                classes[peer].insert(at, OpClass::DataFresh);
                trace.cores[peer].insert(at, TraceOp::Store { addr: a1, len: l1 });
                classes[peer].insert(at, OpClass::DataFresh);
            }
            BugSite { core, op, addr: a0 }
        }
        SeededBug::RelaxedSteal => {
            let TraceOp::Store { addr, len } = trace.cores[core][op] else {
                unreachable!("eligible site is a store");
            };
            trace.cores[core][op] = TraceOp::StoreRelaxed { addr, len };
            // Stealing only works inside the (relaxed store, commit)
            // window — at commit the owner's durability verdict is
            // sealed — so the thieves go after peer ops observed to
            // execute strictly inside that window.
            let commit = tx_ranges(&trace.cores[core])
                .into_iter()
                .find(|&(s, e)| (s..e).contains(&op))
                .map(|(_, e)| e);
            for at in steal_slots(align, peer, trace.cores[peer].len(), core, op, commit) {
                trace.cores[peer].insert(at, TraceOp::Store { addr, len });
                classes[peer].insert(at, OpClass::DataFresh);
            }
            // Stretch the window: cold reads (long-retired undo-log
            // blocks, certain cache misses) right after the relaxed
            // store hold the owner's transaction open for several miss
            // latencies so a thief can land inside it.
            for pad in steal_padding(&trace.cores[core], &classes[core], op, block_bytes) {
                trace.cores[core].insert(op + 1, TraceOp::Read { addr: pad, len: 8 });
                classes[core].insert(op + 1, OpClass::Read);
            }
            BugSite { core, op, addr }
        }
        SeededBug::CoverOverlap => {
            let TraceOp::Store { addr, len } = trace.cores[core][op] else {
                unreachable!("eligible site is a store");
            };
            let (_, last) = blocks_spanned(addr, len, block_bytes);
            let target = last * block_bytes;
            for at in thief_slots(align, peer, trace.cores[peer].len(), core, op, false) {
                trace.cores[peer].insert(at, TraceOp::Store { addr: target, len: 8 });
                classes[peer].insert(at, OpClass::DataFresh);
            }
            BugSite { core, op, addr: target }
        }
    };
    Some(SeededVariant {
        bug,
        site,
        trace,
        classes,
    })
}

/// Peer-stream slots for a cluster of racing ops bracketing the victim
/// op `(core, op)` in global execution order: the event gap the victim
/// executes in, the slot right after the first peer op known to follow
/// it, and one more a peer op later. Planting a copy of the racing op
/// at every slot guarantees contact with the victim persist's WPQ
/// residency window however far the cores have drifted apart and
/// however the mutation itself perturbs timing. `after_only` drops the
/// in-gap slot for bugs whose racing op must execute strictly after
/// the victim op (it trades the slot for one further out instead).
///
/// Slots are clamped to `peer_len`, deduplicated, and returned in
/// *descending* order so that inserting at each in turn leaves the
/// later (already-used) indices unshifted.
fn thief_slots(
    align: Option<&RaceAlignment>,
    peer: usize,
    peer_len: usize,
    core: usize,
    op: usize,
    after_only: bool,
) -> Vec<usize> {
    let slots = match align {
        Some(al) if al.seq(core, op) != u64::MAX => {
            let (lo, hi) = al.gap(peer, al.seq(core, op));
            if after_only {
                vec![hi, hi + 1, hi + 2]
            } else {
                vec![lo, hi, hi + 1]
            }
        }
        // No table: assume lock-step and plant around the same index.
        _ => vec![op + 1, op + 2, op + 3],
    };
    finish_slots(slots, peer_len)
}

/// Thief slots for [`SeededBug::RelaxedSteal`]: the steal only counts
/// while the owner's relaxed store is dirty and its transaction still
/// open, so the thieves go right after peer ops whose first event falls
/// strictly inside the pilot-run `(store, commit)` sequence window.
/// When no peer op was observed in the window (or without a table),
/// falls back to [`thief_slots`]' strictly-after cluster.
fn steal_slots(
    align: Option<&RaceAlignment>,
    peer: usize,
    peer_len: usize,
    core: usize,
    op: usize,
    commit: Option<usize>,
) -> Vec<usize> {
    if let (Some(al), Some(commit)) = (align, commit) {
        let (anchor, end) = (al.seq(core, op), al.seq(core, commit));
        if anchor != u64::MAX {
            let in_window: Vec<usize> = al.first_seq.get(peer).map_or_else(Vec::new, |row| {
                row.iter()
                    .enumerate()
                    .filter(|&(_, &s)| s != u64::MAX && s > anchor && s < end)
                    .map(|(p, _)| p + 1)
                    .take(3)
                    .collect()
            });
            if !in_window.is_empty() {
                return finish_slots(in_window, peer_len);
            }
        }
    }
    thief_slots(align, peer, peer_len, core, op, true)
}

/// Addresses (up to 8, distinct blocks, none the victim's) for the
/// window-stretching reads of [`SeededBug::RelaxedSteal`]: undo-log
/// appends from the earliest part of the owner's stream. Log blocks
/// are written once and never read back, so by the time the site
/// executes they are long evicted — each read is a full miss.
fn steal_padding(
    ops: &[TraceOp],
    classes: &[OpClass],
    site: usize,
    block_bytes: u64,
) -> Vec<u64> {
    const PADS: usize = 24;
    let victim_block = match ops[site] {
        TraceOp::Store { addr, .. } | TraceOp::StoreRelaxed { addr, .. } => addr / block_bytes,
        _ => u64::MAX,
    };
    let mut blocks = Vec::new();
    let mut picked = Vec::new();
    // Forward scan first: a block whose first write (`DataFresh`) comes
    // *after* the site has never been touched yet, so reading it here is
    // a guaranteed cache miss — the slow path that actually stretches
    // the pre-commit window in the discrete-event schedule.
    for i in site + 1..ops.len() {
        if !matches!(classes[i], OpClass::DataFresh) {
            continue;
        }
        let (TraceOp::Store { addr, .. } | TraceOp::StoreRelaxed { addr, .. }) = ops[i] else {
            continue;
        };
        let b = addr / block_bytes;
        if b == victim_block || blocks.contains(&b) {
            continue;
        }
        blocks.push(b);
        picked.push(addr);
        if picked.len() == PADS {
            break;
        }
    }
    // Backstop for workloads with few fresh allocations: cold-ish undo
    // log blocks from earlier transactions.
    if picked.len() < PADS {
        for i in 0..site {
            if !matches!(classes[i], OpClass::LogAppend { .. }) {
                continue;
            }
            let (TraceOp::Store { addr, .. } | TraceOp::StoreRelaxed { addr, .. }) = ops[i] else {
                continue;
            };
            let b = addr / block_bytes;
            if b == victim_block || blocks.contains(&b) {
                continue;
            }
            blocks.push(b);
            picked.push(addr);
            if picked.len() == PADS {
                break;
            }
        }
    }
    picked
}

/// Clamps, orders (descending), and deduplicates insertion slots so
/// that inserting at each in turn leaves the others unshifted.
fn finish_slots(mut slots: Vec<usize>, peer_len: usize) -> Vec<usize> {
    for s in &mut slots {
        *s = (*s).min(peer_len);
    }
    slots.sort_unstable_by(|a, b| b.cmp(a));
    slots.dedup();
    slots
}

/// The nearest later data store on the same core that targets a
/// different block than the store at `i` — the other half of a
/// swapped-drain-order pair. The window is kept tight (4 ops) so both
/// victim persists are still WPQ-resident when the peer's racing pair
/// lands.
fn drain_pair_partner(
    ops: &[TraceOp],
    classes: &[OpClass],
    i: usize,
    block_bytes: u64,
) -> Option<(usize, u64, u32)> {
    let TraceOp::Store { addr: a0, .. } = ops[i] else {
        return None;
    };
    if !matches!(classes[i], OpClass::DataInPlace | OpClass::DataFresh) {
        return None;
    }
    for j in i + 1..=(i + 4).min(ops.len().saturating_sub(1)) {
        if !matches!(classes[j], OpClass::DataInPlace | OpClass::DataFresh) {
            continue;
        }
        let TraceOp::Store { addr: a1, len: l1 } = ops[j] else {
            continue;
        };
        if a1 / block_bytes != a0 / block_bytes {
            return Some((j, a1, l1));
        }
    }
    None
}

/// `(core, op)` sites where `bug` can be planted with an unambiguous
/// expected finding.
fn eligible_sites(
    annotated: &AnnotatedTrace,
    bug: SeededBug,
    block_bytes: u64,
) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    // The race bugs need a second core to plant the racing op on.
    if bug.is_cross_core() && annotated.trace.cores.len() < 2 {
        return sites;
    }
    for (core, (ops, classes)) in annotated
        .trace
        .cores
        .iter()
        .zip(&annotated.classes)
        .enumerate()
    {
        match bug {
            SeededBug::DroppedFlush | SeededBug::RelaxedSteal => {
                // A data store (in-place or fresh — both must be durable
                // by commit) whose blocks no other store or flush of the
                // same transaction touches — otherwise that other access
                // would persist the victim's block as a side effect (same
                // cache line) and mask the bug.
                for &(start, end) in &tx_ranges(ops) {
                    for i in start..end {
                        if !matches!(classes[i], OpClass::DataInPlace | OpClass::DataFresh) {
                            continue;
                        }
                        let TraceOp::Store { addr, len } = ops[i] else {
                            continue;
                        };
                        let span = blocks_spanned(addr, len, block_bytes);
                        let private = (start..=end).all(|j| {
                            if j == i {
                                return true;
                            }
                            match ops[j] {
                                TraceOp::Store { addr, len }
                                | TraceOp::StoreRelaxed { addr, len }
                                | TraceOp::Flush { addr, len } => !spans_intersect(
                                    span,
                                    blocks_spanned(addr, len, block_bytes),
                                ),
                                _ => true,
                            }
                        });
                        if private {
                            sites.push((core, i));
                        }
                    }
                }
            }
            SeededBug::SwappedLogData => {
                // A log append immediately followed by the in-place
                // update it guards (the runtime always emits them
                // adjacently).
                for i in 0..classes.len().saturating_sub(1) {
                    let OpClass::LogAppend {
                        guard_addr,
                        guard_len,
                    } = classes[i]
                    else {
                        continue;
                    };
                    if classes[i + 1] == OpClass::DataInPlace
                        && ops[i + 1]
                            == (TraceOp::Store {
                                addr: guard_addr,
                                len: guard_len,
                            })
                    {
                        sites.push((core, i));
                    }
                }
            }
            SeededBug::DoubleFlush | SeededBug::UnfencedCounter | SeededBug::CoverOverlap => {
                for (i, class) in classes.iter().enumerate() {
                    if matches!(class, OpClass::DataInPlace | OpClass::DataFresh)
                        && matches!(ops[i], TraceOp::Store { .. })
                    {
                        sites.push((core, i));
                    }
                }
            }
            SeededBug::SwappedDrainOrder => {
                for i in 0..ops.len() {
                    if drain_pair_partner(ops, classes, i, block_bytes).is_some() {
                        sites.push((core, i));
                    }
                }
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{self, WorkloadConfig, WorkloadKind};

    fn tiny_annotated(kind: WorkloadKind) -> AnnotatedTrace {
        let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.01);
        cfg.cores = 2;
        cfg.footprint = if kind == WorkloadKind::Swap { 32 } else { 2000 };
        cfg.prepopulate = cfg.footprint / 2;
        spec::generate_annotated(cfg)
    }

    #[test]
    fn classes_align_with_ops() {
        for kind in WorkloadKind::ALL {
            let a = tiny_annotated(kind);
            for (ops, classes) in a.trace.cores.iter().zip(&a.classes) {
                assert_eq!(ops.len(), classes.len(), "{kind}");
            }
        }
    }

    #[test]
    fn every_bug_seeds_into_every_workload() {
        for kind in WorkloadKind::ALL {
            let a = tiny_annotated(kind);
            for bug in SeededBug::ALL {
                // Swap is log-free by design (its writes are their own
                // inverse), so the log/data inversion has no site there.
                if kind == WorkloadKind::Swap && bug == SeededBug::SwappedLogData {
                    assert!(seed_bug(&a, bug, 7, 128).is_none());
                    continue;
                }
                let v = seed_bug(&a, bug, 7, 128)
                    .unwrap_or_else(|| panic!("{kind}: no eligible {bug} site"));
                assert_eq!(v.bug, bug);
                assert!(v.site.core < v.trace.cores.len());
                assert!(v.site.op < v.trace.cores[v.site.core].len());
                for (ops, classes) in v.trace.cores.iter().zip(&v.classes) {
                    assert_eq!(ops.len(), classes.len(), "{kind} {bug}: classes drifted");
                }
            }
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a = tiny_annotated(WorkloadKind::Btree);
        let v1 = seed_bug(&a, SeededBug::DroppedFlush, 7, 128).expect("site");
        let v2 = seed_bug(&a, SeededBug::DroppedFlush, 7, 128).expect("site");
        assert_eq!(v1.site, v2.site);
        assert_eq!(v1.trace.cores, v2.trace.cores);
        let sites: Vec<BugSite> = (0..16)
            .filter_map(|s| seed_bug(&a, SeededBug::DroppedFlush, s, 128))
            .map(|v| v.site)
            .collect();
        assert!(
            sites.iter().any(|s| *s != sites[0]),
            "different seeds should reach different sites"
        );
    }

    #[test]
    fn dropped_flush_demotes_exactly_one_store() {
        let a = tiny_annotated(WorkloadKind::Hashmap);
        let v = seed_bug(&a, SeededBug::DroppedFlush, 3, 128).expect("site");
        let relaxed: Vec<usize> = v.trace.cores[v.site.core]
            .iter()
            .enumerate()
            .filter_map(|(i, op)| matches!(op, TraceOp::StoreRelaxed { .. }).then_some(i))
            .collect();
        assert_eq!(relaxed, vec![v.site.op]);
        assert_eq!(
            v.trace.total_stores(),
            a.trace.total_stores(),
            "relaxed store still counts as a store"
        );
    }

    #[test]
    fn swapped_log_data_keeps_op_multiset() {
        let a = tiny_annotated(WorkloadKind::Ctree);
        let v = seed_bug(&a, SeededBug::SwappedLogData, 3, 128).expect("site");
        let ops = &v.trace.cores[v.site.core];
        // The data op now precedes its own log append.
        assert!(matches!(ops[v.site.op], TraceOp::Store { addr, .. } if addr == v.site.addr));
        let mut orig = a.trace.cores[v.site.core].clone();
        let mut mutated = ops.clone();
        orig.sort_by_key(|op| format!("{op:?}"));
        mutated.sort_by_key(|op| format!("{op:?}"));
        assert_eq!(orig, mutated, "swap must not add or drop ops");
    }

    #[test]
    fn double_flush_inserts_after_its_store() {
        let a = tiny_annotated(WorkloadKind::Swap);
        let v = seed_bug(&a, SeededBug::DoubleFlush, 3, 128).expect("site");
        let ops = &v.trace.cores[v.site.core];
        assert!(matches!(ops[v.site.op], TraceOp::Flush { addr, .. } if addr == v.site.addr));
        assert!(matches!(ops[v.site.op - 1], TraceOp::Store { addr, .. } if addr == v.site.addr));
        assert_eq!(ops.len(), a.trace.cores[v.site.core].len() + 1);
    }

    /// The peer core a race bug plants its thief cluster on.
    fn peer_of(v: &SeededVariant) -> usize {
        (v.site.core + 1) % v.trace.cores.len()
    }

    #[test]
    fn unfenced_counter_plants_racing_stores_on_peer_core() {
        let a = tiny_annotated(WorkloadKind::Hashmap);
        let v = seed_bug(&a, SeededBug::UnfencedCounter, 3, 128).expect("site");
        // Site is the victim endpoint; the victim stream is untouched.
        let ops = &v.trace.cores[v.site.core];
        assert!(matches!(ops[v.site.op], TraceOp::Store { addr, .. } if addr == v.site.addr));
        assert_eq!(ops.len(), a.trace.cores[v.site.core].len());
        // The thief cluster lives on the next core.
        let peer = peer_of(&v);
        let thieves = v.trace.cores[peer]
            .iter()
            .filter(|op| matches!(op, TraceOp::Store { addr, .. } if *addr == v.site.addr))
            .count();
        assert!((1..=3).contains(&thieves), "{thieves} thieves");
        assert_eq!(
            v.trace.cores[peer].len(),
            a.trace.cores[peer].len() + thieves
        );
    }

    #[test]
    fn swapped_drain_order_inserts_reversed_pairs() {
        let a = tiny_annotated(WorkloadKind::Btree);
        let v = seed_bug(&a, SeededBug::SwappedDrainOrder, 3, 128).expect("site");
        // Site is the victim's earlier store of the pair.
        let victim = &v.trace.cores[v.site.core];
        assert!(matches!(victim[v.site.op], TraceOp::Store { addr, .. } if addr == v.site.addr));
        // The peer got adjacent [later-block, earlier-block] pairs.
        let peer_ops = &v.trace.cores[peer_of(&v)];
        let grown = peer_ops.len() - a.trace.cores[peer_of(&v)].len();
        assert!(grown >= 2 && grown.is_multiple_of(2), "grew by {grown}");
        let has_reversed_pair = peer_ops.windows(2).any(|w| {
            matches!(
                (&w[0], &w[1]),
                (TraceOp::Store { addr: a1, .. }, TraceOp::Store { addr: a0, .. })
                    if *a0 == v.site.addr && a1 / 128 != a0 / 128
            )
        });
        assert!(has_reversed_pair);
    }

    #[test]
    fn relaxed_steal_demotes_owner_and_plants_thieves() {
        let a = tiny_annotated(WorkloadKind::Hashmap);
        let v = seed_bug(&a, SeededBug::RelaxedSteal, 3, 128).expect("site");
        let owner = &v.trace.cores[v.site.core];
        assert!(
            matches!(owner[v.site.op], TraceOp::StoreRelaxed { addr, .. } if addr == v.site.addr)
        );
        let peer = peer_of(&v);
        assert!(v.trace.cores[peer]
            .iter()
            .any(|op| matches!(op, TraceOp::Store { addr, .. } if *addr == v.site.addr)));
        assert!(v.trace.cores[peer].len() > a.trace.cores[peer].len());
    }

    #[test]
    fn cover_overlap_targets_a_block_aligned_address() {
        let a = tiny_annotated(WorkloadKind::Queue);
        let v = seed_bug(&a, SeededBug::CoverOverlap, 3, 128).expect("site");
        assert_eq!(v.site.addr % 128, 0, "cover sites are block-aligned");
        // The victim store covers the target block; the peer pokes it.
        let TraceOp::Store { addr, len } = v.trace.cores[v.site.core][v.site.op] else {
            panic!("victim site is a store");
        };
        assert_eq!((addr + u64::from(len) - 1) / 128, v.site.addr / 128);
        assert!(v.trace.cores[peer_of(&v)]
            .iter()
            .any(|op| matches!(op, TraceOp::Store { addr, len: 8 } if *addr == v.site.addr)));
    }

    #[test]
    fn alignment_brackets_and_slots_behave() {
        let al = RaceAlignment {
            first_seq: vec![
                vec![0, 4, 9],
                vec![2, u64::MAX, u64::MAX, 11, 20],
            ],
        };
        // First peer op at-or-after seq 9 is index 3 (MAX ops skipped).
        assert_eq!(al.insert_index(1, 9), 3);
        // Last peer op before seq 9 is index 0, so the gap opens at 1.
        assert_eq!(al.gap(1, 9), (1, 3));
        assert_eq!(al.seq(1, 2), u64::MAX);
        assert_eq!(al.seq(9, 0), u64::MAX, "missing core");
        // Slots bracket the gap, descending, deduped, clamped.
        assert_eq!(thief_slots(Some(&al), 1, 5, 0, 2, false), vec![4, 3, 1]);
        assert_eq!(thief_slots(Some(&al), 1, 5, 0, 2, true), vec![5, 4, 3]);
        assert_eq!(thief_slots(Some(&al), 1, 4, 0, 2, true), vec![4, 3]);
        assert_eq!(thief_slots(None, 1, 100, 0, 7, false), vec![10, 9, 8]);
    }

    #[test]
    fn race_bugs_need_two_cores() {
        let mut cfg = WorkloadConfig::paper_default(WorkloadKind::Btree).scaled(0.01);
        cfg.cores = 1;
        cfg.footprint = 2000;
        cfg.prepopulate = cfg.footprint / 2;
        let a = spec::generate_annotated(cfg);
        for bug in SeededBug::RACES {
            assert!(seed_bug(&a, bug, 7, 128).is_none(), "{bug} needs 2 cores");
        }
        for bug in SeededBug::CLASSIC {
            assert!(seed_bug(&a, bug, 7, 128).is_some(), "{bug} works single-core");
        }
    }

    #[test]
    fn names_roundtrip() {
        for b in SeededBug::ALL {
            assert_eq!(SeededBug::from_name(b.name()), Some(b));
        }
        assert_eq!(SeededBug::from_name("nope"), None);
    }
}
