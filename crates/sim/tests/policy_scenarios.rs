//! Transcriptions of the paper's Figures 5 and 6: the event sequences
//! demonstrating how WTBC and WTSC classify and act on PUB evictions.
//!
//! Each test stages the exact cache/buffer state of one figure event
//! through the Figure-3 analysis engine (which applies the same policy
//! logic the machine uses) and checks the figure's stated action.

use thoth_cache::CacheConfig;
use thoth_core::analysis::{MetaUpdate, PubAnalysis};
use thoth_core::policy::BlockView;
use thoth_core::{EvictOutcome, EvictionPolicy};

fn cache_cfg() -> CacheConfig {
    CacheConfig::new(4096, 4, 64)
}

/// Figure 5/6, Event 4: the metadata block was naturally evicted from the
/// cache before the partial update left the buffer — the eviction's
/// write-back already persisted the update, so both policies skip.
#[test]
fn event_natural_eviction_then_pub_eviction_skips() {
    // 1-set/1-way cache: inserting a second block evicts the first.
    let tiny = CacheConfig::new(64, 1, 64);
    for policy in [EvictionPolicy::Wtsc, EvictionPolicy::Wtbc] {
        let mut a = PubAnalysis::new(tiny, 2, policy);
        a.record(MetaUpdate { meta_block: 0, subblock: 0, value: 1 }); // U1
        a.record(MetaUpdate { meta_block: 64, subblock: 0, value: 2 }); // evicts block 0
        // One more record pushes U1 (and only U1) out of the 2-entry FIFO.
        a.record(MetaUpdate { meta_block: 64, subblock: 1, value: 3 });
        let b = a.breakdown();
        assert_eq!(b.total(), 1, "{policy:?}");
        assert_eq!(b.count(EvictOutcome::AlreadyEvicted), 1, "{policy:?}");
        assert_eq!(b.policy_persists, 0, "no write needed ({policy:?})");
        assert_eq!(a.natural_writebacks, 1);
    }
}

/// Figure 5/6, Event 6: an earlier partial update's eviction persisted
/// the whole metadata block; the sibling update that shared the block is
/// then found clean and skipped.
#[test]
fn event_sibling_persist_then_clean_copy_skip() {
    for policy in [EvictionPolicy::Wtsc, EvictionPolicy::Wtbc] {
        let mut a = PubAnalysis::new(cache_cfg(), 2, policy);
        // Two updates to different words of the same block; both queued.
        a.record(MetaUpdate { meta_block: 0, subblock: 0, value: 1 }); // U1 (dirtying)
        a.record(MetaUpdate { meta_block: 0, subblock: 1, value: 2 }); // U2
        // Unrelated traffic forces both evictions in order.
        a.record(MetaUpdate { meta_block: 4096, subblock: 0, value: 3 });
        a.record(MetaUpdate { meta_block: 8192, subblock: 0, value: 4 });
        let b = a.breakdown();
        // U1: block dirty with U1 still the latest value -> persist.
        assert_eq!(b.count(EvictOutcome::WrittenBack), 1, "{policy:?}");
        // U2: the persist cleaned the block -> clean-copy skip.
        assert_eq!(b.count(EvictOutcome::CleanCopy), 1, "{policy:?}");
        assert_eq!(b.policy_persists, 1, "{policy:?}");
    }
}

/// Figure 5, stale case: a newer partial update to the *same* word makes
/// the older buffered entry stale. WTBC's value comparison detects it and
/// skips; WTSC (Figure 6) conservatively persists because the entry's
/// status bit is set and the block is still dirty.
#[test]
fn event_stale_update_wtbc_skips_wtsc_persists() {
    let run = |policy| {
        let mut a = PubAnalysis::new(cache_cfg(), 1, policy);
        a.record(MetaUpdate { meta_block: 0, subblock: 0, value: 1 }); // U1 (status=1)
        a.record(MetaUpdate { meta_block: 0, subblock: 0, value: 2 }); // U2 evicts U1
        a.breakdown()
    };
    let wtbc = run(EvictionPolicy::Wtbc);
    assert_eq!(wtbc.count(EvictOutcome::StaleCopy), 1);
    assert_eq!(wtbc.policy_persists, 0, "WTBC detects staleness precisely");

    let wtsc = run(EvictionPolicy::Wtsc);
    assert_eq!(wtsc.count(EvictOutcome::StaleCopy), 1, "ground truth is stale");
    assert_eq!(
        wtsc.policy_persists, 1,
        "WTSC cannot see the value and persists conservatively"
    );
}

/// Figure 6's key status-bit rule: only the first update that turns a
/// block dirty carries status=1; followers carry status=0 and never
/// persist under WTSC, because the dirtying entry's eviction covers them.
#[test]
fn event_status_bit_only_first_dirtier_persists() {
    let mut a = PubAnalysis::new(cache_cfg(), 3, EvictionPolicy::Wtsc);
    // Three updates to distinct words of one block while it stays dirty.
    a.record(MetaUpdate { meta_block: 0, subblock: 0, value: 1 }); // status=1
    a.record(MetaUpdate { meta_block: 0, subblock: 1, value: 2 }); // status=0
    a.record(MetaUpdate { meta_block: 0, subblock: 2, value: 3 }); // status=0
    // Exactly three fillers push the three updates (and nothing else) out.
    for v in 4..7 {
        a.record(MetaUpdate { meta_block: 4096, subblock: 0, value: v });
    }
    let b = a.breakdown();
    // Exactly one persist: the status-1 entry. Its persist carried the
    // other two updates (they classify as clean copies).
    assert_eq!(b.policy_persists, 1);
    assert_eq!(b.count(EvictOutcome::WrittenBack), 1);
    assert_eq!(b.count(EvictOutcome::CleanCopy), 2);
}

/// The raw policy rules of Section IV-B, stated directly.
#[test]
fn policy_truth_table_matches_section_iv_b() {
    use EvictionPolicy::{Wtbc, Wtsc};
    let dirty_latest = BlockView::Dirty { subblock_dirty: true, value_matches: true };
    let dirty_stale = BlockView::Dirty { subblock_dirty: true, value_matches: false };
    let dirty_other = BlockView::Dirty { subblock_dirty: false, value_matches: false };

    // WTSC: persist iff status bit set AND block dirty.
    assert!(Wtsc.requires_persist(true, dirty_latest));
    assert!(Wtsc.requires_persist(true, dirty_stale));
    assert!(!Wtsc.requires_persist(false, dirty_latest));
    assert!(!Wtsc.requires_persist(true, BlockView::Clean));
    assert!(!Wtsc.requires_persist(true, BlockView::NotPresent));

    // WTBC: persist iff the word's dirty bit is set and the entry still
    // holds the latest (verified) value — status bit irrelevant.
    for status in [false, true] {
        assert!(Wtbc.requires_persist(status, dirty_latest));
        assert!(!Wtbc.requires_persist(status, dirty_stale));
        assert!(!Wtbc.requires_persist(status, dirty_other));
        assert!(!Wtbc.requires_persist(status, BlockView::Clean));
        assert!(!Wtbc.requires_persist(status, BlockView::NotPresent));
    }
}
