//! Property tests: WPQ durability, coalescing and forwarding under
//! random insert streams (deterministic thoth-testkit cases).

use std::collections::HashMap;
use thoth_memctrl::{Wpq, WpqConfig};
use thoth_nvm::{NvmConfig, NvmDevice, WriteCategory};
use thoth_sim_engine::Cycle;
use thoth_testkit::{check, Gen};

fn arb_writes(g: &mut Gen) -> Vec<(u64, u8)> {
    g.vec_of(1, 200, |g| (g.below(24), g.u8()))
}

/// Durability: after drain_all, NVM holds the *last* value written to
/// every address, no matter how inserts coalesced or stalled.
#[test]
fn drain_all_persists_newest_values() {
    check(64, |g| {
        let writes = arb_writes(g);
        let cap = g.range_usize(2, 16);
        let mut nvm = NvmDevice::new(NvmConfig::table_i(128));
        let mut wpq = Wpq::new(WpqConfig::with_capacity(cap));
        let mut last: HashMap<u64, u8> = HashMap::new();
        let mut t = Cycle(0);
        for (slot, v) in writes {
            let addr = slot * 128;
            t = wpq.insert(t, addr, Some(vec![v; 128]), WriteCategory::Data, &mut nvm);
            t += 10;
            last.insert(addr, v);
        }
        wpq.drain_all(t, &mut nvm);
        for (addr, v) in last {
            assert_eq!(nvm.read_block(addr), vec![v; 128]);
        }
    });
}

/// Crash durability: the ADR flush must leave NVM with the newest
/// value per address too.
#[test]
fn crash_flush_persists_newest_values() {
    check(64, |g| {
        let writes = arb_writes(g);
        let mut nvm = NvmDevice::new(NvmConfig::table_i(128));
        let mut wpq = Wpq::new(WpqConfig::with_capacity(8));
        let mut last: HashMap<u64, u8> = HashMap::new();
        let mut t = Cycle(0);
        for (slot, v) in writes {
            let addr = slot * 128;
            t = wpq.insert(t, addr, Some(vec![v; 128]), WriteCategory::Data, &mut nvm);
            last.insert(addr, v);
        }
        wpq.crash_flush(&mut nvm);
        for (addr, v) in last {
            assert_eq!(nvm.read_block(addr)[0], v);
        }
    });
}

/// Forwarding: right after an insert, `forward` must see the newest
/// pending payload or the device must already hold it.
#[test]
fn forward_or_device_always_has_newest() {
    check(64, |g| {
        let writes = arb_writes(g);
        let mut nvm = NvmDevice::new(NvmConfig::table_i(128));
        let mut wpq = Wpq::new(WpqConfig::with_capacity(8));
        let mut t = Cycle(0);
        for (slot, v) in writes {
            let addr = slot * 128;
            t = wpq.insert(t, addr, Some(vec![v; 128]), WriteCategory::Data, &mut nvm);
            let seen = wpq
                .forward(addr)
                .map_or_else(|| nvm.read_block(addr)[0], |p| p[0]);
            assert_eq!(seen, v, "stale read after insert");
        }
    });
}

/// Occupancy never exceeds capacity; ACK cycles never go backwards
/// for a single issuing stream.
#[test]
fn occupancy_bounded_and_acks_monotonic() {
    check(64, |g| {
        let writes = arb_writes(g);
        let cap = g.range_usize(1, 12);
        let mut nvm = NvmDevice::new(NvmConfig::table_i(128));
        let mut wpq = Wpq::new(WpqConfig::with_capacity(cap));
        let mut t = Cycle(0);
        for (slot, v) in writes {
            let ack = wpq.insert(t, slot * 128, Some(vec![v; 128]), WriteCategory::Data, &mut nvm);
            assert!(ack >= t, "ACK in the past");
            assert!(wpq.occupancy() <= cap);
            t = ack;
        }
    });
}
