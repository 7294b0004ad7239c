//! Discrete-event simulation kernel used by every Thoth substrate.
//!
//! This crate provides the deterministic foundations that the NVM device
//! model, memory controller, and full-system simulator are built on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp with nanosecond
//!   conversions at a configurable clock frequency,
//! * [`CoalescedEventQueue`] — the per-bank NVM completion scoreboard
//!   (one `(cycle, lane bitmask)` entry per cycle; [`HeapEventQueue`] is
//!   its stable-order reference implementation),
//! * [`fastmap`] — deterministic multiplicative hashing ([`FastMap`],
//!   [`FastSet`]) for the simulator's address-keyed hot maps,
//! * [`rng`] — a deterministic, seedable random-number generator so every
//!   experiment in the paper reproduction is bit-for-bit repeatable.
//!
//! # Example
//!
//! ```
//! use thoth_sim_engine::{CoalescedEventQueue, Cycle};
//!
//! let mut q = CoalescedEventQueue::new();
//! q.schedule(Cycle(20), 1);
//! q.schedule(Cycle(10), 0);
//! q.schedule(Cycle(10), 3); // same cycle: merged into one bitmask entry
//!
//! assert_eq!(q.pop_due(Cycle(5)), None);
//! assert_eq!(q.pop_due(Cycle(10)), Some((Cycle(10), 0b1001)));
//! assert_eq!(q.pop(), Some((Cycle(20), 0b10)));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod fastmap;
pub mod rng;

pub use clock::{Cycle, Frequency};
pub use events::{CoalescedEventQueue, HeapEventQueue};
pub use fastmap::{FastMap, FastSet};
pub use rng::DetRng;
