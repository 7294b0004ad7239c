//! Property tests: the deterministic RNG honours its contracts and cycle
//! arithmetic is total (deterministic thoth-testkit cases).

use thoth_sim_engine::{Cycle, DetRng};
use thoth_testkit::check;

#[test]
fn rng_gen_range_is_always_in_bounds() {
    check(128, |g| {
        let seed = g.u64();
        let bound = g.range(1, 1_000_000);
        let mut r = DetRng::seed_from(seed);
        for _ in 0..100 {
            assert!(r.gen_range(bound) < bound);
        }
    });
}

#[test]
fn rng_fork_streams_are_reproducible() {
    check(128, |g| {
        let seed = g.u64();
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..16 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    });
}

#[test]
fn cycle_ordering_is_total() {
    check(256, |g| {
        let (a, b) = (g.u64(), g.u64());
        let (ca, cb) = (Cycle(a), Cycle(b));
        assert_eq!(ca < cb, a < b);
        assert_eq!(ca.max(cb).0, a.max(b));
        assert_eq!(ca.saturating_since(cb), a.saturating_sub(b));
    });
}
