//! Deterministic crash-point enumeration and injection.
//!
//! A [`CrashPlan`] names one point in a run — "power fails right after the
//! Nth event of this kind" — and [`CrashControl`] is the counter the
//! machine taps as those events happen. Taps only *observe*: the
//! transition in flight (a block store, a PUB append, a metadata persist)
//! always completes atomically, and the replay loop stops starting new
//! work once the control reports it fired. That mirrors real hardware,
//! where the ADR domain is a set of atomic acceptance points, not an
//! arbitrary instruction boundary.
//!
//! The same type runs in *observer* mode (no plan) to enumerate how many
//! crash points of each kind a workload exposes, which is what the
//! crash-sweep engine samples from.

/// The kinds of events a crash can be anchored to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashSiteKind {
    /// After the Nth persistent block store completed (every `store_block`,
    /// including re-encryptions) — the finest-grained, mid-transaction
    /// anchor.
    Persist,
    /// After the Nth `Store` trace operation completed all its blocks —
    /// between stores of a transaction.
    Store,
    /// After the Nth packed PUB block entered the persistence path
    /// (mid-PUB-append pressure: eviction work that would follow is cut).
    PubAppend,
    /// After the Nth metadata block persist issued by PUB eviction — the
    /// mid-metadata-merge window.
    MetaPersist,
}

impl CrashSiteKind {
    /// Every kind, in a fixed order.
    pub const ALL: [CrashSiteKind; 4] = [
        CrashSiteKind::Persist,
        CrashSiteKind::Store,
        CrashSiteKind::PubAppend,
        CrashSiteKind::MetaPersist,
    ];

    /// Dense index for per-kind arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CrashSiteKind::Persist => 0,
            CrashSiteKind::Store => 1,
            CrashSiteKind::PubAppend => 2,
            CrashSiteKind::MetaPersist => 3,
        }
    }

    /// Stable lowercase tag (JSON, reproduce commands).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            CrashSiteKind::Persist => "persist",
            CrashSiteKind::Store => "store",
            CrashSiteKind::PubAppend => "pub-append",
            CrashSiteKind::MetaPersist => "meta-persist",
        }
    }

    /// Parses a [`Self::tag`] back.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        CrashSiteKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// One deterministic crash point: power fails immediately after the
/// `nth` (0-based) event of kind `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrashPlan {
    /// Event kind the crash is anchored to.
    pub site: CrashSiteKind,
    /// 0-based ordinal of the anchoring event.
    pub nth: u64,
}

impl CrashPlan {
    /// Stable `kind:N` label (JSON, reproduce commands).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}:{}", self.site.tag(), self.nth)
    }

    /// Parses a [`Self::label`] back.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        let (tag, nth) = label.rsplit_once(':')?;
        Some(CrashPlan {
            site: CrashSiteKind::from_tag(tag)?,
            nth: nth.parse().ok()?,
        })
    }
}

/// Per-kind totals of crash-anchor events seen in a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSiteCounts(pub [u64; 4]);

impl CrashSiteCounts {
    /// Events of `kind` observed.
    #[must_use]
    pub fn of(&self, kind: CrashSiteKind) -> u64 {
        self.0[kind.index()]
    }
}

/// The crash trigger the machine taps during a run.
#[derive(Debug, Clone)]
pub struct CrashControl {
    plan: Option<CrashPlan>,
    counts: CrashSiteCounts,
    fired: bool,
    /// Execution-order log of durably-ACKed operations for an external
    /// oracle; only armed controls record (an observer run has no oracle).
    log: Vec<LoggedOp>,
}

impl CrashControl {
    /// Armed: fires at the plan's event.
    #[must_use]
    pub fn armed(plan: CrashPlan) -> Self {
        CrashControl {
            plan: Some(plan),
            ..Self::observer()
        }
    }

    /// Observer: never fires, only counts (crash-point enumeration).
    #[must_use]
    pub fn observer() -> Self {
        CrashControl {
            plan: None,
            counts: CrashSiteCounts::default(),
            fired: false,
            log: Vec::new(),
        }
    }

    /// Logs one durably-ACKed operation (armed controls only).
    pub(crate) fn log(&mut self, op: LoggedOp) {
        if self.plan.is_some() {
            self.log.push(op);
        }
    }

    /// One completed persistent store: logs it and taps the
    /// [`CrashSiteKind::Persist`] anchor. Returns [`Self::fired`].
    pub(crate) fn persist(&mut self, op: LoggedOp) -> bool {
        self.log(op);
        self.tap(CrashSiteKind::Persist);
        self.fired
    }

    /// Takes the durably-ACKed operation log recorded so far.
    pub(crate) fn take_log(&mut self) -> Vec<LoggedOp> {
        std::mem::take(&mut self.log)
    }

    /// Records one event of `site`; arms the crash if it is the planned one.
    pub fn tap(&mut self, site: CrashSiteKind) {
        let seen = self.counts.0[site.index()];
        self.counts.0[site.index()] = seen + 1;
        if let Some(plan) = self.plan {
            if !self.fired && plan.site == site && plan.nth == seen {
                self.fired = true;
            }
        }
    }

    /// `true` once the planned event happened: no new work may start.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The plan this control was armed with, if any.
    #[must_use]
    pub fn plan(&self) -> Option<CrashPlan> {
        self.plan
    }

    /// Events observed so far, per kind.
    #[must_use]
    pub fn counts(&self) -> CrashSiteCounts {
        self.counts
    }
}

/// One durably-ACKed operation, logged in execution order so an external
/// oracle can replay what the machine promised to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedOp {
    /// Core `core` completed a persistent store to data block `block`
    /// (block index, not byte address) — ACKed, hence durable.
    Store {
        /// Issuing core.
        core: usize,
        /// Data-block index.
        block: u64,
    },
    /// Core `core` committed its open transaction: every store logged for
    /// it since its previous commit is now *transactionally* committed.
    Commit {
        /// Committing core.
        core: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_the_nth_event() {
        let plan = CrashPlan { site: CrashSiteKind::Persist, nth: 2 };
        let mut c = CrashControl::armed(plan);
        c.tap(CrashSiteKind::Persist);
        c.tap(CrashSiteKind::Store); // other kinds don't advance it
        c.tap(CrashSiteKind::Persist);
        assert!(!c.fired());
        c.tap(CrashSiteKind::Persist);
        assert!(c.fired());
        assert_eq!(c.counts().of(CrashSiteKind::Persist), 3);
        assert_eq!(c.counts().of(CrashSiteKind::Store), 1);
    }

    #[test]
    fn observer_counts_without_firing() {
        let mut c = CrashControl::observer();
        for _ in 0..10 {
            c.tap(CrashSiteKind::PubAppend);
        }
        assert!(!c.fired());
        assert_eq!(c.counts().of(CrashSiteKind::PubAppend), 10);
    }

    #[test]
    fn labels_round_trip() {
        for kind in CrashSiteKind::ALL {
            let p = CrashPlan { site: kind, nth: 17 };
            assert_eq!(CrashPlan::parse(&p.label()), Some(p));
        }
        assert_eq!(CrashPlan::parse("bogus:1"), None);
        assert_eq!(CrashPlan::parse("persist"), None);
    }
}
