//! Deterministic fault-injection seam for the ddos workspace.
//!
//! Hot paths (ingest, the epoch fold, the pass scheduler) consult named
//! *failpoints* — [`check`] calls keyed by the constants in [`names`] —
//! and a test installs a [`FailPlan`] describing which hits of which
//! failpoint should fail. The injected failure surfaces to the
//! caller as an ordinary `Err` through the crate-local error type of
//! whichever layer hit it; nothing here panics or unwinds.
//!
//! Three properties the testkit relies on:
//!
//! * **Deterministic** — a plan is a pure function of its builder calls:
//!   a `fail_nth` arm fires on an exact hit index and a `fail_always`
//!   arm on every hit, so the same plan replays the same schedule on
//!   every run and platform.
//! * **Thread-scoped** — [`FailPlan::install`] installs the plan for
//!   the calling thread only, so concurrently running `cargo test`
//!   threads never observe each other's plans. The returned
//!   [`FailScope`] restores the thread's previous plan on drop
//!   (including on panic). Code that fans work out to scoped worker
//!   threads takes a [`Handoff`] of its own thread's plan and enters it
//!   in each worker, so a plan reaches exactly the operation under test.
//! * **Release-inert** — [`ACTIVE`] is `cfg!(debug_assertions)`; in
//!   release builds [`check`] is a constant-folded `None`, [`Handoff`]
//!   is zero-sized, and the seam costs nothing. `ddos-schema` and
//!   `ddos-analytics` depend on this crate unconditionally, with no
//!   cargo feature, so there is one seam and no stub to drift from it.
//!   The `const` assert below makes "injection compiled out of release
//!   binaries" a compile-time guarantee rather than a convention.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether the injection machinery is live in this build. Constant
/// `false` outside debug builds: every [`check`] call folds to `None`.
pub const ACTIVE: bool = cfg!(debug_assertions);

// Compile-time check (CI builds release binaries through this): if
// `ACTIVE` is ever decoupled from the build profile — e.g. someone
// hard-wires it `true` to "make the soak inject in release" — the
// workspace stops compiling instead of shipping a live seam.
const _: () = assert!(
    ACTIVE == cfg!(debug_assertions),
    "fault injection must be compiled out of release builds"
);

/// Canonical failpoint names. Call sites pass these constants to
/// [`check`]; tests pass them to [`FailPlan`] builders. `ALL` drives
/// the testkit's every-failpoint coverage loop.
pub mod names {
    /// `File::open` + `mmap` in `Dataset::open_with_stats`.
    pub const INGEST_OPEN: &str = "ingest/open";
    /// After the framed v2 header/directory parse, before any frame.
    pub const INGEST_FRAMED_HEADER: &str = "ingest/framed/header";
    /// Per-frame decode body (serial and worker paths), hit once per
    /// frame in frame order on the serial path.
    pub const INGEST_FRAMED_FRAME: &str = "ingest/framed/frame";
    /// Per-chunk CSV parse body (a serial parse counts as one chunk).
    pub const INGEST_CSV_CHUNK: &str = "ingest/csv/chunk";
    /// Before each epoch append of the incremental pipeline — checked
    /// before any state is consumed.
    pub const EPOCH_MERGE: &str = "epoch/merge";
    /// Once per pass in the scheduler, on the scheduling thread in
    /// registry order, before the pass's stage runs.
    pub const SCHEDULER_PASS: &str = "scheduler/pass";

    /// Every failpoint threaded through the workspace.
    pub const ALL: [&str; 6] = [
        INGEST_OPEN,
        INGEST_FRAMED_HEADER,
        INGEST_FRAMED_FRAME,
        INGEST_CSV_CHUNK,
        EPOCH_MERGE,
        SCHEDULER_PASS,
    ];
}

/// One injected failure, returned by [`check`] at the hit a plan arm
/// fired on. Call sites format it into their own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injected {
    /// The failpoint name that fired.
    pub name: String,
    /// Zero-based hit index at which it fired.
    pub hit: u64,
}

impl std::fmt::Display for Injected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.name, self.hit)
    }
}

#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Fail exactly the `n`th hit (0-based), succeed all others.
    Nth(u64),
    /// Fail every hit.
    Always,
}

struct Arm {
    rule: Rule,
    hits: AtomicU64,
}

struct PlanState {
    arms: HashMap<String, Vec<Arm>>,
}

impl PlanState {
    fn decide(&self, name: &str) -> Option<Injected> {
        let arms = self.arms.get(name)?;
        let mut fired = None;
        for arm in arms {
            let hit = arm.hits.fetch_add(1, Ordering::Relaxed);
            let fail = match arm.rule {
                Rule::Nth(n) => hit == n,
                Rule::Always => true,
            };
            if fail && fired.is_none() {
                fired = Some(Injected {
                    name: name.to_string(),
                    hit,
                });
            }
        }
        fired
    }

    fn hits(&self, name: &str) -> u64 {
        self.arms
            .get(name)
            .and_then(|arms| arms.first())
            .map(|a| a.hits.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A schedule-driven fault plan. Build one with the `fail_*` methods,
/// then [`install`](Self::install) it for the duration of the operation
/// under test.
#[derive(Default)]
pub struct FailPlan {
    arms: HashMap<String, Vec<Arm>>,
}

impl FailPlan {
    /// An empty plan. Installing it makes every failpoint succeed while
    /// still counting hits for arms added later.
    pub fn new() -> Self {
        Self::default()
    }

    fn arm(mut self, name: &str, rule: Rule) -> Self {
        self.arms.entry(name.to_string()).or_default().push(Arm {
            rule,
            hits: AtomicU64::new(0),
        });
        self
    }

    /// Fail exactly the `nth` hit (0-based) of `name`. An `nth` of
    /// `u64::MAX` is a practical "never fire, but count hits" probe —
    /// [`FailScope::hits`] then reports how often the seam was
    /// consulted.
    pub fn fail_nth(self, name: &str, nth: u64) -> Self {
        self.arm(name, Rule::Nth(nth))
    }

    /// Fail every hit of `name`.
    pub fn fail_always(self, name: &str) -> Self {
        self.arm(name, Rule::Always)
    }

    /// Install the plan on the calling thread and return the guard that
    /// keeps it active. Other threads are unaffected: a clean run on
    /// another thread never consumes an armed fault. Worker threads of
    /// the operation under test see the plan only through a
    /// [`Handoff`]. In release builds the plan installs but [`check`]
    /// never consults it ([`ACTIVE`]).
    pub fn install(self) -> FailScope {
        let state = Arc::new(PlanState { arms: self.arms });
        let prev = PLAN.with(|p| p.replace(Some(Arc::clone(&state))));
        FailScope {
            state,
            prev,
            _thread: PhantomData,
        }
    }
}

thread_local! {
    static PLAN: RefCell<Option<Arc<PlanState>>> = const { RefCell::new(None) };
}

/// Keeps a [`FailPlan`] active on its thread; dropping it (normally or
/// during a panic unwind) restores the thread's previous plan. Not
/// `Send`: the scope belongs to the thread that installed it.
pub struct FailScope {
    state: Arc<PlanState>,
    prev: Option<Arc<PlanState>>,
    _thread: PhantomData<*const ()>,
}

impl FailScope {
    /// How many times `name` has been consulted under this plan (0 if
    /// the plan has no arm for it — add a `fail_nth(name, u64::MAX)`
    /// probe arm to count without ever firing).
    pub fn hits(&self, name: &str) -> u64 {
        self.state.hits(name)
    }
}

impl Drop for FailScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        PLAN.with(|p| *p.borrow_mut() = prev);
    }
}

/// The calling thread's plan, captured to hand to scoped worker threads:
/// take it with [`Handoff::current`] before spawning and
/// [`enter`](Handoff::enter) it in each worker, so the workers consult
/// the same plan — and the same hit counters — as the thread that
/// installed it. Zero-sized in release builds, where both calls compile
/// to nothing.
pub struct Handoff {
    #[cfg(debug_assertions)]
    plan: Option<Arc<PlanState>>,
}

impl Handoff {
    /// Captures the calling thread's installed plan, if any.
    #[inline]
    pub fn current() -> Handoff {
        Handoff {
            #[cfg(debug_assertions)]
            plan: PLAN.with(|p| p.borrow().clone()),
        }
    }

    /// Installs the captured plan on the calling (worker) thread until
    /// the returned guard drops.
    #[inline]
    pub fn enter(&self) -> Entered {
        Entered {
            #[cfg(debug_assertions)]
            prev: PLAN.with(|p| p.replace(self.plan.clone())),
            _thread: PhantomData,
        }
    }
}

// Release builds must not pay for the hand-off (see `ACTIVE`).
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<Handoff>() == 0);

/// Keeps a [`Handoff`] entered on a worker thread; dropping it restores
/// the worker's previous plan.
pub struct Entered {
    #[cfg(debug_assertions)]
    prev: Option<Arc<PlanState>>,
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        {
            let prev = self.prev.take();
            PLAN.with(|p| *p.borrow_mut() = prev);
        }
    }
}

/// Consult the failpoint `name`. Returns `Some` when the plan installed
/// on (or handed to) the calling thread schedules a failure for this
/// hit; the caller maps it into its own error type and returns `Err`.
/// Constant-folds to `None` in release builds and costs one
/// thread-local read in debug builds with no plan installed.
#[inline]
pub fn check(name: &str) -> Option<Injected> {
    if !ACTIVE {
        return None;
    }
    PLAN.with(|p| p.borrow().as_ref()?.decide(name))
}

// The seam is compiled out of release builds, so these tests only run
// where it is live.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn no_plan_means_no_injection() {
        assert_eq!(check(names::EPOCH_MERGE), None);
    }

    #[test]
    fn nth_arm_fires_exactly_once() {
        let scope = FailPlan::new().fail_nth(names::SCHEDULER_PASS, 2).install();
        let fired: Vec<bool> = (0..5)
            .map(|_| check(names::SCHEDULER_PASS).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, false, false]);
        assert_eq!(scope.hits(names::SCHEDULER_PASS), 5);
        // Other names are untouched.
        assert_eq!(check(names::INGEST_OPEN), None);
    }

    #[test]
    fn always_arm_reports_hit_index() {
        let _scope = FailPlan::new().fail_always(names::INGEST_OPEN).install();
        let first = check(names::INGEST_OPEN).expect("always arm must fire");
        let second = check(names::INGEST_OPEN).expect("always arm must fire");
        assert_eq!((first.hit, second.hit), (0, 1));
        assert_eq!(first.name, names::INGEST_OPEN);
        assert!(first.to_string().contains("injected fault at ingest/open"));
    }

    #[test]
    fn scope_drop_clears_the_plan() {
        {
            let _scope = FailPlan::new().fail_always(names::EPOCH_MERGE).install();
            assert!(check(names::EPOCH_MERGE).is_some());
        }
        assert_eq!(check(names::EPOCH_MERGE), None);
    }

    #[test]
    fn plans_stay_on_their_thread_unless_handed_off() {
        let scope = FailPlan::new().fail_always(names::EPOCH_MERGE).install();
        std::thread::scope(|s| {
            // A thread of its own sees no plan...
            s.spawn(|| assert_eq!(check(names::EPOCH_MERGE), None));
            // ...until it enters a hand-off of this thread's plan, and
            // only while the entered guard lives.
            let handoff = Handoff::current();
            s.spawn(move || {
                {
                    let _plan = handoff.enter();
                    assert!(check(names::EPOCH_MERGE).is_some());
                }
                assert_eq!(check(names::EPOCH_MERGE), None);
            });
        });
        // The worker's hit counted on the shared plan.
        assert_eq!(scope.hits(names::EPOCH_MERGE), 1);
    }

    #[test]
    fn nested_scopes_restore_the_outer_plan() {
        let _outer = FailPlan::new().fail_always(names::INGEST_OPEN).install();
        {
            let _inner = FailPlan::new().install();
            assert_eq!(check(names::INGEST_OPEN), None);
        }
        assert!(check(names::INGEST_OPEN).is_some());
    }

    #[test]
    fn all_lists_every_name_once() {
        let mut names: Vec<&str> = names::ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), super::names::ALL.len());
    }
}
