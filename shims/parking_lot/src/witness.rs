//! Runtime lockdep witness (compiled only with `--cfg taurus_lock_witness`).
//!
//! Every `Mutex`/`RwLock` in the workspace is tagged with its
//! **construction site** (`file:line`, captured by `#[track_caller]` on
//! `new`), which names its *lock class*: the 64 pool stripes built in one
//! loop share one class, every `SliceReplica` mutex shares another, and so
//! on. Each thread keeps a stack of the classes it currently holds. Four
//! rules are checked against it:
//!
//! * **lock order** — every blocking acquisition folds `(held → acquired)`
//!   pairs into one global order graph and checks whether the *reverse*
//!   direction is already reachable; the first such inversion of a class
//!   pair is reported with both acquisition chains (the acquiring thread's
//!   current stack and the held-stack snapshot that established the
//!   conflicting edge);
//! * **leaf locks** — nothing may be acquired while a class built with
//!   `Mutex::new_leaf` is held;
//! * **fabric calls** — [`assert_no_lock_held`] (called on entry to every
//!   fabric RPC) finds the held stack empty, apart from what the innermost
//!   open `held_across_calls` scope snapshotted;
//! * **condvar pairing** — a condvar waits with mutexes of one class only,
//!   the class of the first mutex it waited with.
//!
//! A finding is queued for [`take_reports`] (which
//! `taurus_common::invariants::lock_witness_sweep` folds into the
//! `lock-order-acyclic` runtime invariant) and panics on the thread that
//! made it, so the test that hits it fails. A thread already unwinding only
//! queues.
//!
//! Scope notes:
//!
//! * `try_lock`/`try_read`/`try_write` acquisitions join the held stack and
//!   contribute edges (another thread may *block* on the same class), but
//!   never fire an inversion themselves — a try-acquire cannot deadlock at
//!   its own site. Under a leaf they still fire: the leaf rule is about
//!   nesting, not blocking.
//! * Same-class nesting (two stripes from one construction line) is not
//!   order-checked; distinguishing instances would need per-object identity
//!   and the workspace orders same-class acquisitions by index.
//! * The witness's own bookkeeping lives on `std::sync` primitives, so it
//!   never re-enters itself.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::Location;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex as StdMutex;

pub(crate) type ClassId = u32;

/// Construction-site tag embedded in every `Mutex`/`RwLock`. The class id
/// is interned on first use and cached (0 = not yet interned).
pub(crate) struct LockTag {
    loc: &'static Location<'static>,
    leaf: bool,
    cached: AtomicU32,
}

impl LockTag {
    pub(crate) const fn new(loc: &'static Location<'static>, leaf: bool) -> LockTag {
        LockTag {
            loc,
            leaf,
            cached: AtomicU32::new(0),
        }
    }

    pub(crate) fn class(&self) -> ClassId {
        let cached = self.cached.load(Ordering::Relaxed);
        if cached != 0 {
            return cached - 1;
        }
        let id = intern(self.loc, self.leaf);
        self.cached.store(id + 1, Ordering::Relaxed);
        id
    }
}

#[derive(Default)]
struct State {
    ids: HashMap<(&'static str, u32, u32), ClassId>,
    /// Class id → `file:line` of the construction site.
    names: Vec<String>,
    /// Classes built with `Mutex::new_leaf`.
    leaves: HashSet<ClassId>,
    /// Observed order graph: held class → classes acquired under it.
    edges: HashMap<ClassId, HashSet<ClassId>>,
    /// Held-stack snapshot (by name) that first established each edge.
    first_seen: HashMap<(ClassId, ClassId), Vec<String>>,
    /// Inversions already reported, keyed by the offending (held, acquired)
    /// pair — report each conflict once, not once per occurrence.
    reported: HashSet<(ClassId, ClassId)>,
    reports: Vec<String>,
}

impl State {
    fn chain(&self, classes: &[ClassId]) -> String {
        let names: Vec<&str> = classes
            .iter()
            .map(|&c| self.names[c as usize].as_str())
            .collect();
        names.join(" -> ")
    }
}

static STATE: StdMutex<Option<State>> = StdMutex::new(None);

thread_local! {
    static HELD: RefCell<Vec<ClassId>> = const { RefCell::new(Vec::new()) };
    /// Open `held_across_calls` scopes, innermost last: each one's reason
    /// and the held stack it snapshotted.
    static SPANS: RefCell<Vec<(&'static str, Vec<ClassId>)>> = const { RefCell::new(Vec::new()) };
}

fn with<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut st = match STATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    f(st.get_or_insert_with(State::default))
}

fn intern(loc: &'static Location<'static>, leaf: bool) -> ClassId {
    with(|st| {
        let key = (loc.file(), loc.line(), loc.column());
        if let Some(&id) = st.ids.get(&key) {
            return id;
        }
        let id = st.names.len() as ClassId;
        st.names.push(format!("{}:{}", loc.file(), loc.line()));
        st.ids.insert(key, id);
        if leaf {
            st.leaves.insert(id);
        }
        id
    })
}

/// Queues `report` and fails the calling thread with it.
fn fire(report: String) {
    with(|st| st.reports.push(report.clone()));
    if !std::thread::panicking() {
        panic!("{report}");
    }
}

/// Records one acquisition: leaf check, edge insertion, inversion check
/// (blocking acquisitions only), then pushes the class onto the thread's
/// held stack. A finding fires before the class is pushed.
pub(crate) fn acquired(class: ClassId, blocking: bool) {
    let held: Vec<ClassId> = HELD.with(|h| h.borrow().clone());
    if !held.is_empty() {
        let finding = with(|st| {
            let mut finding = held.iter().find(|c| st.leaves.contains(c)).map(|&leaf| {
                format!(
                    "lock under a leaf: acquiring [{}] while holding leaf [{}]\n  \
                     this thread's chain: {} -> {}",
                    st.names[class as usize],
                    st.names[leaf as usize],
                    st.chain(&held),
                    st.names[class as usize],
                )
            });
            let held_names: Vec<String> =
                held.iter().map(|&c| st.names[c as usize].clone()).collect();
            for &h in &held {
                if h == class {
                    continue;
                }
                let fresh = st.edges.entry(h).or_default().insert(class);
                if fresh {
                    st.first_seen.insert((h, class), held_names.clone());
                }
                if blocking && finding.is_none() && !st.reported.contains(&(h, class)) {
                    if let Some(path) = reverse_path(st, class, h) {
                        st.reported.insert((h, class));
                        finding = Some(format_inversion(st, h, class, &held, &path));
                    }
                }
            }
            finding
        });
        if let Some(report) = finding {
            fire(report);
        }
    }
    HELD.with(|h| h.borrow_mut().push(class));
}

/// Removes the most recent occurrence of `class` from the held stack
/// (guards may drop out of acquisition order).
pub(crate) fn released(class: ClassId) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&c| c == class) {
            held.remove(pos);
        }
    });
}

/// Fires unless every lock the thread holds was already held when the
/// innermost open span began.
pub(crate) fn assert_no_lock_held() {
    let (unexempt, span) = HELD.with(|h| {
        let mut held = h.borrow().clone();
        if held.is_empty() {
            return (held, None);
        }
        let span = SPANS.with(|s| {
            let spans = s.borrow();
            let (reason, snapshot) = spans.last()?;
            for c in snapshot {
                if let Some(pos) = held.iter().position(|x| x == c) {
                    held.remove(pos);
                }
            }
            Some(*reason)
        });
        (held, span)
    });
    if unexempt.is_empty() {
        return;
    }
    let report = with(|st| {
        let scope = match span {
            Some(reason) => format!(
                "\n  taken after the held_across_calls scope opened, whose proof covers \
                 only what was held then: \"{reason}\""
            ),
            None => String::new(),
        };
        format!(
            "lock held across a fabric call: [{}]{scope}",
            st.chain(&unexempt)
        )
    });
    fire(report);
}

/// Opens a `held_across_calls` scope over the current held stack; returns
/// the depth to close it at.
pub(crate) fn open_span(reason: &'static str) -> usize {
    assert!(
        !reason.trim().is_empty(),
        "held_across_calls needs the proof that no handler can reach the held locks"
    );
    let snapshot = HELD.with(|h| h.borrow().clone());
    SPANS.with(|s| {
        let mut spans = s.borrow_mut();
        spans.push((reason, snapshot));
        spans.len() - 1
    })
}

pub(crate) fn close_span(depth: usize) {
    SPANS.with(|s| s.borrow_mut().truncate(depth));
}

/// Pairs a condvar (`slot`: 0 = not yet paired, else class + 1) with the
/// class of the mutex it waits with; fires on a second class.
pub(crate) fn condvar_wait(slot: &AtomicU32, class: ClassId) {
    let Err(first) = slot.compare_exchange(0, class + 1, Ordering::Relaxed, Ordering::Relaxed)
    else {
        return;
    };
    if first == class + 1 {
        return;
    }
    let report = with(|st| {
        format!(
            "condvar waited with a foreign mutex: [{}], but it was first waited with [{}]",
            st.names[class as usize],
            st.names[first as usize - 1],
        )
    });
    fire(report);
}

/// BFS: is `to` reachable from `from` in the order graph? Returns the
/// class path `from .. to` if so.
fn reverse_path(st: &State, from: ClassId, to: ClassId) -> Option<Vec<ClassId>> {
    let mut prev: HashMap<ClassId, ClassId> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: HashSet<ClassId> = HashSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        if let Some(next) = st.edges.get(&n) {
            for &m in next {
                if seen.insert(m) {
                    prev.insert(m, n);
                    queue.push_back(m);
                }
            }
        }
    }
    None
}

fn format_inversion(
    st: &State,
    held: ClassId,
    acquiring: ClassId,
    held_stack: &[ClassId],
    path: &[ClassId],
) -> String {
    let name = |c: ClassId| st.names[c as usize].as_str();
    let first_hop = st
        .first_seen
        .get(&(path[0], path[1]))
        .map(|v| v.join(" -> "))
        .unwrap_or_default();
    format!(
        "lock-order inversion: acquiring [{}] while holding [{}]\n  \
         this thread's chain: {} -> {}\n  \
         conflicting established order: {} (first seen with held stack: {})",
        name(acquiring),
        name(held),
        st.chain(held_stack),
        name(acquiring),
        st.chain(path),
        first_hop,
    )
}

/// Drains every finding recorded so far (process-global).
pub fn take_reports() -> Vec<String> {
    with(|st| std::mem::take(&mut st.reports))
}
