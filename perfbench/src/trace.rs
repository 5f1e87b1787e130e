//! In-memory span and count recorder for the traced run.
//!
//! Spans are recorded at the benchmark's own call sites, around calls into
//! the layers' public functions. Each span keeps its name, start, end,
//! parent and request id; counts are recorded at the same call sites. Both
//! stay in memory until [`finish`] takes them at the end of the run.
//!
//! With tracing off (the default) [`span`] and [`count`] cost one atomic
//! load, so the untraced run that measures the end-to-end metrics runs the
//! same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id shared by all spans of one `serve` request, else 0.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<String, u64>,
}

/// A span that a worker thread's spans should nest under.
#[derive(Debug, Clone, Copy)]
pub struct Parent {
    id: u64,
    request: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn spans() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn counts() -> &'static Mutex<BTreeMap<String, u64>> {
    static COUNTS: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<Parent>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn tracing on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<Open>);

struct Open {
    me: Parent,
    parent: u64,
    name: String,
    start_ns: u64,
}

impl Guard {
    /// This span as the parent of spans opened on other threads.
    pub fn as_parent(&self) -> Option<Parent> {
        self.0.as_ref().map(|o| o.me)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|p| p.id == open.me.id) {
                stack.remove(pos);
            }
        });
        let span = Span {
            id: open.me.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            request: open.me.request,
        };
        if let Ok(mut all) = spans().lock() {
            all.push(span);
        }
    }
}

fn open(name: &str, parent: Option<Parent>, request: Option<u64>) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = parent.or_else(|| STACK.with(|s| s.borrow().last().copied()));
    let me = Parent {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        request: request.or(parent.map(|p| p.request)).unwrap_or(0),
    };
    STACK.with(|s| s.borrow_mut().push(me));
    Guard(Some(Open {
        me,
        parent: parent.map_or(0, |p| p.id),
        name: name.to_string(),
        start_ns: now_ns(),
    }))
}

/// Open a span under the innermost open span of this thread.
pub fn span(name: &str) -> Guard {
    open(name, None, None)
}

/// Open a span under `parent`, which may belong to another thread.
pub fn span_under(name: &str, parent: Option<Parent>) -> Guard {
    open(name, parent, None)
}

/// Open the root span of one request; spans opened inside it share `id`.
pub fn span_request(name: &str, id: u64) -> Guard {
    open(name, None, Some(id))
}

/// Run `f` inside a span named `name`.
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Add `n` to the count named `name`.
pub fn count(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    if let Ok(mut all) = counts().lock() {
        *all.entry(name.to_string()).or_insert(0) += n;
    }
}

/// Take everything recorded so far.
pub fn finish() -> Trace {
    Trace {
        spans: std::mem::take(&mut *spans().lock().expect("span store lock")),
        counts: std::mem::take(&mut *counts().lock().expect("count store lock")),
    }
}

/// Self time of every span, in the order of `spans`: its duration minus
/// the part of its interval that its child spans cover. Children on
/// several threads may overlap; the covered part is their union.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of self times and number of spans per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    by_key(spans, |s| Some(s.name.clone()))
}

/// Sum of self times and number of spans per `(replay, span name)`, for
/// the spans inside a replay: `replay` is the outermost `replay.*` span
/// around them.
pub fn by_replay(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let index: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    by_key(spans, |s| {
        let mut outermost = None;
        let mut at = index.get(&s.parent);
        while let Some(p) = at {
            if p.name.starts_with("replay.") {
                outermost = Some(p.name.as_str());
            }
            at = index.get(&p.parent);
        }
        outermost.map(|r| format!("{r} {}", s.name))
    })
}

fn by_key(spans: &[Span], key: impl Fn(&Span) -> Option<String>) -> BTreeMap<String, (u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if let Some(k) = key(s) {
            let e = out.entry(k).or_insert((0, 0));
            e.0 += self_ns;
            e.1 += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // two overlapping children (another thread) cover 20..70 of 0..100
        let spans = vec![s(1, 0, 0, 100), s(2, 1, 20, 60), s(3, 1, 40, 70)];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 30]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![s(1, 0, 10, 20), s(2, 1, 5, 15)];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }
}
