//! Spans and counters recorded by the traced run.
//!
//! A span is a name, a start and end (nanoseconds since the tracer was
//! made), the span that caused it, and the unit of work — the site or pass
//! — it belongs to. Spans are kept in memory and written out when the run
//! ends. Spans opened on one thread nest through a per-thread stack; a span
//! opened on a thread with nothing open (a survey worker calling a storage
//! decorator, say) takes the tracer's current root as its parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the tracer (never 0).
    pub id: u64,
    /// Layer-qualified name, such as `browser.load`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The enclosing span's id, 0 for none.
    pub parent: u64,
    /// The site index or pass number the span belongs to.
    pub unit: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span and counter store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

/// An open span; recorded when dropped (or [`Guard::end`]ed).
#[must_use = "a span is recorded when its guard drops"]
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    name: &'static str,
    start: u64,
    parent: u64,
    unit: u64,
    root: bool,
}

impl Guard<'_> {
    /// Close the span now.
    pub fn end(self) {}
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        if self.root {
            self.tracer.root.store(self.parent, Ordering::Relaxed);
        }
        let span = Span {
            id: self.id,
            name: self.name,
            start: self.start,
            end,
            parent: self.parent,
            unit: self.unit,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, unit: u64, root: bool) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.root.load(Ordering::Relaxed));
            open.push(id);
            parent
        });
        if root {
            self.root.store(id, Ordering::Relaxed);
        }
        Guard {
            tracer: self,
            id,
            name,
            start: self.now(),
            parent,
            unit,
            root,
        }
    }

    /// Open a span under the innermost span open on this thread.
    pub fn span(&self, name: &'static str, unit: u64) -> Guard<'_> {
        self.open(name, unit, false)
    }

    /// Open a span that also parents spans opened on other threads while
    /// it is open (the survey's worker threads call back into decorators).
    pub fn root_span(&self, name: &'static str, unit: u64) -> Guard<'_> {
        self.open(name, unit, true)
    }

    /// Add `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        if let Ok(mut c) = self.counters.lock() {
            *c.entry(name).or_default() += n;
        }
    }

    /// A counter's value (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .map(|c| c.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Every span recorded so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time in seconds of every span named `name`: its duration minus
    /// the part of its interval that its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let covered = children.get(&s.id).map_or(0, |c| union_len(c));
                (s.end - s.start).saturating_sub(covered) as f64 / 1e9
            })
            .collect()
    }

    /// The spans and counters as JSON, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"unit\": {}}}",
                s.id, s.name, s.start, s.end, s.parent, s.unit
            );
            out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("], \"counters\": {");
        if let Ok(c) = self.counters.lock() {
            let body: Vec<String> = c.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            out.push_str(&body.join(", "));
        }
        out.push_str("}}\n");
        out
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&[]), 0);
    }

    #[test]
    fn nesting_and_self_time() {
        let t = Tracer::default();
        {
            let _outer = t.span("outer", 0);
            let inner = t.span("inner", 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            inner.end();
        }
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        let own = t.self_times("outer")[0];
        assert!(own < outer.secs() - inner.secs() + 1e-6);
    }

    #[test]
    fn other_threads_hang_off_the_root() {
        let t = Tracer::default();
        let root = t.root_span("pass", 1);
        std::thread::scope(|s| {
            s.spawn(|| t.span("store.op", 1).end());
        });
        root.end();
        let spans = t.spans();
        let pass = spans.iter().find(|s| s.name == "pass").expect("pass");
        let op = spans.iter().find(|s| s.name == "store.op").expect("op");
        assert_eq!(op.parent, pass.id);
    }
}
