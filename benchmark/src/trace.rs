//! Spans for the traced run, recorded from the benchmark's own files around
//! its calls into each layer (spans inside the program are a later change).
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`.  Spans are kept in
//! memory and written out when the workload ends.  A layer's self time is
//! its span's duration minus what its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one harness-level operation.
    pub op_id: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    next_op: u64,
}

/// Recorder shared between the harness and the storage backends it wraps.
/// Open spans form one stack: the traced run drives every layer from one
/// thread at a time, so "the innermost open span" is the cause of whatever
/// a backend does next.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

/// Total and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a tracer user panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span.  A span opened with no span open starts
    /// a new operation; nested spans inherit the operation's id.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut st = self.state();
            let parent = st.stack.last().copied();
            let op_id = match parent {
                Some(p) => st.spans[p].op_id,
                None => {
                    st.next_op += 1;
                    st.next_op
                }
            };
            let index = st.spans.len();
            let start_ns = self.now_ns();
            st.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent,
                op_id,
            });
            st.stack.push(index);
            index
        };
        let result = f();
        let end_ns = self.now_ns();
        let mut st = self.state();
        st.spans[index].end_ns = end_ns;
        st.stack.retain(|&open| open != index);
        result
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Per-name totals; self time is the span minus the part of it its
    /// direct children cover.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let spans = self
            .spans()
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::obj([("spans", Json::Arr(spans))]).render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_op_ids_and_self_time() {
        let tracer = Tracer::new();
        tracer.span("commit", || {
            tracer.span("sync", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tracer.span("sync", || ());
        });
        tracer.span("commit", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!(spans[1].op_id, spans[0].op_id);
        assert_ne!(spans[3].op_id, spans[0].op_id);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let totals = tracer.totals();
        let (commit, sync) = (totals["commit"], totals["sync"]);
        assert_eq!((commit.count, sync.count), (2, 2));
        assert!(sync.total_ns >= 2_000_000);
        assert_eq!(commit.self_ns, commit.total_ns - sync.total_ns);
    }
}
