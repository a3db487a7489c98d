//! The benchmark's own span recorder.
//!
//! Spans are taken only around calls the harness makes into a layer's
//! public functions; the program under test carries no timer for this.
//! A disabled recorder runs the wrapped call and reads no clock, so
//! untraced iterations measure the program alone.

use rpclens_obs::json::Json;
use std::time::Instant;

/// One recorded call: name, start, end and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store, written out when the benchmark ends.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Index the next recorded span will get; spans recorded inside a
    /// span with id `root` occupy `root..mark()` once it has closed.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans with ids in `range`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> &[Span] {
        &self.spans[range]
    }

    /// Wall time of span `root` not covered by its direct children.
    pub fn self_ms(&self, root: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .skip(root + 1)
            .filter(|s| s.parent == Some(root))
            .map(Span::ms)
            .sum();
        self.spans[root].ms() - covered
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// All spans as JSON rows with their self time.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Uint(id as u128)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Uint(u128::from(s.start_ns))),
                        ("end_ns", Json::Uint(u128::from(s.end_ns))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Uint(p as u128)),
                        ),
                        ("self_ms", Json::Float(self.self_ms(id))),
                    ])
                })
                .collect(),
        )
    }
}
