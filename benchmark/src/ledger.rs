//! The per-layer cost ledger: in-memory spans around each call into a
//! layer, plus the counts taken at the same boundaries.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions; spans inside the crates are a
//! later change. A span's *self* time is its duration minus the part
//! its child spans cover, so a root `batch` span's self time is exactly
//! what no layer accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Counts are taken over the first this-many batches of a traced run,
/// so that they repeat exactly for a seed however fast the host is. Raw
/// spans are kept (and written to the trace file) for the same batches;
/// later batches only add to the per-name totals.
pub const EXACT_BATCHES: u64 = 256;

/// One finished span, as written to the trace file.
struct Span {
    /// Layer-qualified name (`txn.validate`, `sim.run`, …).
    name: &'static str,
    /// Start and end, in ns since the ledger was created.
    start_ns: u64,
    end_ns: u64,
    /// Index (in the trace file's span list) of the span that caused
    /// this one.
    parent: Option<usize>,
    /// The batch it belongs to; `None` for engine-less probes.
    batch: Option<u64>,
}

/// Accumulated time of every span that shared a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus what child spans covered.
    pub self_ns: u64,
    /// How many spans.
    pub count: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    kept_at: Option<usize>,
}

/// Handle returned by [`Ledger::begin`]; pass it back to
/// [`Ledger::end`].
#[derive(Debug)]
#[must_use = "a span that is never ended is never recorded"]
pub struct SpanToken(bool);

/// Spans and counts of one run.
pub struct Ledger {
    /// Run-level switch: a `--trace 0` run records nothing at all.
    tracing: bool,
    /// Round-level switch: traced runs alternate rounds with spans on
    /// and off, so the span overhead is measured inside the one run.
    spans_on: bool,
    origin: Instant,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotal>,
    kept: Vec<Span>,
    batch: Option<u64>,
    counts: BTreeMap<&'static str, u64>,
    exact: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// A ledger for a traced (`tracing`) or untraced run.
    pub fn new(tracing: bool) -> Ledger {
        Ledger {
            tracing,
            spans_on: tracing,
            origin: Instant::now(),
            open: Vec::with_capacity(8),
            totals: BTreeMap::new(),
            // Reserved up front so recording a span never allocates
            // inside a window whose allocations are being counted.
            kept: Vec::with_capacity(if tracing {
                16 * EXACT_BATCHES as usize
            } else {
                0
            }),
            batch: None,
            counts: BTreeMap::new(),
            exact: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off for the coming round (no effect
    /// on an untraced run).
    pub fn set_spans(&mut self, on: bool) {
        self.spans_on = self.tracing && on;
    }

    /// Names the batch the coming spans and counts belong to (`None`
    /// while probing).
    pub fn set_batch(&mut self, batch: Option<u64>) {
        self.batch = batch;
    }

    /// Whether the current batch falls in the exact-count window.
    pub fn in_exact_window(&self) -> bool {
        self.tracing && self.batch.is_none_or(|b| b < EXACT_BATCHES)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        if !self.spans_on {
            return SpanToken(false);
        }
        let keep =
            self.batch.is_none_or(|b| b < EXACT_BATCHES) && self.kept.len() < self.kept.capacity();
        let kept_at = keep.then(|| {
            let parent = self.open.last().and_then(|o| o.kept_at);
            self.kept.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                batch: self.batch,
            });
            self.kept.len() - 1
        });
        let start_ns = self.now_ns();
        self.open.push(Open {
            name,
            start_ns,
            children_ns: 0,
            kept_at,
        });
        SpanToken(true)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, token: SpanToken) {
        if !token.0 {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("end() pairs with a begin()");
        let dur = end_ns - open.start_ns;
        let total = self.totals.entry(open.name).or_default();
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.children_ns);
        total.count += 1;
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += dur;
        }
        if let Some(at) = open.kept_at {
            self.kept[at].start_ns = open.start_ns;
            self.kept[at].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.begin(name);
        let out = f();
        self.end(token);
        out
    }

    /// Adds `n` to counter `name` (traced runs only). The same call
    /// feeds two totals: the one that pairs with span times (so it
    /// grows only while spans are on), and, inside the exact window,
    /// the exact one (spans on or off, so it depends on the seed only).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.spans_on {
            *self.counts.entry(name).or_default() += n;
        }
        if self.in_exact_window() {
            *self.exact.entry(name).or_default() += n;
        }
    }

    /// Total of counter `name` over the rounds that recorded spans.
    pub fn total(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Exact-window total of counter `name`.
    pub fn exact(&self, name: &str) -> u64 {
        self.exact.get(name).copied().unwrap_or(0)
    }

    /// Accumulated time of spans named `name`.
    pub fn time(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every span name seen, with its totals.
    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotal> {
        &self.totals
    }

    /// `numerator` span time per `denominator` unit, in ns; 0 when the
    /// workload never exercised it.
    pub fn ns_per(&self, span: &str, denominator: u64) -> f64 {
        if denominator == 0 {
            0.0
        } else {
            self.time(span).total_ns as f64 / denominator as f64
        }
    }

    /// The kept raw spans as the trace file's JSON.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.kept
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        (
                            "batch_id",
                            s.batch.map_or(Json::Null, |b| Json::Num(b as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut led = Ledger::new(true);
        led.set_batch(Some(0));
        let root = led.begin("batch");
        led.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        led.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        led.end(root);
        let batch = led.time("batch");
        let kids = led.time("a").total_ns + led.time("b").total_ns;
        assert_eq!(batch.count, 1);
        assert_eq!(batch.self_ns, batch.total_ns - kids);
        assert_eq!(led.time("a").self_ns, led.time("a").total_ns);
        // The trace file links children to the root.
        let spans = led.spans_json();
        let spans = spans.as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[2].get("batch_id"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn untraced_and_switched_off_rounds_record_nothing() {
        let mut led = Ledger::new(false);
        led.span("a", || ());
        led.count("x", 3);
        assert_eq!(led.time("a"), SpanTotal::default());
        assert_eq!(led.total("x"), 0);

        let mut led = Ledger::new(true);
        led.set_spans(false);
        led.span("a", || ());
        assert_eq!(led.time("a").count, 0);
        led.set_spans(true);
        led.span("a", || ());
        assert_eq!(led.time("a").count, 1);
    }

    #[test]
    fn exact_counts_stop_at_the_window() {
        let mut led = Ledger::new(true);
        for batch in 0..EXACT_BATCHES + 10 {
            led.set_batch(Some(batch));
            // Every other batch falls in a spans-off round.
            led.set_spans(batch % 2 == 0);
            led.count("events", 2);
        }
        assert_eq!(led.total("events"), EXACT_BATCHES + 10);
        assert_eq!(led.exact("events"), 2 * EXACT_BATCHES);
    }
}
