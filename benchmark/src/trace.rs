//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions, kept in memory and written as JSON
//! lines when the run ends.
//!
//! A layer's **self time** is its spans' busy time minus the busy time of
//! the spans they caused (their children).  All spans of one query share
//! its `query_id`; a child names its parent span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use must_graph::QueryScorer;

/// One span.  `busy_ns` equals `end_ns - start_ns` for an ordinary span;
/// an *aggregated* span (`count > 1` timed calls folded into one record,
/// as for the per-candidate `score` calls of a walk) carries the summed
/// duration of its calls instead, which is what self time subtracts.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub query_id: u32,
    pub span: &'static str,
    /// Name of the span that caused this one; empty for a query's root.
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    /// Work done inside the span, counted where it happens (evaluations
    /// for `score`, results for `rerank`, shards for `route`, …).
    pub count: u64,
}

/// In-memory span store of one traced pass.
pub struct Trace {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start_ns` (a [`Trace::now_ns`] reading
    /// taken just before the traced call).
    pub fn close(
        &mut self,
        query_id: u32,
        span: &'static str,
        parent: &'static str,
        start_ns: u64,
        count: u64,
    ) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            query_id,
            span,
            parent,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            count,
        });
    }

    /// Records an aggregated span: `count` calls that together took
    /// `busy_ns` somewhere inside `[start_ns, end_ns]`.
    pub fn aggregated(
        &mut self,
        query_id: u32,
        span: &'static str,
        parent: &'static str,
        (start_ns, end_ns): (u64, u64),
        busy_ns: u64,
        count: u64,
    ) {
        self.spans.push(Span {
            query_id,
            span,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            count,
        });
    }

    /// Writes the spans as JSON lines (`query_id, span, parent, start_ns,
    /// end_ns, busy_ns, count`).
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"query_id\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"count\":{}}}",
                s.query_id, s.span, s.parent, s.start_ns, s.end_ns, s.busy_ns, s.count
            )?;
        }
        w.flush()
    }
}

/// Per span name: total busy time, total self time, total count, spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub count: u64,
    pub spans: u64,
}

/// Folds spans into per-name totals.  Self time is busy time minus the
/// busy time of the spans naming it as parent; the children of one span
/// never overlap (one thread drives a query), so the subtraction is exact.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(s.span).or_default();
        t.busy_ns += s.busy_ns;
        t.self_ns += s.busy_ns;
        t.count += s.count;
        t.spans += 1;
    }
    for s in spans.iter().filter(|s| !s.parent.is_empty()) {
        if let Some(parent) = totals.get_mut(s.parent) {
            parent.self_ns = parent.self_ns.saturating_sub(s.busy_ns);
        }
    }
    totals
}

/// One scorer call a walk made: the candidate and, for `score_pruned`,
/// the pool threshold it was given.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreCall {
    pub id: u32,
    /// `None` for `score`, the threshold for `score_pruned`.
    pub threshold: Option<f32>,
}

/// Wraps the product scorer a walk is driven with and records the exact
/// sequence of calls the walk makes — no timers inside the walk.  The
/// sequence is replayed afterwards against the same scorer (and against
/// the bare evaluators) in a tight timed loop: a timer pair per call costs
/// as much as the call itself, so timing in place would measure the
/// timers.
pub struct RecordingScorer<'a, S: QueryScorer> {
    inner: &'a S,
    calls: RefCell<Vec<ScoreCall>>,
}

impl<'a, S: QueryScorer> RecordingScorer<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        Self {
            inner,
            calls: RefCell::new(Vec::with_capacity(1024)),
        }
    }

    pub fn into_calls(self) -> Vec<ScoreCall> {
        self.calls.into_inner()
    }
}

impl<S: QueryScorer> QueryScorer for RecordingScorer<'_, S> {
    fn score(&self, id: u32) -> f32 {
        self.calls.borrow_mut().push(ScoreCall {
            id,
            threshold: None,
        });
        self.inner.score(id)
    }

    fn score_pruned(&self, id: u32, threshold: f32) -> Option<f32> {
        self.calls.borrow_mut().push(ScoreCall {
            id,
            threshold: Some(threshold),
        });
        self.inner.score_pruned(id, threshold)
    }
}

/// Replays recorded calls against `scorer`; returns a checksum so the
/// work cannot be optimised away.
pub fn replay<S: QueryScorer>(scorer: &S, calls: &[ScoreCall]) -> f32 {
    let mut acc = 0.0f32;
    for c in calls {
        acc += match c.threshold {
            None => scorer.score(c.id),
            Some(t) => scorer.score_pruned(c.id, t).unwrap_or(0.0),
        };
    }
    std::hint::black_box(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(q: u32, name: &'static str, parent: &'static str, busy: u64, count: u64) -> Span {
        Span {
            query_id: q,
            span: name,
            parent,
            start_ns: 0,
            end_ns: busy,
            busy_ns: busy,
            count,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, "query", "", 1000, 1),
            span(0, "scorer_build", "query", 100, 1),
            span(0, "walk", "query", 700, 1),
            // Aggregated: 40 score calls that took 450 ns in all.
            span(0, "score", "walk", 450, 40),
            span(0, "rerank", "query", 150, 10),
            span(1, "query", "", 500, 1),
            span(1, "walk", "query", 400, 1),
            span(1, "score", "walk", 100, 10),
        ];
        let t = layer_totals(&spans);
        assert_eq!(
            t["query"],
            LayerTotals {
                busy_ns: 1500,
                self_ns: 150,
                count: 2,
                spans: 2
            }
        );
        assert_eq!(
            t["walk"],
            LayerTotals {
                busy_ns: 1100,
                self_ns: 550,
                count: 2,
                spans: 2
            }
        );
        assert_eq!(
            t["score"],
            LayerTotals {
                busy_ns: 550,
                self_ns: 550,
                count: 50,
                spans: 2
            }
        );
        assert_eq!(t["rerank"].self_ns, 150);
    }

    #[test]
    fn recording_scorer_is_transparent_and_replayable() {
        let inner = must_graph::FnScorer(|id: u32| id as f32);
        let rec = RecordingScorer::new(&inner);
        assert_eq!(rec.score(3), 3.0);
        assert_eq!(rec.score_pruned(5, 4.0), Some(5.0));
        assert_eq!(rec.score_pruned(2, 4.0), None);
        let calls = rec.into_calls();
        assert_eq!(calls.len(), 3);
        assert_eq!(
            calls[1],
            ScoreCall {
                id: 5,
                threshold: Some(4.0)
            }
        );
        assert_eq!(replay(&inner, &calls), 8.0);
    }

    #[test]
    fn spans_round_trip_to_jsonl() {
        let mut t = Trace::new();
        let start = t.now_ns();
        t.close(7, "walk", "query", start, 42);
        t.aggregated(7, "score", "walk", (5, 9), 3, 12);
        let mut bytes = Vec::new();
        t.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"query_id\":7,\"span\":\"walk\",\"parent\":\"query\""));
        assert!(lines[1].ends_with("\"busy_ns\":3,\"count\":12}"));
    }
}
