//! Spans recorded by the harness around its calls into each layer.
//!
//! Nothing inside the program is instrumented (that is ROADMAP item 3);
//! a span here brackets a call into a layer's *public* function. The
//! same [`Tracer::begin`]/[`Tracer::end`] pair is the harness's only
//! timer, traced or not: with tracing off it reads the clock twice and
//! stores nothing, so the traced and untraced passes time a call the
//! same way and differ only by the span push.

use std::time::Instant;

use crate::json::Json;

/// Round id of spans recorded outside any round (layer probes).
pub const NO_ROUND: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The module the bracketed call enters (`cluster`, `fleet`, ...).
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The round that caused it, or [`NO_ROUND`].
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A begun, not yet ended, span.
#[must_use = "an open span must be passed to Tracer::end"]
pub struct Open {
    start: Instant,
    id: Option<u32>,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: NO_ROUND,
        }
    }

    /// Switch recording on or off (the traced pass alternates blocks of
    /// recorded and unrecorded rounds).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Spans begun from now on belong to `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        let id = if self.enabled {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                layer,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                round: self.round,
            });
            self.stack.push(id);
            Some(id)
        } else {
            None
        };
        Open {
            start: Instant::now(),
            id,
        }
    }

    /// Close `open`; returns the elapsed nanoseconds (also when off).
    pub fn end(&mut self, open: Open) -> u64 {
        self.close(open, None)
    }

    /// [`Tracer::end`], renaming the span: for calls whose kind is only
    /// known once they return (a tiered query is a hit or a miss).
    pub fn end_as(&mut self, open: Open, name: &'static str) -> u64 {
        self.close(open, Some(name))
    }

    fn close(&mut self, open: Open, rename: Option<&'static str>) -> u64 {
        let elapsed = open.start.elapsed().as_nanos() as u64;
        if let Some(id) = open.id {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            let span = &mut self.spans[id as usize];
            if let Some(name) = rename {
                span.name = name;
            }
            span.start_ns = start_ns;
            span.end_ns = start_ns + elapsed;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
        elapsed
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file's content.
    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, self_ns)| {
                Json::obj()
                    .set("name", s.name)
                    .set("layer", s.layer)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                    )
                    .set(
                        "round",
                        if s.round == NO_ROUND {
                            Json::Null
                        } else {
                            Json::from(u64::from(s.round))
                        },
                    )
                    .set("self_ns", *self_ns)
            })
            .collect::<Vec<_>>();
        Json::obj()
            .set("workload", workload)
            .set(
                "note",
                "spans bracket the harness's calls into each layer's public functions; self_ns = span minus the part of it its children cover",
            )
            .set("spans", spans)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children are clipped to the parent
/// and overlapping children are counted once (union of intervals), so a
/// self time is never negative and never double-subtracts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root [0,100] > a [10,60] > b [20,30]; root also > c [70,90].
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        // root loses a and c (not b: it is a's child), a loses b.
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,50] and [30,70] overlap on [30,50]: union is 60.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in a sibling adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that (by clock skew) sticks out of its parent cannot
        // drive the parent's self time negative.
        let spans = [span(10, 20, None), span(5, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 25]);
        let spans = [span(10, 20, None), span(30, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_links_parents_and_rounds() {
        let mut tr = Tracer::new(true);
        tr.set_round(7);
        let outer = tr.begin("outer", "a");
        let inner = tr.begin("inner", "b");
        tr.end(inner);
        tr.end(outer);
        let after = tr.begin("after", "a");
        tr.end(after);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s.iter().all(|x| x.round == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.begin("x", "y");
        std::hint::black_box((0..1000).sum::<u64>());
        let _elapsed = tr.end(o);
        assert!(tr.spans().is_empty());
    }
}
