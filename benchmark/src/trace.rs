//! Harness-side spans: one per call into a layer boundary, recorded in
//! memory and written out when the run ends. Each span carries its
//! parent, wall and CPU interval, and the work done inside it as deltas
//! of the engine's and the allocator's counters. A tracer that is off
//! records nothing and never evaluates the counters, so untraced reps
//! pay nothing for it.

use crate::alloc::HEAP;
use crate::host::Stamp;
use crate::json::Json;

/// Engine counters sampled at span boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub events: u64,
    pub messages: u64,
    pub bytes: u64,
}

#[derive(Clone, Copy)]
struct Sample {
    at: Stamp,
    engine: EngineCounts,
    alloc_calls: u64,
    alloc_bytes: u64,
}

impl Sample {
    fn take(engine: EngineCounts) -> Sample {
        let heap = HEAP.read();
        Sample {
            at: Stamp::now(),
            engine,
            alloc_calls: heap.calls,
            alloc_bytes: heap.bytes,
        }
    }
}

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    start: Sample,
    end: Option<Sample>,
}

impl Span {
    pub fn cpu_s(&self) -> f64 {
        self.end.map_or(0.0, |e| e.at.cpu_since(&self.start.at))
    }
}

/// Handle of an open span; close it with [`Tracer::close`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    origin: Option<Stamp>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            origin: Some(Stamp::now()),
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str, engine: impl FnOnce() -> EngineCounts) -> SpanId {
        if !self.enabled() {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start: Sample::take(engine()),
            end: None,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn close(&mut self, id: SpanId, engine: impl FnOnce() -> EngineCounts) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Some(Sample::take(engine()));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// CPU seconds of every closed span whose name starts with `prefix`.
    pub fn cpu_of(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::cpu_s)
            .sum()
    }

    /// All spans as a JSON array, times in seconds from the tracer's
    /// start. `self_cpu_s` is a span's CPU minus its children's.
    pub fn to_json(&self) -> Json {
        let Some(origin) = self.origin else {
            return Json::Arr(Vec::new());
        };
        let mut child_cpu = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cpu[p] += s.cpu_s();
            }
        }
        let rows = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(id, s)| {
                let end = s.end?;
                Some(Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.clone())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_wall_s", Json::Num(s.start.at.wall_since(&origin))),
                    ("end_wall_s", Json::Num(end.at.wall_since(&origin))),
                    ("start_cpu_s", Json::Num(s.start.at.cpu_since(&origin))),
                    ("end_cpu_s", Json::Num(end.at.cpu_since(&origin))),
                    ("self_cpu_s", Json::Num(s.cpu_s() - child_cpu[id])),
                    (
                        "events",
                        Json::Num((end.engine.events - s.start.engine.events) as f64),
                    ),
                    (
                        "messages",
                        Json::Num((end.engine.messages - s.start.engine.messages) as f64),
                    ),
                    (
                        "bytes",
                        Json::Num((end.engine.bytes - s.start.engine.bytes) as f64),
                    ),
                    (
                        "allocs",
                        Json::Num((end.alloc_calls - s.start.alloc_calls) as f64),
                    ),
                    (
                        "alloc_bytes",
                        Json::Num((end.alloc_bytes - s.start.alloc_bytes) as f64),
                    ),
                ]))
            })
            .collect();
        Json::Arr(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(events: u64) -> EngineCounts {
        EngineCounts {
            events,
            messages: events * 2,
            bytes: events * 100,
        }
    }

    #[test]
    fn spans_nest_and_carry_counter_deltas() {
        let mut t = Tracer::on();
        let root = t.open("rep", || counts(0));
        let a = t.open("setup.gen", || counts(0));
        t.close(a, || counts(10));
        let b = t.open("query.run[0]", || counts(10));
        t.close(b, || counts(25));
        t.close(root, || counts(25));

        let json = t.to_json();
        let Json::Arr(rows) = &json else {
            panic!("array")
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        assert_eq!(rows[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(
            rows[2].get("name").and_then(Json::as_str),
            Some("query.run[0]")
        );
        assert_eq!(rows[2].get("events"), Some(&Json::Num(15.0)));
        assert_eq!(rows[2].get("messages"), Some(&Json::Num(30.0)));
        assert_eq!(rows[0].get("events"), Some(&Json::Num(25.0)));
        let num = |row: &Json, k: &str| row.get(k).and_then(Json::as_f64).unwrap();
        assert!(num(&rows[0], "end_cpu_s") >= num(&rows[2], "end_cpu_s"));
        let parent_cpu = num(&rows[0], "end_cpu_s") - num(&rows[0], "start_cpu_s");
        let children_cpu: f64 = rows[1..]
            .iter()
            .map(|r| num(r, "end_cpu_s") - num(r, "start_cpu_s"))
            .sum();
        assert!((num(&rows[0], "self_cpu_s") - (parent_cpu - children_cpu)).abs() < 1e-9);
        assert!(t.cpu_of("query.") <= t.cpu_of("rep") + 1e-9);
    }

    #[test]
    fn a_tracer_that_is_off_never_samples() {
        let mut t = Tracer::off();
        let id = t.open("rep", || panic!("must not be evaluated"));
        t.close(id, || panic!("must not be evaluated"));
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), Json::Arr(Vec::new()));
    }
}
