//! Host-time spans around the benchmark's calls into the simulator. They
//! stay in memory while a run measures and are written out as Chrome
//! trace JSON (`chrome://tracing`, Perfetto) when it ends.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `start_ns`/`end_ns` count from the recorder's
/// origin; `parent` indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Counts taken at the same boundary (engine events, IOs, ns/op).
    pub args: Vec<(String, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| (p as u64).into()),
            ),
            (
                "args",
                Json::obj(self.args.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Span> {
        Some(Span {
            name: j.get("name")?.as_str()?.to_owned(),
            start_ns: j.get("start_ns")?.as_f64()? as u64,
            end_ns: j.get("end_ns")?.as_f64()? as u64,
            parent: j.get("parent")?.as_f64().map(|p| p as usize),
            args: j
                .get("args")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        })
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` returns its result and the counts to attach.
    pub fn span<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Recorder) -> (T, Vec<(String, f64)>),
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        let (value, args) = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].args = args;
        value
    }

    /// Adds an already-timed leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &str, start_ns: u64, end_ns: u64, args: Vec<(String, f64)>) {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            args,
        });
    }

    /// Adopts the spans a child process recorded against its own origin,
    /// which was `offset_ns` on this recorder's clock. Roots of the child
    /// become children of the innermost open span.
    pub fn adopt(&mut self, child: &[Span], offset_ns: u64) {
        let base = self.spans.len();
        let root = self.open.last().copied();
        for s in child {
            self.spans.push(Span {
                name: s.name.clone(),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                parent: s.parent.map(|p| p + base).or(root),
                args: s.args.clone(),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(self.spans.iter().map(Span::to_json).collect())
    }

    pub fn spans_from_json(j: &Json) -> Vec<Span> {
        j.as_arr()
            .map(|a| a.iter().filter_map(Span::from_json).collect())
            .unwrap_or_default()
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, `ts`
    /// and `dur` in microseconds. The track (`tid`) is the depth of the
    /// span, so children draw under their parents; `args` carries the
    /// span id, its parent id, the workload and the span's counts.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let depth = |mut i: usize| {
            let mut d = 0u64;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("id".to_owned(), Json::from(i as u64)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Json::Null, |p| (p as u64).into()),
                    ),
                    ("workload".to_owned(), workload.into()),
                ];
                args.extend(s.args.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("cat", workload.into()),
                    ("ph", "X".into()),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", depth(i).into()),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_adopts_and_round_trips() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("rep", |rec| {
            rec.span("setup", |_| ((), vec![]));
            let child = vec![
                Span {
                    name: "measure".into(),
                    start_ns: 5,
                    end_ns: 9,
                    parent: None,
                    args: vec![("events".into(), 3.0)],
                },
                Span {
                    name: "slice".into(),
                    start_ns: 6,
                    end_ns: 7,
                    parent: Some(0),
                    args: vec![],
                },
            ];
            rec.adopt(&child, 100);
            ((), vec![])
        });
        let s = rec.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].start_ns, s[2].parent), (105, Some(0)));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert_eq!(Recorder::spans_from_json(&rec.to_json()), s);
        let trace = rec.chrome_trace("w");
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(4)
        );
    }
}
