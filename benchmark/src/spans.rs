//! In-memory span tracing around the benchmark's own calls into each
//! layer.  Nothing inside the crates is instrumented: a span brackets
//! one public call, and a layer's self time is its span minus the spans
//! nested under it.  Spans are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The timed unit (or set-up round) the span belongs to.
    pub unit: u32,
}

/// A span recorder.  Switched off, `begin`/`end` do nothing, not even
/// read the clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn unit(&self) -> u32 {
        self.unit
    }

    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now();
            self.spans[idx].end = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Time `f` under a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Record work measured in aggregate rather than as one interval —
    /// the service calls summed across a run's lanes — as a child of
    /// `parent`, laid from the parent's start.
    pub fn add_child(&mut self, parent: &Open, name: &str, ns: u64) {
        if let Some(p) = parent.0 {
            let start = self.spans[p].start;
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end: start + ns,
                parent: Some(p),
                unit: self.unit,
            });
        }
    }

    /// Append spans recorded elsewhere (a child process), re-parented
    /// under this tracer's indices and tagged with the current unit.
    pub fn import(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        for mut s in spans {
            s.parent = s.parent.map(|p| p + base);
            s.unit = self.unit;
            self.spans.push(s);
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Check that every span closed, lies inside its parent, and that
    /// its children together never exceed it.
    pub fn check(&self) -> Result<(), String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {} escapes its parent {}",
                        s.name, parent.name
                    ));
                }
                child_ns[p] += s.end - s.start;
            }
        }
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            if c > s.end - s.start {
                return Err(format!(
                    "children of {} exceed it: {c} > {} ns",
                    s.name,
                    s.end - s.start
                ));
            }
        }
        Ok(())
    }

    /// Self time per `(unit, span name)`: each span's duration minus
    /// the durations of its direct children (which never overlap — the
    /// benchmark traces one thread).
    pub fn self_ns(&self) -> BTreeMap<(u32, String), u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *out.entry((s.unit, s.name.clone())).or_insert(0) += ns;
        }
        out
    }

    /// Self time per span name, summed over `units` and divided by
    /// their count, in milliseconds.
    pub fn mean_self_ms(&self, units: &[u32]) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for ((unit, name), ns) in self.self_ns() {
            if units.contains(&unit) {
                *out.entry(name).or_insert(0.0) += ns as f64 / 1e6 / units.len() as f64;
            }
        }
        out
    }

    /// Serialize spans one per line: `unit name start end parent`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.unit, s.name, s.start, s.end, parent
            ));
        }
        out
    }

    /// Parse [`Tracer::render`] output back into spans.
    pub fn parse(text: &str) -> Result<Vec<Span>, String> {
        text.lines()
            .map(|line| {
                let f: Vec<&str> = line.split('\t').collect();
                let num = |s: &str| {
                    s.parse::<u64>()
                        .map_err(|e| format!("bad span line {line:?}: {e}"))
                };
                if f.len() != 5 {
                    return Err(format!("bad span line {line:?}"));
                }
                Ok(Span {
                    unit: num(f[0])? as u32,
                    name: f[1].to_string(),
                    start: num(f[2])?,
                    end: num(f[3])?,
                    parent: if f[4] == "-" {
                        None
                    } else {
                        Some(num(f[4])? as usize)
                    },
                })
            })
            .collect()
    }

    /// Write every span to `path` (creating its directory).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(b"unit\tname\tstart_ns\tend_ns\tparent\n")?;
        f.write_all(self.render().as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_render_round_trips() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.add_child(&outer, "aggregate", 1_000);
        tr.end(outer);
        tr.check().expect("well nested");
        let own = tr.self_ns();
        let total = tr.spans()[0].end - tr.spans()[0].start;
        let inner = tr.spans()[1].end - tr.spans()[1].start;
        assert_eq!(own[&(0, "outer".to_string())], total - inner - 1_000);
        assert_eq!(Tracer::parse(&tr.render()).unwrap(), tr.spans());
    }

    #[test]
    fn oversized_children_are_rejected() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        tr.add_child(&outer, "too_big", u64::MAX / 2);
        tr.end(outer);
        assert!(tr.check().is_err());
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x");
        tr.add_child(&s, "y", 5);
        tr.end(s);
        assert!(tr.spans().is_empty());
    }
}
