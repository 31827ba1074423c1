//! Spans around the benchmark's calls into each layer, held in memory and
//! written to `benchmark/out/trace-<workload>.json` when the run ends.
//!
//! [`Tracer::span`] always times its closure (the untraced pass needs the
//! durations too); it keeps a span record only while recording is on, so
//! "tracing off" means no records are made.

use std::borrow::Cow;
use std::time::Instant;

pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Seconds since the tracer was created (process wall so far).
    pub fn wall_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` as a span named `name`, child of the span open around it.
    /// Returns `f`'s value and its duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name: Cow::Borrowed(name),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t0 = Instant::now();
        let value = f(self);
        let t1 = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].start_ns = self.ns(t0);
            self.spans[id].end_ns = self.ns(t1);
        }
        (value, t1.duration_since(t0).as_secs_f64())
    }

    /// Record a span measured elsewhere (a client thread) under the span
    /// currently open. Returns its id for use as a `parent`.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        self.recording.then(|| {
            self.spans.push(Span {
                name: Cow::Borrowed(name),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: parent.or(self.open.last().copied()),
            });
            self.spans.len() - 1
        })
    }

    /// The spans as lines, `span <name> <start_ns> <end_ns> <parent|->`,
    /// for a parent process to [`Tracer::adopt`].
    pub fn export(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().map(|s| {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            format!("span {} {} {} {parent}", s.name, s.start_ns, s.end_ns)
        })
    }

    /// Take over the spans a child process exported: its clock started at
    /// `began` on ours, and its top-level spans become children of the
    /// span open here.
    pub fn adopt<'a>(&mut self, lines: impl Iterator<Item = &'a str>, began: Instant) {
        let (base, offset, top) = (self.spans.len(), self.ns(began), self.open.last().copied());
        for line in lines {
            let mut words = line.split_whitespace().skip(1);
            let (Some(name), Some(start), Some(end), Some(parent)) =
                (words.next(), words.next(), words.next(), words.next())
            else {
                continue;
            };
            let (Ok(start), Ok(end)) = (start.parse::<u64>(), end.parse::<u64>()) else {
                continue;
            };
            self.spans.push(Span {
                name: Cow::Owned(name.to_string()),
                start_ns: start + offset,
                end_ns: end + offset,
                parent: parent.parse::<usize>().map_or(top, |p| Some(base + p)),
            });
        }
    }

    /// Summed duration of the spans that have no parent, in seconds.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The trace file: every span with its self time (duration minus the
    /// part its children cover).
    pub fn json(&self, workload: &str, host_json: &str, wall_s: f64) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"host\": {host_json},\n  \
             \"wall_ns\": {},\n  \"top_level_ns\": {},\n  \"spans\": [\n",
            (wall_s * 1e9) as u64,
            (self.top_level_s() * 1e9) as u64
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            out.push_str(&format!(
                "    {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {}, \"workload\": \"{workload}\"}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[id]),
                if id + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
