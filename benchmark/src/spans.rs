//! Wall-clock spans recorded from outside the program, at every call into a
//! public function of a layer.
//!
//! Every call is timed whether or not tracing is on, because the
//! end-to-end metrics need a few of the durations; a traced run
//! additionally keeps each span (name, start, end, parent, job id) in
//! memory and writes the tree out at exit. A layer's self time is its
//! span's duration minus the durations of its direct children.

use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// Job the call belongs to (0 = outside any job).
    pub job: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    keep: bool,
    job: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// `keep` is the traced run; `epoch` is shared by every recorder of the
    /// process so their timestamps line up.
    pub fn new(keep: bool, epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            keep,
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Time `f`, record it as a span named `name` when tracing, and return
    /// its result with the elapsed nanoseconds. `f` gets the recorder back
    /// so calls nest.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, u64) {
        let start_ns = self.now_ns();
        let idx = self.spans.len() as u32;
        if self.keep {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                job: self.job,
            });
            self.open.push(idx);
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if self.keep {
            self.open.pop();
            self.spans[idx as usize].end_ns = end_ns;
        }
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// The name of the span that wraps one job.
pub const JOB: &str = "job";

/// Total duration of the job spans, in nanoseconds.
pub fn job_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == JOB)
        .map(Span::dur_ns)
        .sum()
}

/// Share of job time that is self time of spans called `name`.
pub fn share_of_jobs(spans: &[Span], name: &str) -> f64 {
    let own: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name && s.job != 0)
        .map(|(_, own)| own)
        .sum();
    own as f64 / job_ns(spans).max(1) as f64
}

/// Share of job time spent inside calls into the layers: everything but the
/// job spans' own time and the benchmark's own `bench.*` spans.
pub fn layer_coverage(spans: &[Span]) -> f64 {
    let ours: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.job != 0 && (s.name == JOB || s.name.starts_with("bench.")))
        .map(|(_, own)| own)
        .sum();
    let jobs = job_ns(spans).max(1);
    jobs.saturating_sub(ours) as f64 / jobs as f64
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Render the span trees of several threads as one JSON document.
pub fn render_json(workload: &str, threads: &[&[Span]]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"threads\":[");
    for (t, spans) in threads.iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            ));
        }
        out.push(']');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // job [0,100) > a [10,40) > a1 [15,25); job > b [50,90)
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 10, 40]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert_eq!(job_ns(&spans), 100);
        assert_eq!(share_of_jobs(&spans, "b"), 0.4);
        // Everything but the job span's own 30 ns is inside a layer.
        assert_eq!(layer_coverage(&spans), 0.7);
    }

    #[test]
    fn recorder_nests_and_times_even_when_not_keeping() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.set_job(7);
        let ((), outer) = rec.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1 + 1));
        });
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].job, 7);
        assert!(rec.spans()[0].dur_ns() >= rec.spans()[1].dur_ns());
        assert_eq!(rec.spans()[0].dur_ns(), outer);

        let mut off = Recorder::new(false, Instant::now());
        let (v, _ns) = off.span("x", |_| 5);
        assert_eq!(v, 5);
        assert!(off.spans().is_empty());
    }
}
