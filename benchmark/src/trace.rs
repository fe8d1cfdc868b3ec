//! In-memory span recording, percentile helpers and `/proc` readings.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary. `parent` is the index of the
/// enclosing span plus one (0 = root); spans of one job share `job`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub job: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span store for one traced run. Spans stay in memory until
/// [`Tracer::write`] is called at the end of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        job: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            job,
        };
        self.spans.push(span);
        self.spans.len()
    }

    /// Start a span whose end is set later by [`Tracer::close`], so that
    /// children recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: usize, job: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, job)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id - 1].end_ns = end;
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0, Instant::now(), parent, job);
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// Over every span named `root`: the part of its interval that no
    /// direct child covers (children may overlap each other; their union
    /// counts once, clipped to the parent), and the roots' total. Both in
    /// microseconds; self time is never negative.
    pub fn self_time(&self, root: &str) -> (f64, f64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                children[s.parent - 1].push((s.start_ns, s.end_ns));
            }
        }
        let mut own = 0.0;
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            let covered = union_ns(&mut children[i], s.start_ns, s.end_ns);
            total += s.us();
            own += (s.end_ns - s.start_ns - covered) as f64 / 1e3;
        }
        (own, total)
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.job
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Process CPU time (user + system, every thread including those that
/// already exited) from `/proc/self/stat`, in clock ticks of 10 ms
/// (USER_HZ = 100). Only timed phases of at least a second read it, so
/// a tick is at most 1% of one core's time and far less of a phase.
pub fn process_cpu() -> Duration {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are fields 14 and 15 of the line, i.e. the 12th and
    // 13th after the parenthesised command name.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((tick(11) + tick(12)) * 10)
}

/// CPU time of the calling thread, in nanoseconds, from its schedstat.
pub fn thread_cpu() -> Duration {
    let ns = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0);
    Duration::from_nanos(ns)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// First "model name" line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_never_make_self_time_negative() {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = tr.record("round", ms(0), ms(10), 0, 0);
        tr.record("a", ms(1), ms(6), root, 0);
        tr.record("b", ms(2), ms(8), root, 1);
        tr.record("c", ms(9), ms(12), root, 2);
        let (own, total) = tr.self_time("round");
        assert!((total - 10_000.0).abs() < 1e-6);
        // Covered: [1,8] and [9,10] = 8 ms; self = 2 ms.
        assert!((own - 2_000.0).abs() < 1e-6, "{own}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[]), 0.0);
    }
}
