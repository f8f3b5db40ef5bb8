//! Measurement primitives: process CPU time and peak RSS, order
//! statistics, and the in-memory span recorder of the traced mode.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `struct rusage` from `<sys/resource.h>` (Linux, 64-bit layout).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a properly aligned, writable `struct rusage` with the
    // 64-bit Linux layout (two timevals, then 14 longs), and RUSAGE_SELF
    // is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    u
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    (u.utime_sec + u.stime_sec) as f64 + (u.utime_usec + u.stime_usec) as f64 * 1e-6
}

/// The process's resident-set high-water mark in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Wall and CPU time of one closure call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - cpu0)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 99th percentile. With fewer than 100 samples it lies between the
/// two largest.
pub fn p99(values: &[f64]) -> f64 {
    quantile(values, 0.99)
}

/// One recorded span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span recorder. Spans are kept until [`Tracer::to_json`]
/// writes them out, so recording costs two clock reads and one push.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Reserves a span id and returns it with the start offset; the span
    /// is recorded by [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> Span {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let id = spans.len();
        let start = self.origin.elapsed();
        // Placeholder keeps ids dense and ordered by opening.
        spans.push(Span { id, name, parent, start, end: start });
        Span { id, name, parent, start, end: start }
    }

    /// Ends a span opened with [`Tracer::open`] and returns its seconds.
    pub fn close(&self, mut span: Span) -> f64 {
        span.end = self.origin.elapsed();
        let (id, secs) = (span.id, span.seconds());
        self.spans.lock().expect("tracer lock poisoned")[id] = span;
        secs
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, parent);
        let out = f();
        self.close(s);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Sum of the durations of `parent`'s direct children named `name`
    /// (every child when `name` is `None`).
    pub fn child_seconds(&self, parent: usize, name: Option<&str>) -> f64 {
        self.spans
            .lock()
            .expect("tracer lock poisoned")
            .iter()
            .filter(|s| s.parent == Some(parent) && name.is_none_or(|n| s.name == n))
            .map(Span::seconds)
            .sum()
    }

    /// Sum of the durations of every span named `name` below `root`
    /// (children, grandchildren, …).
    pub fn descendant_seconds(&self, root: usize, name: &str) -> f64 {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let under = |s: &Span| {
            let mut parent = s.parent;
            while let Some(p) = parent {
                if p == root {
                    return true;
                }
                parent = spans[p].parent;
            }
            false
        };
        spans.iter().filter(|s| s.name == name && under(s)).map(Span::seconds).sum()
    }

    /// The spans as a JSON array of `{id, name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                s.name,
                parent,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        let many: Vec<f64> = (0..1_000).map(f64::from).collect();
        assert!((p99(&many) - 989.01).abs() < 1e-9);
        assert!((p99(&[1.0, 2.0, 3.0]) - 2.98).abs() < 1e-9);
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let t = Tracer::default();
        let root = t.open("job", None);
        let rid = root.id;
        t.span("a", Some(rid), || std::thread::sleep(Duration::from_millis(5)));
        let inner = t.open("b", Some(rid));
        t.span("c", Some(inner.id), || std::thread::sleep(Duration::from_millis(5)));
        t.close(inner);
        let total = t.close(root);
        let children = t.child_seconds(rid, None);
        assert!(children <= total && children >= 0.010);
        assert!(t.descendant_seconds(rid, "c") >= 0.005);
        assert_eq!(t.descendant_seconds(rid, "job"), 0.0);
        assert!(t.to_json().contains("\"name\": \"c\", \"parent\": 2"));
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
