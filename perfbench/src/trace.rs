//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The recorder lives entirely in the benchmark: it brackets calls into
//! the simulator's public API, never code inside it. Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer it entered, when, and under which span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Shared by every span of one point (one generate/simulate/check).
    pub point: u32,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times nested calls; keeps spans only when `on`.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    point: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            point: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new point id; later spans belong to it.
    pub fn next_point(&mut self) -> u32 {
        self.point += 1;
        self.point
    }

    /// Runs `f`, returning its result and wall-clock seconds. With the
    /// recorder on, the call is also kept as a span under the innermost
    /// open one.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        if !self.on {
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            point: self.point,
            parent: self.open.last().copied(),
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let r = f(self);
        let t1 = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = (t1 - self.epoch).as_nanos() as u64;
        (r, (t1 - t0).as_secs_f64())
    }

    /// Self time (span minus the time its child spans cover) summed per
    /// `(layer, point)`: layer -> one value in seconds per point that
    /// entered the layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut per: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *per.entry((s.layer, s.point)).or_default() += s.dur_ns().saturating_sub(*c);
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((layer, _), ns) in per {
            out.entry(layer).or_default().push(ns as f64 * 1e-9);
        }
        out
    }

    /// Writes every span as a JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"point\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.layer, sp.point, sp.start_ns, sp.end_ns
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.next_point();
        r.span("bench", "point", |r| {
            r.span("sim", "simulate", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        let st = r.self_times();
        assert!(st["sim"][0] >= 0.005);
        assert!(st["bench"][0] < st["sim"][0]);
    }

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new(false);
        let (v, secs) = r.span("sim", "x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(r.spans.is_empty());
    }
}
