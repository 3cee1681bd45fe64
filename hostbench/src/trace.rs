//! In-memory spans around the benchmark's calls into each layer, and
//! the host-time ledger built from them.

use std::time::Instant;

use crate::median;

/// One timed call into a layer. `key` names the program (index into the
/// workload's program list) the call served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub key: usize,
    pub dur_ns: u64,
}

/// Span recorder. When off, [`Tracer::span`] only runs the closure, so
/// the untraced run pays nothing for it.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span of `layer` for program `key`.
    pub fn span<T>(&mut self, layer: &'static str, key: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(layer, key, start);
        out
    }

    /// Close a span opened at `start`.
    pub fn push(&mut self, layer: &'static str, key: usize, start: Instant) {
        if self.on {
            self.spans.push(Span {
                layer,
                key,
                dur_ns: start.elapsed().as_nanos() as u64,
            });
        }
    }

    /// Durations in ms of every span of `layer` for `key`.
    pub fn ms(&self, layer: &str, key: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.key == key)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Median duration in ms of the spans of `layer` for `key`.
    pub fn median_ms(&self, layer: &str, key: usize) -> f64 {
        median(&self.ms(layer, key))
    }

    /// Print, per layer, how many spans were kept and their total time.
    pub fn print_summary(&self) {
        let mut layers: Vec<&str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        for layer in layers {
            let (n, ns) = self
                .spans
                .iter()
                .filter(|s| s.layer == layer)
                .fold((0, 0), |(n, ns), s| (n + 1, ns + s.dur_ns));
            println!("spans {layer:<20} {n:>6} {:>12.2} ms", ns as f64 / 1e6);
        }
    }
}

/// Where one pass over a workload's jobs spends host time: measured job
/// time against the layers timed from outside. The remainder is what no
/// timed layer explains.
#[derive(Debug, Default)]
pub struct Ledger {
    pub measured_ms: f64,
    pub rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    pub fn unexplained_ms(&self) -> f64 {
        self.measured_ms - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    /// Print the ledger, largest layer first, as lines before the JSON
    /// result.
    pub fn print(&self, workload: &str) {
        let mut rows = self.rows.clone();
        rows.push(("unexplained", self.unexplained_ms()));
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!(
            "ledger {workload}: measured {:.2} ms per pass",
            self.measured_ms
        );
        for (name, ms) in rows {
            let share = if self.measured_ms > 0.0 {
                100.0 * ms / self.measured_ms
            } else {
                0.0
            };
            println!("  {name:<44} {ms:>10.2} ms {share:>6.1} %");
        }
    }
}
