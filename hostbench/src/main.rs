//! Host benchmark of the hpmopt simulator and service.
//!
//! One invocation measures one workload for a fixed time and prints, as
//! its last stdout line, one JSON object with the operations attempted
//! and failed and every metric by name and unit:
//!
//! ```text
//! hostbench --workload db-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run (spans kept
//! in memory around each call into a layer, plus replays of the captured
//! access, sample and code streams). See `README.md` next to this file.

mod direct;
mod jobs;
mod layers;
mod recorder;
mod serve_mix;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's workloads. Each stresses different layers; the
/// README records why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DbPaper,
    SuiteDense,
    ServeMix,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "db-paper" => Some(Kind::DbPaper),
            "suite-dense" => Some(Kind::SuiteDense),
            "serve-mix" => Some(Kind::ServeMix),
            _ => None,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub run_for: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: hostbench --workload db-paper|suite-dense|serve-mix \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run_for: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operations attempted and failed: jobs, oracle checks and replay
/// self-checks. A failed check is reported on stderr and fails the run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn print_result(tally: &Tally, metrics: &Metrics) -> bool {
    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut all_finite = true;
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|&(name, value, unit)| {
            all_finite &= value.is_finite();
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = correct && all_finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    correct
}

/// The end-to-end metrics of an untraced run.
pub fn emit_end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    host_mbc_per_s: f64,
    job_p50_ms: f64,
    sim: &jobs::SimTotals,
) {
    m.put("setup_s", setup_s, "s");
    m.put("host_mbc_per_s", host_mbc_per_s, "Mbc/s");
    m.put("job_p50_ms", job_p50_ms, "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("sim_cycles", sim.cycles as f64, "cycles");
    m.put("sim_l1_misses", sim.l1_misses as f64, "count");
    m.put("sim_monitor_overhead_pct", sim.overhead_pct(), "%");
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seeded Fisher-Yates shuffle (SplitMix64): the only input the seed
/// decides is the order in which a round's jobs run.
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    match args.kind {
        Kind::DbPaper | Kind::SuiteDense => direct::run(&args, &mut tally, &mut metrics),
        Kind::ServeMix => serve_mix::run(&args, &mut tally, &mut metrics),
    }
    if print_result(&tally, &metrics) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
