//! `db-paper` and `suite-dense`: monitored jobs run back to back on one
//! thread through `HpmRuntime::run`.

use std::time::Instant;

use hpmopt_core::runtime::{HpmRuntime, RunConfig, RunReport};
use hpmopt_hpm::SamplingInterval;
use hpmopt_workloads::Size;

use crate::jobs::{self, Prepared, ProgSpec, SimTotals};
use crate::layers::Layers;
use crate::recorder::{self, Recorded};
use crate::trace::{Ledger, Tracer};
use crate::{emit_end_to_end, median, shuffled, Args, Kind, Metrics, Tally};

/// The dense fixed sampling interval of `suite-dense`: every 4th L1 miss
/// is sampled, so capture, drain and attribution handle about two orders
/// of magnitude more samples per host second than under the paper's
/// auto mode on `db-paper`.
const DENSE_INTERVAL: u64 = 4;
/// Set-up repetitions per run.
const SETUP_REPS: usize = 3;

fn spec(name: &'static str, size: Size, tiered: bool) -> ProgSpec {
    ProgSpec {
        name,
        size,
        tiered,
        per_round: 1,
    }
}

fn programs(kind: Kind) -> (Vec<ProgSpec>, SamplingInterval) {
    match kind {
        Kind::DbPaper => (vec![spec("db", Size::Small, false)], jobs::auto_interval()),
        _ => (
            vec![
                // Co-allocation candidates.
                spec("jess", Size::Tiny, false),
                spec("hsqldb", Size::Tiny, false),
                spec("luindex", Size::Tiny, false),
                spec("pseudojbb", Size::Tiny, false),
                // Large-object and streaming programs with no candidates.
                spec("compress", Size::Tiny, false),
                spec("mpegaudio", Size::Tiny, false),
                // Young-object churn.
                spec("mtrt", Size::Tiny, false),
                // Code churn: tiered JIT over a code cache far smaller
                // than the program's code.
                spec("jython", Size::Tiny, true),
            ],
            SamplingInterval::Fixed(DENSE_INTERVAL),
        ),
    }
}

/// One monitored job must reproduce its control digest and the
/// simulated results of the program's first job; on `db-paper` the
/// co-allocated run must also miss L1 less often than the control run.
fn check_job(
    kind: Kind,
    p: &Prepared,
    r: &RunReport,
    first: Option<&RunReport>,
    tally: &mut Tally,
) {
    let name = p.w.name;
    tally.check(r.result_digest == p.control.digest, || {
        format!(
            "{name}: digest {:#x}, control {:#x}",
            r.result_digest, p.control.digest
        )
    });
    if kind == Kind::DbPaper {
        tally.check(r.vm.mem.l1_misses < p.control.l1_misses, || {
            format!(
                "{name}: co-allocated run has {} L1 misses, control {}",
                r.vm.mem.l1_misses, p.control.l1_misses
            )
        });
    }
    if let Some(f) = first {
        tally.check(
            f.cycles == r.cycles && f.vm.mem.l1_misses == r.vm.mem.l1_misses,
            || format!("{name}: simulated results changed between jobs"),
        );
    }
}

pub fn run(args: &Args, tally: &mut Tally, metrics: &mut Metrics) {
    let (specs, interval) = programs(args.kind);
    let mut tracer = Tracer::new(args.trace);
    let (prep, setup_s) = jobs::setup(&specs, SETUP_REPS, &mut tracer, tally);
    if args.kind == Kind::DbPaper {
        jobs::check_db_checksum(&prep[0], tally);
    }
    let cfgs: Vec<RunConfig> = prep
        .iter()
        .map(|p| jobs::run_config(p.vm.clone(), interval))
        .collect();
    let order = shuffled(&(0..prep.len()).collect::<Vec<_>>(), args.seed);

    // Whole rounds until the run time is up. In a traced run every
    // other round records spans, so the two halves give the tracing
    // overhead; a traced round also runs, next to each job, the
    // program's control run and a recorded pass, so host drift moves the
    // job and the layers it is compared with alike.
    let mut first: Vec<Option<RunReport>> = vec![None; prep.len()];
    let mut passes: Vec<Vec<Recorded>> = vec![Vec::new(); prep.len()];
    let mut job_ms: Vec<(usize, f64, bool)> = Vec::new();
    let mut round_s: Vec<f64> = Vec::new();
    let min_rounds = if tracer.on() { 2 } else { 1 };
    let start = Instant::now();
    while round_s.len() < min_rounds || start.elapsed() < args.run_for {
        let spans = tracer.on() && round_s.len() % 2 == 1;
        let round_start = Instant::now();
        for &i in &order {
            let p = &prep[i];
            let runtime = HpmRuntime::new(cfgs[i].clone());
            let t0 = Instant::now();
            let result = runtime.run(&p.w.program);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if spans {
                tracer.push("core.runtime_run", i, t0);
            }
            match result {
                Ok(report) => {
                    check_job(args.kind, p, &report, first[i].as_ref(), tally);
                    job_ms.push((i, ms, spans));
                    if first[i].is_none() {
                        first[i] = Some(report);
                    }
                }
                Err(e) => tally.check(false, || format!("{} failed: {e}", p.w.name)),
            }
            if let (true, Some(reference)) = (spans, &first[i]) {
                jobs::timed_control(p, i, &mut tracer, tally);
                let rec = recorder::record(&p.w.program, &cfgs[i]);
                rec.check(p.w.name, reference, tally);
                passes[i].push(rec);
            }
        }
        round_s.push(round_start.elapsed().as_secs_f64());
    }

    if !tracer.on() {
        let mut sim = SimTotals::default();
        let mut bytecodes = 0;
        for (p, r) in prep.iter().zip(&first) {
            if let Some(r) = r {
                sim.add(r, p.spec.per_round);
                bytecodes += r.vm.bytecodes_executed * p.spec.per_round;
            }
        }
        // The median job time of each program, averaged over the
        // programs. A median over the pooled jobs of programs that take
        // from about 40 to 300 ms would fall in the gap between two
        // programs and follow the slowest job of the one and the fastest
        // of the other.
        let per_program: Vec<f64> = (0..prep.len())
            .map(|i| {
                let ms: Vec<f64> = job_ms.iter().filter(|j| j.0 == i).map(|j| j.1).collect();
                median(&ms)
            })
            .collect();
        for (p, ms) in prep.iter().zip(&per_program) {
            eprintln!("{}: median job {ms:.3} ms", p.w.name);
        }
        emit_end_to_end(
            metrics,
            setup_s,
            bytecodes as f64 / median(&round_s) / 1e6,
            per_program.iter().sum::<f64>() / per_program.len() as f64,
            &sim,
        );
        return;
    }

    let mut layers = Layers::default();
    let mut ledger = Ledger::default();
    let (mut interp_gc, mut memsim, mut hpm, mut core) = (0.0, 0.0, 0.0, 0.0);
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (i, p) in prep.iter().enumerate() {
        if passes[i].is_empty() {
            continue;
        }
        let times = p.spec.per_round as f64;
        let rec = Recorded::median_of(&passes[i]);
        layers.add_recorded(&rec, p.spec.per_round);

        let control_ms = tracer.median_ms("vm.control_run", i);
        layers.build_ms += tracer.median_ms("workloads.build", i);
        layers.plan_ms += tracer.median_ms("vm.plan", i);
        layers.control_run_ms += control_ms * times;
        layers.control_bytecodes += p.control.bytecodes * p.spec.per_round;

        let of = |traced: bool| -> Vec<f64> {
            job_ms
                .iter()
                .filter(|j| j.0 == i && j.2 == traced)
                .map(|j| j.1)
                .collect()
        };
        traced += median(&of(true)) * times;
        untraced += median(&of(false)) * times;
        let memsim_ms = rec.memsim_ns as f64 / 1e6;
        interp_gc += (control_ms - memsim_ms) * times;
        memsim += memsim_ms * times;
        hpm += rec.hpm_ns as f64 / 1e6 * times;
        core += rec.core_ns as f64 / 1e6 * times;
    }
    ledger.measured_ms = traced;
    ledger.rows = vec![
        ("vm interpreter + gc (control run - memsim)", interp_gc),
        ("memsim (replay)", memsim),
        ("hpm capture + drain (replay)", hpm),
        ("core attribution (replay)", core),
    ];
    tracer.print_summary();
    ledger.print(match args.kind {
        Kind::DbPaper => "db-paper",
        _ => "suite-dense",
    });
    layers.unexplained_ms = ledger.unexplained_ms();
    layers.trace_overhead_pct = 100.0 * (traced / untraced - 1.0);
    layers.emit(metrics);
}
