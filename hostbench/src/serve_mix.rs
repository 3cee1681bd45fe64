//! `serve-mix`: a closed-loop client of the multi-tenant `Service`.
//!
//! One client thread keeps [`OUTSTANDING`] jobs in flight against two
//! workers and waits for them in submission order, the way callers that
//! submit and then `wait` behave. Each round is the same seeded sequence
//! of short jobs (`fop`) and medium ones (`jython`, `hsqldb`, `antlr`,
//! `jess`), spread over three tenants. The shared profile repository is
//! warmed before the timed part, so timed jobs start warm.

use std::collections::VecDeque;
use std::time::Instant;

use hpmopt_core::runtime::{HpmRuntime, RunConfig};
use hpmopt_core::ProfileOptions;
use hpmopt_profile::SharedProfileRepo;
use hpmopt_serve::job::{fingerprint_of, profile_label, run_config_for};
use hpmopt_serve::{run_job, JobOutcome, JobSpec, Service, ServiceConfig};
use hpmopt_telemetry::{MetricId, Telemetry, DEFAULT_TRACE_CAPACITY};
use hpmopt_workloads::Size;

use crate::jobs::{self, Prepared, ProgSpec, SimTotals};
use crate::layers::Layers;
use crate::recorder;
use crate::trace::{Ledger, Tracer};
use crate::{emit_end_to_end, median, shuffled, Args, Metrics, Tally};

const WORKERS: usize = 2;
/// Jobs in flight: one per worker, below every tenant's live-job cap,
/// so nothing queues behind a busy pool and nothing is rejected.
const OUTSTANDING: usize = 2;
const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
/// Short jobs after each medium job. Waiting in submission order makes
/// the first of them wait for the medium job; the rest show the
/// service's per-job cost, and they are most of the jobs, so the median
/// latency is a short job's.
const SHORT_PER_MEDIUM: u64 = 6;
/// Repetitions behind each per-layer host time of the traced run.
const REPS: usize = 9;
/// Set-up repetitions per run: the set-up takes well under a second, so
/// it is repeated more often than on the other workloads to keep its
/// median steady.
const SETUP_REPS: usize = 9;

/// Program 0 is the short job; the rest are the medium ones.
fn programs() -> Vec<ProgSpec> {
    let spec = |name, per_round| ProgSpec {
        name,
        size: Size::Tiny,
        tiered: false,
        per_round,
    };
    vec![
        spec("fop", 4 * SHORT_PER_MEDIUM),
        spec("jython", 1),
        spec("hsqldb", 1),
        spec("antlr", 1),
        spec("jess", 1),
    ]
}

/// One round: `(program, tenant)` per job. The seed orders the medium
/// jobs and rotates the tenants.
fn round(seed: u64) -> Vec<(usize, &'static str)> {
    let mediums = shuffled(&[1usize, 2, 3, 4], seed);
    let mut jobs = Vec::new();
    for m in mediums {
        jobs.push(m);
        jobs.extend(std::iter::repeat_n(0, SHORT_PER_MEDIUM as usize));
    }
    jobs.iter()
        .enumerate()
        .map(|(k, &p)| (p, TENANTS[(k + seed as usize) % TENANTS.len()]))
        .collect()
}

/// The service's run configuration for a program, warm from `repo`.
fn warm_config(p: &Prepared, repo: &SharedProfileRepo) -> RunConfig {
    let spec = JobSpec::new(TENANTS[0], p.spec.name);
    let mut cfg = run_config_for(&spec, &p.w);
    cfg.profile = ProfileOptions::from_checkout(
        repo.checkout(&fingerprint_of(&spec, &p.w)),
        &profile_label(&spec),
    );
    cfg
}

struct InFlight {
    id: u64,
    program: usize,
    submitted: Instant,
    spans: bool,
}

pub fn run(args: &Args, tally: &mut Tally, metrics: &mut Metrics) {
    let specs = programs();
    let mut tracer = Tracer::new(args.trace);
    let (prep, setup_s) = jobs::setup(&specs, SETUP_REPS, &mut tracer, tally);
    let svc = Service::start(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    });

    // Warm the repository: one cold job per program, one at a time.
    for p in &prep {
        let report = match svc.submit(JobSpec::new(TENANTS[0], p.spec.name)) {
            Ok(id) => svc.wait(id),
            Err(e) => {
                tally.check(false, || format!("warm-up {} rejected: {e}", p.w.name));
                continue;
            }
        };
        tally.check(
            report.outcome == JobOutcome::Completed && report.digest == p.control.digest,
            || format!("warm-up {}: {:?}", p.w.name, report.outcome),
        );
    }

    // Simulated totals of one round: each program once, warm from the
    // repository as it stands after the warm-up, weighted by its jobs
    // per round.
    let mut sim = SimTotals::default();
    for p in &prep {
        match HpmRuntime::new(warm_config(p, svc.repo())).run(&p.w.program) {
            Ok(r) => {
                tally.check(r.warm_start && r.result_digest == p.control.digest, || {
                    format!("{}: warm solo run differs from its control", p.w.name)
                });
                sim.add(&r, p.spec.per_round);
            }
            Err(e) => tally.check(false, || format!("{} failed: {e}", p.w.name)),
        }
    }

    let sequence = round(args.seed);
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let mut latency: Vec<(usize, f64, bool)> = Vec::new();
    let mut warm = 0u64;
    let mut fresh = vec![None; prep.len()];
    let mut complete = |job: InFlight, tracer: &mut Tracer, tally: &mut Tally| {
        let waited = Instant::now();
        let report = svc.wait(job.id);
        let ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        if job.spans {
            tracer.push("serve.wait", job.program, waited);
        }
        let p = &prep[job.program];
        tally.check(
            report.outcome == JobOutcome::Completed && report.digest == p.control.digest,
            || format!("job {} ({}): {:?}", report.id, p.w.name, report.outcome),
        );
        warm += u64::from(report.warm);
        latency.push((job.program, ms, job.spans));
    };
    // A round runs from the submission of its first job to that of the
    // next round's first job; the last one ends when every job is back.
    let mut round_starts: Vec<Instant> = Vec::new();
    let min_rounds = if tracer.on() { 2 } else { 1 };
    let start = Instant::now();
    while round_starts.len() < min_rounds || start.elapsed() < args.run_for {
        let spans = tracer.on() && round_starts.len() % 2 == 1;
        round_starts.push(Instant::now());
        for &(program, tenant) in &sequence {
            if in_flight.len() == OUTSTANDING {
                let job = in_flight.pop_front().expect("jobs in flight");
                complete(job, &mut tracer, tally);
            }
            let submitted = Instant::now();
            match svc.submit(JobSpec::new(tenant, prep[program].spec.name)) {
                Ok(id) => {
                    if spans {
                        tracer.push("serve.submit", program, submitted);
                    }
                    in_flight.push_back(InFlight {
                        id,
                        program,
                        submitted,
                        spans,
                    });
                }
                Err(e) => tally.check(false, || format!("job rejected: {e}")),
            }
        }
        if spans {
            // A traced round ends with the service idle and each program
            // run solo, the way a worker runs it, and as its control run,
            // so host drift moves the latencies and what they are
            // compared with alike.
            while let Some(job) = in_flight.pop_front() {
                complete(job, &mut tracer, tally);
            }
            for (i, p) in prep.iter().enumerate() {
                let spec = JobSpec::new(TENANTS[0], p.spec.name);
                let checkout = svc.repo().checkout(&fingerprint_of(&spec, &p.w));
                let run = tracer.span("serve.solo_run_job", i, || {
                    run_job(&spec, checkout, None, None)
                });
                tally.check(
                    run.outcome == JobOutcome::Completed && run.digest == p.control.digest,
                    || format!("solo {}: {:?}", p.w.name, run.outcome),
                );
                fresh[i] = run.fresh_profile;
                jobs::timed_control(p, i, &mut tracer, tally);
            }
        }
    }
    while let Some(job) = in_flight.pop_front() {
        complete(job, &mut tracer, tally);
    }
    round_starts.push(Instant::now());
    let round_s: Vec<f64> = round_starts
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect();
    tally.check(warm > 0, || "no timed job started warm".into());

    if !tracer.on() {
        let all: Vec<f64> = latency.iter().map(|l| l.1).collect();
        let bytecodes: u64 = prep
            .iter()
            .map(|p| p.control.bytecodes * p.spec.per_round)
            .sum();
        emit_end_to_end(
            metrics,
            setup_s,
            bytecodes as f64 / median(&round_s) / 1e6,
            median(&all),
            &sim,
        );
        svc.shutdown();
        return;
    }

    let mut layers = Layers::default();
    let mut ledger = Ledger::default();
    let (mut solo_rows, mut build_rows, mut absorb_rows, mut repo_rows) = (0.0, 0.0, 0.0, 0.0);
    let (mut traced, mut untraced) = (0.0, 0.0);
    let solo_ms: Vec<f64> = (0..prep.len())
        .map(|i| tracer.median_ms("serve.solo_run_job", i))
        .collect();
    let timed_us = |f: &mut dyn FnMut()| {
        let us: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&us)
    };
    for (i, p) in prep.iter().enumerate() {
        let times = p.spec.per_round as f64;
        let spec = JobSpec::new(TENANTS[0], p.spec.name);

        // Telemetry: freeze a job's registry, fold it into a fleet one.
        let mut cfg = warm_config(p, svc.repo());
        let job_telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
        cfg.telemetry = job_telemetry.clone();
        let cycles = HpmRuntime::new(cfg)
            .run(&p.w.program)
            .map_or(0, |r| r.cycles);
        let snapshot = job_telemetry.snapshot(cycles);
        let snapshot_us = timed_us(&mut || drop(job_telemetry.snapshot(cycles)));
        let fleet = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
        let absorb_us = timed_us(&mut || fleet.absorb(&snapshot));

        // Profile repository: replay the solo job's fresh profile.
        let repo = SharedProfileRepo::new();
        let (mut checkout_us, mut merge_us) = (0.0, 0.0);
        if let Some(fresh) = &fresh[i] {
            repo.merge(fresh, 0.5);
            merge_us = timed_us(&mut || repo.merge(fresh, 0.5));
            checkout_us = timed_us(&mut || drop(repo.checkout(&fresh.fingerprint)));
        }
        tally.check(fresh[i].is_some(), || {
            format!("{}: no fresh profile", p.w.name)
        });

        // Layer replays over a cold run of the same configuration.
        let cold = run_config_for(&spec, &p.w);
        match HpmRuntime::new(cold.clone()).run(&p.w.program) {
            Ok(reference) => {
                let rec = recorder::record(&p.w.program, &cold);
                rec.check(p.w.name, &reference, tally);
                layers.add_recorded(&rec, p.spec.per_round);
            }
            Err(e) => tally.check(false, || format!("{} failed: {e}", p.w.name)),
        }

        let build_ms = tracer.median_ms("workloads.build", i);
        layers.build_ms += build_ms;
        layers.plan_ms += tracer.median_ms("vm.plan", i);
        layers.control_run_ms += tracer.median_ms("vm.control_run", i) * times;
        layers.control_bytecodes += p.control.bytecodes * p.spec.per_round;
        layers.telemetry_snapshot_us += snapshot_us * times;
        layers.telemetry_absorb_us += absorb_us * times;
        layers.profile_checkout_us += checkout_us * times;
        layers.profile_merge_us += merge_us * times;

        let of = |traced: bool| -> Vec<f64> {
            latency
                .iter()
                .filter(|l| l.0 == i && l.2 == traced)
                .map(|l| l.1)
                .collect()
        };
        traced += median(&of(true)) * times;
        untraced += median(&of(false)) * times;
        solo_rows += solo_ms[i] * times;
        // Outside the solo job, the service builds the program again at
        // submit and at claim.
        build_rows += 2.0 * build_ms * times;
        absorb_rows += absorb_us / 1e3 * times;
        repo_rows += (checkout_us + merge_us) / 1e3 * times;
    }
    ledger.measured_ms = traced;
    ledger.rows = vec![
        ("solo run_job (vm, memsim, hpm, core, snapshot)", solo_rows),
        ("workloads.build at submit and claim", build_rows),
        ("telemetry absorb", absorb_rows),
        ("profile checkout + merge", repo_rows),
    ];
    tracer.print_summary();
    ledger.print("serve-mix");

    let fleet = svc.snapshot();
    layers.profile_warm_starts = fleet.get(MetricId::ProfileWarmStarts);
    layers.profile_cold_starts = fleet.get(MetricId::ProfileColdStarts);
    layers.profile_evictions = fleet.get(MetricId::ServeRepoEvictions);
    layers.serve_steals = fleet.get(MetricId::ServeSteals);
    let overhead: Vec<f64> = latency
        .iter()
        .filter(|l| l.2)
        .map(|l| l.1 - solo_ms[l.0])
        .collect();
    layers.serve_overhead_ms = median(&overhead);
    layers.unexplained_ms = ledger.unexplained_ms();
    layers.trace_overhead_pct = 100.0 * (traced / untraced - 1.0);
    layers.emit(metrics);
    svc.shutdown();
}
