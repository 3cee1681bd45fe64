//! A benchmark-owned [`RuntimeHooks`] recorder and the layer replays it
//! feeds.
//!
//! The recorder runs the monitoring pipeline of a cold
//! `HpmRuntime::run` through the layers' public types (`HpmSystem`,
//! `OnlineMonitor`, `AdaptivePolicy`), so its simulated run is the
//! monitored run itself. It captures the streams each layer consumes and
//! replays them, in bounded chunks, into shadow instances whose calls are
//! the only ones timed:
//!
//! - every heap access into a `MemoryHierarchy` via `access_batch`, with
//!   a `flush` at every `on_gc` (the VM flushes its hierarchy there);
//! - every access that raised the sampled event into an `HpmSystem` via
//!   `on_event`, and each poll via `poll_into`, with the code epoch
//!   advanced where the VM retired code;
//! - every drained sample batch into an `OnlineMonitor` via
//!   `process_batch`, with artifacts registered and retired in order.
//!
//! Each replay must reproduce what the run saw: the recorded access
//! outcomes, the drained samples, and the attribution counts.

use std::hint::black_box;
use std::time::Instant;

use hpmopt_bytecode::Program;
use hpmopt_core::monitor::AttributionStats;
use hpmopt_core::runtime::{RunConfig, RunReport};
use hpmopt_core::{AdaptivePolicy, OnlineMonitor};
use hpmopt_gc::policy::{CoallocPolicy, NoCoalloc};
use hpmopt_gc::GcStats;
use hpmopt_hpm::{HpmStats, HpmSystem, Sample};
use hpmopt_memsim::{AccessKind, AccessOutcome, BatchAccess, MemoryHierarchy};
use hpmopt_vm::machine::CompiledCode;
use hpmopt_vm::{AccessContext, CodeRetired, RuntimeHooks, Vm};

use crate::{median, Tally};

/// Captured entries replayed per chunk; bounds the recorder's memory.
const CHUNK: usize = 1 << 15;

/// What one recorded run and its replays measured.
#[derive(Debug, Clone, Default)]
pub struct Recorded {
    pub cycles: u64,
    pub accesses: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub hpm: HpmStats,
    pub attribution: AttributionStats,
    pub decisions: u64,
    pub gc: GcStats,
    pub compiles: u64,
    pub evictions: u64,
    pub deopts: u64,
    /// Host ns in `access_batch` + `flush` of the memsim replay.
    pub memsim_ns: u64,
    /// Host ns in `on_event` + `poll_into` of the hpm replay.
    pub hpm_ns: u64,
    /// Host ns in `process_batch` of the attribution replay.
    pub core_ns: u64,
    /// Replayed accesses whose outcome differed from the recorded one.
    pub memsim_mismatches: u64,
    /// Polls whose replayed samples differed from the drained ones.
    pub sample_mismatches: u64,
    pub replay_samples: u64,
    pub replay_attribution: AttributionStats,
}

struct Recorder {
    // The live pipeline, mirroring the runtime's hooks.
    hpm: HpmSystem,
    monitor: OnlineMonitor,
    policy: AdaptivePolicy,
    coalloc: bool,
    samples: Vec<Sample>,
    compiles: u64,
    // memsim replay
    mem: MemoryHierarchy,
    mem_batch: Vec<BatchAccess>,
    mem_seen: Vec<AccessOutcome>,
    mem_out: Vec<AccessOutcome>,
    memsim_ns: u64,
    memsim_mismatches: u64,
    // hpm replay
    hpm_shadow: HpmSystem,
    events: Vec<(u64, u64, AccessOutcome, u64)>,
    shadow_samples: Vec<Sample>,
    hpm_ns: u64,
    sample_mismatches: u64,
    // attribution replay
    core_shadow: OnlineMonitor,
    core_ns: u64,
}

impl Recorder {
    fn replay_accesses(&mut self) {
        if self.mem_batch.is_empty() {
            return;
        }
        self.mem_out.clear();
        let start = Instant::now();
        self.mem.access_batch(&self.mem_batch, &mut self.mem_out);
        self.memsim_ns += start.elapsed().as_nanos() as u64;
        self.memsim_mismatches += self
            .mem_out
            .iter()
            .zip(&self.mem_seen)
            .filter(|(a, b)| a != b)
            .count() as u64;
        self.mem_batch.clear();
        self.mem_seen.clear();
    }

    fn replay_events(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let start = Instant::now();
        for &(pc, addr, outcome, cycles) in &self.events {
            black_box(self.hpm_shadow.on_event(pc, addr, &outcome, cycles));
        }
        self.hpm_ns += start.elapsed().as_nanos() as u64;
        self.events.clear();
    }

    fn poll(&mut self, program: &Program, cycles: u64) -> u64 {
        self.samples.clear();
        let mut cost = self.hpm.poll_into(cycles, &mut self.samples);
        cost += self.monitor.process_batch(&self.samples, cycles);
        if self.coalloc {
            self.policy.refresh(program, &self.monitor, cycles);
        }

        self.replay_events();
        self.shadow_samples.clear();
        let start = Instant::now();
        black_box(self.hpm_shadow.poll_into(cycles, &mut self.shadow_samples));
        self.hpm_ns += start.elapsed().as_nanos() as u64;
        if self.shadow_samples != self.samples {
            self.sample_mismatches += 1;
        }
        let start = Instant::now();
        black_box(self.core_shadow.process_batch(&self.samples, cycles));
        self.core_ns += start.elapsed().as_nanos() as u64;
        cost
    }
}

impl RuntimeHooks for Recorder {
    fn on_access(&mut self, ctx: &AccessContext) -> u64 {
        self.mem_batch.push(BatchAccess {
            addr: ctx.addr.0,
            size: 8,
            kind: AccessKind::Read,
        });
        self.mem_seen.push(ctx.outcome);
        if self.mem_batch.len() >= CHUNK {
            self.replay_accesses();
        }
        if ctx.outcome.raised(self.hpm.config().event) {
            self.events
                .push((ctx.pc, ctx.addr.0, ctx.outcome, ctx.cycles));
            if self.events.len() >= CHUNK {
                self.replay_events();
            }
        }
        self.hpm
            .on_event(ctx.pc, ctx.addr.0, &ctx.outcome, ctx.cycles)
    }

    fn on_poll(&mut self, program: &Program, cycles: u64) -> u64 {
        if self.hpm.poll_due(cycles) {
            self.poll(program, cycles)
        } else {
            0
        }
    }

    fn on_exit(&mut self, program: &Program, cycles: u64) -> u64 {
        self.replay_accesses();
        if self.hpm.enabled() {
            self.poll(program, cycles)
        } else {
            0
        }
    }

    fn on_compile(&mut self, program: &Program, code: &CompiledCode) {
        self.compiles += 1;
        self.monitor.register_artifact(program, code);
        self.core_shadow.register_artifact(program, code);
    }

    fn on_code_retired(&mut self, ev: &CodeRetired, _cycles: u64) {
        self.replay_events();
        self.hpm.set_code_epoch(ev.epoch);
        self.hpm_shadow.set_code_epoch(ev.epoch);
        self.monitor.retire_artifact(ev.code_start, ev.epoch);
        self.core_shadow.retire_artifact(ev.code_start, ev.epoch);
    }

    fn on_gc(&mut self, _stats: &GcStats, _cycles: u64) {
        self.replay_accesses();
        let start = Instant::now();
        self.mem.flush();
        self.memsim_ns += start.elapsed().as_nanos() as u64;
    }

    fn coalloc_policy(&self) -> &dyn CoallocPolicy {
        if self.coalloc {
            &self.policy
        } else {
            &NoCoalloc
        }
    }
}

/// Run `program` cold under `cfg` through the recorder and replay every
/// captured stream. `cfg` must carry no profile (the recorder does not
/// warm-start).
pub fn record(program: &Program, cfg: &RunConfig) -> Recorded {
    let mut rec = Recorder {
        hpm: HpmSystem::new(cfg.hpm),
        monitor: OnlineMonitor::new(cfg.monitor),
        policy: AdaptivePolicy::new(cfg.policy),
        coalloc: cfg.coalloc,
        samples: Vec::with_capacity(cfg.hpm.buffer_capacity),
        compiles: 0,
        mem: MemoryHierarchy::new(cfg.vm.mem.clone()),
        mem_batch: Vec::with_capacity(CHUNK),
        mem_seen: Vec::with_capacity(CHUNK),
        mem_out: Vec::with_capacity(CHUNK),
        memsim_ns: 0,
        memsim_mismatches: 0,
        hpm_shadow: HpmSystem::new(cfg.hpm),
        events: Vec::with_capacity(CHUNK),
        shadow_samples: Vec::with_capacity(cfg.hpm.buffer_capacity),
        hpm_ns: 0,
        sample_mismatches: 0,
        core_shadow: OnlineMonitor::new(cfg.monitor),
        core_ns: 0,
    };
    let summary = Vm::new(program, cfg.vm.clone())
        .run(&mut rec)
        .expect("recorded run completes");
    rec.replay_accesses();
    Recorded {
        cycles: summary.cycles,
        accesses: summary.mem.accesses,
        l1_misses: summary.mem.l1_misses,
        l2_misses: summary.mem.l2_misses,
        hpm: rec.hpm.stats(),
        attribution: rec.monitor.attribution(),
        decisions: rec.policy.events().len() as u64,
        gc: summary.gc,
        compiles: rec.compiles,
        evictions: summary.code_evictions,
        deopts: summary.deopts,
        memsim_ns: rec.memsim_ns,
        hpm_ns: rec.hpm_ns,
        core_ns: rec.core_ns,
        memsim_mismatches: rec.memsim_mismatches,
        sample_mismatches: rec.sample_mismatches,
        replay_samples: rec.hpm_shadow.stats().samples,
        replay_attribution: rec.core_shadow.attribution(),
    }
}

impl Recorded {
    /// The first of several passes over one program, with each host time
    /// replaced by its median over all of them (the counts repeat).
    pub fn median_of(passes: &[Recorded]) -> Recorded {
        let med = |f: fn(&Recorded) -> u64| {
            median(&passes.iter().map(|r| f(r) as f64).collect::<Vec<_>>()) as u64
        };
        Recorded {
            memsim_ns: med(|r| r.memsim_ns),
            hpm_ns: med(|r| r.hpm_ns),
            core_ns: med(|r| r.core_ns),
            ..passes[0].clone()
        }
    }

    /// The replay self-checks against the run's own `HpmRuntime` report.
    pub fn check(&self, name: &str, run: &RunReport, tally: &mut Tally) {
        tally.check(self.cycles == run.cycles, || {
            format!(
                "{name}: recorded run took {} cycles, the runtime's {}",
                self.cycles, run.cycles
            )
        });
        tally.check(self.memsim_mismatches == 0, || {
            format!(
                "{name}: memsim replay differs on {} accesses",
                self.memsim_mismatches
            )
        });
        tally.check(
            self.sample_mismatches == 0
                && self.replay_samples == run.hpm.samples
                && self.hpm.samples == run.hpm.samples,
            || {
                format!(
                    "{name}: hpm replay captured {} samples ({} polls differ), the run {}",
                    self.replay_samples, self.sample_mismatches, run.hpm.samples
                )
            },
        );
        let (a, b) = (self.replay_attribution, run.attribution);
        tally.check(
            a.attributed == b.attributed && a.stale == b.stale && a == self.attribution,
            || format!("{name}: attribution replay {a:?}, the run {b:?}"),
        );
        tally.check(b.foreign == 0 && b.unmapped == 0, || {
            format!(
                "{name}: {} foreign and {} unmapped samples",
                b.foreign, b.unmapped
            )
        });
    }
}
