//! The run recipe, the timed set-up (build, plan, control run) and the
//! output oracles computed apart from the monitored runs.

use std::time::Instant;

use hpmopt_core::runtime::{HpmRuntime, RunConfig, RunReport};
use hpmopt_gc::{CollectorKind, HeapConfig};
use hpmopt_hpm::{HpmConfig, SamplingInterval};
use hpmopt_vm::{CompilationPlan, NoHooks, Value, Vm, VmConfig};
use hpmopt_workloads::{by_name, Size, Workload};

use crate::trace::Tracer;
use crate::{median, Tally};

/// Heap multiple of every job: GenMS at 4x the program's minimum heap.
const HEAP_MULT: u64 = 4;
/// The monitoring clock at simulation scale: the simulated runs are
/// about four orders of magnitude shorter than the paper's, so the
/// monitoring stack is told the CPU runs at 100 MHz.
const MONITOR_CPU_HZ: u64 = 100_000_000;
/// Kernel sample-buffer capacity at simulation scale.
const BUFFER_CAPACITY: usize = 256;
/// Auto-mode sample-rate target at simulation scale.
const AUTO_TARGET_PER_SEC: u64 = 1_000;

/// One program of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ProgSpec {
    pub name: &'static str,
    pub size: Size,
    /// Run under the tiered JIT (timer tier-1, back-edge tier-2) with a
    /// code cache far smaller than the program's code, instead of a
    /// pre-generated compilation plan.
    pub tiered: bool,
    /// Jobs of this program in one round of the workload.
    pub per_round: u64,
}

/// What the unmonitored control run of a program produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Control {
    pub digest: u64,
    pub bytecodes: u64,
    pub l1_misses: u64,
    /// The `checksum` static, for programs that have one.
    pub checksum: Option<i64>,
}

/// A built program with its job VM configuration and control results.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub spec: ProgSpec,
    pub w: Workload,
    pub vm: VmConfig,
    pub control: Control,
}

fn heap_config(w: &Workload) -> HeapConfig {
    HeapConfig {
        heap_bytes: w.min_heap_bytes * HEAP_MULT,
        nursery_bytes: 256 * 1024,
        los_bytes: 64 * 1024 * 1024,
        collector: CollectorKind::GenMs,
        ..Default::default()
    }
}

/// The pseudo-adaptive compilation plan: one profiling run under the
/// timer-driven tier-1 recompiler, entry method always included.
fn generate_plan(w: &Workload) -> CompilationPlan {
    let mut vm = VmConfig {
        heap: heap_config(w),
        ..VmConfig::default()
    };
    vm.jit.sample_period_cycles = 200_000;
    vm.jit.tier1_threshold = 2;
    let plan = HpmRuntime::generate_plan(&w.program, vm).expect("plan profiling run completes");
    let mut methods = plan.methods().to_vec();
    methods.push(w.program.entry());
    CompilationPlan::new(methods)
}

/// The VM configuration every job and control run of a program uses.
fn job_vm(w: &Workload, plan: Option<CompilationPlan>, tiered: bool) -> VmConfig {
    let mut vm = VmConfig {
        heap: heap_config(w),
        plan,
        step_limit: Some(3_000_000_000),
        ..VmConfig::default()
    };
    vm.jit.tier1_enabled = tiered;
    if tiered {
        vm.jit.sample_period_cycles = 200_000;
        vm.jit.tier1_threshold = 2;
        vm.jit.tier2_enabled = true;
        vm.jit.tier2_threshold = 64;
        vm.jit.code_cache_capacity_bytes = Some(512);
    }
    vm
}

/// A monitored, co-allocating run configuration.
pub fn run_config(vm: VmConfig, interval: SamplingInterval) -> RunConfig {
    RunConfig {
        vm,
        hpm: HpmConfig {
            interval,
            buffer_capacity: BUFFER_CAPACITY,
            cpu_hz: MONITOR_CPU_HZ,
            ..HpmConfig::default()
        },
        coalloc: true,
        policy: hpmopt_core::policy::PolicyConfig {
            min_field_misses: 4,
        },
        ..RunConfig::default()
    }
}

pub fn auto_interval() -> SamplingInterval {
    SamplingInterval::Auto {
        target_per_sec: AUTO_TARGET_PER_SEC,
    }
}

fn setup_once(specs: &[ProgSpec], tracer: &mut Tracer) -> Vec<Prepared> {
    specs
        .iter()
        .enumerate()
        .map(|(key, &spec)| {
            let w = tracer
                .span("workloads.build", key, || by_name(spec.name, spec.size))
                .expect("program name is known");
            let plan = (!spec.tiered).then(|| tracer.span("vm.plan", key, || generate_plan(&w)));
            let vm = job_vm(&w, plan, spec.tiered);
            let control = tracer.span("setup.control_run", key, || {
                let mut machine = Vm::new(&w.program, vm.clone());
                let summary = machine.run(&mut NoHooks).expect("control run completes");
                let checksum = w
                    .program
                    .statics()
                    .iter()
                    .position(|s| s.name() == "checksum")
                    .and_then(|i| match machine.static_value(i) {
                        Value::Int(v) => Some(v),
                        Value::Ref(_) => None,
                    });
                Control {
                    digest: machine.state_digest(),
                    bytecodes: summary.bytecodes_executed,
                    l1_misses: summary.mem.l1_misses,
                    checksum,
                }
            });
            Prepared {
                spec,
                w,
                vm,
                control,
            }
        })
        .collect()
}

/// Set up `reps` times; returns the last set-up and the median set-up
/// time in seconds (`setup_s`). Every repetition must agree.
pub fn setup(
    specs: &[ProgSpec],
    reps: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Vec<Prepared>, f64) {
    let mut seconds = Vec::new();
    let mut last: Option<Vec<Prepared>> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let prepared = setup_once(specs, tracer);
        seconds.push(start.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            let same = prev
                .iter()
                .zip(&prepared)
                .all(|(a, b)| a.control == b.control);
            tally.check(same, || "set-up repetitions disagree".into());
        }
        last = Some(prepared);
    }
    (last.expect("at least one set-up"), median(&seconds))
}

/// One unmonitored control run of `p`, timed as a `vm.control_run`
/// span; it must execute the control's bytecodes again.
pub fn timed_control(p: &Prepared, key: usize, tracer: &mut Tracer, tally: &mut Tally) {
    let bytecodes = tracer.span("vm.control_run", key, || {
        Vm::new(&p.w.program, p.vm.clone())
            .run(&mut NoHooks)
            .map(|s| s.bytecodes_executed)
    });
    tally.check(
        matches!(bytecodes, Ok(n) if n == p.control.bytecodes),
        || format!("{}: control run {bytecodes:?}", p.w.name),
    );
}

/// Check the `db` checksum static against a plain-Rust reference.
pub fn check_db_checksum(p: &Prepared, tally: &mut Tally) {
    let want = db_reference_checksum(p.spec.size);
    tally.check(p.control.checksum == Some(want), || {
        format!("db checksum {:?}, reference {want}", p.control.checksum)
    });
}

/// The `db` result computed without the VM: 25,000 records whose
/// payload chars are `(seed + j) & 0x7fff`, looked up by an xorshift64
/// stream seeded with `0x00c0ffee` and masked non-negative; the checksum
/// is the wrapping sum of the looked-up records' char sums.
pub fn db_reference_checksum(size: Size) -> i64 {
    const RECORDS: i64 = 25_000;
    const CHARS: i64 = 12;
    let f = size.factor();
    let key_of = |record: i64| (0..CHARS).map(|j| (record + j) & 0x7fff).sum::<i64>();
    let mut x: i64 = 0x00c0_ffee;
    let mut checksum: i64 = 0;
    for _ in 0..2 + f {
        for _ in 0..RECORDS * f / 2 {
            x ^= x.wrapping_shl(13);
            x ^= ((x as u64) >> 7) as i64;
            x ^= x.wrapping_shl(17);
            let record = (x & i64::MAX) % RECORDS;
            checksum = checksum.wrapping_add(key_of(record));
        }
    }
    checksum
}

/// Simulated totals of one pass over a workload's jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub cycles: u64,
    pub l1_misses: u64,
    pub monitoring_cycles: u64,
}

impl SimTotals {
    pub fn add(&mut self, r: &RunReport, times: u64) {
        self.cycles += r.cycles * times;
        self.l1_misses += r.vm.mem.l1_misses * times;
        self.monitoring_cycles += r.cycle_buckets().monitoring_cycles() * times;
    }

    pub fn overhead_pct(&self) -> f64 {
        100.0 * self.monitoring_cycles as f64 / self.cycles as f64
    }
}
