//! The per-layer metrics of a traced run. Counts and host times are per
//! pass: one job of each program, weighted by its jobs per round. A
//! layer a workload does not exercise reads 0.

use crate::recorder::Recorded;
use crate::Metrics;

#[derive(Debug, Default)]
pub struct Layers {
    pub build_ms: f64,
    pub plan_ms: f64,
    pub control_run_ms: f64,
    pub control_bytecodes: u64,
    pub rec: Recorded,
    pub telemetry_snapshot_us: f64,
    pub telemetry_absorb_us: f64,
    pub profile_checkout_us: f64,
    pub profile_merge_us: f64,
    pub profile_warm_starts: u64,
    pub profile_cold_starts: u64,
    pub profile_evictions: u64,
    pub serve_overhead_ms: f64,
    pub serve_steals: u64,
    pub unexplained_ms: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    /// Fold in one recorded run, `times` times.
    pub fn add_recorded(&mut self, r: &Recorded, times: u64) {
        let t = &mut self.rec;
        t.accesses += r.accesses * times;
        t.l1_misses += r.l1_misses * times;
        t.l2_misses += r.l2_misses * times;
        t.hpm.events += r.hpm.events * times;
        t.hpm.samples += r.hpm.samples * times;
        t.hpm.polls += r.hpm.polls * times;
        t.attribution.attributed += r.attribution.attributed * times;
        t.attribution.stale += r.attribution.stale * times;
        t.decisions += r.decisions * times;
        t.gc.minor_collections += r.gc.minor_collections * times;
        t.gc.major_collections += r.gc.major_collections * times;
        t.gc.objects_coallocated += r.gc.objects_coallocated * times;
        t.compiles += r.compiles * times;
        t.evictions += r.evictions * times;
        t.deopts += r.deopts * times;
        t.memsim_ns += r.memsim_ns * times;
        t.hpm_ns += r.hpm_ns * times;
        t.core_ns += r.core_ns * times;
    }

    pub fn emit(&self, m: &mut Metrics) {
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let r = &self.rec;
        m.put("workloads.build_ms", self.build_ms, "ms");
        m.put("vm.plan_ms", self.plan_ms, "ms");
        m.put("vm.control_run_ms", self.control_run_ms, "ms");
        m.put(
            "vm.ns_per_bc",
            per((self.control_run_ms * 1e6) as u64, self.control_bytecodes),
            "ns",
        );
        m.put("memsim.accesses", r.accesses as f64, "count");
        m.put("memsim.l1_misses", r.l1_misses as f64, "count");
        m.put("memsim.l2_misses", r.l2_misses as f64, "count");
        m.put("memsim.ns_per_access", per(r.memsim_ns, r.accesses), "ns");
        m.put("hpm.events", r.hpm.events as f64, "count");
        m.put("hpm.samples", r.hpm.samples as f64, "count");
        m.put("hpm.polls", r.hpm.polls as f64, "count");
        m.put("hpm.ns_per_event", per(r.hpm_ns, r.hpm.events), "ns");
        m.put(
            "core.attrib_ns_per_sample",
            per(r.core_ns, r.hpm.samples),
            "ns",
        );
        m.put(
            "core.samples_attributed",
            r.attribution.attributed as f64,
            "count",
        );
        m.put("core.samples_stale", r.attribution.stale as f64, "count");
        m.put("core.decisions", r.decisions as f64, "count");
        m.put("gc.minor", r.gc.minor_collections as f64, "count");
        m.put("gc.major", r.gc.major_collections as f64, "count");
        m.put("gc.coallocated", r.gc.objects_coallocated as f64, "count");
        m.put("jit.compiles", r.compiles as f64, "count");
        m.put("jit.evictions", r.evictions as f64, "count");
        m.put("jit.deopts", r.deopts as f64, "count");
        m.put("telemetry.snapshot_us", self.telemetry_snapshot_us, "us");
        m.put("telemetry.absorb_us", self.telemetry_absorb_us, "us");
        m.put("profile.checkout_us", self.profile_checkout_us, "us");
        m.put("profile.merge_us", self.profile_merge_us, "us");
        m.put(
            "profile.warm_starts",
            self.profile_warm_starts as f64,
            "count",
        );
        m.put(
            "profile.cold_starts",
            self.profile_cold_starts as f64,
            "count",
        );
        m.put("profile.evictions", self.profile_evictions as f64, "count");
        m.put("serve.overhead_ms", self.serve_overhead_ms, "ms");
        m.put("serve.steals", self.serve_steals as f64, "count");
        m.put("ledger.unexplained_ms", self.unexplained_ms, "ms");
        m.put("trace.overhead_pct", self.trace_overhead_pct, "%");
    }
}
