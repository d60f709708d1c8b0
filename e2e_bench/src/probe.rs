//! Direct calls into the lower layers for traced runs: the benchmark
//! replays a workload's own simulation points through `workloads`,
//! `sim` and `core` one call at a time, and reads the executor's
//! `SweepMetrics` after a `Lab::prime`, so each layer's cost is timed
//! at its public boundary.

use crate::stats::ratio;
use crate::tracer::Tracer;
use crate::Outcome;
use common::{CtaId, WarpId};
use isa::{EventCounts, Transaction};
use runtime::SweepReport;
use sim::GpuSim;
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::{Scale, WorkloadSpec};
use xp::ExpConfig;

/// Warps drained per launch when timing instruction generation; a
/// sample keeps full-scale kernels from dominating the traced run.
const GEN_WARPS_PER_LAUNCH: u32 = 2048;
/// Energy estimates timed per simulated point (one takes ~1–2 µs).
const ESTIMATE_REPS: u32 = 50;

/// Accumulated `workloads`, `sim` and `core` figures over direct runs.
#[derive(Debug, Default)]
pub struct SimProbe {
    runs: usize,
    gen: Duration,
    gen_instrs: u64,
    run: Duration,
    cycles: u64,
    instrs: u64,
    dram_txns: u64,
    hop_bytes: u64,
    skipped: u64,
    visited: u64,
    sm_steps: u64,
    sm_slots: u64,
    par_kernels: u64,
    par_fallbacks: u64,
    estimate: Duration,
    estimates: u64,
}

impl SimProbe {
    /// Runs one point layer by layer and returns its event counts.
    pub fn run(
        &mut self,
        tracer: &Tracer,
        w: &WorkloadSpec,
        cfg: &ExpConfig,
        scale: Scale,
    ) -> EventCounts {
        let launches = {
            let _s = tracer.span("workloads.launches");
            w.launches(scale)
        };
        {
            let _s = tracer.span("workloads.gen");
            let t = Instant::now();
            for launch in &launches {
                let grid = launch.program.grid();
                let warps = u64::from(grid.ctas) * u64::from(grid.warps_per_cta);
                let take = warps.min(u64::from(GEN_WARPS_PER_LAUNCH));
                for i in 0..take {
                    let cta = CtaId::new((i / u64::from(grid.warps_per_cta)) as u32);
                    let warp = WarpId::new((i % u64::from(grid.warps_per_cta)) as u32);
                    self.gen_instrs += launch.program.warp_instructions(cta, warp).count() as u64;
                }
            }
            self.gen += t.elapsed();
        }
        let sim_cfg = cfg.sim_config();
        let mut sim = GpuSim::new(&sim_cfg);
        let result = {
            let _s = tracer.span("sim.run_workload");
            let t = Instant::now();
            let r = sim.run_workload(&launches);
            self.run += t.elapsed();
            r
        };
        let counts = result.total_counts();
        let ff = sim.fast_forward_stats();
        let par = sim.par_stats();
        self.runs += 1;
        self.cycles += result.total_cycles();
        self.instrs += counts.total_instructions();
        self.dram_txns += counts.txns.get(Transaction::DramToL2);
        self.hop_bytes += counts.inter_gpm_hop_bytes.count();
        self.skipped += ff.skipped_cycles;
        self.visited += ff.visited_cycles;
        self.sm_steps += ff.sm_steps;
        self.sm_slots += ff.visited_cycles * sim_cfg.total_sms() as u64;
        self.par_kernels += par.kernels;
        self.par_fallbacks += par.serial_fallbacks;
        {
            let _s = tracer.span("core.estimate");
            let t = Instant::now();
            for _ in 0..ESTIMATE_REPS {
                let model = black_box(cfg).energy_config().build_model();
                black_box(model.estimate(black_box(&counts)));
            }
            self.estimate += t.elapsed();
            self.estimates += u64::from(ESTIMATE_REPS);
        }
        counts
    }

    /// Times `build_model()` + `estimate()` alone, for points whose
    /// counts are already known (energy-only what-if deltas).
    pub fn estimate_only(&mut self, tracer: &Tracer, cfg: &ExpConfig, counts: &EventCounts) {
        let _s = tracer.span("core.estimate");
        let t = Instant::now();
        for _ in 0..ESTIMATE_REPS {
            let model = black_box(cfg).energy_config().build_model();
            black_box(model.estimate(black_box(counts)));
        }
        self.estimate += t.elapsed();
        self.estimates += u64::from(ESTIMATE_REPS);
    }

    pub fn report(&self, out: &mut Outcome) {
        let n = self.runs;
        if self.gen_instrs > 0 {
            let ns = self.gen.as_nanos() as f64 / self.gen_instrs as f64;
            out.layer("workloads.gen_ns_per_instr", ns, n);
        }
        if n > 0 {
            let run_ns = self.run.as_nanos() as f64;
            out.layer("sim.run_s", self.run.as_secs_f64(), n);
            out.layer("sim.ns_per_cycle", run_ns / self.cycles.max(1) as f64, n);
            out.layer("sim.ns_per_instr", run_ns / self.instrs.max(1) as f64, n);
            out.layer(
                "sim.ff_skip_ratio",
                ratio(self.skipped as f64, (self.skipped + self.visited) as f64),
                n,
            );
            out.layer(
                "sim.sm_step_ratio",
                ratio(self.sm_steps as f64, self.sm_slots as f64),
                n,
            );
            out.layer(
                "sim.par_fallback_ratio",
                ratio(
                    self.par_fallbacks as f64,
                    (self.par_kernels + self.par_fallbacks) as f64,
                ),
                n,
            );
            out.layer("sim.cycles", self.cycles as f64, n);
            out.layer("sim.warp_instrs", self.instrs as f64, n);
            out.layer("sim.dram_txns", self.dram_txns as f64, n);
            out.layer("sim.inter_gpm_hop_bytes", self.hop_bytes as f64, n);
        }
        if self.estimates > 0 {
            let us = self.estimate.as_nanos() as f64 / 1e3 / self.estimates as f64;
            out.layer("core.estimate_us", us, self.estimates as usize);
        }
    }
}

/// Accumulated executor figures over `Lab::prime` sweeps.
#[derive(Debug, Default)]
pub struct RuntimeProbe {
    primes: usize,
    wall: Duration,
    capacity_s: f64,
    busy_s: f64,
    completed: f64,
    hits: f64,
    retries: f64,
    errors: f64,
}

impl RuntimeProbe {
    /// Records one prime that took `wall` on `threads` workers.
    pub fn record<O>(&mut self, report: &SweepReport<O>, wall: Duration, threads: usize) {
        let m = report.metrics.to_json();
        let get = |k: &str| m.get(k).and_then(common::json::Json::as_f64).unwrap_or(0.0);
        let busy: f64 = m
            .get("worker_busy_secs")
            .and_then(common::json::Json::as_array)
            .map(|a| a.iter().filter_map(common::json::Json::as_f64).sum())
            .unwrap_or(0.0);
        self.primes += 1;
        self.wall += wall;
        self.capacity_s += wall.as_secs_f64() * threads as f64;
        self.busy_s += busy;
        self.completed += get("completed");
        self.hits += get("cache_hits");
        self.retries += get("retries");
        self.errors += get("failed");
    }

    pub fn report(&self, out: &mut Outcome) {
        let n = self.primes;
        if n == 0 {
            return;
        }
        out.layer("runtime.prime_s", self.wall.as_secs_f64() / n as f64, n);
        out.layer(
            "runtime.worker_idle_ratio",
            (1.0 - ratio(self.busy_s, self.capacity_s)).max(0.0),
            n,
        );
        out.layer(
            "runtime.cache_hit_ratio",
            ratio(self.hits, self.completed),
            self.completed as usize,
        );
        out.layer("runtime.retries", self.retries, n);
        out.layer("runtime.errors", self.errors, n);
    }
}

/// A lab with the progress line off: the benchmark's standard error is
/// its report.
pub fn quiet_lab(scale: Scale, threads: usize) -> xp::Lab {
    let mut lab = xp::Lab::with_threads(scale, threads);
    lab.set_progress(false);
    lab
}

/// The fixed warm-up every set-up includes: a few smoke points across
/// GPM counts on a throwaway serial lab, so code, allocator and cache
/// pages are hot before anything is timed.
pub fn warm_up() {
    let w = workloads::by_name("Hotspot").expect("Hotspot is in the suite");
    let lab = quiet_lab(Scale::Smoke, 1);
    for gpms in [1, 4, 16, 32] {
        lab.counts(&w, &ExpConfig::paper_default(gpms, sim::BwSetting::X2));
    }
}
