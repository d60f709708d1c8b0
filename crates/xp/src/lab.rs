//! The lab: runs (workload, configuration) points through the performance
//! simulator, caches the event counts, and evaluates energy metrics.
//!
//! Simulation is the expensive half (seconds per point); energy evaluation
//! is microseconds. The cache is keyed by everything that affects the
//! *simulation* — energy-model knobs (link pJ/bit, amortization) reuse the
//! same counts, which is exactly how the paper's point studies work.
//!
//! Since the runtime port, the cache is a [`runtime::ShardedCache`] shared
//! across threads and sweeps go through a [`runtime::SweepExecutor`]:
//! [`Lab::prime_plan`] simulates every point of a [`SweepPlan`] in
//! parallel, and evaluation then reads the warm cache serially, so the
//! printed output is byte-for-byte identical no matter how many worker
//! threads ran the simulations. Three callers prime: the `xp run` union
//! prime, the daemon's batch prime, and
//! [`crate::artifact::Artifact::evaluate`] for its own plan; figure and
//! study bodies only read. [`Lab::plan_is_cached`] is the read-only twin:
//! it probes the very points a prime of the same plan fills.

use crate::artifact::SweepPlan;
use crate::configs::ExpConfig;
use crate::validation;
use common::units::Time;
use gpujoule::{EdpScalingEfficiency, EnergyBreakdown, EnergyDelay};
use isa::EventCounts;
use runtime::{FaultPlan, RetryPolicy, ShardedCache, SweepExecutor, SweepMetrics, SweepReport};
use sim::GpuSim;
use std::sync::{Arc, Mutex};
use workloads::{Scale, WorkloadSpec};

/// A fully evaluated experiment point.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Workload name.
    pub workload: String,
    /// The configuration evaluated.
    pub config: ExpConfig,
    /// Simulated event counts (workload total).
    pub counts: Arc<EventCounts>,
    /// Energy breakdown under this configuration's energy model.
    pub breakdown: EnergyBreakdown,
}

impl RunPoint {
    /// The (energy, delay) pair of this point.
    pub fn energy_delay(&self) -> EnergyDelay {
        EnergyDelay::new(self.breakdown.total(), self.counts.elapsed)
    }

    /// Time to solution.
    pub fn duration(&self) -> Time {
        self.counts.elapsed
    }
}

/// Cache key: the simulation-relevant parts of a configuration. Float
/// knobs are keyed by their exact bit patterns, so two configurations
/// share an entry only when they simulate identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SimKey {
    workload: String,
    gpms: usize,
    bw: &'static str,
    topology: String,
    link_latency: u64,
    schedule: String,
    pages: String,
    l2_mode: String,
    mlp: usize,
    compression_bits: u64,
    clock_bits: u64,
    warp_scheduler: String,
}

/// The simulation cache key for `(workload, config)`.
fn sim_key(workload: &WorkloadSpec, config: &ExpConfig) -> SimKey {
    let sim_cfg = config.sim_config();
    SimKey {
        workload: workload.name.to_string(),
        gpms: config.gpms,
        bw: config.bw.label(),
        topology: config.topology.to_string(),
        link_latency: sim_cfg.link_latency,
        schedule: sim_cfg.cta_schedule.to_string(),
        pages: sim_cfg.page_policy.to_string(),
        l2_mode: sim_cfg.l2_mode.to_string(),
        mlp: sim_cfg.gpm.mlp_per_warp,
        compression_bits: sim_cfg.link_compression.to_bits(),
        clock_bits: config.clock_scale.to_bits(),
        warp_scheduler: sim_cfg.warp_scheduler.to_string(),
    }
}

/// The simulations evaluating `plan` over `suite` reads: each workload at
/// the 1-GPM baseline (every metric normalizes to it), then at each of
/// the plan's distinct configs. A plan without configs reads none. This
/// is the only enumeration of a plan's points — [`Lab::prime_plan`] fills
/// them and [`Lab::plan_is_cached`] probes them, so the two cannot drift.
fn plan_points(suite: &[WorkloadSpec], plan: &SweepPlan) -> Vec<(WorkloadSpec, ExpConfig)> {
    let configs = plan.distinct_configs();
    if configs.is_empty() {
        return Vec::new();
    }
    let baseline = ExpConfig::baseline();
    let mut points = Vec::with_capacity(suite.len() * (configs.len() + 1));
    for w in suite {
        points.push((w.clone(), baseline.clone()));
        for cfg in &configs {
            points.push((w.clone(), cfg.clone()));
        }
    }
    points
}

/// Runs the simulator for one `(workload, config)` point.
fn simulate(scale: Scale, workload: &WorkloadSpec, config: &ExpConfig) -> Arc<EventCounts> {
    let sim_cfg = config.sim_config();
    let mut sim = GpuSim::new(&sim_cfg);
    let result = sim.run_workload(&workload.launches(scale));
    Arc::new(result.total_counts())
}

/// The experiment runner: a parallel sweep executor in front of a
/// process-wide simulation cache.
///
/// [`Lab::new`] is serial (one thread, no pool) — the exact semantics the
/// lab had before the runtime port, which unit tests and benches rely on.
/// The `xp` driver constructs a parallel lab with [`Lab::with_threads`]
/// from `--threads N` or `MMGPU_THREADS`.
pub struct Lab {
    scale: Scale,
    cache: Arc<ShardedCache<SimKey, Arc<EventCounts>>>,
    executor: SweepExecutor,
    /// Metrics of every [`Lab::prime`] sweep, in execution order (the
    /// `xp` driver records the whole history in its run manifest).
    sweeps: Mutex<Vec<Arc<SweepMetrics>>>,
}

impl Lab {
    /// A serial lab running workloads at the given problem scale.
    pub fn new(scale: Scale) -> Self {
        Lab::with_threads(scale, 1)
    }

    /// A lab whose sweeps run on `threads` worker threads (1 = serial).
    pub fn with_threads(scale: Scale, threads: usize) -> Self {
        let threads = threads.max(1);
        Lab {
            scale,
            cache: Arc::new(ShardedCache::for_threads(threads)),
            executor: SweepExecutor::new(threads).with_progress(threads > 1),
            sweeps: Mutex::new(Vec::new()),
        }
    }

    /// Enables or disables the executor's periodic stderr progress line
    /// in place. [`Lab::with_threads`] turns it on for parallel labs;
    /// the `xpd` daemon turns it back off so nothing interleaves with
    /// its per-request log lines (protocol responses go to sockets and
    /// are never at risk, but server logs should stay line-atomic too).
    pub fn set_progress(&mut self, progress: bool) {
        self.executor.set_progress(progress);
    }

    /// Sets the executor's retry policy for subsequent sweeps.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.executor.set_retry_policy(policy);
        self
    }

    /// Arms a deterministic fault plan on the executor (tests and the
    /// `xp --faults` flag).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.executor.set_faults(Some(plan));
        self
    }

    /// The problem scale this lab runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Number of sweep worker threads (1 means serial).
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Simulated event counts for `(workload, config)`, cached.
    pub fn counts(&self, workload: &WorkloadSpec, config: &ExpConfig) -> Arc<EventCounts> {
        let key = sim_key(workload, config);
        self.cache
            .get_or_compute_unwrap(&key, || simulate(self.scale, workload, config))
    }

    /// Whether the counts for `(workload, config)` are already cached —
    /// a read-only probe that never simulates and never waits on an
    /// in-progress simulation. The cache only grows, so a `true` stays
    /// true: [`Lab::counts`] for this pair is then a pure lookup.
    pub fn is_cached(&self, workload: &WorkloadSpec, config: &ExpConfig) -> bool {
        self.cache.get(&sim_key(workload, config)).is_some()
    }

    /// Simulates every `(workload, config)` pair on the executor's worker
    /// threads, filling the cache. Duplicate pairs — and pairs already
    /// cached by earlier sweeps — are simulated once. Returns the sweep
    /// report (submission-ordered outcomes plus metrics); a panicking
    /// point surfaces as a per-point [`runtime::SweepError`] without
    /// aborting the rest of the sweep. An empty point list is not a
    /// sweep: it leaves [`Lab::sweep_history`] untouched.
    pub fn prime(&self, points: &[(WorkloadSpec, ExpConfig)]) -> SweepReport<Arc<EventCounts>> {
        let _span = trace::span("xp.prime");
        let scale = self.scale;
        let items: Vec<(SimKey, (WorkloadSpec, ExpConfig))> = points
            .iter()
            .map(|(w, c)| (sim_key(w, c), (w.clone(), c.clone())))
            .collect();
        let report = self
            .executor
            .run_keyed(&self.cache, items, move |_key, (w, c)| {
                simulate(scale, w, c)
            });
        if !points.is_empty() {
            self.sweeps
                .lock()
                .unwrap()
                .push(Arc::clone(&report.metrics));
        }
        report
    }

    /// Primes everything evaluating `plan` over `suite` reads: the fitted
    /// model when the plan needs it, then the suite at the 1-GPM baseline
    /// and at each of the plan's distinct configs, in one executor sweep.
    /// Returns that sweep's report (empty, and not recorded in
    /// [`Lab::sweep_history`], when the plan has no configs).
    pub fn prime_plan(
        &self,
        suite: &[WorkloadSpec],
        plan: &SweepPlan,
    ) -> SweepReport<Arc<EventCounts>> {
        if plan.needs_fit {
            let _ = validation::fit_model_cached(self.scale);
        }
        self.prime(&plan_points(suite, plan))
    }

    /// Whether everything [`Lab::prime_plan`] would fill for `plan` is
    /// already here — a read-only probe over the same points that never
    /// simulates, never fits, and never waits on work in progress. Both
    /// caches only grow, so a `true` stays true.
    pub fn plan_is_cached(&self, suite: &[WorkloadSpec], plan: &SweepPlan) -> bool {
        (!plan.needs_fit || validation::fit_is_cached(self.scale))
            && plan_points(suite, plan)
                .iter()
                .all(|(w, c)| self.is_cached(w, c))
    }

    /// Metrics of the most recent [`Lab::prime`] sweep, if any ran.
    pub fn last_sweep_metrics(&self) -> Option<Arc<SweepMetrics>> {
        self.sweeps.lock().unwrap().last().cloned()
    }

    /// Metrics of every sweep this lab has run, in execution order.
    pub fn sweep_history(&self) -> Vec<Arc<SweepMetrics>> {
        self.sweeps.lock().unwrap().clone()
    }

    /// Prints the most recent sweep's summary table to stderr, plus the
    /// total number of cached simulations. No-op for serial labs (the
    /// historical quiet behavior) and before any sweep has run.
    pub fn print_sweep_summary(&self) {
        if self.threads() <= 1 {
            return;
        }
        if let Some(metrics) = self.last_sweep_metrics() {
            eprintln!(
                "\nlast sweep ({} threads):\n{}total cached simulations: {}",
                self.threads(),
                metrics.summary_table().render(),
                self.cached_runs()
            );
        }
    }

    /// Fully evaluates one experiment point.
    pub fn point(&self, workload: &WorkloadSpec, config: &ExpConfig) -> RunPoint {
        let counts = self.counts(workload, config);
        let model = config.energy_config().build_model();
        let breakdown = model.estimate(&counts);
        RunPoint {
            workload: workload.name.to_string(),
            config: config.clone(),
            counts,
            breakdown,
        }
    }

    /// The 1-GPM baseline point for a workload.
    pub fn baseline(&self, workload: &WorkloadSpec) -> RunPoint {
        self.point(workload, &ExpConfig::baseline())
    }

    /// EDPSE (%) of `config` for one workload against its 1-GPM baseline.
    pub fn edpse(&self, workload: &WorkloadSpec, config: &ExpConfig) -> f64 {
        let base = self.baseline(workload).energy_delay();
        let scaled = self.point(workload, config).energy_delay();
        EdpScalingEfficiency::compute(base, scaled, config.gpms)
            .expect("gpms >= 1")
            .percent()
    }

    /// Speedup of `config` over the 1-GPM baseline for one workload.
    pub fn speedup(&self, workload: &WorkloadSpec, config: &ExpConfig) -> f64 {
        let base = self.baseline(workload).energy_delay();
        let scaled = self.point(workload, config).energy_delay();
        scaled.speedup_over(base)
    }

    /// Energy of `config` normalized to the 1-GPM baseline.
    pub fn energy_ratio(&self, workload: &WorkloadSpec, config: &ExpConfig) -> f64 {
        let base = self.baseline(workload).energy_delay();
        let scaled = self.point(workload, config).energy_delay();
        scaled.energy_ratio_over(base)
    }

    /// Number of cached simulation results.
    pub fn cached_runs(&self) -> usize {
        self.cache.len()
    }
}

// The executor moves these across worker threads; keep the bound explicit
// so a future `Rc`/`RefCell` in the simulator fails here, with a clear
// message, instead of deep inside a closure bound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GpuSim>();
    assert_send_sync::<WorkloadSpec>();
    assert_send_sync::<ExpConfig>();
    assert_send_sync::<EventCounts>();
    assert_send_sync::<Lab>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sim::BwSetting;
    use workloads::by_name;

    #[test]
    fn cache_hits_for_energy_only_variants() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Stream").unwrap();
        let cfg = ExpConfig::paper_default(2, BwSetting::X2);
        let _ = lab.point(&w, &cfg);
        assert_eq!(lab.cached_runs(), 1);
        // Same sim, different energy knob: no new simulation.
        let cfg2 = cfg.clone().with_link_energy_mult(4.0);
        let _ = lab.point(&w, &cfg2);
        assert_eq!(lab.cached_runs(), 1);
        // Different GPM count: new simulation.
        let cfg3 = ExpConfig::paper_default(4, BwSetting::X2);
        let _ = lab.point(&w, &cfg3);
        assert_eq!(lab.cached_runs(), 2);
    }

    #[test]
    fn nearby_float_knobs_get_their_own_cache_entries() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Stream").unwrap();
        let mut half = ExpConfig::paper_default(2, BwSetting::X2);
        half.clock_scale = 0.5;
        let mut near = half.clone();
        near.clock_scale = 0.5009;
        let _ = lab.counts(&w, &half);
        assert!(lab.is_cached(&w, &half));
        assert!(
            !lab.is_cached(&w, &near),
            "0.5009 must not reuse 0.5's counts"
        );
        let served = lab.counts(&w, &near);
        assert_eq!(lab.cached_runs(), 2);
        assert_eq!(*served, *simulate(Scale::Smoke, &w, &near));
        assert_ne!(*served, *lab.counts(&w, &half), "the knob changes the run");

        let compressed = ExpConfig::paper_default(2, BwSetting::X1).with_link_compression(1.5);
        let nearly = ExpConfig::paper_default(2, BwSetting::X1).with_link_compression(1.5004);
        assert_ne!(sim_key(&w, &compressed), sim_key(&w, &nearly));
    }

    #[test]
    fn edpse_of_baseline_is_100() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Hotspot").unwrap();
        let pe = lab.edpse(&w, &ExpConfig::baseline());
        assert!((pe - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_speeds_up_and_costs_energy() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Stream").unwrap();
        let cfg = ExpConfig::paper_default(4, BwSetting::X2);
        let s = lab.speedup(&w, &cfg);
        assert!(s > 1.2, "4 GPMs should beat 1, got {s:.2}");
        let e = lab.energy_ratio(&w, &cfg);
        assert!(e > 0.8, "energy should not collapse, got {e:.2}");
    }

    #[test]
    fn link_energy_multiplier_raises_energy_only() {
        let lab = Lab::new(Scale::Smoke);
        let w = by_name("Stream").unwrap();
        let base_cfg = ExpConfig::paper_default(4, BwSetting::X1);
        let hot_cfg = base_cfg.clone().with_link_energy_mult(4.0);
        let a = lab.point(&w, &base_cfg);
        let b = lab.point(&w, &hot_cfg);
        assert_eq!(a.duration(), b.duration());
        assert!(b.breakdown.total() > a.breakdown.total());
    }

    #[test]
    fn prime_fills_cache_in_parallel() {
        let lab = Lab::with_threads(Scale::Smoke, 4);
        let w = by_name("Stream").unwrap();
        let cfgs = [
            ExpConfig::paper_default(2, BwSetting::X2),
            ExpConfig::paper_default(4, BwSetting::X2),
        ];
        let points: Vec<(WorkloadSpec, ExpConfig)> =
            cfgs.iter().map(|c| (w.clone(), c.clone())).collect();
        let report = lab.prime(&points);
        assert_eq!(report.failures(), 0);
        assert_eq!(lab.cached_runs(), 2);
        // Evaluation after priming is pure cache hits.
        let before = lab.cached_runs();
        let _ = lab.edpse(&w, &cfgs[0]);
        // (edpse also needs the baseline, which prime() did not include.)
        assert_eq!(lab.cached_runs(), before + 1);
        let metrics = lab.last_sweep_metrics().expect("sweep ran");
        assert_eq!(
            metrics.completed.load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn a_plan_without_configs_records_no_sweep() {
        let lab = Lab::with_threads(Scale::Smoke, 2);
        let suite = [by_name("Stream").unwrap()];
        let report = lab.prime_plan(&suite, &SweepPlan::none());
        assert!(report.outcomes.is_empty());
        assert!(lab.sweep_history().is_empty(), "no points, no sweep");
        assert_eq!(lab.cached_runs(), 0);
    }

    #[test]
    fn parallel_results_match_serial() {
        let serial = Lab::new(Scale::Smoke);
        let parallel = Lab::with_threads(Scale::Smoke, 8);
        let w = by_name("Hotspot").unwrap();
        let cfgs = [
            ExpConfig::paper_default(2, BwSetting::X2),
            ExpConfig::paper_default(4, BwSetting::X1),
        ];
        let report =
            parallel.prime_plan(std::slice::from_ref(&w), &SweepPlan::sweep(cfgs.to_vec()));
        assert_eq!(report.failures(), 0);
        for cfg in &cfgs {
            assert_eq!(serial.edpse(&w, cfg), parallel.edpse(&w, cfg));
            assert_eq!(serial.speedup(&w, cfg), parallel.speedup(&w, cfg));
        }
    }
}
