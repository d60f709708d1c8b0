//! GPUJoule validation experiments (Table Ib and Figs. 4a/4b).
//!
//! The full paper workflow: fit the model through the virtual K40's power
//! sensor, check it against mixed-instruction microbenchmarks, then
//! against the 18-application suite, replaying each app's simulated
//! kernel timeline (with host gaps and the app's counter-invisible
//! behavior) on the virtual silicon.

use common::json::Json;
use common::table::TextTable;
use common::units::Time;
use gpujoule::{EnergyModel, EpiTable, EptTable, ValidationItem, ValidationReport};
use isa::{Opcode, Transaction};
use microbench::{fit, FitConfig, FittedModel};
use silicon::{HiddenBehavior, KernelActivity, RunProfile, VirtualK40};
use sim::{GpuConfig, GpuSim};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use workloads::{Scale, WorkloadSpec};

/// Fitting setup matched to the problem scale.
pub fn fit_config(scale: Scale) -> FitConfig {
    match scale {
        Scale::Full => FitConfig::default(),
        Scale::Smoke => FitConfig::fast(),
    }
}

/// Runs the fitting pipeline once and returns the fitted model.
pub fn fit_model(hw: &VirtualK40, scale: Scale) -> FittedModel {
    fit(hw, &fit_config(scale))
}

/// Process-wide cache of fitted models for the standard virtual K40,
/// keyed by scale. The fitting pipeline is deterministic, so the first
/// fit's result is identical to any refit; artifacts that each need the
/// fitted model (Table Ib, Figs. 4a/4b, the validation claims) share one
/// run instead of refitting per artifact.
static FIT_CACHE: OnceLock<Mutex<HashMap<Scale, Arc<FittedModel>>>> = OnceLock::new();

/// Fits (or returns the cached fit of) the standard [`VirtualK40`] at
/// `scale`. Holding the cache lock across the fit intentionally
/// serializes concurrent first fits of the same scale.
pub fn fit_model_cached(scale: Scale) -> Arc<FittedModel> {
    let cache = FIT_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    Arc::clone(
        map.entry(scale)
            .or_insert_with(|| Arc::new(fit_model(&VirtualK40::new(), scale))),
    )
}

/// Whether [`fit_model_cached`] already holds the fit for `scale` — a
/// read-only probe that never starts the fitting pipeline and never
/// blocks: a fit in progress holds the cache lock, and reads as
/// "not cached" rather than waiting it out.
pub fn fit_is_cached(scale: Scale) -> bool {
    FIT_CACHE
        .get()
        .and_then(|cache| cache.try_lock().ok())
        .is_some_and(|map| map.contains_key(&scale))
}

/// Table Ib: the fitted EPI/EPT values side by side with the paper's
/// published measurements.
pub fn table1b(fitted: &FittedModel) -> TextTable {
    let paper_epi = EpiTable::k40();
    let paper_ept = EptTable::k40();
    let mut t = TextTable::new(["operation", "fitted", "paper (Table Ib)", "err %"]);
    for op in Opcode::ALL {
        if !op.in_paper_table() {
            continue;
        }
        let fit_nj = fitted.epi.get(op).nanojoules();
        let ref_nj = paper_epi.get(op).nanojoules();
        t.row([
            op.mnemonic().to_string(),
            format!("{fit_nj:.3} nJ"),
            format!("{ref_nj:.2} nJ"),
            format!("{:+.1}", (fit_nj - ref_nj) / ref_nj * 100.0),
        ]);
    }
    for txn in Transaction::ALL {
        if !txn.is_intra_gpm() {
            continue;
        }
        let fit_nj = fitted.ept.get(txn).nanojoules();
        let ref_nj = paper_ept.get(txn).nanojoules();
        t.row([
            txn.label().to_string(),
            format!(
                "{fit_nj:.3} nJ ({:.2} pJ/bit)",
                fitted.ept.per_bit(txn).pj_per_bit()
            ),
            format!(
                "{ref_nj:.2} nJ ({:.2} pJ/bit)",
                paper_ept.per_bit(txn).pj_per_bit()
            ),
            format!("{:+.1}", (fit_nj - ref_nj) / ref_nj * 100.0),
        ]);
    }
    t
}

/// Figure 4a: mixed-instruction microbenchmark validation.
pub fn fig4a(hw: &VirtualK40, model: &EnergyModel, scale: Scale) -> ValidationReport {
    let cfg = fit_config(scale);
    let target = match scale {
        Scale::Full => Time::from_millis(600.0),
        Scale::Smoke => Time::from_millis(250.0),
    };
    microbench::validate_mixed(hw, model, &cfg.gpu, target)
}

/// Figure 4b: end-to-end application validation against the virtual
/// silicon. Returns one item per Table II application.
pub fn fig4b(
    hw: &VirtualK40,
    model: &EnergyModel,
    suite: &[WorkloadSpec],
    scale: Scale,
) -> ValidationReport {
    let target = match scale {
        Scale::Full => Time::from_millis(400.0),
        Scale::Smoke => Time::from_millis(120.0),
    };
    let sim_cfg = match scale {
        Scale::Full => GpuConfig::single_gpm(),
        Scale::Smoke => GpuConfig::tiny(1),
    };

    suite
        .iter()
        .map(|w| {
            let mut sim = GpuSim::new(&sim_cfg);
            let result = sim.run_workload(&w.launches(scale));

            let behavior = HiddenBehavior {
                lane_utilization: w.lane_utilization,
                interaction_scale: 1.0,
                floor_scale: w.floor_scale,
            };

            // The simulator runs scaled-down problem instances, so kernel
            // durations are artificially short. For normal applications
            // the realistic timeline has *long* kernels: stretch each
            // kernel (counts and duration together) to the target run
            // length. Apps that are inherently many-short-launch (BFS,
            // MiniAMR) keep their sub-millisecond kernels and replay the
            // launch/gap timeline instead — that is their real shape, and
            // the sensor's inability to resolve it is the effect under
            // study.
            let mut profile = RunProfile::new(w.name);
            if w.short_kernels {
                let rep_time = result.total_duration() + w.host_gap * result.kernels.len() as f64;
                let reps = (target.secs() / rep_time.secs()).ceil().max(1.0) as usize;
                for _ in 0..reps {
                    for k in &result.kernels {
                        profile = profile
                            .kernel(KernelActivity::new(
                                k.duration(),
                                k.counts.clone(),
                                behavior,
                            ))
                            .idle(w.host_gap);
                    }
                }
            } else {
                let stretch = (target.secs() / result.total_duration().secs())
                    .ceil()
                    .max(1.0) as u64;
                for k in &result.kernels {
                    let mut counts = k.counts.clone();
                    counts.scale(stretch);
                    profile = profile
                        .kernel(KernelActivity::new(counts.elapsed, counts, behavior))
                        .idle(w.host_gap);
                }
            }

            // Kernel-attributed measurement (what NVML-polling scripts
            // report): gaps excluded from both sides.
            let measurement = hw.measure_active(&profile);
            let mut counts = profile.aggregate_counts();
            counts.elapsed = measurement.duration;
            let modeled = model.estimate_total(&counts);
            ValidationItem::new(w.name, modeled, measurement.measured_energy)
        })
        .collect()
}

/// The JSON form of Table Ib: fitted vs paper energy for each published
/// opcode and intra-GPM transaction.
pub fn table1b_to_json(fitted: &FittedModel) -> Json {
    let paper_epi = EpiTable::k40();
    let paper_ept = EptTable::k40();
    let mut rows = Json::array();
    for op in Opcode::ALL {
        if !op.in_paper_table() {
            continue;
        }
        let fit_nj = fitted.epi.get(op).nanojoules();
        let ref_nj = paper_epi.get(op).nanojoules();
        let mut r = Json::object();
        r.insert("operation", op.mnemonic());
        r.insert("kind", "instruction");
        r.insert("fitted_nj", fit_nj);
        r.insert("paper_nj", ref_nj);
        r.insert("error_pct", (fit_nj - ref_nj) / ref_nj * 100.0);
        rows.push(r);
    }
    for txn in Transaction::ALL {
        if !txn.is_intra_gpm() {
            continue;
        }
        let fit_nj = fitted.ept.get(txn).nanojoules();
        let ref_nj = paper_ept.get(txn).nanojoules();
        let mut r = Json::object();
        r.insert("operation", txn.label());
        r.insert("kind", "transaction");
        r.insert("fitted_nj", fit_nj);
        r.insert("paper_nj", ref_nj);
        r.insert("error_pct", (fit_nj - ref_nj) / ref_nj * 100.0);
        r.insert("fitted_pj_per_bit", fitted.ept.per_bit(txn).pj_per_bit());
        r.insert("paper_pj_per_bit", paper_ept.per_bit(txn).pj_per_bit());
        rows.push(r);
    }
    let mut o = Json::object();
    o.insert("rows", rows);
    o
}

/// The JSON form of a Fig. 4-style validation report.
pub fn validation_to_json(report: &ValidationReport) -> Json {
    let mut items = Json::array();
    for item in report.items() {
        let mut r = Json::object();
        r.insert("name", item.name.as_str());
        r.insert("modeled_joules", item.modeled.joules());
        r.insert("measured_joules", item.measured.joules());
        r.insert("error_pct", item.error_percent());
        items.push(r);
    }
    let mut o = Json::object();
    o.insert("items", items);
    o.insert("geomean_abs_error_pct", report.geomean_abs_error_percent());
    o.insert("mean_abs_error_pct", report.mean_abs_error_percent());
    o
}

/// Renders a validation report as a Fig. 4-style table.
pub fn render_validation(report: &ValidationReport) -> TextTable {
    let mut t = TextTable::new(["benchmark", "modeled", "measured", "error (%)"]);
    for item in report.items() {
        t.row([
            item.name.clone(),
            item.modeled.to_string(),
            item.measured.to_string(),
            format!("{:+.1}", item.error_percent()),
        ]);
    }
    t.row([
        "GeoMean |err|".to_string(),
        String::new(),
        String::new(),
        format!("{:.1}", report.geomean_abs_error_percent()),
    ]);
    t.row([
        "Mean |err|".to_string(),
        String::new(),
        String::new(),
        format!("{:.1}", report.mean_abs_error_percent()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::by_name;

    #[test]
    fn table1b_lists_19_ops_and_4_levels() {
        let hw = VirtualK40::new();
        let fitted = fit_model(&hw, Scale::Smoke);
        let t = table1b(&fitted);
        assert_eq!(t.len(), 19 + 4);
        let s = t.render();
        assert!(s.contains("fma.rn.f32"));
        assert!(s.contains("DRAM -> L2"));
    }

    #[test]
    fn fig4b_smoke_produces_items_with_bounded_error() {
        let hw = VirtualK40::new();
        let fitted = fit_model(&hw, Scale::Smoke);
        let model = fitted.to_energy_model();
        let suite: Vec<_> = ["Stream", "Hotspot"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        let report = fig4b(&hw, &model, &suite, Scale::Smoke);
        assert_eq!(report.len(), 2);
        for item in report.items() {
            assert!(item.modeled.joules() > 0.0);
            assert!(item.measured.joules() > 0.0);
            assert!(
                item.error_percent().abs() < 60.0,
                "{}: {:+.1}%",
                item.name,
                item.error_percent()
            );
        }
        let rendered = render_validation(&report);
        assert!(rendered.render().contains("Mean |err|"));
    }
}
