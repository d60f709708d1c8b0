//! Ablations of the design choices the paper (and the prior work it
//! builds on) bakes into the multi-module GPU: locality-aware CTA
//! scheduling, first-touch page placement, module-side L2 caching, and
//! warp-level memory parallelism.
//!
//! Each study compares the adopted design against its naive alternative
//! on the same workloads and reports speedup and EDPSE deltas — the
//! quantified version of DESIGN.md's "modelling notes".

use crate::artifact::{mean_of, ArtifactError};
use crate::configs::ExpConfig;
use crate::lab::Lab;
use common::json::Json;
use common::table::TextTable;
use sim::{BwSetting, CtaSchedule, L2Mode, PagePolicy, WarpScheduler};
use workloads::WorkloadSpec;

/// One ablation row: the same configuration with one design knob flipped.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Knob label ("CTA schedule", ...).
    pub knob: &'static str,
    /// Variant label ("contiguous", "round-robin", ...).
    pub variant: String,
    /// GPM count of the comparison.
    pub gpms: usize,
    /// Mean speedup over the 1-GPM baseline.
    pub speedup: f64,
    /// Mean EDPSE in percent.
    pub edpse: f64,
    /// Mean energy normalized to the 1-GPM baseline.
    pub energy: f64,
}

/// The full ablation study.
#[derive(Debug, Clone)]
pub struct AblationStudy {
    /// All rows, grouped by knob.
    pub rows: Vec<AblationRow>,
}

/// Every `(knob, variant, config)` triple the study compares at `gpms`
/// modules, 2x-BW on-package.
fn variants(gpms: usize) -> Vec<(&'static str, String, ExpConfig)> {
    let base = ExpConfig::paper_default(gpms, BwSetting::X2);
    let mut variants: Vec<(&'static str, String, ExpConfig)> = Vec::new();

    // CTA scheduling: locality-aware contiguous vs naive round-robin.
    for s in [CtaSchedule::Contiguous, CtaSchedule::RoundRobin] {
        variants.push((
            "CTA schedule",
            s.to_string(),
            base.clone().with_cta_schedule(s),
        ));
    }

    // Page placement: first-touch vs static interleaving.
    for p in [PagePolicy::FirstTouch, PagePolicy::Interleaved] {
        variants.push((
            "page placement",
            p.to_string(),
            base.clone().with_page_policy(p),
        ));
    }

    // L2 organization: module-side vs memory-side.
    for m in [L2Mode::ModuleSide, L2Mode::MemorySide] {
        variants.push((
            "L2 organization",
            m.to_string(),
            base.clone().with_l2_mode(m),
        ));
    }

    // Warp scheduling policy (should be near-neutral — the paper's
    // §II abstraction argument).
    for ws in [
        WarpScheduler::LooseRoundRobin,
        WarpScheduler::GreedyThenOldest,
    ] {
        variants.push((
            "warp scheduler",
            ws.to_string(),
            base.clone().with_warp_scheduler(ws),
        ));
    }

    // Warp memory-level parallelism.
    for mlp in [1usize, 2, 4, 8] {
        variants.push((
            "MLP per warp",
            format!("{mlp} outstanding"),
            base.clone().with_mlp(mlp),
        ));
    }

    variants
}

impl AblationStudy {
    /// The sweep plan at `gpms` modules: every simulation `run` reads.
    pub fn plan_configs(gpms: usize) -> Vec<ExpConfig> {
        variants(gpms).into_iter().map(|(_, _, c)| c).collect()
    }

    /// Runs every ablation at `gpms` modules, 2x-BW on-package.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec], gpms: usize) -> Result<Self, ArtifactError> {
        let rows = variants(gpms)
            .into_iter()
            .map(|(knob, variant, cfg)| {
                let point = format!("{knob} {variant} @ {gpms}-GPM");
                let speedups: Vec<f64> = suite.iter().map(|w| lab.speedup(w, &cfg)).collect();
                let edpses: Vec<f64> = suite.iter().map(|w| lab.edpse(w, &cfg)).collect();
                let energies: Vec<f64> = suite.iter().map(|w| lab.energy_ratio(w, &cfg)).collect();
                Ok(AblationRow {
                    knob,
                    variant,
                    gpms,
                    speedup: mean_of("ablation", &point, &speedups)?,
                    edpse: mean_of("ablation", &point, &edpses)?,
                    energy: mean_of("ablation", &point, &energies)?,
                })
            })
            .collect::<Result<_, ArtifactError>>()?;

        Ok(AblationStudy { rows })
    }

    /// The row for a `(knob, variant)` pair, if present.
    pub fn get(&self, knob: &str, variant: &str) -> Option<&AblationRow> {
        self.rows
            .iter()
            .find(|r| r.knob == knob && r.variant == variant)
    }

    /// Renders the study as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["design knob", "variant", "speedup", "energy", "EDPSE (%)"]);
        for r in &self.rows {
            t.row([
                r.knob.to_string(),
                r.variant.clone(),
                format!("{:.2}", r.speedup),
                format!("{:.2}", r.energy),
                format!("{:.1}", r.edpse),
            ]);
        }
        t
    }

    /// The JSON payload: one object per `(knob, variant)` row.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for r in &self.rows {
            let mut o = Json::object();
            o.insert("knob", r.knob);
            o.insert("variant", r.variant.as_str());
            o.insert("gpms", r.gpms);
            o.insert("speedup", r.speedup);
            o.insert("energy_ratio", r.energy);
            o.insert("edpse_pct", r.edpse);
            rows.push(o);
        }
        let mut o = Json::object();
        o.insert("rows", rows);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{by_name, Scale};

    fn mini_suite() -> Vec<WorkloadSpec> {
        ["Stream", "Hotspot"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect()
    }

    #[test]
    fn ablation_produces_all_rows() {
        let lab = Lab::new(Scale::Smoke);
        let study = AblationStudy::run(&lab, &mini_suite(), 8).unwrap();
        assert_eq!(study.rows.len(), 2 + 2 + 2 + 2 + 4);
        assert!(study.render().render().contains("round-robin"));
    }

    #[test]
    fn first_touch_beats_interleaving_for_private_streams() {
        let lab = Lab::new(Scale::Smoke);
        let suite = vec![by_name("Stream").unwrap()];
        let study = AblationStudy::run(&lab, &suite, 8).unwrap();
        let ft = study.get("page placement", "first-touch").unwrap();
        let il = study.get("page placement", "interleaved").unwrap();
        assert!(
            ft.speedup >= il.speedup,
            "first-touch {:.2} should be at least interleaved {:.2}",
            ft.speedup,
            il.speedup
        );
    }

    #[test]
    fn mlp_monotonically_helps_memory_bound_work() {
        let lab = Lab::new(Scale::Smoke);
        let suite = vec![by_name("Stream").unwrap()];
        let study = AblationStudy::run(&lab, &suite, 8).unwrap();
        let one = study.get("MLP per warp", "1 outstanding").unwrap();
        let eight = study.get("MLP per warp", "8 outstanding").unwrap();
        assert!(
            eight.speedup >= one.speedup,
            "mlp8 {:.2} vs mlp1 {:.2}",
            eight.speedup,
            one.speedup
        );
    }
}
