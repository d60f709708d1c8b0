//! Quantified versions of the paper's §V-E future-work directions:
//! idle-aware power gating, inter-GPM link compression, and the EDⁱPSE
//! metric-weighting discussion of §III/§V-D.

use crate::artifact::{mean_of, ArtifactError};
use crate::configs::ExpConfig;
use crate::lab::Lab;
use common::json::Json;
use common::table::TextTable;
use common::units::Energy;
use gpujoule::{EdipScalingEfficiency, EnergyModelBuilder, EpiTable, EptTable, PowerGating};
use isa::Opcode;
use sim::BwSetting;
use workloads::WorkloadSpec;

/// §V-E: how much of the constant-energy exposure at 32 GPMs can
/// idle-aware power gating claw back?
#[derive(Debug, Clone)]
pub struct GatingStudy {
    /// `(effectiveness, mean_energy_ratio, mean_edpse_pct)` at the studied
    /// configuration.
    pub rows: Vec<(f64, f64, f64)>,
    /// GPM count studied.
    pub gpms: usize,
}

impl GatingStudy {
    /// The sweep plan at `gpms` modules: every simulation `run` reads.
    pub fn plan_configs(gpms: usize) -> Vec<ExpConfig> {
        vec![ExpConfig::paper_default(gpms, BwSetting::X2)]
    }

    /// Sweeps gating effectiveness at `gpms` modules, 2x-BW on-package.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec], gpms: usize) -> Result<Self, ArtifactError> {
        let cfg = ExpConfig::paper_default(gpms, BwSetting::X2);
        let rows = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&eff| {
                let label = format!("gating {:.0}% @ {gpms}-GPM", eff * 100.0);
                let gating = PowerGating::new(eff);
                let mut energies = Vec::new();
                let mut edpses = Vec::new();
                for w in suite {
                    let base = lab.baseline(w);
                    let point = lab.point(w, &cfg);
                    // Gating applies to the scaled design; the 1-GPM
                    // baseline rarely idles, but gate it identically for
                    // fairness.
                    let model_base = ExpConfig::baseline().energy_config().build_model();
                    let model_scaled = cfg.energy_config().build_model();
                    let e_base = model_base.estimate_gated(&base.counts, &gating).total();
                    let e_scaled = model_scaled.estimate_gated(&point.counts, &gating).total();
                    energies.push(e_scaled.joules() / e_base.joules());
                    let edp_base = e_base.joules() * base.duration().secs();
                    let edp_scaled = e_scaled.joules() * point.duration().secs();
                    edpses.push(edp_base * 100.0 / (gpms as f64 * edp_scaled));
                }
                Ok((
                    eff,
                    mean_of("extensions", &label, &energies)?,
                    mean_of("extensions", &label, &edpses)?,
                ))
            })
            .collect::<Result<_, ArtifactError>>()?;
        Ok(GatingStudy { rows, gpms })
    }

    /// Renders the study as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["gating effectiveness", "energy vs 1-GPM", "EDPSE (%)"]);
        for &(eff, e, d) in &self.rows {
            t.row([
                format!("{:.0}%", eff * 100.0),
                format!("{e:.2}"),
                format!("{d:.1}"),
            ]);
        }
        t
    }

    /// The JSON payload: one row per gating effectiveness.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(eff, e, d) in &self.rows {
            let mut o = Json::object();
            o.insert("effectiveness", eff);
            o.insert("energy_ratio", e);
            o.insert("edpse_pct", d);
            rows.push(o);
        }
        let mut o = Json::object();
        o.insert("gpms", self.gpms);
        o.insert("rows", rows);
        o
    }
}

/// §V-E: trading compression-engine energy for link bandwidth.
#[derive(Debug, Clone)]
pub struct CompressionStudy {
    /// `(ratio, mean_speedup, mean_energy_ratio, mean_edpse_pct)`.
    pub rows: Vec<(f64, f64, f64, f64)>,
    /// GPM count studied.
    pub gpms: usize,
}

/// Energy the compression engines burn per *uncompressed* bit moved
/// across modules (compress + decompress).
const COMPRESSION_PJ_PER_BIT: f64 = 2.0;

/// The compression ratios swept.
const COMPRESSION_RATIOS: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

impl CompressionStudy {
    /// The sweep plan at `gpms` modules: every simulation `run` reads.
    pub fn plan_configs(gpms: usize) -> Vec<ExpConfig> {
        COMPRESSION_RATIOS
            .iter()
            .map(|&r| ExpConfig::paper_default(gpms, BwSetting::X1).with_link_compression(r))
            .collect()
    }

    /// Sweeps the compression ratio at `gpms` modules on the bandwidth-
    /// starved on-board 1x-BW configuration, charging the engines'
    /// energy on top.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec], gpms: usize) -> Result<Self, ArtifactError> {
        let rows = COMPRESSION_RATIOS
            .iter()
            .map(|&ratio| {
                let label = format!("compression {ratio:.1}x @ {gpms}-GPM");
                let cfg =
                    ExpConfig::paper_default(gpms, BwSetting::X1).with_link_compression(ratio);
                let mut speedups = Vec::new();
                let mut energies = Vec::new();
                let mut edpses = Vec::new();
                for w in suite {
                    let base = lab.baseline(w);
                    let point = lab.point(w, &cfg);
                    // Compression-engine energy: per uncompressed bit.
                    let uncompressed_bytes = point.counts.inter_gpm_bytes.count() as f64 * ratio;
                    let engine = common::units::Energy::from_picojoules(
                        COMPRESSION_PJ_PER_BIT * uncompressed_bytes * 8.0,
                    );
                    let e_scaled = point.breakdown.total() + engine;
                    let base_ed = base.energy_delay();
                    speedups.push(base.duration().secs() / point.duration().secs());
                    energies.push(e_scaled.joules() / base_ed.energy().joules());
                    let edp_scaled = e_scaled.joules() * point.duration().secs();
                    edpses.push(base_ed.edp() * 100.0 / (gpms as f64 * edp_scaled));
                }
                Ok((
                    ratio,
                    mean_of("extensions", &label, &speedups)?,
                    mean_of("extensions", &label, &energies)?,
                    mean_of("extensions", &label, &edpses)?,
                ))
            })
            .collect::<Result<_, ArtifactError>>()?;
        Ok(CompressionStudy { rows, gpms })
    }

    /// Renders the study as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new([
            "compression ratio",
            "speedup vs 1-GPM",
            "energy vs 1-GPM",
            "EDPSE (%)",
        ]);
        for &(r, s, e, d) in &self.rows {
            t.row([
                if r == 1.0 {
                    "off".to_string()
                } else {
                    format!("{r:.1}x")
                },
                format!("{s:.2}"),
                format!("{e:.2}"),
                format!("{d:.1}"),
            ]);
        }
        t
    }

    /// The JSON payload: one row per compression ratio.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(r, s, e, d) in &self.rows {
            let mut o = Json::object();
            o.insert("ratio", r);
            o.insert("speedup", s);
            o.insert("energy_ratio", e);
            o.insert("edpse_pct", d);
            rows.push(o);
        }
        let mut o = Json::object();
        o.insert("gpms", self.gpms);
        o.insert("rows", rows);
        o
    }
}

/// Module-level DVFS — the knob the paper explicitly brackets out of its
/// energy model (§V-A2 "before considering … DVFS") — quantified.
///
/// Lowering the GPM clock stretches compute but leaves the memory and
/// interconnect clocks alone, so a NUMA-throttled design loses little
/// performance while its dynamic (V²·f-scaled) compute energy falls. The
/// constant rail does not scale, which is exactly why DVFS alone cannot
/// fix the constant-energy exposure the paper identifies.
#[derive(Debug, Clone)]
pub struct DvfsStudy {
    /// `(clock_scale, mean_speedup, mean_energy_ratio, mean_edpse_pct)`.
    pub rows: Vec<(f64, f64, f64, f64)>,
    /// GPM count studied.
    pub gpms: usize,
}

/// The clock scales swept.
const DVFS_SCALES: [f64; 4] = [1.0, 0.85, 0.7, 0.55];

impl DvfsStudy {
    /// The sweep plan at `gpms` modules: every simulation `run` reads.
    pub fn plan_configs(gpms: usize) -> Vec<ExpConfig> {
        DVFS_SCALES
            .iter()
            .map(|&s| ExpConfig::paper_default(gpms, BwSetting::X2).with_clock_scale(s))
            .collect()
    }

    /// Sweeps the GPM clock at `gpms` modules, 2x-BW on-package, with
    /// dynamic energy scaled by the classic `V ∝ f` assumption (energy
    /// per operation ∝ `scale²`).
    pub fn run(lab: &Lab, suite: &[WorkloadSpec], gpms: usize) -> Result<Self, ArtifactError> {
        let rows = DVFS_SCALES
            .iter()
            .map(|&scale| {
                let label = format!("clock {:.0}% @ {gpms}-GPM", scale * 100.0);
                let cfg = ExpConfig::paper_default(gpms, BwSetting::X2).with_clock_scale(scale);
                let v2 = scale * scale;
                // Dynamic (core-domain) energies scale with V²; memory
                // transaction energies and constant power do not.
                let mut epi = EpiTable::k40();
                for op in Opcode::ALL {
                    epi.set(op, epi.get(op) * v2);
                }
                let ecfg = cfg.energy_config();
                let model = EnergyModelBuilder::new()
                    .epi_table(epi)
                    .ept_table(EptTable::k40_with_hbm())
                    .ep_stall(Energy::from_nanojoules(
                        gpujoule::model::K40_EP_STALL_NANOJOULES * v2,
                    ))
                    .const_power(ecfg.total_const_power())
                    .link_per_bit(ecfg.link_energy)
                    .build();

                let mut speedups = Vec::new();
                let mut energies = Vec::new();
                let mut edpses = Vec::new();
                for w in suite {
                    let base = lab.baseline(w).energy_delay();
                    let counts = lab.counts(w, &cfg);
                    let e = model.estimate(&counts).total();
                    speedups.push(base.delay().secs() / counts.elapsed.secs());
                    energies.push(e.joules() / base.energy().joules());
                    let edp = e.joules() * counts.elapsed.secs();
                    edpses.push(base.edp() * 100.0 / (gpms as f64 * edp));
                }
                Ok((
                    scale,
                    mean_of("extensions", &label, &speedups)?,
                    mean_of("extensions", &label, &energies)?,
                    mean_of("extensions", &label, &edpses)?,
                ))
            })
            .collect::<Result<_, ArtifactError>>()?;
        Ok(DvfsStudy { rows, gpms })
    }

    /// Renders the study as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new([
            "GPM clock",
            "speedup vs 1-GPM",
            "energy vs 1-GPM",
            "EDPSE (%)",
        ]);
        for &(scale, s, e, d) in &self.rows {
            t.row([
                format!("{:.0}%", scale * 100.0),
                format!("{s:.2}"),
                format!("{e:.2}"),
                format!("{d:.1}"),
            ]);
        }
        t
    }

    /// The JSON payload: one row per clock scale.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(scale, s, e, d) in &self.rows {
            let mut o = Json::object();
            o.insert("clock_scale", scale);
            o.insert("speedup", s);
            o.insert("energy_ratio", e);
            o.insert("edpse_pct", d);
            rows.push(o);
        }
        let mut o = Json::object();
        o.insert("gpms", self.gpms);
        o.insert("rows", rows);
        o
    }
}

/// §III/§V-D: the same designs scored under EDⁱPSE for i = 0, 1, 2 —
/// energy-only, the paper's EDPSE, and the performance-weighted ED²PSE.
#[derive(Debug, Clone)]
pub struct MetricWeightStudy {
    /// `(gpm_count, ed0pse, edpse, ed2pse)` averages in percent.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

impl MetricWeightStudy {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        crate::configs::SCALED_GPM_COUNTS
            .iter()
            .map(|&n| ExpConfig::paper_default(n, BwSetting::X2))
            .collect()
    }

    /// Runs the comparison across GPM counts at 2x-BW.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let rows = crate::configs::SCALED_GPM_COUNTS
            .iter()
            .map(|&n| {
                let cfg = ExpConfig::paper_default(n, BwSetting::X2);
                let mut per_i = [Vec::new(), Vec::new(), Vec::new()];
                for w in suite {
                    let base = lab.baseline(w).energy_delay();
                    let scaled = lab.point(w, &cfg).energy_delay();
                    for (i, acc) in per_i.iter_mut().enumerate() {
                        let se = EdipScalingEfficiency::compute(base, scaled, n, i as u32)
                            .expect("valid points");
                        acc.push(se.percent());
                    }
                }
                Ok((
                    n,
                    mean_of("extensions", &format!("ED0PSE @ {n}-GPM"), &per_i[0])?,
                    mean_of("extensions", &format!("EDPSE @ {n}-GPM"), &per_i[1])?,
                    mean_of("extensions", &format!("ED2PSE @ {n}-GPM"), &per_i[2])?,
                ))
            })
            .collect::<Result<_, ArtifactError>>()?;
        Ok(MetricWeightStudy { rows })
    }

    /// Renders the study as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new([
            "config",
            "ED0PSE (energy only, %)",
            "EDPSE (%)",
            "ED2PSE (%)",
        ]);
        for &(n, e0, e1, e2) in &self.rows {
            t.row([
                format!("{n}-GPM"),
                format!("{e0:.1}"),
                format!("{e1:.1}"),
                format!("{e2:.1}"),
            ]);
        }
        t
    }

    /// The JSON payload: one row per GPM count.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(n, e0, e1, e2) in &self.rows {
            let mut o = Json::object();
            o.insert("gpms", n);
            o.insert("ed0pse_pct", e0);
            o.insert("edpse_pct", e1);
            o.insert("ed2pse_pct", e2);
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
    fn gating_monotonically_improves_energy() {
        let lab = Lab::new(Scale::Smoke);
        let s = GatingStudy::run(&lab, &mini_suite(), 8).unwrap();
        assert_eq!(s.rows.len(), 5);
        for pair in s.rows.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "energy must not grow with effectiveness: {pair:?}"
            );
            assert!(
                pair[1].2 >= pair[0].2 - 1e-9,
                "EDPSE must not drop: {pair:?}"
            );
        }
    }

    #[test]
    fn compression_relieves_bandwidth_starved_designs() {
        let lab = Lab::new(Scale::Smoke);
        let suite = vec![by_name("Stream").unwrap()];
        let s = CompressionStudy::run(&lab, &suite, 8).unwrap();
        let off = s.rows[0];
        let two = s.rows[2];
        assert!(
            two.1 >= off.1,
            "2x compression should not slow things down: {:.2} vs {:.2}",
            two.1,
            off.1
        );
    }

    #[test]
    fn dvfs_trades_speed_for_dynamic_energy() {
        let lab = Lab::new(Scale::Smoke);
        let s = DvfsStudy::run(&lab, &mini_suite(), 8).unwrap();
        assert_eq!(s.rows.len(), 4);
        let nominal = s.rows[0];
        let slow = s.rows[3];
        assert!(slow.1 <= nominal.1 + 1e-9, "slower clock cannot speed up");
        assert!(nominal.0 == 1.0 && slow.0 == 0.55);
        assert!(slow.1 > 0.0 && slow.2 > 0.0);
    }

    #[test]
    fn metric_weights_order_sensibly_at_scale() {
        let lab = Lab::new(Scale::Smoke);
        let s = MetricWeightStudy::run(&lab, &mini_suite()).unwrap();
        assert_eq!(s.rows.len(), 5);
        // At large counts, performance-weighted metrics forgive sub-linear
        // scaling less than energy-only ones.
        let (_, e0, _, e2) = s.rows[s.rows.len() - 1];
        assert!(e0.is_finite() && e2.is_finite());
    }
}
