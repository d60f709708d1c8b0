//! Figure and table generators: one function per paper artifact.
//!
//! Every generator returns plain data (so integration tests can assert the
//! paper's qualitative claims) plus a [`TextTable`] rendering that the
//! `xp` driver prints and a `to_json` payload it serializes. Averages
//! follow the paper's conventions: arithmetic means for EDPSE percentages
//! and normalized energies, geometric means for speedups.
//!
//! `run` only reads the lab: [`crate::artifact::Artifact::evaluate`]
//! primes the generator's `plan_configs` first, so every simulation it
//! reads is a cache hit. (On a cold lab `run` still works, simulating
//! each missing point serially through [`Lab::counts`].)
//!
//! `run` is fallible: statistics over an empty or out-of-domain sample set
//! (possible with a filtered suite) surface as a typed
//! [`ArtifactError`] naming the artifact and sweep point instead of
//! panicking mid-run.

use crate::artifact::{geomean_of, mean_of, ArtifactError};
use crate::configs::{ExpConfig, SCALED_GPM_COUNTS};
use crate::lab::Lab;
use common::json::Json;
use common::table::TextTable;
use gpujoule::{ConstantEnergyAmortization, EnergyComponent};
use sim::{BwSetting, Topology};
use workloads::{scaling_suite, Category, WorkloadSpec};

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// Figure 2: average energy (normalized to a single GPU) when strong
/// scaling with on-board integration (1x-BW ring).
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `(gpm_count, mean_energy_ratio)` for 2–32 GPMs.
    pub points: Vec<(usize, f64)>,
}

impl Fig2 {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        SCALED_GPM_COUNTS
            .iter()
            .map(|&n| ExpConfig::paper_default(n, BwSetting::X1))
            .collect()
    }

    /// Runs the sweep.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let cfgs = Self::plan_configs();
        let points = SCALED_GPM_COUNTS
            .iter()
            .zip(&cfgs)
            .map(|(&n, cfg)| {
                let ratios: Vec<f64> = suite.iter().map(|w| lab.energy_ratio(w, cfg)).collect();
                Ok((n, mean_of("fig2", &format!("{n}-GPM"), &ratios)?))
            })
            .collect::<Result<_, _>>()?;
        Ok(Fig2 { points })
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["GPU capability", "energy vs 1-GPM (ideal = 1.0)"]);
        for &(n, e) in &self.points {
            t.row([format!("{n}x"), format!("{e:.2}")]);
        }
        t
    }

    /// The JSON payload: `points` as `{gpms, energy_ratio}` objects.
    pub fn to_json(&self) -> Json {
        let mut points = Json::array();
        for &(n, e) in &self.points {
            let mut p = Json::object();
            p.insert("gpms", n);
            p.insert("energy_ratio", e);
            points.push(p);
        }
        let mut o = Json::object();
        o.insert("points", points);
        o
    }
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// Figure 6: EDPSE by GPM count for the baseline on-package (2x-BW)
/// configuration, split into compute-intensive, memory-intensive, and all
/// workloads.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(gpm_count, compute_avg, memory_avg, all_avg)`, percentages.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

impl Fig6 {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        SCALED_GPM_COUNTS
            .iter()
            .map(|&n| ExpConfig::paper_default(n, BwSetting::X2))
            .collect()
    }

    /// Runs the sweep.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let rows = SCALED_GPM_COUNTS
            .iter()
            .map(|&n| {
                let cfg = ExpConfig::paper_default(n, BwSetting::X2);
                let mut compute = Vec::new();
                let mut memory = Vec::new();
                for w in suite {
                    let e = lab.edpse(w, &cfg);
                    match w.category {
                        Category::Compute => compute.push(e),
                        Category::Memory => memory.push(e),
                    }
                }
                let all: Vec<f64> = compute.iter().chain(&memory).copied().collect();
                Ok((
                    n,
                    mean_of("fig6", &format!("{n}-GPM compute"), &compute)?,
                    mean_of("fig6", &format!("{n}-GPM memory"), &memory)?,
                    mean_of("fig6", &format!("{n}-GPM all"), &all)?,
                ))
            })
            .collect::<Result<_, _>>()?;
        Ok(Fig6 { rows })
    }

    /// The all-workloads EDPSE at a GPM count, if swept.
    pub fn all_at(&self, gpms: usize) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == gpms).map(|r| r.3)
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new([
            "config",
            "compute EDPSE (%)",
            "memory EDPSE (%)",
            "all EDPSE (%)",
        ]);
        for &(n, c, m, a) in &self.rows {
            t.row([
                format!("{n}-GPM"),
                format!("{c:.1}"),
                format!("{m:.1}"),
                format!("{a:.1}"),
            ]);
        }
        t
    }

    /// The JSON payload: per-GPM-count EDPSE percentages by category.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(n, c, m, a) in &self.rows {
            let mut r = Json::object();
            r.insert("gpms", n);
            r.insert("compute_edpse_pct", c);
            r.insert("memory_edpse_pct", m);
            r.insert("all_edpse_pct", a);
            rows.push(r);
        }
        let mut o = Json::object();
        o.insert("rows", rows);
        o
    }
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// One scaling step of Fig. 7: speedup over the preceding configuration
/// and the per-component energy increase relative to the preceding total.
#[derive(Debug, Clone)]
pub struct Fig7Step {
    /// The scaled GPM count (the step is `gpms/2 → gpms`).
    pub gpms: usize,
    /// Geometric-mean speedup over the preceding configuration.
    pub speedup: f64,
    /// Total energy increase vs the preceding configuration, percent.
    pub energy_increase_pct: f64,
    /// Signed per-component contribution to the increase, percent of the
    /// preceding total (sums to `energy_increase_pct`).
    pub components_pct: Vec<(EnergyComponent, f64)>,
}

/// Figure 7: incremental speedup and component-wise energy growth at each
/// scaling step (2x-BW on-package), plus the hypothetical monolithic
/// 16→32 comparison quoted in §V-B.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// One entry per scaling step.
    pub steps: Vec<Fig7Step>,
    /// Geometric-mean 16→32 speedup of a monolithic (ideal-interconnect)
    /// GPU, for the §V-B comparison (paper: 80.8% incremental speedup).
    pub monolithic_16_to_32: f64,
}

impl Fig7 {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        let mut cfgs: Vec<ExpConfig> = SCALED_GPM_COUNTS
            .iter()
            .map(|&n| ExpConfig::paper_default(n, BwSetting::X2))
            .collect();
        cfgs.push(ExpConfig::paper_default(16, BwSetting::X2).monolithic());
        cfgs.push(ExpConfig::paper_default(32, BwSetting::X2).monolithic());
        cfgs
    }

    /// Runs the sweep.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let mut steps = Vec::new();
        for &n in &SCALED_GPM_COUNTS {
            let prev_n = n / 2;
            let step = format!("step {prev_n}->{n}");
            let cfg = ExpConfig::paper_default(n, BwSetting::X2);
            let prev_cfg = if prev_n == 1 {
                ExpConfig::baseline()
            } else {
                ExpConfig::paper_default(prev_n, BwSetting::X2)
            };

            let mut speedups = Vec::new();
            let mut totals = Vec::new();
            let mut comps: Vec<Vec<f64>> = vec![Vec::new(); EnergyComponent::COUNT];
            for w in suite {
                let prev = lab.point(w, &prev_cfg);
                let cur = lab.point(w, &cfg);
                speedups.push(prev.duration().secs() / cur.duration().secs());
                let prev_total = prev.breakdown.total().joules();
                totals.push((cur.breakdown.total().joules() - prev_total) / prev_total * 100.0);
                for c in EnergyComponent::ALL {
                    let delta = cur.breakdown.get(c).joules() - prev.breakdown.get(c).joules();
                    comps[c.index()].push(delta / prev_total * 100.0);
                }
            }
            steps.push(Fig7Step {
                gpms: n,
                speedup: geomean_of("fig7", &step, &speedups)?,
                energy_increase_pct: mean_of("fig7", &format!("{step} total energy"), &totals)?,
                components_pct: EnergyComponent::ALL
                    .iter()
                    .map(|&c| {
                        Ok((
                            c,
                            mean_of("fig7", &format!("{step} {}", c.label()), &comps[c.index()])?,
                        ))
                    })
                    .collect::<Result<_, ArtifactError>>()?,
            });
        }

        // Monolithic comparison: same workloads, ideal interconnect.
        let mono16 = ExpConfig::paper_default(16, BwSetting::X2).monolithic();
        let mono32 = ExpConfig::paper_default(32, BwSetting::X2).monolithic();
        let ratios: Vec<f64> = suite
            .iter()
            .map(|w| {
                let t16 = lab.point(w, &mono16).duration().secs();
                let t32 = lab.point(w, &mono32).duration().secs();
                t16 / t32
            })
            .collect();

        Ok(Fig7 {
            steps,
            monolithic_16_to_32: geomean_of("fig7", "monolithic 16->32", &ratios)?,
        })
    }

    /// Speedup of the `gpms/2 → gpms` step, if swept.
    pub fn step_speedup(&self, gpms: usize) -> Option<f64> {
        self.steps
            .iter()
            .find(|s| s.gpms == gpms)
            .map(|s| s.speedup)
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> TextTable {
        let mut header = vec!["step".to_string(), "speedup".into(), "dE total (%)".into()];
        header.extend(EnergyComponent::ALL.iter().map(|c| c.label().to_string()));
        let mut t = TextTable::new(header);
        for s in &self.steps {
            let mut row = vec![
                format!("{}-GPM", s.gpms),
                format!("{:.2}", s.speedup),
                format!("{:+.1}", s.energy_increase_pct),
            ];
            row.extend(s.components_pct.iter().map(|(_, v)| format!("{v:+.2}")));
            t.row(row);
        }
        t
    }

    /// The JSON payload: per-step speedup/energy deltas with component
    /// contributions, plus the §V-B monolithic comparison.
    pub fn to_json(&self) -> Json {
        let mut steps = Json::array();
        for s in &self.steps {
            let mut components = Json::array();
            for (c, v) in &s.components_pct {
                let mut e = Json::object();
                e.insert("component", c.label());
                e.insert("delta_pct", *v);
                components.push(e);
            }
            let mut r = Json::object();
            r.insert("gpms", s.gpms);
            r.insert("speedup", s.speedup);
            r.insert("energy_increase_pct", s.energy_increase_pct);
            r.insert("components", components);
            steps.push(r);
        }
        let mut o = Json::object();
        o.insert("steps", steps);
        o.insert("monolithic_16_to_32_speedup", self.monolithic_16_to_32);
        o
    }
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Figure 8: EDPSE as a function of the interconnect-bandwidth setting.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// `(bw_setting_label, gpm_count, all-workloads EDPSE %)`.
    pub rows: Vec<(&'static str, usize, f64)>,
}

impl Fig8 {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        BwSetting::ALL
            .into_iter()
            .flat_map(|bw| {
                SCALED_GPM_COUNTS
                    .iter()
                    .map(move |&n| ExpConfig::paper_default(n, bw))
            })
            .collect()
    }

    /// Runs the sweep over all three bandwidth settings.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let mut rows = Vec::new();
        for bw in BwSetting::ALL {
            for &n in &SCALED_GPM_COUNTS {
                let cfg = ExpConfig::paper_default(n, bw);
                let vals: Vec<f64> = suite.iter().map(|w| lab.edpse(w, &cfg)).collect();
                rows.push((
                    bw.label(),
                    n,
                    mean_of("fig8", &format!("{} {n}-GPM", bw.label()), &vals)?,
                ));
            }
        }
        Ok(Fig8 { rows })
    }

    /// EDPSE at `(bw, gpms)`, if swept.
    pub fn at(&self, bw: BwSetting, gpms: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.0 == bw.label() && r.1 == gpms)
            .map(|r| r.2)
    }

    /// Renders the figure as a table (rows: GPM count; cols: bandwidth).
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new([
            "config",
            "1x-BW EDPSE (%)",
            "2x-BW EDPSE (%)",
            "4x-BW EDPSE (%)",
        ]);
        for &n in &SCALED_GPM_COUNTS {
            let get = |bw: BwSetting| {
                self.at(bw, n)
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_default()
            };
            t.row([
                format!("{n}-GPM"),
                get(BwSetting::X1),
                get(BwSetting::X2),
                get(BwSetting::X4),
            ]);
        }
        t
    }

    /// The JSON payload: one `{bw, gpms, edpse_pct}` row per point.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(bw, n, e) in &self.rows {
            let mut r = Json::object();
            r.insert("bw", bw);
            r.insert("gpms", n);
            r.insert("edpse_pct", e);
            rows.push(r);
        }
        let mut o = Json::object();
        o.insert("rows", rows);
        o
    }
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// Figure 9: EDPSE of on-board multi-module GPUs with a ring versus a
/// high-radix switch.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// `(series_label, gpm_count, EDPSE %)` for Ring(1x), Switch(1x),
    /// Switch(2x).
    pub rows: Vec<(&'static str, usize, f64)>,
}

impl Fig9 {
    const SERIES: [(&'static str, BwSetting, Topology); 3] = [
        ("Ring (1x-BW)", BwSetting::X1, Topology::Ring),
        ("Switch (1x-BW)", BwSetting::X1, Topology::Switch),
        ("Switch (2x-BW)", BwSetting::X2, Topology::Switch),
    ];

    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        Self::SERIES
            .iter()
            .flat_map(|&(_, bw, topo)| {
                SCALED_GPM_COUNTS
                    .iter()
                    .map(move |&n| ExpConfig::on_board(n, bw, topo))
            })
            .collect()
    }

    /// Runs the sweep.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let mut rows = Vec::new();
        for (label, bw, topo) in Self::SERIES {
            for &n in &SCALED_GPM_COUNTS {
                let cfg = ExpConfig::on_board(n, bw, topo);
                let vals: Vec<f64> = suite.iter().map(|w| lab.edpse(w, &cfg)).collect();
                rows.push((
                    label,
                    n,
                    mean_of("fig9", &format!("{label} {n}-GPM"), &vals)?,
                ));
            }
        }
        Ok(Fig9 { rows })
    }

    /// EDPSE for a series at a GPM count, if swept.
    pub fn at(&self, label: &str, gpms: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.0 == label && r.1 == gpms)
            .map(|r| r.2)
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["config", "Ring (1x-BW)", "Switch (1x-BW)", "Switch (2x-BW)"]);
        for &n in &SCALED_GPM_COUNTS {
            let get = |label: &str| {
                self.at(label, n)
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_default()
            };
            t.row([
                format!("{n}-GPM"),
                get("Ring (1x-BW)"),
                get("Switch (1x-BW)"),
                get("Switch (2x-BW)"),
            ]);
        }
        t
    }

    /// The JSON payload: one `{series, gpms, edpse_pct}` row per point.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(label, n, e) in &self.rows {
            let mut r = Json::object();
            r.insert("series", label);
            r.insert("gpms", n);
            r.insert("edpse_pct", e);
            rows.push(r);
        }
        let mut o = Json::object();
        o.insert("rows", rows);
        o
    }
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// Figure 10: absolute speedup and normalized energy across all GPM
/// counts and bandwidth settings, with constant-energy amortization in the
/// on-package domains (2x/4x-BW).
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// `(gpm_count, bw_label, geomean_speedup, mean_energy_ratio)`.
    pub rows: Vec<(usize, &'static str, f64, f64)>,
}

impl Fig10 {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        SCALED_GPM_COUNTS
            .iter()
            .flat_map(|&n| {
                BwSetting::ALL
                    .into_iter()
                    .map(move |bw| ExpConfig::paper_default(n, bw))
            })
            .collect()
    }

    /// Runs the sweep.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let mut rows = Vec::new();
        for &n in &SCALED_GPM_COUNTS {
            for bw in BwSetting::ALL {
                let point = format!("{n}-GPM {}", bw.label());
                let cfg = ExpConfig::paper_default(n, bw);
                let speedups: Vec<f64> = suite.iter().map(|w| lab.speedup(w, &cfg)).collect();
                let energies: Vec<f64> = suite.iter().map(|w| lab.energy_ratio(w, &cfg)).collect();
                rows.push((
                    n,
                    bw.label(),
                    geomean_of("fig10", &format!("{point} speedup"), &speedups)?,
                    mean_of("fig10", &format!("{point} energy"), &energies)?,
                ));
            }
        }
        Ok(Fig10 { rows })
    }

    /// `(speedup, energy_ratio)` at `(gpms, bw)`, if swept.
    pub fn at(&self, gpms: usize, bw: BwSetting) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|r| r.0 == gpms && r.1 == bw.label())
            .map(|r| (r.2, r.3))
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["config", "BW", "speedup vs 1-GPM", "energy vs 1-GPM"]);
        for &(n, bw, s, e) in &self.rows {
            t.row([
                format!("{n}-GPM"),
                bw.to_string(),
                format!("{s:.2}"),
                format!("{e:.2}"),
            ]);
        }
        t
    }

    /// The JSON payload: one `{gpms, bw, speedup, energy_ratio}` row per
    /// point.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for &(n, bw, s, e) in &self.rows {
            let mut r = Json::object();
            r.insert("gpms", n);
            r.insert("bw", bw);
            r.insert("speedup", s);
            r.insert("energy_ratio", e);
            rows.push(r);
        }
        let mut o = Json::object();
        o.insert("rows", rows);
        o
    }
}

// ---------------------------------------------------------------------------
// Point studies (§V-C / §V-D)
// ---------------------------------------------------------------------------

/// The §V-C/§V-D point studies around the 32-GPM design.
#[derive(Debug, Clone)]
pub struct PointStudies {
    /// EDPSE (%) of the 32-GPM on-board 1x-BW design at 1×/2×/4× link
    /// energy per bit (paper: <1% total impact).
    pub link_energy_edpse: Vec<(f64, f64)>,
    /// EDPSE of 32-GPM with 4× link energy *and* 2× bandwidth, vs the
    /// 1x-BW baseline (paper: +8.8% EDPSE).
    pub energy_for_bandwidth_edpse: (f64, f64),
    /// Energy saving and EDPSE gain at 32-GPM on-package (2x-BW) for
    /// 25% and 50% amortization vs none:
    /// `(fraction, energy_saving_pct, edpse_gain_pp)`.
    pub amortization: Vec<(f64, f64, f64)>,
    /// §V-D: energy reduction (%) at 32 GPMs from raising 1x→4x BW while
    /// staying on board (paper: 27.4%).
    pub energy_reduction_bw_only_pct: f64,
    /// §V-D: energy reduction (%) from additionally moving on package
    /// with constant-energy amortization (paper: 45%).
    pub energy_reduction_package_pct: f64,
}

impl PointStudies {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        vec![
            ExpConfig::paper_default(32, BwSetting::X1),
            ExpConfig::on_board(32, BwSetting::X2, Topology::Ring),
            ExpConfig::on_board(32, BwSetting::X4, Topology::Ring),
            ExpConfig::paper_default(32, BwSetting::X2),
            ExpConfig::paper_default(32, BwSetting::X4),
        ]
    }

    /// Runs all point studies.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        // Every study point reads one of the planned simulations (the
        // energy-model knobs — link pJ/bit, amortization — share counts).
        let edpse_avg = |lab: &Lab, cfg: &ExpConfig, point: &str| {
            let v: Vec<f64> = suite.iter().map(|w| lab.edpse(w, cfg)).collect();
            mean_of("point_studies", point, &v)
        };
        let energy_avg = |lab: &Lab, cfg: &ExpConfig, point: &str| {
            let v: Vec<f64> = suite.iter().map(|w| lab.energy_ratio(w, cfg)).collect();
            mean_of("point_studies", point, &v)
        };

        // Interconnect energy sensitivity.
        let base = ExpConfig::paper_default(32, BwSetting::X1);
        let link_energy_edpse = [1.0, 2.0, 4.0]
            .iter()
            .map(|&m| {
                Ok((
                    m,
                    edpse_avg(
                        lab,
                        &base.clone().with_link_energy_mult(m),
                        &format!("link energy x{m:.0}"),
                    )?,
                ))
            })
            .collect::<Result<_, ArtifactError>>()?;

        // 4x the energy buys 2x the bandwidth (stays on board).
        let expensive_fast =
            ExpConfig::on_board(32, BwSetting::X2, Topology::Ring).with_link_energy_mult(4.0);
        let energy_for_bandwidth_edpse = (
            edpse_avg(lab, &base, "1x-BW baseline")?,
            edpse_avg(lab, &expensive_fast, "4x energy for 2x BW")?,
        );

        // Amortization sensitivity at 32-GPM on-package 2x-BW.
        let no_amort = ExpConfig::paper_default(32, BwSetting::X2)
            .with_amortization(ConstantEnergyAmortization::none());
        let e_none = energy_avg(lab, &no_amort, "amortization none")?;
        let d_none = edpse_avg(lab, &no_amort, "amortization none")?;
        let amortization = [0.25, 0.5]
            .iter()
            .map(|&f| {
                let point = format!("amortization {:.0}%", f * 100.0);
                let cfg = ExpConfig::paper_default(32, BwSetting::X2)
                    .with_amortization(ConstantEnergyAmortization::new(f));
                let e = energy_avg(lab, &cfg, &point)?;
                let d = edpse_avg(lab, &cfg, &point)?;
                Ok((f, (e_none - e) / e_none * 100.0, d - d_none))
            })
            .collect::<Result<_, ArtifactError>>()?;

        // §V-D: energy reductions at 32 GPMs.
        let board_1x = energy_avg(
            lab,
            &ExpConfig::paper_default(32, BwSetting::X1),
            "board 1x-BW",
        )?;
        let board_4x = energy_avg(
            lab,
            &ExpConfig::on_board(32, BwSetting::X4, Topology::Ring),
            "board 4x-BW",
        )?;
        let package_4x = energy_avg(
            lab,
            &ExpConfig::paper_default(32, BwSetting::X4),
            "package 4x-BW",
        )?;

        Ok(PointStudies {
            link_energy_edpse,
            energy_for_bandwidth_edpse,
            amortization,
            energy_reduction_bw_only_pct: (board_1x - board_4x) / board_1x * 100.0,
            energy_reduction_package_pct: (board_1x - package_4x) / board_1x * 100.0,
        })
    }

    /// Renders the studies as a table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["study", "value"]);
        for &(m, e) in &self.link_energy_edpse {
            t.row([
                format!("EDPSE @ 32-GPM 1x-BW, link energy x{m:.0}"),
                format!("{e:.2}%"),
            ]);
        }
        let (base, fast) = self.energy_for_bandwidth_edpse;
        t.row([
            "EDPSE: 4x link energy for 2x bandwidth".to_string(),
            format!("{base:.2}% -> {fast:.2}% ({:+.1}pp)", fast - base),
        ]);
        for &(f, save, gain) in &self.amortization {
            t.row([
                format!("amortization {:.0}% vs none @ 32-GPM 2x-BW", f * 100.0),
                format!("energy -{save:.1}%, EDPSE {gain:+.1}pp"),
            ]);
        }
        t.row([
            "energy reduction, 32-GPM 1x->4x BW (board)".to_string(),
            format!("{:.1}%", self.energy_reduction_bw_only_pct),
        ]);
        t.row([
            "energy reduction, + on-package amortization".to_string(),
            format!("{:.1}%", self.energy_reduction_package_pct),
        ]);
        t
    }

    /// The JSON payload: all §V-C/§V-D study numbers.
    pub fn to_json(&self) -> Json {
        let mut link = Json::array();
        for &(m, e) in &self.link_energy_edpse {
            let mut r = Json::object();
            r.insert("link_energy_mult", m);
            r.insert("edpse_pct", e);
            link.push(r);
        }
        let (base, fast) = self.energy_for_bandwidth_edpse;
        let mut efb = Json::object();
        efb.insert("base_edpse_pct", base);
        efb.insert("fast_edpse_pct", fast);
        let mut amort = Json::array();
        for &(f, save, gain) in &self.amortization {
            let mut r = Json::object();
            r.insert("fraction", f);
            r.insert("energy_saving_pct", save);
            r.insert("edpse_gain_pp", gain);
            amort.push(r);
        }
        let mut o = Json::object();
        o.insert("link_energy_edpse", link);
        o.insert("energy_for_bandwidth", efb);
        o.insert("amortization", amort);
        o.insert(
            "energy_reduction_bw_only_pct",
            self.energy_reduction_bw_only_pct,
        );
        o.insert(
            "energy_reduction_package_pct",
            self.energy_reduction_package_pct,
        );
        o
    }
}

// ---------------------------------------------------------------------------
// Headline (§VII)
// ---------------------------------------------------------------------------

/// The paper's concluding headline numbers.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Mean energy of the naive (on-board, 1x-BW) 32-GPM design,
    /// normalized to 1-GPM (paper: ~2x).
    pub naive_energy_ratio: f64,
    /// Mean energy of the optimized (on-package, 4x-BW, amortized)
    /// 32-GPM design (paper: ~1.1x).
    pub optimized_energy_ratio: f64,
    /// Geometric-mean speedup of the optimized design (paper: ~18x).
    pub optimized_speedup: f64,
}

impl Headline {
    /// The sweep plan: every simulation `run` reads.
    pub fn plan_configs() -> Vec<ExpConfig> {
        vec![
            ExpConfig::paper_default(32, BwSetting::X1),
            ExpConfig::paper_default(32, BwSetting::X4),
        ]
    }

    /// Runs the comparison.
    pub fn run(lab: &Lab, suite: &[WorkloadSpec]) -> Result<Self, ArtifactError> {
        let naive = ExpConfig::paper_default(32, BwSetting::X1);
        let optimized = ExpConfig::paper_default(32, BwSetting::X4);
        let naive_e: Vec<f64> = suite.iter().map(|w| lab.energy_ratio(w, &naive)).collect();
        let opt_e: Vec<f64> = suite
            .iter()
            .map(|w| lab.energy_ratio(w, &optimized))
            .collect();
        let opt_s: Vec<f64> = suite.iter().map(|w| lab.speedup(w, &optimized)).collect();
        Ok(Headline {
            naive_energy_ratio: mean_of("headline", "naive 32-GPM energy", &naive_e)?,
            optimized_energy_ratio: mean_of("headline", "optimized 32-GPM energy", &opt_e)?,
            optimized_speedup: geomean_of("headline", "optimized 32-GPM speedup", &opt_s)?,
        })
    }

    /// Renders the headline numbers.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["quantity", "measured", "paper"]);
        t.row([
            "32-GPM naive energy vs 1-GPM".to_string(),
            format!("{:.2}x", self.naive_energy_ratio),
            "~2x".to_string(),
        ]);
        t.row([
            "32-GPM optimized energy vs 1-GPM".to_string(),
            format!("{:.2}x", self.optimized_energy_ratio),
            "~1.1x".to_string(),
        ]);
        t.row([
            "32-GPM optimized speedup".to_string(),
            format!("{:.1}x", self.optimized_speedup),
            "~18x".to_string(),
        ]);
        t
    }

    /// The JSON payload: the three §VII headline numbers.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("naive_energy_ratio", self.naive_energy_ratio);
        o.insert("optimized_energy_ratio", self.optimized_energy_ratio);
        o.insert("optimized_speedup", self.optimized_speedup);
        o
    }
}

/// The default workload set for the scaling figures (the paper's
/// 14-application subset).
pub fn default_suite() -> Vec<WorkloadSpec> {
    scaling_suite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactErrorKind;
    use workloads::Scale;

    fn smoke_suite() -> Vec<WorkloadSpec> {
        // Three representative apps keep unit tests fast.
        scaling_suite()
            .into_iter()
            .filter(|w| ["Hotspot", "Stream", "Nekbone-12"].contains(&w.name))
            .collect()
    }

    #[test]
    fn fig2_energy_grows_with_gpm_count() {
        let lab = Lab::new(Scale::Smoke);
        let fig = Fig2::run(&lab, &smoke_suite()).unwrap();
        assert_eq!(fig.points.len(), 5);
        let first = fig.points.first().unwrap().1;
        let last = fig.points.last().unwrap().1;
        assert!(
            last > first,
            "energy must grow when scaling on board: {first} -> {last}"
        );
        assert!(fig.render().render().contains("32x"));
    }

    #[test]
    fn fig6_edpse_declines_at_scale() {
        let lab = Lab::new(Scale::Smoke);
        let fig = Fig6::run(&lab, &smoke_suite()).unwrap();
        let e2 = fig.all_at(2).unwrap();
        let e32 = fig.all_at(32).unwrap();
        assert!(e2 > e32, "EDPSE must decline: {e2} vs {e32}");
    }

    #[test]
    fn fig6_empty_category_is_a_typed_error_not_a_panic() {
        let lab = Lab::new(Scale::Smoke);
        // A compute-only suite leaves the memory category empty.
        let compute_only: Vec<WorkloadSpec> = scaling_suite()
            .into_iter()
            .filter(|w| w.category == Category::Compute)
            .take(1)
            .collect();
        let err = Fig6::run(&lab, &compute_only).unwrap_err();
        assert_eq!(err.artifact, "fig6");
        assert_eq!(err.point, "2-GPM memory");
        assert_eq!(err.kind, ArtifactErrorKind::EmptyMean);
    }

    #[test]
    fn fig8_more_bandwidth_helps() {
        let lab = Lab::new(Scale::Smoke);
        let fig = Fig8::run(&lab, &smoke_suite()).unwrap();
        let x1 = fig.at(BwSetting::X1, 32).unwrap();
        let x4 = fig.at(BwSetting::X4, 32).unwrap();
        assert!(x4 > x1, "4x-BW must beat 1x-BW at 32 GPMs: {x1} vs {x4}");
    }

    #[test]
    fn fig10_reports_all_points() {
        let lab = Lab::new(Scale::Smoke);
        let fig = Fig10::run(&lab, &smoke_suite()).unwrap();
        assert_eq!(fig.rows.len(), 15);
        // Smoke-scale grids are tiny (2 CTAs per GPM at 32 modules), so
        // only sanity-check that the sweep produced usable numbers.
        let (s, e) = fig.at(32, BwSetting::X4).unwrap();
        assert!(s > 0.3 && e > 0.0, "s={s} e={e}");
    }

    #[test]
    fn empty_suite_fails_with_named_point() {
        let lab = Lab::new(Scale::Smoke);
        let err = Fig2::run(&lab, &[]).unwrap_err();
        assert_eq!(err.artifact, "fig2");
        assert_eq!(err.point, "2-GPM");
    }
}
