//! The artifact layer: every paper figure, table, and study is an
//! [`Artifact`] — a declarative sweep plan plus an evaluation that
//! produces both the historical text rendering and a structured JSON
//! payload.
//!
//! The split matters for performance and for correctness:
//!
//! * [`Artifact::plan`] declares *what to sweep* as data. The `xp`
//!   driver unions the plans of every requested artifact and primes the
//!   whole batch through the `runtime::SweepExecutor` in one parallel
//!   sweep, so per-artifact evaluation runs against a warm cache.
//! * [`Artifact::evaluate`] primes the artifact's own plan — the one
//!   place an artifact's simulations are primed, an all-hits pass after
//!   a union prime — then runs the serial, deterministic body, which only
//!   reads the lab, so output is byte-identical no matter how many worker
//!   threads ran the sweep.
//!
//! Statistics over sweep results go through the fallible [`mean_of`] /
//! [`geomean_of`] helpers, which turn an empty or out-of-domain sample
//! set into a typed [`ArtifactError`] naming the artifact and sweep
//! point instead of panicking mid-run.

use crate::configs::ExpConfig;
use crate::lab::Lab;
use common::json::Json;
use common::stats;
use std::collections::HashSet;
use std::fmt;
use workloads::WorkloadSpec;

/// A typed evaluation failure: which artifact, at which sweep point,
/// and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactError {
    /// The artifact id ("fig6", "repro_report", ...).
    pub artifact: String,
    /// The sweep point being evaluated ("32-GPM 2x-BW", ...).
    pub point: String,
    /// The failure itself.
    pub kind: ArtifactErrorKind,
}

/// What failed inside an artifact evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactErrorKind {
    /// An arithmetic mean was requested over an empty sample set
    /// (e.g. a category with no workloads in the suite).
    EmptyMean,
    /// A geometric mean was requested over an empty sample set or one
    /// containing non-positive / non-finite values.
    GeomeanDomain,
    /// The underlying sweep failed (a simulation point panicked).
    Sweep(String),
    /// Writing results to disk failed.
    Io(String),
}

impl ArtifactError {
    /// A new error for `artifact` at `point`.
    pub fn new(
        artifact: impl Into<String>,
        point: impl Into<String>,
        kind: ArtifactErrorKind,
    ) -> Self {
        ArtifactError {
            artifact: artifact.into(),
            point: point.into(),
            kind,
        }
    }

    /// Wraps a failed sweep prime, naming the artifact whose plan was
    /// being simulated.
    pub fn from_sweep(artifact: impl Into<String>, err: &runtime::SweepError) -> Self {
        ArtifactError::new(
            artifact,
            "sweep prime",
            ArtifactErrorKind::Sweep(err.message.clone()),
        )
    }

    /// The serialized form recorded in run manifests.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("artifact", self.artifact.as_str());
        o.insert("point", self.point.as_str());
        o.insert("message", self.to_string());
        o
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            ArtifactErrorKind::EmptyMean => "mean over an empty sample set".to_string(),
            ArtifactErrorKind::GeomeanDomain => {
                "geometric mean over an empty or non-positive sample set".to_string()
            }
            ArtifactErrorKind::Sweep(msg) => format!("sweep failed: {msg}"),
            ArtifactErrorKind::Io(msg) => format!("io error: {msg}"),
        };
        write!(f, "artifact {} at {}: {what}", self.artifact, self.point)
    }
}

impl std::error::Error for ArtifactError {}

/// Arithmetic mean that reports failure as a typed error naming the
/// artifact and sweep point (the paper's figure sweeps are never empty,
/// but a filtered suite can be).
pub fn mean_of(artifact: &str, point: &str, values: &[f64]) -> Result<f64, ArtifactError> {
    stats::mean(values)
        .ok_or_else(|| ArtifactError::new(artifact, point, ArtifactErrorKind::EmptyMean))
}

/// Geometric mean with the same typed-error contract as [`mean_of`].
pub fn geomean_of(artifact: &str, point: &str, values: &[f64]) -> Result<f64, ArtifactError> {
    stats::geomean(values)
        .ok_or_else(|| ArtifactError::new(artifact, point, ArtifactErrorKind::GeomeanDomain))
}

/// What an artifact needs simulated before it can evaluate: a list of
/// experiment configurations (swept against the workload suite; the
/// 1-GPM baseline is always primed alongside) plus whether the §IV
/// fitting pipeline is required.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// Configurations to prime for every suite workload.
    pub configs: Vec<ExpConfig>,
    /// Whether the artifact runs the microbenchmark fitting pipeline
    /// (not part of the simulation sweep cache).
    pub needs_fit: bool,
}

impl SweepPlan {
    /// A plan with no sweep and no fit (static artifacts like Table III).
    pub fn none() -> Self {
        SweepPlan::default()
    }

    /// A pure sweep plan.
    pub fn sweep(configs: Vec<ExpConfig>) -> Self {
        SweepPlan {
            configs,
            needs_fit: false,
        }
    }

    /// A fitting-pipeline-only plan (Table Ib, Figs. 4a/4b).
    pub fn fit() -> Self {
        SweepPlan {
            configs: Vec::new(),
            needs_fit: true,
        }
    }

    /// Marks the plan as also needing the fitting pipeline.
    pub fn with_fit(mut self) -> Self {
        self.needs_fit = true;
        self
    }

    /// Folds another plan into this one.
    pub fn merge(&mut self, other: SweepPlan) {
        self.configs.extend(other.configs);
        self.needs_fit |= other.needs_fit;
    }

    /// The planned configs without exact repeats, in first-occurrence
    /// order: what a sweep of this plan covers. `configs` itself keeps
    /// every entry as declared, because its order and multiplicity feed
    /// [`crate::query::artifact_digest`] (the `--resume` journal and
    /// `xpd` store keys).
    pub fn distinct_configs(&self) -> Vec<ExpConfig> {
        let mut seen = HashSet::new();
        self.configs
            .iter()
            .filter(|cfg| seen.insert(format!("{cfg:?}")))
            .cloned()
            .collect()
    }
}

/// The evaluated result of one artifact: the exact text the historical
/// binary printed, plus the structured JSON payload the `xp` driver
/// writes to disk.
#[derive(Debug, Clone)]
pub struct ArtifactData {
    /// Full text rendering (what the pre-registry binary printed to
    /// stdout, byte for byte).
    pub text: String,
    /// Structured payload, including the `id`/`title` envelope.
    pub json: Json,
}

/// The body of an artifact: computes its numbers from an already-primed
/// lab.
pub(crate) type EvalFn =
    Box<dyn Fn(&Lab, &[WorkloadSpec]) -> Result<ArtifactData, ArtifactError> + Send + Sync>;

/// One paper artifact: identity, a declarative sweep plan, and a body
/// producing [`ArtifactData`] from the simulations the plan names.
pub struct Artifact {
    pub(crate) id: &'static str,
    pub(crate) title: &'static str,
    /// A wrapper over other artifacts (excluded from `xp run all`).
    pub(crate) composite: bool,
    pub(crate) plan: Box<dyn Fn() -> SweepPlan + Send + Sync>,
    pub(crate) eval: EvalFn,
}

impl Artifact {
    /// Stable identifier (`fig6`, `table1b`, `repro_report`, ...); the
    /// CLI name and the JSON file stem.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// One-line human title shown by `xp list`.
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// What to sweep (and whether the fitting pipeline is needed): every
    /// simulation the body reads.
    pub fn plan(&self) -> SweepPlan {
        (self.plan)()
    }

    /// Whether this artifact is a composite wrapper over other
    /// artifacts (excluded from `xp run all` to avoid double work).
    pub fn composite(&self) -> bool {
        self.composite
    }

    /// Primes the plan on `lab`, then runs the body against it. After a
    /// union prime covering this plan the prime is an all-hits pass; a
    /// point that failed even after the executor's retries becomes a
    /// typed [`ArtifactErrorKind::Sweep`] failure here instead of a
    /// panic in the body.
    pub fn evaluate(
        &self,
        lab: &Lab,
        suite: &[WorkloadSpec],
    ) -> Result<ArtifactData, ArtifactError> {
        if let Some(err) = lab.prime_plan(suite, &self.plan()).first_error() {
            return Err(ArtifactError::from_sweep(self.id, err));
        }
        (self.eval)(lab, suite)
    }
}

/// Builds the standard `{"id": ..., "title": ...}` envelope and appends
/// the payload object's fields to it.
pub fn enveloped(id: &str, title: &str, payload: Json) -> Json {
    let mut o = Json::object();
    o.insert("id", id);
    o.insert("title", title);
    match payload {
        Json::Object(pairs) => {
            for (k, v) in pairs {
                o.insert(k, v);
            }
        }
        other => {
            o.insert("data", other);
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_helpers_name_the_failure_site() {
        let err = mean_of("fig6", "32-GPM compute", &[]).unwrap_err();
        assert_eq!(err.artifact, "fig6");
        assert_eq!(err.point, "32-GPM compute");
        assert_eq!(err.kind, ArtifactErrorKind::EmptyMean);
        assert!(err.to_string().contains("fig6"));
        assert!(err.to_string().contains("32-GPM compute"));

        let err = geomean_of("fig7", "step 16->32", &[1.0, -2.0]).unwrap_err();
        assert_eq!(err.kind, ArtifactErrorKind::GeomeanDomain);
        assert!(mean_of("fig2", "2-GPM", &[1.0, 3.0]).is_ok());
        assert_eq!(geomean_of("fig2", "2-GPM", &[4.0, 1.0]).unwrap(), 2.0);
    }

    #[test]
    fn plans_merge() {
        use sim::BwSetting;
        let mut a = SweepPlan::sweep(vec![ExpConfig::paper_default(2, BwSetting::X1)]);
        a.merge(SweepPlan::fit());
        a.merge(SweepPlan::sweep(vec![ExpConfig::paper_default(
            4,
            BwSetting::X2,
        )]));
        assert_eq!(a.configs.len(), 2);
        assert!(a.needs_fit);
    }

    #[test]
    fn distinct_configs_keep_first_occurrence_order_and_leave_the_plan_alone() {
        use sim::BwSetting;
        let two = ExpConfig::paper_default(2, BwSetting::X1);
        let four = ExpConfig::paper_default(4, BwSetting::X2);
        let plan = SweepPlan::sweep(vec![two.clone(), four.clone(), two.clone()]);
        assert_eq!(plan.distinct_configs(), vec![two, four]);
        assert_eq!(plan.configs.len(), 3, "the declared plan keeps its repeats");
    }

    #[test]
    fn envelope_flattens_payload_objects() {
        let mut payload = Json::object();
        payload.insert("rows", Json::array());
        let j = enveloped("fig2", "Figure 2", payload);
        assert_eq!(j.keys(), vec!["id", "title", "rows"]);
        assert_eq!(j.get("id").and_then(Json::as_str), Some("fig2"));
    }

    #[test]
    fn error_json_names_the_site() {
        let err = ArtifactError::new("fig9", "32-GPM", ArtifactErrorKind::Sweep("boom".into()));
        let j = err.to_json();
        assert_eq!(j.get("artifact").and_then(Json::as_str), Some("fig9"));
        assert!(j
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("boom"));
    }
}
