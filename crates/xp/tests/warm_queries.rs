//! The warm path of [`RegistryEngine`]: what-if queries whose every
//! simulation is already cached are answered by `evaluate_warm` with
//! the exact bytes the batch path produces, without simulating; any
//! query that would need a new simulation (or the fitted model before
//! it exists) is left to the batch path.

use common::proto::QueryRequest;
use workloads::Scale;
use xp::{
    apply_sets, default_suite, ArtifactRegistry, Lab, RegistryEngine, RegistryOptions, SweepPlan,
};
use xpd::QueryEngine;

fn whatif(artifact: &str, sets: &[(&str, &str)]) -> QueryRequest {
    sets.iter()
        .fold(QueryRequest::query(artifact), |req, &(k, v)| {
            req.with_set(k, v)
        })
}

#[test]
fn energy_only_deltas_are_warm_byte_identical_and_never_simulate() {
    let engine = RegistryEngine::new(Scale::Smoke, 1, false);
    let base = whatif("fig2", &[("gpms", "2")]);
    // Cold: nothing is cached yet, so the query is not warm.
    assert!(engine.evaluate_warm(&base).is_none());
    assert_eq!(engine.lab().cached_runs(), 0, "the probe never simulates");
    engine.evaluate(std::slice::from_ref(&base))[0]
        .as_ref()
        .expect("the base what-if evaluates");
    let primed = engine.lab().cached_runs();
    assert!(primed > 0);

    for sets in [
        vec![("gpms", "2")],
        vec![("gpms", "2"), ("link_energy_mult", "2")],
        vec![("link_energy_mult", "0.25"), ("gpms", "2")],
    ] {
        let req = whatif("fig2", &sets);
        let warm = engine
            .evaluate_warm(&req)
            .unwrap_or_else(|| panic!("{sets:?} re-prices cached counts, so it is warm"));
        assert_eq!(
            engine.lab().cached_runs(),
            primed,
            "{sets:?}: the warm path must not simulate"
        );
        let batch = engine.evaluate(std::slice::from_ref(&req)).remove(0);
        assert_eq!(
            warm, batch,
            "{sets:?}: warm bytes differ from the batch path"
        );
        assert!(warm.is_ok());
    }

    // Every simulation-changing knob leaves the query cold.
    for (key, value) in [
        ("gpms", "4"),
        ("bw", "2x"),
        ("topology", "switch"),
        ("mlp", "8"),
        ("clock_scale", "0.8"),
        ("link_compression", "2"),
    ] {
        let req = whatif("fig2", &[("gpms", "2"), (key, value)]);
        assert!(
            engine.evaluate_warm(&req).is_none(),
            "{key}={value} changes the simulation, so it is not warm"
        );
    }
    // Plain artifact queries always take the batch path.
    assert!(engine.evaluate_warm(&QueryRequest::query("fig2")).is_none());
    assert_eq!(engine.lab().cached_runs(), primed);
}

#[test]
fn every_sweeping_artifact_is_warm_after_its_own_batch_prime() {
    // The warm probe and the batch prime walk the same plan points, so
    // whatever the batch path just evaluated must read as warm.
    let engine = RegistryEngine::new(Scale::Smoke, 1, false);
    let registry = ArtifactRegistry::standard(&RegistryOptions { validation: false });
    let mut checked = 0;
    for artifact in registry.iter().filter(|a| !a.plan().configs.is_empty()) {
        let id = artifact.id();
        let req = whatif(id, &[("gpms", "2"), ("link_energy_mult", "2")]);
        let batch = engine.evaluate(std::slice::from_ref(&req)).remove(0);
        assert!(batch.is_ok(), "{id}: {batch:?}");
        let primed = engine.lab().cached_runs();
        let warm = engine
            .evaluate_warm(&req)
            .unwrap_or_else(|| panic!("{id}: not warm right after its batch prime"));
        assert_eq!(warm, batch, "{id}: warm bytes differ from the batch path");
        assert_eq!(
            engine.lab().cached_runs(),
            primed,
            "{id}: the warm path must not simulate"
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} artifacts sweep");
}

#[test]
fn a_fit_artifact_is_not_warm_until_the_fit_exists() {
    // The only test in this binary that fits, so the process-wide fit
    // cache is empty until this test fills it.
    let engine = RegistryEngine::new(Scale::Smoke, 1, true);
    let sets = [("gpms", "2"), ("link_energy_mult", "2")];
    let req = whatif("repro_report", &sets);

    // Prime every simulation the what-if reads, but not the fit.
    let registry = ArtifactRegistry::standard(&RegistryOptions { validation: true });
    let plan = registry.get("repro_report").unwrap().plan();
    assert!(plan.needs_fit);
    let owned: Vec<(String, String)> = sets
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let configs: Vec<_> = plan
        .configs
        .iter()
        .map(|c| apply_sets(c, &owned).unwrap())
        .collect();
    let report = engine
        .lab()
        .prime_plan(&default_suite(), &SweepPlan::sweep(configs));
    assert_eq!(report.failures(), 0, "the what-if sweep simulates");
    assert!(!xp::validation::fit_is_cached(Scale::Smoke));
    assert!(
        engine.evaluate_warm(&req).is_none(),
        "warm before the fit exists"
    );

    let _ = xp::validation::fit_model_cached(Scale::Smoke);
    let primed = engine.lab().cached_runs();
    let warm = engine
        .evaluate_warm(&req)
        .expect("warm once the fit exists");
    assert_eq!(engine.lab().cached_runs(), primed);
    assert_eq!(warm, engine.evaluate(std::slice::from_ref(&req)).remove(0));
}

#[test]
fn every_plan_covers_its_body_and_evaluate_primes_once() {
    // `Artifact::evaluate` is the only prime an artifact gets, so its
    // plan must name every simulation its body reads: one the plan
    // missed would be simulated serially, unnoticed, through
    // `Lab::counts`. A fresh lab per artifact keeps one artifact's
    // points from covering for another's plan.
    let suite: Vec<_> = ["Stream", "Hotspot", "Nekbone-12"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    let registry = ArtifactRegistry::standard(&RegistryOptions { validation: false });
    let mut checked = 0;
    for artifact in registry.iter().filter(|a| !a.plan().configs.is_empty()) {
        let id = artifact.id();
        let lab = Lab::with_threads(Scale::Smoke, 2);
        let report = lab.prime_plan(&suite, &artifact.plan());
        assert_eq!(report.failures(), 0, "{id}: the plan simulates");
        let primed = lab.cached_runs();
        let sweeps = lab.sweep_history().len();

        artifact
            .evaluate(&lab, &suite)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(
            lab.cached_runs(),
            primed,
            "{id}: the body read a simulation its plan does not name"
        );
        assert_eq!(
            lab.sweep_history().len(),
            sweeps + 1,
            "{id}: evaluate must prime exactly once (its own plan)"
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} artifacts sweep");
}
