//! `--write-refs`: regenerates the reference digests under `refs/` from
//! the program at hand. Run it only when the program's outputs are
//! meant to change; a speed-only change must pass against the committed
//! tables.

use crate::check::{counts_digest, payload_digest};
use crate::gen::{self, Query};
use crate::probe::quiet_lab;
use crate::Ctx;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::Scale;
use xp::{ExpConfig, RegistryEngine};
use xpd::QueryEngine;

fn refs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("refs")
}

fn write(name: &str, body: &str) -> Result<(), String> {
    let path = refs_dir().join(name);
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} ({} lines)", path.display(), body.lines().count());
    Ok(())
}

/// Every sweep pool point: counts digest and EDPSE.
fn sweep(threads: usize) -> String {
    let pool = gen::sweep_pool();
    let lab = quiet_lab(Scale::Smoke, threads);
    let mut points: Vec<_> = pool.iter().map(|p| (p.spec(), p.config())).collect();
    for w in workloads::suite() {
        points.push((w, ExpConfig::baseline()));
    }
    let _ = lab.prime(&points);
    let mut out = String::new();
    for p in &pool {
        let (w, cfg) = (p.spec(), p.config());
        let counts = lab.point(&w, &cfg).counts;
        let edpse = lab.edpse(&w, &cfg);
        let _ = writeln!(out, "{}\t{}\t{edpse:?}", p.key(), counts_digest(&counts));
    }
    out
}

/// Every full-scale candidate: counts digest.
fn point32(threads: usize) -> String {
    let pool: Vec<gen::Point> = gen::point32_classes().into_iter().flatten().collect();
    let lab = quiet_lab(Scale::Full, threads);
    let _ = lab.prime(
        &pool
            .iter()
            .map(|p| (p.spec(), p.config()))
            .collect::<Vec<_>>(),
    );
    let mut out = String::new();
    for p in &pool {
        let counts = lab.counts(&p.spec(), &p.config());
        let _ = writeln!(out, "{}\t{}", p.key(), counts_digest(&counts));
    }
    out
}

/// Every query either serving workload can send: payload digest.
fn serve(threads: usize) -> Result<String, String> {
    let engine = RegistryEngine::new(Scale::Smoke, threads, true);
    let mut queries = vec![Query::new("fig6", &[]), Query::new("sensitivity", &[])];
    queries.extend(gen::hot_catalog().into_iter().flatten());
    queries.extend(gen::whatif_energy_pool());
    queries.extend(gen::whatif_sim_pool());
    let mut seen = HashSet::new();
    queries.retain(|q| seen.insert(q.key()));
    let mut out = String::new();
    for chunk in queries.chunks(32) {
        let reqs: Vec<_> = chunk.iter().map(Query::request).collect();
        for (q, answer) in chunk.iter().zip(engine.evaluate(&reqs)) {
            let payload = answer.map_err(|e| format!("{}: {e}", q.key()))?;
            let _ = writeln!(out, "{}\t{}", q.key(), payload_digest(&payload));
        }
    }
    Ok(out)
}

pub fn write_all(ctx: &Ctx) -> Result<(), String> {
    std::fs::create_dir_all(refs_dir()).map_err(|e| e.to_string())?;
    write("sweep.tsv", &sweep(ctx.threads))?;
    write("point32.tsv", &point32(ctx.threads))?;
    write("serve.tsv", &serve(ctx.threads)?)?;
    Ok(())
}
