//! `sweep`: cold, seeded samples of (surrogate × configuration) points
//! at smoke scale, each batch through a fresh `xp::Lab` at the host's
//! thread count — `Lab::prime`, then `Lab::point` and `Lab::edpse` per
//! point. Simulation is nearly all of the work.

use crate::check::{counts_digest, Refs, SWEEP_REFS};
use crate::gen::{self, Point};
use crate::probe::{quiet_lab, warm_up, RuntimeProbe, SimProbe};
use crate::stats::{median, percentile};
use crate::tracer::Tracer;
use crate::{metric, peak_rss_mb, Ctx, Outcome, SETUP_REPS};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use workloads::{Scale, WorkloadSpec};
use xp::ExpConfig;

/// Batches needed for a median batch time with ten samples beyond it.
const MIN_BATCHES: usize = 20;

/// What every set-up builds: the reference table and the point pool.
struct Setup {
    refs: Refs,
    pool: Vec<Point>,
}

fn setup() -> Setup {
    let refs = Refs::parse(SWEEP_REFS);
    let pool = gen::sweep_pool();
    warm_up();
    Setup { refs, pool }
}

/// The prime list of a batch: its points plus each surrogate's 1-GPM
/// baseline, which every EDPSE needs.
fn prime_list(batch: &[Point]) -> Vec<(WorkloadSpec, ExpConfig)> {
    let mut points: Vec<(WorkloadSpec, ExpConfig)> =
        batch.iter().map(|p| (p.spec(), p.config())).collect();
    let mut seen = HashSet::new();
    for p in batch {
        if seen.insert(p.workload) {
            points.push((p.spec(), ExpConfig::baseline()));
        }
    }
    points
}

/// One evaluated point, as it is checked against the references.
pub struct Answer {
    pub key: String,
    pub digest: String,
    pub edpse: String,
}

/// One cold batch through a fresh lab.
struct Batch {
    /// Host seconds from `Lab::prime` to the last `Lab::edpse`.
    wall: f64,
    answers: Vec<Answer>,
    /// Warp instructions of every distinct simulation the batch ran.
    instrs: u64,
    failures: u64,
}

fn run_batch(
    tracer: &Tracer,
    threads: usize,
    batch: &[Point],
    runtime: &mut RuntimeProbe,
) -> Batch {
    let lab = quiet_lab(Scale::Smoke, threads);
    let points = prime_list(batch);
    let t = Instant::now();
    let report = {
        let _s = tracer.span("runtime.prime");
        lab.prime(&points)
    };
    let prime_wall = t.elapsed();
    let mut evaluated = Vec::with_capacity(batch.len());
    for p in batch {
        let (w, cfg) = (p.spec(), p.config());
        let _s = tracer.span("xp.point");
        let point = lab.point(&w, &cfg);
        let edpse = lab.edpse(&w, &cfg);
        evaluated.push((point, edpse));
    }
    let wall = t.elapsed().as_secs_f64();
    runtime.record(&report, prime_wall, threads);
    let answers = batch
        .iter()
        .zip(&evaluated)
        .map(|(p, (point, edpse))| Answer {
            key: p.key(),
            digest: counts_digest(&point.counts),
            edpse: format!("{edpse:?}"),
        })
        .collect();
    let mut seen = HashSet::new();
    let instrs = points
        .iter()
        .filter(|(w, c)| seen.insert((w.name, format!("{:?}", c.sim_config()))))
        .map(|(w, c)| lab.counts(w, c).total_instructions())
        .sum();
    Batch {
        wall,
        answers,
        instrs,
        failures: report.failures() as u64,
    }
}

/// What a measuring loop saw: per-batch walls and rates, distinct
/// points, warp instructions, answers, executor failures and executor
/// figures.
struct Loop {
    walls: Vec<f64>,
    /// Distinct points per second of each batch.
    rates: Vec<f64>,
    points: u64,
    instrs: u64,
    answers: Vec<Answer>,
    errors: u64,
    runtime: RuntimeProbe,
}

/// Runs cold batches until `budget` has passed and at least
/// `min_batches` ran.
fn measure(
    ctx: &Ctx,
    tracer: &Tracer,
    s: &Setup,
    budget: Duration,
    first_batch: u64,
    min_batches: usize,
) -> Loop {
    let mut out = Loop {
        walls: Vec::new(),
        rates: Vec::new(),
        points: 0,
        instrs: 0,
        answers: Vec::new(),
        errors: 0,
        runtime: RuntimeProbe::default(),
    };
    let start = Instant::now();
    let mut index = first_batch;
    while start.elapsed() < budget || out.walls.len() < min_batches {
        let batch = gen::sweep_batch(&s.pool, ctx.seed, index);
        index += 1;
        let b = run_batch(tracer, ctx.threads, &batch, &mut out.runtime);
        let distinct = batch.iter().map(Point::key).collect::<HashSet<_>>().len();
        out.walls.push(b.wall);
        out.rates.push(distinct as f64 / b.wall);
        out.points += distinct as u64;
        out.instrs += b.instrs;
        out.errors += b.failures;
        out.answers.extend(b.answers);
    }
    out
}

fn check(refs: &Refs, answers: &[Answer], out: &mut Outcome) {
    let failed = answers
        .iter()
        .filter(|a| !refs.matches(&a.key, &[a.digest.clone(), a.edpse.clone()]))
        .count();
    out.count(answers.len() as u64, failed as u64);
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        setup_state = Some(setup());
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = setup_state.expect("at least one set-up");
    let mut out = Outcome::default();
    if !trace {
        let m = measure(ctx, &Tracer::new(false), &s, ctx.seconds, 0, MIN_BATCHES);
        check(&s.refs, &m.answers, &mut out);
        out.count(0, m.errors);
        let wall: f64 = m.walls.iter().sum();
        let p50 = percentile(&m.walls, 50.0)?;
        let rate = percentile(&m.rates, 50.0)?;
        let n = m.walls.len();
        out.e2e = vec![
            metric("setup_s", "s", median(&setups), SETUP_REPS),
            metric("peak_rss_mb", "MB", peak_rss_mb(), 1),
            metric("throughput_per_s", "1/s", rate.value, rate.samples),
            metric("latency_ms", "ms", p50.value * 1e3, p50.samples),
        ];
        out.detail = vec![
            metric("sweep_points_per_s", "1/s", rate.value, rate.samples),
            metric(
                "sim_kinstr_per_s",
                "kinstr/s",
                m.instrs as f64 / wall / 1e3,
                n,
            ),
            metric("batch_p50_ms", "ms", p50.value * 1e3, p50.samples),
            metric("distinct_points", "count", m.points as f64, n),
        ];
        return Ok(out);
    }

    // Traced run: half the budget untraced, half traced, then the
    // first batch replayed layer by layer.
    let half = ctx.seconds / 2;
    let plain = measure(ctx, &Tracer::new(false), &s, half, 0, 1);
    let tracer = Tracer::new(true);
    let traced = measure(ctx, &tracer, &s, half, plain.walls.len() as u64, 1);
    check(&s.refs, &plain.answers, &mut out);
    check(&s.refs, &traced.answers, &mut out);
    out.count(0, plain.errors + traced.errors);
    let per_point = |m: &Loop| m.walls.iter().sum::<f64>() / m.points as f64;
    out.layer(
        "trace.overhead_ratio",
        per_point(&traced) / per_point(&plain),
        traced.walls.len(),
    );
    traced.runtime.report(&mut out);

    let mut probe = SimProbe::default();
    let mut seen = HashSet::new();
    let mut answers = Vec::new();
    for p in gen::sweep_batch(&s.pool, ctx.seed, 0) {
        if seen.insert(p.key()) {
            let counts = probe.run(&tracer, &p.spec(), &p.config(), Scale::Smoke);
            answers.push((p.key(), counts_digest(&counts)));
        }
    }
    let failed = answers
        .iter()
        .filter(|(key, digest)| !s.refs.first_field_is(key, digest))
        .count();
    out.count(answers.len() as u64, failed as u64);
    probe.report(&mut out);
    out.spans = tracer.spans();
    Ok(out)
}
