//! `point32`: a seeded set of full-scale 32-GPM points — one
//! compute-heavy, one memory-heavy, one NoC-heavy — each one
//! `Lab::counts` call on a fresh serial lab, run one at a time so the
//! other cores stay idle. It is the only workload where one simulation
//! has spare cores and a full-scale working set, and it is the per-step
//! cost of a sequential optimizer.

use crate::check::{counts_digest, Refs, POINT32_REFS};
use crate::gen::{self, Point};
use crate::probe::{quiet_lab, warm_up, RuntimeProbe, SimProbe};
use crate::stats::median;
use crate::tracer::Tracer;
use crate::{metric, peak_rss_mb, Ctx, Outcome, SETUP_REPS};
use std::time::{Duration, Instant};
use workloads::Scale;

struct Setup {
    refs: Refs,
    set: Vec<Point>,
}

fn setup(seed: u64) -> Setup {
    let refs = Refs::parse(POINT32_REFS);
    let set = gen::point32_set(seed);
    warm_up();
    Setup { refs, set }
}

/// Rounds of the whole set: host seconds per round and per point,
/// warp instructions of one round, and (key, counts digest) per point
/// run.
struct Rounds {
    walls: Vec<f64>,
    /// `point_walls[i]`: host seconds of set point `i` in each round.
    point_walls: Vec<Vec<f64>>,
    instrs: u64,
    answers: Vec<(String, String)>,
}

impl Rounds {
    /// Host seconds of the set: each point's median over the rounds,
    /// summed, so one disturbed round does not decide the figure.
    fn set_wall(&self) -> f64 {
        self.point_walls.iter().map(|w| median(w)).sum()
    }
}

/// Runs the set round after round while another round still fits in
/// `budget` (always at least one).
fn measure(tracer: &Tracer, s: &Setup, budget: Duration) -> Rounds {
    let mut out = Rounds {
        walls: Vec::new(),
        point_walls: vec![Vec::new(); s.set.len()],
        instrs: 0,
        answers: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let round = Instant::now();
        let mut instrs = 0;
        for (i, p) in s.set.iter().enumerate() {
            let lab = quiet_lab(Scale::Full, 1);
            let t = Instant::now();
            let counts = {
                let _s = tracer.span("xp.counts");
                lab.counts(&p.spec(), &p.config())
            };
            out.point_walls[i].push(t.elapsed().as_secs_f64());
            instrs += counts.total_instructions();
            out.answers.push((p.key(), counts_digest(&counts)));
        }
        out.instrs = instrs;
        out.walls.push(round.elapsed().as_secs_f64());
        let mean = out.walls.iter().sum::<f64>() / out.walls.len() as f64;
        if start.elapsed().as_secs_f64() + mean > budget.as_secs_f64() {
            return out;
        }
    }
}

fn check(refs: &Refs, answers: &[(String, String)], out: &mut Outcome) {
    let failed = answers
        .iter()
        .filter(|(key, digest)| !refs.first_field_is(key, digest))
        .count();
    out.count(answers.len() as u64, failed as u64);
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        state = Some(setup(ctx.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = state.expect("at least one set-up");
    let mut out = Outcome::default();
    if !trace {
        let m = measure(&Tracer::new(false), &s, ctx.seconds);
        check(&s.refs, &m.answers, &mut out);
        let n = m.walls.len();
        let set_wall = m.set_wall();
        out.e2e = vec![
            metric("setup_s", "s", median(&setups), SETUP_REPS),
            metric("peak_rss_mb", "MB", peak_rss_mb(), 1),
            metric("throughput_per_s", "1/s", m.instrs as f64 / set_wall, n),
            metric("latency_ms", "ms", set_wall * 1e3, n),
        ];
        out.detail = vec![
            metric("point_wall_s", "s", set_wall, n),
            metric(
                "sim_kinstr_per_s",
                "kinstr/s",
                m.instrs as f64 / set_wall / 1e3,
                n,
            ),
            metric("points_per_set", "count", s.set.len() as f64, n),
        ];
        return Ok(out);
    }

    let half = ctx.seconds / 2;
    let plain = measure(&Tracer::new(false), &s, half);
    let tracer = Tracer::new(true);
    let traced = measure(&tracer, &s, half);
    check(&s.refs, &plain.answers, &mut out);
    check(&s.refs, &traced.answers, &mut out);
    out.layer(
        "trace.overhead_ratio",
        traced.set_wall() / plain.set_wall(),
        traced.walls.len(),
    );
    let mut probe = SimProbe::default();
    let mut answers = Vec::new();
    for p in &s.set {
        let counts = probe.run(&tracer, &p.spec(), &p.config(), Scale::Full);
        answers.push((p.key(), counts_digest(&counts)));
    }
    probe.report(&mut out);
    // The same set through the sweep executor at host threads: what
    // priming it would cost, and how idle the cores sit behind the
    // slowest point.
    let lab = quiet_lab(Scale::Full, ctx.threads);
    let points: Vec<_> = s.set.iter().map(|p| (p.spec(), p.config())).collect();
    let t = Instant::now();
    let report = {
        let _s = tracer.span("runtime.prime");
        lab.prime(&points)
    };
    let mut runtime = RuntimeProbe::default();
    runtime.record(&report, t.elapsed(), ctx.threads);
    runtime.report(&mut out);
    out.count(0, report.failures() as u64);
    for p in &s.set {
        answers.push((p.key(), counts_digest(&lab.counts(&p.spec(), &p.config()))));
    }
    check(&s.refs, &answers, &mut out);
    out.spans = tracer.spans();
    Ok(out)
}
