//! `serve_hot` and `serve_whatif`: an in-process `xpd` daemon over
//! `xp::RegistryEngine` at smoke scale, on a Unix socket, with the
//! default `ServerConfig` apart from socket and store paths (and, for
//! `serve_whatif`, a small store cap so LRU eviction runs). Load comes
//! from this process on at most one connection per host core.
//!
//! * `serve_hot` warms the store with a catalog of base artifacts and
//!   delta answers during set-up, then sends an open-loop, seeded,
//!   Zipf-popular Poisson schedule: every request is a store hit, so the
//!   simulator and executor sit idle and the load lands on protocol
//!   encode/decode, socket I/O, digesting and store reads.
//! * `serve_whatif` runs a closed loop of clients asking for never-seen
//!   deltas: mostly energy-only (`link_energy_mult`: a store miss that
//!   reuses cached simulation counts), one in [`gen::WHATIF_SIM_EVERY`]
//!   simulation-changing, with back-to-back duplicates that the daemon's
//!   in-flight deduplication must evaluate once. It is the write path:
//!   store put, journal, eviction, batching and its linger.

use crate::check::{classify, Refs, SERVE_REFS};
use crate::gen::{self, Arrival, Query};
use crate::probe::{quiet_lab, warm_up, RuntimeProbe, SimProbe};
use crate::stats::{mean, median, percentile, ratio};
use crate::tracer::{SpanRec, Tracer};
use crate::{metric, peak_rss_mb, Ctx, Outcome, SETUP_REPS};
use common::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};
use workloads::Scale;
use xp::{ExpConfig, RegistryEngine};
use xpd::client::{Connection, Endpoint, QueryError};
use xpd::server::{Server, ServerConfig, StopHandle};
use xpd::store::ResultStore;
use xpd::{QueryEngine, QueryRequest, QueryResponse};

/// Client-side read/write timeout: far above any answer here, so only
/// a hung daemon trips it (and the request then counts as failed).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// `serve_whatif`'s store cap: about 60 what-if answers, so eviction
/// runs within the first seconds.
const WHATIF_STORE_CAP: u64 = 192 * 1024;

/// Open-loop rate (requests/s) at which `serve_hot` reports its p50 and
/// p99: about a fifth of what two connections sustain on a 2-core
/// x86-64 host (about 500 requests/s), so queueing stays light.
pub const HOT_REFERENCE_RPS: f64 = 100.0;
/// The saturation phase: this many rounds of this many requests, sent
/// back to back on every connection. The median round's completion rate
/// is the daemon's hit capacity.
const HOT_SATURATION_ROUNDS: u64 = 7;
const HOT_SATURATION_REQUESTS: usize = 200;
/// Ladder rates for the highest sustainable rate.
pub const HOT_LADDER_RPS: [f64; 5] = [150.0, 250.0, 350.0, 450.0, 600.0];
/// Requests each ladder rung sends (p90 needs 100).
const HOT_RUNG_REQUESTS: f64 = 200.0;
/// Latency limit on each rung's p90: a rung passes when its p90 is at
/// most this and the generator is not falling behind (the mean lateness
/// of the rung's last tenth of requests is also within it).
pub const HOT_LIMIT_MS: f64 = 50.0;

/// Every schedule of one `serve_hot` run.
pub struct HotSchedules {
    /// Poisson arrivals at [`HOT_REFERENCE_RPS`]: at least 1100 requests,
    /// so the p99 has ten samples beyond it, and at least 60% of the run.
    pub reference: Vec<Arrival>,
    /// Saturation rounds: every request due at once, so each connection
    /// sends back to back.
    pub saturation: Vec<Vec<Arrival>>,
    /// Ladder rungs: (rate, Poisson arrivals at that rate).
    pub ladder: Vec<(f64, Vec<Arrival>)>,
}

/// The `serve_hot` schedules of `seed` for a run of `seconds`.
pub fn hot_schedules(seed: u64, seconds: Duration) -> HotSchedules {
    let schedule = |phase, rate, secs: f64| {
        gen::open_loop_schedule(
            seed,
            phase,
            rate,
            Duration::from_secs_f64(secs),
            gen::HOT_RANKS,
        )
    };
    let reference_secs = (seconds.as_secs_f64() * 0.6).max(1100.0 / HOT_REFERENCE_RPS);
    let saturation = (0..HOT_SATURATION_ROUNDS)
        .map(|round| {
            let mut a = schedule(100 + round, 1000.0, 60.0);
            a.truncate(HOT_SATURATION_REQUESTS);
            for arrival in &mut a {
                arrival.due = Duration::ZERO;
            }
            a
        })
        .collect();
    let ladder = HOT_LADDER_RPS
        .iter()
        .enumerate()
        .map(|(i, &rate)| (rate, schedule(i as u64 + 1, rate, HOT_RUNG_REQUESTS / rate)))
        .collect();
    HotSchedules {
        reference: schedule(0, HOT_REFERENCE_RPS, reference_secs),
        saturation,
        ladder,
    }
}

// ---------------------------------------------------------------------
// Open-loop load generator
// ---------------------------------------------------------------------

/// One open-loop request's timeline, from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: Duration,
    pub start: Duration,
    pub end: Duration,
    pub ok: bool,
}

impl Sample {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also charges the requests queued behind it.
    pub fn latency(&self) -> Duration {
        self.end.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.start.saturating_sub(self.due)
    }
}

/// Runs an open-loop schedule on `workers` threads. Each worker first
/// opens its own connection with `connect(worker)`; the schedule's clock
/// starts once all are open. A free worker then claims the next request,
/// waits until it is due, and calls `send(conn, i)`; `finish(i, reply)`
/// judges the reply outside the timed span. Returns one sample per
/// request, in schedule order.
pub fn open_loop<C, T>(
    due: &[Duration],
    workers: usize,
    connect: impl Fn(usize) -> C + Sync,
    send: impl Fn(&mut C, usize) -> T + Sync,
    finish: impl Fn(usize, T) -> bool + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let ready = Barrier::new(workers + 1);
    let go = Barrier::new(workers + 1);
    let start: OnceLock<Instant> = OnceLock::new();
    let samples: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(due.len()));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, samples, connect, send, finish) =
                (&next, &samples, &connect, &send, &finish);
            let (ready, go, start) = (&ready, &go, &start);
            scope.spawn(move || {
                let mut conn = connect(w);
                ready.wait();
                go.wait();
                let start = *start.get().expect("the clock starts before go");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= due.len() {
                        return;
                    }
                    if let Some(wait) = due[i].checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let sent = start.elapsed();
                    let reply = send(&mut conn, i);
                    let end = start.elapsed();
                    let ok = finish(i, reply);
                    let sample = Sample {
                        due: due[i],
                        start: sent,
                        end,
                        ok,
                    };
                    samples.lock().expect("sample lock").push((i, sample));
                }
            });
        }
        ready.wait();
        start.get_or_init(Instant::now);
        go.wait();
    });
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Requests still unsent a millisecond after the last one fell due: a
/// backlog that outlives the schedule means the offered rate was not
/// sustained.
pub fn backlog(samples: &[Sample]) -> usize {
    let Some(last) = samples.iter().map(|s| s.due).max() else {
        return 0;
    };
    let grace = last + Duration::from_millis(1);
    samples.iter().filter(|s| s.start > grace).count()
}

/// Mean lateness (ms) of the last tenth of a phase's requests: near
/// zero while the rate is sustained, growing with the backlog when not.
pub fn tail_lateness_ms(samples: &[Sample]) -> f64 {
    let tail = &samples[samples.len() - samples.len().div_ceil(10)..];
    ratio(
        tail.iter().map(|s| s.lateness().as_secs_f64() * 1e3).sum(),
        tail.len() as f64,
    )
}

/// Latencies in ms, a failed request counting as missing every limit.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if s.ok {
                s.latency().as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Daemon plumbing
// ---------------------------------------------------------------------

/// The engine a traced run hands the daemon: forwards to the registry
/// engine, with a span around each call while the tracer records.
struct TracedEngine {
    inner: RegistryEngine,
    tracer: Arc<Tracer>,
}

impl QueryEngine for TracedEngine {
    fn digest(&self, req: &QueryRequest) -> Result<String, String> {
        let _s = self.tracer.span("xp.digest");
        self.inner.digest(req)
    }

    fn evaluate(&self, reqs: &[QueryRequest]) -> Vec<Result<String, String>> {
        let _s = self.tracer.span("xp.evaluate");
        self.inner.evaluate(reqs)
    }

    fn describe(&self) -> Json {
        self.inner.describe()
    }
}

/// The daemon's engine with `xp serve`'s defaults (validation on, the
/// host's thread count); traced runs wrap it to record spans, and get
/// the wrapper back to switch its tracer on and off.
fn engine(threads: usize, traced: bool) -> (Option<Arc<TracedEngine>>, Arc<dyn QueryEngine>) {
    let registry = RegistryEngine::new(Scale::Smoke, threads, true);
    if !traced {
        return (None, Arc::new(registry));
    }
    let wrapped = Arc::new(TracedEngine {
        inner: registry,
        tracer: Arc::new(Tracer::new(false)),
    });
    (Some(wrapped.clone()), wrapped)
}

/// A daemon serving from its own thread.
struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    stop: StopHandle,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn start(
        dir: &Path,
        engine: Arc<dyn QueryEngine>,
        store_cap: Option<u64>,
    ) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        // A relative socket path keeps under the 108-byte sun_path limit
        // however deep the checkout is.
        let socket = dir.join("d.sock");
        let mut cfg = ServerConfig::new(dir.join("store"));
        cfg.socket = Some(socket.clone());
        if let Some(cap) = store_cap {
            cfg.store_cap_bytes = cap;
        }
        let server = Server::bind(cfg, engine)?;
        let stop = server.stop_handle();
        let thread = std::thread::Builder::new()
            .name("bench-xpd".to_string())
            .spawn(move || server.run())
            .map_err(|e| format!("cannot start the daemon thread: {e}"))?;
        Ok(Daemon {
            dir: dir.to_path_buf(),
            socket,
            stop,
            thread,
        })
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }

    fn stats(&self) -> Result<ServerStats, String> {
        let resp = xpd::client::request(
            &self.endpoint(),
            &QueryRequest::stats(),
            Some(CLIENT_TIMEOUT),
        )
        .map_err(|e| e.to_string())?;
        let stats = resp.stats.ok_or("stats answer without stats")?;
        let num = |path: &[&str]| {
            let mut j = &stats;
            for key in path {
                match j.get(key) {
                    Some(v) => j = v,
                    None => return 0.0,
                }
            }
            j.as_f64().unwrap_or(0.0)
        };
        Ok(ServerStats {
            requests: num(&["requests"]),
            hits: num(&["store", "hits"]),
            misses: num(&["store", "misses"]),
            evictions: num(&["store", "evictions"]),
            joins: num(&["inflight_joins"]),
            batches: num(&["batch", "batches"]),
            batch_points: num(&["batch", "points"]),
            rejected: num(&["queue", "rejected"]),
        })
    }

    /// Stops the daemon, waits for its threads, removes its directory.
    fn shutdown(self) -> Result<(), String> {
        self.stop.stop();
        let served = self
            .thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        served
    }
}

/// The daemon's `stats` counters the layer metrics use.
#[derive(Debug, Clone, Copy, Default)]
struct ServerStats {
    requests: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    joins: f64,
    batches: f64,
    batch_points: f64,
    rejected: f64,
}

impl ServerStats {
    fn since(self, before: ServerStats) -> ServerStats {
        ServerStats {
            requests: self.requests - before.requests,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            joins: self.joins - before.joins,
            batches: self.batches - before.batches,
            batch_points: self.batch_points - before.batch_points,
            rejected: self.rejected - before.rejected,
        }
    }

    fn report(&self, out: &mut Outcome) {
        let n = self.requests as usize;
        out.layer("xpd.store_evictions", self.evictions, n);
        out.layer(
            "xpd.store_hit_ratio",
            ratio(self.hits, self.hits + self.misses),
            n,
        );
        out.layer(
            "xpd.batch_points",
            ratio(self.batch_points, self.batches),
            self.batches as usize,
        );
        out.layer("xpd.dedup_join_ratio", ratio(self.joins, self.misses), n);
        out.layer("xpd.busy_ratio", ratio(self.rejected, self.requests), n);
    }
}

/// A connection the daemon has already accepted and served once (a
/// `health` round trip), so the first timed request does not wait for
/// the accept loop.
fn client(endpoint: &Endpoint) -> Result<Connection, QueryError> {
    let mut conn = Connection::connect(endpoint, Some(CLIENT_TIMEOUT))?;
    conn.request(&QueryRequest::health())?;
    Ok(conn)
}

/// One request on a connection that may have failed to open.
fn request(
    conn: &mut Result<Connection, QueryError>,
    req: &QueryRequest,
) -> Result<QueryResponse, QueryError> {
    match conn {
        Ok(c) => c.request(req),
        Err(e) => Err(e.clone()),
    }
}

/// Sends `queries` on `workers` connections (split round-robin, one
/// thread each) and returns each answer with its query, in order.
fn send_all(
    endpoint: &Endpoint,
    workers: usize,
    queries: &[Query],
) -> Vec<(Query, Result<QueryResponse, QueryError>)> {
    let answers: Mutex<Vec<(usize, Result<QueryResponse, QueryError>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let answers = &answers;
            scope.spawn(move || {
                let mut conn = client(endpoint);
                for (i, q) in queries.iter().enumerate().skip(w).step_by(workers) {
                    let resp = request(&mut conn, &q.request());
                    answers.lock().expect("answer lock").push((i, resp));
                }
            });
        }
    });
    let mut answers = answers.into_inner().expect("answer lock");
    answers.sort_by_key(|(i, _)| *i);
    answers
        .into_iter()
        .map(|(i, r)| (queries[i].clone(), r))
        .collect()
}

/// Counts checked answers into `out`; returns the ok responses.
fn tally(
    refs: &Refs,
    answers: Vec<(Query, Result<QueryResponse, QueryError>)>,
    out: &mut Outcome,
) -> Vec<QueryResponse> {
    let mut ok = Vec::new();
    for (q, a) in answers {
        let failed = classify(refs, &q.key(), &a).failed();
        out.count(1, u64::from(failed));
        if let (false, Ok(resp)) = (failed, a) {
            ok.push(resp);
        }
    }
    ok
}

/// The daemon's per-request phase breakdown (`timing`), summed over
/// the answers that carry it.
#[derive(Debug, Default)]
struct Phases {
    sums_ms: [f64; 4],
    answers: usize,
}

impl Phases {
    const NAMES: [&'static str; 4] = ["queue_wait", "batch_linger", "eval", "store_write"];

    fn add(&mut self, resp: &QueryResponse) {
        let Some(timing) = &resp.timing else { return };
        for (sum, name) in self.sums_ms.iter_mut().zip(Self::NAMES) {
            *sum += timing
                .get(&format!("{name}_ms"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
        self.answers += 1;
    }

    fn report(&self, out: &mut Outcome) {
        for (sum, name) in self.sums_ms.iter().zip(Self::NAMES) {
            let mean = ratio(*sum, self.answers as f64);
            out.layer(&format!("xpd.{name}_ms"), mean, self.answers);
        }
    }
}

/// `common::json` timed on real response lines: render each response
/// to its wire line, parse it back.
fn json_probe(tracer: &Tracer, resps: &[QueryResponse], out: &mut Outcome) {
    const REPS: usize = 5;
    let (mut render, mut parse, mut kb) = (Duration::ZERO, Duration::ZERO, 0.0);
    for resp in resps {
        for _ in 0..REPS {
            let t = Instant::now();
            let line = {
                let _s = tracer.span("common.json_render");
                resp.to_json().render_jsonl_line()
            };
            render += t.elapsed();
            let t = Instant::now();
            let parsed = {
                let _s = tracer.span("common.json_parse");
                Json::parse(line.trim())
            };
            parse += t.elapsed();
            assert!(parsed.is_ok(), "a response line must parse back");
            kb += line.len() as f64 / 1024.0;
        }
    }
    let n = resps.len() * REPS;
    if n > 0 {
        out.layer(
            "common.json_render_us",
            render.as_secs_f64() * 1e6 / n as f64,
            n,
        );
        out.layer(
            "common.json_parse_us_per_kb",
            parse.as_secs_f64() * 1e6 / kb,
            n,
        );
    }
}

/// `ResultStore` put and get timed on a store of the benchmark's own,
/// with the daemon's cap and the run's own payloads.
fn store_probe(
    tracer: &Tracer,
    dir: &Path,
    cap: u64,
    payloads: &[(String, String)],
    gets: &[usize],
    out: &mut Outcome,
) -> Result<(), String> {
    let store = ResultStore::open(&dir.join("probe-store"), cap)?;
    let t = Instant::now();
    for (digest, payload) in payloads {
        let _s = tracer.span("xpd.store_put");
        store.put(digest, payload)?;
    }
    let put = t.elapsed();
    let t = Instant::now();
    for &i in gets {
        let _s = tracer.span("xpd.store_get");
        std::hint::black_box(store.get(&payloads[i].0));
    }
    let get = t.elapsed();
    if !payloads.is_empty() {
        out.layer(
            "xpd.store_put_us",
            put.as_secs_f64() * 1e6 / payloads.len() as f64,
            payloads.len(),
        );
    }
    if !gets.is_empty() {
        out.layer(
            "xpd.store_get_us",
            get.as_secs_f64() * 1e6 / gets.len() as f64,
            gets.len(),
        );
    }
    Ok(())
}

/// Durations of the spans named `name`, in µs.
fn span_us(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

// ---------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------

struct Hot {
    daemon: Daemon,
    workers: usize,
    engine: Option<Arc<TracedEngine>>,
    ranking: Vec<Query>,
    /// The warm answers, by popularity rank.
    warm: Vec<QueryResponse>,
}

fn hot_setup(
    ctx: &Ctx,
    refs: &Refs,
    rep: usize,
    traced: bool,
    out: &mut Outcome,
) -> Result<Hot, String> {
    warm_up();
    let (engine, dyn_engine) = engine(ctx.threads, traced);
    let daemon = Daemon::start(&ctx.dir.join(format!("hot{rep}")), dyn_engine, None)?;
    let ranking = gen::hot_ranking(ctx.seed);
    // fig6 first: its sweep covers every configuration the catalog's
    // deltas need, so the rest of the warm-up is energy evaluation.
    let mut order = vec![Query::new("fig6", &[])];
    order.extend(ranking.iter().cloned());
    let answers = send_all(&daemon.endpoint(), ctx.threads, &order);
    let warm = tally(refs, answers, out);
    if warm.len() != order.len() {
        return Err("the store warm-up got failed answers".to_string());
    }
    let warm = warm.into_iter().skip(1).collect();
    Ok(Hot {
        daemon,
        workers: ctx.threads,
        engine,
        ranking,
        warm,
    })
}

/// Runs `schedule` against the warm daemon. While `tracer` records,
/// requests ask for the daemon's phase breakdown, summed into `phases`.
fn hot_phase(
    hot: &Hot,
    refs: &Refs,
    schedule: &[Arrival],
    tracer: &Tracer,
    phases: &Mutex<Phases>,
) -> Vec<Sample> {
    let due: Vec<Duration> = schedule.iter().map(|a| a.due).collect();
    let requests: Vec<QueryRequest> = hot
        .ranking
        .iter()
        .map(|q| {
            let req = q.request();
            if tracer.enabled() {
                req.with_timing()
            } else {
                req
            }
        })
        .collect();
    let keys: Vec<String> = hot.ranking.iter().map(Query::key).collect();
    let endpoint = hot.daemon.endpoint();
    open_loop(
        &due,
        hot.workers,
        |_| client(&endpoint),
        |conn, i| {
            let _s = tracer.span_req("xpd.roundtrip", i as u64 + 1);
            request(conn, &requests[schedule[i].rank])
        },
        |i, reply| {
            if let Ok(resp) = &reply {
                phases.lock().expect("phase lock").add(resp);
            }
            !classify(refs, &keys[schedule[i].rank], &reply).failed()
        },
    )
}

/// Highest sustainable rate from the ladder's (rate, p90 ms, tail
/// lateness ms) rungs: where p90 crosses [`HOT_LIMIT_MS`], interpolated
/// between the last passing and the first failing rung (the top rung
/// when all pass, the bottom when none do).
fn max_rate(rungs: &[(f64, f64, f64)]) -> f64 {
    let pass = |&(_, p90, late): &(f64, f64, f64)| p90 <= HOT_LIMIT_MS && late <= HOT_LIMIT_MS;
    let mut best = rungs.first().map(|r| r.0).unwrap_or(0.0);
    for w in rungs.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if !pass(&lo) {
            break;
        }
        if pass(&hi) {
            best = hi.0;
            continue;
        }
        // A rung that fails on latency is interpolated; one that keeps
        // its latency but falls behind fails at its lower neighbour.
        if hi.1 > HOT_LIMIT_MS {
            let hi_p90 = if hi.1.is_finite() { hi.1 } else { f64::MAX };
            let frac = ((HOT_LIMIT_MS - lo.1) / (hi_p90 - lo.1)).clamp(0.0, 1.0);
            best = lo.0 + frac * (hi.0 - lo.0);
        }
        break;
    }
    best
}

pub fn run_hot(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let refs = Refs::parse(SERVE_REFS);
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut hot: Option<Hot> = None;
    for rep in 0..SETUP_REPS {
        if let Some(h) = hot.take() {
            h.daemon.shutdown()?;
        }
        let t = Instant::now();
        hot = Some(hot_setup(ctx, &refs, rep, trace, &mut out)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let hot = hot.expect("at least one set-up");
    let schedules = hot_schedules(ctx.seed, if trace { ctx.seconds / 2 } else { ctx.seconds });
    let off = Tracer::new(false);
    let untimed = Mutex::new(Phases::default());

    let reference = hot_phase(&hot, &refs, &schedules.reference, &off, &untimed);
    let lat = latencies_ms(&reference);
    out.count(
        reference.len() as u64,
        reference.iter().filter(|s| !s.ok).count() as u64,
    );
    if !trace {
        let p50 = percentile(&lat, 50.0)?;
        let p99 = percentile(&lat, 99.0)?;
        let late: Vec<f64> = reference
            .iter()
            .map(|s| s.lateness().as_secs_f64() * 1e3)
            .collect();
        let late_p99 = percentile(&late, 99.0)?;
        let mut sat_rates = Vec::new();
        for round in &schedules.saturation {
            let sat = hot_phase(&hot, &refs, round, &off, &untimed);
            out.count(
                sat.len() as u64,
                sat.iter().filter(|s| !s.ok).count() as u64,
            );
            let wall = sat.iter().map(|s| s.end).max().unwrap_or_default();
            sat_rates.push(sat.len() as f64 / wall.as_secs_f64());
        }
        let sat_rps = median(&sat_rates);
        let sat_n = HOT_SATURATION_ROUNDS as usize * HOT_SATURATION_REQUESTS;
        let mut rungs = Vec::new();
        for (rate, arrivals) in &schedules.ladder {
            let samples = hot_phase(&hot, &refs, arrivals, &off, &untimed);
            out.count(
                samples.len() as u64,
                samples.iter().filter(|s| !s.ok).count() as u64,
            );
            let p90 = percentile(&latencies_ms(&samples), 90.0)?;
            rungs.push((*rate, p90.value, tail_lateness_ms(&samples), samples.len()));
        }
        let max_rps = max_rate(&rungs.iter().map(|r| (r.0, r.1, r.2)).collect::<Vec<_>>());
        out.e2e = vec![
            metric("setup_s", "s", median(&setups), SETUP_REPS),
            metric("peak_rss_mb", "MB", peak_rss_mb(), 1),
            metric("throughput_per_s", "1/s", sat_rps, sat_n),
            metric("latency_ms", "ms", p50.value, p50.samples),
        ];
        out.detail = vec![
            metric("hot_p50_ms", "ms", p50.value, p50.samples),
            metric("hot_p99_ms", "ms", p99.value, p99.samples),
            metric("hot_max_rps", "1/s", max_rps, rungs.len()),
            metric("hot_saturation_rps", "1/s", sat_rps, sat_n),
            metric(
                "hot_reference_rps",
                "1/s",
                HOT_REFERENCE_RPS,
                reference.len(),
            ),
            metric(
                "generator_late_p99_ms",
                "ms",
                late_p99.value,
                late_p99.samples,
            ),
            metric(
                "backlog_at_reference",
                "count",
                backlog(&reference) as f64,
                reference.len(),
            ),
        ];
        for (rate, p90, late, n) in rungs {
            out.detail
                .push(metric(&format!("rung_{rate}_p90_ms"), "ms", p90, n));
            out.detail
                .push(metric(&format!("rung_{rate}_tail_late_ms"), "ms", late, n));
        }
        hot.daemon.shutdown()?;
        return Ok(out);
    }

    // Traced run: the reference phase above ran untraced; run it again
    // traced, with per-request phase timing, then time the store and
    // JSON layers on this run's own payloads.
    let engine = hot.engine.clone().expect("traced runs wrap the engine");
    let tracer = engine.tracer.clone();
    let before = hot.daemon.stats()?;
    let phases = Mutex::new(Phases::default());
    tracer.set_enabled(true);
    let traced = hot_phase(&hot, &refs, &schedules.reference, &tracer, &phases);
    tracer.set_enabled(false);
    let after = hot.daemon.stats()?;
    out.count(
        traced.len() as u64,
        traced.iter().filter(|s| !s.ok).count() as u64,
    );
    let p50 = |s: &[Sample]| median(&latencies_ms(s));
    out.layer(
        "trace.overhead_ratio",
        p50(&traced) / p50(&reference),
        traced.len(),
    );
    after.since(before).report(&mut out);
    let spans = tracer.spans();
    let rt = span_us(&spans, "xpd.roundtrip");
    out.layer("xpd.roundtrip_us", median(&rt), rt.len());
    let digest = span_us(&spans, "xp.digest");
    out.layer("xp.digest_us", mean(&digest), digest.len());
    // Hits never reach the scheduler, so the daemon reports zeros.
    phases.into_inner().expect("phase lock").report(&mut out);
    let payloads: Vec<(String, String)> = hot
        .warm
        .iter()
        .filter_map(|r| Some((r.digest.clone()?, r.payload.clone()?)))
        .collect();
    // Store reads in the reference phase's popularity order.
    let gets: Vec<usize> = schedules.reference.iter().map(|a| a.rank).collect();
    store_probe(
        &tracer,
        &ctx.dir,
        ServerConfig::new(".").store_cap_bytes,
        &payloads,
        &gets,
        &mut out,
    )?;
    json_probe(&tracer, &hot.warm, &mut out);
    out.spans = tracer.spans();
    hot.daemon.shutdown()?;
    Ok(out)
}

// ---------------------------------------------------------------------
// serve_whatif
// ---------------------------------------------------------------------

/// The `sensitivity` artifact's one planned point, which every what-if
/// delta here modifies.
fn whatif_base() -> ExpConfig {
    ExpConfig::paper_default(32, sim::BwSetting::X2)
}

struct Whatif {
    daemon: Daemon,
    workers: usize,
    engine: Option<Arc<TracedEngine>>,
}

fn whatif_setup(
    ctx: &Ctx,
    refs: &Refs,
    rep: usize,
    traced: bool,
    out: &mut Outcome,
) -> Result<Whatif, String> {
    warm_up();
    let (engine, dyn_engine) = engine(ctx.threads, traced);
    let dir = ctx.dir.join(format!("whatif{rep}"));
    let daemon = Daemon::start(&dir, dyn_engine, Some(WHATIF_STORE_CAP))?;
    // The base answer simulates the suite at the base point; energy-only
    // deltas then reuse those counts.
    let answers = send_all(&daemon.endpoint(), 1, &[Query::new("sensitivity", &[])]);
    if tally(refs, answers, out).is_empty() {
        return Err("the base sensitivity answer failed".to_string());
    }
    Ok(Whatif {
        daemon,
        workers: ctx.threads,
        engine,
    })
}

/// What a closed loop saw.
struct Closed {
    latencies_ms: Vec<f64>,
    wall: f64,
    failed: u64,
    /// The first answers, kept for the store and JSON probes.
    kept: Vec<QueryResponse>,
    /// Where in the sequence the loop stopped.
    next: usize,
}

/// Answers kept per closed loop for the layer probes.
const KEEP: usize = 200;

/// Runs the closed loop over `seq[first..]` for `budget`: each client
/// sends its next query as soon as its previous answer arrives.
fn closed_loop(
    w: &Whatif,
    refs: &Refs,
    seq: &[Query],
    first: usize,
    budget: Duration,
    tracer: &Tracer,
) -> Closed {
    let next = AtomicUsize::new(first);
    let results: Mutex<Vec<(f64, bool)>> = Mutex::new(Vec::new());
    let kept: Mutex<Vec<QueryResponse>> = Mutex::new(Vec::new());
    let last_end = Mutex::new(Duration::ZERO);
    let ready = Barrier::new(w.workers + 1);
    let clock: OnceLock<Instant> = OnceLock::new();
    let endpoint = w.daemon.endpoint();
    std::thread::scope(|scope| {
        for _ in 0..w.workers {
            let (next, results, kept, last_end) = (&next, &results, &kept, &last_end);
            let (ready, clock, endpoint) = (&ready, &clock, &endpoint);
            scope.spawn(move || {
                let mut conn = client(endpoint);
                ready.wait();
                ready.wait();
                let start = *clock.get().expect("the clock starts before the loop");
                loop {
                    if start.elapsed() >= budget {
                        return;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(q) = seq.get(i) else { return };
                    let req = if tracer.enabled() {
                        q.request().with_timing()
                    } else {
                        q.request()
                    };
                    let t = Instant::now();
                    let reply = {
                        let _s = tracer.span_req("xpd.roundtrip", i as u64 + 1);
                        request(&mut conn, &req)
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let end = start.elapsed();
                    let ok = !classify(refs, &q.key(), &reply).failed();
                    {
                        let mut last = last_end.lock().expect("time lock");
                        *last = (*last).max(end);
                    }
                    results.lock().expect("result lock").push((ms, ok));
                    if let (true, Ok(resp)) = (ok, reply) {
                        let mut kept = kept.lock().expect("kept lock");
                        if kept.len() < KEEP {
                            kept.push(resp);
                        }
                    }
                }
            });
        }
        ready.wait();
        clock.get_or_init(Instant::now);
        ready.wait();
    });
    let results = results.into_inner().expect("result lock");
    Closed {
        latencies_ms: results
            .iter()
            .map(|&(ms, ok)| if ok { ms } else { f64::INFINITY })
            .collect(),
        wall: last_end.into_inner().expect("time lock").as_secs_f64(),
        failed: results.iter().filter(|r| !r.1).count() as u64,
        kept: kept.into_inner().expect("kept lock"),
        next: next.load(Ordering::Relaxed).min(seq.len()),
    }
}

pub fn run_whatif(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let refs = Refs::parse(SERVE_REFS);
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<Whatif> = None;
    for rep in 0..SETUP_REPS {
        if let Some(w) = state.take() {
            w.daemon.shutdown()?;
        }
        let t = Instant::now();
        state = Some(whatif_setup(ctx, &refs, rep, trace, &mut out)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let w = state.expect("at least one set-up");
    let seq = gen::whatif_sequence(ctx.seed);
    let off = Tracer::new(false);
    let budget = if trace { ctx.seconds / 2 } else { ctx.seconds };
    let plain = closed_loop(&w, &refs, &seq, 0, budget, &off);
    out.count(plain.latencies_ms.len() as u64, plain.failed);
    let n = plain.latencies_ms.len();
    let qps = n as f64 / plain.wall;
    if !trace {
        let p50 = percentile(&plain.latencies_ms, 50.0)?;
        let p90 = percentile(&plain.latencies_ms, 90.0)?;
        out.e2e = vec![
            metric("setup_s", "s", median(&setups), SETUP_REPS),
            metric("peak_rss_mb", "MB", peak_rss_mb(), 1),
            metric("throughput_per_s", "1/s", qps, n),
            metric("latency_ms", "ms", p50.value, p50.samples),
        ];
        out.detail = vec![
            metric("whatif_qps", "1/s", qps, n),
            metric("whatif_p50_ms", "ms", p50.value, p50.samples),
            metric("whatif_p90_ms", "ms", p90.value, p90.samples),
            metric("queries_sent", "count", n as f64, n),
        ];
        w.daemon.shutdown()?;
        return Ok(out);
    }

    let engine = w.engine.clone().expect("traced runs wrap the engine");
    let tracer = engine.tracer.clone();
    let before = w.daemon.stats()?;
    tracer.set_enabled(true);
    let traced = closed_loop(&w, &refs, &seq, plain.next, budget, &tracer);
    tracer.set_enabled(false);
    let after = w.daemon.stats()?;
    out.count(traced.latencies_ms.len() as u64, traced.failed);
    out.layer(
        "trace.overhead_ratio",
        median(&traced.latencies_ms) / median(&plain.latencies_ms),
        traced.latencies_ms.len(),
    );
    after.since(before).report(&mut out);
    let spans = tracer.spans();
    let rt = span_us(&spans, "xpd.roundtrip");
    out.layer("xpd.roundtrip_us", median(&rt), rt.len());
    let digest = span_us(&spans, "xp.digest");
    out.layer("xp.digest_us", mean(&digest), digest.len());
    let eval = span_us(&spans, "xp.evaluate");
    out.layer("xp.evaluate_ms", mean(&eval) / 1e3, eval.len());
    let mut phases = Phases::default();
    for resp in &traced.kept {
        phases.add(resp);
    }
    phases.report(&mut out);
    let payloads: Vec<(String, String)> = traced
        .kept
        .iter()
        .filter_map(|r| Some((r.digest.clone()?, r.payload.clone()?)))
        .collect();
    let gets: Vec<usize> = (0..payloads.len()).rev().collect();
    store_probe(
        &tracer,
        &ctx.dir,
        WHATIF_STORE_CAP,
        &payloads,
        &gets,
        &mut out,
    )?;
    json_probe(&tracer, &traced.kept, &mut out);

    // The lower layers, replayed from this run's own inputs: energy
    // re-evaluation of the energy-only deltas, and the first
    // simulation-changing delta through the sim and the executor.
    let mut probe = SimProbe::default();
    let base = whatif_base();
    let suite = xp::default_suite();
    let counts = quiet_lab(Scale::Smoke, ctx.threads).counts(&suite[0], &base);
    for q in seq.iter().filter(|q| !q.changes_simulation()).take(50) {
        let cfg = xp::apply_sets(&base, &q.sets)?;
        probe.estimate_only(&tracer, &cfg, &counts);
    }
    if let Some(q) = seq.iter().find(|q| q.changes_simulation()) {
        let cfg = xp::apply_sets(&base, &q.sets)?;
        for wl in suite.iter().take(3) {
            probe.run(&tracer, wl, &cfg, Scale::Smoke);
        }
        let mut points: Vec<(workloads::WorkloadSpec, ExpConfig)> = Vec::new();
        for wl in &suite {
            points.push((wl.clone(), ExpConfig::baseline()));
            points.push((wl.clone(), cfg.clone()));
        }
        let lab = quiet_lab(Scale::Smoke, ctx.threads);
        let mut runtime = RuntimeProbe::default();
        let t = Instant::now();
        let report = {
            let _s = tracer.span("runtime.prime");
            lab.prime(&points)
        };
        runtime.record(&report, t.elapsed(), ctx.threads);
        runtime.report(&mut out);
    }
    probe.report(&mut out);
    out.spans = tracer.spans();
    w.daemon.shutdown()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_requests_from_when_they_were_due() {
        // Ten requests all due at once on one worker that takes 5 ms
        // each: request i waits for the i before it, and its latency
        // says so even though its own service took 5 ms.
        let due = vec![Duration::ZERO; 10];
        let samples = open_loop(
            &due,
            1,
            |_| (),
            |_, _| std::thread::sleep(Duration::from_millis(5)),
            |_, ()| true,
        );
        for (i, s) in samples.iter().enumerate() {
            let floor = Duration::from_millis(5 * (i as u64 + 1));
            assert!(
                s.latency() >= floor,
                "request {i}: {:?} < {floor:?}",
                s.latency()
            );
            assert!(s.lateness() >= Duration::from_millis(5 * i as u64));
        }
        assert_eq!(
            backlog(&samples),
            9,
            "all but the first waited past the last due time"
        );
    }

    #[test]
    fn open_loop_waits_for_due_times() {
        let due: Vec<Duration> = (0..5).map(|i| Duration::from_millis(10 * i)).collect();
        let samples = open_loop(&due, 2, |_| (), |_, _| (), |_, ()| true);
        for s in &samples {
            assert!(s.start >= s.due, "sent before it was due");
            assert!(s.lateness() < Duration::from_millis(20));
        }
        assert_eq!(backlog(&samples), 0);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let s = Sample {
            due: Duration::ZERO,
            start: Duration::ZERO,
            end: Duration::from_millis(1),
            ok: false,
        };
        assert!(latencies_ms(&[s])[0].is_infinite());
    }

    #[test]
    fn max_rate_interpolates_the_crossing() {
        let rungs = [(100.0, 10.0, 0.0), (200.0, 30.0, 0.0), (300.0, 70.0, 0.0)];
        let r = max_rate(&rungs);
        assert!((r - 250.0).abs() < 1e-9, "{r}");
        let all_pass = [(100.0, 10.0, 0.0), (200.0, 20.0, 0.0)];
        assert_eq!(max_rate(&all_pass), 200.0);
        let falling_behind = [(100.0, 10.0, 0.0), (200.0, 20.0, 80.0)];
        assert_eq!(max_rate(&falling_behind), 100.0);
    }
}
