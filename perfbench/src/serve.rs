//! `serve-mixed`: an in-process `frote-serve` serving `wine-rf`, driven
//! open-loop with 8-row score requests while rule publishes arrive.
//!
//! The nominal load runs in episodes of [`EPISODE_S`] seconds, each on a
//! freshly set-up server: a publish grows the served dataset and rule set,
//! so a fixed number of publishes per episode keeps every episode's work
//! the same. Each episode's registry, snapshot history included, is kept
//! until the load ends, so peak RSS holds every generation of the run.
//! `--seed` picks which training rows each request carries. The
//! published rules (a conflict-free draw from the §5.1 rule pool of the
//! wine dataset) and the refitter's FROTE seed are fixed: a publish's cost
//! depends on its rule's coverage, and seeded rules moved the median
//! publish time by ±25%. Latency is measured from each request's due time,
//! so a stall also charges the requests queued behind it. Every response
//! is checked against a local twin `FroteRefitter` that receives the same
//! publishes, at the generation the response names.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use frote_data::synth::DatasetKind;
use frote_data::Dataset;
use frote_eval::setup::{draw_conflict_free_frs, prepare};
use frote_eval::Scale;
use frote_ml::TrainAlgorithm;
use frote_obs::HistogramSnapshot;
use frote_serve::client::parse_score_body;
use frote_serve::workload::by_name;
use frote_serve::{
    parse_rows, render_rows, Client, FroteRefitter, ModelRegistry, Refitter, ServeConfig, Server,
    Snapshot, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probe::{Probe, TimedTrainer};
use crate::stats::{median, quantile, ratio};
use crate::{Options, Outcome};

const MODEL: &str = "wine-rf";
/// Rows per score request.
const ROWS_PER_REQUEST: usize = 8;
/// Distinct request bodies, cycled through by the schedule.
const BODIES: usize = 1024;
/// Nominal open-loop score rate (requests per second): about a tenth of
/// what one connection sustains closed-loop (5.5k-6k req/s on a 2-vCPU
/// VM, `serve.closed_loop_rps_1conn` in the traced run), so the server is
/// mostly idle and latency shows service time rather than queueing.
const NOMINAL_RPS: f64 = 500.0;
/// Score requests between two rule publishes: one publish a second at the
/// nominal rate. A synthetic stress cadence, not taken from a measurement;
/// it publishes each rule of the five-rule pool once per episode.
const PUBLISH_EVERY: usize = 500;
/// Seconds of nominal load per episode.
const EPISODE_S: f64 = 5.0;
/// Rate ladder for `serve.max_rps_p99_le_10ms`, requests per second: from
/// a few percent of the closed-loop capacity to past what two connections
/// sustain closed-loop.
const LADDER: &[f64] =
    &[250.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 16000.0];
/// Seconds per ladder step, and per closed-loop capacity measurement.
const LADDER_STEP_S: f64 = 1.0;
/// The p99 limit a ladder step must meet (the `le_10ms` in the metric name).
const P99_LIMIT_MS: f64 = 10.0;
/// Set-up repetitions; `setup_s` is their median (one set-up takes a few
/// milliseconds, so it is repeated often enough to steady the median).
const SETUP_REPS: usize = 31;
/// Seed of the published rules and of the refitter's FROTE runs.
const RULE_SEED: u64 = 3;
/// The generator sleeps until this long before a request is due, then
/// yields until it is: a plain sleep overshoots by a host-dependent
/// wake-up delay that would be charged to the server.
const SPIN: Duration = Duration::from_micros(200);

/// The seeded inputs shared by every episode.
struct Inputs {
    workload: Workload,
    ds: Dataset,
    /// Row indices of each request body.
    rows: Vec<Vec<usize>>,
    bodies: Vec<String>,
    /// Rule texts, published in order (cycled).
    rules: Vec<String>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let workload = by_name(MODEL).map_err(|e| e.to_string())?;
    let ds = workload.dataset();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<usize>> = (0..BODIES)
        .map(|_| (0..ROWS_PER_REQUEST).map(|_| rng.random_range(0..ds.n_rows())).collect())
        .collect();
    let bodies = rows.iter().map(|r| render_rows(&ds, r)).collect();
    // A publish body is `<clause> => <class>`; `FeedbackRule::display_with`
    // renders `IF … THEN quality = …`, which the publish parser rejects.
    let pool = prepare(DatasetKind::WineQuality, Scale::Smoke, RULE_SEED);
    let schema = ds.schema();
    let mut rule_rng = StdRng::seed_from_u64(RULE_SEED);
    let rules: Vec<String> = draw_conflict_free_frs(&pool, usize::MAX, &mut rule_rng)
        .iter()
        .map(|r| {
            format!("{} => {}", r.clause().display_with(schema), schema.class_name(r.dist().mode()))
        })
        .collect();
    if rules.is_empty() {
        return Err("no publishable rules".to_string());
    }
    Ok(Inputs { workload, ds, rows, bodies, rules })
}

fn refitter(inp: &Inputs, trainer: Box<dyn TrainAlgorithm>) -> FroteRefitter {
    FroteRefitter::new(inp.ds.clone(), trainer, inp.workload.frote_config(), false, RULE_SEED)
}

/// Set-up: the initial snapshot fit, the registry and `Server::bind`.
/// Also returns the registry, which outlives the server if it is kept.
fn build_server(
    inp: &Inputs,
    probe: Option<&Arc<Probe>>,
) -> Result<(Server, Arc<ModelRegistry>, f64), String> {
    let t = Instant::now();
    let trainer = inp.workload.trainer();
    let trainer: Box<dyn TrainAlgorithm> = match probe {
        Some(p) => Box::new(TimedTrainer::new(trainer, p)),
        None => trainer,
    };
    let refitter = refitter(inp, trainer);
    let first = refitter.initial_snapshot().map_err(|e| e.to_string())?;
    let registry = Arc::new(ModelRegistry::new());
    registry.register(MODEL, first, Some(Box::new(refitter)));
    let server =
        Server::bind(&ServeConfig::default(), Arc::clone(&registry)).map_err(|e| e.to_string())?;
    Ok((server, registry, t.elapsed().as_secs_f64()))
}

/// A running server and its accept thread; dropping it drains and joins.
struct Running {
    server: Arc<Server>,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    fn start(server: Server) -> Running {
        let server = Arc::new(server);
        let runner = Arc::clone(&server);
        Running { server, thread: Some(std::thread::spawn(move || runner.run())) }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.server.trigger_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One score request as sent.
struct Sent {
    body: usize,
    /// From due time to response, milliseconds.
    latency_ms: f64,
    /// From due time to send, milliseconds.
    late_ms: f64,
    /// `(generation, labels)` of a 200, or the failure.
    result: Result<(u64, Vec<String>), String>,
}

/// One publish as sent.
struct Published {
    latency_ms: f64,
    result: Result<u64, String>,
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN) {
            Some(far) if !far.is_zero() => std::thread::sleep(far),
            _ => std::thread::yield_now(),
        }
    }
}

fn score(client: &mut Client, body: &str) -> Result<(u64, Vec<String>), String> {
    let resp = client
        .request("POST", &format!("/score/{MODEL}"), body)
        .map_err(|e| format!("score transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!("score status {}: {}", resp.status, resp.body.trim_end()));
    }
    parse_score_body(&resp.body).map_err(|e| e.to_string())
}

/// Sends `count` score requests open-loop at `rate` over `senders`
/// connections (request `k` on connection `k % senders`, due at
/// `k / rate`), and — when `rules` is given — one rule publish every
/// [`PUBLISH_EVERY`] requests on a connection of its own.
fn open_loop(
    addr: &str,
    inp: &Inputs,
    rate: f64,
    count: usize,
    senders: usize,
    offset: usize,
    rules: Option<&[String]>,
) -> Result<(Vec<Sent>, Vec<Published>), String> {
    let mut clients = Vec::new();
    for _ in 0..senders + usize::from(rules.is_some()) {
        clients.push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let publish_client = rules.map(|_| clients.pop().expect("one client per publisher"));
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);
    std::thread::scope(|scope| {
        let publisher = publish_client.zip(rules).map(|(mut client, rules)| {
            scope.spawn(move || {
                let mut out = Vec::new();
                for p in 0..count / PUBLISH_EVERY {
                    let at = due((p + 1) * PUBLISH_EVERY);
                    sleep_until(at);
                    let result = client
                        .publish(MODEL, Some(&rules[p % rules.len()]))
                        .map_err(|e| format!("publish {p}: {e}"));
                    out.push(Published { latency_ms: at.elapsed().as_secs_f64() * 1e3, result });
                }
                out
            })
        });
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(s, mut client)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(count / senders + 1);
                    for k in (s..count).step_by(senders) {
                        let at = due(k);
                        sleep_until(at);
                        let late_ms = at.elapsed().as_secs_f64() * 1e3;
                        let body = (offset + k) % inp.bodies.len();
                        let result = score(&mut client, &inp.bodies[body]);
                        if result.is_err() {
                            let _ = client.reconnect();
                        }
                        let latency_ms = at.elapsed().as_secs_f64() * 1e3;
                        out.push(Sent { body, latency_ms, late_ms, result });
                    }
                    out
                })
            })
            .collect();
        let mut sent = Vec::with_capacity(count);
        for w in workers {
            sent.extend(w.join().map_err(|_| "sender thread panicked".to_string())?);
        }
        let published = match publisher {
            Some(p) => p.join().map_err(|_| "publisher thread panicked".to_string())?,
            None => Vec::new(),
        };
        Ok((sent, published))
    })
}

/// Closed-loop capacity: each of `senders` connections sends its next
/// request as soon as the last one is answered, for `seconds`. Returns
/// requests per second.
fn closed_loop(addr: &str, inp: &Inputs, senders: usize, seconds: f64) -> Result<f64, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let counts = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders)
            .map(|s| {
                scope.spawn(move || -> Result<usize, String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut n = 0;
                    while Instant::now() < end {
                        score(&mut client, &inp.bodies[(s + n * senders) % inp.bodies.len()])?;
                        n += 1;
                    }
                    Ok(n)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "closed-loop sender panicked".to_string())?)
            .collect::<Result<Vec<usize>, String>>()
    })?;
    Ok(counts.iter().sum::<usize>() as f64 / start.elapsed().as_secs_f64())
}

/// Replays the publishes on a local twin and checks every response
/// against the twin's snapshot of the generation it names. Returns the
/// failure messages (one per failed operation).
fn verify(inp: &Inputs, sent: &[Sent], published: &[Published]) -> Vec<String> {
    let mut problems = Vec::new();
    let twin = refitter(inp, inp.workload.trainer());
    let mut snaps: Vec<Snapshot> = match twin.initial_snapshot() {
        Ok(s) => vec![s],
        Err(e) => return vec![format!("twin initial snapshot: {e}")],
    };
    for (p, publish) in published.iter().enumerate() {
        match &publish.result {
            Ok(generation) if *generation == snaps.len() as u64 + 1 => {
                match twin.refit(Some(&inp.rules[p % inp.rules.len()])) {
                    Ok(s) => snaps.push(s),
                    Err(e) => problems.push(format!("twin refit {p}: {e}")),
                }
            }
            Ok(generation) => {
                problems.push(format!("publish {p}: unexpected generation {generation}"));
            }
            Err(e) => problems.push(e.clone()),
        }
    }
    let schema = inp.ds.schema();
    for (k, s) in sent.iter().enumerate() {
        match &s.result {
            Ok((generation, labels)) => {
                let snap = (*generation as usize).checked_sub(1).and_then(|g| snaps.get(g));
                let Some(snap) = snap else {
                    problems.push(format!("request {k}: unknown generation {generation}"));
                    continue;
                };
                let expected = snap.model().predict_rows(&inp.ds, &inp.rows[s.body]);
                let same = expected.len() == labels.len()
                    && expected.iter().zip(labels).all(|(&c, l)| schema.class_name(c) == l);
                if !same {
                    problems.push(format!(
                        "request {k}: generation {generation} diverged from the twin"
                    ));
                }
            }
            Err(e) => problems.push(format!("request {k}: {e}")),
        }
    }
    problems
}

/// Score latencies, lateness and publish latencies of the nominal load.
#[derive(Default)]
struct Nominal {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    /// Each episode's score p99.
    episode_p99_ms: Vec<f64>,
    /// Time the publishes spent training (traced load only).
    publish_train_ms: f64,
}

/// Serves `seconds` of nominal load as whole episodes, each on a fresh
/// server, and checks every response. With `probe`, the servers train
/// through the timing decorator.
fn nominal(
    inp: &Inputs,
    seconds: f64,
    probe: Option<&Arc<Probe>>,
    outcome: &mut Outcome,
) -> Result<Nominal, String> {
    let episodes = (seconds / EPISODE_S).round().max(1.0) as usize;
    let count = (NOMINAL_RPS * EPISODE_S).round() as usize;
    let mut out = Nominal::default();
    // Every episode's registry, with its snapshot history, stays alive
    // until the load ends, as one long-lived server's would: peak RSS then
    // holds every generation published in the run.
    let mut registries = Vec::with_capacity(episodes);
    for e in 0..episodes {
        let (server, registry, _) = build_server(inp, probe)?;
        registries.push(registry);
        // The initial fit is set-up, not publish work.
        if let Some(p) = probe {
            p.take();
        }
        let running = Running::start(server);
        let (sent, published) =
            open_loop(&running.addr(), inp, NOMINAL_RPS, count, 1, e * count, Some(&inp.rules))?;
        drop(running);
        if let Some(p) = probe {
            out.publish_train_ms += p.take().trains.iter().map(|t| t.secs() * 1e3).sum::<f64>();
        }
        outcome.attempted += (sent.len() + published.len()) as u64;
        for p in verify(inp, &sent, &published) {
            outcome.fail(p);
        }
        let latency: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
        out.episode_p99_ms.push(quantile(&latency, 0.99));
        out.latency_ms.extend(latency);
        out.late_ms.extend(sent.iter().map(|s| s.late_ms));
        out.publish_ms.extend(published.iter().map(|p| p.latency_ms));
    }
    drop(registries);
    Ok(out)
}

/// Runs `serve-mixed`.
pub fn run(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = run_inner(opts, &mut outcome) {
        outcome.check(Some(e));
    }
    outcome
}

fn run_inner(opts: &Options, outcome: &mut Outcome) -> Result<(), String> {
    let inp = inputs(opts.seed)?;
    println!("# serve: {MODEL}, {} distinct bodies, {} rules", inp.bodies.len(), inp.rules.len());
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_s.push(build_server(&inp, None)?.2);
    }
    outcome.set("setup_s", median(&setup_s));
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let base = nominal(&inp, budget, None, outcome)?;
    let p50 = quantile(&base.latency_ms, 0.5);
    outcome.set("work_s", median(&base.publish_ms) / 1e3);
    outcome.set("step_p50_ms", p50);
    // The median episode's p99: one host stall moves one episode, not the
    // reported tail.
    outcome.set("step_p99_ms", median(&base.episode_p99_ms));
    outcome.set("loadgen.late_p99_ms", quantile(&base.late_ms, 0.99));
    let q = |p: f64| quantile(&base.latency_ms, p);
    println!(
        "# nominal: {} requests at {NOMINAL_RPS} req/s, {} publishes, late p99 {:.3} ms, \
         latency p50/p90/p99/p99.9 {:.3}/{:.3}/{:.3}/{:.3} ms, episode p99s {:?}",
        base.latency_ms.len(),
        base.publish_ms.len(),
        quantile(&base.late_ms, 0.99),
        q(0.5),
        q(0.9),
        q(0.99),
        q(0.999),
        base.episode_p99_ms,
    );
    if opts.trace {
        traced(&inp, budget, p50, outcome)?;
    }
    Ok(())
}

/// Upper bound (µs) of the histogram bucket holding the median span.
fn hist_p50_us(h: Option<&HistogramSnapshot>) -> f64 {
    let Some(h) = h else { return 0.0 };
    let mut seen = 0;
    for (b, &n) in h.buckets.iter().enumerate() {
        seen += n;
        if n > 0 && 2 * seen >= h.count {
            return (frote_obs::HIST_BASE_NS << b) as f64 / 1e3;
        }
    }
    0.0
}

/// Traced nominal load, direct boundary/batch calls, and the rate ladder.
fn traced(
    inp: &Inputs,
    seconds: f64,
    untraced_p50: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let probe = Probe::new();
    frote_obs::reset();
    frote_obs::set_metrics_enabled(true);
    let load = nominal(inp, seconds, Some(&probe), outcome);
    frote_obs::set_metrics_enabled(false);
    let load = load?;
    let snap = frote_obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
    let publishes = load.publish_ms.len() as f64;
    let train_ms = load.publish_train_ms;
    outcome.set("publish.train_ms", ratio(train_ms, publishes));
    outcome
        .set("publish.other_ms", ratio(load.publish_ms.iter().sum::<f64>() - train_ms, publishes));
    outcome.set("publish.failures", counter("serve.publish_failures"));
    outcome.set("serve.request_p50_us", hist_p50_us(hist("serve.request_ns")));
    outcome.set("serve.batch_p50_us", hist_p50_us(hist("serve.batch_ns")));
    outcome
        .set("serve.rows_per_batch", ratio(counter("serve.rows_scored"), counter("serve.batches")));
    outcome.set("serve.shed", counter("serve.shed_requests") + counter("serve.shed_connections"));
    outcome.set("serve.timeouts", counter("serve.timeouts"));
    let traced_p50 = quantile(&load.latency_ms, 0.5);
    outcome.set("trace.overhead_pct", 100.0 * (ratio(traced_p50, untraced_p50) - 1.0));

    // The boundary and the snapshot model, called directly on the bodies.
    let snapshot =
        refitter(inp, inp.workload.trainer()).initial_snapshot().map_err(|e| e.to_string())?;
    let (mut parse_us, mut guard_us, mut predict_us) = (Vec::new(), Vec::new(), Vec::new());
    for body in &inp.bodies {
        let t = Instant::now();
        let rows = parse_rows(snapshot.schema(), body).map_err(|e| e.to_string())?;
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        snapshot.guard().check(&rows).map_err(|e| e.to_string())?;
        guard_us.push(t.elapsed().as_secs_f64() * 1e6);
        let all: Vec<usize> = (0..rows.n_rows()).collect();
        let t = Instant::now();
        std::hint::black_box(snapshot.model().predict_rows(&rows, &all));
        predict_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    outcome.set("serve.parse_us", median(&parse_us));
    outcome.set("serve.guard_us", median(&guard_us));
    outcome.set("serve.predict_us", median(&predict_us));

    // Closed-loop capacity and the ladder run on a fresh untraced server
    // with no publishes.
    let running = Running::start(build_server(inp, None)?.0);
    let senders = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = closed_loop(&running.addr(), inp, 1, LADDER_STEP_S)?;
    let all = closed_loop(&running.addr(), inp, senders, LADDER_STEP_S)?;
    outcome.set("serve.closed_loop_rps_1conn", one);
    outcome.set("serve.closed_loop_rps_nconn", all);
    println!(
        "# closed loop: {one:.0} req/s on 1 connection, {all:.0} req/s on {senders}; \
         the nominal {NOMINAL_RPS} req/s is {:.1}% of the first",
        100.0 * NOMINAL_RPS / one
    );
    let mut max_rps = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let count = (rate * LADDER_STEP_S).round() as usize;
        let (sent, _) = open_loop(&running.addr(), inp, rate, count, senders, i * count, None)?;
        let latency: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
        let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
        let p99 = quantile(&latency, 0.99);
        let failed = sent.iter().filter(|s| s.result.is_err()).count();
        // A step whose sends ran later than the limit had a growing
        // backlog, or a generator that fell behind: it is discarded.
        let behind = quantile(&late, 0.99) > P99_LIMIT_MS;
        println!(
            "# ladder: {rate} req/s p50 {:.3} ms p99 {p99:.3} ms failed {failed} behind {behind}",
            quantile(&latency, 0.5)
        );
        if p99 > P99_LIMIT_MS || failed > 0 || behind {
            break;
        }
        max_rps = rate;
    }
    if Some(&max_rps) == LADDER.last() {
        println!("# ladder: the top rung met the limit; capacity lies above the ladder");
    }
    outcome.set("serve.max_rps_p99_le_10ms", max_rps);
    Ok(())
}
