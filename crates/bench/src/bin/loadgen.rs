//! `loadgen`: deterministic load driver for the serving plane.
//!
//! ```text
//! loadgen --addr HOST:PORT [--workload NAME] [--requests N]
//!         [--rows-per-req R] [--concurrency C] [--wait-secs S]
//!         [--malformed M] [--publish-every P] [--backoff]
//! ```
//!
//! Drives a running `frote-serve` instance with a fixed, seed-free request
//! schedule: request `i` carries rows `i*R .. i*R+R` (wrapping) of the
//! workload's training table, rendered in the wire row format. Because the
//! workload names a deterministic dataset + fixed-seed trainer, loadgen
//! rebuilds the *same* model locally and asserts every response — and the
//! FNV digest over all responses in request order — bit-identical to
//! direct `predict_rows` calls. `--publish-every P` interleaves rule-less
//! publishes (a retrain on the same dataset produces the same model, so
//! predictions must stay identical across generations while the
//! generation counter advances). `--malformed M` follows up with `M`
//! malformed score requests, asserting each is rejected with a structured
//! `400` and that the connection keeps serving afterwards — boundary
//! validation must never kill a worker. `--backoff` drives the requests
//! through the client retry contract (capped exponential backoff with
//! deterministic jitter, reconnect on drop, `Retry-After` honored) and
//! additionally tolerates-and-retries transient `500 injected fault`
//! responses — the mode the CI chaos-smoke job runs against a server with
//! `FROTE_FAULTS` armed. The response digest is computed over the locally
//! predicted expected labels, so it is identical with and without faults.
//!
//! Exit status: 0 when every assertion held, 1 otherwise — the CI
//! serve-smoke job's pass/fail.

use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use frote_bench::benchgate::FnvHasher;
use frote_serve::client::parse_score_body;
use frote_serve::workload::by_name;
use frote_serve::{Backoff, Client};

struct Options {
    addr: String,
    workload: String,
    requests: usize,
    rows_per_req: usize,
    concurrency: usize,
    wait_secs: u64,
    malformed: usize,
    publish_every: usize,
    backoff: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--workload NAME] [--requests N] [--rows-per-req R] \
         [--concurrency C] [--wait-secs S] [--malformed M] [--publish-every P] [--backoff]"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut opts = Options {
        addr: String::new(),
        workload: "wine-rf".to_string(),
        requests: 200,
        rows_per_req: 8,
        concurrency: 4,
        wait_secs: 10,
        malformed: 0,
        publish_every: 0,
        backoff: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--workload" => opts.workload = value("--workload"),
            "--requests" => opts.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--rows-per-req" => {
                opts.rows_per_req = value("--rows-per-req").parse().unwrap_or_else(|_| usage());
            }
            "--concurrency" => {
                opts.concurrency = value("--concurrency").parse().unwrap_or_else(|_| usage());
            }
            "--wait-secs" => {
                opts.wait_secs = value("--wait-secs").parse().unwrap_or_else(|_| usage());
            }
            "--malformed" => {
                opts.malformed = value("--malformed").parse().unwrap_or_else(|_| usage());
            }
            "--publish-every" => {
                opts.publish_every = value("--publish-every").parse().unwrap_or_else(|_| usage());
            }
            "--backoff" => opts.backoff = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if opts.addr.is_empty() || opts.requests == 0 || opts.rows_per_req == 0 || opts.concurrency == 0
    {
        usage()
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_options();
    let workload = match by_name(&opts.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The local twin of the server's model: same dataset recipe, same
    // fixed-seed trainer. Its predictions are the ground truth every
    // response is asserted against.
    let ds = workload.dataset();
    let model = workload.trainer().train(&ds);
    let expected_labels = |request: usize| -> Vec<String> {
        let indices: Vec<usize> = (0..opts.rows_per_req)
            .map(|k| (request * opts.rows_per_req + k) % ds.n_rows())
            .collect();
        model
            .predict_rows(&ds, &indices)
            .into_iter()
            .map(|c| ds.schema().class_name(c).to_string())
            .collect()
    };

    if let Err(e) = Client::connect_with_retry(&opts.addr, Duration::from_secs(opts.wait_secs)) {
        eprintln!("server at {} not ready: {e}", opts.addr);
        return ExitCode::FAILURE;
    }

    let start = Instant::now();
    let mut failures = 0usize;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..opts.concurrency {
            let opts = &opts;
            let ds = &ds;
            let expected_labels = &expected_labels;
            workers.push(scope.spawn(move || -> Result<(), String> {
                let mut client = Client::connect(&opts.addr)
                    .map_err(|e| format!("worker {worker}: connect: {e}"))?;
                let mut backoff = opts.backoff.then(|| {
                    Backoff::new(
                        0xB0FF ^ worker as u64,
                        Duration::from_millis(5),
                        Duration::from_millis(500),
                    )
                });
                let mut last_generation = 0u64;
                let mut i = worker;
                while i < opts.requests {
                    let body = workload.probe_body(ds, i * opts.rows_per_req, opts.rows_per_req);
                    let (generation, labels) =
                        score_with_policy(&mut client, backoff.as_mut(), workload.name(), &body)
                            .map_err(|e| format!("request {i}: {e}"))?;
                    if labels != expected_labels(i) {
                        return Err(format!(
                            "request {i}: generation {generation} response diverged from the \
                             local model"
                        ));
                    }
                    if generation < last_generation {
                        return Err(format!(
                            "request {i}: generation went backwards ({last_generation} -> \
                             {generation})"
                        ));
                    }
                    last_generation = generation;
                    // Rule-less publishes from worker 0: the retrain sees
                    // the same dataset, so responses stay identical while
                    // the generation counter advances under load.
                    if worker == 0 && opts.publish_every > 0 && i % opts.publish_every == 0 {
                        match client.publish(workload.name(), None) {
                            Ok(_) => {}
                            Err(e) if opts.backoff => {
                                // Transient under chaos: a failed publish
                                // rolled back server-side and the connection
                                // may be gone — re-dial and keep scoring.
                                eprintln!("loadgen: tolerated publish failure: {e}");
                                let _ = client.reconnect();
                            }
                            Err(e) => return Err(format!("publish after request {i}: {e}")),
                        }
                    }
                    i += opts.concurrency;
                }
                Ok(())
            }));
        }
        for worker in workers {
            if let Err(msg) = worker.join().expect("worker thread joins") {
                eprintln!("loadgen FAILURE: {msg}");
                failures += 1;
            }
        }
    });

    // The malformed phase: structured 400s, and the connection must keep
    // serving well-formed requests afterwards.
    if failures == 0 && opts.malformed > 0 {
        match malformed_phase(&opts, &workload, &ds, &expected_labels) {
            Ok(()) => {}
            Err(msg) => {
                eprintln!("loadgen FAILURE: {msg}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        return ExitCode::FAILURE;
    }

    // The digest over all asserted responses, in request order — printed
    // for the CI log, so two runs of one schedule can be compared.
    let mut h = FnvHasher::new();
    for i in 0..opts.requests {
        for label in expected_labels(i) {
            label.hash(&mut h);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "loadgen OK: {} requests x {} rows @ c{} in {elapsed:.2}s ({:.0} req/s), {} malformed \
         rejected, digest {:016x}",
        opts.requests,
        opts.rows_per_req,
        opts.concurrency,
        opts.requests as f64 / elapsed,
        opts.malformed,
        h.finish(),
    );
    ExitCode::SUCCESS
}

/// Scores one request. Without a backoff this is [`Client::score`]. With
/// one, the request rides the client retry contract (`503`/`408`/transport
/// → capped-exponential delay + reconnect) and additionally retries
/// transient `500 injected fault` responses — the chaos-smoke contract:
/// every terminal answer is either a correct `200` or a hard error.
fn score_with_policy(
    client: &mut Client,
    backoff: Option<&mut Backoff>,
    model: &str,
    body: &str,
) -> Result<(u64, Vec<String>), String> {
    let Some(backoff) = backoff else {
        return client.score(model, body).map_err(|e| e.to_string());
    };
    let path = format!("/score/{model}");
    for _ in 0..12 {
        let resp = match client.request_with_retry("POST", &path, body, 6, backoff) {
            Ok(resp) => resp,
            Err(_) => {
                let _ = client.reconnect();
                continue;
            }
        };
        match resp.status {
            200 => return parse_score_body(&resp.body).map_err(|e| e.to_string()),
            500 if resp.body.contains("injected fault") => {
                std::thread::sleep(backoff.next_delay(None));
            }
            503 | 408 => std::thread::sleep(backoff.next_delay(None)),
            other => return Err(format!("status {other}: {}", resp.body.trim_end())),
        }
    }
    Err("request kept failing after bounded retries".to_string())
}

/// Sends `opts.malformed` bad score requests round-robin over three shapes
/// (wrong arity, unknown token in the first cell, empty body) and asserts
/// each comes back as a structured `400` with the boundary's message —
/// then proves the same connection still scores well-formed rows.
fn malformed_phase(
    opts: &Options,
    workload: &frote_serve::Workload,
    ds: &frote_data::Dataset,
    expected_labels: &dyn Fn(usize) -> Vec<String>,
) -> Result<(), String> {
    let mut client =
        Client::connect(&opts.addr).map_err(|e| format!("malformed phase: connect: {e}"))?;
    let shapes: [(&str, &str); 3] = [
        ("wrong arity", "1.0\n"),
        ("unknown token", "definitely-not-a-cell\n"),
        ("empty body", "\n"),
    ];
    let mut backoff = Backoff::new(0xBAD, Duration::from_millis(5), Duration::from_millis(500));
    for m in 0..opts.malformed {
        let (what, body) = shapes[m % shapes.len()];
        let path = format!("/score/{}", workload.name());
        let resp = if opts.backoff {
            // Under chaos the transport itself may fail or an injected
            // fault may answer first; retry until the *boundary's* verdict
            // comes through.
            let mut verdict = None;
            for _ in 0..12 {
                match client.request_with_retry("POST", &path, body, 6, &mut backoff) {
                    Ok(r) if r.status == 500 && r.body.contains("injected fault") => {
                        std::thread::sleep(backoff.next_delay(None));
                    }
                    Ok(r) if r.status == 503 || r.status == 408 => {
                        std::thread::sleep(backoff.next_delay(None));
                    }
                    Ok(r) => {
                        verdict = Some(r);
                        break;
                    }
                    Err(_) => {
                        let _ = client.reconnect();
                    }
                }
            }
            verdict.ok_or_else(|| format!("malformed request {m} ({what}): no verdict"))?
        } else {
            client
                .request("POST", &path, body)
                .map_err(|e| format!("malformed request {m} ({what}): {e}"))?
        };
        if resp.status != 400 {
            return Err(format!(
                "malformed request {m} ({what}): expected 400, got {} with body {:?}",
                resp.status, resp.body
            ));
        }
        if !resp.body.contains("row 1") && !resp.body.contains("bad request") {
            return Err(format!(
                "malformed request {m} ({what}): unstructured error body {:?}",
                resp.body
            ));
        }
    }
    // The worker survived every rejection: the same connection scores.
    let (_generation, labels) = score_with_policy(
        &mut client,
        opts.backoff.then_some(&mut backoff),
        workload.name(),
        &workload.probe_body(ds, 0, opts.rows_per_req),
    )
    .map_err(|e| format!("post-malformed score: {e}"))?;
    if labels != expected_labels(0) {
        return Err("post-malformed score diverged from the local model".to_string());
    }
    Ok(())
}
