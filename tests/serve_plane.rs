//! Serving-plane integration: lock-free snapshot swaps under concurrent
//! readers, and boundary validation of malformed rows over the wire.
//!
//! The swap test pins the PR 9 consistency guarantee end to end: readers
//! hammer `POST /score` over real TCP connections while a writer publishes
//! a sequence of retrained generations whose models *differ* (each is
//! fitted on a deterministically relabeled dataset). Every response names
//! the generation its batch was scored against, and its labels must match
//! that generation's precomputed predictions bit for bit — never a mix of
//! two snapshots — at `FROTE_THREADS` 1, 2, and 4. The boundary test pins
//! the other contract: malformed rows (wrong arity, out-of-vocab
//! categories, NaN cells) surface structured `400`s through the compiled
//! rule-engine guard, and the connection keeps serving afterwards. A
//! request head that is not UTF-8 is framing garbage: a `400` and a closed
//! connection, never a `503`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use frote_data::{Dataset, Schema, Value};
use frote_ml::tree::{DecisionTreeTrainer, TreeParams};
use frote_ml::{Classifier, TrainAlgorithm};
use frote_par::test_support::with_threads;
use frote_serve::{render_rows, Client, ModelRegistry, RowGuard, ServeConfig, Server, Snapshot};

fn trainer() -> DecisionTreeTrainer {
    DecisionTreeTrainer::new(TreeParams { max_depth: 4, ..Default::default() }, 7)
}

/// A small mixed-schema dataset (numeric + categorical) built by hand so
/// the boundary tests can aim at both column kinds.
fn mixed_dataset() -> Dataset {
    let schema = Arc::new(
        Schema::builder("y", vec!["no".into(), "yes".into()])
            .numeric("age")
            .categorical("job", vec!["eng".into(), "law".into(), "med".into()])
            .numeric("income")
            .build(),
    );
    let mut ds = Dataset::with_shared_schema(schema);
    for i in 0..120u32 {
        let age = f64::from(i % 60) + 20.0;
        let job = i % 3;
        let income = f64::from(i % 7) * 11.0 + 30.0;
        let label = u32::from((age > 45.0) ^ (job == 1));
        ds.push_row(&[Value::Num(age), Value::Cat(job), Value::Num(income)], label).unwrap();
    }
    ds
}

/// `ds` with every label rotated by `shift` — same schema, different
/// supervision, so each generation's fitted model really differs.
fn relabeled(ds: &Dataset, shift: u32) -> Dataset {
    let k = ds.n_classes() as u32;
    let mut out = Dataset::with_shared_schema(ds.schema_handle());
    let mut row = Vec::with_capacity(ds.n_features());
    for i in 0..ds.n_rows() {
        row.clear();
        for j in 0..ds.n_features() {
            row.push(ds.cell(i, j));
        }
        out.push_row(&row, (ds.labels()[i] + shift) % k).unwrap();
    }
    out
}

fn snapshot_for(ds: &Dataset) -> Snapshot {
    Snapshot::fit(&trainer(), ds, RowGuard::not_null(ds.schema()).unwrap())
}

/// Class-name predictions of `model` on the first `n` rows of `ds`.
fn direct_labels(model: &dyn Classifier, ds: &Dataset, n: usize) -> Vec<String> {
    let indices: Vec<usize> = (0..n).collect();
    model
        .predict_rows(ds, &indices)
        .into_iter()
        .map(|c| ds.schema().class_name(c).to_string())
        .collect()
}

#[test]
fn snapshot_swaps_are_generation_consistent_across_thread_counts() {
    const GENERATIONS: usize = 5;
    const PROBE_ROWS: usize = 16;
    const READERS: usize = 3;

    let base = mixed_dataset();
    // Precompute every generation's ground truth: generation g (1-based)
    // is the model fitted on the (g-1)-rotated labels.
    let expected: Vec<Vec<String>> = (0..GENERATIONS as u32)
        .map(|shift| {
            let model = trainer().train(&relabeled(&base, shift));
            direct_labels(&*model, &base, PROBE_ROWS)
        })
        .collect();
    assert!(
        expected.windows(2).any(|w| w[0] != w[1]),
        "relabeling must actually change the fitted model for the test to mean anything"
    );
    let probe_indices: Vec<usize> = (0..PROBE_ROWS).collect();
    let body = render_rows(&base, &probe_indices);

    for threads in [1usize, 2, 4] {
        with_threads(threads, || {
            let registry = Arc::new(ModelRegistry::new());
            let entry = registry.register("swap", snapshot_for(&base), None);
            let server = Arc::new(Server::bind(&ServeConfig::default(), registry).unwrap());
            let accept = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.run())
            };
            let addr = server.local_addr().to_string();
            let done = AtomicBool::new(false);

            std::thread::scope(|scope| {
                for _ in 0..READERS {
                    let addr = addr.clone();
                    let body = &body;
                    let expected = &expected;
                    let done = &done;
                    scope.spawn(move || {
                        let mut client = Client::connect(&addr).unwrap();
                        let mut last_generation = 0u64;
                        let mut scored = 0usize;
                        while !done.load(Ordering::Acquire) || scored == 0 {
                            let (generation, labels) = client.score("swap", body).unwrap();
                            // Exactly one published generation, bit for bit
                            // — never a blend of two snapshots.
                            assert!(
                                (1..=GENERATIONS as u64).contains(&generation),
                                "unpublished generation {generation}"
                            );
                            assert_eq!(
                                &labels,
                                &expected[(generation - 1) as usize],
                                "response does not match generation {generation} at \
                                 {threads} threads"
                            );
                            assert!(
                                generation >= last_generation,
                                "generation went backwards ({last_generation} -> {generation})"
                            );
                            last_generation = generation;
                            scored += 1;
                        }
                    });
                }
                // The writer: publish the remaining generations while the
                // readers are in flight.
                for shift in 1..GENERATIONS as u32 {
                    let generation = entry.publish(snapshot_for(&relabeled(&base, shift)));
                    assert_eq!(generation, u64::from(shift) + 1);
                    std::thread::sleep(Duration::from_millis(15));
                }
                done.store(true, Ordering::Release);
            });

            // After the writer finished, new resolutions see the last
            // generation immediately.
            let mut client = Client::connect(&addr).unwrap();
            let (generation, labels) = client.score("swap", &body).unwrap();
            assert_eq!(generation, GENERATIONS as u64);
            assert_eq!(&labels, &expected[GENERATIONS - 1]);

            server.trigger_shutdown();
            accept.join().unwrap();
        });
    }
}

#[test]
fn malformed_rows_get_structured_errors_and_workers_survive() {
    let ds = mixed_dataset();
    let model = trainer().train(&ds);
    let registry = Arc::new(ModelRegistry::new());
    registry.register("mixed", snapshot_for(&ds), None);
    let server = Arc::new(Server::bind(&ServeConfig::default(), registry).unwrap());
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    // Wrong arity: 2 cells against a 3-feature schema.
    let resp = client.request("POST", "/score/mixed", "30,eng\n").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("row 1") && resp.body.contains("arity"), "{}", resp.body);

    // Out-of-vocabulary category, on the second row.
    let resp = client.request("POST", "/score/mixed", "30,eng,50\n31,ceo,50\n").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("row 2") && resp.body.contains("unknown category"), "{}", resp.body);

    // Unparsable numeric cell.
    let resp = client.request("POST", "/score/mixed", "thirty,eng,50\n").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("unparsable numeric"), "{}", resp.body);

    // NaN parses, then the compiled guard rejects it with rule provenance.
    let resp = client.request("POST", "/score/mixed", "NaN,eng,50\n").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("boundary guard") && resp.body.contains("age"), "{}", resp.body);

    // Unknown model: structured 404, not a hang.
    let resp = client.request("POST", "/score/nope", "30,eng,50\n").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains("unknown model"), "{}", resp.body);

    // The same connection still scores: no worker died on any rejection.
    let (generation, labels) = client.score("mixed", &render_rows(&ds, &[0, 1, 2, 3])).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(labels, direct_labels(&*model, &ds, 4));

    server.trigger_shutdown();
    accept.join().unwrap();
}

#[test]
fn publish_with_a_non_finite_threshold_is_a_400() {
    let workload = frote_serve::workload::by_name("wine-rf").unwrap();
    let refitter = workload.refitter(false);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        workload.name(),
        refitter.initial_snapshot().unwrap(),
        Some(Box::new(refitter)),
    );
    let server = Arc::new(Server::bind(&ServeConfig::default(), registry).unwrap());
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    for value in ["NaN", "inf", "-inf", "1e400"] {
        let rule = format!("alcohol > {value} => 7");
        let resp = client.request("POST", "/publish/wine-rf", &rule).unwrap();
        assert_eq!(resp.status, 400, "{rule:?}: {}", resp.body);
        assert!(resp.body.contains("bad numeric value"), "{rule:?}: {}", resp.body);
    }
    let models = client.models().unwrap();
    assert!(models.contains("wine-rf 1 "), "a refused publish advanced the generation: {models}");

    server.trigger_shutdown();
    accept.join().unwrap();
}

#[test]
fn non_utf8_request_head_is_a_400_and_closes_the_connection() {
    let ds = mixed_dataset();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("mixed", snapshot_for(&ds), None);
    let server = Arc::new(Server::bind(&ServeConfig::default(), registry).unwrap());
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"GET /health\xff HTTP/1.1\r\n\r\n").unwrap();
    stream.flush().unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Reading to EOF only returns once the server has closed its end.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 400 "), "a non-UTF-8 head must be a 400, got {raw:?}");
    assert!(raw.contains("not utf-8"), "{raw:?}");

    // The worker that rejected it still serves other connections.
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    client.health().unwrap();

    server.trigger_shutdown();
    accept.join().unwrap();
}
