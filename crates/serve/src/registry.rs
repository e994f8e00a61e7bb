//! The model registry: named models with atomic snapshot swaps.
//!
//! A [`ModelEntry`] holds the *current* [`Snapshot`] as an
//! `Arc<Snapshot>` behind a mutex. A reader locks only long enough to
//! clone the `Arc`; a publish locks only long enough to swap it. A score
//! request resolves [`ModelEntry::current`] once to validate its rows and
//! the batcher once per micro-batch, never once per row. A generation is
//! freed when the last batch or request still holding its `Arc` finishes,
//! so memory does not grow with the number of publishes.
//!
//! The swap guarantee the integration tests pin: a reader observes either
//! the old snapshot or the new one, never a mix — model, schema and guard
//! travel in one `Snapshot`.

use std::sync::{Arc, Mutex, MutexGuard};

use frote::{Frote, FroteConfig};
use frote_data::{Dataset, Schema};
use frote_ml::{Classifier, TrainAlgorithm};
use frote_obs::Counter;
use frote_rules::parse::parse_rule;
use frote_rules::FeedbackRuleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::boundary::RowGuard;
use crate::ServeError;

/// Published model generations (one per snapshot swap) — deterministic for
/// a fixed request sequence, so the invariance test pins it.
static SWAPS: Counter = Counter::new("serve.swaps");

/// Retrains that errored or panicked and were rolled back: the previous
/// snapshot generation kept serving. Thread-variant — chaos specs and
/// retried publishes make the count timing-dependent.
static PUBLISH_FAILURES: Counter = Counter::thread_variant("serve.publish_failures");

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything a scorer needs, versioned as one immutable unit: the fitted
/// model, the schema, and the boundary guard.
pub struct Snapshot {
    generation: u64,
    model: Box<dyn Classifier>,
    schema: Arc<Schema>,
    guard: RowGuard,
    /// Rows of the dataset the model was fitted on (surfaced by `/models`).
    fit_rows: usize,
}

impl Snapshot {
    /// Fits a snapshot: trains `trainer` on `ds` and captures the schema and
    /// `guard` alongside the model. The generation is assigned at publish
    /// time.
    pub fn fit(trainer: &dyn TrainAlgorithm, ds: &Dataset, guard: RowGuard) -> Snapshot {
        Snapshot {
            generation: 0,
            model: trainer.train(ds),
            schema: ds.schema_handle(),
            guard,
            fit_rows: ds.n_rows(),
        }
    }

    /// The generation number assigned when this snapshot was published
    /// (1-based; 0 means not yet published).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The fitted model.
    pub fn model(&self) -> &dyn Classifier {
        &*self.model
    }

    /// The schema requests are validated against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The boundary guard requests are swept through.
    pub fn guard(&self) -> &RowGuard {
        &self.guard
    }

    /// Rows of the training dataset behind this snapshot.
    pub fn fit_rows(&self) -> usize {
        self.fit_rows
    }
}

/// Retrains a model for the `POST /publish/<model>` path. Implementations
/// own the training state (dataset, rule set, trainer); the registry only
/// ever sees finished [`Snapshot`]s.
pub trait Refitter: Send + Sync {
    /// Produces a fresh snapshot; `rule` is an optional feedback rule in
    /// the parser's syntax, ingested through the validated `try_*` path
    /// and folded into a FROTE edit before retraining.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rule`] when `rule` fails parse/validation/conflict
    /// checks (the request is rejected; the serving state is unchanged).
    fn refit(&self, rule: Option<&str>) -> Result<Snapshot, ServeError>;
}

/// One named model: its current snapshot and optional refitter.
pub struct ModelEntry {
    name: String,
    current: Mutex<Arc<Snapshot>>,
    refitter: Option<Box<dyn Refitter>>,
}

impl ModelEntry {
    fn new(name: String, mut first: Snapshot, refitter: Option<Box<dyn Refitter>>) -> ModelEntry {
        first.generation = 1;
        SWAPS.inc();
        ModelEntry { name, current: Mutex::new(Arc::new(first)), refitter }
    }

    /// The model's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current snapshot. The returned `Arc` keeps that generation
    /// alive, unchanged, however many publishes follow.
    pub fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&lock(&self.current))
    }

    /// Publishes `snapshot` as the next generation and returns its number.
    /// In-flight readers keep scoring against the snapshot they already
    /// resolved; new resolutions see the new generation immediately.
    pub fn publish(&self, mut snapshot: Snapshot) -> u64 {
        let mut current = lock(&self.current);
        let generation = current.generation() + 1;
        snapshot.generation = generation;
        *current = Arc::new(snapshot);
        SWAPS.inc();
        generation
    }

    /// Retrains through the entry's [`Refitter`] and publishes the result.
    ///
    /// Transactional: a refit that errors *or panics* publishes nothing —
    /// the current generation keeps serving, the failure is counted in
    /// `serve.publish_failures`, and the caller gets a structured error
    /// instead of a dead worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when the entry was registered without a
    /// refitter; refit errors pass through; a refit panic surfaces as
    /// [`ServeError::Fault`] (injected) or [`ServeError::Io`] (anything
    /// else).
    pub fn republish(&self, rule: Option<&str>) -> Result<u64, ServeError> {
        let refitter = self.refitter.as_ref().ok_or(ServeError::Unavailable)?;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| refitter.refit(rule)));
        let snapshot = match outcome {
            Ok(Ok(snapshot)) => snapshot,
            Ok(Err(err)) => {
                PUBLISH_FAILURES.inc();
                return Err(err);
            }
            Err(payload) => {
                PUBLISH_FAILURES.inc();
                let err = match frote_faults::fault_from_panic(&*payload) {
                    Some(fault) => ServeError::Fault { site: fault.site.clone() },
                    None => ServeError::Io { detail: "panic during retrain".to_string() },
                };
                return Err(err);
            }
        };
        Ok(self.publish(snapshot))
    }
}

/// The registry: model name → [`ModelEntry`].
#[derive(Default)]
pub struct ModelRegistry {
    entries: Mutex<Vec<Arc<ModelEntry>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers a model under `name` with its first snapshot (published
    /// as generation 1) and an optional refitter for `POST /publish`.
    /// Re-registering a name replaces the old entry for *new* lookups;
    /// connections holding the old `Arc` keep a consistent view.
    pub fn register(
        &self,
        name: &str,
        first: Snapshot,
        refitter: Option<Box<dyn Refitter>>,
    ) -> Arc<ModelEntry> {
        let entry = Arc::new(ModelEntry::new(name.to_string(), first, refitter));
        let mut entries = lock(&self.entries);
        entries.retain(|e| e.name != name);
        entries.push(Arc::clone(&entry));
        entry
    }

    /// Looks up a model by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when `name` is not registered.
    pub fn get(&self, name: &str) -> Result<Arc<ModelEntry>, ServeError> {
        lock(&self.entries)
            .iter()
            .find(|e| e.name == name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel { name: name.to_string() })
    }

    /// `(name, current generation, fit rows)` for every registered model,
    /// in registration order — the `GET /models` payload.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        lock(&self.entries)
            .iter()
            .map(|e| {
                let snap = e.current();
                (e.name.clone(), snap.generation(), snap.fit_rows())
            })
            .collect()
    }
}

/// The standard [`Refitter`]: owns the serving dataset, trainer, and rule
/// set; a publish with a rule runs one FROTE edit (ingesting the rule via
/// the validated [`FeedbackRuleSet::try_push`] path), keeps the augmented
/// dataset, and retrains; a publish without a rule retrains on the current
/// dataset as-is. Deterministic: the RNG stream is seeded per edit count,
/// so a fixed request sequence reproduces bit-identical generations.
pub struct FroteRefitter {
    state: Mutex<RefitState>,
    trainer: Box<dyn TrainAlgorithm>,
    config: FroteConfig,
    range_guard: bool,
    seed: u64,
}

struct RefitState {
    ds: Dataset,
    frs: FeedbackRuleSet,
    edits: u64,
}

impl FroteRefitter {
    /// Builds a refitter over `ds` with an empty rule set.
    ///
    /// `config` should carry a service-friendly iteration budget (the
    /// server default is single-digit iterations — a publish is an edit,
    /// not a full offline run). `range_guard` selects
    /// [`RowGuard::in_range`] over [`RowGuard::not_null`] for snapshots.
    pub fn new(
        ds: Dataset,
        trainer: Box<dyn TrainAlgorithm>,
        config: FroteConfig,
        range_guard: bool,
        seed: u64,
    ) -> FroteRefitter {
        FroteRefitter {
            state: Mutex::new(RefitState { ds, frs: FeedbackRuleSet::empty(), edits: 0 }),
            trainer,
            config,
            range_guard,
            seed,
        }
    }

    fn guard(&self, ds: &Dataset) -> Result<RowGuard, ServeError> {
        if self.range_guard {
            RowGuard::in_range(ds.schema(), ds)
        } else {
            RowGuard::not_null(ds.schema())
        }
    }

    /// Fits the initial (pre-publish) snapshot on the refitter's dataset.
    ///
    /// # Errors
    ///
    /// Guard compilation errors (unreachable for well-formed schemas).
    pub fn initial_snapshot(&self) -> Result<Snapshot, ServeError> {
        let state = lock(&self.state);
        Ok(Snapshot::fit(&*self.trainer, &state.ds, self.guard(&state.ds)?))
    }
}

impl Refitter for FroteRefitter {
    fn refit(&self, rule: Option<&str>) -> Result<Snapshot, ServeError> {
        let mut state = lock(&self.state);
        frote_faults::point("serve.publish.retrain")?;
        if let Some(text) = rule {
            let schema = state.ds.schema_handle();
            let parsed = parse_rule(text, &schema)?;
            // Clone-commit: the rule is validated into a *copy* of the rule
            // set and the FROTE run reads the current dataset immutably, so
            // an error or panic anywhere below leaves the serving state
            // exactly as it was — republish's rollback guarantee.
            let mut frs = state.frs.clone();
            frs.try_push(parsed, &schema)?;
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(state.edits));
            let out = Frote::new(self.config)
                .run(&state.ds, &*self.trainer, &frs, &mut rng)
                .map_err(|e| ServeError::BadRequest { detail: format!("frote edit: {e}") })?;
            state.ds = out.dataset;
            state.frs = frs;
        }
        let snapshot = Snapshot::fit(&*self.trainer, &state.ds, self.guard(&state.ds)?);
        // Commit the edit counter last: a failed refit must not advance the
        // per-edit RNG stream, or the retry would diverge from the
        // fault-free twin.
        state.edits += 1;
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::synth::{DatasetKind, SynthConfig};
    use frote_ml::tree::{DecisionTreeTrainer, TreeParams};

    fn tiny_ds() -> Dataset {
        DatasetKind::Car.generate(&SynthConfig { n_rows: 120, ..Default::default() })
    }

    fn trainer() -> DecisionTreeTrainer {
        DecisionTreeTrainer::new(TreeParams { max_depth: 4, ..Default::default() }, 7)
    }

    fn snapshot(ds: &Dataset) -> Snapshot {
        Snapshot::fit(&trainer(), ds, RowGuard::not_null(ds.schema()).unwrap())
    }

    #[test]
    fn register_publish_and_lookup() {
        let ds = tiny_ds();
        let registry = ModelRegistry::new();
        let entry = registry.register("car", snapshot(&ds), None);
        assert_eq!(entry.current().generation(), 1);
        assert_eq!(registry.get("car").unwrap().current().generation(), 1);
        assert!(registry.get("nope").is_err());

        let g = entry.publish(snapshot(&ds));
        assert_eq!(g, 2);
        assert_eq!(entry.current().generation(), 2);
        assert_eq!(registry.list(), vec![("car".to_string(), 2, ds.n_rows())]);
    }

    #[test]
    fn current_is_stable_across_a_publish() {
        let ds = tiny_ds();
        let registry = ModelRegistry::new();
        let entry = registry.register("car", snapshot(&ds), None);
        let before = entry.current();
        let g1 = before.generation();
        entry.publish(snapshot(&ds));
        // The old handle still reads the old generation: snapshots are
        // immutable and the reader's `Arc` keeps them alive.
        assert_eq!(before.generation(), g1);
        assert_eq!(entry.current().generation(), g1 + 1);
    }

    #[test]
    fn old_generation_is_freed_when_its_last_reader_drops() {
        let ds = tiny_ds();
        let registry = ModelRegistry::new();
        let entry = registry.register("car", snapshot(&ds), None);
        let reader = entry.current();
        let weak = Arc::downgrade(&reader);
        assert_eq!(entry.publish(snapshot(&ds)), 2);
        assert_eq!(weak.upgrade().map(|s| s.generation()), Some(1), "reader still holds it");
        drop(reader);
        assert!(weak.upgrade().is_none(), "generation 1 outlived its last reader");
    }

    #[test]
    fn republish_without_refitter_is_unavailable() {
        let ds = tiny_ds();
        let registry = ModelRegistry::new();
        let entry = registry.register("car", snapshot(&ds), None);
        assert!(matches!(entry.republish(None), Err(ServeError::Unavailable)));
    }

    #[test]
    fn republish_rolls_back_on_injected_error_and_panic() {
        let ds = tiny_ds();
        let refitter = FroteRefitter::new(
            ds,
            Box::new(trainer()),
            FroteConfig {
                iteration_limit: 1,
                instances_per_iteration: Some(5),
                ..Default::default()
            },
            false,
            7,
        );
        let registry = ModelRegistry::new();
        let first = refitter.initial_snapshot().unwrap();
        let entry = registry.register("car", first, Some(Box::new(refitter)));

        frote_faults::test_support::with_spec(Some("serve.publish.retrain:err:1000:1"), || {
            let err = entry.republish(None).unwrap_err();
            assert!(matches!(err, ServeError::Fault { .. }), "got {err:?}");
            assert_eq!(entry.current().generation(), 1, "failed retrain publishes nothing");
        });
        frote_faults::test_support::with_spec(Some("serve.publish.retrain:panic:1000:1"), || {
            let err = entry.republish(None).unwrap_err();
            assert!(
                matches!(err, ServeError::Fault { .. }),
                "a retrain panic must surface structured, got {err:?}"
            );
            assert_eq!(entry.current().generation(), 1, "panicked retrain publishes nothing");
        });
        // Faults cleared: the rolled-back entry publishes normally.
        assert_eq!(entry.republish(None).unwrap(), 2);
        assert_eq!(entry.current().generation(), 2);
    }

    #[test]
    fn frote_refitter_rejects_malformed_rule_and_keeps_state() {
        let ds = tiny_ds();
        let refitter = FroteRefitter::new(
            ds,
            Box::new(trainer()),
            FroteConfig {
                iteration_limit: 1,
                instances_per_iteration: Some(5),
                ..Default::default()
            },
            false,
            7,
        );
        let err = match refitter.refit(Some("no_such_feature = low => acc")) {
            Err(e) => e,
            Ok(_) => panic!("expected a rule error"),
        };
        assert!(matches!(err, ServeError::Rule(_)), "got {err:?}");
        // A good refit still works afterwards.
        let snap = refitter.refit(None).unwrap();
        assert_eq!(snap.generation(), 0, "generation assigned at publish");
    }
}
