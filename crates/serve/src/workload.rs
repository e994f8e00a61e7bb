//! Named deterministic serving workloads.
//!
//! The serve-path checks assert that responses coming back over the wire
//! are bit-identical to a direct `predict_rows` call. That only works if
//! the server, the load generator, and the benchmark can each build the
//! *same* fitted model independently — so a workload names a synthetic
//! dataset plus a fixed-seed trainer, and everything downstream (loadgen
//! digests, `perfbench`'s `serve-mixed`, the CI serve-smoke job) keys off
//! the workload name instead of shipping model bytes around.

use frote::FroteConfig;
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_data::Dataset;
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::tree::{DecisionTreeTrainer, TreeParams};
use frote_ml::TrainAlgorithm;

use crate::boundary::render_rows;
use crate::registry::FroteRefitter;
use crate::ServeError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrainerKind {
    Forest { n_trees: usize, max_depth: usize },
    Tree { max_depth: usize },
}

/// One named workload: a synthetic dataset recipe plus a fixed-seed
/// trainer. Every component that names the same workload reconstructs a
/// bit-identical model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    name: &'static str,
    kind: DatasetKind,
    rows: usize,
    trainer: TrainerKind,
    seed: u64,
}

/// The workload catalog. Sizes are serving-scale on purpose: a server
/// start (or a publish) trains in well under a second, so CI smoke jobs
/// and tests stay fast.
const CATALOG: &[Workload] = &[
    Workload {
        name: "wine-rf",
        kind: DatasetKind::WineQuality,
        rows: 400,
        trainer: TrainerKind::Forest { n_trees: 12, max_depth: 4 },
        seed: 42,
    },
    Workload {
        name: "car-rf",
        kind: DatasetKind::Car,
        rows: 400,
        trainer: TrainerKind::Forest { n_trees: 12, max_depth: 4 },
        seed: 42,
    },
    Workload {
        name: "car-tree",
        kind: DatasetKind::Car,
        rows: 400,
        trainer: TrainerKind::Tree { max_depth: 5 },
        seed: 42,
    },
];

/// Names of every cataloged workload, in catalog order.
pub fn workload_names() -> Vec<&'static str> {
    CATALOG.iter().map(|w| w.name).collect()
}

/// Looks a workload up by name.
///
/// # Errors
///
/// [`ServeError::UnknownModel`] naming the unknown workload.
pub fn by_name(name: &str) -> Result<Workload, ServeError> {
    CATALOG
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| ServeError::UnknownModel { name: name.to_string() })
}

impl Workload {
    /// The workload's catalog name (also its registry model name).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Regenerates the workload's training dataset (deterministic).
    pub fn dataset(&self) -> Dataset {
        self.kind.generate(&SynthConfig { n_rows: self.rows, ..Default::default() })
    }

    /// Builds the workload's fixed-seed trainer.
    pub fn trainer(&self) -> Box<dyn TrainAlgorithm> {
        match self.trainer {
            TrainerKind::Forest { n_trees, max_depth } => Box::new(RandomForestTrainer::new(
                ForestParams { n_trees, tree: TreeParams { max_depth, ..Default::default() } },
                self.seed,
            )),
            TrainerKind::Tree { max_depth } => Box::new(DecisionTreeTrainer::new(
                TreeParams { max_depth, ..Default::default() },
                self.seed,
            )),
        }
    }

    /// A service-friendly FROTE configuration: a publish is one expert
    /// edit, not an offline run, so the iteration budget is tiny.
    pub fn frote_config(&self) -> FroteConfig {
        FroteConfig { iteration_limit: 2, instances_per_iteration: Some(25), ..Default::default() }
    }

    /// Builds the standard refitter for this workload (dataset + trainer +
    /// empty rule set), ready to hand to the registry.
    pub fn refitter(&self, range_guard: bool) -> FroteRefitter {
        FroteRefitter::new(
            self.dataset(),
            self.trainer(),
            self.frote_config(),
            range_guard,
            self.seed,
        )
    }

    /// A deterministic probe body: `count` training rows starting at
    /// `start` (wrapping), rendered in the wire row format. Loadgen and
    /// the tests use this so request payloads are reproducible.
    pub fn probe_body(&self, ds: &Dataset, start: usize, count: usize) -> String {
        let indices: Vec<usize> = (0..count).map(|k| (start + k) % ds.n_rows()).collect();
        render_rows(ds, &indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lookup_and_unknown_name() {
        assert_eq!(by_name("wine-rf").unwrap().name(), "wine-rf");
        assert!(matches!(by_name("nope"), Err(ServeError::UnknownModel { .. })));
        assert_eq!(workload_names().len(), CATALOG.len());
    }

    #[test]
    fn dataset_and_trainer_are_deterministic() {
        let w = by_name("car-tree").unwrap();
        let a = w.dataset();
        let b = w.dataset();
        assert_eq!(a.n_rows(), b.n_rows());
        let model_a = w.trainer().train(&a);
        let model_b = w.trainer().train(&b);
        assert_eq!(model_a.predict_dataset(&a), model_b.predict_dataset(&b));
    }

    #[test]
    fn probe_body_wraps_and_parses() {
        let w = by_name("wine-rf").unwrap();
        let ds = w.dataset();
        let body = w.probe_body(&ds, ds.n_rows() - 2, 4);
        let parsed = crate::boundary::parse_rows(&ds.schema_handle(), &body).unwrap();
        assert_eq!(parsed.n_rows(), 4);
        assert_eq!(parsed.cell(2, 0), ds.cell(0, 0), "wrapped back to row 0");
    }
}
