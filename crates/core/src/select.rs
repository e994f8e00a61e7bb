//! Base-instance selection strategies (§4.1).
//!
//! - [`SelectionStrategy::Random`] — per-rule uniform sampling from the base
//!   population; "despite its simplicity ... appears to work well
//!   empirically" (§4.1).
//! - [`SelectionStrategy::Ip`] — the Eq. 5 integer program: borderline-
//!   weighted selection with per-rule bounds, solved by LP relaxation +
//!   rounding + repair (`frote-opt`), weights from Borderline-SMOTE triage
//!   against the *current model's predictions* (`frote-smote`).
//! - [`SelectionStrategy::OnlineProxy`] — the supplement's online-learning
//!   idea, simplified: a fast logistic-regression proxy of the current model
//!   scores each candidate by how far the proxy is from the rule's target
//!   class at that point (instances the proxy gets most wrong move the
//!   boundary most). The supplement found the full evaluation-based variant
//!   "too computationally intensive to be practical"; this proxy keeps the
//!   spirit at `O(|P|)` cost and is benchmarked as an ablation.

use frote_data::{Dataset, Encoder, FeatureMatrix};
use frote_ml::logreg::{LogRegParams, LogisticRegression};
use frote_ml::Classifier;
use frote_obs::Counter;
use frote_opt::SelectionProblem;
use frote_rules::{FeedbackRuleSet, RuleMaskCache};
use frote_smote::borderline::borderline_weights;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;

use crate::preselect::BasePopulation;

// Selection-memo metrics (see frote-obs). Both are thread-invariant: a
// lookup happens once per loop iteration, and which iterations follow an
// accept is pinned bit-identical at any `FROTE_THREADS`.
static MEMO_HITS: Counter = Counter::new("select.memo_hits");
static MEMO_MISSES: Counter = Counter::new("select.memo_misses");

/// State carried across the augmentation loop's iterations. The
/// select-side entries are keyed by the active dataset's row count: the
/// loop only ever appends rows, and every accepted candidate appends at
/// least one, so an unchanged count means an unchanged `D̂` — and, in
/// Algorithm 1, an unchanged model and base population too, since both are
/// replaced only on an accept.
///
/// - The last selection of an rng-free strategy (`Ip`, `OnlineProxy`,
///   `JointNeighbors`): each is a deterministic function of `D̂`, the base
///   population, the rules, `η`, `k` and the model, so after a rejected
///   candidate the next call returns it verbatim instead of recomputing
///   it. `Random` draws from the loop's rng and is never memoized: a
///   replayed draw would shift the random stream.
/// - The LR proxy of `D̂` for `OnlineProxy` and `JointNeighbors`, with the
///   encoded matrix it was fitted from, refitted only when the row count
///   changes.
/// - The compiled rule-mask plane the objective reads. It sees candidate
///   rows and is rolled back by [`SelectCache::truncate_rule_masks`] on a
///   reject.
///
/// Must only be reused across calls that pass the *same, append-only*
/// dataset, the same strategy, rules, `η` and `k`, and — at any one row
/// count — the same base population and model; hand each FROTE run its
/// own cache.
#[derive(Debug, Default)]
pub struct SelectCache {
    proxy: Option<(usize, LogisticRegression, FeatureMatrix)>,
    selection: Option<(usize, Vec<BaseInstance>)>,
    rules: Option<RuleMaskCache>,
}

impl SelectCache {
    /// An empty cache (nothing fitted yet).
    pub fn new() -> Self {
        SelectCache::default()
    }

    /// Drops rule-mask rows past the first `rows` — called when a
    /// candidate batch is rejected, so the next candidate's rows replace
    /// the rejected ones instead of appending after them. The select-side
    /// entries never see candidate rows and need no rollback.
    pub fn truncate_rule_masks(&mut self, rows: usize) {
        if let Some(masks) = &mut self.rules {
            masks.truncate(rows);
        }
    }

    /// The compiled rule-mask plane of `frs` over `ds`, synced to the
    /// dataset's current rows (`frote_rules::RuleMaskCache` semantics: the
    /// first call evaluates every row, later calls append only the tail;
    /// rejected rows are rolled back by [`SelectCache::truncate_rule_masks`]).
    ///
    /// Like the other entries, the plane assumes every call passes the
    /// *same* rule set and the same append-only dataset.
    ///
    /// # Panics
    ///
    /// Panics if `frs` fails validation against `ds`'s schema — the loop
    /// validates the rule set before its first iteration.
    pub fn rule_masks(&mut self, frs: &FeedbackRuleSet, ds: &Dataset) -> &RuleMaskCache {
        let masks = self.rules.get_or_insert_with(|| {
            RuleMaskCache::compile(frs, ds.schema()).expect("rule set validated by the loop")
        });
        masks.sync(ds);
        masks
    }

    /// The LR proxy of `ds` together with the encoded matrix it was fitted
    /// from (matrix row `i` is the encoding of dataset row `i`) —
    /// `LogisticRegression::fit(ds, {max_iter: 50})` plus its
    /// `encode_dataset`, skipped while `ds` is unchanged.
    fn proxy_and_matrix(&mut self, ds: &Dataset) -> (&LogisticRegression, &FeatureMatrix) {
        let rows = ds.n_rows();
        if self.proxy.as_ref().is_none_or(|(at, ..)| *at != rows) {
            let encoder = Encoder::fit(ds);
            let matrix = encoder.encode_dataset(ds);
            let model = LogisticRegression::fit_encoded(
                encoder,
                &matrix,
                ds.labels(),
                ds.n_classes(),
                &LogRegParams { max_iter: 50, ..Default::default() },
            );
            self.proxy = Some((rows, model, matrix));
        }
        let (_, proxy, matrix) = self.proxy.as_ref().expect("just fitted");
        (proxy, matrix)
    }
}

/// A selected base instance: a dataset row slated to seed one synthetic
/// instance under one rule, optionally with a pinned interpolation
/// neighbour (the paper's future-work direction of selecting "the base
/// instances and their neighbors together").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseInstance {
    /// Rule index within the FRS.
    pub rule: usize,
    /// Row index within the active dataset.
    pub row: usize,
    /// Pinned neighbour row; `None` lets the generator pick one of the `k`
    /// nearest at random (the paper's default behaviour).
    pub neighbor: Option<usize>,
}

impl BaseInstance {
    /// A base instance with generator-chosen neighbour.
    pub fn new(rule: usize, row: usize) -> Self {
        BaseInstance { rule, row, neighbor: None }
    }

    /// Pins the interpolation neighbour.
    pub fn with_neighbor(mut self, neighbor: usize) -> Self {
        self.neighbor = Some(neighbor);
        self
    }
}

/// Which base-instance selection strategy Algorithm 1 uses (line 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Uniform per-rule sampling (the paper's `random`).
    #[default]
    Random,
    /// The Eq. 5 integer program (the paper's `IP`).
    Ip,
    /// Simplified online-learning proxy scoring (supplement A ablation).
    OnlineProxy,
    /// Joint base+neighbour selection (the paper's future-work direction):
    /// the LR proxy scores every (base, neighbour) pair by the proxy's
    /// confidence in the rule's target class at the pair's midpoint, and the
    /// least-confident pairs — whose synthetic offspring sit where the
    /// boundary most needs to move — are selected with the neighbour pinned.
    JointNeighbors,
}

impl SelectionStrategy {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SelectionStrategy::Random => "random",
            SelectionStrategy::Ip => "IP",
            SelectionStrategy::OnlineProxy => "online",
            SelectionStrategy::JointNeighbors => "joint",
        }
    }

    /// Selects up to `eta` base instances from the viable populations.
    ///
    /// `model` is the current model `M_D̂` — used only by `Ip` (borderline
    /// weights against its predictions). `OnlineProxy` and `JointNeighbors`
    /// score with the cached LR proxy instead. For these three strategies
    /// `cache` memoizes the selection itself: a call at the row count of
    /// the previous one returns the previous result (see [`SelectCache`]).
    /// `Random` draws from `rng` and touches neither.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's parameter list
    pub fn select(
        self,
        ds: &Dataset,
        frs: &FeedbackRuleSet,
        bp: &BasePopulation,
        eta: usize,
        k: usize,
        model: &dyn Classifier,
        cache: &mut SelectCache,
        rng: &mut StdRng,
    ) -> Vec<BaseInstance> {
        let viable = bp.viable(k);
        if viable.is_empty() || eta == 0 {
            return Vec::new();
        }
        if self == SelectionStrategy::Random {
            return random_select(bp, &viable, eta, rng);
        }
        let rows = ds.n_rows();
        if let Some((_, picked)) = cache.selection.as_ref().filter(|&&(at, _)| at == rows) {
            MEMO_HITS.inc();
            return picked.clone();
        }
        MEMO_MISSES.inc();
        let picked = match self {
            SelectionStrategy::Random => unreachable!("random selection returned above"),
            SelectionStrategy::Ip => ip_select(ds, bp, &viable, eta, k, model),
            SelectionStrategy::OnlineProxy => {
                let (proxy, encoded) = cache.proxy_and_matrix(ds);
                online_proxy_select(frs, bp, &viable, eta, proxy, encoded)
            }
            SelectionStrategy::JointNeighbors => {
                let (proxy, _) = cache.proxy_and_matrix(ds);
                joint_neighbor_select(ds, frs, bp, &viable, eta, k, proxy)
            }
        };
        cache.selection = Some((rows, picked.clone()));
        picked
    }
}

/// Uniform per-rule sampling with replacement; the per-rule quota is
/// `eta / |viable|` (at least 1), matching the supplement's per-rule basis.
fn random_select(
    bp: &BasePopulation,
    viable: &[usize],
    eta: usize,
    rng: &mut StdRng,
) -> Vec<BaseInstance> {
    let quota = (eta / viable.len()).max(1);
    let mut out = Vec::with_capacity(quota * viable.len());
    for &r in viable {
        let members = &bp.population(r).members;
        for _ in 0..quota {
            let &row = members.choose(rng).expect("viable population is non-empty");
            out.push(BaseInstance::new(r, row));
        }
    }
    out.truncate(eta.max(viable.len()));
    out
}

/// Eq. 5: maximize borderline-weighted selection with per-rule bounds
/// `k+1 <= Σ a_ji z_i <= eta / m`.
fn ip_select(
    ds: &Dataset,
    bp: &BasePopulation,
    viable: &[usize],
    eta: usize,
    k: usize,
    model: &dyn Classifier,
) -> Vec<BaseInstance> {
    // Union of viable populations, with position maps.
    let mut union: Vec<usize> = Vec::new();
    for &r in viable {
        union.extend(&bp.population(r).members);
    }
    union.sort_unstable();
    union.dedup();
    let pos_of = |row: usize| union.binary_search(&row).expect("row in union");

    let predicted = model.predict_dataset(ds);
    let weights = borderline_weights(ds, &predicted, &union);
    let coverage: Vec<Vec<usize>> = viable
        .iter()
        .map(|&r| bp.population(r).members.iter().map(|&row| pos_of(row)).collect())
        .collect();
    let lower = k + 1;
    let upper = (eta / viable.len()).max(lower);
    let problem = SelectionProblem::new(weights, coverage, lower, upper);
    let solution = problem.solve();

    // Attribute each selected instance to the covering viable rule with the
    // fewest assignments so far (spreads generation across rules).
    let mut counts = vec![0usize; viable.len()];
    let mut out = Vec::with_capacity(solution.selected.len());
    for &pos in &solution.selected {
        let row = union[pos];
        let covering: Vec<usize> = (0..viable.len())
            .filter(|&vi| bp.population(viable[vi]).members.contains(&row))
            .collect();
        if let Some(&vi) = covering.iter().min_by_key(|&&vi| counts[vi]) {
            counts[vi] += 1;
            out.push(BaseInstance::new(viable[vi], row));
        }
    }
    out
}

/// Joint base+neighbour selection (the paper's future-work direction,
/// §7): a quick LR proxy scores each (base, neighbour) pair by the proxy's
/// confidence in the rule's target class at the pair's *midpoint* — a cheap
/// stand-in for the synthetic instance the pair would produce. Per rule, the
/// least-confident pairs are selected with the neighbour pinned, so
/// generation interpolates exactly where the boundary most needs to move.
fn joint_neighbor_select(
    ds: &Dataset,
    frs: &FeedbackRuleSet,
    bp: &BasePopulation,
    viable: &[usize],
    eta: usize,
    k: usize,
    proxy: &LogisticRegression,
) -> Vec<BaseInstance> {
    use frote_data::Value;
    use frote_ml::distance::{MixedDistance, MixedMetric};
    use frote_ml::knn::k_nearest_of_row;

    let dist = MixedDistance::fit(ds, MixedMetric::SmoteNc);
    let quota = (eta / viable.len()).max(1);
    /// Cap on candidate bases scored per rule, keeping the pass `O(P·k)`.
    const MAX_BASES_PER_RULE: usize = 64;
    let mut out = Vec::new();
    let mut midpoint: Vec<Value> = Vec::with_capacity(ds.n_features());
    let mut encode_scratch: Vec<f64> = Vec::with_capacity(proxy.encoder().width());
    let mut probs: Vec<f64> = Vec::with_capacity(ds.n_classes());
    for &r in viable {
        let target = frs.rule(r).dist().mode() as usize;
        let members = &bp.population(r).members;
        let step = (members.len() / MAX_BASES_PER_RULE).max(1);
        let mut scored: Vec<(f64, usize, usize)> = Vec::new();
        for &row in members.iter().step_by(step) {
            for n in k_nearest_of_row(ds, row, members, k, &dist) {
                midpoint.clear();
                midpoint.extend((0..ds.n_features()).map(|j| {
                    match (ds.cell(row, j), ds.cell(n.index, j)) {
                        (Value::Num(a), Value::Num(b)) => Value::Num(0.5 * (a + b)),
                        (cell, _) => cell, // categorical: the base's value
                    }
                }));
                proxy.predict_proba_scratch(&midpoint, &mut encode_scratch, &mut probs);
                scored.push((probs.get(target).copied().unwrap_or(0.0), row, n.index));
            }
        }
        scored.sort_by(|a, b| {
            a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)).then_with(|| a.2.cmp(&b.2))
        });
        for &(_, row, neighbor) in scored.iter().take(quota) {
            out.push(BaseInstance::new(r, row).with_neighbor(neighbor));
        }
    }
    out
}

/// Supplement-A-inspired proxy scoring: train a quick LR proxy on the active
/// dataset's labels, then pick, per rule, the candidates where the proxy
/// assigns the *lowest* probability to the rule's target class.
fn online_proxy_select(
    frs: &FeedbackRuleSet,
    bp: &BasePopulation,
    viable: &[usize],
    eta: usize,
    proxy: &LogisticRegression,
    encoded: &FeatureMatrix,
) -> Vec<BaseInstance> {
    let quota = (eta / viable.len()).max(1);
    let mut out = Vec::new();
    let mut probs = Vec::with_capacity(proxy.n_classes());
    for &r in viable {
        let target = frs.rule(r).dist().mode();
        let members = &bp.population(r).members;
        // Members score straight off the cached encoded matrix: no per-row
        // materialization or re-encode.
        let mut scored: Vec<(f64, usize)> = members
            .iter()
            .map(|&i| {
                proxy.predict_proba_encoded(encoded.row(i), &mut probs);
                (probs.get(target as usize).copied().unwrap_or(0.0), i)
            })
            .collect();
        // `total_cmp` orders non-NaN probabilities as `partial_cmp` does
        // (none is `-0.0`); NaN ones (from a NaN feature cell) get a fixed
        // place by their bits instead of a panic.
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, row) in scored.iter().take(quota) {
            out.push(BaseInstance::new(r, row));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::{Schema, Value};
    use frote_rules::{Clause, FeedbackRule, LabelDist, Op, Predicate};
    use rand::{RngCore, SeedableRng};

    struct Stub;
    impl Classifier for Stub {
        fn n_classes(&self) -> usize {
            2
        }
        fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
            out.clear();
            if row[0].expect_num() >= 10.0 {
                out.extend_from_slice(&[0.0, 1.0]);
            } else {
                out.extend_from_slice(&[1.0, 0.0]);
            }
        }
    }

    fn ds() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut d = Dataset::new(schema);
        for i in 0..20 {
            d.push_row(&[Value::Num(i as f64)], u32::from(i >= 10)).unwrap();
        }
        d
    }

    fn frs() -> FeedbackRuleSet {
        FeedbackRuleSet::new(vec![
            FeedbackRule::new(
                Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(10.0))]),
                LabelDist::Deterministic(1),
            ),
            FeedbackRule::new(
                Clause::new(vec![Predicate::new(0, Op::Ge, Value::Num(10.0))]),
                LabelDist::Deterministic(0),
            ),
        ])
    }

    fn setup() -> (Dataset, FeedbackRuleSet, BasePopulation) {
        let d = ds();
        let f = frs();
        let bp = BasePopulation::pre_select(&d, &f, 5);
        (d, f, bp)
    }

    #[test]
    fn random_respects_populations_and_quota() {
        let (d, f, bp) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        let sel = SelectionStrategy::Random.select(
            &d,
            &f,
            &bp,
            8,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut rng,
        );
        assert_eq!(sel.len(), 8);
        for b in &sel {
            assert!(bp.population(b.rule).members.contains(&b.row));
        }
        // Both rules are represented.
        assert!(sel.iter().any(|b| b.rule == 0));
        assert!(sel.iter().any(|b| b.rule == 1));
    }

    #[test]
    fn ip_selects_feasible_rule_coverage() {
        let (d, f, bp) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        let sel = SelectionStrategy::Ip.select(
            &d,
            &f,
            &bp,
            16,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut rng,
        );
        assert!(!sel.is_empty());
        for b in &sel {
            assert!(bp.population(b.rule).members.contains(&b.row));
        }
        // Each rule contributed at least k+1 = 6 instances per the IP's
        // lower bound (they are attributed across rules, so check totals).
        let r0 = sel.iter().filter(|b| b.rule == 0).count();
        let r1 = sel.iter().filter(|b| b.rule == 1).count();
        assert!(r0 + r1 >= 12, "r0 {r0} r1 {r1}");
    }

    #[test]
    fn online_proxy_prefers_hard_candidates() {
        let (d, f, bp) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        let sel = SelectionStrategy::OnlineProxy.select(
            &d,
            &f,
            &bp,
            6,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut rng,
        );
        assert!(!sel.is_empty());
        for b in &sel {
            assert!(bp.population(b.rule).members.contains(&b.row));
        }
    }

    #[test]
    fn online_proxy_survives_a_nan_feature_cell() {
        // One NaN cell makes every proxy probability NaN; sorting them used
        // to panic with "finite probabilities".
        let schema =
            Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").numeric("z").build();
        let mut d = Dataset::new(schema);
        for i in 0..20 {
            let z = if i == 3 { f64::NAN } else { i as f64 };
            d.push_row(&[Value::Num(i as f64), Value::Num(z)], u32::from(i >= 10)).unwrap();
        }
        let f = frs();
        let bp = BasePopulation::pre_select(&d, &f, 5);
        let mut rng = StdRng::seed_from_u64(42);
        let sel = SelectionStrategy::OnlineProxy.select(
            &d,
            &f,
            &bp,
            6,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut rng,
        );
        assert_eq!(sel.len(), 6);
        for b in &sel {
            assert!(bp.population(b.rule).members.contains(&b.row));
        }
    }

    #[test]
    fn zero_eta_or_no_viable_rules() {
        let (d, f, bp) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(SelectionStrategy::Random
            .select(&d, &f, &bp, 0, 5, &Stub, &mut SelectCache::new(), &mut rng)
            .is_empty());
        // k too large -> nothing viable.
        let bp_small = BasePopulation::pre_select(&d, &f, 50);
        assert!(SelectionStrategy::Random
            .select(&d, &f, &bp_small, 10, 50, &Stub, &mut SelectCache::new(), &mut rng)
            .is_empty());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(SelectionStrategy::Random.name(), "random");
        assert_eq!(SelectionStrategy::Ip.name(), "IP");
        assert_eq!(SelectionStrategy::OnlineProxy.name(), "online");
        assert_eq!(SelectionStrategy::JointNeighbors.name(), "joint");
    }

    #[test]
    fn joint_neighbors_pins_valid_pairs() {
        let (d, f, bp) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        let sel = SelectionStrategy::JointNeighbors.select(
            &d,
            &f,
            &bp,
            6,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut rng,
        );
        assert!(!sel.is_empty());
        for b in &sel {
            let members = &bp.population(b.rule).members;
            assert!(members.contains(&b.row));
            let n = b.neighbor.expect("joint selection pins neighbours");
            assert!(members.contains(&n), "neighbour outside the rule population");
            assert_ne!(n, b.row, "neighbour must differ from the base");
        }
    }

    /// [`Stub`] that counts the rows it is asked to predict, so a test can
    /// tell a recomputed IP selection from a replayed one.
    #[derive(Default)]
    struct CountingStub(std::sync::atomic::AtomicUsize);

    impl CountingStub {
        fn rows_predicted(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Classifier for CountingStub {
        fn n_classes(&self) -> usize {
            2
        }
        fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Stub.predict_proba_into(row, out);
        }
    }

    const MEMOIZED: [SelectionStrategy; 3] =
        [SelectionStrategy::Ip, SelectionStrategy::OnlineProxy, SelectionStrategy::JointNeighbors];

    #[test]
    fn memo_replays_the_selection_at_an_unchanged_row_count() {
        // Recording is process-wide; no other test here reaches a memo
        // hit, so the hit count below is exact.
        frote_obs::set_metrics_enabled(true);
        let (d, f, bp) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        for strategy in MEMOIZED {
            let model = CountingStub::default();
            let mut cache = SelectCache::new();
            let first = strategy.select(&d, &f, &bp, 16, 5, &model, &mut cache, &mut rng);
            let predicted = model.rows_predicted();
            let hits = MEMO_HITS.value();
            let again = strategy.select(&d, &f, &bp, 16, 5, &model, &mut cache, &mut rng);
            assert_eq!(first, again, "{strategy:?} memo changed the selection");
            assert_eq!(MEMO_HITS.value(), hits + 1, "{strategy:?} second call is one hit");
            assert_eq!(model.rows_predicted(), predicted, "{strategy:?} hit consulted the model");
        }
    }

    #[test]
    fn appending_a_row_misses_the_memo() {
        frote_obs::set_metrics_enabled(true);
        let (mut d, f, bp) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        let model = CountingStub::default();
        let mut cache = SelectCache::new();
        let misses = MEMO_MISSES.value();
        SelectionStrategy::Ip.select(&d, &f, &bp, 16, 5, &model, &mut cache, &mut rng);
        let predicted = model.rows_predicted();
        assert_eq!(predicted, 20, "the first call predicts every row");
        d.push_row(&[Value::Num(9.5)], 0).unwrap();
        let after = SelectionStrategy::Ip.select(&d, &f, &bp, 16, 5, &model, &mut cache, &mut rng);
        assert_eq!(model.rows_predicted(), predicted + 21, "the grown dataset is re-predicted");
        // Other tests may miss concurrently; ours are two of them.
        assert!(MEMO_MISSES.value() >= misses + 2);
        let fresh = SelectionStrategy::Ip.select(
            &d,
            &f,
            &bp,
            16,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut rng,
        );
        assert_eq!(after, fresh);
    }

    #[test]
    fn random_is_never_memoized_and_keeps_drawing() {
        let (d, f, bp) = setup();
        let mut cache = SelectCache::new();
        let mut rng = StdRng::seed_from_u64(3);
        let a = SelectionStrategy::Random.select(&d, &f, &bp, 8, 5, &Stub, &mut cache, &mut rng);
        let b = SelectionStrategy::Random.select(&d, &f, &bp, 8, 5, &Stub, &mut cache, &mut rng);
        assert!(cache.selection.is_none(), "a random draw was memoized");
        assert_ne!(a, b, "the second call replayed the first draw");
        // Exactly the stream two uncached calls consume.
        let mut reference = StdRng::seed_from_u64(3);
        for want in [&a, &b] {
            let got = SelectionStrategy::Random.select(
                &d,
                &f,
                &bp,
                8,
                5,
                &Stub,
                &mut SelectCache::new(),
                &mut reference,
            );
            assert_eq!(&got, want);
        }
        assert_eq!(rng.next_u64(), reference.next_u64(), "rng streams diverged");
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let (d, f, bp) = setup();
        let a = SelectionStrategy::Random.select(
            &d,
            &f,
            &bp,
            8,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut StdRng::seed_from_u64(3),
        );
        let b = SelectionStrategy::Random.select(
            &d,
            &f,
            &bp,
            8,
            5,
            &Stub,
            &mut SelectCache::new(),
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(a, b);
    }
}
