//! The columnar rule-evaluation engine: compiled predicate bitmasks over
//! the dense data plane. Every clause and rule-set scan runs here.
//!
//! [`CompiledClause::compile`] validates a clause against the schema and
//! lowers every predicate into a per-feature *predicate plan* that sweeps
//! the typed column slices ([`frote_data::Column::as_numeric`] /
//! `as_categorical`) directly, filling per-clause `u64` bitmask words
//! combined with word-level AND, counting coverage via popcount, and
//! parallelizing over fixed row blocks in block order so results are
//! bit-identical at any `FROTE_THREADS`.
//!
//! Evaluation ([`CompiledClause::eval`]) compares numeric thresholds
//! against the raw `f64` column and categorical `Eq`/`Ne` against the `u32`
//! code column. It is cell-for-cell identical to the single-row check
//! [`Clause::satisfied_by`] — including IEEE `NaN` semantics, where every
//! numeric comparison is `false` — and the differential proptests
//! (`tests/prop_rule_engine.rs`) hold the two equal on every row.
//!
//! Compilation *pre-validates* against the schema and returns
//! [`RuleError`]. The scan facades ([`Clause::coverage`],
//! [`FeedbackRuleSet::coverage`] and friends) panic with that error's text;
//! compile first for a `Result`.
//!
//! [`RuleMaskCache`] holds a rule set's compiled clauses and their per-rule
//! masks. A one-shot set scan ([`FeedbackRuleSet::scan`]) compiles and
//! evaluates every row once; the FROTE loop instead keeps one cache in
//! sync with its append-only active dataset: new rows append mask bits,
//! candidate rejection truncates them. Plans depend only on the schema,
//! never on the rows, so truncation is exact.

use std::ops::Range;

use frote_data::{Dataset, FeatureKind, Schema, Value};
use frote_obs::Counter;

use crate::clause::Clause;
use crate::error::RuleError;
use crate::predicate::Op;
use crate::ruleset::FeedbackRuleSet;

/// Datasets below this row count are swept serially: the pool only pays
/// off on biggish inputs.
const PAR_SCAN_MIN: usize = 4096;

// Engine metrics (see frote-obs). Both thread-invariant: compiles and
// scans depend on inputs, never on scheduling.
static CLAUSES_COMPILED: Counter = Counter::new("rule_engine.clauses_compiled");
static EVAL_RAW: Counter = Counter::new("rule_engine.eval_raw");

// Mask-cache metrics, one per `MaskSync` path plus row and truncate
// totals. All thread-invariant: sync decisions depend only on the rows.
static SYNC_NOOP: Counter = Counter::new("rule_mask_cache.sync.noop");
static SYNC_APPEND: Counter = Counter::new("rule_mask_cache.sync.append");
static SYNC_REBUILD: Counter = Counter::new("rule_mask_cache.sync.rebuild");
static SYNC_FIRST_FIT: Counter = Counter::new("rule_mask_cache.sync.rebuild.first_fit");
static SYNC_INJECTED: Counter = Counter::new("rule_mask_cache.sync.rebuild.injected");
static APPENDED_ROWS: Counter = Counter::new("rule_mask_cache.appended_rows");
static TRUNCATES: Counter = Counter::new("rule_mask_cache.truncates");
static TRUNCATED_ROWS: Counter = Counter::new("rule_mask_cache.truncated_rows");

/// Rows per parallel block. A multiple of 64 so every block starts on a
/// `u64` word boundary and the per-block word vectors concatenate into the
/// full mask without any bit shifting — which is what makes the blocked
/// parallel fill bit-identical to the serial one at any thread count.
const MASK_BLOCK: usize = 4096;

/// A packed per-row boolean mask: bit `i` of `words[i / 64]` is row `i`.
///
/// Invariant: bits at positions `>= len` are always zero, so popcounts and
/// word-level combination never see garbage tail bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMask {
    words: Vec<u64>,
    len: usize,
}

impl RowMask {
    /// A mask of `len` rows, all set.
    pub fn all_true(len: usize) -> RowMask {
        let mut mask = RowMask { words: vec![u64::MAX; len.div_ceil(64)], len };
        mask.clear_tail();
        mask
    }

    /// A mask of `len` rows, all clear.
    pub fn all_false(len: usize) -> RowMask {
        RowMask { words: vec![0; len.div_ceil(64)], len }
    }

    /// Builds a mask from pre-filled words (tail bits must already be
    /// clear); used by the blocked parallel fill.
    fn from_words(words: Vec<u64>, len: usize) -> RowMask {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let mask = RowMask { words, len };
        debug_assert!(mask.tail_is_clear());
        mask
    }

    /// Number of rows the mask describes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask describes zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set rows (popcount over the words).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sorted indices of the set rows.
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                out.push(wi * 64 + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
        out
    }

    /// `self &= other` (row-wise AND).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &RowMask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other` (row-wise OR).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &RowMask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other` (row-wise AND NOT — "covered here and not claimed
    /// earlier", the first-match attribution step).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_not_assign(&mut self, other: &RowMask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The row-wise complement.
    pub fn inverted(&self) -> RowMask {
        let mut out = RowMask { words: self.words.iter().map(|w| !w).collect(), len: self.len };
        out.clear_tail();
        out
    }

    /// Appends one row's bit (the incremental-sync path).
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    /// Drops all rows past the first `len` (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.words.truncate(len.div_ceil(64));
            self.clear_tail();
        }
    }

    /// Zeroes the bits of the last word past `len`.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    fn tail_is_clear(&self) -> bool {
        let tail = self.len % 64;
        tail == 0 || self.words.last().is_none_or(|w| w >> tail == 0)
    }
}

/// Whether `x op t` holds, with exactly `Predicate::eval`'s IEEE semantics:
/// every comparison against (or of) `NaN` is `false`.
#[inline]
fn num_holds(op: Op, x: f64, t: f64) -> bool {
    match op {
        Op::Eq => x == t,
        Op::Gt => x > t,
        Op::Ge => x >= t,
        Op::Lt => x < t,
        Op::Le => x <= t,
        Op::Ne => unreachable!("Ne is not allowed on numeric features"),
    }
}

/// One lowered predicate: which typed column to sweep and how.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PredPlan {
    /// Numeric comparison against the raw `f64` column.
    Num {
        /// Column index.
        col: usize,
        /// Comparison operator (never `Ne`).
        op: Op,
        /// Threshold.
        t: f64,
    },
    /// Categorical equality against the `u32` code column.
    CatEq {
        /// Column index.
        col: usize,
        /// Category code.
        code: u32,
    },
    /// Categorical inequality against the `u32` code column.
    CatNe {
        /// Column index.
        col: usize,
        /// Category code.
        code: u32,
    },
}

/// ANDs `pred(x)` over 64-row word chunks of a column slice into `words`.
#[inline]
fn sweep_and<T: Copy>(vals: &[T], words: &mut [u64], pred: impl Fn(T) -> bool) {
    for (w, chunk) in words.iter_mut().zip(vals.chunks(64)) {
        let mut m = 0u64;
        for (b, &x) in chunk.iter().enumerate() {
            m |= u64::from(pred(x)) << b;
        }
        *w &= m;
    }
}

impl PredPlan {
    /// ANDs this predicate's truth over `rows` of `ds` into `words`
    /// (bit `k` of `words` is row `rows.start + k`).
    fn and_into(&self, ds: &Dataset, rows: Range<usize>, words: &mut [u64]) {
        match *self {
            PredPlan::Num { col, op, t } => {
                let v = ds.column(col).as_numeric().expect("validated numeric column");
                sweep_and(&v[rows], words, |x| num_holds(op, x, t));
            }
            PredPlan::CatEq { col, code } => {
                let v = ds.column(col).as_categorical().expect("validated categorical column");
                sweep_and(&v[rows], words, |c| c == code);
            }
            PredPlan::CatNe { col, code } => {
                let v = ds.column(col).as_categorical().expect("validated categorical column");
                sweep_and(&v[rows], words, |c| c != code);
            }
        }
    }

    /// Single-row evaluation (the incremental-append path).
    #[inline]
    fn holds_row(&self, ds: &Dataset, i: usize) -> bool {
        match *self {
            PredPlan::Num { col, op, t } => {
                num_holds(op, ds.column(col).as_numeric().expect("numeric column")[i], t)
            }
            PredPlan::CatEq { col, code } => {
                ds.column(col).as_categorical().expect("categorical column")[i] == code
            }
            PredPlan::CatNe { col, code } => {
                ds.column(col).as_categorical().expect("categorical column")[i] != code
            }
        }
    }
}

/// A clause lowered into columnar predicate plans. Construct with
/// [`CompiledClause::compile`]; evaluation agrees with
/// [`Clause::satisfied_by`] on every row, at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledClause {
    preds: Vec<PredPlan>,
}

impl CompiledClause {
    /// Validates `clause` against `schema` and lowers every predicate into
    /// its columnar plan. The empty clause compiles to the all-true sweep.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuleError`] of [`Clause::validate`] — compiling
    /// is the pre-validation step that makes the scans panic-free.
    pub fn compile(clause: &Clause, schema: &Schema) -> Result<CompiledClause, RuleError> {
        clause.validate(schema)?;
        CLAUSES_COMPILED.inc();
        let preds = clause
            .predicates()
            .iter()
            .map(|p| match (schema.feature(p.feature()).kind(), p.op(), p.value()) {
                (FeatureKind::Numeric, op, Value::Num(t)) => {
                    PredPlan::Num { col: p.feature(), op, t }
                }
                (FeatureKind::Categorical { .. }, Op::Eq, Value::Cat(code)) => {
                    PredPlan::CatEq { col: p.feature(), code }
                }
                (FeatureKind::Categorical { .. }, Op::Ne, Value::Cat(code)) => {
                    PredPlan::CatNe { col: p.feature(), code }
                }
                _ => unreachable!("validate admits only kind-consistent predicates"),
            })
            .collect();
        Ok(CompiledClause { preds })
    }

    /// Evaluates the clause over every row of `ds` as a bitmask, sweeping
    /// each predicate's column over fixed row blocks in parallel
    /// (block-order concatenation keeps the result thread-count-invariant).
    pub fn eval(&self, ds: &Dataset) -> RowMask {
        EVAL_RAW.inc();
        let n = ds.n_rows();
        if n < PAR_SCAN_MIN || frote_par::serial() {
            return RowMask::from_words(self.block_words(ds, 0..n), n);
        }
        let words = frote_par::par_blocks_map(n, MASK_BLOCK, |_, rows| self.block_words(ds, rows));
        RowMask::from_words(words, n)
    }

    /// Covered row indices — same contract as [`Clause::coverage`].
    pub fn coverage(&self, ds: &Dataset) -> Vec<usize> {
        self.eval(ds).indices()
    }

    /// Number of covered rows via popcount, without materializing indices.
    pub fn coverage_count(&self, ds: &Dataset) -> usize {
        self.eval(ds).count()
    }

    /// The mask words of one row block: start all-true, AND each
    /// predicate's columnar sweep in.
    fn block_words(&self, ds: &Dataset, rows: Range<usize>) -> Vec<u64> {
        let len = rows.len();
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(w) = words.last_mut() {
                *w = (1u64 << (len % 64)) - 1;
            }
        }
        for p in &self.preds {
            p.and_into(ds, rows.clone(), &mut words);
        }
        words
    }

    /// Single-row evaluation against the raw columns.
    fn holds_row(&self, ds: &Dataset, i: usize) -> bool {
        self.preds.iter().all(|p| p.holds_row(ds, i))
    }
}

/// How [`RuleMaskCache::sync`] brought the masks up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskSync {
    /// No new rows: nothing was evaluated.
    Unchanged,
    /// Only the new rows were evaluated and appended.
    Appended {
        /// Number of rows appended.
        rows: usize,
    },
    /// The first sync evaluated every row.
    FirstFit,
    /// An injected fault at `rules.mask.append` (see `frote-faults`) made
    /// the sync re-evaluate every row instead of appending. The masks are
    /// the same; only the cost changes.
    Injected,
}

/// A rule set lowered onto the columnar engine: one compiled clause per
/// rule, pre-validated as a set, plus each rule's coverage mask over the
/// rows evaluated so far.
///
/// - [`FeedbackRuleSet::scan`] compiles a set and evaluates every row of
///   one dataset once — the one-shot scan behind every set-level query;
/// - [`RuleMaskCache::sync`] keeps the masks in step with the FROTE loop's
///   append-only active dataset, appending bits for rows past the last
///   sync (the first sync evaluates the whole dataset with the blocked
///   parallel sweep);
/// - [`RuleMaskCache::truncate`] rolls rejected candidate rows back.
///
/// Plans depend only on the schema — never on the rows — so a truncation
/// is exact. Must only be reused across calls that pass the *same* rule
/// set and the same append-only dataset; hand each FROTE run its own cache.
#[derive(Debug, Clone)]
pub struct RuleMaskCache {
    clauses: Vec<CompiledClause>,
    masks: Vec<RowMask>,
    rows: usize,
}

impl RuleMaskCache {
    /// Validates every rule of `frs` against `schema` (clauses *and* label
    /// distributions) and compiles each clause, with no rows synced yet.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuleError`] found.
    pub fn compile(frs: &FeedbackRuleSet, schema: &Schema) -> Result<RuleMaskCache, RuleError> {
        frs.validate(schema)?;
        let clauses: Vec<CompiledClause> = frs
            .iter()
            .map(|r| CompiledClause::compile(r.clause(), schema))
            .collect::<Result<_, _>>()?;
        let masks = vec![RowMask::all_false(0); clauses.len()];
        Ok(RuleMaskCache { clauses, masks, rows: 0 })
    }

    /// Evaluates every row of `ds` with the blocked parallel sweep,
    /// replacing the masks. Counts nothing under `rule_mask_cache.*`: a
    /// one-shot scan is not a cache sync.
    pub(crate) fn eval_all(&mut self, ds: &Dataset) {
        self.masks = self.clauses.iter().map(|c| c.eval(ds)).collect();
        self.rows = ds.n_rows();
    }

    /// Brings the masks in sync with `ds`, whose leading `rows()` rows
    /// must be unchanged since the last sync. The first sync evaluates
    /// every row in parallel; later syncs append only the new tail. Each
    /// outcome is counted under `rule_mask_cache.sync.*`.
    ///
    /// # Panics
    ///
    /// Panics if `ds` has fewer rows than already synced (truncate first).
    pub fn sync(&mut self, ds: &Dataset) -> MaskSync {
        let n = ds.n_rows();
        assert!(n >= self.rows, "dataset shrank below the synced rows; call truncate instead");
        if n == self.rows {
            SYNC_NOOP.inc();
            return MaskSync::Unchanged;
        }
        let outcome = if self.rows == 0 {
            self.eval_all(ds);
            SYNC_REBUILD.inc();
            SYNC_FIRST_FIT.inc();
            MaskSync::FirstFit
        } else if frote_faults::point("rules.mask.append").is_err() {
            // An injected fault poisoned the append fast path: degrade to a
            // full re-evaluation — bit-identical masks, only the cost
            // changes.
            self.eval_all(ds);
            SYNC_REBUILD.inc();
            SYNC_INJECTED.inc();
            MaskSync::Injected
        } else {
            for (clause, mask) in self.clauses.iter().zip(&mut self.masks) {
                for i in self.rows..n {
                    mask.push(clause.holds_row(ds, i));
                }
            }
            SYNC_APPEND.inc();
            APPENDED_ROWS.add((n - self.rows) as u64);
            MaskSync::Appended { rows: n - self.rows }
        };
        self.rows = n;
        outcome
    }

    /// Drops mask bits past the first `rows` rows (rejecting a candidate
    /// batch). Exact — surviving bits stay valid verbatim.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.rows {
            TRUNCATES.inc();
            TRUNCATED_ROWS.add((self.rows - rows) as u64);
            for mask in &mut self.masks {
                mask.truncate(rows);
            }
            self.rows = rows;
        }
    }

    /// Rows synced so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of rules.
    pub fn n_rules(&self) -> usize {
        self.masks.len()
    }

    /// The synced per-rule masks, in rule order.
    pub fn masks(&self) -> &[RowMask] {
        &self.masks
    }

    /// Union coverage over the synced rows (paper Eq. 2; sorted indices).
    pub fn coverage(&self) -> Vec<usize> {
        self.union().indices()
    }

    /// Complement of [`RuleMaskCache::coverage`] over the synced rows.
    pub fn outside_coverage(&self) -> Vec<usize> {
        self.union().inverted().indices()
    }

    /// First-match attribution over the synced rows: `out[r]` lists rows
    /// whose first covering rule is `r`, via `mask_r AND NOT (union of
    /// earlier masks)`.
    pub fn attributed_coverage(&self) -> Vec<Vec<usize>> {
        let mut claimed = RowMask::all_false(self.rows);
        self.masks
            .iter()
            .map(|m| {
                let mut mine = m.clone();
                mine.and_not_assign(&claimed);
                claimed.or_assign(m);
                mine.indices()
            })
            .collect()
    }

    /// OR of the per-rule masks (all-false when there are no rules).
    fn union(&self) -> RowMask {
        let mut union = RowMask::all_false(self.rows);
        for m in &self.masks {
            union.or_assign(m);
        }
        union
    }

    /// [`RuleMaskCache::sync`] serialized against the tests that arm
    /// `rules.mask.append`: the armed table is process-wide, so an
    /// unlocked sync in a concurrent test could take another test's
    /// injected fault.
    #[cfg(test)]
    fn sync_unfaulted(&mut self, ds: &Dataset) -> MaskSync {
        frote_faults::test_support::with_spec(None, || self.sync(ds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::rule::FeedbackRule;

    fn schema() -> Schema {
        Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x")
            .categorical("k", vec!["p".into(), "q".into(), "r".into()])
            .build()
    }

    /// 10 rows: x = 0..10 with a NaN at row 7; k cycles p,q,r.
    fn ds() -> Dataset {
        let mut d = Dataset::new(schema());
        for i in 0..10 {
            let x = if i == 7 { f64::NAN } else { f64::from(i) };
            d.push_row(&[Value::Num(x), Value::Cat(i % 3)], 0).unwrap();
        }
        d
    }

    fn num(op: Op, t: f64) -> Predicate {
        Predicate::new(0, op, Value::Num(t))
    }

    fn cat(op: Op, c: u32) -> Predicate {
        Predicate::new(1, op, Value::Cat(c))
    }

    #[test]
    fn row_mask_ops() {
        let mut m = RowMask::all_false(70);
        assert_eq!(m.len(), 70);
        assert!(!m.is_empty());
        m.push(true);
        assert_eq!(m.len(), 71);
        assert!(m.get(70));
        assert_eq!(m.count(), 1);
        assert_eq!(m.indices(), vec![70]);
        let t = RowMask::all_true(71);
        assert_eq!(t.count(), 71);
        let mut u = t.clone();
        u.and_assign(&m);
        assert_eq!(u.indices(), vec![70]);
        u.or_assign(&m);
        assert_eq!(u.count(), 1);
        let mut v = t.clone();
        v.and_not_assign(&m);
        assert_eq!(v.count(), 70);
        assert!(!v.get(70));
        assert_eq!(m.inverted().count(), 70);
        u.truncate(70);
        assert_eq!(u.count(), 0);
        assert_eq!(t.inverted().count(), 0, "complement tail bits stay clear");
    }

    #[test]
    fn compiled_matches_interpreter_row_for_row() {
        let d = ds();
        let s = schema();
        let clauses = [
            Clause::always_true(),
            Clause::new(vec![num(Op::Le, 4.0)]),
            Clause::new(vec![num(Op::Gt, 4.0), cat(Op::Ne, 1)]),
            Clause::new(vec![num(Op::Ge, 7.0), cat(Op::Eq, 0)]),
            Clause::new(vec![num(Op::Eq, 3.0)]),
            Clause::new(vec![num(Op::Lt, f64::NAN)]),
        ];
        for c in &clauses {
            let compiled = CompiledClause::compile(c, &s).unwrap();
            let mask = compiled.eval(&d);
            for i in 0..d.n_rows() {
                assert_eq!(mask.get(i), c.satisfied_by(&d.row(i)), "{c} row {i}");
            }
            let oracle: Vec<usize> =
                (0..d.n_rows()).filter(|&i| c.satisfied_by(&d.row(i))).collect();
            assert_eq!(compiled.coverage(&d), oracle, "{c}");
            assert_eq!(compiled.coverage_count(&d), oracle.len(), "{c}");
        }
    }

    #[test]
    fn nan_cell_is_never_covered() {
        // Every numeric operator on a NaN cell is false, in the single-row
        // check and the compiled sweep alike.
        let d = ds();
        let s = schema();
        for op in [Op::Eq, Op::Gt, Op::Ge, Op::Lt, Op::Le] {
            let c = Clause::new(vec![num(op, f64::from(7))]);
            let compiled = CompiledClause::compile(&c, &s).unwrap();
            assert!(!compiled.eval(&d).get(7), "{op:?} must not cover the NaN row");
            assert!(!c.satisfied_by(&d.row(7)), "{op:?} single-row check");
        }
    }

    #[test]
    fn compile_pre_validates() {
        let s = schema();
        let unknown = Clause::new(vec![Predicate::new(9, Op::Lt, Value::Num(1.0))]);
        assert!(matches!(
            CompiledClause::compile(&unknown, &s),
            Err(RuleError::UnknownFeature { index: 9 })
        ));
        let ne_numeric = Clause::new(vec![num(Op::Ne, 1.0)]);
        assert!(matches!(
            CompiledClause::compile(&ne_numeric, &s),
            Err(RuleError::OperatorNotAllowed { .. })
        ));
        let out_of_vocab = Clause::new(vec![cat(Op::Eq, 9)]);
        assert!(matches!(
            CompiledClause::compile(&out_of_vocab, &s),
            Err(RuleError::ValueKindMismatch { .. })
        ));
    }

    fn frs() -> FeedbackRuleSet {
        FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(Clause::new(vec![num(Op::Le, 4.0)]), 1),
            FeedbackRule::deterministic(Clause::new(vec![num(Op::Le, 6.0), cat(Op::Eq, 0)]), 1),
            FeedbackRule::deterministic(Clause::new(vec![cat(Op::Eq, 2)]), 1),
        ])
    }

    #[test]
    fn ruleset_masks_match_interpreted_set_scans() {
        // x = 0..10 (NaN at 7), k = i % 3: rule 0 covers 0..=4, rule 1
        // covers {0, 3, 6} and rule 2 covers {2, 5, 8}.
        let d = ds();
        let f = frs();
        let scan = f.scan(&d);
        assert_eq!(scan.n_rules(), 3);
        assert_eq!(scan.rows(), d.n_rows());
        assert_eq!(scan.coverage(), vec![0, 1, 2, 3, 4, 5, 6, 8]);
        assert_eq!(scan.outside_coverage(), vec![7, 9]);
        assert_eq!(scan.attributed_coverage(), vec![vec![0, 1, 2, 3, 4], vec![6], vec![5, 8]]);
        // The same attribution, row by row, from the single-row check.
        let mut oracle = vec![Vec::new(); f.len()];
        for i in 0..d.n_rows() {
            if let Some(r) = f.first_covering(&d.row(i)) {
                oracle[r].push(i);
            }
        }
        assert_eq!(scan.attributed_coverage(), oracle);
    }

    #[test]
    fn ruleset_compile_validates_distributions_too() {
        let bad = FeedbackRuleSet::new(vec![FeedbackRule::deterministic(Clause::always_true(), 7)]);
        assert!(matches!(
            RuleMaskCache::compile(&bad, &schema()),
            Err(RuleError::UnknownClass { class: 7 })
        ));
    }

    #[test]
    fn mask_cache_append_and_truncate_stay_exact() {
        let f = frs();
        let mut cache = RuleMaskCache::compile(&f, &schema()).unwrap();
        assert_eq!(cache.rows(), 0);
        assert_eq!(cache.n_rules(), 3);

        let mut d = ds();
        assert_eq!(
            cache.sync_unfaulted(&d),
            MaskSync::FirstFit,
            "first sync evaluates the whole dataset"
        );
        assert_eq!(cache.rows(), d.n_rows());
        assert_eq!(cache.masks(), f.scan(&d).masks());

        // Append a tail — incremental bits must equal a from-scratch eval.
        for i in 0..5 {
            d.push_row(&[Value::Num(f64::from(i)), Value::Cat(0)], 1).unwrap();
        }
        assert_eq!(cache.sync_unfaulted(&d), MaskSync::Appended { rows: 5 });
        let fresh = f.scan(&d);
        assert_eq!(cache.masks(), fresh.masks());
        assert_eq!(cache.coverage(), fresh.coverage());
        assert_eq!(cache.outside_coverage(), fresh.outside_coverage());
        assert_eq!(cache.attributed_coverage(), fresh.attributed_coverage());

        // Reject the tail: truncate is exact, and re-sync is a no-op.
        let base = ds();
        cache.truncate(base.n_rows());
        assert_eq!(
            cache.sync_unfaulted(&base),
            MaskSync::Unchanged,
            "exact rollback: nothing to redo"
        );
        assert_eq!(cache.masks(), f.scan(&base).masks());
    }

    #[test]
    fn injected_append_fault_degrades_mask_cache_to_rebuild() {
        let f = frs();
        let mut cache = RuleMaskCache::compile(&f, &schema()).unwrap();
        let mut d = ds();
        cache.sync_unfaulted(&d);
        d.push_row(&[Value::Num(1.0), Value::Cat(0)], 1).unwrap();
        frote_faults::test_support::with_spec(Some("rules.mask.append:err:1000:3"), || {
            assert_eq!(
                cache.sync(&d),
                MaskSync::Injected,
                "a poisoned append degrades to a full re-evaluation"
            );
        });
        assert_eq!(cache.masks(), f.scan(&d).masks(), "bit-identical degradation");
        d.push_row(&[Value::Num(2.0), Value::Cat(0)], 1).unwrap();
        assert_eq!(cache.sync_unfaulted(&d), MaskSync::Appended { rows: 1 }, "fault cleared");
    }

    #[test]
    fn empty_ruleset_cache_has_full_outside_coverage() {
        let f = FeedbackRuleSet::empty();
        let mut cache = RuleMaskCache::compile(&f, &schema()).unwrap();
        let d = ds();
        cache.sync_unfaulted(&d);
        assert_eq!(cache.rows(), d.n_rows());
        assert!(cache.coverage().is_empty());
        assert_eq!(cache.outside_coverage(), (0..d.n_rows()).collect::<Vec<_>>());
    }

    #[test]
    fn scan_of_an_empty_dataset_covers_nothing() {
        let scan = frs().scan(&Dataset::new(schema()));
        assert_eq!(scan.rows(), 0);
        assert!(scan.coverage().is_empty());
        assert!(scan.outside_coverage().is_empty());
        assert_eq!(scan.attributed_coverage(), vec![Vec::<usize>::new(); 3]);
    }
}
