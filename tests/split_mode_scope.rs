//! `--split-mode` reaches LGBM only. The flag installs a process-global
//! default (`frote_ml::set_default_split_mode`) that `GbdtParams::default`
//! reads; LR and RF have one split search each. So the RF that
//! `setup::prepare` explains to build the rule pool — and with it every
//! LR and RF row of a table — must not move with the flag.
//!
//! This file holds one `#[test]` in its own process because it sets the
//! global.

use frote_data::synth::DatasetKind;
use frote_eval::setup::prepare;
use frote_eval::Scale;
use frote_ml::{set_default_split_mode, SplitMode};

#[test]
fn histogram_default_leaves_the_setup_rf_unchanged() {
    let digest = || format!("{:?}", prepare(DatasetKind::BreastCancer, Scale::Smoke, 3));
    set_default_split_mode(SplitMode::Exact);
    let exact = digest();
    set_default_split_mode(SplitMode::histogram());
    let histogram = digest();
    set_default_split_mode(SplitMode::Exact);
    assert!(exact == histogram, "the histogram default moved the setup's rule pool");
}
