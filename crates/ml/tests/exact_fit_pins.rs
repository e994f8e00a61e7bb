//! Whole-fit pins for the exact split search: a GBDT and a random forest,
//! fitted in the default exact mode, hash to the digests captured from the
//! per-node comparison-sort search that the per-fit rank table and counting
//! sort replaced. The hash covers the model's `Debug` rendering, which
//! prints every threshold, leaf value and leaf distribution in shortest
//! round-trip form, so a pin holds only if the fits are bit-identical. Each
//! pin is checked at `FROTE_THREADS` 1 and 2: the GBDT fits its per-class
//! trees in parallel over one rank table, and the forest shares its table
//! across the trees `par_map` fits.

use frote_data::synth::{DatasetKind, SynthConfig};
use frote_data::{Dataset, Schema, Value};
use frote_ml::forest::{ForestParams, RandomForest};
use frote_ml::gbdt::{Gbdt, GbdtParams};
use frote_ml::tree::TreeParams;
use frote_par::test_support::with_threads;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Heavy ties and mixed signed zeros in every numeric column, plus a
/// categorical column.
fn tie_heavy() -> Dataset {
    let schema = Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
        .numeric("ties")
        .numeric("zeros")
        .categorical("k", vec!["p".into(), "q".into(), "r".into()])
        .build();
    let mut ds = Dataset::new(schema);
    for i in 0..300u32 {
        let ties = f64::from((i * 7) % 5) - 2.0;
        let zeros = match (i * 13) % 4 {
            0 => -0.0,
            1 => 0.0,
            2 => -1.5,
            _ => 1.5,
        };
        let label = ((i * 11) % 7 + u32::from(ties > 0.0)) % 3;
        ds.push_row(&[Value::Num(ties), Value::Num(zeros), Value::Cat(i % 3)], label).unwrap();
    }
    ds
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    let synth =
        |kind: DatasetKind| kind.generate(&SynthConfig { n_rows: 400, ..Default::default() });
    vec![
        ("adult", synth(DatasetKind::Adult)),
        ("wine", synth(DatasetKind::WineQuality)),
        ("ties", tie_heavy()),
    ]
}

fn gbdt_digest(ds: &Dataset) -> u64 {
    let params =
        GbdtParams { n_rounds: 8, split_mode: frote_ml::SplitMode::Exact, ..Default::default() };
    fnv1a(format!("{:?}", Gbdt::fit(ds, &params)).as_bytes())
}

fn forest_digest(ds: &Dataset) -> u64 {
    let params =
        ForestParams { n_trees: 12, tree: TreeParams { max_depth: 4, ..Default::default() } };
    fnv1a(format!("{:?}", RandomForest::fit(ds, &params, 17)).as_bytes())
}

fn check(name: &str, fit: fn(&Dataset) -> u64, pinned: &[(&str, u64)]) {
    for (ds_name, ds) in datasets() {
        let want = pinned.iter().find(|(n, _)| *n == ds_name).expect("pinned").1;
        for threads in [1, 2] {
            let got = with_threads(threads, || fit(&ds));
            assert_eq!(got, want, "{name} on {ds_name} at FROTE_THREADS={threads}: {got:#018x}");
        }
    }
}

#[test]
fn exact_gbdt_fits_are_pinned() {
    check(
        "GBDT",
        gbdt_digest,
        &[
            ("adult", 0x31cf_4d00_1937_e6d7),
            ("wine", 0x06ad_548b_33f0_6e21),
            ("ties", 0xea48_1237_7310_6abd),
        ],
    );
}

#[test]
fn exact_forest_fits_are_pinned() {
    check(
        "RF",
        forest_digest,
        &[
            ("adult", 0xf8c4_9a53_8d7d_45cf),
            ("wine", 0x4fdc_cea5_8138_fc99),
            ("ties", 0x9df3_6257_e9e1_3a02),
        ],
    );
}
