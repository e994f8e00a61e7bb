//! Property tests for the serving plane's row boundary.
//!
//! `parse_rows` faces whatever body a client sends. On any bytes (decoded
//! lossily to the `&str` the server hands it) it must return rows or a
//! `ServeError` and never panic; a malformed body is the client's fault, so
//! the error is a `Row` (naming the line) or a `BadRequest`. `render_rows`
//! is its exact inverse: every rendered cell parses back bit for bit.

use std::sync::Arc;

use frote_data::{Dataset, Schema, Value};
use frote_serve::{parse_rows, render_rows, ServeError};
use proptest::prelude::*;

const JOBS: [&str; 3] = ["eng", "law", "med"];

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder("y", vec!["no".into(), "yes".into()])
            .numeric("age")
            .categorical("job", JOBS.iter().map(|j| j.to_string()).collect())
            .numeric("x")
            .build(),
    )
}

/// Fragments of real and nearly-real bodies, plus raw bytes.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: &[&str] = &[
        "1", "-2.5", "0.1", "1e309", "-0", "NaN", "inf", "-inf", "0x10", "", "eng", "law", "med",
        "doc", "Eng", ",", ",,", "\n", "\r\n", " ", "\t", "é", "\u{feff}",
    ];
    prop_oneof![
        (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        (0u8..=255).prop_map(|b| vec![b]),
        Just(vec![0xc3]),
        Just(vec![0xff, b'\n']),
    ]
}

/// Cells that stress the float rendering.
const EDGES: [f64; 8] =
    [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE, 5e-324, f64::MAX];

/// Any `f64` bit pattern, with the edge values drawn often.
fn cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        -1e6..1e6f64,
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
    ]
}

/// Equal cells: the same bits, or both NaN (`Display` writes every NaN as
/// `NaN`, whatever its sign and payload).
fn same_cell(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// Ways to break one rendered row, each a client error for that line.
const CORRUPTIONS: [&str; 4] = ["1,eng", "1,eng,2,3", "1,doc,2", "1,eng,two"];

proptest! {
    /// Arbitrary bytes parse to rows or to a client error; never a panic,
    /// and never more rows than the body has lines.
    #[test]
    fn arbitrary_bodies_parse_or_fail_with_a_client_error(
        parts in proptest::collection::vec(fragment(), 0..40),
    ) {
        let bytes = parts.concat();
        let body = String::from_utf8_lossy(&bytes);
        match parse_rows(&schema(), &body) {
            Ok(ds) => {
                prop_assert!(!ds.is_empty(), "an accepted body carries rows");
                prop_assert!(ds.n_rows() <= body.lines().count());
            }
            Err(err) => prop_assert!(
                matches!(err, ServeError::Row { .. } | ServeError::BadRequest { .. }),
                "{err:?} from {body:?}"
            ),
        }
    }

    /// `render_rows` then `parse_rows` gives back the same cells, bit for
    /// bit (NaN stays NaN), in the same order.
    #[test]
    fn render_then_parse_roundtrips_every_cell(
        rows in proptest::collection::vec((cell(), 0u32..3, cell()), 1..24),
    ) {
        let s = schema();
        let mut ds = Dataset::with_shared_schema(Arc::clone(&s));
        for &(age, job, x) in &rows {
            ds.push_row(&[Value::Num(age), Value::Cat(job), Value::Num(x)], 0).unwrap();
        }
        let all: Vec<usize> = (0..ds.n_rows()).collect();
        let body = render_rows(&ds, &all);
        let back = parse_rows(&s, &body).unwrap();
        prop_assert_eq!(back.n_rows(), ds.n_rows());
        for i in 0..ds.n_rows() {
            for j in 0..s.n_features() {
                prop_assert!(
                    same_cell(back.cell(i, j), ds.cell(i, j)),
                    "row {i} col {j}: {:?} came back as {:?}", ds.cell(i, j), back.cell(i, j)
                );
            }
        }
    }

    /// One broken line among rendered rows fails with `ServeError::Row`
    /// naming that line (1-based), whatever the rows around it hold.
    #[test]
    fn a_broken_line_is_reported_by_its_number(
        rows in proptest::collection::vec((cell(), 0u32..3, cell()), 1..12),
        at in 0usize..12,
        how in 0usize..CORRUPTIONS.len(),
    ) {
        let s = schema();
        let mut ds = Dataset::with_shared_schema(Arc::clone(&s));
        for &(age, job, x) in &rows {
            ds.push_row(&[Value::Num(age), Value::Cat(job), Value::Num(x)], 0).unwrap();
        }
        let all: Vec<usize> = (0..ds.n_rows()).collect();
        let mut lines: Vec<String> = render_rows(&ds, &all).lines().map(str::to_string).collect();
        let at = at % lines.len();
        lines[at] = CORRUPTIONS[how].to_string();
        match parse_rows(&s, &lines.join("\n")) {
            Err(ServeError::Row { line, .. }) => prop_assert_eq!(line, at + 1),
            other => prop_assert!(false, "expected a Row error at line {}, got {other:?}", at + 1),
        }
    }
}
