//! JSON export of experiment results, for external plotting.
//!
//! The bench binaries print the paper-style text tables; anything that wants
//! the raw numbers (notebooks regenerating the figures graphically, CI trend
//! tracking) can serialize the same records with this module instead,
//! printed by `frote_obs::json`.

use std::collections::BTreeMap;

use frote_obs::json::{self, Value};

use crate::aggregate::{BoxStats, Summary};

/// One generic experiment cell: string-keyed dimensions (dataset, model,
/// tcf, ...) plus named measurements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellRecord {
    /// Dimension values, e.g. `{"dataset": "Car", "model": "RF"}`.
    pub dims: BTreeMap<String, String>,
    /// Scalar measurements.
    pub scalars: BTreeMap<String, f64>,
    /// Summary measurements.
    pub summaries: BTreeMap<String, Summary>,
    /// Box-plot measurements.
    pub boxes: BTreeMap<String, BoxStats>,
}

impl CellRecord {
    /// Starts an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a dimension value.
    pub fn dim(mut self, key: &str, value: impl ToString) -> Self {
        self.dims.insert(key.to_string(), value.to_string());
        self
    }

    /// Adds a scalar measurement.
    pub fn scalar(mut self, key: &str, value: f64) -> Self {
        self.scalars.insert(key.to_string(), value);
        self
    }

    /// Adds a summary measurement.
    pub fn summary(mut self, key: &str, value: Summary) -> Self {
        self.summaries.insert(key.to_string(), value);
        self
    }

    /// Adds a box-plot measurement (skips `None`).
    pub fn boxed(mut self, key: &str, value: Option<BoxStats>) -> Self {
        if let Some(b) = value {
            self.boxes.insert(key.to_string(), b);
        }
        self
    }
}

/// A whole experiment: id (e.g. `"table3"`), scale, and its cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment identifier matching the bench binary name.
    pub experiment: String,
    /// `"smoke"` or `"paper"`.
    pub scale: String,
    /// Cells.
    pub cells: Vec<CellRecord>,
}

impl ExperimentRecord {
    /// Creates a record.
    pub fn new(experiment: &str, scale: crate::Scale, cells: Vec<CellRecord>) -> Self {
        ExperimentRecord {
            experiment: experiment.to_string(),
            scale: scale.name().to_string(),
            cells,
        }
    }

    /// Pretty JSON: fields in declaration order, map entries in key order.
    pub fn to_json(&self) -> String {
        use Value::{Array, Num, Object, Str, UInt};
        let summary = |s: &Summary| {
            Object(vec![("mean", Num(s.mean)), ("std", Num(s.std)), ("n", UInt(s.n as u64))])
        };
        let box_stats = |b: &BoxStats| {
            let fields =
                [("lo", b.lo), ("q1", b.q1), ("median", b.median), ("q3", b.q3), ("hi", b.hi)];
            Object(fields.into_iter().map(|(key, v)| (key, Num(v))).collect())
        };
        let cells = self.cells.iter().map(|cell| {
            Object(vec![
                ("dims", object(&cell.dims, |v| Str(v))),
                ("scalars", object(&cell.scalars, |&v| Num(v))),
                ("summaries", object(&cell.summaries, summary)),
                ("boxes", object(&cell.boxes, box_stats)),
            ])
        });
        json::to_string_pretty(&Object(vec![
            ("experiment", Str(&self.experiment)),
            ("scale", Str(&self.scale)),
            ("cells", Array(cells.collect())),
        ]))
    }
}

fn object<'a, V>(map: &'a BTreeMap<String, V>, value: impl Fn(&'a V) -> Value<'a>) -> Value<'a> {
    Value::Object(map.iter().map(|(k, v)| (k.as_str(), value(v))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn boxed_none_is_skipped() {
        let cell = CellRecord::new().boxed("missing", None);
        assert!(cell.boxes.is_empty());
    }

    /// Exact bytes of `table3 --json`-style output: struct field order,
    /// `BTreeMap` key order, empty maps as `{}`, integral and non-finite
    /// scalars, and escaped dimension values.
    #[test]
    fn to_json_pins_exact_bytes() {
        let first = CellRecord::new()
            .dim("model", "RF")
            .dim("dataset", "Car \"q\" \\ \u{7} Qualität")
            .scalar("runs", 30.0)
            .scalar("ratio", 0.125)
            .scalar("undefined", f64::NAN)
            .summary("delta_j", Summary { mean: 0.01, std: 0.0, n: 30 })
            .boxed("initial", Some(BoxStats { lo: 0.1, q1: 0.2, median: 0.3, q3: 0.4, hi: 1.0 }));
        let second = CellRecord::new().dim("dataset", "Mushroom");
        let rec = ExperimentRecord::new("table3", Scale::Smoke, vec![first, second]);
        let expected = r#"{
  "experiment": "table3",
  "scale": "smoke",
  "cells": [
    {
      "dims": {
        "dataset": "Car \"q\" \\ \u0007 Qualität",
        "model": "RF"
      },
      "scalars": {
        "ratio": 0.125,
        "runs": 30,
        "undefined": null
      },
      "summaries": {
        "delta_j": {
          "mean": 0.01,
          "std": 0,
          "n": 30
        }
      },
      "boxes": {
        "initial": {
          "lo": 0.1,
          "q1": 0.2,
          "median": 0.3,
          "q3": 0.4,
          "hi": 1
        }
      }
    },
    {
      "dims": {
        "dataset": "Mushroom"
      },
      "scalars": {},
      "summaries": {},
      "boxes": {}
    }
  ]
}"#;
        assert_eq!(rec.to_json(), expected);
    }
}
