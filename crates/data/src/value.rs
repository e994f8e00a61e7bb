//! Cell values and feature kinds.

use std::fmt;

/// The kind of a feature column.
///
/// The FROTE paper distinguishes numeric attributes (operators
/// `=, >, >=, <, <=`) from categorical ones (operators `=, !=`); the split is
/// carried here and consulted by the rules engine and the encoders.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Real-valued attribute.
    Numeric,
    /// Nominal attribute with a fixed vocabulary of category names. Cell
    /// values are indices into this vocabulary.
    Categorical {
        /// Category names; a cell value `Cat(i)` refers to `categories[i]`.
        categories: Vec<String>,
    },
}

impl FeatureKind {
    /// Returns `true` for [`FeatureKind::Numeric`].
    pub fn is_numeric(&self) -> bool {
        matches!(self, FeatureKind::Numeric)
    }

    /// Returns `true` for [`FeatureKind::Categorical`].
    pub fn is_categorical(&self) -> bool {
        matches!(self, FeatureKind::Categorical { .. })
    }

    /// Number of categories, or `None` for numeric features.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            FeatureKind::Numeric => None,
            FeatureKind::Categorical { categories } => Some(categories.len()),
        }
    }
}

/// A single typed cell value.
///
/// `Cat` holds an index into the owning column's category vocabulary (see
/// [`FeatureKind::Categorical`]); keeping indices rather than strings makes
/// coverage scans and distance computations branch-cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Numeric cell.
    Num(f64),
    /// Categorical cell (vocabulary index).
    Cat(u32),
}

impl Value {
    /// Returns the numeric payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is categorical. Use [`Value::as_num`] for a
    /// non-panicking accessor.
    pub fn expect_num(self) -> f64 {
        match self {
            Value::Num(x) => x,
            Value::Cat(c) => panic!("expected numeric value, found categorical index {c}"),
        }
    }

    /// Returns the categorical index payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is numeric. Use [`Value::as_cat`] for a
    /// non-panicking accessor.
    pub fn expect_cat(self) -> u32 {
        match self {
            Value::Cat(c) => c,
            Value::Num(x) => panic!("expected categorical value, found numeric {x}"),
        }
    }

    /// Returns the numeric payload if this is a [`Value::Num`].
    pub fn as_num(self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(x),
            Value::Cat(_) => None,
        }
    }

    /// Returns the categorical index if this is a [`Value::Cat`].
    pub fn as_cat(self) -> Option<u32> {
        match self {
            Value::Cat(c) => Some(c),
            Value::Num(_) => None,
        }
    }

    /// Whether this value's variant matches the feature kind.
    pub fn matches_kind(self, kind: &FeatureKind) -> bool {
        match (self, kind) {
            (Value::Num(_), FeatureKind::Numeric) => true,
            (Value::Cat(c), FeatureKind::Categorical { categories }) => {
                (c as usize) < categories.len()
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(x) => write!(f, "{x}"),
            Value::Cat(c) => write!(f, "#{c}"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u32> for Value {
    fn from(c: u32) -> Self {
        Value::Cat(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        let num = FeatureKind::Numeric;
        let cat = FeatureKind::Categorical { categories: vec!["a".into(), "b".into()] };
        assert!(num.is_numeric() && !num.is_categorical());
        assert!(cat.is_categorical() && !cat.is_numeric());
        assert_eq!(num.cardinality(), None);
        assert_eq!(cat.cardinality(), Some(2));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Num(1.5).as_num(), Some(1.5));
        assert_eq!(Value::Num(1.5).as_cat(), None);
        assert_eq!(Value::Cat(3).as_cat(), Some(3));
        assert_eq!(Value::Cat(3).as_num(), None);
        assert_eq!(Value::Num(2.0).expect_num(), 2.0);
        assert_eq!(Value::Cat(7).expect_cat(), 7);
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn expect_num_panics_on_cat() {
        Value::Cat(0).expect_num();
    }

    #[test]
    #[should_panic(expected = "expected categorical")]
    fn expect_cat_panics_on_num() {
        Value::Num(0.0).expect_cat();
    }

    #[test]
    fn matches_kind_checks_vocab_bounds() {
        let cat = FeatureKind::Categorical { categories: vec!["a".into()] };
        assert!(Value::Cat(0).matches_kind(&cat));
        assert!(!Value::Cat(1).matches_kind(&cat));
        assert!(!Value::Num(0.0).matches_kind(&cat));
        assert!(Value::Num(0.0).matches_kind(&FeatureKind::Numeric));
    }

    #[test]
    fn display_and_from() {
        assert_eq!(Value::from(2.5_f64).to_string(), "2.5");
        assert_eq!(Value::from(4_u32).to_string(), "#4");
    }
}
