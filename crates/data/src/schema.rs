//! Dataset schemas: named, typed features plus the label vocabulary.

use crate::value::FeatureKind;

/// Metadata for one feature column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureMeta {
    name: String,
    kind: FeatureKind,
}

impl FeatureMeta {
    /// Creates feature metadata from a name and kind.
    pub fn new(name: impl Into<String>, kind: FeatureKind) -> Self {
        Self { name: name.into(), kind }
    }

    /// Feature name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature kind.
    pub fn kind(&self) -> &FeatureKind {
        &self.kind
    }
}

/// A dataset schema: ordered feature metadata plus label classes.
///
/// Schemas are immutable once built ([`SchemaBuilder`] constructs them) and
/// shared between datasets via `Arc` internally, so cloning a [`crate::Dataset`]
/// does not duplicate vocabularies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    features: Vec<FeatureMeta>,
    label_name: String,
    classes: Vec<String>,
}

impl Schema {
    /// Starts building a schema with the given label column name and class
    /// vocabulary.
    ///
    /// # Example
    ///
    /// ```
    /// use frote_data::Schema;
    /// let schema = Schema::builder("approved", vec!["no".into(), "yes".into()])
    ///     .numeric("age")
    ///     .build();
    /// assert_eq!(schema.n_features(), 1);
    /// assert_eq!(schema.n_classes(), 2);
    /// ```
    pub fn builder(label_name: impl Into<String>, classes: Vec<String>) -> SchemaBuilder {
        SchemaBuilder { features: Vec::new(), label_name: label_name.into(), classes }
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Number of label classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of numeric feature columns.
    pub fn n_numeric(&self) -> usize {
        self.features.iter().filter(|f| f.kind.is_numeric()).count()
    }

    /// Number of categorical feature columns.
    pub fn n_categorical(&self) -> usize {
        self.features.iter().filter(|f| f.kind.is_categorical()).count()
    }

    /// Metadata for feature `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_features()`.
    pub fn feature(&self, j: usize) -> &FeatureMeta {
        &self.features[j]
    }

    /// All feature metadata in column order.
    pub fn features(&self) -> &[FeatureMeta] {
        &self.features
    }

    /// Index of the feature named `name`, if present.
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.features.iter().position(|f| f.name == name)
    }

    /// Label column name.
    pub fn label_name(&self) -> &str {
        &self.label_name
    }

    /// Class names; a label `c` refers to `classes()[c as usize]`.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Name of class `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c as usize >= n_classes()`.
    pub fn class_name(&self, c: u32) -> &str {
        &self.classes[c as usize]
    }

    /// Index of the class named `name`, if present.
    pub fn class_index(&self, name: &str) -> Option<u32> {
        self.classes.iter().position(|c| c == name).map(|i| i as u32)
    }
}

/// Builder for [`Schema`]; see [`Schema::builder`].
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    features: Vec<FeatureMeta>,
    label_name: String,
    classes: Vec<String>,
}

impl SchemaBuilder {
    /// Appends a numeric feature column.
    pub fn numeric(mut self, name: impl Into<String>) -> Self {
        self.features.push(FeatureMeta::new(name, FeatureKind::Numeric));
        self
    }

    /// Appends a categorical feature column with the given vocabulary.
    pub fn categorical(mut self, name: impl Into<String>, categories: Vec<String>) -> Self {
        self.features.push(FeatureMeta::new(name, FeatureKind::Categorical { categories }));
        self
    }

    /// Appends an already-constructed feature.
    pub fn feature(mut self, meta: FeatureMeta) -> Self {
        self.features.push(meta);
        self
    }

    /// Finalizes the schema.
    ///
    /// # Panics
    ///
    /// Panics if two features share a name, or fewer than two classes were
    /// given — a classification dataset needs at least a binary label.
    pub fn build(self) -> Schema {
        assert!(self.classes.len() >= 2, "schema needs at least two classes");
        for (i, f) in self.features.iter().enumerate() {
            for g in &self.features[i + 1..] {
                assert!(f.name != g.name, "duplicate feature name {:?}", f.name);
            }
        }
        Schema { features: self.features, label_name: self.label_name, classes: self.classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::builder("y", vec!["no".into(), "yes".into()])
            .numeric("age")
            .categorical("color", vec!["red".into(), "blue".into(), "green".into()])
            .numeric("income")
            .build()
    }

    #[test]
    fn counts() {
        let s = demo();
        assert_eq!(s.n_features(), 3);
        assert_eq!(s.n_numeric(), 2);
        assert_eq!(s.n_categorical(), 1);
        assert_eq!(s.n_classes(), 2);
    }

    #[test]
    fn lookup() {
        let s = demo();
        assert_eq!(s.feature_index("color"), Some(1));
        assert_eq!(s.feature_index("nope"), None);
        assert_eq!(s.feature(0).name(), "age");
        assert!(s.feature(1).kind().is_categorical());
        assert_eq!(s.class_index("yes"), Some(1));
        assert_eq!(s.class_name(0), "no");
        assert_eq!(s.label_name(), "y");
    }

    #[test]
    #[should_panic(expected = "duplicate feature name")]
    fn duplicate_names_rejected() {
        let _ =
            Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").numeric("x").build();
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn single_class_rejected() {
        let _ = Schema::builder("y", vec!["only".into()]).numeric("x").build();
    }
}
