//! Label distributions `π` attached to feedback rules.

use rand::Rng;

use crate::error::RuleError;

/// The label distribution of a feedback rule (paper §3.1).
///
/// The common case is deterministic (`Y = c` with probability 1). The paper
/// also allows probabilistic rules, useful for expressing uncertainty in a
/// rule and mitigating over-confident experts (its Table 6 experiment).
#[derive(Debug, Clone, PartialEq)]
pub enum LabelDist {
    /// Kronecker delta on one class.
    Deterministic(u32),
    /// Explicit probabilities per class (must sum to 1 within tolerance).
    Probabilistic(Vec<f64>),
}

impl LabelDist {
    /// Creates a deterministic distribution on `class`.
    pub fn deterministic(class: u32) -> Self {
        LabelDist::Deterministic(class)
    }

    /// Creates a probabilistic distribution.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::InvalidDistribution`] if any probability is
    /// negative/non-finite or the sum is not 1 within `1e-6`.
    pub fn probabilistic(probs: Vec<f64>) -> Result<Self, RuleError> {
        if probs.is_empty() || probs.iter().any(|&p| !p.is_finite() || p < 0.0) {
            return Err(RuleError::InvalidDistribution {
                detail: "probabilities must be finite and non-negative".into(),
            });
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(RuleError::InvalidDistribution {
                detail: format!("probabilities sum to {sum}, expected 1"),
            });
        }
        Ok(LabelDist::Probabilistic(probs))
    }

    /// Whether the distribution is deterministic.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, LabelDist::Deterministic(_))
    }

    /// The most likely class (ties to the lowest index).
    pub fn mode(&self) -> u32 {
        match self {
            LabelDist::Deterministic(c) => *c,
            LabelDist::Probabilistic(p) => p
                .iter()
                .enumerate()
                .max_by(|(i, a), (j, b)| a.partial_cmp(b).expect("finite probs").then(j.cmp(i)))
                .map(|(i, _)| i as u32)
                .expect("validated non-empty"),
        }
    }

    /// Probability assigned to `class`.
    pub fn prob(&self, class: u32) -> f64 {
        match self {
            LabelDist::Deterministic(c) => {
                if *c == class {
                    1.0
                } else {
                    0.0
                }
            }
            LabelDist::Probabilistic(p) => p.get(class as usize).copied().unwrap_or(0.0),
        }
    }

    /// Draws a class.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self {
            LabelDist::Deterministic(c) => *c,
            LabelDist::Probabilistic(p) => {
                let mut t = rng.random::<f64>();
                for (i, &q) in p.iter().enumerate() {
                    if t < q {
                        return i as u32;
                    }
                    t -= q;
                }
                (p.len() - 1) as u32
            }
        }
    }

    /// The even mixture `(self + other) / 2` over `n_classes` classes —
    /// the paper's conflict-resolution option 2.
    pub fn mixture(&self, other: &LabelDist, n_classes: usize) -> LabelDist {
        let probs =
            (0..n_classes as u32).map(|c| 0.5 * self.prob(c) + 0.5 * other.prob(c)).collect();
        LabelDist::Probabilistic(probs)
    }

    /// Validates against a class count.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::UnknownClass`] for an out-of-range deterministic
    /// class, or [`RuleError::InvalidDistribution`] for a probability vector
    /// of the wrong arity.
    pub fn validate(&self, n_classes: usize) -> Result<(), RuleError> {
        match self {
            LabelDist::Deterministic(c) => {
                if (*c as usize) < n_classes {
                    Ok(())
                } else {
                    Err(RuleError::UnknownClass { class: *c })
                }
            }
            LabelDist::Probabilistic(p) => {
                if p.len() == n_classes {
                    Ok(())
                } else {
                    Err(RuleError::InvalidDistribution {
                        detail: format!("{} probabilities for {n_classes} classes", p.len()),
                    })
                }
            }
        }
    }
}

impl From<u32> for LabelDist {
    fn from(class: u32) -> Self {
        LabelDist::Deterministic(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_basics() {
        let d = LabelDist::deterministic(2);
        assert!(d.is_deterministic());
        assert_eq!(d.mode(), 2);
        assert_eq!(d.prob(2), 1.0);
        assert_eq!(d.prob(0), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 2);
    }

    #[test]
    fn probabilistic_validation() {
        assert!(LabelDist::probabilistic(vec![0.5, 0.5]).is_ok());
        assert!(LabelDist::probabilistic(vec![0.5, 0.6]).is_err());
        assert!(LabelDist::probabilistic(vec![-0.1, 1.1]).is_err());
        assert!(LabelDist::probabilistic(vec![]).is_err());
        assert!(LabelDist::probabilistic(vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn sampling_matches_probs() {
        let d = LabelDist::probabilistic(vec![0.2, 0.8]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let ones = (0..n).filter(|_| d.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "frac {frac}");
        assert_eq!(d.mode(), 1);
    }

    #[test]
    fn mixture_of_deterministics() {
        let a = LabelDist::deterministic(0);
        let b = LabelDist::deterministic(1);
        let m = a.mixture(&b, 3);
        assert_eq!(m.prob(0), 0.5);
        assert_eq!(m.prob(1), 0.5);
        assert_eq!(m.prob(2), 0.0);
    }

    #[test]
    fn validate_against_class_count() {
        assert!(LabelDist::deterministic(1).validate(2).is_ok());
        assert!(LabelDist::deterministic(2).validate(2).is_err());
        assert!(LabelDist::probabilistic(vec![1.0]).unwrap().validate(2).is_err());
    }

    #[test]
    fn mode_tie_breaks_low() {
        let d = LabelDist::Probabilistic(vec![0.5, 0.5]);
        assert_eq!(d.mode(), 0);
    }
}
