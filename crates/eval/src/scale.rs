//! Experiment scales: CI-sized smoke runs vs. the paper's run counts.

use frote_data::synth::DatasetKind;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Shrunk datasets, few runs, short augmentation loops — finishes in
    /// seconds per experiment; used by integration tests and CI.
    #[default]
    Smoke,
    /// Intermediate: 2000-row datasets, 10 runs, `τ = 50`. One Adult edit
    /// takes 0.7 s (RF) to 5.8 s (LR, exact GBDT) on a 2-core host, so an
    /// experiment runs for minutes to hours: Figure 2 (about 1,900 edits)
    /// takes roughly 2 h — the overnight-sweep setting.
    Medium,
    /// The paper's counts: full Table 1 dataset sizes, 30–50 runs,
    /// `τ = 200`. Hours of compute, as in the paper (which capped runs at
    /// 24 h).
    Paper,
}

impl Scale {
    /// Parses `"smoke"` / `"paper"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Rows to synthesize for `kind` (0 = the paper's Table 1 count).
    pub fn n_rows(self, kind: DatasetKind) -> usize {
        match self {
            Scale::Smoke => kind.paper_n_rows().min(600),
            Scale::Medium => kind.paper_n_rows().min(2000),
            Scale::Paper => 0,
        }
    }

    /// Independent runs per experimental cell (the paper uses 30–50).
    pub fn runs(self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Medium => 10,
            Scale::Paper => 30,
        }
    }

    /// Runs for the Overlay comparison (the paper uses 50 there).
    pub fn overlay_runs(self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Medium => 10,
            Scale::Paper => 50,
        }
    }

    /// FROTE iteration limit `τ` (paper: 200).
    pub fn iteration_limit(self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Medium => 50,
            Scale::Paper => 200,
        }
    }

    /// Rule-pool size (paper: 100 rules per dataset).
    pub fn pool_size(self) -> usize {
        match self {
            Scale::Smoke => 30,
            Scale::Medium => 60,
            Scale::Paper => 100,
        }
    }

    /// The per-iteration generation count `η` the paper assigns per dataset
    /// (§5.1 Configuration), scaled down proportionally for smoke runs.
    pub fn eta(self, kind: DatasetKind) -> usize {
        let paper_eta = match kind {
            DatasetKind::Adult => 200,
            DatasetKind::Nursery
            | DatasetKind::Mushroom
            | DatasetKind::Splice
            | DatasetKind::WineQuality => 50,
            DatasetKind::Car | DatasetKind::Contraceptive | DatasetKind::BreastCancer => 20,
        };
        match self {
            Scale::Paper => paper_eta,
            Scale::Medium => (paper_eta / 2).max(10),
            Scale::Smoke => (paper_eta / 4).max(5),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Smoke.name(), "smoke");
    }

    #[test]
    fn smoke_is_smaller_everywhere() {
        for kind in DatasetKind::ALL {
            let smoke = Scale::Smoke.n_rows(kind);
            assert!(smoke <= 600 && smoke > 0);
            assert!(Scale::Smoke.eta(kind) <= 50);
        }
        assert!(Scale::Smoke.runs() < Scale::Paper.runs());
        assert!(Scale::Smoke.iteration_limit() < Scale::Paper.iteration_limit());
    }

    #[test]
    fn paper_matches_section_5_1() {
        assert_eq!(Scale::Paper.eta(DatasetKind::Adult), 200);
        assert_eq!(Scale::Paper.eta(DatasetKind::Nursery), 50);
        assert_eq!(Scale::Paper.eta(DatasetKind::BreastCancer), 20);
        assert_eq!(Scale::Paper.iteration_limit(), 200);
        assert_eq!(Scale::Paper.pool_size(), 100);
        assert_eq!(Scale::Paper.overlay_runs(), 50);
    }
}
