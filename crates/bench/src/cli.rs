//! The one shared command-line surface of every experiment binary.
//!
//! Each repro bin used to hand-roll its own `--threads`/`--split-mode`
//! parsing; [`CliOptions`] centralizes the flag set so a new flag
//! (like `--metrics-out`) lands once instead of once per binary. A bad
//! command line is an error value, not a panic: [`CliOptions::from_env`]
//! prints it with the usage line and exits 2, and `--help` exits 0.

use frote_eval::Scale;

/// The flag set every experiment binary accepts, as printed by `--help`.
const USAGE: &str = "[--scale smoke|medium|paper] [--all-datasets] [--json] \
[--threads N] [--split-mode exact|histogram|histogram:<bins>] \
[--mod-strategy none|relabel|drop] [--metrics-out PATH] [--help]";

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Experiment scale (default smoke).
    pub scale: Scale,
    /// Run on all applicable datasets rather than the paper's headline
    /// subset (`--all-datasets`).
    pub all_datasets: bool,
    /// Modification strategy override (`--mod-strategy none|relabel|drop`).
    pub mod_strategy: frote::ModStrategy,
    /// Emit machine-readable JSON (via `frote_eval::export`) instead of the
    /// text table, where the binary supports it (`--json`).
    pub json: bool,
    /// Worker-thread override for the `frote-par` runtime (`--threads N`).
    /// `None` leaves the `frote_par::threads()` resolution untouched
    /// (`FROTE_THREADS` env var → available parallelism). Results are
    /// bit-identical at any setting; only wall-clock changes.
    pub threads: Option<usize>,
    /// LGBM split-search override
    /// (`--split-mode exact|histogram|histogram:<bins>`). `None` leaves the
    /// process-wide default (exact) untouched; `Some` installs the mode via
    /// [`frote_ml::set_default_split_mode`] so every GBDT trainer the
    /// experiment harness constructs picks it up. LR and RF have one split
    /// search each, so their rows do not move.
    pub split_mode: Option<frote_ml::SplitMode>,
    /// Write a JSON metrics snapshot to this path at the end of the run
    /// (`--metrics-out <path>`). Implies metric recording: `apply` turns
    /// the registry on via [`frote_obs::set_metrics_enabled`], the same
    /// process-default pattern as `--threads`/`--split-mode`.
    pub metrics_out: Option<String>,
    /// `--help` / `-h` was given: [`CliOptions::from_env`] prints the usage
    /// and exits 0 instead of returning.
    pub help: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: Scale::Smoke,
            all_datasets: false,
            mod_strategy: frote::ModStrategy::Relabel,
            json: false,
            threads: None,
            split_mode: None,
            metrics_out: None,
            help: false,
        }
    }
}

impl CliOptions {
    /// Parses options from an argument iterator (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// An unknown argument, a flag missing its value, or a value the flag
    /// does not accept; the message names the offending argument.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
        let mut opts = CliOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{arg} requires a value"));
            match arg.as_str() {
                "--scale" => {
                    let v = value()?;
                    opts.scale = Scale::parse(&v)
                        .ok_or_else(|| format!("unknown scale {v:?} (smoke|medium|paper)"))?;
                }
                "--all-datasets" => opts.all_datasets = true,
                "--json" => opts.json = true,
                "--threads" => {
                    let v = value()?;
                    let n =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--threads wants a positive integer, got {v:?}")
                        })?;
                    opts.threads = Some(n);
                }
                "--split-mode" => {
                    let v = value()?;
                    let mode = frote_ml::SplitMode::parse(&v).ok_or_else(|| {
                        format!("unknown split mode {v:?} (exact|histogram|histogram:<bins>)")
                    })?;
                    opts.split_mode = Some(mode);
                }
                "--metrics-out" => opts.metrics_out = Some(value()?),
                "--mod-strategy" => {
                    opts.mod_strategy = match value()?.as_str() {
                        "none" => frote::ModStrategy::None,
                        "relabel" => frote::ModStrategy::Relabel,
                        "drop" => frote::ModStrategy::Drop,
                        other => return Err(format!("unknown mod strategy {other:?}")),
                    };
                }
                "--help" | "-h" => opts.help = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }

    /// Parses from the process arguments and applies side-effect options
    /// (currently `--threads` → [`frote_par::set_threads`]). On `--help`
    /// it prints a usage line listing every flag and exits 0; on a bad
    /// command line it prints the error and the usage line to stderr and
    /// exits 2.
    pub fn from_env() -> CliOptions {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let bin = std::path::Path::new(&bin).file_name().map(|n| n.to_string_lossy().into_owned());
        let usage = format!("usage: {} {USAGE}", bin.as_deref().unwrap_or("<bin>"));
        match CliOptions::parse(args) {
            Ok(opts) if opts.help => {
                println!("{usage}");
                std::process::exit(0);
            }
            Ok(opts) => {
                opts.apply();
                opts
            }
            Err(msg) => {
                eprintln!("error: {msg}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    /// Applies side-effect options: installs the `--threads` override into
    /// the `frote-par` resolver (the `FROTE_THREADS` env var still wins, by
    /// the resolver's documented precedence), the `--split-mode` override
    /// into the `frote-ml` split-mode default, and — when `--metrics-out`
    /// was given — turns metric recording on.
    pub fn apply(&self) {
        if let Some(n) = self.threads {
            frote_par::set_threads(n);
        }
        if let Some(mode) = self.split_mode {
            frote_ml::set_default_split_mode(mode);
        }
        if self.metrics_out.is_some() {
            frote_obs::set_metrics_enabled(true);
        }
    }

    /// End-of-run metrics surfacing, called once by each binary after its
    /// work: writes the JSON snapshot to `--metrics-out` (if given) and
    /// prints the human-readable summary table whenever recording was on —
    /// via the flag or `FROTE_METRICS=1`. A no-op when metrics are off.
    pub fn emit_metrics(&self) {
        if !frote_obs::metrics_enabled() {
            return;
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, frote_obs::snapshot_json())
                .unwrap_or_else(|e| panic!("writing metrics to {path:?}: {e}"));
            println!("metrics written to {path}");
        }
        println!("\n== metrics ==");
        print!("{}", frote_obs::summary_table());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> CliOptions {
        try_parse(args).expect("valid command line")
    }

    fn parse_err(args: &[&str]) -> String {
        try_parse(args).expect_err("invalid command line")
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.scale, Scale::Smoke);
        assert!(!o.all_datasets);
        assert_eq!(o.metrics_out, None);
    }

    #[test]
    fn full_parse() {
        let o = parse(&[
            "--scale",
            "paper",
            "--all-datasets",
            "--mod-strategy",
            "drop",
            "--json",
            "--threads",
            "8",
            "--split-mode",
            "histogram:128",
            "--metrics-out",
            "metrics.json",
        ]);
        assert_eq!(o.scale, Scale::Paper);
        assert!(o.all_datasets);
        assert_eq!(o.mod_strategy, frote::ModStrategy::Drop);
        assert!(o.json);
        assert_eq!(o.threads, Some(8));
        assert_eq!(o.split_mode, Some(frote_ml::SplitMode::Histogram { max_bins: 128 }));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.json"));
    }

    #[test]
    fn split_mode_applies_to_the_process_default() {
        // Safe to flip here: this test binary trains no models.
        assert_eq!(frote_ml::default_split_mode(), frote_ml::SplitMode::Exact);
        parse(&["--split-mode", "histogram"]).apply();
        assert_eq!(frote_ml::default_split_mode(), frote_ml::SplitMode::histogram());
        parse(&["--split-mode", "exact"]).apply();
        assert_eq!(frote_ml::default_split_mode(), frote_ml::SplitMode::Exact);
        // No flag: the default is left untouched.
        parse(&[]).apply();
        assert_eq!(frote_ml::default_split_mode(), frote_ml::SplitMode::Exact);
    }

    #[test]
    fn metrics_out_enables_recording() {
        // Safe to flip here: assertions read only the gate, not counters.
        frote_obs::clear_metrics_override();
        parse(&["--metrics-out", "/tmp/m.json"]).apply();
        assert!(frote_obs::metrics_enabled(), "--metrics-out implies recording");
        frote_obs::set_metrics_enabled(false);
        // No flag: the gate is left untouched (env resolution still wins).
        parse(&[]).apply();
        assert!(!frote_obs::metrics_enabled());
        frote_obs::clear_metrics_override();
    }

    #[test]
    fn help_is_a_flag_not_an_error() {
        assert!(!parse(&[]).help);
        assert!(parse(&["--help"]).help);
        assert!(parse(&["-h"]).help);
        assert!(parse(&["--scale", "paper", "-h"]).help);
    }

    #[test]
    fn unknown_argument_is_an_error() {
        assert_eq!(parse_err(&["--wat"]), "unknown argument \"--wat\"");
        assert_eq!(parse_err(&["--out", "x.json"]), "unknown argument \"--out\"");
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in ["--scale", "--threads", "--split-mode", "--mod-strategy", "--metrics-out"] {
            assert_eq!(parse_err(&[flag]), format!("{flag} requires a value"));
        }
    }

    #[test]
    fn unknown_scale_is_an_error() {
        assert!(parse_err(&["--scale", "galactic"]).contains("unknown scale"));
    }

    #[test]
    fn zero_threads_rejected() {
        for bad in ["0", "-1", "two", ""] {
            assert!(
                parse_err(&["--threads", bad]).contains("positive integer"),
                "--threads {bad:?} accepted"
            );
        }
    }

    #[test]
    fn bad_split_mode_rejected() {
        assert!(parse_err(&["--split-mode", "sorted"]).contains("unknown split mode"));
        assert!(parse_err(&["--mod-strategy", "erase"]).contains("unknown mod strategy"));
    }
}
