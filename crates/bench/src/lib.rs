//! Experiment harness regenerating every table and figure of the MUST
//! paper's evaluation (Section VIII + appendices).
//!
//! One `experiments` binary, one table: `src/bin/experiments.rs` lists the
//! 21 experiments by name and paper reference and runs the ones asked for
//! (all of them by default).  The experiments themselves are the plain
//! functions of [`experiments`] — each takes the scale and *returns* its
//! [`report::Artefact`]s — over the shared machinery here: scaled dataset
//! construction, framework runners (JE / MR / MUST), QPS–recall sweeps,
//! and table/series reporting with JSON artefacts under
//! `EXPERIMENTS-out/`.  `src/bin/serving.rs` holds the serving sweeps the
//! repo benchmark does not take yet.
//!
//! Scale: dataset sizes default to the values in `must-data::catalog`
//! (reduced from the paper's cardinalities per DESIGN.md §1) and are
//! multiplied by the `MUST_SCALE` environment variable when set.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the crate DAG
//! and a one-paragraph tour of every crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod efficiency;
pub mod experiments;
pub mod report;

use must_data::LatentDataset;
use must_encoders::{EncoderRegistry, LatentSpace};

/// Parses the value `raw` of environment variable `name` as a number that
/// passes `valid`.
fn parse_number<T: std::str::FromStr>(
    name: &str,
    raw: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    raw.parse().ok().filter(valid).ok_or_else(|| format!("{name}={raw:?} is not a valid value"))
}

/// Reads environment variable `name` as a number that passes `valid`;
/// `None` when it is unset.
///
/// # Errors
/// The variable is set to anything else: a typo must not silently become
/// the default (full-size) run.
pub fn env_number<T: std::str::FromStr>(
    name: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    std::env::var_os(name)
        .map(|raw| parse_number(name, &raw.to_string_lossy(), valid))
        .transpose()
}

/// A valid `MUST_SCALE`: a finite factor above zero.
fn valid_scale(scale: &f64) -> bool {
    scale.is_finite() && *scale > 0.0
}

/// Global scale multiplier (`MUST_SCALE`, default 1.0).
///
/// # Errors
/// `MUST_SCALE` is set to something other than a finite number above zero.
pub fn scale() -> Result<f64, String> {
    Ok(env_number("MUST_SCALE", valid_scale)?.unwrap_or(1.0))
}

/// Artefact output directory (`MUST_OUT_DIR`, default `EXPERIMENTS-out/`;
/// created on demand).
///
/// # Errors
/// The directory cannot be created.
pub fn out_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("MUST_OUT_DIR").unwrap_or_else(|_| "EXPERIMENTS-out".into());
    let path = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&path)?;
    Ok(path)
}

/// The shared dataset seed for all experiments (reproducibility).
pub const DATASET_SEED: u64 = 20_240_312;

/// A fresh encoder registry bound to the experiment seed.
#[must_use]
pub fn registry() -> EncoderRegistry {
    EncoderRegistry::new(LatentSpace::DEFAULT, DATASET_SEED)
}

/// Prints the dataset stats banner (the Tab. II analogue for this run).
pub fn banner(ds: &LatentDataset) {
    eprintln!("[dataset] {}", ds.stats_row());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_malformed_scale_is_an_error_not_the_default() {
        for raw in ["", "abc", "0", "-1", "NaN", "0,5", "inf"] {
            let err = parse_number("MUST_SCALE", raw, valid_scale).unwrap_err();
            assert!(err.contains("MUST_SCALE") && err.contains(raw), "{err}");
        }
        assert_eq!(parse_number("MUST_SCALE", "0.02", valid_scale), Ok(0.02));
        assert_eq!(parse_number("MUST_SCALE_N", "65536", |_: &usize| true), Ok(65_536));
        assert!(parse_number("MUST_SCALE_N", "64k", |_: &usize| true).is_err());
    }
}
