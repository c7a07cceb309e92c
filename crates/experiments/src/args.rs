//! Tiny command-line parsing shared by the experiment binaries.
//!
//! Hand-rolled (the sanctioned dependency list has no argument parser);
//! supports exactly the flags the binaries document:
//! `--quick`, `--trials N`, `--seed S`, `--out DIR`, `--threads T`,
//! `--help`.

use std::path::PathBuf;

/// Flags common to every experiment binary.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonArgs {
    /// Reduced corpus for CI / smoke runs.
    pub quick: bool,
    /// Override the per-configuration trial count.
    pub trials: Option<usize>,
    /// Base seed for corpus generation and algorithm runs.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Engine shards (0 = the default single shard).
    pub threads: usize,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            quick: false,
            trials: None,
            seed: 2012, // the paper's publication year, for the record
            out: PathBuf::from("results"),
            threads: 0,
        }
    }
}

impl CommonArgs {
    /// Parse from an iterator of arguments (no program name). Returns
    /// `Err(usage)` on `--help` or malformed input.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
        let mut out = CommonArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--trials" => {
                    let v = it.next().ok_or("--trials needs a value")?;
                    out.trials = Some(v.parse().map_err(|_| format!("bad --trials value '{v}'"))?);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|_| format!("bad --seed value '{v}'"))?;
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a value")?;
                    out.out = PathBuf::from(v);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    out.threads = v.parse().map_err(|_| format!("bad --threads value '{v}'"))?;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
            }
        }
        Ok(out)
    }

    /// Parse from the process arguments; print usage and exit on error.
    pub fn from_env() -> CommonArgs {
        match CommonArgs::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Trial count for a configuration: explicit `--trials`, else
    /// `full` (or `full/10`, at least 3, under `--quick`).
    pub fn trials_or(&self, full: usize) -> usize {
        if let Some(t) = self.trials {
            return t;
        }
        if self.quick {
            (full / 10).max(3)
        } else {
            full
        }
    }

    /// The engine implied by `--threads`.
    pub fn engine(&self) -> dima_core::Engine {
        if self.threads == 0 {
            dima_core::Engine::Sequential
        } else {
            dima_core::Engine::Parallel { threads: self.threads }
        }
    }
}

/// Usage text shared by all binaries.
pub const USAGE: &str = "flags: [--quick] [--trials N] [--seed S] [--out DIR] [--threads T]";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert!(!a.quick);
        assert_eq!(a.seed, 2012);
        assert_eq!(a.out, PathBuf::from("results"));
        assert_eq!(a.engine(), dima_core::Engine::Sequential);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--quick",
            "--trials",
            "7",
            "--seed",
            "9",
            "--out",
            "/tmp/x",
            "--threads",
            "4",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.trials, Some(7));
        assert_eq!(a.seed, 9);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.engine(), dima_core::Engine::Parallel { threads: 4 });
    }

    #[test]
    fn errors() {
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "x"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn trials_or_scales_quick() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.trials_or(50), 5);
        assert_eq!(a.trials_or(10), 3); // floor at 3
        let a = parse(&["--trials", "2"]).unwrap();
        assert_eq!(a.trials_or(50), 2);
        let a = parse(&[]).unwrap();
        assert_eq!(a.trials_or(50), 50);
    }
}
