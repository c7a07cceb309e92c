//! Failure accounting and the exact-count gate.
//!
//! Every operation runs under `catch_unwind`: a panic counts as a
//! failed operation and ends the session it belongs to; a failed
//! correctness gate counts as a failed operation too. Deterministic
//! counts must repeat exactly across the operations of one seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why an operation did not produce a result.
#[derive(Debug, PartialEq, Eq)]
pub enum Failed {
    /// The operation returned an error or failed a correctness gate;
    /// the session may go on.
    Gate,
    /// The operation panicked; the session must end.
    Panic,
}

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Run one operation. `f` returns `Err(message)` when the program
    /// reports an error or an output fails a check.
    pub fn op<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, Failed> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(msg)) => {
                self.failed += 1;
                eprintln!("error: {what} #{}: {msg}", self.attempted);
                Err(Failed::Gate)
            }
            Err(payload) => {
                self.failed += 1;
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                eprintln!("error: {what} #{} panicked: {msg} (session ended)", self.attempted);
                Err(Failed::Panic)
            }
        }
    }
}

/// Deterministic counts of one operation, by name, for each input
/// variant of a run. The first operation on a variant sets the expected
/// values; every later one on it must match them exactly.
#[derive(Default)]
pub struct ExactCounts {
    first: std::collections::BTreeMap<u64, Vec<(&'static str, u64)>>,
}

impl ExactCounts {
    pub fn check(&mut self, variant: u64, counts: Vec<(&'static str, u64)>) -> Result<(), String> {
        match self.first.get(&variant) {
            None => {
                self.first.insert(variant, counts);
                Ok(())
            }
            Some(first) if *first == counts => Ok(()),
            Some(first) => {
                let diffs: Vec<String> = first
                    .iter()
                    .zip(&counts)
                    .filter(|(a, b)| a != b)
                    .map(|((name, a), (_, b))| format!("{name}: {a} then {b}"))
                    .collect();
                Err(format!("deterministic counts differ within one seed: {}", diffs.join(", ")))
            }
        }
    }
}

/// `Err(message)` unless `ok`.
pub fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic session whose third operation panics: the panic is
    /// counted as a failed operation and ends the session.
    #[test]
    fn panicking_operation_is_counted_and_ends_the_session() {
        let mut tally = Tally::default();
        let mut done = 0;
        for i in 0..5 {
            let r = tally.op("synthetic", || {
                if i == 2 {
                    panic!("synthetic failure in operation {i}");
                }
                Ok(i)
            });
            match r {
                Ok(_) => done += 1,
                Err(Failed::Panic) => break,
                Err(Failed::Gate) => {}
            }
        }
        assert_eq!((tally.attempted, tally.failed, done), (3, 1, 2));
    }

    #[test]
    fn gate_failure_counts_but_does_not_end_the_session() {
        let mut tally = Tally::default();
        assert_eq!(tally.op("gate", || Err::<(), _>("bad".into())), Err(Failed::Gate));
        assert_eq!(tally.op("ok", || Ok(1)), Ok(1));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn exact_counts_fail_loudly_on_any_difference() {
        let mut c = ExactCounts::default();
        assert!(c.check(0, vec![("rounds", 3), ("colors", 7)]).is_ok());
        assert!(c.check(1, vec![("rounds", 4), ("colors", 7)]).is_ok());
        assert!(c.check(0, vec![("rounds", 3), ("colors", 7)]).is_ok());
        let err = c.check(0, vec![("rounds", 3), ("colors", 8)]).unwrap_err();
        assert!(err.contains("colors: 7 then 8"), "{err}");
    }
}
