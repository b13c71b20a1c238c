//! The checker behind `ok_share`: every checked operation is counted as
//! attempted, and as failed when it errs, panics, or disagrees with a
//! reference computed on another path.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Absolute and relative tolerance of the staged/async-vs-eager checks:
/// the tolerance of the repository's eager-vs-staged equivalence suite.
pub const TOL: f64 = 1e-12;

#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// Perturb every reference before comparing, to prove that the checks
    /// can fail.
    pub corrupt: bool,
    /// The first few failure messages, for the report.
    pub notes: Vec<String>,
}

impl Checker {
    pub fn new(corrupt: bool) -> Checker {
        Checker { corrupt, ..Checker::default() }
    }

    /// Record one checked operation.
    pub fn record(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }

    /// Run `f`, turning a panic into an error, so a failed operation is
    /// counted and the run goes on.
    pub fn guard<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(p) => Err(p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}"))),
        }
    }

    /// The reference as the checker sees it (perturbed when corrupting).
    fn reference(&self, reference: &[f64]) -> Vec<f64> {
        let mut r = reference.to_vec();
        if self.corrupt {
            if let Some(first) = r.first_mut() {
                *first = if *first == 0.0 { 1.0 } else { *first * 2.0 + 1.0 };
            }
        }
        r
    }

    /// `got` within [`TOL`] of `reference`, elementwise.
    pub fn close(&self, got: &[f64], reference: &[f64]) -> Result<(), String> {
        let r = self.reference(reference);
        if got.len() != r.len() {
            return Err(format!("{} values against {} in the reference", got.len(), r.len()));
        }
        for (i, (a, b)) in got.iter().zip(&r).enumerate() {
            let within = (a - b).abs() <= TOL + TOL * b.abs();
            if !within {
                return Err(format!("value {i}: {a} against reference {b}"));
            }
        }
        Ok(())
    }

    /// `got` bit for bit equal to `reference`.
    pub fn bitwise(&self, got: &[f64], reference: &[f64]) -> Result<(), String> {
        let r = self.reference(reference);
        if got.len() != r.len() {
            return Err(format!("{} values against {} in the reference", got.len(), r.len()));
        }
        match got.iter().zip(&r).position(|(a, b)| a.to_bits() != b.to_bits()) {
            None => Ok(()),
            Some(i) => Err(format!("value {i}: {} against reference {}", got[i], r[i])),
        }
    }
}

/// Every value finite.
pub fn finite(values: &[f64]) -> Result<(), String> {
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("value {i} is {}", values[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_failures_and_panics() {
        let mut c = Checker::new(false);
        c.record("ok", Ok(()));
        c.record("bad", Err("x".into()));
        c.record("panic", Checker::guard(|| -> Result<(), String> { panic!("boom") }));
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(c.notes[1].contains("boom"));
    }

    #[test]
    fn corruption_makes_equal_values_fail() {
        let v = [0.25, -3.0];
        assert!(Checker::new(false).close(&v, &v).is_ok());
        assert!(Checker::new(false).bitwise(&v, &v).is_ok());
        assert!(Checker::new(true).close(&v, &v).is_err());
        assert!(Checker::new(true).bitwise(&v, &v).is_err());
        assert!(Checker::new(true).bitwise(&[0.0], &[0.0]).is_err());
    }

    #[test]
    fn tolerance_is_tight() {
        let c = Checker::new(false);
        assert!(c.close(&[1.0 + 1e-9], &[1.0]).is_err());
        assert!(c.close(&[f64::NAN], &[f64::NAN]).is_err());
        assert!(finite(&[1.0, f64::INFINITY]).is_err());
    }
}
