//! Output checks and operation accounting.
//!
//! Every timed operation is checked before its time counts: a run whose
//! simulated outputs fail a check is a failed operation, and its wall
//! time is dropped.

use crate::adapter::Outcome;

/// Conservation and sanity checks on one outcome:
/// `completed + rejected + dropped == offered` (for the executors
/// `dropped` is 0, for the federation it counts abandoned invocations),
/// the program offered exactly what the benchmark generated, and every
/// completion has a latency sample.
pub fn check(o: &Outcome) -> Result<(), String> {
    if o.offered != o.generated {
        return Err(format!(
            "offered {} != generated {}",
            o.offered, o.generated
        ));
    }
    if o.completed + o.rejected + o.dropped != o.offered {
        return Err(format!(
            "conservation: completed {} + rejected {} + dropped {} != offered {}",
            o.completed, o.rejected, o.dropped, o.offered
        ));
    }
    if o.completed == 0 || o.samples != o.completed {
        return Err(format!(
            "{} latency samples for {} completions",
            o.samples, o.completed
        ));
    }
    if !(o.p50_s > 0.0 && o.p50_s <= o.p99_s && o.sim_end_s > 0.0) {
        return Err(format!(
            "latency quantiles out of order: p50 {} p99 {} end {}",
            o.p50_s, o.p99_s, o.sim_end_s
        ));
    }
    Ok(())
}

/// `o` must equal `expected` exactly, digest included: the pinned
/// one-shard reference, or an earlier run of the same inputs.
pub fn check_same(o: &Outcome, expected: &Outcome, what: &str) -> Result<(), String> {
    if o == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: outcome differs (digest {:016x} vs {:016x})",
            o.digest, expected.digest
        ))
    }
}

/// Attempted and failed operations, and the wall times of the ones that
/// passed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub walls_s: Vec<f64>,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; keep its wall time (if it was timed) only if
    /// it passed.
    pub fn record(&mut self, verdict: Result<(), String>, wall_s: Option<f64>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => {
                self.walls_s.extend(wall_s);
                true
            }
            Err(e) => {
                self.failed += 1;
                self.failures.push(e);
                false
            }
        }
    }
}

/// Feed deliberately corrupted copies of `good` through the same check
/// and accounting a timed operation uses: one with `completed` off by
/// one, one whose outputs differ from the reference. Both must count as
/// failed operations whose time is dropped; `good` itself must pass.
pub fn self_test(good: &Outcome, reference: &Outcome) -> Result<Tally, String> {
    let verdict = |o: &Outcome| check(o).and_then(|()| check_same(o, reference, "reference"));
    let mut off_by_one = good.clone();
    off_by_one.completed += 1;
    let mut diverged = good.clone();
    diverged.digest ^= 1;
    let mut tally = Tally::default();
    tally.record(verdict(good), Some(1.0));
    tally.record(verdict(&off_by_one), Some(2.0));
    tally.record(verdict(&diverged), Some(3.0));
    if tally.attempted == 3 && tally.failed == 2 && tally.walls_s == [1.0] {
        Ok(tally)
    } else {
        Err(format!(
            "self-test: checks did not reject corrupted reports: {tally:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            generated: 100,
            offered: 100,
            completed: 90,
            rejected: 10,
            dropped: 0,
            p50_s: 0.1,
            p99_s: 0.5,
            samples: 90,
            sim_end_s: 10.0,
            digest: 0xABCD,
        }
    }

    #[test]
    fn corrupted_reports_are_failed_operations() {
        let good = outcome();
        let tally = self_test(&good, &good).expect("self-test");
        assert_eq!(tally.failures.len(), 2);
    }

    #[test]
    fn conservation_violations_fail() {
        let mut o = outcome();
        o.rejected = 9;
        assert!(check(&o).is_err());
        let mut o = outcome();
        o.generated = 101;
        assert!(check(&o).is_err());
        let mut o = outcome();
        o.p99_s = 0.05;
        assert!(check(&o).is_err());
        assert!(check(&outcome()).is_ok());
    }
}
