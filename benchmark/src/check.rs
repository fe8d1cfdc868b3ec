//! The correctness gate. Every answer is checked outside the timed
//! calls; a job that fails its check counts in `failed`.

use gmm_api::{ApiError, MapReport, Termination};
use gmm_core::validate_detailed;
use gmm_service::{JobState, RemoteOutcome};
use gmm_sim::validate_payload;
use gmm_workloads::StreamInstance;

use crate::inputs::{Reference, Rng};

/// One in this many TCP answers is also replayed through the simulator.
pub const REPLAY_EVERY: usize = 32;

/// Damage one digit of a payload: the self-test of the byte comparison.
pub fn corrupt(payload: &mut String) {
    let at = payload
        .find(|c: char| c.is_ascii_digit())
        .expect("a payload has digits");
    let flipped = if &payload[at..at + 1] == "1" {
        "2"
    } else {
        "1"
    };
    payload.replace_range(at..at + 1, flipped);
}

pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub replayed: u64,
    first_error: Option<String>,
    sample: Rng,
}

impl Gate {
    pub fn new(seed: u64) -> Gate {
        Gate {
            attempted: 0,
            failed: 0,
            replayed: 0,
            first_error: None,
            sample: Rng::new(seed ^ 0xc4ec),
        }
    }

    pub fn first_error(&self) -> Option<&str> {
        self.first_error.as_deref()
    }

    fn judge(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// An in-process solve must end `Optimal` with a detailed mapping
    /// that `validate_detailed` accepts. `tamper` damages the mapping
    /// first (the self-test of this gate).
    pub fn solve(
        &mut self,
        inst: &StreamInstance,
        report: Result<MapReport, ApiError>,
        tamper: bool,
    ) {
        let verdict = (|| {
            let report = report.map_err(|e| format!("{}: execute failed: {e}", inst.name))?;
            if report.termination != Termination::Optimal {
                return Err(format!("{}: ended {}", inst.name, report.termination));
            }
            let mut detailed = report
                .outcome
                .ok_or(format!("{}: no outcome", inst.name))?
                .detailed;
            if tamper {
                detailed.fragments.pop();
            }
            let violations = validate_detailed(&inst.design, &inst.board, &detailed);
            match violations.first() {
                None => Ok(()),
                Some(v) => Err(format!("{}: invalid mapping: {v:?}", inst.name)),
            }
        })();
        self.judge(verdict);
    }

    /// A TCP answer must be `done` and its payload byte-identical to the
    /// in-process reference for its key; a seeded sample is also
    /// replayed through `sim::replay::validate_payload`.
    pub fn remote(&mut self, inst: &StreamInstance, reference: &Reference, out: &RemoteOutcome) {
        let replay = self.sample.below(REPLAY_EVERY) == 0;
        let verdict = (|| {
            if out.state != JobState::Done {
                return Err(format!(
                    "{}: job {} ended {}",
                    inst.name,
                    out.job,
                    out.state.as_str()
                ));
            }
            let solution = out
                .solution
                .as_ref()
                .ok_or(format!("{}: done without a payload", inst.name))?;
            let payload =
                serde_json::to_string(solution).map_err(|e| format!("render payload: {e}"))?;
            if payload != reference.payload {
                return Err(format!(
                    "{}: payload for key {} differs from the in-process reference",
                    inst.name, reference.key_hex
                ));
            }
            if replay {
                let detailed = solution
                    .get("detailed")
                    .ok_or("payload without `detailed`")?;
                let detailed =
                    serde_json::to_string(detailed).map_err(|e| format!("render mapping: {e}"))?;
                validate_payload(&inst.design, &inst.board, &detailed)
                    .map_err(|e| format!("{}: replay failed: {e:?}", inst.name))?;
            }
            Ok(())
        })();
        if replay {
            self.replayed += 1;
        }
        self.judge(verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{pool, reference, Workload};

    fn remote_outcome(payload: &str) -> RemoteOutcome {
        RemoteOutcome {
            job: 1,
            state: JobState::Done,
            cached: true,
            objective: None,
            solution: Some(serde_json::from_str(payload).expect("payload parses")),
            error: None,
            termination: Some(Termination::Optimal),
        }
    }

    #[test]
    fn byte_identical_payloads_pass_and_a_corrupted_one_fails() {
        let inst = pool(Workload::ServiceHot, 7).remove(0);
        let mut r = reference(&inst, Workload::ServiceHot).expect("reference solves");
        let good = remote_outcome(&r.payload);
        let mut gate = Gate::new(1);
        for _ in 0..REPLAY_EVERY * 2 {
            gate.remote(&inst, &r, &good);
        }
        assert_eq!(gate.failed, 0, "{:?}", gate.first_error());
        assert!(gate.replayed > 0, "the replay sample never fired");

        corrupt(&mut r.payload);
        gate.remote(&inst, &r, &good);
        assert_eq!(gate.failed, 1);
    }

    #[test]
    fn a_tampered_mapping_fails_the_solve_check() {
        let inst = pool(Workload::ServiceHot, 3).remove(0);
        let mut gate = Gate::new(1);
        gate.solve(
            &inst,
            crate::inputs::request(&inst, Workload::Solve.mode()).execute(),
            false,
        );
        assert_eq!(gate.failed, 0, "{:?}", gate.first_error());
        gate.solve(
            &inst,
            crate::inputs::request(&inst, Workload::Solve.mode()).execute(),
            true,
        );
        assert_eq!(gate.failed, 1);
    }
}
