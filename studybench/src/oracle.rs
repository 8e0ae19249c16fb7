//! The correctness oracle: stored reference values and the check every
//! study's report must pass.

use weak_stabilization::core::Fairness;
use weak_stabilization::study::{Json, StudyReport};

use crate::rows::Job;

/// Expected times must match the reference to this relative tolerance
/// (absolute below 1). The solver stops on a 1e-12 update, and the
/// Gauss–Seidel answer deviates from the dense one by about 1e-11 on
/// Herman N=15, so 1e-9 leaves room for a different solver without
/// admitting a wrong answer.
pub const EXPECTED_REL_TOL: f64 = 1e-9;

/// The Monte-Carlo mean must lie within this many standard errors of the
/// exact average: a correct batch falls outside 4σ with probability
/// about 6·10⁻⁵, so a run of a few hundred checks stays clean.
pub const MC_MAX_SIGMA: f64 = 4.0;

/// The reference schema tag.
pub const REFERENCE_SCHEMA: &str = "studybench-reference/v1";

/// Reference values of one `(algorithm, daemon)` row.
#[derive(Debug, Clone, PartialEq)]
pub struct RefRow {
    /// `algorithm/daemon`.
    pub key: String,
    /// Strong closure of L.
    pub closure: bool,
    /// Weak stabilization.
    pub weak: bool,
    /// Probabilistic convergence.
    pub probabilistic: bool,
    /// Self-stabilization under each of [`Fairness::ALL`], in that order.
    pub self_stabilizing: [bool; 4],
    /// Worst-case expected steps; `None` when no finite expected time
    /// exists.
    pub worst: Option<f64>,
    /// Uniform-initial average expected steps; `None` as above.
    pub average: Option<f64>,
    /// Configurations of the unreduced full sweep.
    pub configs: u64,
    /// Edges of the unreduced full sweep.
    pub edges: u64,
}

fn num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

impl RefRow {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("key".to_string(), Json::Str(self.key.clone())),
            ("closure".to_string(), Json::Bool(self.closure)),
            ("weak".to_string(), Json::Bool(self.weak)),
            ("probabilistic".to_string(), Json::Bool(self.probabilistic)),
        ];
        for (f, holds) in Fairness::ALL.iter().zip(self.self_stabilizing) {
            members.push((format!("self.{}", f.name()), Json::Bool(holds)));
        }
        members.extend([
            ("worst".to_string(), num(self.worst)),
            ("average".to_string(), num(self.average)),
            ("configs".to_string(), Json::UInt(self.configs)),
            ("edges".to_string(), Json::UInt(self.edges)),
        ]);
        Json::Obj(members)
    }

    fn from_json(v: &Json) -> Result<RefRow, String> {
        let key = v
            .get("key")
            .and_then(Json::as_str)
            .ok_or("row without key")?;
        let field = |name: &str| v.get(name).ok_or(format!("{key}: missing {name}"));
        let flag = |name: &str| {
            field(name)?
                .as_bool()
                .ok_or(format!("{key}: {name} is not a bool"))
        };
        let opt_num = |name: &str| -> Result<Option<f64>, String> {
            let x = field(name)?;
            if x.is_null() {
                Ok(None)
            } else {
                x.as_f64()
                    .map(Some)
                    .ok_or(format!("{key}: {name} is not a number"))
            }
        };
        let count = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or(format!("{key}: {name} is not a count"))
        };
        let mut self_stabilizing = [false; 4];
        for (slot, f) in self_stabilizing.iter_mut().zip(Fairness::ALL) {
            *slot = flag(&format!("self.{}", f.name()))?;
        }
        Ok(RefRow {
            key: key.to_string(),
            closure: flag("closure")?,
            weak: flag("weak")?,
            probabilistic: flag("probabilistic")?,
            self_stabilizing,
            worst: opt_num("worst")?,
            average: opt_num("average")?,
            configs: count("configs")?,
            edges: count("edges")?,
        })
    }

    /// Checks one study's report against this row, as requested by
    /// `job`; the error names the first disagreement.
    ///
    /// # Errors
    ///
    /// A requested stage degraded or missing, a verdict bit flipped, an
    /// expected time outside [`EXPECTED_REL_TOL`] (or finite where none
    /// exists), a Monte-Carlo mean more than [`MC_MAX_SIGMA`] standard
    /// errors from the exact average (or any unconverged run), or — for a
    /// forced full sweep — a configuration or edge count that differs.
    pub fn check(&self, report: &StudyReport, job: &Job) -> Result<(), String> {
        let key = &self.key;
        if report.status.any_degraded() {
            return Err(format!("{key}: degraded stage in {:?}", report.status));
        }
        let space = report.space.as_ref().ok_or(format!("{key}: no space"))?;
        if job.full_disk && (space.configs, space.edges) != (self.configs, self.edges) {
            return Err(format!(
                "{key}: explored {} configs / {} edges, reference {} / {}",
                space.configs, space.edges, self.configs, self.edges
            ));
        }
        let v = report
            .verdicts
            .as_ref()
            .ok_or(format!("{key}: no verdicts"))?;
        let mut bits = vec![
            ("closure", v.closure.holds, self.closure),
            ("weak", v.weak.holds, self.weak),
            ("probabilistic", v.probabilistic.holds, self.probabilistic),
        ];
        for (f, want) in Fairness::ALL.into_iter().zip(self.self_stabilizing) {
            let got = v
                .self_under(f)
                .ok_or(format!("{key}: no {} verdict", f.name()))?;
            bits.push((f.name(), got.holds, want));
        }
        if let Some((name, got, want)) = bits.into_iter().find(|(_, got, want)| got != want) {
            return Err(format!("{key}: verdict {name} = {got}, reference {want}"));
        }
        if job.expected {
            let section = report
                .expected_times
                .as_ref()
                .ok_or(format!("{key}: no expected times"))?;
            match (section.solved(), self.worst.zip(self.average)) {
                (Some(t), Some((worst, average))) => {
                    for (name, got, want) in [
                        ("worst", t.worst_case, worst),
                        ("average", t.average, average),
                    ] {
                        if (got - want).abs() > EXPECTED_REL_TOL * want.abs().max(1.0) {
                            return Err(format!("{key}: {name} time {got}, reference {want}"));
                        }
                    }
                }
                (None, None) => {}
                (got, _) => {
                    return Err(format!(
                        "{key}: expected time finite = {}, reference finite = {}",
                        got.is_some(),
                        self.average.is_some()
                    ))
                }
            }
        }
        if job.mc.is_some() {
            let mc = report
                .monte_carlo
                .as_ref()
                .ok_or(format!("{key}: no Monte-Carlo section"))?;
            let exact = self
                .average
                .ok_or(format!("{key}: Monte-Carlo on a row without a finite time"))?;
            if mc.failures > 0 {
                return Err(format!(
                    "{key}: {} Monte-Carlo runs unconverged",
                    mc.failures
                ));
            }
            let gap = (mc.steps.mean - exact).abs();
            if gap > MC_MAX_SIGMA * mc.steps.std_err {
                return Err(format!(
                    "{key}: Monte-Carlo mean {} is {:.1} std-err from exact {exact}",
                    mc.steps.mean,
                    gap / mc.steps.std_err
                ));
            }
        }
        Ok(())
    }
}

/// Renders the reference file.
pub fn render(rows: &[RefRow]) -> String {
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str(REFERENCE_SCHEMA.to_string()),
        ),
        (
            "rows".to_string(),
            Json::Arr(rows.iter().map(RefRow::to_json).collect()),
        ),
    ])
    .render()
}

/// Parses the reference file.
///
/// # Errors
///
/// Malformed JSON, a wrong schema tag, or a malformed row.
pub fn parse(text: &str) -> Result<Vec<RefRow>, String> {
    let doc = Json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(REFERENCE_SCHEMA) {
        return Err(format!("reference schema is not {REFERENCE_SCHEMA}"));
    }
    doc.get("rows")
        .and_then(Json::as_arr)
        .ok_or("reference without rows")?
        .iter()
        .map(RefRow::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use weak_stabilization::algorithms::HermanRing;
    use weak_stabilization::core::Daemon;
    use weak_stabilization::graph::builders;
    use weak_stabilization::study::ExpectedSection;

    use crate::rows::{Inst, Instance};

    fn herman5() -> Inst<HermanRing, impl weak_stabilization::core::Legitimacy<bool>> {
        let alg = HermanRing::on_ring(&builders::ring(5)).expect("ring");
        let spec = alg.legitimacy();
        Inst { alg, spec }
    }

    fn job() -> Job {
        Job {
            daemon: Daemon::Synchronous,
            expected: true,
            chain_only: false,
            full_disk: false,
            mc: None,
        }
    }

    #[test]
    fn reference_round_trips_and_accepts_a_matching_study() {
        let inst = herman5();
        let row = inst.reference(Daemon::Synchronous).expect("reference");
        assert_eq!(
            parse(&render(std::slice::from_ref(&row))),
            Ok(vec![row.clone()])
        );
        let report = inst.study(&job()).expect("study");
        assert_eq!(row.check(&report, &job()), Ok(()));
    }

    #[test]
    fn perturbed_expected_time_is_rejected() {
        let inst = herman5();
        let row = inst.reference(Daemon::Synchronous).expect("reference");
        let mut report = inst.study(&job()).expect("study");
        match report.expected_times.as_mut() {
            Some(ExpectedSection::Solved(t)) => t.average *= 1.0 + 1e-6,
            other => panic!("herman is solvable, got {other:?}"),
        }
        let err = row.check(&report, &job()).unwrap_err();
        assert!(err.contains("average time"), "{err}");
    }

    #[test]
    fn flipped_verdict_is_rejected() {
        let inst = herman5();
        let mut row = inst.reference(Daemon::Synchronous).expect("reference");
        let report = inst.study(&job()).expect("study");
        row.self_stabilizing[2] = !row.self_stabilizing[2];
        let err = row.check(&report, &job()).unwrap_err();
        assert!(err.contains("verdict strongly-fair"), "{err}");
    }

    #[test]
    fn forced_full_sweep_pins_the_counts() {
        let inst = herman5();
        let mut row = inst.reference(Daemon::Synchronous).expect("reference");
        let full = Job {
            full_disk: true,
            ..job()
        };
        let report = inst.study(&full).expect("study");
        assert_eq!(row.check(&report, &full), Ok(()));
        row.edges += 1;
        assert!(row.check(&report, &full).unwrap_err().contains("edges"));
    }
}
