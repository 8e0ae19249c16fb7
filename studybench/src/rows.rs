//! The studied instances, the untraced `Study::run()` call, the traced
//! pipeline that mirrors it layer by layer, and the reference generator.

use weak_stabilization::checker::{analyze_space, analyze_space_budgeted, ExploredSpace, Verdict};
use weak_stabilization::core::engine::{
    Budget, EdgeStoreKind, ExploreOptions, FaultPlan, Plan, PlanRequest, Quotient, RunGuard,
    TransitionSystem,
};
use weak_stabilization::core::{
    Algorithm, CoreError, Daemon, DaemonSpec, Fairness, FairnessSet, Legitimacy, SpaceIndexer,
};
use weak_stabilization::markov::{linalg, AbsorbingChain};
use weak_stabilization::sim::montecarlo::{estimate, BatchSettings};
use weak_stabilization::study::{
    EstimateRecord, ExpectedSection, ExpectedTimes, FairnessVerdict, McConfig, McSection, Study,
    StudyReport, VerdictRecord, VerdictsSection, DEFAULT_CAP,
};

use crate::oracle::RefRow;
use crate::stats::residual_inf;
use crate::trace::Tracer;

/// Full spaces up to this size get their reference from an unreduced
/// exploration and a dense solve of the whole chain; larger ones (Herman
/// N=15) from the dihedral quotient chain, whose averages are
/// orbit-weighted and therefore equal the full-space values.
const DENSE_FULL_LIMIT: u64 = 4096;

/// What one study is asked to do. Every study requests all verdicts.
#[derive(Debug, Clone)]
pub struct Job {
    /// The scheduler.
    pub daemon: Daemon,
    /// `Study::expected_times()`.
    pub expected: bool,
    /// `Study::chain_build()` (Q extraction without a solve).
    pub chain_only: bool,
    /// Forces an unreduced full sweep on the disk tier through
    /// `Study::options` instead of the planner's choice.
    pub full_disk: bool,
    /// `Study::monte_carlo(..)`.
    pub mc: Option<McConfig>,
}

impl Job {
    fn forced_options<S>(&self) -> Option<ExploreOptions<S>> {
        self.full_disk
            .then(|| ExploreOptions::full().with_edge_store(EdgeStoreKind::Disk))
    }
}

/// The parts of a study's output that the oracle checks and that the
/// traced pipeline must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Explored configurations (orbit representatives on a quotient).
    pub configs: u64,
    /// Explored edges.
    pub edges: u64,
    /// The checker's verdicts.
    pub verdicts: Option<VerdictsSection>,
    /// The solved (or unsolvable) expected times.
    pub expected: Option<ExpectedSection>,
    /// The Monte-Carlo batch.
    pub mc: Option<McSection>,
}

impl Observed {
    /// Extracts the compared parts of a report; `None` when exploration
    /// produced no space.
    pub fn of(report: &StudyReport) -> Option<Observed> {
        let space = report.space.as_ref()?;
        Some(Observed {
            configs: space.configs,
            edges: space.edges,
            verdicts: report.verdicts.clone(),
            expected: report.expected_times.clone(),
            mc: report.monte_carlo.clone(),
        })
    }
}

/// Per-layer counters recorded at the span boundaries of one traced
/// study (zero for a layer the study skips).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// The planner's unreduced full-sweep edge estimate.
    pub est_full_edges: u64,
    /// Explored configurations.
    pub configs: u64,
    /// Explored edges.
    pub edges: u64,
    /// Bytes of the forward edge store.
    pub edge_bytes: u64,
    /// Bytes spilled to chunk files (disk tier).
    pub spilled_bytes: u64,
    /// High-water mark of resident edge-store bytes.
    pub peak_resident_bytes: u64,
    /// Budget probes taken by the exploration.
    pub explore_probes: u64,
    /// Transient states of the chain.
    pub n_transient: u64,
    /// Stored `Q` entries.
    pub q_entries: u64,
    /// Bytes of the `Q` store.
    pub q_bytes: u64,
    /// Probes of a fresh budget during the expected-time solve.
    pub expected_sweeps: u64,
    /// Probes of a fresh budget during the absorption solve.
    pub absorption_sweeps: u64,
    /// `‖(I − Q)t − 1‖∞` of the solved times.
    pub residual_inf: f64,
    /// Monte-Carlo runs.
    pub mc_runs: u64,
    /// Simulated steps over all converged runs.
    pub mc_steps: f64,
}

/// One traced study: its compared output and its layer counters.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Must equal the untraced report's [`Observed`].
    pub observed: Observed,
    /// Counters recorded at the layer boundaries.
    pub counts: Counts,
}

/// An algorithm with its legitimacy specification, studied under the
/// workloads' jobs. Object-safe so instances of different state types
/// share one row list.
pub trait Instance: Sync {
    /// `Algorithm::name()`.
    fn label(&self) -> String;
    /// One untraced `Study::run()`.
    fn study(&self, job: &Job) -> Result<StudyReport, CoreError>;
    /// The layer-by-layer pipeline, one span per layer call (inside the
    /// caller's open study span).
    fn traced(&self, job: &Job, tr: &mut Tracer) -> Result<Traced, String>;
    /// Reference values by independent means: an unreduced (or, above
    /// [`DENSE_FULL_LIMIT`], dihedral-quotient) exploration on the
    /// flat/compressed tier and a dense solve.
    fn reference(&self, daemon: Daemon) -> Result<RefRow, String>;
}

/// The concrete [`Instance`].
pub struct Inst<A, L> {
    /// The algorithm.
    pub alg: A,
    /// Its legitimacy predicate.
    pub spec: L,
}

fn record(verdict: &Verdict) -> VerdictRecord {
    VerdictRecord {
        holds: verdict.holds(),
        witness: verdict.witness().map(|w| w.to_string()),
    }
}

fn settings(config: &McConfig) -> BatchSettings {
    BatchSettings {
        runs: config.runs,
        max_steps: config.max_steps,
        seed: config.seed,
        threads: config.threads,
    }
}

impl<A, L> Instance for Inst<A, L>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    fn label(&self) -> String {
        self.alg.name()
    }

    fn study(&self, job: &Job) -> Result<StudyReport, CoreError> {
        let mut study = Study::of(&self.alg)
            .daemon(job.daemon)
            .spec(&self.spec)
            .verdicts(FairnessSet::ALL);
        if job.expected {
            study = study.expected_times();
        }
        if job.chain_only {
            study = study.chain_build();
        }
        if let Some(options) = job.forced_options() {
            study = study.options(options);
        }
        if let Some(mc) = &job.mc {
            study = study.monte_carlo(mc.clone());
        }
        std::hint::black_box(study.run())
    }

    /// `Study::run()`'s stages in its order, calling each layer's public
    /// function directly (with `plan.options()` unless the job forces
    /// options) and wrapping every stage slot in a span — a slot the job
    /// does not request records the near-zero time of skipping it.
    fn traced(&self, job: &Job, tr: &mut Tracer) -> Result<Traced, String> {
        let (alg, spec) = (&self.alg, &self.spec);
        let daemon = DaemonSpec::from(job.daemon);
        let err = |e: CoreError| e.to_string();
        let ix = SpaceIndexer::new(alg, DEFAULT_CAP).map_err(err)?;

        let forced = job.forced_options::<A::State>();
        let req = match &forced {
            None => PlanRequest::default(),
            Some(o) => PlanRequest::default()
                .with_quotient(o.quotient)
                .with_edge_store(o.edge_store),
        };
        let plan = tr
            .span("plan", || Plan::compute(alg, &ix, daemon, spec, &req))
            .map_err(err)?;
        let opts = forced.unwrap_or_else(|| plan.options());

        // Unlimited budgets throughout: a limited one would route the
        // exploration through the sequential path.
        let guard = RunGuard::new(Budget::unlimited(), FaultPlan::none());
        let ts = tr
            .span("explore", || {
                TransitionSystem::explore_guarded(alg, &ix, daemon, spec, &opts, &guard)
            })
            .map_err(err)?;
        let mut counts = Counts {
            est_full_edges: plan.est_full_edges,
            configs: u64::from(ts.n_configs()),
            edges: ts.n_edges(),
            edge_bytes: ts.edge_bytes(),
            spilled_bytes: ts.spilled_edge_bytes(),
            peak_resident_bytes: ts.peak_resident_edge_bytes(),
            explore_probes: guard.budget().probes_seen(),
            ..Counts::default()
        };

        let chain = tr.span("chain", || {
            (job.expected || job.chain_only)
                .then(|| AbsorbingChain::from_transition_system(ix.clone(), daemon, &ts))
        });
        if let Some(c) = &chain {
            counts.n_transient = c.n_transient() as u64;
            counts.q_entries = c.q().n_entries();
            counts.q_bytes = c.q().q_bytes();
        }

        // The checker's backward closure builds (and caches) the reverse
        // CSR on the in-RAM tiers; building it first times it apart from
        // the analyses. The disk tier streams fixpoint sweeps instead and
        // never builds it, so there the span covers only the tier check.
        tr.span("verdicts.reverse", || {
            if ts.edge_store_kind() == EdgeStoreKind::Disk {
                Ok(())
            } else {
                ts.reverse_budgeted(guard.budget()).map(|_| ())
            }
        })
        .map_err(err)?;
        let space = ExploredSpace::from_transition_system(ix, daemon, ts);
        let report = tr
            .span("verdicts.analyze", || {
                analyze_space_budgeted(&space, alg.name(), spec.name(), guard.budget())
            })
            .map_err(err)?;
        let verdicts = VerdictsSection {
            closure: record(&report.closure),
            weak: record(&report.weak),
            probabilistic: record(&report.probabilistic),
            self_stabilizing: FairnessSet::ALL
                .iter()
                .map(|f| FairnessVerdict {
                    fairness: f.name().to_string(),
                    verdict: record(report.self_under(f)),
                })
                .collect(),
        };

        let solve = chain.as_ref().filter(|_| job.expected);
        let absorbs = tr.span("solve.absorbing", || {
            solve.map(|c| c.almost_surely_absorbing().is_ok())
        });
        let expected_budget = Budget::unlimited();
        let times = tr.span("solve.expected", || {
            solve.map(|c| c.expected_steps_with(&expected_budget))
        });
        let absorption_budget = Budget::unlimited();
        let probs = tr.span("solve.absorption", || {
            solve.map(|c| c.absorption_probabilities_with(&absorption_budget))
        });
        counts.expected_sweeps = expected_budget.probes_seen();
        counts.absorption_sweeps = absorption_budget.probes_seen();
        let expected = match (solve, times, probs) {
            (Some(c), Some(Ok(times)), Some(Ok(probs))) => {
                counts.residual_inf = residual_inf(c.q(), times.as_slice());
                Some(ExpectedSection::Solved(ExpectedTimes {
                    n_transient: c.n_transient() as u64,
                    worst_case: times.worst_case(),
                    average: times.average_weighted(c.transient_orbits(), c.represented_configs()),
                    min_absorption: probs.into_iter().fold(1.0f64, f64::min),
                    cdf: None,
                }))
            }
            (_, Some(Err(e)), _) | (_, _, Some(Err(e))) => Some(ExpectedSection::Unsolvable {
                error: e.to_string(),
            }),
            _ => None,
        };
        if absorbs.is_some() && absorbs != expected.as_ref().map(|e| e.solved().is_some()) {
            return Err("absorption check disagrees with the solve".to_string());
        }

        let batch = tr.span("mc", || {
            job.mc
                .as_ref()
                .map(|c| (c, estimate(alg, daemon, spec, &settings(c))))
        });
        let mc = batch.map(|(config, batch)| {
            counts.mc_runs = batch.runs;
            counts.mc_steps = batch.steps.mean * batch.steps.n as f64;
            McSection {
                runs: batch.runs,
                failures: batch.failures,
                seed: config.seed,
                max_steps: config.max_steps,
                steps: EstimateRecord::from(&batch.steps),
                moves: EstimateRecord::from(&batch.moves),
                rounds: EstimateRecord::from(&batch.rounds),
            }
        });

        Ok(Traced {
            observed: Observed {
                configs: counts.configs,
                edges: counts.edges,
                verdicts: Some(verdicts),
                expected,
                mc,
            },
            counts,
        })
    }

    fn reference(&self, daemon: Daemon) -> Result<RefRow, String> {
        let (alg, spec) = (&self.alg, &self.spec);
        let ix = SpaceIndexer::new(alg, DEFAULT_CAP).map_err(|e| e.to_string())?;
        let big = ix.total() > DENSE_FULL_LIMIT;
        let tier = if big {
            EdgeStoreKind::Compressed
        } else {
            EdgeStoreKind::Flat
        };
        let opts = ExploreOptions::full().with_edge_store(tier);
        let ts = TransitionSystem::explore_with(alg, &ix, daemon, spec, &opts)
            .map_err(|e| e.to_string())?;
        let (configs, edges) = (u64::from(ts.n_configs()), ts.n_edges());
        let space = ExploredSpace::from_transition_system(ix, daemon, ts);
        let report = analyze_space(&space, alg.name(), spec.name());
        drop(space);

        let chain_opts = if big {
            ExploreOptions::full().with_quotient(Quotient::RingDihedral)
        } else {
            ExploreOptions::full()
        };
        let chain = AbsorbingChain::build_with(alg, daemon, spec, DEFAULT_CAP, &chain_opts)
            .map_err(|e| e.to_string())?;
        let times = match chain.almost_surely_absorbing() {
            Err(_) => None,
            Ok(()) => {
                let n = chain.n_transient();
                let mut a = vec![vec![0.0; n]; n];
                for (i, row) in a.iter_mut().enumerate() {
                    row[i] = 1.0;
                    for (j, q) in chain.q().row_iter(i) {
                        row[j as usize] -= q;
                    }
                }
                let t = linalg::solve_dense(a, vec![1.0; n]).map_err(|e| e.to_string())?;
                let worst = t.iter().copied().fold(0.0, f64::max);
                let mass: f64 = t
                    .iter()
                    .zip(chain.transient_orbits())
                    .map(|(t, &w)| t * w as f64)
                    .sum();
                Some((worst, mass / chain.represented_configs() as f64))
            }
        };
        Ok(RefRow {
            key: row_key(&alg.name(), daemon),
            closure: report.closure.holds(),
            weak: report.weak.holds(),
            probabilistic: report.probabilistic.holds(),
            self_stabilizing: Fairness::ALL.map(|f| report.self_under(f).holds()),
            worst: times.map(|t| t.0),
            average: times.map(|t| t.1),
            configs,
            edges,
        })
    }
}

/// The oracle's row key: `algorithm/daemon`.
pub fn row_key(algorithm: &str, daemon: Daemon) -> String {
    format!("{algorithm}/{}", daemon.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use weak_stabilization::algorithms::HermanRing;
    use weak_stabilization::graph::builders;

    #[test]
    fn traced_pipeline_reproduces_the_study_bit_for_bit() {
        let alg = HermanRing::on_ring(&builders::ring(7)).expect("ring");
        let inst = Inst {
            spec: alg.legitimacy(),
            alg,
        };
        for (daemon, full_disk) in [(Daemon::Synchronous, false), (Daemon::Central, true)] {
            let job = Job {
                daemon,
                expected: true,
                chain_only: false,
                full_disk,
                mc: Some(McConfig {
                    runs: 50,
                    ..McConfig::default()
                }),
            };
            let report = inst.study(&job).expect("study");
            let mut tr = Tracer::default();
            tr.begin_study();
            let traced = inst.traced(&job, &mut tr).expect("traced");
            tr.end_study();
            assert_eq!(Observed::of(&report), Some(traced.observed));
            assert!(traced.counts.residual_inf < 1e-9);
            assert!(traced.counts.expected_sweeps >= 1);
            let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "study",
                    "plan",
                    "explore",
                    "chain",
                    "verdicts.reverse",
                    "verdicts.analyze",
                    "solve.absorbing",
                    "solve.expected",
                    "solve.absorption",
                    "mc"
                ]
            );
        }
    }
}
