//! `studybench`: the end-to-end and per-layer benchmark of `Study::run()`.
//!
//! ```text
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload <herman15-study|disk-verdicts|daemon-sweep|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --write-reference > studybench/reference.json
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for the workloads and the metrics.

mod calib;
mod oracle;
mod rows;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use weak_stabilization::algorithms::{
    DijkstraRing, GreedyColoring, HermanRing, ParentLeader, TokenCirculation,
};
use weak_stabilization::core::{CoreError, Daemon, ProjectedLegitimacy, Transformed};
use weak_stabilization::graph::builders;
use weak_stabilization::study::{McConfig, StudyReport};

use calib::Calibrator;
use oracle::RefRow;
use rows::{row_key, Counts, Inst, Instance, Job, Observed};
use stats::median;
use trace::Tracer;

/// The stored reference values (generated by `--write-reference`).
const REFERENCE: &str = include_str!("../reference.json");

/// Set-up is repeated this many times per run and reported as a median.
const SETUP_REPS: usize = 5;

/// Monte-Carlo runs per `daemon-sweep` row with a finite expected time.
const MC_RUNS: u64 = 2000;

/// Per-run step budget of those batches (far above every row's expected
/// time, so no run is cut short).
const MC_MAX_STEPS: u64 = 1_000_000;

/// Scratch space inside the working directory: spill files and span
/// dumps. The process points `TMPDIR` here so the engine's temporary
/// spill directories stay inside the checkout too.
const WORK_DIR: &str = ".bench_work";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Herman15,
    DiskVerdicts,
    DaemonSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Herman15,
        Workload::DiskVerdicts,
        Workload::DaemonSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Herman15 => "herman15-study",
            Workload::DiskVerdicts => "disk-verdicts",
            Workload::DaemonSweep => "daemon-sweep",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn herman(n: usize) -> Box<dyn Instance> {
    let alg = HermanRing::on_ring(&builders::ring(n)).expect("rings are rings");
    let spec = alg.legitimacy();
    Box::new(Inst { alg, spec })
}

/// The seven `daemon-sweep` algorithms.
fn sweep_instances() -> Vec<Box<dyn Instance>> {
    let token = TokenCirculation::on_ring(&builders::ring(7)).expect("ring");
    let leader = ParentLeader::on_tree(&builders::figure2_tree()).expect("tree");
    let dijkstra = DijkstraRing::on_ring(&builders::ring(5)).expect("ring");
    let coloring = GreedyColoring::new(&builders::star(8)).expect("connected");
    let t_token = TokenCirculation::on_ring(&builders::ring(5)).expect("ring");
    let t_leader = ParentLeader::on_tree(&builders::path(4)).expect("tree");
    vec![
        Box::new(Inst {
            spec: token.legitimacy(),
            alg: token,
        }),
        Box::new(Inst {
            spec: leader.legitimacy(),
            alg: leader,
        }),
        herman(11),
        Box::new(Inst {
            spec: dijkstra.legitimacy(),
            alg: dijkstra,
        }),
        Box::new(Inst {
            spec: coloring.legitimacy(),
            alg: coloring,
        }),
        Box::new(Inst {
            spec: ProjectedLegitimacy::new(t_token.legitimacy()),
            alg: Transformed::new(t_token),
        }),
        Box::new(Inst {
            spec: ProjectedLegitimacy::new(t_leader.legitimacy()),
            alg: Transformed::new(t_leader),
        }),
    ]
}

/// Every `(instance, daemon)` row the reference file covers.
fn reference_rows() -> Vec<(Box<dyn Instance>, Daemon)> {
    let mut rows = vec![(herman(15), Daemon::Synchronous)];
    for daemon in Daemon::ALL {
        rows.extend(sweep_instances().into_iter().map(|i| (i, daemon)));
    }
    rows
}

/// SplitMix64: the seed stream for row order and Monte-Carlo seeds.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One row of a work set.
struct Row {
    inst: usize,
    job: Job,
    reference: RefRow,
}

impl Row {
    /// Checks one study's result against the row's reference values.
    fn verify(
        &self,
        job: &Job,
        result: Result<StudyReport, CoreError>,
    ) -> Result<StudyReport, String> {
        let report = result.map_err(|e| format!("{}: {e}", self.reference.key))?;
        self.reference.check(&report, job)?;
        Ok(report)
    }
}

/// A workload's instances and the rows one pass runs.
struct WorkSet {
    instances: Vec<Box<dyn Instance>>,
    rows: Vec<Row>,
    seed: u64,
}

impl WorkSet {
    fn build(w: Workload, seed: u64, refs: &[RefRow]) -> Result<WorkSet, String> {
        let instances = match w {
            Workload::Herman15 | Workload::DiskVerdicts => vec![herman(15)],
            Workload::DaemonSweep => sweep_instances(),
        };
        let lookup = |inst: &dyn Instance, daemon: Daemon| {
            let key = row_key(&inst.label(), daemon);
            refs.iter()
                .find(|r| r.key == key)
                .cloned()
                .ok_or(format!("no reference row {key}"))
        };
        let base = |daemon| Job {
            daemon,
            expected: false,
            chain_only: false,
            full_disk: false,
            mc: None,
        };
        let rows = match w {
            Workload::Herman15 => vec![Row {
                inst: 0,
                job: Job {
                    expected: true,
                    ..base(Daemon::Synchronous)
                },
                reference: lookup(&*instances[0], Daemon::Synchronous)?,
            }],
            Workload::DiskVerdicts => vec![Row {
                inst: 0,
                job: Job {
                    chain_only: true,
                    full_disk: true,
                    ..base(Daemon::Synchronous)
                },
                reference: lookup(&*instances[0], Daemon::Synchronous)?,
            }],
            Workload::DaemonSweep => {
                let mut rows = Vec::new();
                for (inst, instance) in instances.iter().enumerate() {
                    for daemon in Daemon::ALL {
                        let reference = lookup(&**instance, daemon)?;
                        // A row without a finite expected time would only
                        // burn the Monte-Carlo step budget (Theorem 1).
                        let mc = reference.average.is_some().then_some(McConfig {
                            runs: MC_RUNS,
                            max_steps: MC_MAX_STEPS,
                            seed: 0,
                            threads: 1,
                        });
                        rows.push(Row {
                            inst,
                            job: Job {
                                expected: true,
                                mc,
                                ..base(daemon)
                            },
                            reference,
                        });
                    }
                }
                rows
            }
        };
        Ok(WorkSet {
            instances,
            rows,
            seed,
        })
    }

    /// The jobs of pass `pass`: rows in a seeded order (Fisher–Yates),
    /// each Monte-Carlo batch with a seed drawn from the same stream.
    fn pass(&self, pass: u64) -> Vec<(usize, &Row, Job)> {
        let mut state = splitmix(self.seed ^ splitmix(pass));
        let mut next = || {
            state = splitmix(state);
            state
        };
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        order
            .into_iter()
            .map(|i| {
                let row = &self.rows[i];
                let mut job = row.job.clone();
                if let Some(mc) = job.mc.as_mut() {
                    mc.seed = next();
                }
                (i, row, job)
            })
            .collect()
    }
}

/// Instance construction plus warm-up studies with the workload's job
/// shapes on smaller inputs (Herman N=13 for the Herman workloads; each
/// sweep instance under the central daemon, with a tenth of the
/// Monte-Carlo runs): the cost paid before the first timed study.
fn set_up(w: Workload, seed: u64, refs: &[RefRow]) -> Result<WorkSet, String> {
    let work = WorkSet::build(w, seed, refs)?;
    let warm = |inst: &dyn Instance, job: &Job| {
        let mut job = job.clone();
        if let Some(mc) = job.mc.as_mut() {
            mc.runs = MC_RUNS / 10;
        }
        inst.study(&job)
            .map(drop)
            .map_err(|e| format!("warm-up: {e}"))
    };
    match w {
        Workload::Herman15 | Workload::DiskVerdicts => warm(&*herman(13), &work.rows[0].job)?,
        Workload::DaemonSweep => {
            for row in work.rows.iter().filter(|r| r.job.daemon == Daemon::Central) {
                warm(&*work.instances[row.inst], &row.job)?;
            }
        }
    }
    Ok(work)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .ok_or("cannot read VmHWM from /proc/self/status".to_string())
}

/// `nproc`, CPU model and RAM, as one line.
fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let read = |path: &str, key: &str| {
        std::fs::read_to_string(path).ok().and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
    };
    let cpu = read("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let ram = read("/proc/meminfo", "MemTotal").unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" ram=\"{ram}\"")
}

/// A metric in the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Measurement outcome of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// `--trace 0`: closed-loop untraced `Study::run()` passes over the work
/// set until `seconds` have elapsed (whole passes only, at least one).
fn run_untraced(w: Workload, seed: u64, seconds: f64, refs: &[RefRow]) -> Result<Outcome, String> {
    let mut calib = Calibrator::new();
    let (mut setup_raw, mut setup_scaled) = (Vec::new(), Vec::new());
    let mut work = None;
    for _ in 0..SETUP_REPS {
        let (set, raw, scaled) = calib.time(|| set_up(w, seed, refs));
        work = Some(set?);
        setup_raw.push(raw / 1e3);
        setup_scaled.push(scaled / 1e3);
    }
    let work = work.expect("at least one set-up");

    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per row of the work set: its raw and rescaled times over the passes.
    let mut raw_ms = vec![Vec::new(); work.rows.len()];
    let mut scaled_ms = vec![Vec::new(); work.rows.len()];
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, row, job) in work.pass(pass) {
            attempted += 1;
            let (report, raw, scaled) = calib.time(|| work.instances[row.inst].study(&job));
            raw_ms[i].push(raw);
            scaled_ms[i].push(scaled);
            if let Err(e) = row.verify(&job, report) {
                failed += 1;
                eprintln!("FAILED {e}");
            }
        }
        pass += 1;
    }
    // Each row is timed by its median over the passes; the study median
    // is taken over those, and the closed-loop throughput is one pass of
    // them, counting only verified studies.
    let p50 = |v: &[f64]| median(v).expect("at least one sample");
    let row_p50 = |per_row: &[Vec<f64>]| per_row.iter().map(|v| p50(v)).collect::<Vec<_>>();
    let study_p50 = |per_row: &[Vec<f64>]| p50(&row_p50(per_row));
    let per_s = |per_row: &[Vec<f64>]| {
        let pass_s = row_p50(per_row).iter().sum::<f64>() / 1e3;
        let verified = (attempted - failed) as f64 / attempted as f64;
        verified * per_row.len() as f64 / pass_s
    };
    println!(
        "# {}: {attempted} studies ({pass} passes of {} rows), {failed} failed; \
         timings rescaled to the nominal probe speed (raw wall time in brackets)",
        w.name(),
        work.rows.len()
    );
    println!(
        "failed_share = {} (failed/attempted)",
        failed as f64 / attempted as f64
    );
    println!(
        "# study_ms_p50 over {} rows x {pass} passes [raw {:.3} ms]; studies_per_s [raw {:.4} 1/s]; \
         setup_s median of {SETUP_REPS} [raw {:.4} s]",
        work.rows.len(),
        study_p50(&raw_ms),
        per_s(&raw_ms),
        p50(&setup_raw)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("study_ms_p50", study_p50(&scaled_ms), "ms"),
            metric("studies_per_s", per_s(&scaled_ms), "1/s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("setup_s", p50(&setup_scaled), "s"),
        ],
    })
}

/// Per-layer figures of one pass (sums over the pass's studies).
#[derive(Default)]
struct PassFigures {
    untraced_ms: f64,
    traced_ms: f64,
    stage: [f64; 6],
    stage_total: f64,
    counts: Vec<Counts>,
}

/// The `stage.*` metrics in `StudyReport::timings_ms` order, each with the
/// traced span slots of the same stage. A stage the workload never runs
/// has no timing; it reports its slot's (near-zero) time, not a constant.
const STAGES: [(&str, &[&str]); 6] = [
    ("stage.plan_ms", &["plan"]),
    ("stage.explore_ms", &["explore"]),
    (
        "stage.verdicts_ms",
        &["verdicts.reverse", "verdicts.analyze"],
    ),
    ("stage.chain_build_ms", &["chain"]),
    (
        "stage.expected_solve_ms",
        &["solve.absorbing", "solve.expected", "solve.absorption"],
    ),
    ("stage.monte_carlo_ms", &["mc"]),
];

impl PassFigures {
    /// Adds one row's untraced report and traced pipeline; an error when
    /// either failed or the two disagree.
    fn add(
        &mut self,
        key: &str,
        untraced: Result<StudyReport, String>,
        traced: Result<rows::Traced, String>,
    ) -> Result<(), String> {
        let (report, traced) = (untraced?, traced?);
        let t = &report.timings_ms;
        let stages = [
            Some(t.plan),
            Some(t.explore),
            t.verdicts,
            t.chain_build,
            t.expected_solve,
            t.monte_carlo,
        ];
        for (slot, ms) in self.stage.iter_mut().zip(stages) {
            *slot += ms.unwrap_or(0.0);
        }
        self.stage_total += t.total;
        if Observed::of(&report).as_ref() != Some(&traced.observed) {
            return Err(format!("{key}: traced pipeline differs from Study::run()"));
        }
        self.counts.push(traced.counts);
        Ok(())
    }
}

/// `--trace 1`: each row runs untraced (for `StudyReport::timings_ms`
/// and the overhead baseline) and through the traced pipeline, whose
/// output must equal the untraced report's bit for bit. Which of the two
/// goes first alternates per pass; both are rescaled by the calibration
/// probe for `trace.overhead_pct`.
fn run_traced(w: Workload, seed: u64, seconds: f64, refs: &[RefRow]) -> Result<Outcome, String> {
    let work = set_up(w, seed, refs)?;
    let mut calib = Calibrator::new();
    let mut tracer = Tracer::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut fig = PassFigures::default();
        let first_study = tracer.current_study() + 1;
        for (_, row, job) in work.pass(pass) {
            attempted += 1;
            let (mut untraced, mut traced) = (None, None);
            for untraced_leg in [pass % 2 == 0, pass % 2 == 1] {
                if untraced_leg {
                    let (report, _, scaled) = calib.time(|| work.instances[row.inst].study(&job));
                    fig.untraced_ms += scaled;
                    untraced = Some(row.verify(&job, report));
                } else {
                    let (out, _, scaled) = calib.time(|| {
                        tracer.begin_study();
                        let out = work.instances[row.inst].traced(&job, &mut tracer);
                        tracer.end_study();
                        out
                    });
                    fig.traced_ms += scaled;
                    traced = Some(out);
                }
            }
            let (untraced, traced) = (untraced.expect("ran"), traced.expect("ran"));
            if let Err(e) = fig.add(&row.reference.key, untraced, traced) {
                failed += 1;
                eprintln!("FAILED {e}");
            }
        }
        passes.push(pass_metrics(&tracer, first_study, &fig));
        pass += 1;
    }

    let dir = Path::new(WORK_DIR);
    let spans = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    eprintln!(
        "# spans written to {}; self time per span (ms, whole run):",
        spans.display()
    );
    for (name, ms) in tracer.self_times() {
        eprintln!("#   {name:<18} {ms:12.3}");
    }
    let names: Vec<&'static str> = passes[0].keys().copied().collect();
    let metrics = names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = passes.iter().map(|p| p[name]).collect();
            metric(name, median(&values).expect("one pass"), unit_of(name))
        })
        .collect::<Vec<_>>();
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(0.0, |m| m.value)
    };
    let wall = get("stage.total_ms");
    let share = |names: &[&str]| names.iter().map(|n| get(n)).sum::<f64>() / wall * 100.0;
    println!(
        "# {}: {} passes; layer shares of Study::run() wall time: solve {:.1}%, verdicts+chain {:.1}%, mc+plan {:.1}%",
        w.name(),
        passes.len(),
        share(&["solve.absorbing_ms", "solve.expected_ms", "solve.absorption_ms"]),
        share(&["verdicts.reverse_ms", "verdicts.analyze_ms", "chain.ms"]),
        share(&["mc.ms", "plan.ms"]),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .filter(|m| m.name != "stage.total_ms")
            .collect(),
    })
}

fn unit_of(name: &str) -> &'static str {
    match name {
        "plan.est_edges_ratio" => "ratio",
        "explore.edges_per_s" | "mc.steps_per_s" => "1/s",
        "solve.ns_per_entry" => "ns",
        "solve.residual_inf" => "abs",
        "trace.overhead_pct" => "%",
        n if n.ends_with("ms") => "ms",
        n if n.ends_with("bytes") => "bytes",
        _ => "count",
    }
}

/// The per-layer metrics of one pass, keyed by metric name.
fn pass_metrics(tracer: &Tracer, first: u64, fig: &PassFigures) -> BTreeMap<&'static str, f64> {
    let studies = first..=tracer.current_study();
    let span = |name: &str| tracer.total_ms(name, studies.clone());
    let sum = |f: fn(&Counts) -> u64| fig.counts.iter().map(f).sum::<u64>() as f64;
    let mut m = BTreeMap::new();
    for (name, slot) in [
        ("plan.ms", "plan"),
        ("explore.ms", "explore"),
        ("verdicts.reverse_ms", "verdicts.reverse"),
        ("verdicts.analyze_ms", "verdicts.analyze"),
        ("chain.ms", "chain"),
        ("solve.absorbing_ms", "solve.absorbing"),
        ("solve.expected_ms", "solve.expected"),
        ("solve.absorption_ms", "solve.absorption"),
        ("mc.ms", "mc"),
    ] {
        m.insert(name, span(slot));
    }
    let edges = sum(|c| c.edges);
    m.insert(
        "plan.est_edges_ratio",
        sum(|c| c.est_full_edges) / edges.max(1.0),
    );
    m.insert("explore.edges_per_s", edges / (m["explore.ms"] / 1e3));
    m.insert("explore.configs", sum(|c| c.configs));
    m.insert("explore.edges", edges);
    m.insert("explore.edge_bytes", sum(|c| c.edge_bytes));
    m.insert("explore.spilled_bytes", sum(|c| c.spilled_bytes));
    m.insert(
        "explore.peak_resident_bytes",
        fig.counts
            .iter()
            .map(|c| c.peak_resident_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert("explore.probes", sum(|c| c.explore_probes));
    m.insert("chain.n_transient", sum(|c| c.n_transient));
    m.insert("chain.q_entries", sum(|c| c.q_entries));
    m.insert("chain.q_bytes", sum(|c| c.q_bytes));
    m.insert("solve.expected_sweeps", sum(|c| c.expected_sweeps));
    m.insert("solve.absorption_sweeps", sum(|c| c.absorption_sweeps));
    let entry_sweeps: f64 = fig
        .counts
        .iter()
        .map(|c| ((c.expected_sweeps + c.absorption_sweeps) * c.q_entries) as f64)
        .sum();
    m.insert(
        "solve.ns_per_entry",
        (m["solve.expected_ms"] + m["solve.absorption_ms"]) * 1e6 / entry_sweeps.max(1.0),
    );
    m.insert(
        "solve.residual_inf",
        fig.counts
            .iter()
            .map(|c| c.residual_inf)
            .fold(0.0, f64::max),
    );
    m.insert("mc.runs", sum(|c| c.mc_runs));
    let mc_steps: f64 = fig.counts.iter().map(|c| c.mc_steps).sum();
    m.insert("mc.steps_per_s", mc_steps / (m["mc.ms"] / 1e3));
    for ((name, slots), ms) in STAGES.into_iter().zip(fig.stage) {
        let ms = if ms > 0.0 {
            ms
        } else {
            slots.iter().map(|s| span(s)).sum()
        };
        m.insert(name, ms);
    }
    m.insert("stage.total_ms", fig.stage_total);
    m.insert(
        "study.glue_ms",
        fig.stage_total - fig.stage.iter().sum::<f64>(),
    );
    m.insert(
        "trace.overhead_pct",
        (fig.traced_ms - fig.untraced_ms) / fig.untraced_ms * 100.0,
    );
    m
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `--workload all`: every workload in its own child process, so peak
/// RSS and process-global counters stay per workload.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("studybench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut args: Vec<String> = argv.to_vec();
        let i = args
            .iter()
            .position(|a| a == "--workload")
            .expect("checked");
        args[i + 1] = w.name().to_string();
        println!("## {}", w.name());
        let status = std::process::Command::new(&exe).args(&args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_reference() -> Result<(), String> {
    let mut rows = Vec::new();
    for (inst, daemon) in reference_rows() {
        let start = Instant::now();
        let row = inst.reference(daemon)?;
        eprintln!("{} ({:.1} s)", row.key, start.elapsed().as_secs_f64());
        rows.push(row);
    }
    println!("{}", oracle::render(&rows));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let work_dir = match std::env::current_dir() {
        Ok(cwd) => cwd.join(WORK_DIR),
        Err(e) => {
            eprintln!("studybench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp: PathBuf = work_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("studybench: creating {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Single-threaded here; every spill directory is created under it.
    std::env::set_var("TMPDIR", &tmp);
    let result = run(&argv);
    if let Err(e) = std::fs::remove_dir_all(&tmp) {
        eprintln!("studybench: removing {}: {e}", tmp.display());
    }
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("studybench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    if argv.first().map(String::as_str) == Some("--write-reference") {
        write_reference()?;
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse_args(argv)?;
    if args.workload == "all" {
        return Ok(run_all(argv));
    }
    let w = Workload::parse(&args.workload).ok_or(format!(
        "--workload must be one of herman15-study, disk-verdicts, daemon-sweep, all (got {:?})",
        args.workload
    ))?;
    let refs = oracle::parse(REFERENCE)?;
    println!("# host: {}", host());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        run_traced(w, args.seed, args.seconds, &refs)?
    } else {
        run_untraced(w, args.seed, args.seconds, &refs)?
    };
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
    }
    println!("{}", result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}
