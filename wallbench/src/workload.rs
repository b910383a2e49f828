//! The four workloads: seeded inputs, the timed set-up, one timed pass, and
//! the answer check every pass goes through.

use std::time::Instant;

use miso_bench::{ks, Harness};
use miso_common::{SimClock, SimDuration};
use miso_core::{MaintenancePolicy, MultistoreSystem, TtiBreakdown, Variant};
use miso_data::logs::{Corpus, LogKind, LogsConfig};
use miso_data::Delta;
use miso_exec::{execute_serial, MemSource};
use miso_serve::{ServeConfig, ServeEngine};
use miso_workload::{compile_workload, standard_udfs, workload_catalog};

/// The corpus seed of `LogsConfig::experiment()`; with it, `stream-miso`
/// and `etl-dw` must reproduce their rows of `results/fig4.txt`.
pub const DEFAULT_SEED: u64 = 0x5EED_2014;

/// `results/fig4.txt` at the default seed, in 10³ simulated seconds:
/// DW-EXE, TRANSFER, TUNE, HV-EXE, ETL, TTI.
const FIG4_MS_MISO: [&str; 6] = ["0.0", "0.2", "0.3", "22.3", "0.0", "22.8"];
const FIG4_DW_ONLY: [&str; 6] = ["0.3", "0.0", "0.0", "0.0", "79.5", "79.7"];

/// Queries per `run_workload` call on `growth-ivm`; one append follows each.
const GROWTH_CHUNK: usize = 8;
/// Tweets per append batch on `growth-ivm` (5% of the 40k-tweet base).
const GROWTH_BATCH: usize = 2_000;
/// Queries each of the 32 sessions of `serve-sessions` submits.
const SERVE_QUERIES_PER_SESSION: usize = 8;
/// Completions between online reorganizations on `serve-sessions`.
const SERVE_REORG_EVERY: usize = 128;
/// How long old-epoch queries may run past a publish on `serve-sessions`:
/// a simulated day, longer than any query, so that no reorg kills one.
const SERVE_DRAIN_S: u64 = 86_400;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MS-MISO over the 32-query stream, B = 2×, reorg every 3 queries.
    StreamMiso,
    /// DW-ONLY: ETL once, then every query in DW.
    EtlDw,
    /// MS-MISO in chunks of 8 queries, one refreshed tweet append per chunk.
    GrowthIvm,
    /// The serving engine: 32 sessions × 2 queries, online reorg every 16.
    ServeSessions,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StreamMiso,
        Workload::EtlDw,
        Workload::GrowthIvm,
        Workload::ServeSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamMiso => "stream-miso",
            Workload::EtlDw => "etl-dw",
            Workload::GrowthIvm => "growth-ivm",
            Workload::ServeSessions => "serve-sessions",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a pass reads, generated from the seed during set-up.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub harness: Harness,
    /// Append batches of `growth-ivm`, one per query chunk.
    pub deltas: Vec<Delta>,
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub compile_s: f64,
    pub system_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.corpus_s + self.compile_s + self.system_s
    }
}

/// The corpus shape of `LogsConfig::experiment()` under another seed.
pub fn logs_config(seed: u64) -> LogsConfig {
    LogsConfig {
        seed,
        ..LogsConfig::experiment()
    }
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        queries_per_session: SERVE_QUERIES_PER_SESSION,
        reorg_every: SERVE_REORG_EVERY,
        drain: SimDuration::from_secs(SERVE_DRAIN_S),
        ..ServeConfig::standard()
    }
}

/// Generates the corpus (and append batches) and compiles the workload.
pub fn generate(workload: Workload, logs: LogsConfig) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let corpus = Corpus::generate(&logs);
    let deltas = match workload {
        Workload::GrowthIvm => (0..32 / GROWTH_CHUNK as u64)
            .map(|b| Delta::generated(&logs, LogKind::Twitter, b, GROWTH_BATCH))
            .collect(),
        _ => Vec::new(),
    };
    times.corpus_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plans = compile_workload(&workload_catalog()).expect("the evolutionary workload compiles");
    times.compile_s = t.elapsed().as_secs_f64();
    let inputs = Inputs {
        workload,
        seed: logs.seed,
        harness: Harness {
            corpus,
            workload: plans,
        },
        deltas,
    };
    (inputs, times)
}

/// A freshly constructed system, ready for one pass.
pub enum Prepared {
    System(Box<MultistoreSystem>),
    Serve(Box<ServeEngine>),
}

/// Builds the system (and, for serve, the serve engine) one pass runs on.
pub fn prepare(inputs: &Inputs) -> Prepared {
    let h = &inputs.harness;
    let sys = h.system(h.budgets(2.0), None);
    match inputs.workload {
        Workload::ServeSessions => Prepared::Serve(Box::new(ServeEngine::new(
            serve_config(inputs.seed),
            sys,
            h.workload.clone(),
            standard_udfs(),
        ))),
        _ => Prepared::System(Box::new(sys)),
    }
}

/// One full set-up: generate, compile, construct.
pub fn setup(workload: Workload, seed: u64) -> (Inputs, Prepared, SetupTimes) {
    let (inputs, mut times) = generate(workload, logs_config(seed));
    let t = Instant::now();
    let prepared = prepare(&inputs);
    times.system_s = t.elapsed().as_secs_f64();
    (inputs, prepared, times)
}

/// Expected result row count of every query a pass answers, from the
/// serial row-at-a-time oracle over the raw (un-rewritten) plans. Empty for
/// `serve-sessions`, whose engine checks every answer against the same
/// oracle itself.
pub fn reference(inputs: &Inputs) -> Vec<u64> {
    if inputs.workload == Workload::ServeSessions {
        return Vec::new();
    }
    let growth = inputs.workload == Workload::GrowthIvm;
    let corpus = &inputs.harness.corpus;
    // growth-ivm: chunk c runs after c appends. The others read one corpus.
    let versions = if growth { inputs.deltas.len() } else { 1 };
    let mut twitter = corpus.twitter.lines.clone();
    let sources: Vec<MemSource> = (0..versions)
        .map(|c| {
            if c > 0 {
                twitter.extend(inputs.deltas[c - 1].lines.iter().cloned());
            }
            let mut src = MemSource::new();
            src.add_log("twitter", twitter.clone());
            src.add_log("foursquare", corpus.foursquare.lines.clone());
            src.add_log("landmarks", corpus.landmarks.lines.clone());
            src
        })
        .collect();
    let udfs = standard_udfs();
    let plans = &inputs.harness.workload;
    // The queries are independent: spread them over the worker pool.
    miso_common::pool::run_batch(plans.len(), |i| {
        let (label, plan) = &plans[i];
        let src = &sources[if growth { i / GROWTH_CHUNK } else { 0 }];
        let exec = execute_serial(plan, src, &udfs)
            .unwrap_or_else(|e| panic!("oracle fails on {label}: {e}"));
        exec.root_rows().expect("serial runs the root").len() as u64
    })
    .expect("the oracle answers every query")
}

/// What one timed pass did.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Queries submitted.
    pub attempted: u64,
    /// Submitted queries that errored, were lost, or answered wrongly.
    pub failed: u64,
    /// The simulated outcome, which must repeat exactly on every pass.
    pub signature: Vec<String>,
    /// Wall seconds inside `MultistoreSystem::grow`.
    pub grow_s: f64,
    /// `serve-sessions` only: delivered queries, reorgs and drain kills.
    pub serve_delivered: u64,
    pub serve_reorgs: u64,
    pub serve_drained: u64,
    /// Why queries failed, for the log.
    pub problems: Vec<String>,
}

fn fig4_row(t: &TtiBreakdown) -> [String; 6] {
    [t.dw_exe, t.transfer, t.tune, t.hv_exe, t.etl, t.total()].map(|d| format!("{:.1}", ks(d)))
}

fn tti_exact(t: &TtiBreakdown) -> String {
    format!(
        "hv {} dw {} transfer {} tune {} etl {}",
        t.hv_exe.as_micros(),
        t.dw_exe.as_micros(),
        t.transfer.as_micros(),
        t.tune.as_micros(),
        t.etl.as_micros()
    )
}

/// Runs one pass on `prepared` and checks every answer against `expected`.
/// Returns the used system too, so that the caller drops it untimed.
pub fn run_pass(
    inputs: &Inputs,
    prepared: Prepared,
    expected: &[u64],
) -> (PassOutcome, Option<Box<MultistoreSystem>>) {
    match prepared {
        Prepared::System(mut sys) => {
            let outcome = match inputs.workload {
                Workload::GrowthIvm => growth_pass(inputs, &mut sys, expected),
                w => stream_pass(inputs, &mut sys, w, expected),
            };
            (outcome, Some(sys))
        }
        Prepared::Serve(engine) => (serve_pass(*engine), None),
    }
}

/// Compares `records` with the queries `offset..` of the workload.
fn check_records(
    inputs: &Inputs,
    offset: usize,
    result: &miso_core::ExperimentResult,
    expected: &[u64],
    out: &mut PassOutcome,
) {
    let n = expected.len();
    out.attempted += n as u64;
    for (i, exp) in expected.iter().enumerate() {
        let label = &inputs.harness.workload[offset + i].0;
        match result.records.get(i) {
            Some(r) if &r.label == label && r.result_rows == *exp => {}
            Some(r) => {
                out.failed += 1;
                out.problems.push(format!(
                    "{label}: {} rows from {}, expected {exp}",
                    r.result_rows, r.label
                ));
            }
            None => {
                out.failed += 1;
                out.problems.push(format!("{label}: no answer"));
            }
        }
    }
    for f in &result.failures {
        out.problems.push(format!("query failure: {f:?}"));
    }
}

fn stream_pass(
    inputs: &Inputs,
    sys: &mut MultistoreSystem,
    workload: Workload,
    expected: &[u64],
) -> PassOutcome {
    let variant = match workload {
        Workload::EtlDw => Variant::DwOnly,
        _ => Variant::MsMiso,
    };
    let mut out = PassOutcome::default();
    match sys.run_workload(variant, &inputs.harness.workload) {
        Ok(result) => {
            check_records(inputs, 0, &result, expected, &mut out);
            out.signature.push(tti_exact(&result.tti));
            if inputs.seed == DEFAULT_SEED {
                let want = if variant == Variant::DwOnly {
                    FIG4_DW_ONLY
                } else {
                    FIG4_MS_MISO
                };
                let got = fig4_row(&result.tti);
                if got != want.map(String::from) {
                    out.failed = out.attempted;
                    out.problems
                        .push(format!("fig4 row {got:?} differs from {want:?}"));
                }
            }
        }
        Err(e) => {
            out.attempted = expected.len() as u64;
            out.failed = out.attempted;
            out.problems.push(format!("run_workload: {e}"));
        }
    }
    out
}

fn growth_pass(inputs: &Inputs, sys: &mut MultistoreSystem, expected: &[u64]) -> PassOutcome {
    let mut out = PassOutcome::default();
    let mut clock = SimClock::new();
    let mut grow_failed = false;
    for (c, chunk) in inputs.harness.workload.chunks(GROWTH_CHUNK).enumerate() {
        let offset = c * GROWTH_CHUNK;
        let want = &expected[offset..offset + chunk.len()];
        match sys.run_workload(Variant::MsMiso, chunk) {
            Ok(result) => {
                check_records(inputs, offset, &result, want, &mut out);
                out.signature.push(tti_exact(&result.tti));
            }
            Err(e) => {
                out.attempted += chunk.len() as u64;
                out.failed += chunk.len() as u64;
                out.problems.push(format!("chunk {c}: {e}"));
            }
        }
        let t = Instant::now();
        let grown = {
            let _span = miso_obs::span("bench.grow");
            sys.grow(&inputs.deltas[c], MaintenancePolicy::Refresh, &mut clock)
        };
        out.grow_s += t.elapsed().as_secs_f64();
        match grown {
            Ok(report) => out.signature.push(format!(
                "maint {} refreshed {:?} recomputed {:?} invalidated {:?}",
                report.cost.as_micros(),
                report.delta_refreshed,
                report.recomputed,
                report.invalidated
            )),
            Err(e) => {
                grow_failed = true;
                out.problems.push(format!("grow {c}: {e}"));
            }
        }
    }
    if grow_failed {
        // Later chunks read the wrong corpus: the whole pass is lost.
        out.failed = out.attempted;
    }
    out
}

fn serve_pass(engine: ServeEngine) -> PassOutcome {
    let r = engine.run();
    let mut out = PassOutcome {
        attempted: r.submitted,
        failed: r.submitted.saturating_sub(r.delivered) + r.wrong_answers,
        serve_delivered: r.delivered,
        serve_reorgs: r.reorgs,
        serve_drained: r.drained,
        ..Default::default()
    };
    out.signature.push(format!(
        "qps {} p50 {} p99 {} delivered {} reorgs {}",
        r.qps,
        r.p50.as_micros(),
        r.p99.as_micros(),
        r.delivered,
        r.reorgs
    ));
    if r.wrong_answers != 0 || r.unclassified != 0 || out.failed != 0 {
        out.problems.push(format!(
            "serve: {} submitted, {} delivered, {} wrong, {} unclassified, {} shed, {} killed",
            r.submitted, r.delivered, r.wrong_answers, r.unclassified, r.shed, r.killed
        ));
        if r.unclassified != 0 {
            out.failed = out.attempted;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload passes its answer check on two seeds (the default one
    /// also checks the fig4 rows), and a wrong expected count is caught.
    #[test]
    fn answer_check_passes_on_two_seeds_and_catches_a_wrong_count() {
        for seed in [DEFAULT_SEED, 7] {
            for workload in Workload::ALL {
                let (inputs, prepared, _) = setup(workload, seed);
                let expected = reference(&inputs);
                let (outcome, _) = run_pass(&inputs, prepared, &expected);
                let name = workload.name();
                assert!(outcome.attempted > 0, "{name} seed {seed}");
                assert_eq!(
                    outcome.failed, 0,
                    "{name} seed {seed}: {:?}",
                    outcome.problems
                );
                assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);

                if workload == Workload::StreamMiso {
                    let mut wrong = expected.clone();
                    wrong[3] += 1;
                    let (outcome, _) = run_pass(&inputs, prepare(&inputs), &wrong);
                    assert_eq!(outcome.failed, 1, "{:?}", outcome.problems);
                }
            }
        }
    }
}
