//! wallbench: wall clock of the MISO query stream, end to end and by layer.
//!
//! ```text
//! wallbench reference --workload W --seed N
//! wallbench run --workload W --seed N --seconds S --trace 0|1 < reference
//! ```
//!
//! `reference` prints the expected result row count of every query a pass
//! answers, computed by the serial oracle. `run` sets the workload up
//! several times, runs one untimed warm-up pass, then runs timed passes for
//! `S` seconds, checks each against the reference, and prints one JSON
//! object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of traced passes alternated with untraced ones. The two
//! steps run in separate processes so that the oracle's memory never shows
//! in `peak_rss_mb`. `run.py` beside this package builds it and drives both.

mod rollup;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

use miso_obs::{NoopSink, ObsConfig, RingSink};
use workload::{PassOutcome, Workload};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Fewest timed passes of an untraced run, whatever `--seconds` says.
const MIN_PASSES: usize = 2;
/// Events one traced pass may record; a pass that records more is flagged.
const RING_CAPACITY: usize = 1 << 17;
/// Linux reports CPU times under `/proc` in USER_HZ ticks, fixed at 100.
const TICKS_PER_S: f64 = 100.0;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (reference | run)")?;
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed").ok_or("missing --seed")?;
    let seed = seed
        .parse()
        .map_err(|e| format!("bad --seed {seed}: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    Ok(Args {
        command,
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed,
        seconds,
        trace: get("--trace").unwrap_or("0") != "0",
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses process-global switches that silently change the measured
/// program. `MISO_THREADS` is allowed up to `nproc`.
fn check_env() -> Result<(), String> {
    for (key, value) in std::env::vars() {
        if !key.starts_with("MISO_") {
            continue;
        }
        if key == "MISO_THREADS"
            && value
                .trim()
                .parse::<usize>()
                .is_ok_and(|n| (1..=nproc()).contains(&n))
        {
            continue;
        }
        return Err(format!(
            "{key}={value} changes the measured program; unset it (MISO_THREADS may be 1..={})",
            nproc()
        ));
    }
    Ok(())
}

/// User + system CPU ticks of this process so far.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("numeric CPU tick field");
    tick(11) + tick(12)
}

/// Ticks the hypervisor has given this machine's CPUs to other guests (the
/// `steal` column of `/proc/stat`). Wall times rise with it.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .expect("/proc/stat reports steal time")
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM");
    kib / 1024.0
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn start_trace() -> Arc<RingSink> {
    miso_obs::reset_metrics();
    let ring = Arc::new(RingSink::new(RING_CAPACITY));
    miso_obs::init(ObsConfig::ring(1));
    miso_obs::set_sink(ring.clone());
    ring
}

fn stop_trace() {
    miso_obs::init(ObsConfig::disabled());
    miso_obs::set_sink(Arc::new(NoopSink));
}

/// Everything one `run` measured.
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Wall seconds of every pass, the warm-up first.
    walls: Vec<f64>,
    /// Share of the machine's CPU time stolen by the hypervisor during the
    /// passes after the warm-up.
    steal_frac: f64,
}

fn run(args: &Args, expected: &[u64]) -> Run {
    let mut setup_totals = Vec::new();
    let mut corpus_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut system_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first, so that two never coexist.
        drop(last.take());
        let (inputs, prepared, t) = workload::setup(args.workload, args.seed);
        setup_totals.push(t.total());
        corpus_s.push(t.corpus_s);
        compile_s.push(t.compile_s);
        system_s.push(t.system_s);
        last = Some((inputs, prepared));
    }
    let (inputs, first) = last.expect("at least one set-up");

    let mut problems = Vec::new();
    if args.workload != Workload::ServeSessions && expected.len() != inputs.harness.workload.len() {
        problems.push(format!(
            "reference has {} counts for {} queries",
            expected.len(),
            inputs.harness.workload.len()
        ));
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_signature: Option<Vec<String>> = None;
    let mut walls = Vec::new();
    let mut all_walls = Vec::new();
    let (mut cpu_ticks_total, mut answered) = (0u64, 0u64);
    let (mut steal_total, mut measured_s) = (0u64, 0.0);
    let mut traced: Vec<(f64, rollup::PassRollup, PassOutcome)> = Vec::new();
    let mut next = Some(first);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut start = Instant::now();
    // Pass 0 warms the allocator and caches up: checked, never timed. With
    // `--trace 1`, untimed passes alternate with traced ones after it.
    for pass in 0.. {
        let prepared = next.take().unwrap_or_else(|| {
            let t = Instant::now();
            let p = workload::prepare(&inputs);
            system_s.push(t.elapsed().as_secs_f64());
            p
        });
        let is_traced = args.trace && pass > 0 && pass % 2 == 0;
        let ring = is_traced.then(start_trace);
        let (cpu0, steal0) = (cpu_ticks(), steal_ticks());
        let t0 = Instant::now();
        let (mut outcome, leftover) = {
            let _root = miso_obs::span("bench.pass");
            workload::run_pass(&inputs, prepared, expected)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_ticks() - cpu0;
        if pass > 0 {
            steal_total += steal_ticks() - steal0;
            measured_s += wall;
        }
        drop(leftover);

        match &first_signature {
            None => first_signature = Some(outcome.signature.clone()),
            Some(sig) if *sig != outcome.signature => {
                outcome.failed = outcome.attempted;
                outcome.problems.push(format!(
                    "pass {pass}: simulated outcome differs from pass 0"
                ));
            }
            Some(_) => {}
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        problems.append(&mut outcome.problems);

        if let Some(ring) = ring {
            stop_trace();
            if ring.recorded() > ring.capacity() {
                problems.push(format!(
                    "pass {pass}: {} trace events overflow the ring of {}",
                    ring.recorded(),
                    ring.capacity()
                ));
            }
            let r = rollup::roll_up(&ring.events(), &miso_obs::snapshot(), "bench.pass");
            let pass_wall = r.values["trace.pass_wall_s"];
            if (r.accounted_s - pass_wall).abs() > 1e-6 {
                problems.push(format!(
                    "pass {pass}: self times add up to {} s of a {pass_wall} s pass",
                    r.accounted_s
                ));
            }
            traced.push((wall, r, outcome));
        } else if pass == 0 {
            start = Instant::now();
        } else {
            walls.push(wall);
            cpu_ticks_total += cpu;
            answered += outcome.attempted - outcome.failed;
        }
        all_walls.push(wall);

        let enough = if args.trace {
            !traced.is_empty()
        } else {
            walls.len() >= MIN_PASSES
        };
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    let steal_frac = steal_total as f64 / (TICKS_PER_S * measured_s * nproc() as f64);
    let metrics = if args.trace {
        let mut per_pass: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (wall, r, o) in &traced {
            let mut v = r.values.clone();
            v.insert("maint.grow_s".into(), o.grow_s);
            if inputs.workload == Workload::ServeSessions {
                // Every serve base run plans its query once.
                let base_runs = r
                    .values
                    .get("optimizer.query_plans")
                    .copied()
                    .unwrap_or(0.0);
                v.insert("serve.run_s".into(), *wall);
                v.insert("serve.base_runs".into(), base_runs);
                v.insert(
                    "serve.memo_hit_ratio".into(),
                    1.0 - base_runs / o.serve_delivered.max(1) as f64,
                );
                v.insert("serve.reorgs".into(), o.serve_reorgs as f64);
                v.insert("serve.drained".into(), o.serve_drained as f64);
            }
            for (k, x) in v {
                per_pass.entry(k).or_default().push(x);
            }
        }
        let traced_walls: Vec<f64> = traced.iter().map(|(w, _, _)| *w).collect();
        let mut fixed: BTreeMap<&str, f64> = BTreeMap::new();
        fixed.insert("setup.corpus_s", median(&corpus_s));
        fixed.insert("setup.compile_s", median(&compile_s));
        fixed.insert("setup.system_s", median(&system_s));
        fixed.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
        fixed.insert("trace.overhead_s", median(&traced_walls) - median(&walls));
        fixed.insert("run.pool_threads", miso_common::pool::threads() as f64);
        fixed.insert("run.nproc", nproc() as f64);
        fixed.insert("run.traced_passes", traced.len() as f64);
        fixed.insert("run.steal_frac", steal_frac);
        rollup::per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = fixed
                    .get(name.as_str())
                    .copied()
                    .unwrap_or_else(|| per_pass.get(&name).map_or(0.0, |xs| median(xs)));
                (name, value, unit)
            })
            .collect()
    } else {
        let wall_total: f64 = walls.iter().sum();
        vec![
            ("tti_wall_s".into(), median(&walls), "s"),
            ("queries_per_s".into(), answered as f64 / wall_total, "1/s"),
            (
                "cpu_ms_per_query".into(),
                cpu_ticks_total as f64 / TICKS_PER_S * 1e3 / answered.max(1) as f64,
                "ms",
            ),
            ("peak_rss_mb".into(), peak_rss_mib(), "MiB"),
            ("setup_s".into(), median(&setup_totals), "s"),
        ]
    };
    Run {
        attempted,
        failed,
        problems,
        metrics,
        walls: all_walls,
        steal_frac,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn report(args: &Args, r: &Run) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let problems: Vec<String> = r.problems.iter().map(|p| json_str(p)).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
         \"workload\": {}, \"seed\": {}, \"passes\": {}, \"pool_threads\": {}, \"nproc\": {}, \
         \"steal_frac\": {}, \"pass_walls_s\": [{}], \"problems\": [{}]}}",
        r.failed == 0 && r.problems.is_empty() && r.attempted > 0,
        r.attempted,
        r.failed,
        metrics.join(", "),
        json_str(args.workload.name()),
        args.seed,
        r.walls.len(),
        miso_common::pool::threads(),
        nproc(),
        r.steal_frac,
        r.walls
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        problems.join(", "),
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wallbench: {e}");
        std::process::exit(2);
    });
    if let Err(e) = check_env() {
        eprintln!("wallbench: refusing to run: {e}");
        std::process::exit(2);
    }
    match args.command.as_str() {
        "reference" => {
            let (inputs, _) = workload::generate(args.workload, workload::logs_config(args.seed));
            let counts: Vec<String> = workload::reference(&inputs)
                .iter()
                .map(u64::to_string)
                .collect();
            println!("{}", counts.join(" "));
        }
        "run" => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .expect("reference counts on stdin");
            let expected: Vec<u64> = text
                .split_whitespace()
                .map(|t| t.parse().expect("reference counts are integers"))
                .collect();
            let r = run(&args, &expected);
            println!("{}", report(&args, &r));
        }
        other => {
            eprintln!("wallbench: unknown command {other}");
            std::process::exit(2);
        }
    }
}
