//! Roll-up of one traced pass: span self times, `exec.op` time and rows by
//! operator class × store, and the program's own counters.
//!
//! Spans form one tree per thread. The pass root is the benchmark's own
//! `bench.pass` span; every span whose parent chain reaches it ran on the
//! benchmark's thread, so their self times plus the root's own (un-spanned)
//! time add up to the pass's wall time. Spans opened on pool worker threads
//! (what-if probes) have no parent there; they count toward their layer's
//! total time and toward `trace.offthread_s`, never toward the wall split.

use std::collections::{BTreeMap, HashMap};

use miso_obs::{Event, EventKind, FieldValue, MetricsSnapshot};

/// Span names whose self time is reported as `self.<name>_s` (`query` is
/// reported as `system.query_self_s`, the root as `trace.unspanned_s`).
const SELF_SPANS: [&str; 12] = [
    "workload.run",
    "system.etl",
    "tuner.reorg",
    "tuner.tune",
    "tuner.analyze",
    "knapsack.pack",
    "optimizer.optimize",
    "lang.compile",
    "hv.execute",
    "dw.execute",
    "exec.op",
    "bench.grow",
];

/// `exec.op` classes reported per store, as `exec.<class>.<store>_s`.
const HV_CLASSES: [&str; 6] = ["ScanLog", "Project", "Filter", "Join", "Aggregate", "Udf"];
const DW_CLASSES: [&str; 6] = ["ScanView", "Project", "Filter", "Join", "Aggregate", "Sort"];
const ETL_CLASSES: [&str; 3] = ["ScanLog", "Project", "Filter"];

/// Name and unit of every per-layer metric, in report order. Metrics whose
/// layer a workload never enters read 0 there.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    // hv + exec, HV side.
    add("hv.execute_s", "s");
    add("hv.execute_calls", "count");
    add("hv.stages_run", "count");
    add("hv.bytes_materialized", "bytes");
    add("exec.ScanLog.hv_rows", "count");
    for c in HV_CLASSES {
        add(&format!("exec.{c}.hv_s"), "s");
    }
    // dw + exec, DW side.
    add("dw.execute_s", "s");
    add("dw.bytes_scanned", "bytes");
    add("exec.col_batches", "count");
    add("exec.col_fallback_rows", "count");
    for c in DW_CLASSES {
        add(&format!("exec.{c}.dw_s"), "s");
    }
    // core etl.
    add("etl.run_s", "s");
    add("etl.exec_s", "s");
    add("exec.ScanLog.etl_rows", "count");
    for c in ETL_CLASSES {
        add(&format!("exec.{c}.etl_s"), "s");
    }
    // optimizer.
    add("optimizer.optimize_s", "s");
    add("optimizer.calls", "count");
    add("optimizer.query_plans", "count");
    add("optimizer.cost_evals", "count");
    add("plan.split_enumerations", "count");
    // tuner / views interaction / knapsack.
    add("tuner.reorg_s", "s");
    add("tuner.analyze_s", "s");
    add("knapsack.pack_s", "s");
    add("tuner.whatif_calls", "count");
    add("tuner.whatif_hit_ratio", "ratio");
    add("knapsack.dp_cells", "count");
    // core system, split path.
    add("system.query_self_s", "s");
    add("system.bytes_transferred", "bytes");
    add("query.wall_p50_ms", "ms");
    add("query.wall_max_ms", "ms");
    // core maintenance.
    add("maint.grow_s", "s");
    add("maint.exec_s", "s");
    add("maint.delta_rows", "count");
    add("maint.full_refreshes", "count");
    add("maint.fallbacks", "count");
    add("maint.fold_ratio", "ratio");
    // serve.
    add("serve.run_s", "s");
    add("serve.base_runs", "count");
    add("serve.memo_hit_ratio", "ratio");
    add("serve.reorgs", "count");
    add("serve.drained", "count");
    // set-up, including lang.
    add("setup.corpus_s", "s");
    add("setup.compile_s", "s");
    add("setup.system_s", "s");
    // retries and failures.
    add("core.retries", "count");
    add("failed_frac", "ratio");
    // the wall split of the traced pass.
    for name in SELF_SPANS {
        add(&format!("self.{name}_s"), "s");
    }
    add("self.other_s", "s");
    add("trace.pass_wall_s", "s");
    add("trace.unspanned_s", "s");
    add("trace.offthread_s", "s");
    add("trace.overhead_s", "s");
    add("trace.events", "count");
    // how the run was made.
    add("run.pool_threads", "count");
    add("run.nproc", "count");
    add("run.traced_passes", "count");
    add("run.steal_frac", "ratio");
    m
}

fn field<'a>(e: &'a Event, key: &str) -> Option<&'a FieldValue> {
    e.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The pass-level numbers of one traced pass.
pub struct PassRollup {
    pub values: BTreeMap<String, f64>,
    /// Sum of every on-thread self time plus the un-spanned remainder,
    /// which must equal `trace.pass_wall_s`.
    pub accounted_s: f64,
}

/// Rolls up the span-end events and counters of one traced pass whose
/// root is the span named `root`.
pub fn roll_up(events: &[Event], counters: &MetricsSnapshot, root: &str) -> PassRollup {
    let ends: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
        .collect();
    let by_id: HashMap<u64, &Event> = ends.iter().map(|e| (e.span, *e)).collect();
    let root_id = ends
        .iter()
        .find(|e| e.name == root)
        .map(|e| e.span)
        .expect("the traced pass records its root span");

    // Ancestor chain of a span, nearest first (parents that were not
    // recorded end the chain).
    let ancestors = |e: &Event| {
        let mut chain = Vec::new();
        let mut p = e.parent;
        while let Some(a) = by_id.get(&p) {
            chain.push(*a);
            p = a.parent;
        }
        chain
    };

    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for e in &ends {
        *child_ns.entry(e.parent).or_default() += e.dur_ns;
    }
    let self_ns = |e: &Event| {
        e.dur_ns
            .saturating_sub(child_ns.get(&e.span).copied().unwrap_or(0))
    };

    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let add = |v: &mut BTreeMap<String, f64>, k: String, x: f64| *v.entry(k).or_default() += x;
    let mut query_ms: Vec<f64> = Vec::new();
    let mut accounted_ns = 0u64;
    for e in &ends {
        let chain = ancestors(e);
        let on_thread = e.span == root_id || chain.iter().any(|a| a.span == root_id);
        let total = secs(e.dur_ns);
        match e.name {
            "hv.execute" => {
                add(&mut v, "hv.execute_s".into(), total);
                add(&mut v, "hv.execute_calls".into(), 1.0);
            }
            "dw.execute" => add(&mut v, "dw.execute_s".into(), total),
            "system.etl" => add(&mut v, "etl.run_s".into(), total),
            "optimizer.optimize" => {
                add(&mut v, "optimizer.optimize_s".into(), total);
                // Planning a query to run it, not a tuner what-if probe.
                if on_thread && !chain.iter().any(|a| a.name == "tuner.reorg") {
                    add(&mut v, "optimizer.query_plans".into(), 1.0);
                }
            }
            "tuner.reorg" => add(&mut v, "tuner.reorg_s".into(), total),
            "tuner.analyze" => add(&mut v, "tuner.analyze_s".into(), total),
            "knapsack.pack" => add(&mut v, "knapsack.pack_s".into(), total),
            "query" => query_ms.push(e.dur_ns as f64 / 1e6),
            "exec.op" => {
                // ETL and maintenance run their scans through the stores:
                // an op under either belongs to it, else to its nearest
                // store; ops under no store are maintenance.
                let under = |name: &str| chain.iter().any(|a| a.name == name);
                let store = if under("system.etl") {
                    "etl"
                } else if under("bench.grow") {
                    "maint"
                } else {
                    chain
                        .iter()
                        .find_map(|a| match a.name {
                            "hv.execute" => Some("hv"),
                            "dw.execute" => Some("dw"),
                            _ => None,
                        })
                        .unwrap_or("maint")
                };
                let class = match field(e, "op") {
                    Some(FieldValue::Str(label)) => label.split('(').next().unwrap_or(label),
                    _ => "unknown",
                };
                add(&mut v, format!("exec.{class}.{store}_s"), total);
                add(&mut v, format!("{store}.exec_s"), total);
                if let Some(FieldValue::U64(rows)) = field(e, "rows_out") {
                    add(&mut v, format!("exec.{class}.{store}_rows"), *rows as f64);
                }
            }
            _ => {}
        }
        if !on_thread {
            if chain.is_empty() {
                add(&mut v, "trace.offthread_s".into(), total);
            }
            continue;
        }
        let own = self_ns(e);
        accounted_ns += own;
        let key = if e.span == root_id {
            "trace.unspanned_s".to_string()
        } else if e.name == "query" {
            "system.query_self_s".to_string()
        } else if SELF_SPANS.contains(&e.name) {
            format!("self.{}_s", e.name)
        } else {
            "self.other_s".to_string()
        };
        add(&mut v, key, secs(own));
    }
    let root_ns = by_id[&root_id].dur_ns;
    v.insert("trace.pass_wall_s".into(), secs(root_ns));
    v.insert("trace.events".into(), events.len() as f64);

    query_ms.sort_by(f64::total_cmp);
    if !query_ms.is_empty() {
        v.insert("query.wall_p50_ms".into(), query_ms[query_ms.len() / 2]);
        v.insert("query.wall_max_ms".into(), query_ms[query_ms.len() - 1]);
    }

    let c = |name: &str| counters.counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "hv.stages_run",
        "hv.bytes_materialized",
        "dw.bytes_scanned",
        "exec.col_batches",
        "exec.col_fallback_rows",
        "optimizer.calls",
        "optimizer.cost_evals",
        "plan.split_enumerations",
        "tuner.whatif_calls",
        "knapsack.dp_cells",
        "system.bytes_transferred",
        "maint.delta_rows",
        "maint.full_refreshes",
        "maint.fallbacks",
        "serve.drained",
    ] {
        v.insert(name.into(), c(name));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    v.insert(
        "tuner.whatif_hit_ratio".into(),
        ratio(c("tuner.whatif_cache_hits"), c("tuner.whatif_calls")),
    );
    v.insert(
        "maint.fold_ratio".into(),
        ratio(
            c("maint.delta_applies"),
            c("maint.delta_applies") + c("maint.full_refreshes"),
        ),
    );
    v.insert(
        "core.retries".into(),
        c("store.retries") + c("query.hv_fallback") + c("query.view_fallback"),
    );
    PassRollup {
        values: v,
        accounted_s: secs(accounted_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(name: &'static str, span: u64, parent: u64, dur_ns: u64, op: Option<&str>) -> Event {
        Event {
            kind: EventKind::SpanEnd,
            name,
            span,
            parent,
            t_mono_ns: 0,
            dur_ns,
            sim_us: None,
            fields: op
                .map(|o| {
                    vec![
                        ("op", FieldValue::Str(o.to_string())),
                        ("rows_out", FieldValue::U64(7)),
                    ]
                })
                .unwrap_or_default(),
        }
    }

    #[test]
    fn self_times_and_remainder_add_up_to_the_pass() {
        let events = vec![
            end("exec.op", 4, 3, 300, Some("ScanLog(twitter)")),
            end("hv.execute", 3, 2, 500, None),
            end("exec.op", 6, 5, 100, Some("Join(l0=r0)")),
            end("dw.execute", 5, 2, 150, None),
            end("query", 2, 1, 1_000, None),
            // A what-if probe on a pool worker: no parent on this thread.
            end("optimizer.optimize", 7, 0, 400, None),
            end("exec.op", 8, 9, 50, Some("Filter(x)")),
            end("bench.grow", 9, 1, 80, None),
            end("bench.pass", 1, 0, 1_200, None),
        ];
        let r = roll_up(&events, &MetricsSnapshot::default(), "bench.pass");
        let v = &r.values;
        assert_eq!(v["trace.pass_wall_s"], 1.2e-6);
        assert!((r.accounted_s - 1.2e-6).abs() < 1e-15);
        assert!((v["trace.unspanned_s"] - 120e-9).abs() < 1e-15);
        assert!((v["system.query_self_s"] - 350e-9).abs() < 1e-15);
        assert_eq!(v["exec.ScanLog.hv_s"], 300e-9);
        assert_eq!(v["exec.ScanLog.hv_rows"], 7.0);
        assert_eq!(v["exec.Join.dw_s"], 100e-9);
        assert_eq!(v["exec.Filter.maint_s"], 50e-9);
        assert_eq!(v["trace.offthread_s"], 400e-9);
        assert_eq!(v["optimizer.optimize_s"], 400e-9);
        assert!(!v.contains_key("self.optimizer.optimize_s"));
    }
}
