//! Determinism tests for the miso-vex morsel-parallel execution engine.
//!
//! The contract under test: the worker count is a pure performance lever.
//! Every retained node output — not just the root — must be byte-identical
//! for `MISO_THREADS` ∈ {1, 2, 8}, and identical to the preserved seed
//! row-at-a-time interpreter ([`miso::exec::execute_serial`]), across every
//! operator: scans (including malformed-line skipping), filter, project,
//! join (including NULL-key semantics), aggregate (every accumulator
//! variant), UDFs, sort (including ties), and limit.

use miso::common::pool;
use miso::data::{DataType, Field, Row, Schema, Value};
use miso::exec::engine::execute;
use miso::exec::{execute_serial, Execution, MemSource, Udf, UdfRegistry};
use miso::plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use std::sync::Arc;

/// Asserts a vex execution `b` ran the same nodes as the serial oracle `a`
/// with identical row counts and skip accounting, and identical rows for
/// every node `b` retains. Only a log scan fused into its SerDe projection
/// keeps no rows; its projection's rows are compared instead.
fn assert_executions_eq(plan: &LogicalPlan, a: &Execution, b: &Execution, what: &str) {
    assert_eq!(a.skipped_lines, b.skipped_lines, "{what}: skipped_lines");
    let mut ids_a: Vec<_> = a.executed_nodes().collect();
    ids_a.sort_unstable();
    let mut ids_b: Vec<_> = b.executed_nodes().collect();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b, "{what}: executed node sets");
    for id in ids_a {
        assert_eq!(a.rows_out(id), b.rows_out(id), "{what}: rows_out {id}");
        match b.try_output(id) {
            Some(rows) => assert_eq!(a.try_output(id), Some(rows), "{what}: node {id}"),
            None => assert!(
                matches!(plan.node(id).op, Operator::ScanLog { .. }),
                "{what}: node {id} kept no rows"
            ),
        }
    }
}

/// Runs a plan serially and under the vex engine at 1, 2 and 8 workers,
/// asserting all four executions are byte-identical.
fn assert_thread_invariant(plan: &LogicalPlan, src: &MemSource, udfs: &UdfRegistry, what: &str) {
    let before = pool::threads();
    pool::set_threads(1);
    let serial = execute_serial(plan, src, udfs).expect("serial run succeeds");
    for t in [1usize, 2, 8] {
        pool::set_threads(t);
        let vex = execute(plan, src, udfs).expect("vex run succeeds");
        assert_executions_eq(plan, &serial, &vex, &format!("{what} @ {t} threads"));
    }
    pool::set_threads(before);
}

fn int_field(name: &str) -> Field {
    Field::new(name, DataType::Int)
}

/// ScanLog → SerDe Project → Filter → Aggregate over malformed,
/// duplicate-key, nested, missing-field and explicit-null lines: the scan
/// is fused into its projection, which reads the parsed log image.
#[test]
fn serde_pipeline_is_thread_invariant() {
    let lines: Vec<String> = (0..3 * 4096 + 50u64)
        .map(|i| match i % 6 {
            0 => format!("not json #{i}"),
            1 => format!(r#"{{"uid": {i}, "uid": {}, "city": "dup"}}"#, i % 40),
            2 => format!(
                r#"{{"uid": {}, "tags": [{i}, {{"a": 1}}], "city": "n"}}"#,
                i % 40
            ),
            3 => r#"{"city": "no uid"}"#.to_string(),
            4 => r#"{"uid": null, "city": null}"#.to_string(),
            _ => format!(r#"{{"uid": "{}", "city": "c{}"}}"#, i % 40, i % 7),
        })
        .collect();
    let mut src = MemSource::new();
    src.add_log("events", lines);
    let mut b = PlanBuilder::new();
    let scan = b
        .add(
            Operator::ScanLog {
                log: "events".into(),
            },
            vec![],
        )
        .unwrap();
    let proj = b
        .add(
            Operator::Project {
                exprs: vec![
                    ("uid".into(), Expr::col(0).get("uid").cast(DataType::Int)),
                    ("city".into(), Expr::col(0).get("city")),
                    ("tags".into(), Expr::col(0).get("tags")),
                ],
            },
            vec![scan],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: Expr::Binary {
                    op: BinOp::Lt,
                    left: Box::new(Expr::col(0)),
                    right: Box::new(Expr::lit(30i64)),
                },
            },
            vec![proj],
        )
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![1],
                aggs: vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::Max, Some(Expr::col(0)), "hi"),
                ],
            },
            vec![filt],
        )
        .unwrap();
    let plan = b.finish(agg).unwrap();
    let udfs = UdfRegistry::new();
    assert_thread_invariant(&plan, &src, &udfs, "serde pipeline");
    let vex = execute(&plan, &src, &udfs).unwrap();
    assert!(vex.try_output(scan).is_none(), "scan fused");
    assert_eq!(vex.skipped_lines, (3 * 4096 + 50u64).div_ceil(6));
}

/// ScanLog (with malformed lines) → UDF (filters + reshapes) → Filter →
/// Sort → Limit: the log-side operator chain, spanning several morsels.
#[test]
fn log_pipeline_is_thread_invariant() {
    let mut lines = Vec::new();
    for i in 0..20_000u64 {
        if i % 61 == 17 {
            lines.push(format!("not json #{i}"));
        } else {
            lines.push(format!(
                r#"{{"uid": {}, "score": {}}}"#,
                i % 900,
                (i * 13) % 500
            ));
        }
    }
    let mut src = MemSource::new();
    src.add_log("events", lines);

    let mut udfs = UdfRegistry::new();
    let udf_schema = Schema::new(vec![int_field("uid"), int_field("score")]);
    udfs.register(Udf::new(
        "uid_score",
        udf_schema.clone(),
        Arc::new(|row: &Row| {
            let rec = row.get(0);
            match (
                rec.get_field("uid").and_then(Value::as_i64),
                rec.get_field("score").and_then(Value::as_i64),
            ) {
                // Drop a slice of rows so the UDF's 0-or-1 fanout is on show.
                (Some(uid), Some(score)) if uid % 7 != 3 => {
                    Ok(vec![Row::new(vec![Value::Int(uid), Value::Int(score)])])
                }
                _ => Ok(vec![]),
            }
        }),
    ));

    let mut b = PlanBuilder::new();
    let scan = b
        .add(
            Operator::ScanLog {
                log: "events".into(),
            },
            vec![],
        )
        .unwrap();
    let udf = b
        .add(
            Operator::Udf {
                name: "uid_score".into(),
                output: udf_schema,
            },
            vec![scan],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: Expr::Binary {
                    op: BinOp::Lt,
                    left: Box::new(Expr::col(1)),
                    right: Box::new(Expr::lit(400i64)),
                },
            },
            vec![udf],
        )
        .unwrap();
    // score has heavy ties (500 distinct values over ~16k rows), so the
    // sort exercises the index tiebreak against the serial stable sort.
    let sort = b
        .add(
            Operator::Sort {
                keys: vec![(1, true), (0, false)],
            },
            vec![filt],
        )
        .unwrap();
    let limit = b.add(Operator::Limit { n: 1000 }, vec![sort]).unwrap();
    let plan = b.finish(limit).unwrap();

    assert_thread_invariant(&plan, &src, &udfs, "log pipeline");

    // The malformed-line count itself is part of the contract.
    pool::set_threads(8);
    let vex = execute(&plan, &src, &udfs).unwrap();
    assert_eq!(
        vex.skipped_lines,
        (0..20_000u64).filter(|i| i % 61 == 17).count() as u64
    );
    pool::set_threads(1);
}

/// ScanView ×2 → Join → Project → Aggregate with every accumulator variant
/// (Count, CountDistinct, Sum over ints, Sum over floats, Avg, Min, Max).
#[test]
fn join_aggregate_pipeline_is_thread_invariant() {
    let mut src = MemSource::new();
    src.add_view(
        "facts",
        (0..30_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 1500),
                    Value::Int((i * 31) % 1000),
                    Value::Float((i % 777) as f64 * 0.5),
                ])
            })
            .collect(),
    );
    src.add_view(
        "dims",
        (0..1500)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::str(format!("seg-{:02}", i % 40)),
                ])
            })
            .collect(),
    );
    let mut b = PlanBuilder::new();
    let facts = b
        .add(
            Operator::ScanView {
                view: "facts".into(),
                schema: Schema::new(vec![
                    int_field("uid"),
                    int_field("val"),
                    Field::new("score", DataType::Float),
                ]),
            },
            vec![],
        )
        .unwrap();
    let dims = b
        .add(
            Operator::ScanView {
                view: "dims".into(),
                schema: Schema::new(vec![int_field("uid"), Field::new("seg", DataType::Str)]),
            },
            vec![],
        )
        .unwrap();
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![facts, dims])
        .unwrap();
    let proj = b
        .add(
            Operator::Project {
                exprs: vec![
                    ("seg".into(), Expr::col(4)),
                    ("val".into(), Expr::col(1)),
                    ("score".into(), Expr::col(2)),
                ],
            },
            vec![join],
        )
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(1)), "d"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(2)), "ftotal"),
                    AggExpr::new(AggFunc::Avg, Some(Expr::col(2)), "avg"),
                    AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
                    AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
                ],
            },
            vec![proj],
        )
        .unwrap();
    let plan = b.finish(agg).unwrap();
    assert_thread_invariant(&plan, &src, &UdfRegistry::new(), "join+aggregate");
}

/// NULL join keys never match — on either side, at any thread count.
#[test]
fn null_join_keys_never_match() {
    let mut src = MemSource::new();
    src.add_view(
        "left",
        (0..10_000)
            .map(|i| {
                let key = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 100)
                };
                Row::new(vec![key, Value::Int(i)])
            })
            .collect(),
    );
    src.add_view(
        "right",
        (0..100)
            .map(|i| {
                let key = if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                };
                Row::new(vec![key, Value::str(format!("r{i}"))])
            })
            .collect(),
    );
    let schema_l = Schema::new(vec![int_field("k"), int_field("v")]);
    let schema_r = Schema::new(vec![int_field("k"), Field::new("tag", DataType::Str)]);
    let mut b = PlanBuilder::new();
    let l = b
        .add(
            Operator::ScanView {
                view: "left".into(),
                schema: schema_l,
            },
            vec![],
        )
        .unwrap();
    let r = b
        .add(
            Operator::ScanView {
                view: "right".into(),
                schema: schema_r,
            },
            vec![],
        )
        .unwrap();
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![l, r])
        .unwrap();
    let plan = b.finish(join).unwrap();
    let udfs = UdfRegistry::new();

    assert_thread_invariant(&plan, &src, &udfs, "null-key join");

    pool::set_threads(8);
    let out = execute(&plan, &src, &udfs).unwrap();
    for row in out.root_rows().unwrap() {
        assert!(!row.get(0).is_null(), "null key leaked into join output");
        assert!(!row.get(2).is_null(), "null key leaked into join output");
    }
    pool::set_threads(1);
}

/// A global (no GROUP BY) aggregate over an empty input still yields one
/// row, identically on every engine.
#[test]
fn empty_global_aggregate_is_thread_invariant() {
    let mut src = MemSource::new();
    src.add_view("empty", Vec::new());
    let mut b = PlanBuilder::new();
    let sv = b
        .add(
            Operator::ScanView {
                view: "empty".into(),
                schema: Schema::new(vec![int_field("v")]),
            },
            vec![],
        )
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![],
                aggs: vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(0)), "total"),
                    AggExpr::new(AggFunc::Avg, Some(Expr::col(0)), "avg"),
                    AggExpr::new(AggFunc::Min, Some(Expr::col(0)), "lo"),
                ],
            },
            vec![sv],
        )
        .unwrap();
    let plan = b.finish(agg).unwrap();
    assert_thread_invariant(&plan, &src, &UdfRegistry::new(), "empty global aggregate");
}

/// Property tests: the vex engine agrees with the serial oracle on random
/// inputs, shapes and thread counts. Needs the crates.io `proptest` crate;
/// enable the `extern-deps` feature to run.
#[cfg(feature = "extern-deps")]
mod random_plans {
    use super::*;
    use proptest::prelude::*;

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            3 => (-50i64..50).prop_map(Value::Int),
            1 => Just(Value::Null),
            1 => (0i64..8).prop_map(|i| Value::str(format!("s{i}"))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// ScanView → Filter → Aggregate → Sort over random rows matches
        /// the serial oracle at a random thread count.
        #[test]
        fn random_pipeline_matches_serial(
            rows in proptest::collection::vec((value_strategy(), -100i64..100), 0..600),
            threshold in -100i64..100,
            threads in 1usize..=8,
        ) {
            let mut src = MemSource::new();
            src.add_view(
                "t",
                rows.iter()
                    .map(|(k, v)| Row::new(vec![k.clone(), Value::Int(*v)]))
                    .collect(),
            );
            let mut b = PlanBuilder::new();
            let sv = b
                .add(
                    Operator::ScanView {
                        view: "t".into(),
                        schema: Schema::new(vec![int_field("k"), int_field("v")]),
                    },
                    vec![],
                )
                .unwrap();
            let filt = b
                .add(
                    Operator::Filter {
                        predicate: Expr::Binary {
                            op: BinOp::Lt,
                            left: Box::new(Expr::col(1)),
                            right: Box::new(Expr::lit(threshold)),
                        },
                    },
                    vec![sv],
                )
                .unwrap();
            let agg = b
                .add(
                    Operator::Aggregate {
                        group_by: vec![0],
                        aggs: vec![
                            AggExpr::new(AggFunc::Count, None, "n"),
                            AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                            AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
                        ],
                    },
                    vec![filt],
                )
                .unwrap();
            let sort = b
                .add(Operator::Sort { keys: vec![(1, true)] }, vec![agg])
                .unwrap();
            let plan = b.finish(sort).unwrap();
            let udfs = UdfRegistry::new();

            let before = pool::threads();
            pool::set_threads(1);
            let serial = execute_serial(&plan, &src, &udfs).unwrap();
            pool::set_threads(threads);
            let vex = execute(&plan, &src, &udfs).unwrap();
            pool::set_threads(before);
            assert_executions_eq(&plan, &serial, &vex, &format!("random plan @ {threads} threads"));
        }

        /// Random join inputs (with NULLs mixed in) match the serial oracle.
        #[test]
        fn random_join_matches_serial(
            left in proptest::collection::vec(value_strategy(), 0..400),
            right in proptest::collection::vec(value_strategy(), 0..100),
            threads in 1usize..=8,
        ) {
            let mut src = MemSource::new();
            src.add_view(
                "l",
                left.iter()
                    .enumerate()
                    .map(|(i, k)| Row::new(vec![k.clone(), Value::Int(i as i64)]))
                    .collect(),
            );
            src.add_view(
                "r",
                right
                    .iter()
                    .enumerate()
                    .map(|(i, k)| Row::new(vec![k.clone(), Value::Int(-(i as i64))]))
                    .collect(),
            );
            let schema = Schema::new(vec![int_field("k"), int_field("v")]);
            let mut b = PlanBuilder::new();
            let l = b
                .add(
                    Operator::ScanView {
                        view: "l".into(),
                        schema: schema.clone(),
                    },
                    vec![],
                )
                .unwrap();
            let r = b
                .add(
                    Operator::ScanView {
                        view: "r".into(),
                        schema,
                    },
                    vec![],
                )
                .unwrap();
            let join = b.add(Operator::Join { on: vec![(0, 0)] }, vec![l, r]).unwrap();
            let plan = b.finish(join).unwrap();
            let udfs = UdfRegistry::new();

            let before = pool::threads();
            pool::set_threads(1);
            let serial = execute_serial(&plan, &src, &udfs).unwrap();
            pool::set_threads(threads);
            let vex = execute(&plan, &src, &udfs).unwrap();
            pool::set_threads(before);
            assert_executions_eq(&plan, &serial, &vex, &format!("random join @ {threads} threads"));
        }
    }
}
