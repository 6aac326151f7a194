//! Operator-level and full-query identity for the page-at-a-time
//! kernel pipeline.
//!
//! A [`SeqScan`] compiles its predicate into a page kernel whenever the
//! predicate's columns allow one; [`SeqScan::without_kernel`] forces the
//! row-at-a-time path on every page. The operator-level test runs both
//! scans on every predicate shape of the workload — no monitor, exact
//! and sampled monitors over every sub-conjunction, full and clustered-
//! range scans, both drivers, with and without an injected fault plan —
//! and requires *byte-identical* outcomes: counts, rows, I/O statistics
//! (including predicate-evaluation and monitor-op charges) and feedback
//! reports (sketch contents, degraded flags). The full-query tests run
//! the same workload through the planner at 1, 2, and 8 workers and
//! require every run to reproduce the jobs=1 run: counts, statistics,
//! reports, plan descriptions, simulated times, and fault retries. This
//! is the executable form of the batched-observation contract in
//! DESIGN.md §5h.

use pagefeed::{Database, FaultPlan, MonitorConfig, ParallelRunner, PredSpec, Query};
use pf_common::{Column, DataType, Datum, Row, Schema, TableId};
use pf_exec::monitor::{ScanExprMonitor, ScanMonitorSet};
use pf_exec::{drain, run_count, CompareOp, ExecContext, SeqScan};
use pf_feedback::FeedbackReport;
use pf_storage::{IoStats, TableStorage};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Rows of the scan table `t`: every kernel-eligible type (Int, Float,
/// Date) plus Str columns whose predicates force the row-at-a-time
/// path.
fn table_rows() -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("corr", DataType::Int),
        Column::new("scat", DataType::Int),
        Column::new("val", DataType::Float),
        Column::new("day", DataType::Date),
        Column::new("tag", DataType::Str),
        Column::new("pad", DataType::Str),
    ]);
    let n = 6_000i64;
    let rows = (0..n)
        .map(|i| {
            Row::new(vec![
                Datum::Int(i),
                Datum::Int(i),
                Datum::Int((i * 7919) % n),
                Datum::Float(i as f64 * 0.5),
                Datum::Date((i % 365) as i32),
                Datum::Str(format!("tag{}", i % 10)),
                Datum::Str("x".repeat(120)),
            ])
        })
        .collect::<Vec<Row>>();
    (schema, rows)
}

/// `t` with indexes so feedback can flip access paths.
fn build_db(fault_rate: f64) -> Database {
    let mut db = Database::new();
    let (schema, rows) = table_rows();
    db.create_table("t", schema, rows, Some("id")).unwrap();
    db.create_index("ix_corr", "t", "corr").unwrap();
    db.create_index("ix_scat", "t", "scat").unwrap();
    db.analyze().unwrap();
    if fault_rate > 0.0 {
        db.set_fault_plan(Some(FaultPlan::new(42, fault_rate).unwrap()))
            .unwrap();
    }
    db
}

/// Shapes covering: empty predicate, single- and multi-atom kernels over
/// each fixed-width type (up to a three-atom Int/Int/Float kernel), a
/// short-circuiting narrow+wide pair, and Str predicates that cannot
/// compile to a kernel.
fn workload() -> Vec<Query> {
    vec![
        Query::count("t", vec![]),
        Query::count(
            "t",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(4_000))],
        ),
        Query::count(
            "t",
            vec![
                PredSpec::new("corr", CompareOp::Lt, Datum::Int(4_000)),
                PredSpec::new("scat", CompareOp::Ge, Datum::Int(1_000)),
            ],
        ),
        Query::count(
            "t",
            vec![PredSpec::new("val", CompareOp::Le, Datum::Float(1_500.0))],
        ),
        Query::count(
            "t",
            vec![PredSpec::new("day", CompareOp::Lt, Datum::Date(180))],
        ),
        Query::count(
            "t",
            vec![
                PredSpec::new("corr", CompareOp::Lt, Datum::Int(150)),
                PredSpec::new("scat", CompareOp::Lt, Datum::Int(5_500)),
            ],
        ),
        Query::count(
            "t",
            vec![
                PredSpec::new("corr", CompareOp::Lt, Datum::Int(5_000)),
                PredSpec::new("scat", CompareOp::Ge, Datum::Int(500)),
                PredSpec::new("val", CompareOp::Lt, Datum::Float(2_900.0)),
            ],
        ),
        Query::count(
            "t",
            vec![PredSpec::new(
                "tag",
                CompareOp::Eq,
                Datum::Str("tag3".into()),
            )],
        ),
        Query::count(
            "t",
            vec![
                PredSpec::new("day", CompareOp::Ge, Datum::Date(90)),
                PredSpec::new("val", CompareOp::Lt, Datum::Float(2_400.0)),
                PredSpec::new("tag", CompareOp::Ne, Datum::Str("tag7".into())),
            ],
        ),
    ]
}

fn run_workload(
    db: &Database,
    queries: &[Query],
    cfg: &MonitorConfig,
    jobs: usize,
) -> Vec<pagefeed::QueryOutcome> {
    ParallelRunner::new(jobs)
        .run_queries(db, queries, cfg)
        .unwrap()
}

fn assert_outcomes_identical(
    baseline: &[pagefeed::QueryOutcome],
    other: &[pagefeed::QueryOutcome],
    what: &str,
) {
    assert_eq!(baseline.len(), other.len(), "{what}: workload length");
    for (i, (b, o)) in baseline.iter().zip(other).enumerate() {
        assert_eq!(b.count, o.count, "{what}: count diverged at query {i}");
        assert_eq!(b.stats, o.stats, "{what}: stats diverged at query {i}");
        assert_eq!(b.report, o.report, "{what}: report diverged at query {i}");
        assert_eq!(
            b.description, o.description,
            "{what}: plan diverged at query {i}"
        );
        assert!(
            (b.elapsed_ms - o.elapsed_ms).abs() < 1e-12,
            "{what}: simulated time diverged at query {i}: {} vs {}",
            b.elapsed_ms,
            o.elapsed_ms
        );
        assert_eq!(
            b.fault_retries, o.fault_retries,
            "{what}: fault retries diverged at query {i}"
        );
    }
}

/// Every worker count reproduces the jobs=1 run, exact and sampled
/// monitoring, on a fault-free database.
#[test]
fn kernel_identity_fault_free() {
    let db = build_db(0.0);
    let queries = workload();
    for cfg in [MonitorConfig::default(), MonitorConfig::sampled(0.5)] {
        let baseline = run_workload(&db, &queries, &cfg, 1);
        assert!(
            baseline.iter().any(|o| !o.report.measurements.is_empty()),
            "workload must produce feedback"
        );
        for jobs in [1usize, 2, 8] {
            let out = run_workload(&db, &queries, &cfg, jobs);
            let what = format!(
                "fault-free, sampling {}, jobs {jobs}",
                cfg.sampling_fraction
            );
            assert_outcomes_identical(&baseline, &out, &what);
        }
    }
}

/// The same identity under an injected fault plan: checksum faults,
/// retries, skipped pages, and degraded sketches reproduce exactly at
/// every worker count.
#[test]
fn kernel_identity_under_faults() {
    let db = build_db(0.01);
    let queries = workload();
    let cfg = MonitorConfig::default();
    let baseline = run_workload(&db, &queries, &cfg, 1);
    let retries: u32 = baseline.iter().map(|o| o.fault_retries).sum();
    let degraded = baseline.iter().filter(|o| o.report.is_degraded()).count();
    assert!(
        retries > 0 || degraded > 0,
        "fault plan must actually fire (retries or degraded sketches)"
    );
    for jobs in [1usize, 2, 8] {
        let out = run_workload(&db, &queries, &cfg, jobs);
        let what = format!("faulted, jobs {jobs}");
        assert_outcomes_identical(&baseline, &out, &what);
    }
}

// ---------------------------------------------------------------------
// Operator-level identity: kernel scan ≡ row-at-a-time scan.
// ---------------------------------------------------------------------

/// The storage of `t` (clustered on `id`), optionally with a fault plan
/// attached.
fn scan_storage(fault_rate: f64) -> Arc<TableStorage> {
    let (schema, rows) = table_rows();
    let mut storage = TableStorage::load_default(schema, &rows, Some(0)).unwrap();
    if fault_rate > 0.0 {
        storage.attach_fault_plan(TableId(0), Some(FaultPlan::new(42, fault_rate).unwrap()));
    }
    Arc::new(storage)
}

/// Which scan shape and driver to run.
#[derive(Debug, Clone, Copy)]
struct ScanShape {
    /// Clustered range `id ∈ [1500, 4500]` instead of a full scan.
    clustered: bool,
    /// Row-delivering driver instead of the counting one.
    rows: bool,
}

/// Everything observable about one operator-level scan run.
#[derive(Debug, PartialEq)]
struct ScanRun {
    count: u64,
    /// Delivered rows (row driver only).
    rows: Option<Vec<Row>>,
    stats: IoStats,
    elapsed_ms: f64,
    /// The attempt that succeeded (transient stalls retry cold).
    attempt: u32,
    report: FeedbackReport,
}

/// Runs `query`'s predicate as a scan of `storage`. `monitor` is the
/// sampling fraction of a monitor set over every non-empty
/// sub-conjunction of the predicate (`None`: unmonitored); `kernel`
/// selects the kernel scan or [`SeqScan::without_kernel`]. Transient
/// stalls retry from a cold context, as `Database::run` does.
fn run_scan_op(
    storage: &Arc<TableStorage>,
    query: &Query,
    monitor: Option<f64>,
    shape: ScanShape,
    kernel: bool,
) -> ScanRun {
    let Query::Count { predicate, .. } = query else {
        panic!("scan workload holds count queries only");
    };
    let pred = Query::resolve_predicates(predicate, storage.schema()).unwrap();
    let n = pred.len();
    let mut ctx = ExecContext::new(1 << 16);
    for attempt in 0..8 {
        ctx.cold_start();
        ctx.fault_attempt = attempt;
        let monitors = monitor.filter(|_| n > 0).map(|fraction| {
            let exprs = (1u32..1 << n)
                .map(|mask| {
                    let atoms = (0..n).filter(|i| mask & (1 << i) != 0).collect();
                    ScanExprMonitor::atoms(&pred, atoms, None)
                })
                .collect();
            Rc::new(RefCell::new(ScanMonitorSet::new(exprs, fraction, 0x5CA7)))
        });
        let mut scan = if shape.clustered {
            SeqScan::clustered_range(
                Arc::clone(storage),
                TableId(0),
                Some(&Datum::Int(1_500)),
                Some(&Datum::Int(4_500)),
                pred.clone(),
                monitors.clone(),
            )
            .unwrap()
        } else {
            SeqScan::full(
                Arc::clone(storage),
                TableId(0),
                pred.clone(),
                monitors.clone(),
            )
        };
        if !kernel {
            scan = scan.without_kernel();
        }
        let result = if shape.rows {
            drain(&mut scan, &mut ctx).map(|r| (r.len() as u64, Some(r)))
        } else {
            run_count(&mut scan, &mut ctx).map(|n| (n, None))
        };
        match result {
            Ok((count, rows)) => {
                drop(scan);
                let mut report = FeedbackReport::new();
                if let Some(m) = &monitors {
                    m.borrow_mut().harvest("t", &mut report);
                }
                return ScanRun {
                    count,
                    rows,
                    stats: ctx.stats(),
                    elapsed_ms: ctx.elapsed_ms(),
                    attempt,
                    report,
                };
            }
            Err(e) if e.is_transient() => continue,
            Err(e) => panic!("scan failed: {e}"),
        }
    }
    panic!("transient faults outlasted the retry budget");
}

/// Kernel scan ≡ row-at-a-time scan on every workload predicate ×
/// monitor (none, exact, sampled) × full/clustered-range scan × driver,
/// at fault rates 0 and 0.01.
#[test]
fn kernel_operator_identity() {
    for fault_rate in [0.0, 0.01] {
        let storage = scan_storage(fault_rate);
        let mut fired = false;
        for (i, query) in workload().iter().enumerate() {
            for monitor in [None, Some(1.0), Some(0.5)] {
                for clustered in [false, true] {
                    for rows in [false, true] {
                        let shape = ScanShape { clustered, rows };
                        let want = run_scan_op(&storage, query, monitor, shape, false);
                        let got = run_scan_op(&storage, query, monitor, shape, true);
                        assert_eq!(
                            want, got,
                            "query {i}, monitor {monitor:?}, {shape:?}, fault rate {fault_rate}"
                        );
                        fired |= want.attempt > 0 || want.stats.pages_skipped > 0;
                    }
                }
            }
        }
        assert_eq!(fired, fault_rate > 0.0, "fault plan fires only when set");
    }
}
