//! Full-query and operator-level identity for the hash join.
//!
//! Production [`HashJoin`] builds a radix-partitioned table a page at a
//! time, probes with borrowed row views and may push its build filter
//! into the probe scan. [`RowHashJoin`] is the row-at-a-time reference
//! (per-row `HashMap` build, per-row probe, no pushdown). The operator-
//! level tests run both on every join shape of the full-query workload —
//! the hash self-join with full page overlap, filtered builds with
//! pushdown on and off, exact and sampled semi-join monitors, the
//! counting and the row-delivering driver, with and without an injected
//! fault plan — and require *byte-identical* outcomes: counts, rows,
//! every I/O statistic (including hash and monitor-op charges), the
//! filter's bits and the harvested semi-join report. Property tests
//! extend the identity to random keys — including NaN float keys, whose
//! derived `PartialEq` semantics (each NaN build key is unreachable)
//! both operators must reproduce — and check the `BitVectorFilter` bulk
//! insert and the radix table against per-row reference models. The
//! full-query tests pin jobs-invariance of the same workload at 1, 2 and
//! 8 workers. This is the executable form of the batching contract in
//! DESIGN.md §5k.

use pagefeed::{Database, FaultPlan, MonitorConfig, ParallelRunner, PredSpec, Query};
use pf_common::{Column, DataType, Datum, DatumRef, Row, Schema, TableId};
use pf_exec::join::{BitVectorConfig, HashJoin};
use pf_exec::monitor::{semi_join_slot, ScanExprMonitor, ScanMonitorSet};
use pf_exec::reference::RowHashJoin;
use pf_exec::{
    drain, run_count, CompareOp, Conjunction, ExecContext, Operator, RadixTable, SeqScan,
};
use pf_feedback::{BitVectorFilter, FeedbackReport};
use pf_storage::{IoStats, TableStorage};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Rows of the join table `t`: `corr` is clustered (equal to the row
/// id), `scat` a scrambled permutation.
fn table_rows() -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("corr", DataType::Int),
        Column::new("scat", DataType::Int),
        Column::new("pad", DataType::Str),
    ]);
    let n = 6_000i64;
    let rows = (0..n)
        .map(|i| {
            Row::new(vec![
                Datum::Int(i),
                Datum::Int(i),
                Datum::Int((i * 7919) % n),
                Datum::Str("x".repeat(120)),
            ])
        })
        .collect::<Vec<Row>>();
    (schema, rows)
}

/// `t` joined against itself, both join columns indexed so semi-join
/// monitoring (and with it filter pushdown) engages.
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

/// Join shapes covering: a hash self-join with full page overlap, low-
/// and mid-selectivity filtered builds (the pushdown regime), the
/// scattered and the clustered inner key (the latter is the Hash → INL
/// feedback case), and an unfiltered full cross-multiplicity join.
fn workload() -> Vec<Query> {
    vec![
        Query::join_count("t", "t", vec![], "corr", "scat"),
        Query::join_count(
            "t",
            "t",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(300))],
            "corr",
            "scat",
        ),
        Query::join_count(
            "t",
            "t",
            vec![PredSpec::new("corr", CompareOp::Lt, Datum::Int(2_500))],
            "corr",
            "scat",
        ),
        Query::join_count(
            "t",
            "t",
            vec![PredSpec::new("scat", CompareOp::Lt, Datum::Int(400))],
            "scat",
            "corr",
        ),
        Query::join_count(
            "t",
            "t",
            vec![PredSpec::new("corr", CompareOp::Ge, Datum::Int(5_000))],
            "corr",
            "corr",
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

/// Every worker count reproduces the production jobs=1 run, exact and
/// sampled monitoring, on a fault-free database.
#[test]
fn join_identity_fault_free() {
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
fn join_identity_under_faults() {
    let db = build_db(0.01);
    let queries = workload();
    let cfg = MonitorConfig::default();
    let baseline = run_workload(&db, &queries, &cfg, 1);
    for jobs in [1usize, 2, 8] {
        let out = run_workload(&db, &queries, &cfg, jobs);
        let what = format!("faulted, jobs {jobs}");
        assert_outcomes_identical(&baseline, &out, &what);
    }
}

// ---------------------------------------------------------------------
// Operator-level identity on the workload's join shapes.
// ---------------------------------------------------------------------

/// The storage of `t`, optionally with a fault plan attached.
fn join_storage(fault_rate: f64) -> Arc<TableStorage> {
    let (schema, rows) = table_rows();
    let mut storage = TableStorage::load_default(schema, &rows, Some(0)).unwrap();
    if fault_rate > 0.0 {
        storage.attach_fault_plan(TableId(0), Some(FaultPlan::new(42, fault_rate).unwrap()));
    }
    Arc::new(storage)
}

/// Which driver pulls the join.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Count,
    Rows,
}

/// Everything observable about one operator-level join run.
#[derive(Debug, PartialEq)]
struct JoinRun {
    count: u64,
    /// Delivered rows (row driver only).
    rows: Option<Vec<Row>>,
    stats: IoStats,
    elapsed_ms: f64,
    /// The attempt that succeeded (transient stalls retry cold).
    attempt: u32,
    /// Debug rendering of the build filter left in the semi-join slot
    /// (bits, insertion count, degraded state).
    filter: Option<String>,
    report: FeedbackReport,
}

/// Runs `query`'s join directly on `storage` as a self-join (build and
/// probe scan the same pages). `monitor` is the probe scan's semi-join
/// sampling fraction (`None`: no filter, no monitor); `pushdown` is the
/// filter's pushdown flag. Transient stalls retry from a cold context,
/// as `Database::run` does.
fn run_join_op(
    storage: &Arc<TableStorage>,
    query: &Query,
    monitor: Option<f64>,
    pushdown: bool,
    driver: Driver,
    reference: bool,
) -> JoinRun {
    let (_, _, preds, outer_col, inner_col) = query.as_join().unwrap();
    let schema = storage.schema();
    let pred = Query::resolve_predicates(preds, schema).unwrap();
    let build_key = schema.index_of(outer_col).unwrap();
    let probe_key = schema.index_of(inner_col).unwrap();
    let mut ctx = ExecContext::new(1 << 16);
    for attempt in 0..8 {
        ctx.cold_start();
        ctx.fault_attempt = attempt;
        let slot = semi_join_slot(probe_key);
        let monitors = monitor.map(|fraction| {
            Rc::new(RefCell::new(ScanMonitorSet::new(
                vec![ScanExprMonitor::semi_join(
                    "t.k=t.k",
                    Rc::clone(&slot),
                    None,
                )],
                fraction,
                0xB17,
            )))
        });
        let bitvector = monitor.map(|_| BitVectorConfig {
            slot: Rc::clone(&slot),
            numbits: 1 << 15,
            seed: 0xF117,
            pushdown,
        });
        let build = Box::new(SeqScan::full(
            Arc::clone(storage),
            TableId(0),
            pred.clone(),
            None,
        ));
        let probe = Box::new(SeqScan::full(
            Arc::clone(storage),
            TableId(0),
            Conjunction::always_true(),
            monitors.clone(),
        ));
        let mut op: Box<dyn Operator> = if reference {
            Box::new(RowHashJoin::new(
                build, probe, build_key, probe_key, bitvector,
            ))
        } else {
            Box::new(HashJoin::new(build, probe, build_key, probe_key, bitvector))
        };
        let result = match driver {
            Driver::Count => run_count(op.as_mut(), &mut ctx).map(|n| (n, None)),
            Driver::Rows => drain(op.as_mut(), &mut ctx).map(|r| (r.len() as u64, Some(r))),
        };
        match result {
            Ok((count, rows)) => {
                drop(op);
                let mut report = FeedbackReport::new();
                if let Some(m) = &monitors {
                    m.borrow_mut().harvest("t", &mut report);
                }
                let filter = slot.borrow().filter.as_ref().map(|f| format!("{f:?}"));
                return JoinRun {
                    count,
                    rows,
                    stats: ctx.stats(),
                    elapsed_ms: ctx.elapsed_ms(),
                    attempt,
                    filter,
                    report,
                };
            }
            Err(e) if e.is_transient() => continue,
            Err(e) => panic!("join failed: {e}"),
        }
    }
    panic!("transient faults outlasted the retry budget");
}

/// Production ≡ reference on every workload shape × monitor/pushdown
/// variant × driver, at fault rates 0 and 0.01.
#[test]
fn join_operator_identity() {
    let variants: [(Option<f64>, bool); 5] = [
        (None, false),
        (Some(1.0), false),
        (Some(1.0), true),
        (Some(0.5), false),
        (Some(0.5), true),
    ];
    for fault_rate in [0.0, 0.01] {
        let storage = join_storage(fault_rate);
        let mut fired = false;
        for (i, query) in workload().iter().enumerate() {
            for (monitor, pushdown) in variants {
                for driver in [Driver::Count, Driver::Rows] {
                    let want = run_join_op(&storage, query, monitor, pushdown, driver, true);
                    let got = run_join_op(&storage, query, monitor, pushdown, driver, false);
                    assert_eq!(
                        want, got,
                        "query {i}, monitor {monitor:?}, pushdown {pushdown}, \
                         {driver:?} driver, fault rate {fault_rate}"
                    );
                    if monitor.is_some() {
                        assert!(want.filter.is_some(), "query {i}: filter installed");
                        assert!(!want.report.measurements.is_empty(), "query {i}: feedback");
                    }
                    fired |= want.attempt > 0 || want.stats.pages_skipped > 0;
                }
            }
        }
        assert_eq!(fired, fault_rate > 0.0, "fault plan fires only when set");
    }
}

// ---------------------------------------------------------------------
// Operator-level identity over arbitrary keys (direct construction, so
// NaN join keys — which no planner workload produces — are covered).
// ---------------------------------------------------------------------

/// A single-column table of join keys (page size kept small so multi-
/// page self-joins exercise page overlap).
fn key_table(keys: &[Datum]) -> Arc<TableStorage> {
    let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
    let schema = if keys.iter().any(|d| matches!(d, Datum::Float(_))) {
        Schema::new(vec![Column::new("k", DataType::Float)])
    } else {
        schema
    };
    let rows: Vec<Row> = keys.iter().map(|k| Row::new(vec![k.clone()])).collect();
    Arc::new(TableStorage::bulk_load(schema, &rows, None, 512, 1.0).expect("bulk load"))
}

/// `build ⋈ probe` on key column 0: the production [`HashJoin`], or the
/// [`RowHashJoin`] reference when `reference` is set.
fn key_join(
    build: &Arc<TableStorage>,
    probe: &Arc<TableStorage>,
    reference: bool,
) -> Box<dyn Operator> {
    let scan = |t: &Arc<TableStorage>, id: u32| {
        Box::new(SeqScan::full(
            Arc::clone(t),
            TableId(id),
            Conjunction::always_true(),
            None,
        ))
    };
    let (b, p) = (scan(build, 0), scan(probe, 1));
    if reference {
        Box::new(RowHashJoin::new(b, p, 0, 0, None))
    } else {
        Box::new(HashJoin::new(b, p, 0, 0, None))
    }
}

/// Runs the join via the counting driver: `(count, I/O statistics)`.
fn hash_join_count(
    build: &Arc<TableStorage>,
    probe: &Arc<TableStorage>,
    reference: bool,
) -> (u64, IoStats) {
    let mut hj = key_join(build, probe, reference);
    let mut ctx = ExecContext::new(8_192);
    let n = run_count(hj.as_mut(), &mut ctx).expect("join drains");
    (n, ctx.stats())
}

/// Same join via the row-delivering driver: `(rows, I/O statistics)`.
fn hash_join_rows(
    build: &Arc<TableStorage>,
    probe: &Arc<TableStorage>,
    reference: bool,
) -> (Vec<Row>, IoStats) {
    let mut hj = key_join(build, probe, reference);
    let mut ctx = ExecContext::new(8_192);
    let rows = drain(hj.as_mut(), &mut ctx).expect("join drains");
    (rows, ctx.stats())
}

/// Quantized floats (forcing genuine key collisions), signed zeros
/// normalized so hash-equality and `==` agree, with NaN injected by
/// index — every non-NaN equality is then a bit equality, and NaN keys
/// never match anything under either pipeline.
fn float_keys(raw: &[f64], nan_every: usize) -> Vec<Datum> {
    raw.iter()
        .enumerate()
        .map(|(i, x)| {
            if nan_every != 0 && i % nan_every == 0 {
                Datum::Float(f64::NAN)
            } else {
                Datum::Float((x * 4.0).round() / 4.0 + 0.0)
            }
        })
        .collect()
}

/// Brute-force reference: pairs equal under `Datum` equality. With
/// normalized zeros this is exactly what both hash joins deliver.
fn nested_loop_count(build: &[Datum], probe: &[Datum]) -> u64 {
    probe
        .iter()
        .map(|p| build.iter().filter(|b| *b == p).count() as u64)
        .sum()
}

proptest! {
    /// Production ≡ reference ≡ brute force for random int keys, in
    /// count *and* row mode, including every I/O charge.
    #[test]
    fn vector_join_identity_int_keys(
        build in prop::collection::vec(-20i64..20, 0..120),
        probe in prop::collection::vec(-20i64..20, 0..120),
    ) {
        let bk: Vec<Datum> = build.iter().copied().map(Datum::Int).collect();
        let pk: Vec<Datum> = probe.iter().copied().map(Datum::Int).collect();
        let (bt, pt) = (key_table(&bk), key_table(&pk));
        let (n_ref, s_ref) = hash_join_count(&bt, &pt, true);
        let (n, s) = hash_join_count(&bt, &pt, false);
        prop_assert_eq!(n_ref, n);
        prop_assert_eq!(s_ref, s);
        prop_assert_eq!(n, nested_loop_count(&bk, &pk));
        let (r_ref, rs_ref) = hash_join_rows(&bt, &pt, true);
        let (r, rs) = hash_join_rows(&bt, &pt, false);
        prop_assert_eq!(&r_ref, &r);
        prop_assert_eq!(rs_ref, rs);
        prop_assert_eq!(r.len() as u64, n);
    }

    /// The same identity over float keys with injected NaNs: each NaN
    /// build key is its own unreachable entry and NaN probes never
    /// match, in both operators.
    #[test]
    fn vector_join_identity_nan_float_keys(
        build in prop::collection::vec(-4.0f64..4.0, 1..80),
        probe in prop::collection::vec(-4.0f64..4.0, 1..80),
        nan_every in 2usize..6,
    ) {
        let bk = float_keys(&build, nan_every);
        let pk = float_keys(&probe, nan_every);
        let (bt, pt) = (key_table(&bk), key_table(&pk));
        let (n_ref, s_ref) = hash_join_count(&bt, &pt, true);
        let (n, s) = hash_join_count(&bt, &pt, false);
        prop_assert_eq!(n_ref, n);
        prop_assert_eq!(s_ref, s);
        prop_assert_eq!(n, nested_loop_count(&bk, &pk));
    }

    /// Hash self-join with full page overlap: the same storage feeds
    /// build and probe, so probe pages are pool hits — identically
    /// charged by both operators.
    #[test]
    fn vector_self_join_page_overlap(
        keys in prop::collection::vec(0i64..30, 1..200),
    ) {
        let ks: Vec<Datum> = keys.iter().copied().map(Datum::Int).collect();
        let t = key_table(&ks);
        let (n_ref, s_ref) = hash_join_count(&t, &t, true);
        let (n, s) = hash_join_count(&t, &t, false);
        prop_assert_eq!(n_ref, n);
        prop_assert_eq!(s_ref, s);
        prop_assert_eq!(n, nested_loop_count(&ks, &ks));
    }

    /// The radix table replicates `HashMap<Datum, count>` multiplicity
    /// semantics for arbitrary keys and partition counts.
    #[test]
    fn radix_table_matches_hashmap_reference(
        keys in prop::collection::vec(-10i64..10, 0..300),
        probes in prop::collection::vec(-15i64..15, 0..60),
        parts in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut table = RadixTable::new(parts, seed);
        let mut reference: HashMap<Datum, u64> = HashMap::new();
        for k in &keys {
            let d = Datum::Int(*k);
            table.insert(DatumRef::from(&d), None);
            *reference.entry(d).or_insert(0) += 1;
        }
        prop_assert_eq!(table.distinct_keys(), reference.len());
        prop_assert_eq!(table.total_rows(), keys.len() as u64);
        for p in &probes {
            let d = Datum::Int(*p);
            prop_assert_eq!(
                table.matches(DatumRef::from(&d)),
                reference.get(&d).copied().unwrap_or(0));
        }
    }

    /// `BitVectorFilter::insert_batch` ≡ per-row `insert_ref`, and both
    /// ≡ OR-merging per-fragment filters: same bits, same insertion
    /// count, same membership answers.
    #[test]
    fn filter_bulk_insert_matches_per_row_and_merge(
        keys in prop::collection::vec(-50i64..50, 0..200),
        split in 0usize..200,
        numbits in 64usize..2048,
        seed in any::<u64>(),
    ) {
        let ks: Vec<Datum> = keys.iter().copied().map(Datum::Int).collect();
        let split = split.min(ks.len());

        let mut per_row = BitVectorFilter::new(numbits, seed);
        for k in &ks {
            per_row.insert_ref(DatumRef::from(k));
        }

        let mut bulk = BitVectorFilter::new(numbits, seed);
        let n = bulk.insert_batch(ks.iter().map(DatumRef::from));
        prop_assert_eq!(n, ks.len() as u64);

        let mut left = BitVectorFilter::new(numbits, seed);
        left.insert_batch(ks[..split].iter().map(DatumRef::from));
        let mut right = BitVectorFilter::new(numbits, seed);
        right.insert_batch(ks[split..].iter().map(DatumRef::from));
        left.merge(&right).expect("same shape");

        prop_assert_eq!(per_row.insertions(), bulk.insertions());
        prop_assert_eq!(per_row.insertions(), left.insertions());
        for probe in -60i64..60 {
            let d = Datum::Int(probe);
            let want = per_row.may_contain(&d);
            prop_assert_eq!(bulk.may_contain(&d), want);
            prop_assert_eq!(left.may_contain(&d), want);
        }
    }
}
