//! The workloads and the run that measures them.
//!
//! One run: generate inputs from the seed; set up the database
//! `setup_reps` times (timing each, keeping the last); run an untimed
//! warm-up; run closed-loop ops for the measured seconds; check outputs;
//! and, when traced, probe the layers the workload's own ops do not call.
//!
//! The timed ops run in passes: a seeded shuffle of a fixed multiset of
//! steps. The first `window_passes` passes, together with the warm-up,
//! form the deterministic window: the digest and `sim_ms_per_op` cover
//! exactly these, so both repeat exactly for a seed however fast the
//! host is.

use crate::data::{self, PoolQuery, COLUMNS};
use crate::stats::{mean, median, ms_since, quantile, samples_above, Digest, Json, Metrics, Spans};
use pagefeed::{
    Database, FeedbackOutcome, MonitorConfig, ParallelRunner, PlanCacheStats, QueryOutcome,
    RunStats,
};
use pf_common::rng::Rng;
use pf_common::{Error, Result, Row};
use pf_feedback::FeedbackReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker count of the parallel-vs-serial comparison in traced runs; the
/// caller counts as one of the workers.
const JOBS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperScan,
    PaperJoin,
    OnlineDurable,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperScan,
        Workload::PaperJoin,
        Workload::OnlineDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperScan => "paper_scan",
            Workload::PaperJoin => "paper_join",
            Workload::OnlineDurable => "online_durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether an op is one `Database::feedback_loop`.
    fn is_paper(self) -> bool {
        matches!(self, Workload::PaperScan | Workload::PaperJoin)
    }

    fn needs_t1(self) -> bool {
        self == Workload::PaperJoin
    }
}

/// Input size and run shape of one workload.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Rows in `T` (and in `T1` where the workload joins).
    rows: usize,
    /// Pool queries per predicate column.
    per_column: usize,
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Timed passes inside the deterministic window.
    window_passes: usize,
}

impl Sizes {
    fn of(w: Workload, tiny: bool) -> Sizes {
        if tiny {
            return Sizes {
                rows: 4_000,
                per_column: 2,
                setup_reps: 2,
                window_passes: 1,
            };
        }
        Sizes {
            rows: 160_000,
            per_column: if w.is_paper() { 6 } else { 12 },
            setup_reps: 3,
            window_passes: 2,
        }
    }
}

/// `online_durable`: ops per pass, Zipf exponent of the shape mix, share
/// of ops that are monitored and absorbed durably, and compaction
/// cadence.
const ONLINE_PASS: usize = 1_000;
const ZIPF_THETA: f64 = 1.0;
const MONITORED_SHARE: f64 = 0.2;
const COMPACT_EVERY: usize = 64;
/// Reports appended by the traced WAL probe on workloads without a store.
const WAL_PROBE_APPENDS: usize = 200;
/// Pool queries the traced oracle probe injects on workloads whose ops
/// never call the oracle.
const ORACLE_PROBE_QUERIES: usize = 8;
/// Passes of the parallel-vs-serial comparison.
const PARALLEL_PASSES: usize = 2;
/// Passes of the traced same-plan monitors-on/off probe.
const EXEC_PROBE_PASSES: usize = 2;
/// Pool queries (evenly spaced, so every column is represented) that
/// answer the Fig 6/8 question on workloads whose ops are not feedback
/// loops.
const FEEDBACK_PROBE_QUERIES: usize = 16;
/// Fewest ops behind the timed end-to-end metrics, so that the p90 has
/// more than ten samples above it.
const FAST_OPS: usize = 110;
/// Sampled pool queries whose counts are re-checked by brute force.
const TRUE_CARDINALITY_CHECKS: usize = 4;

/// One run's command-line parameters.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

/// Seeded inputs, generated before any timer starts.
struct Inputs {
    t: Vec<Row>,
    t1: Option<Vec<Row>>,
    pool: Vec<PoolQuery>,
}

/// Seeds of `T`'s rows (`T1` adds 1_000_003) and of the narrow shapes'
/// positions.
fn input_seeds(seed: u64) -> (u64, u64) {
    let data_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (data_seed, data_seed ^ 0x5EED_0F01)
}

impl Inputs {
    fn generate(w: Workload, sizes: &Sizes, seed: u64) -> Inputs {
        let n = sizes.rows;
        let (data_seed, query_seed) = input_seeds(seed);
        let pool = match w {
            Workload::PaperScan => data::scan_pool(n, sizes.per_column),
            Workload::PaperJoin => data::join_pool(n, sizes.per_column),
            Workload::OnlineDurable => data::narrow_pool(n, sizes.per_column, query_seed),
        };
        Inputs {
            t: data::synthetic_rows(n, data_seed),
            t1: w
                .needs_t1()
                .then(|| data::synthetic_rows(n, data_seed + 1_000_003)),
            pool,
        }
    }
}

/// Wall time of each phase of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    load: f64,
    index: f64,
    analyze: f64,
    total: f64,
}

/// Creates tables, indexes and statistics (and, on `online_durable`,
/// shrinks the buffer pool to a quarter of `T` and attaches a durable
/// store in `store_dir`). Only the calls into the program are timed.
fn setup(inputs: &Inputs, store_dir: Option<&Path>) -> Result<(Database, SetupTimes)> {
    let t = inputs.t.clone();
    let t1 = inputs.t1.clone();
    let schema = pf_workloads::synthetic::schema;
    let start = Instant::now();
    let mut db = Database::new();
    db.create_table("T", schema(), t, Some("c1"))?;
    if let Some(t1) = t1 {
        db.create_table("T1", schema(), t1, Some("c1"))?;
    }
    let load = start.elapsed().as_secs_f64();
    for c in COLUMNS {
        db.create_index(&format!("ix_T_{c}"), "T", c)?;
    }
    let index = start.elapsed().as_secs_f64() - load;
    db.analyze()?;
    let analyze = start.elapsed().as_secs_f64() - load - index;
    if let Some(dir) = store_dir {
        db.pool_pages = (t_pages(&db)? / 4).max(1);
        db.attach_feedback_store(dir)?;
    }
    let total = start.elapsed().as_secs_f64();
    Ok((
        db,
        SetupTimes {
            load,
            index,
            analyze,
            total,
        },
    ))
}

fn t_pages(db: &Database) -> Result<usize> {
    Ok(db.catalog().table_by_name("T")?.stats.pages as usize)
}

/// One unit of closed-loop work: the pool query it runs and how.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `feedback_loop` (paper_*).
    Loop(usize),
    /// Unmonitored read (online_durable).
    Read(usize),
    /// Monitored query plus durable absorb (online_durable).
    Monitored(usize),
}

/// One pass of the op stream. `online_durable`: `ONLINE_PASS` ops whose
/// shapes follow Zipf(`ZIPF_THETA`) over the popularity-ordered pool in
/// exact proportion, each shape's ops split `MONITORED_SHARE` monitored
/// (at least one, so every shape keeps absorbing feedback). Otherwise
/// every pool query once.
fn pass_steps(w: Workload, pool_len: usize) -> Vec<Step> {
    match w {
        Workload::PaperScan | Workload::PaperJoin => (0..pool_len).map(Step::Loop).collect(),
        Workload::OnlineDurable => {
            let weight = |rank: usize| 1.0 / ((rank + 1) as f64).powf(ZIPF_THETA);
            let total: f64 = (0..pool_len).map(weight).sum();
            let mut steps = Vec::new();
            for shape in 0..pool_len {
                let ops = ((ONLINE_PASS as f64 * weight(shape) / total).round() as usize).max(1);
                let monitored = ((ops as f64 * MONITORED_SHARE).round() as usize).max(1);
                steps.extend((0..monitored).map(|_| Step::Monitored(shape)));
                steps.extend((monitored..ops).map(|_| Step::Read(shape)));
            }
            steps
        }
    }
}

/// The seeded op sequence: each pass is a fresh shuffle of the same
/// steps, so every seed runs the same mix in its own order.
struct Stream {
    rng: Rng,
    pass: Vec<Step>,
    pos: usize,
}

impl Stream {
    fn new(w: Workload, pool_len: usize, seed: u64) -> Stream {
        let pass = pass_steps(w, pool_len);
        Stream {
            rng: Rng::new(seed ^ 0x0057_4EA3),
            pos: pass.len(),
            pass,
        }
    }

    fn next(&mut self) -> Step {
        if self.pos == self.pass.len() {
            self.rng.shuffle(&mut self.pass);
            self.pos = 0;
        }
        self.pos += 1;
        self.pass[self.pos - 1]
    }
}

/// Counters summed over the `execute` calls the benchmark made.
#[derive(Debug, Default)]
struct ExecCounters {
    executions: u64,
    rows: u64,
    logical_reads: u64,
    physical_reads: u64,
    monitor_bytes: Vec<f64>,
}

impl ExecCounters {
    fn add(&mut self, out: &QueryOutcome, monitored: bool) {
        self.executions += 1;
        self.rows += out.stats.rows_processed;
        self.logical_reads += out.stats.logical_reads;
        self.physical_reads += out.stats.physical_reads();
        if monitored {
            self.monitor_bytes.push(out.monitor_bytes as f64);
        }
    }
}

/// Spans and counters from one source: the workload's own ops, or the
/// probes a traced run adds for layers those ops do not call.
#[derive(Debug, Default)]
struct Layers {
    spans: Spans,
    exec: ExecCounters,
}

/// What one op produced, for the end-to-end metrics.
struct OpResult {
    ok: bool,
    /// Simulated time of the op's final run.
    sim_ms: f64,
    feedback: Option<(f64, f64)>,
    /// The report a feedback loop harvested.
    report: Option<FeedbackReport>,
    /// Operator chosen for the op's final run.
    plan: &'static str,
}

struct Bench {
    w: Workload,
    db: Database,
    pool: Vec<PoolQuery>,
    runner: ParallelRunner,
    store_dir: Option<PathBuf>,
    ops: Layers,
    probe: Layers,
    digest: Digest,
    /// Runner statistics of the morsel runs in the parallel comparison.
    parallel_runs: Vec<RunStats>,
    durable_absorbs: usize,
    wal_bytes_appended: u64,
    reports: Vec<FeedbackReport>,
}

fn same_outcome(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.count == b.count
        && a.stats == b.stats
        && a.elapsed_ms.to_bits() == b.elapsed_ms.to_bits()
        && a.report == b.report
        && a.description == b.description
}

impl Bench {
    /// Runs one op; `traced` composes it call by call from each layer's
    /// public function, timing each, and must do exactly the same work
    /// as the single API call the untraced op makes. `record` folds the
    /// op into the digest.
    fn op(&mut self, step: Step, traced: bool, record: bool) -> Result<OpResult> {
        match step {
            Step::Loop(i) => self.feedback_op(i, traced, record),
            Step::Read(i) | Step::Monitored(i) => {
                let monitored = matches!(step, Step::Monitored(_));
                self.online_op(i, monitored, traced, record)
            }
        }
    }

    fn feedback_op(&mut self, i: usize, traced: bool, record: bool) -> Result<OpResult> {
        let PoolQuery {
            query,
            expected,
            cfg,
        } = &self.pool[i];
        let fb = if traced {
            let (db, l) = (&mut self.db, &mut self.ops);
            l.spans
                .time("oracle", || db.inject_accurate_cardinalities(query))?;
            let plan = l.spans.time("planner", || db.lower(query, cfg))?;
            let monitored = l.spans.time("exec.monitored", || db.execute(plan))?;
            l.exec.add(&monitored, true);
            let plan = l
                .spans
                .time("planner", || db.lower(query, &MonitorConfig::off()))?;
            let before = l.spans.time("exec.unmonitored", || db.execute(plan))?;
            l.exec.add(&before, false);
            let report = monitored.report.clone();
            l.spans.time("absorb", || db.absorb_feedback(&report))?;
            db.train_dpc_histograms(query, &report)?;
            let plan = l
                .spans
                .time("planner", || db.lower(query, &MonitorConfig::off()))?;
            let after = l.spans.time("exec.final", || db.execute(plan))?;
            l.exec.add(&after, false);
            FeedbackOutcome {
                monitored_elapsed_ms: monitored.elapsed_ms,
                before,
                after,
                report,
            }
        } else {
            self.db.feedback_loop(query, cfg)?
        };
        if record {
            self.digest.outcome(&fb.before);
            self.digest.outcome(&fb.after);
            self.digest.f64(fb.monitored_elapsed_ms);
            self.digest.report(&fb.report);
        }
        Ok(OpResult {
            ok: fb.before.count == *expected && fb.after.count == *expected,
            sim_ms: fb.after.elapsed_ms,
            feedback: Some((fb.speedup(), fb.overhead())),
            plan: fb.after.choice.name(),
            report: Some(fb.report),
        })
    }

    fn online_op(
        &mut self,
        i: usize,
        monitored: bool,
        traced: bool,
        record: bool,
    ) -> Result<OpResult> {
        let PoolQuery {
            query,
            expected,
            cfg,
        } = &self.pool[i];
        let off = MonitorConfig::off();
        let cfg = if monitored { cfg } else { &off };
        let (db, l) = (&mut self.db, &mut self.ops);
        let out = if traced {
            let plan = l.spans.time("planner", || db.lower(query, cfg))?;
            let name = if monitored {
                "exec.monitored"
            } else {
                "exec.unmonitored"
            };
            let out = l.spans.time(name, || db.execute(plan))?;
            l.exec.add(&out, monitored);
            out
        } else {
            db.run(query, cfg)?
        };
        if monitored {
            self.durable_absorbs += 1;
            let compact = self.durable_absorbs.is_multiple_of(COMPACT_EVERY);
            if traced {
                l.spans
                    .time("wal.append", || db.absorb_feedback(&out.report))?;
            } else {
                db.absorb_feedback(&out.report)?;
            }
            if compact {
                let store = db
                    .feedback_store_mut()
                    .ok_or_else(|| Error::Internal("online_durable lost its store".into()))?;
                self.wal_bytes_appended += store.stats().wal_bytes;
                if traced {
                    l.spans.time("wal.compact", || store.compact())?;
                } else {
                    store.compact()?;
                }
            }
        }
        if record {
            self.digest.outcome(&out);
        }
        Ok(OpResult {
            ok: out.count == *expected,
            sim_ms: out.elapsed_ms,
            feedback: None,
            report: None,
            plan: out.choice.name(),
        })
    }

    /// Runs every pool query through `ParallelRunner::run_query` at
    /// `JOBS` workers and through `Database::run`, alternating which goes
    /// first, and counts the queries whose outcomes differ. Times both
    /// into the probe spans.
    fn parallel_vs_serial(&mut self, passes: usize) -> Result<u64> {
        let mut mismatches = 0;
        let (db, l, runner, runs) = (
            &self.db,
            &mut self.probe,
            &self.runner,
            &mut self.parallel_runs,
        );
        for pass in 0..passes {
            for (i, q) in self.pool.iter().enumerate() {
                let mut par = None;
                let mut ser = None;
                for turn in 0..2 {
                    if (turn + pass + i) % 2 == 0 {
                        let prior = runner.last_run_stats();
                        par = Some(l.spans.time("parallel.run_query", || {
                            runner.run_query(db, &q.query, &q.cfg)
                        })?);
                        // A query that falls back to a serial run leaves
                        // the runner's statistics as they were.
                        match runner.last_run_stats() {
                            Some(now) if Some(&now) != prior.as_ref() => runs.push(now),
                            _ => {}
                        }
                    } else {
                        ser = Some(
                            l.spans
                                .time("parallel.serial", || db.run(&q.query, &q.cfg))?,
                        );
                    }
                }
                let (par, ser) = (
                    par.ok_or_else(|| Error::Internal("parallel run missing".into()))?,
                    ser.ok_or_else(|| Error::Internal("serial run missing".into()))?,
                );
                if !same_outcome(&par, &ser) || par.count != q.expected {
                    eprintln!(
                        "run_query differs from run on pool query {i}: {:?}",
                        q.query
                    );
                    mismatches += 1;
                }
            }
        }
        Ok(mismatches)
    }

    /// Re-counts a sample of pool queries by brute force over the table.
    fn true_cardinality_checks(&self) -> Result<(u64, u64)> {
        let mut checked = 0;
        let mut failed = 0;
        let step = (self.pool.len() / TRUE_CARDINALITY_CHECKS).max(1);
        for q in self.pool.iter().step_by(step).take(TRUE_CARDINALITY_CHECKS) {
            let (table, preds) = match &q.query {
                pagefeed::Query::Count {
                    table, predicate, ..
                } => (table, predicate),
                // Each filtered outer row joins exactly one inner row, so
                // the join count is the outer filter's cardinality.
                pagefeed::Query::JoinCount {
                    outer, outer_pred, ..
                } => (outer, outer_pred),
            };
            let schema = self.db.catalog().table_by_name(table)?.schema().clone();
            let pred = pagefeed::Query::resolve_predicates(preds, &schema)?;
            let n = self.db.true_cardinality(table, &pred)?;
            checked += 1;
            if n != q.expected {
                eprintln!(
                    "true cardinality {n} != expected {} for {:?}",
                    q.expected, q.query
                );
                failed += 1;
            }
        }
        Ok((checked, failed))
    }

    /// Closes the store and reopens it: recovery must return every
    /// report the store held.
    fn reopen_check(&mut self) -> Result<bool> {
        let dir = self
            .store_dir
            .clone()
            .ok_or_else(|| Error::Internal("online_durable has no store".into()))?;
        let held = self
            .db
            .feedback_store()
            .map(|s| s.stats().records)
            .ok_or_else(|| Error::Internal("online_durable lost its store".into()))?;
        drop(self.db.detach_feedback_store());
        let recovered = self.db.attach_feedback_store(&dir)?;
        if recovered != held {
            eprintln!("store held {held} reports but reopening recovered {recovered}");
        }
        Ok(recovered == held)
    }

    /// Same lowered plan with monitors on and off, for every pool query;
    /// keeps the harvested reports for the absorb and WAL probes.
    fn exec_probe(&mut self) -> Result<()> {
        let off = MonitorConfig::off();
        for _ in 0..EXEC_PROBE_PASSES {
            for q in &self.pool {
                let (db, l) = (&self.db, &mut self.probe);
                let plan = l.spans.time("planner", || db.lower(&q.query, &q.cfg))?;
                let on = l.spans.time("exec.monitored", || db.execute(plan))?;
                l.exec.add(&on, true);
                let plan = l.spans.time("planner", || db.lower(&q.query, &off))?;
                let unmonitored = l.spans.time("exec.unmonitored", || db.execute(plan))?;
                l.exec.add(&unmonitored, false);
                if on.description != unmonitored.description {
                    return Err(Error::Internal(format!(
                        "monitors changed the plan of {:?}",
                        q.query
                    )));
                }
                self.reports.push(on.report);
            }
        }
        Ok(())
    }

    fn absorb_probe(&mut self) -> Result<()> {
        drop(self.db.detach_feedback_store());
        for report in &self.reports {
            let db = &mut self.db;
            self.probe
                .spans
                .time("absorb", || db.absorb_feedback(report))?;
        }
        Ok(())
    }

    fn wal_probe(&mut self, dir: &Path) -> Result<()> {
        self.db.attach_feedback_store(dir)?;
        for k in 0..WAL_PROBE_APPENDS {
            let report = &self.reports[k % self.reports.len()];
            let (db, l) = (&mut self.db, &mut self.probe);
            l.spans.time("wal.append", || db.absorb_feedback(report))?;
            self.durable_absorbs += 1;
            if (k + 1).is_multiple_of(COMPACT_EVERY) {
                let store = db
                    .feedback_store_mut()
                    .ok_or_else(|| Error::Internal("probe store detached".into()))?;
                self.wal_bytes_appended += store.stats().wal_bytes;
                l.spans.time("wal.compact", || store.compact())?;
            }
        }
        self.wal_bytes_appended += self.wal_bytes_now();
        drop(self.db.detach_feedback_store());
        Ok(())
    }

    fn oracle_probe(&mut self) -> Result<()> {
        for q in self.pool.iter().take(ORACLE_PROBE_QUERIES) {
            let db = &mut self.db;
            self.probe
                .spans
                .time("oracle", || db.inject_accurate_cardinalities(&q.query))?;
        }
        Ok(())
    }

    fn wal_bytes_now(&self) -> u64 {
        self.db.feedback_store().map_or(0, |s| s.stats().wal_bytes)
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Process high-water resident set size in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Error::Internal(format!("reading /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Error::Internal("no VmHWM in /proc/self/status".into()))
}

/// Everything one run prints.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub info: Json,
}

/// Ops and checks attempted, and how many failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `n` checks of which `bad` failed.
    fn add_checks(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// The set-ups of one run.
struct SetUp {
    db: Database,
    store_dir: Option<PathBuf>,
    times: Vec<SetupTimes>,
    /// `(speedup, overhead)` of the Fig 6/8 probe on a spare database
    /// (workloads whose ops are not feedback loops).
    feedback: Vec<(f64, f64)>,
}

/// Sets up `setup_reps` times and keeps the last database. The first
/// spare database answers the Fig 6/8 question for workloads whose ops
/// are not feedback loops: one `feedback_loop` per sampled pool query on
/// fresh statistics, before the measured database exists.
fn set_up(w: Workload, inputs: &Inputs, reps: usize, work: &Path) -> Result<SetUp> {
    let mut times = Vec::new();
    let mut feedback = Vec::new();
    for rep in 0..reps {
        let store_dir = (w == Workload::OnlineDurable).then(|| work.join(format!("store-{rep}")));
        let (mut db, t) = setup(inputs, store_dir.as_deref())?;
        times.push(t);
        if rep + 1 == reps {
            return Ok(SetUp {
                db,
                store_dir,
                times,
                feedback,
            });
        }
        if rep == 0 && !w.is_paper() {
            drop(db.detach_feedback_store());
            let step = (inputs.pool.len() / FEEDBACK_PROBE_QUERIES).max(1);
            for q in inputs.pool.iter().step_by(step) {
                let fb = db.feedback_loop(&q.query, &q.cfg)?;
                feedback.push((fb.speedup(), fb.overhead()));
            }
        }
    }
    Err(Error::Internal("no set-up ran".into()))
}

/// What the timed phase measured.
struct Timed {
    /// Ops per pass; `latencies` holds whole passes.
    pass_len: usize,
    /// Wall time of each pass.
    pass_ms: Vec<f64>,
    latencies: Vec<f64>,
    traced: Vec<f64>,
    plain: Vec<f64>,
    /// Simulated time of each op in the deterministic window.
    window_sim: Vec<f64>,
    wall_s: f64,
    cache_before: PlanCacheStats,
    cache_after: PlanCacheStats,
}

impl Bench {
    /// Untimed warm-up: one op per pool query in pool order — on
    /// online_durable a monitored one, so every shape has absorbed its
    /// feedback (and flipped its plan) before timing starts. It also pays
    /// the one-time page checksum verification. Returns the feedback
    /// loops' `(speedup, overhead)` and how often each plan ran.
    fn warm_up(
        &mut self,
        trace: bool,
        tally: &mut Tally,
    ) -> (Vec<(f64, f64)>, BTreeMap<&'static str, u64>) {
        let mut feedback = Vec::new();
        let mut plans = BTreeMap::new();
        for i in 0..self.pool.len() {
            let step = match self.w {
                Workload::PaperScan | Workload::PaperJoin => Step::Loop(i),
                Workload::OnlineDurable => Step::Monitored(i),
            };
            match self.op(step, trace, true) {
                Ok(r) => {
                    tally.add(r.ok);
                    feedback.extend(r.feedback);
                    self.reports.extend(r.report);
                    *plans.entry(r.plan).or_insert(0) += 1;
                }
                Err(e) => {
                    eprintln!("warm-up op {i} failed: {e}");
                    tally.add(false);
                }
            }
        }
        (feedback, plans)
    }

    /// The closed loop: one client, each op sent when the previous one
    /// returned, in whole passes, for `seconds` and at least three times
    /// the passes `fastest_passes` picks. A traced run alternates traced
    /// and plain ops so that `trace.overhead` compares the two under the
    /// same conditions.
    fn timed(&mut self, args: &RunArgs, sizes: &Sizes, tally: &mut Tally) -> Result<Timed> {
        let mut stream = Stream::new(self.w, self.pool.len(), args.seed);
        let pass_len = stream.pass.len();
        let window_ops = sizes.window_passes * pass_len;
        let min_passes = (3 * FAST_OPS.div_ceil(pass_len)).max(sizes.window_passes);
        let mut t = Timed {
            pass_len,
            pass_ms: Vec::new(),
            latencies: Vec::new(),
            traced: Vec::new(),
            plain: Vec::new(),
            window_sim: Vec::new(),
            wall_s: 0.0,
            cache_before: self.db.plan_cache_stats(),
            cache_after: PlanCacheStats::default(),
        };
        let cap = args.seconds * 3.0 + 30.0;
        let start = Instant::now();
        let mut pass_start = start;
        loop {
            let n = t.latencies.len();
            if n.is_multiple_of(pass_len) {
                if n > 0 {
                    t.pass_ms.push(ms_since(pass_start));
                }
                let elapsed = start.elapsed().as_secs_f64();
                if (elapsed >= args.seconds && t.pass_ms.len() >= min_passes) || elapsed >= cap {
                    break;
                }
                pass_start = Instant::now();
            }
            let traced = args.trace && n.is_multiple_of(2);
            let in_window = n < window_ops;
            let step = stream.next();
            let op_start = Instant::now();
            let r = self.op(step, traced, in_window);
            let ms = ms_since(op_start);
            t.latencies.push(ms);
            if traced {
                t.traced.push(ms);
            } else {
                t.plain.push(ms);
            }
            match r {
                Ok(r) => {
                    tally.add(r.ok);
                    if in_window {
                        t.window_sim.push(r.sim_ms);
                    }
                }
                Err(e) => {
                    eprintln!("op {n} failed: {e}");
                    tally.add(false);
                }
            }
        }
        t.wall_s = start.elapsed().as_secs_f64();
        t.cache_after = self.db.plan_cache_stats();
        if t.pass_ms.len() < min_passes {
            return Err(Error::Internal(format!(
                "only {} passes in {cap} s; the run needs {min_passes}",
                t.pass_ms.len()
            )));
        }
        Ok(t)
    }

    /// Output checks after the timed phase.
    fn check(&mut self, trace: bool, tally: &mut Tally) -> Result<()> {
        let (checked, bad) = self.true_cardinality_checks()?;
        tally.add_checks(checked, bad);
        if trace {
            let bad = self.parallel_vs_serial(PARALLEL_PASSES)?;
            tally.add_checks((self.pool.len() * PARALLEL_PASSES) as u64, bad);
        }
        if self.w == Workload::OnlineDurable {
            self.wal_bytes_appended += self.wal_bytes_now();
            let ok = self.reopen_check()?;
            tally.add(ok);
        }
        Ok(())
    }

    /// Traced runs only, after the deterministic window: probes the layers
    /// the workload's own ops do not call.
    fn probe_layers(&mut self, work: &Path) -> Result<()> {
        if !self.w.is_paper() {
            self.exec_probe()?;
        }
        if self.ops.spans.get("absorb").is_empty() {
            self.absorb_probe()?;
        }
        if self.ops.spans.get("wal.append").is_empty() {
            self.wal_probe(&work.join("wal-probe"))?;
        }
        if self.ops.spans.get("oracle").is_empty() {
            self.oracle_probe()?;
        }
        Ok(())
    }
}

pub fn run(args: &RunArgs, work_root: &Path) -> Result<RunReport> {
    let w = args.workload;
    let sizes = Sizes::of(w, args.tiny);
    let inputs = Inputs::generate(w, &sizes, args.seed);
    let work = WorkDir(work_root.join(format!("{}-{}", w.name(), std::process::id())));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0)
        .map_err(|e| Error::Internal(format!("creating {}: {e}", work.0.display())))?;

    let run_start = Instant::now();
    let mut phases: Vec<(String, Json)> = Vec::new();
    let mut phase = Instant::now();
    let mut mark = |name: &str| {
        phases.push((name.to_string(), Json::Num(phase.elapsed().as_secs_f64())));
        phase = Instant::now();
    };

    let set = set_up(w, &inputs, sizes.setup_reps, &work.0)?;
    let pages = t_pages(&set.db)?;
    let pool_pages = set.db.pool_pages;
    let mut b = Bench {
        w,
        db: set.db,
        pool: inputs.pool,
        runner: ParallelRunner::new(JOBS),
        store_dir: set.store_dir,
        ops: Layers::default(),
        probe: Layers::default(),
        digest: Digest::default(),
        parallel_runs: Vec::new(),
        durable_absorbs: 0,
        wal_bytes_appended: 0,
        reports: Vec::new(),
    };
    drop(inputs.t);
    drop(inputs.t1);
    mark("setup");

    let mut tally = Tally::default();
    let (warm_feedback, warm_plans) = b.warm_up(args.trace, &mut tally);
    let warmup_ops = b.pool.len();
    mark("warmup");
    let t = b.timed(args, &sizes, &mut tally)?;
    mark("timed");
    b.check(args.trace, &mut tally)?;
    mark("checks");
    if args.trace {
        b.probe_layers(&work.0)?;
    }
    mark("probes");
    phases.push(("total".into(), Json::Num(run_start.elapsed().as_secs_f64())));

    let feedback = if w.is_paper() {
        warm_feedback
    } else {
        set.feedback
    };
    let metrics = if args.trace {
        per_layer(&b, &set.times, &t)
    } else {
        end_to_end(&set.times, &t, &feedback)?
    };

    let (fast, fast_wall_s) = t.fastest_passes();
    let mut samples = vec![
        ("op_latency".to_string(), Json::Int(fast.len() as u64)),
        (
            "op_latency_above_p90".to_string(),
            Json::Int(samples_above(&fast, 0.9) as u64),
        ),
        (
            "op_latency_all".to_string(),
            Json::Int(t.latencies.len() as u64),
        ),
        ("setup".to_string(), Json::Int(set.times.len() as u64)),
        (
            "sim_window".to_string(),
            Json::Int(t.window_sim.len() as u64),
        ),
        ("sim_feedback".to_string(), Json::Int(feedback.len() as u64)),
    ];
    if args.trace {
        samples.push(("traced_ops".into(), Json::Int(t.traced.len() as u64)));
        samples.push(("plain_ops".into(), Json::Int(t.plain.len() as u64)));
        samples.push((
            "parallel_runs".into(),
            Json::Int(b.parallel_runs.len() as u64),
        ));
        for (src, l) in [("ops", &b.ops), ("probe", &b.probe)] {
            for (name, n) in l.spans.iter() {
                samples.push((format!("{src}.{name}"), Json::Int(n as u64)));
            }
        }
    }
    let (data_seed, query_seed) = input_seeds(args.seed);
    let info = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(args.seed)),
        ("data_seed", Json::Int(data_seed)),
        ("query_seed", Json::Int(query_seed)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        (
            "hardware_threads",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("jobs", Json::Int(1)),
        ("parallel_check_jobs", Json::Int(JOBS as u64)),
        ("rows_T", Json::Int(sizes.rows as u64)),
        (
            "rows_T1",
            Json::Int(if w.needs_t1() { sizes.rows as u64 } else { 0 }),
        ),
        ("pages_T", Json::Int(pages as u64)),
        ("pool_pages", Json::Int(pool_pages as u64)),
        ("pool_queries", Json::Int(b.pool.len() as u64)),
        (
            "wal_flush",
            Json::str(if w == Workload::OnlineDurable {
                "sync_data after every append; compaction every 64 appends"
            } else {
                "no store attached"
            }),
        ),
        ("warmup_ops", Json::Int(warmup_ops as u64)),
        (
            "warmup_plans",
            Json::obj(warm_plans.into_iter().map(|(k, n)| (k, Json::Int(n)))),
        ),
        ("window_ops", Json::Int(t.window_sim.len() as u64)),
        ("timed_ops", Json::Int(t.latencies.len() as u64)),
        ("timed_wall_s", Json::Num(t.wall_s)),
        ("pass_ops", Json::Int(t.pass_len as u64)),
        ("passes", Json::Int(t.pass_ms.len() as u64)),
        ("fast_passes", Json::Int((fast.len() / t.pass_len) as u64)),
        ("fast_wall_s", Json::Num(fast_wall_s)),
        (
            "all_ops",
            Json::obj([
                ("ops_per_s", Json::Num(t.latencies.len() as f64 / t.wall_s)),
                (
                    "op_p50_ms",
                    Json::Num(quantile(&t.latencies, 0.5).unwrap_or(0.0)),
                ),
                (
                    "op_p90_ms",
                    Json::Num(quantile(&t.latencies, 0.9).unwrap_or(0.0)),
                ),
            ]),
        ),
        (
            "op_p50_ms_by_tenth",
            Json::Obj(
                t.latencies
                    .chunks(t.latencies.len().div_ceil(10))
                    .enumerate()
                    .map(|(k, c)| (k.to_string(), Json::Num(median(c).unwrap_or(0.0))))
                    .collect(),
            ),
        ),
        ("phase_s", Json::Obj(phases)),
        ("samples", Json::Obj(samples)),
        ("digest", Json::str(b.digest.hex())),
        (
            "failed_frac",
            Json::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
    ]);
    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
    })
}

impl Timed {
    /// The fastest third of the passes (at least `FAST_OPS` ops): their op
    /// latencies and their wall time in seconds.
    ///
    /// Every pass runs the same ops, so passes differ only in how much
    /// other tenants of the host slowed them. On a 2-thread VM the speed
    /// swings by up to 40 % for seconds at a time and the share of slow
    /// time varies from run to run; the fastest passes are the part of a
    /// run that repeats.
    fn fastest_passes(&self) -> (Vec<f64>, f64) {
        let k = self
            .pass_ms
            .len()
            .div_ceil(3)
            .max(FAST_OPS.div_ceil(self.pass_len))
            .min(self.pass_ms.len());
        let mut order: Vec<usize> = (0..self.pass_ms.len()).collect();
        order.sort_by(|&a, &b| self.pass_ms[a].total_cmp(&self.pass_ms[b]));
        let chosen = &order[..k];
        let latencies = chosen
            .iter()
            .flat_map(|&p| &self.latencies[p * self.pass_len..(p + 1) * self.pass_len])
            .copied()
            .collect();
        let wall_ms = chosen.iter().fold(0.0, |a, &p| a + self.pass_ms[p]);
        (latencies, wall_ms / 1e3)
    }
}

fn end_to_end(setups: &[SetupTimes], t: &Timed, feedback: &[(f64, f64)]) -> Result<Metrics> {
    let need = |what: &str, v: Option<f64>| {
        v.filter(|x| x.is_finite())
            .ok_or_else(|| Error::Internal(format!("no finite value for {what}")))
    };
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total).collect();
    let speedups: Vec<f64> = feedback.iter().map(|f| f.0).collect();
    let overhead_max = feedback.iter().map(|f| f.1).reduce(f64::max);
    let (fast, fast_wall_s) = t.fastest_passes();
    Ok(Metrics::from([
        ("setup_s", (need("setup_s", median(&setup_s))?, "s")),
        ("peak_rss_mb", (peak_rss_mb()?, "MiB")),
        ("ops_per_s", (fast.len() as f64 / fast_wall_s, "1/s")),
        (
            "op_p50_ms",
            (need("op_p50_ms", quantile(&fast, 0.5))?, "ms"),
        ),
        (
            "op_p90_ms",
            (need("op_p90_ms", quantile(&fast, 0.9))?, "ms"),
        ),
        (
            "sim_ms_per_op",
            (need("sim_ms_per_op", mean(&t.window_sim))?, "ms"),
        ),
        (
            "sim_speedup_mean",
            (need("sim_speedup_mean", mean(&speedups))?, "ratio"),
        ),
        (
            "sim_overhead_max",
            (need("sim_overhead_max", overhead_max)?, "ratio"),
        ),
    ]))
}

fn per_layer(b: &Bench, setups: &[SetupTimes], t: &Timed) -> Metrics {
    let mut m = Metrics::new();
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    m.insert(
        "setup.load_s",
        (med(setups.iter().map(|s| s.load).collect()), "s"),
    );
    m.insert(
        "setup.index_s",
        (med(setups.iter().map(|s| s.index).collect()), "s"),
    );
    m.insert(
        "setup.analyze_s",
        (med(setups.iter().map(|s| s.analyze).collect()), "s"),
    );

    // A layer's spans come from the workload's own ops where those call
    // it, and otherwise from the probe.
    let pick = |name: &str| -> &[f64] {
        let own = b.ops.spans.get(name);
        if own.is_empty() {
            b.probe.spans.get(name)
        } else {
            own
        }
    };
    let p50 = |name: &str| median(pick(name)).unwrap_or(0.0);

    m.insert("oracle.inject_ms_p50", (p50("oracle"), "ms"));
    let traced_wall: f64 = t.traced.iter().fold(0.0, |a, b| a + b);
    m.insert(
        "oracle.share",
        (
            b.ops.spans.total("oracle") / traced_wall.max(f64::MIN_POSITIVE),
            "ratio",
        ),
    );

    m.insert("planner.lower_us_p50", (p50("planner") * 1e3, "us"));
    let (before, after) = (&t.cache_before, &t.cache_after);
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    m.insert(
        "plan_cache.hit_rate",
        (hits as f64 / (hits + misses).max(1) as f64, "ratio"),
    );
    m.insert(
        "plan_cache.invalidations_per_op",
        (
            (after.invalidations - before.invalidations) as f64 / t.latencies.len() as f64,
            "1/op",
        ),
    );

    // Same-plan monitors on vs off: the paper ops run exactly that pair;
    // elsewhere the probe does.
    let exec = if b.w.is_paper() { &b.ops } else { &b.probe };
    let on = median(exec.spans.get("exec.monitored")).unwrap_or(0.0);
    let off = median(exec.spans.get("exec.unmonitored")).unwrap_or(0.0);
    m.insert("exec.monitored_ms_p50", (p50("exec.monitored"), "ms"));
    m.insert("exec.unmonitored_ms_p50", (p50("exec.unmonitored"), "ms"));
    m.insert(
        "exec.monitor_overhead_wall",
        (if off > 0.0 { on / off - 1.0 } else { 0.0 }, "ratio"),
    );
    let counters = if b.ops.exec.executions > 0 {
        &b.ops
    } else {
        &b.probe
    };
    let exec_ms: f64 = ["exec.monitored", "exec.unmonitored", "exec.final"]
        .iter()
        .map(|n| counters.spans.total(n))
        .fold(0.0, |a, b| a + b);
    let c = &counters.exec;
    m.insert(
        "exec.rows_per_s",
        (
            c.rows as f64 / (exec_ms / 1e3).max(f64::MIN_POSITIVE),
            "1/s",
        ),
    );
    m.insert(
        "exec.logical_reads_per_op",
        (c.logical_reads as f64 / c.executions.max(1) as f64, "count"),
    );
    m.insert(
        "exec.pool_hit_rate",
        (
            1.0 - c.physical_reads as f64 / c.logical_reads.max(1) as f64,
            "ratio",
        ),
    );
    m.insert(
        "exec.monitor_bytes_p50",
        (median(&c.monitor_bytes).unwrap_or(0.0), "B"),
    );

    m.insert("absorb.us_p50", (p50("absorb") * 1e3, "us"));
    let appends = pick("wal.append");
    m.insert(
        "wal.append_us_p50",
        (median(appends).unwrap_or(0.0) * 1e3, "us"),
    );
    m.insert(
        "wal.append_us_p99",
        (quantile(appends, 0.99).unwrap_or(0.0) * 1e3, "us"),
    );
    m.insert(
        "wal.bytes_per_report",
        (
            b.wal_bytes_appended as f64 / b.durable_absorbs.max(1) as f64,
            "B",
        ),
    );
    m.insert("wal.compact_ms_p50", (p50("wal.compact"), "ms"));

    let serial = b.probe.spans.total("parallel.serial");
    let parallel = b.probe.spans.total("parallel.run_query");
    m.insert(
        "parallel.speedup_vs_serial",
        (serial / parallel.max(f64::MIN_POSITIVE), "ratio"),
    );
    let runs = &b.parallel_runs;
    // Folded from +0.0: an empty `f64` sum is -0.0.
    let busy = runs.iter().fold(0.0, |a, r| a + r.busy_ns() as f64);
    let wait = runs.iter().fold(0.0, |a, r| a + r.queue_wait_ns() as f64);
    m.insert(
        "parallel.utilization",
        (busy / (busy + wait).max(f64::MIN_POSITIVE), "ratio"),
    );
    let waits: Vec<f64> = runs
        .iter()
        .map(|r| r.queue_wait_ns() as f64 / 1e6)
        .collect();
    m.insert(
        "parallel.queue_wait_ms",
        (median(&waits).unwrap_or(0.0), "ms"),
    );

    m.insert(
        "trace.overhead",
        (
            median(&t.traced).unwrap_or(0.0) / median(&t.plain).unwrap_or(f64::MAX) - 1.0,
            "ratio",
        ),
    );
    m
}
