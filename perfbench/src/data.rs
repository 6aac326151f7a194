//! Seeded inputs: table rows and query pools. Everything here is a pure
//! function of the seed and runs before any timer starts.
//!
//! Every column of `T` and `T1` holds a permutation of `0..rows`, so each
//! query's exact answer is known from its literals alone:
//! `c < v` selects `v` rows, `lo <= c < hi` selects `hi - lo`, and
//! `T1.c1 < v AND T1.ci = T.ci` joins `v` outer rows to one inner row each.
//! Every op's count is checked against that answer.

use pagefeed::{MonitorConfig, PredSpec, Query};
use pf_common::rng::Rng;
use pf_common::{Datum, Row};
use pf_exec::CompareOp;
use pf_workloads::perm::{scatter_values, windowed_permutation};

/// The predicate columns, from fully correlated with the clustering key
/// (`c2`) to uncorrelated (`c5`).
pub const COLUMNS: [&str; 4] = ["c2", "c3", "c4", "c5"];

/// Rows of the synthetic table (the layout of `pf_workloads::synthetic`,
/// generated here so that generation stays outside the set-up timer):
/// `c1` is the clustering key, `c2`–`c5` are permutations of it with
/// growing disorder, and padding brings a row to about 100 bytes.
pub fn synthetic_rows(n: usize, seed: u64) -> Vec<Row> {
    let window = (n / 160).max(64);
    let c3 = windowed_permutation(n, window, seed + 1);
    let mut c4 = windowed_permutation(n, window, seed + 2);
    scatter_values(&mut c4, 0.02, seed + 3);
    let mut c5: Vec<i64> = (0..n as i64).collect();
    scatter_values(&mut c5, 1.0, seed + 4);
    let pad = "x".repeat(54);
    (0..n)
        .map(|i| {
            Row::new(vec![
                Datum::Int(i as i64),
                Datum::Int(i as i64),
                Datum::Int(c3[i]),
                Datum::Int(c4[i]),
                Datum::Int(c5[i]),
                Datum::Str(pad.clone()),
            ])
        })
        .collect()
}

/// One query of a workload's pool with its known answer and the monitor
/// configuration it runs with.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub query: Query,
    pub expected: u64,
    pub cfg: MonitorConfig,
}

/// `per_column` selectivities per column: the midpoints of equal strata
/// of `[lo, hi)`. They do not depend on the seed, so every seed runs the
/// same spread of selectivities over its own data; a seeded selectivity
/// near a plan-flip threshold would make the Fig 6/8 averages swing
/// between seeds.
fn strata(per_column: usize, (lo, hi): (f64, f64)) -> Vec<f64> {
    (0..per_column)
        .map(|j| lo + (hi - lo) * (j as f64 + 0.5) / per_column as f64)
        .collect()
}

fn rows_for(n: usize, sel: f64) -> i64 {
    ((sel * n as f64) as i64).max(1)
}

fn count_query(col: &str, v: i64) -> PoolQuery {
    PoolQuery {
        query: Query::count("T", vec![PredSpec::new(col, CompareOp::Lt, Datum::Int(v))]),
        expected: v as u64,
        cfg: MonitorConfig::default(),
    }
}

/// The Fig 6/7 queries: `SELECT count(pad) FROM T WHERE ci < v` at 1–10 %,
/// plus one control query on the clustering key `c1` at 5.5 %.
///
/// Each pool has an odd number of queries, which the closed loop runs
/// equally often: the median op then lies inside one query's latencies
/// instead of in the gap between two, where it would swing between runs.
pub fn scan_pool(n: usize, per_column: usize) -> Vec<PoolQuery> {
    let mut pool = Vec::new();
    for col in COLUMNS {
        for sel in strata(per_column, (0.01, 0.10)) {
            pool.push(count_query(col, rows_for(n, sel)));
        }
    }
    pool.push(count_query("c1", rows_for(n, 0.055)));
    pool
}

/// The Fig 8 queries: `T1 ⋈ T` on `ci` with `T1.c1 < v` at 0.2–5 %,
/// monitored with 50 % page sampling and the bit-vector filter, plus one
/// control join on the clustering key `c1` at 2.6 % (odd pool; see
/// [`scan_pool`]).
pub fn join_pool(n: usize, per_column: usize) -> Vec<PoolQuery> {
    let mut pool = Vec::new();
    for col in COLUMNS {
        for sel in strata(per_column, (0.002, 0.05)) {
            pool.push(join_query(col, rows_for(n, sel)));
        }
    }
    pool.push(join_query("c1", rows_for(n, 0.026)));
    pool
}

fn join_query(col: &str, v: i64) -> PoolQuery {
    PoolQuery {
        query: Query::join_count(
            "T1",
            "T",
            vec![PredSpec::new("c1", CompareOp::Lt, Datum::Int(v))],
            col,
            col,
        ),
        expected: v as u64,
        cfg: MonitorConfig::sampled(0.5),
    }
}

/// Narrow application queries `lo <= ci < lo + w` at 0.1–0.5 %, each at
/// a seeded position in the column's domain, listed in popularity order
/// for the Zipf stream: ranks cycle through the columns, and the strata
/// alternate between the narrow and the wide half. The hot set is then
/// the same mix of columns and widths for every seed; a seeded ranking
/// let a single hot shape decide a run's cost.
pub fn narrow_pool(n: usize, per_column: usize, seed: u64) -> Vec<PoolQuery> {
    let mut rng = Rng::new(seed);
    // Below about 0.09 % an index seek on the random column `c5` costs
    // what a scan of the quarter-sized pool does, and the plan flips with
    // the seed.
    let widths = strata(per_column, (0.001, 0.005));
    let half = per_column.div_ceil(2);
    let mut pool = Vec::new();
    for k in 0..per_column {
        let j = if k % 2 == 0 { k / 2 } else { half + k / 2 };
        for col in COLUMNS {
            let w = rows_for(n, widths[j]);
            let lo = rng.gen_range((n as i64 - w) as u64) as i64;
            pool.push(PoolQuery {
                query: Query::count(
                    "T",
                    vec![
                        PredSpec::new(col, CompareOp::Ge, Datum::Int(lo)),
                        PredSpec::new(col, CompareOp::Lt, Datum::Int(lo + w)),
                    ],
                ),
                expected: w as u64,
                cfg: MonitorConfig::default(),
            });
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_pure_functions_of_the_seed() {
        let a = narrow_pool(10_000, 3, 7);
        let b = narrow_pool(10_000, 3, 7);
        let c = narrow_pool(10_000, 3, 8);
        let show =
            |p: &[PoolQuery]| format!("{:?}", p.iter().map(|q| &q.query).collect::<Vec<_>>());
        assert_eq!(show(&a), show(&b));
        assert_ne!(show(&a), show(&c));
        assert_eq!(a.len(), 12);
        let widths: Vec<u64> = a.iter().map(|q| q.expected).collect();
        let mut sorted = widths.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "three widths per column");
        assert_eq!(
            widths[0], widths[3],
            "ranks cycle through the columns first"
        );
    }

    #[test]
    fn strata_cover_the_range_once_each() {
        let s = strata(4, (0.0, 1.0));
        for (j, v) in s.iter().enumerate() {
            assert!((j as f64 / 4.0..(j + 1) as f64 / 4.0).contains(v));
        }
    }

    #[test]
    fn columns_are_permutations() {
        let rows = synthetic_rows(2_000, 3);
        for c in 0..5 {
            let mut vals: Vec<i64> = rows
                .iter()
                .map(|r| match r.values[c] {
                    Datum::Int(v) => v,
                    _ => unreachable!("integer column"),
                })
                .collect();
            vals.sort_unstable();
            assert!(vals.iter().copied().eq(0..2_000), "column c{}", c + 1);
        }
    }
}
