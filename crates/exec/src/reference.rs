//! Row-at-a-time reference operators — test and bench oracles.
//!
//! The production operators are page-batched: [`crate::join::HashJoin`]
//! builds a radix-partitioned table a page at a time and probes with
//! borrowed row views. The operators here are the straightforward
//! row-at-a-time forms of the same algorithms, with identical I/O
//! charges. The planner never builds them. The identity suites
//! (`tests/join_identity.rs`) and the join hot-path bench use them as
//! the baseline the production pipeline must reproduce exactly: counts,
//! every `IoStats` field, filter bits and harvested feedback.

use crate::context::ExecContext;
use crate::join::BitVectorConfig;
use crate::op::Operator;
use pf_common::{Datum, Result, Row, Schema};
use pf_feedback::BitVectorFilter;
use std::collections::{HashMap, VecDeque};

/// Row-at-a-time hash join: a `HashMap<Datum, Vec<Row>>` build with
/// per-row inserts and a per-row probe that materializes every match.
///
/// Charges exactly what [`crate::join::HashJoin`] charges: one hash op
/// per build row, one per filter insert and one per probe row. With a
/// [`BitVectorConfig`] it fills the same filter and hands it to the
/// probe-side slot before any probe row flows. It never pushes the
/// filter into the probe scan (`pushdown` is ignored); the production
/// pushdown charges its per-row hash in the scan instead, so the totals
/// agree. Output rows are `build_row ++ probe_row`.
pub struct RowHashJoin {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_key: usize,
    probe_key: usize,
    bitvector: Option<BitVectorConfig>,
    schema: Schema,
    table: HashMap<Datum, Vec<Row>>,
    built: bool,
    pending: VecDeque<Row>,
}

impl RowHashJoin {
    /// Builds the reference join; the arguments mean what they mean for
    /// [`crate::join::HashJoin::new`].
    pub fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_key: usize,
        probe_key: usize,
        bitvector: Option<BitVectorConfig>,
    ) -> Self {
        let schema = build.schema().join(probe.schema());
        RowHashJoin {
            build,
            probe,
            build_key,
            probe_key,
            bitvector,
            schema,
            table: HashMap::new(),
            built: false,
            pending: VecDeque::new(),
        }
    }

    fn build_phase(&mut self, ctx: &mut ExecContext) -> Result<()> {
        let mut filter = self
            .bitvector
            .as_ref()
            .map(|c| BitVectorFilter::new(c.numbits, c.seed));
        while let Some(row) = self.build.next(ctx)? {
            ctx.check_interrupt()?;
            ctx.pool.charge_hashes(1);
            if let Some(f) = filter.as_mut() {
                f.insert(row.get(self.build_key));
                ctx.pool.charge_hashes(1);
            }
            match self.table.get_mut(row.get(self.build_key)) {
                Some(bucket) => bucket.push(row),
                None => {
                    let key = row.get(self.build_key).clone();
                    self.table.insert(key, vec![row]);
                }
            }
        }
        if let (Some(f), Some(c)) = (filter, &self.bitvector) {
            c.slot.borrow_mut().filter = Some(f);
        }
        self.built = true;
        Ok(())
    }
}

impl Operator for RowHashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if !self.built {
            self.build_phase(ctx)?;
        }
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            let Some(probe_row) = self.probe.next(ctx)? else {
                return Ok(None);
            };
            ctx.check_interrupt()?;
            ctx.pool.charge_hashes(1);
            if let Some(matches) = self.table.get(probe_row.get(self.probe_key)) {
                for b in matches {
                    self.pending.push_back(b.join(&probe_row));
                }
            }
        }
    }
}
