//! Segmentation of a trace into transactions.
//!
//! Following Section 2 of the paper: a transaction is the sequence of
//! operations executed by a thread from an outermost `begin` up to and
//! including the matching `end` (or the end of the trace when unmatched).
//! Every operation outside any atomic block forms its own *unary*
//! transaction. Nested `begin`/`end` pairs stay inside the enclosing
//! transaction.

use crate::ids::{Label, ThreadId};
use crate::op::Op;
use crate::trace::Trace;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Identifies a transaction within a segmented trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[serde(transparent)]
pub struct TxnId(u32);

impl TxnId {
    /// Creates a transaction identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Summary of one transaction in a segmented trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TxnInfo {
    /// The transaction's identifier.
    pub id: TxnId,
    /// The thread that executes the transaction.
    pub thread: ThreadId,
    /// Label of the outermost atomic block, or `None` for unary transactions.
    pub label: Option<Label>,
    /// Index of the transaction's first operation in the trace.
    pub first_op: usize,
    /// Index of the transaction's last operation in the trace (inclusive).
    pub last_op: usize,
    /// Number of operations belonging to the transaction.
    pub op_count: usize,
    /// `true` when the transaction is a single operation outside any block.
    pub unary: bool,
    /// `true` when the transaction's `begin` had no matching `end` before the
    /// trace finished.
    pub unclosed: bool,
}

/// The result of segmenting a trace into transactions.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Transactions {
    /// For each operation index, the transaction it belongs to.
    op_txn: Vec<TxnId>,
    /// Per-transaction summaries, indexed by [`TxnId::index`].
    txns: Vec<TxnInfo>,
}

impl Transactions {
    /// Segments `trace` into transactions.
    pub fn segment(trace: &Trace) -> Self {
        struct Open {
            txn: TxnId,
            depth: usize,
        }
        let mut op_txn = Vec::with_capacity(trace.len());
        let mut txns: Vec<TxnInfo> = Vec::new();
        let mut open: HashMap<ThreadId, Open> = HashMap::new();

        for (i, op) in trace.iter() {
            let t = op.tid();
            let txn = match op {
                Op::Begin { l, .. } => {
                    if let Some(o) = open.get_mut(&t) {
                        o.depth += 1;
                        o.txn
                    } else {
                        let id = TxnId::new(txns.len() as u32);
                        txns.push(TxnInfo {
                            id,
                            thread: t,
                            label: Some(l),
                            first_op: i,
                            last_op: i,
                            op_count: 0,
                            unary: false,
                            unclosed: true,
                        });
                        open.insert(t, Open { txn: id, depth: 1 });
                        id
                    }
                }
                Op::End { .. } => {
                    // Well-formed traces always have a matching open block;
                    // tolerate stray ends by treating them as unary.
                    match open.get_mut(&t) {
                        Some(o) => {
                            o.depth -= 1;
                            let id = o.txn;
                            if o.depth == 0 {
                                txns[id.index()].unclosed = false;
                                open.remove(&t);
                            }
                            id
                        }
                        None => {
                            let id = TxnId::new(txns.len() as u32);
                            txns.push(TxnInfo {
                                id,
                                thread: t,
                                label: None,
                                first_op: i,
                                last_op: i,
                                op_count: 0,
                                unary: true,
                                unclosed: false,
                            });
                            id
                        }
                    }
                }
                _ => match open.get(&t) {
                    Some(o) => o.txn,
                    None => {
                        let id = TxnId::new(txns.len() as u32);
                        txns.push(TxnInfo {
                            id,
                            thread: t,
                            label: None,
                            first_op: i,
                            last_op: i,
                            op_count: 0,
                            unary: true,
                            unclosed: false,
                        });
                        id
                    }
                },
            };
            op_txn.push(txn);
            let info = &mut txns[txn.index()];
            info.last_op = i;
            info.op_count += 1;
        }

        Self { op_txn, txns }
    }

    /// The transaction containing the operation at `op_index`.
    pub fn txn_of(&self, op_index: usize) -> TxnId {
        self.op_txn[op_index]
    }

    /// Per-operation transaction assignments.
    pub fn op_txns(&self) -> &[TxnId] {
        &self.op_txn
    }

    /// All transactions, in creation order.
    pub fn txns(&self) -> &[TxnInfo] {
        &self.txns
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Returns `true` if the trace contained no operations.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Summary for a given transaction.
    pub fn info(&self, id: TxnId) -> &TxnInfo {
        &self.txns[id.index()]
    }

    /// Indices of the operations belonging to `id`, in trace order.
    pub fn ops_of(&self, id: TxnId) -> Vec<usize> {
        self.op_txn
            .iter()
            .enumerate()
            .filter_map(|(i, &txn)| (txn == id).then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    #[test]
    fn ops_outside_blocks_are_unary() {
        let mut b = TraceBuilder::new();
        b.read("T1", "x").write("T1", "x").read("T2", "x");
        let trace = b.finish();
        let txns = Transactions::segment(&trace);
        assert_eq!(txns.len(), 3);
        assert!(txns.txns().iter().all(|t| t.unary && t.op_count == 1));
    }

    #[test]
    fn atomic_block_is_one_transaction() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "add")
            .read("T1", "x")
            .write("T1", "x")
            .end("T1");
        let trace = b.finish();
        let txns = Transactions::segment(&trace);
        assert_eq!(txns.len(), 1);
        let info = &txns.txns()[0];
        assert_eq!(info.op_count, 4);
        assert!(!info.unary && !info.unclosed);
        assert_eq!(trace.names().label(info.label.unwrap()), "add");
    }

    #[test]
    fn nested_blocks_stay_in_outer_transaction() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "p")
            .begin("T1", "q")
            .read("T1", "x")
            .end("T1")
            .end("T1");
        let txns = Transactions::segment(&b.finish());
        assert_eq!(txns.len(), 1);
        assert_eq!(txns.txns()[0].op_count, 5);
        assert_eq!(txns.txns()[0].label.map(|l| l.index()), Some(0));
    }

    #[test]
    fn unclosed_block_extends_to_trace_end() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "p").read("T1", "x").write("T1", "y");
        let txns = Transactions::segment(&b.finish());
        assert_eq!(txns.len(), 1);
        assert!(txns.txns()[0].unclosed);
        assert_eq!(txns.txns()[0].last_op, 2);
    }

    #[test]
    fn interleaved_threads_get_separate_transactions() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "p").read("T1", "x");
        b.begin("T2", "q").write("T2", "x").end("T2");
        b.end("T1");
        let trace = b.finish();
        let txns = Transactions::segment(&trace);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns.txn_of(0), txns.txn_of(1));
        assert_eq!(txns.txn_of(2), txns.txn_of(3));
        assert_ne!(txns.txn_of(0), txns.txn_of(2));
        assert_eq!(txns.txn_of(5), txns.txn_of(0));
        assert_eq!(txns.ops_of(TxnId::new(0)), vec![0, 1, 5]);
    }

    #[test]
    fn mixed_unary_and_block_transactions() {
        let mut b = TraceBuilder::new();
        b.read("T1", "x"); // unary
        b.begin("T1", "p").write("T1", "x").end("T1"); // block
        b.read("T1", "x"); // unary
        let txns = Transactions::segment(&b.finish());
        assert_eq!(txns.len(), 3);
        assert!(txns.txns()[0].unary);
        assert!(!txns.txns()[1].unary);
        assert!(txns.txns()[2].unary);
    }

    #[test]
    fn stray_end_is_tolerated_as_unary() {
        let mut b = TraceBuilder::new();
        b.end("T1").read("T1", "x");
        let txns = Transactions::segment(&b.finish());
        assert_eq!(txns.len(), 2);
        assert!(txns.txns()[0].unary);
    }
}
