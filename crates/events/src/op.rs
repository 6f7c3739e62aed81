//! Operations performed by threads on the global store.
//!
//! This is the `Operation` domain of the paper's Figure 1, extended with
//! `Fork`/`Join` so that dynamic thread creation (which the paper models
//! "in a straightforward way" within its semantics) is explicit in traces.
//! Values carried by reads and writes are irrelevant to serializability and
//! are omitted; the simulator crate tracks them separately when it needs a
//! concrete global store.

use crate::ids::{Label, LockId, ThreadId, VarId};
use serde::Serialize;
use std::fmt;

/// A single operation on the global store, as observed by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Op {
    /// `rd(t, x, v)` — thread `t` reads variable `x`.
    Read {
        /// The reading thread.
        t: ThreadId,
        /// The variable read.
        x: VarId,
    },
    /// `wr(t, x, v)` — thread `t` writes variable `x`.
    Write {
        /// The writing thread.
        t: ThreadId,
        /// The variable written.
        x: VarId,
    },
    /// `acq(t, m)` — thread `t` acquires lock `m`.
    Acquire {
        /// The acquiring thread.
        t: ThreadId,
        /// The lock acquired.
        m: LockId,
    },
    /// `rel(t, m)` — thread `t` releases lock `m`.
    Release {
        /// The releasing thread.
        t: ThreadId,
        /// The lock released.
        m: LockId,
    },
    /// `begin_l(t)` — thread `t` enters an atomic block labeled `l`.
    Begin {
        /// The entering thread.
        t: ThreadId,
        /// The block's label.
        l: Label,
    },
    /// `end(t)` — thread `t` exits its innermost atomic block.
    End {
        /// The exiting thread.
        t: ThreadId,
    },
    /// Thread `t` starts thread `child`; orders everything `t` did so far
    /// before everything `child` does.
    Fork {
        /// The parent thread.
        t: ThreadId,
        /// The newly started thread.
        child: ThreadId,
    },
    /// Thread `t` waits for thread `child` to finish; orders everything
    /// `child` did before everything `t` does afterwards.
    Join {
        /// The waiting (parent) thread.
        t: ThreadId,
        /// The finished thread being joined.
        child: ThreadId,
    },
}

impl Op {
    /// Returns the thread that performs this operation (`tid(a)` in the
    /// paper). For `Fork`/`Join` this is the parent thread.
    pub fn tid(self) -> ThreadId {
        match self {
            Op::Read { t, .. }
            | Op::Write { t, .. }
            | Op::Acquire { t, .. }
            | Op::Release { t, .. }
            | Op::Begin { t, .. }
            | Op::End { t }
            | Op::Fork { t, .. }
            | Op::Join { t, .. } => t,
        }
    }

    /// Returns the variable this operation accesses, if any.
    pub fn var(self) -> Option<VarId> {
        match self {
            Op::Read { x, .. } | Op::Write { x, .. } => Some(x),
            _ => None,
        }
    }

    /// Returns the lock this operation manipulates, if any.
    pub fn lock(self) -> Option<LockId> {
        match self {
            Op::Acquire { m, .. } | Op::Release { m, .. } => Some(m),
            _ => None,
        }
    }

    /// Returns `true` for memory accesses (reads and writes).
    pub fn is_access(self) -> bool {
        matches!(self, Op::Read { .. } | Op::Write { .. })
    }

    /// Returns `true` for writes.
    pub fn is_write(self) -> bool {
        matches!(self, Op::Write { .. })
    }

    /// Returns `true` for `Begin`/`End` transaction markers.
    pub fn is_marker(self) -> bool {
        matches!(self, Op::Begin { .. } | Op::End { .. })
    }

    /// Decides whether two operations *conflict*, following the paper's
    /// Section 2 definition extended to fork/join:
    ///
    /// 1. they access the same variable and at least one access is a write;
    /// 2. they operate on the same lock;
    /// 3. they are performed by the same thread; or
    /// 4. one is a `Fork`/`Join` whose child is the thread performing the
    ///    other (thread-creation ordering).
    ///
    /// Operations that do not conflict commute: swapping them when adjacent
    /// in a trace yields an equivalent trace.
    pub fn conflicts_with(self, other: Op) -> bool {
        if self.tid() == other.tid() {
            return true;
        }
        if let (Some(x1), Some(x2)) = (self.var(), other.var()) {
            if x1 == x2 && (self.is_write() || other.is_write()) {
                return true;
            }
        }
        if let (Some(m1), Some(m2)) = (self.lock(), other.lock()) {
            if m1 == m2 {
                return true;
            }
        }
        let edge_child = |op: Op| match op {
            Op::Fork { child, .. } | Op::Join { child, .. } => Some(child),
            _ => None,
        };
        if let Some(c) = edge_child(self) {
            if c == other.tid() {
                return true;
            }
        }
        if let Some(c) = edge_child(other) {
            if c == self.tid() {
                return true;
            }
        }
        false
    }

    /// Returns `true` if the two operations commute (do not conflict).
    pub fn commutes_with(self, other: Op) -> bool {
        !self.conflicts_with(other)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read { t, x } => write!(f, "rd({t}, {x})"),
            Op::Write { t, x } => write!(f, "wr({t}, {x})"),
            Op::Acquire { t, m } => write!(f, "acq({t}, {m})"),
            Op::Release { t, m } => write!(f, "rel({t}, {m})"),
            Op::Begin { t, l } => write!(f, "begin_{l}({t})"),
            Op::End { t } => write!(f, "end({t})"),
            Op::Fork { t, child } => write!(f, "fork({t}, {child})"),
            Op::Join { t, child } => write!(f, "join({t}, {child})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    #[test]
    fn same_thread_always_conflicts() {
        let a = Op::Read { t: t(0), x: x(0) };
        let b = Op::Begin {
            t: t(0),
            l: Label::new(0),
        };
        assert!(a.conflicts_with(b));
        assert!(b.conflicts_with(a));
    }

    #[test]
    fn read_read_commutes_across_threads() {
        let a = Op::Read { t: t(0), x: x(0) };
        let b = Op::Read { t: t(1), x: x(0) };
        assert!(a.commutes_with(b));
    }

    #[test]
    fn write_read_same_var_conflicts() {
        let a = Op::Write { t: t(0), x: x(0) };
        let b = Op::Read { t: t(1), x: x(0) };
        assert!(a.conflicts_with(b));
        assert!(b.conflicts_with(a));
    }

    #[test]
    fn write_write_different_vars_commute() {
        let a = Op::Write { t: t(0), x: x(0) };
        let b = Op::Write { t: t(1), x: x(1) };
        assert!(a.commutes_with(b));
    }

    #[test]
    fn same_lock_conflicts_across_threads() {
        let a = Op::Release { t: t(0), m: m(0) };
        let b = Op::Acquire { t: t(1), m: m(0) };
        assert!(a.conflicts_with(b));
        let c = Op::Acquire { t: t(1), m: m(1) };
        assert!(a.commutes_with(c));
    }

    #[test]
    fn fork_conflicts_with_child_ops() {
        let f = Op::Fork {
            t: t(0),
            child: t(1),
        };
        let childs = Op::Read { t: t(1), x: x(0) };
        let others = Op::Read { t: t(2), x: x(0) };
        assert!(f.conflicts_with(childs));
        assert!(childs.conflicts_with(f));
        assert!(f.commutes_with(others));
    }

    #[test]
    fn join_conflicts_with_child_ops() {
        let j = Op::Join {
            t: t(0),
            child: t(1),
        };
        let childs = Op::Write { t: t(1), x: x(0) };
        assert!(j.conflicts_with(childs));
        assert!(childs.conflicts_with(j));
    }

    #[test]
    fn accessors() {
        let a = Op::Write { t: t(3), x: x(9) };
        assert_eq!(a.tid(), t(3));
        assert_eq!(a.var(), Some(x(9)));
        assert_eq!(a.lock(), None);
        assert!(a.is_access() && a.is_write() && !a.is_marker());
        let b = Op::Begin {
            t: t(1),
            l: Label::new(4),
        };
        assert!(b.is_marker() && !b.is_access());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Op::Read { t: t(1), x: x(2) }.to_string(), "rd(T1, x2)");
        assert_eq!(
            Op::Begin {
                t: t(0),
                l: Label::new(3)
            }
            .to_string(),
            "begin_L3(T0)"
        );
        assert_eq!(
            Op::Fork {
                t: t(0),
                child: t(1)
            }
            .to_string(),
            "fork(T0, T1)"
        );
    }
}
