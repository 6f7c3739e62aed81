//! Identifier newtypes for the entities appearing in a trace.
//!
//! The paper's semantics (Figure 1) ranges over thread identifiers `t ∈ Tid`,
//! variables `x ∈ Var`, locks `m ∈ Lock`, and atomic-block labels `l ∈ Label`.
//! Each is a dense small integer here so that analyses can use them as direct
//! indices into per-entity tables. Human-readable names live in a side
//! [`SymbolTable`] so the hot path never touches strings.

use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from its dense index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the dense index backing this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// A thread identifier (`t ∈ Tid`).
    ThreadId,
    "T"
);

/// Exclusive upper bound on thread ids. Analyses index per-thread tables
/// by id, so a huge id in a hostile file would otherwise allocate a table
/// that long (gigabytes for a single operation). 2^16 is the same order as
/// the engine arena's ceiling of 65,535 simultaneously live transactions.
/// Both trace readers reject a `t` or fork/join `child` at or over it as
/// malformed input, with a byte offset.
pub const MAX_THREADS: u32 = 1 << 16;

impl ThreadId {
    /// Checks a decoded thread id against [`MAX_THREADS`]; the error is
    /// the reason a reader reports.
    pub(crate) fn checked(raw: u64) -> Result<Self, String> {
        match u32::try_from(raw) {
            Ok(id) if id < MAX_THREADS => Ok(Self(id)),
            _ => Err(format!(
                "thread id {raw} out of range (must be below {MAX_THREADS})"
            )),
        }
    }
}

id_type!(
    /// A shared-variable identifier (`x ∈ Var`).
    ///
    /// A variable stands for any memory location the monitored program can
    /// read or write: a field, a static, or an array element flattened to a
    /// scalar location.
    VarId,
    "x"
);
id_type!(
    /// A lock identifier (`m ∈ Lock`).
    LockId,
    "m"
);
id_type!(
    /// A label identifying a particular atomic block (`l ∈ Label`).
    ///
    /// Labels name the syntactic atomic block (typically a method declared
    /// `atomic`) so that warnings can be attributed to source constructs.
    Label,
    "L"
);

/// Maps identifiers back to human-readable names for error reports.
///
/// All lookups fall back to the identifier's `Display` form (`T0`, `x3`, …)
/// when no name was registered, so reports always render.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    threads: HashMap<u32, String>,
    vars: HashMap<u32, String>,
    locks: HashMap<u32, String>,
    labels: HashMap<u32, String>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a display name for a thread.
    pub fn name_thread(&mut self, t: ThreadId, name: impl Into<String>) {
        self.threads.insert(t.raw(), name.into());
    }

    /// Registers a display name for a variable.
    pub fn name_var(&mut self, x: VarId, name: impl Into<String>) {
        self.vars.insert(x.raw(), name.into());
    }

    /// Registers a display name for a lock.
    pub fn name_lock(&mut self, m: LockId, name: impl Into<String>) {
        self.locks.insert(m.raw(), name.into());
    }

    /// Registers a display name for an atomic-block label.
    pub fn name_label(&mut self, l: Label, name: impl Into<String>) {
        self.labels.insert(l.raw(), name.into());
    }

    /// Returns the display name of a thread.
    pub fn thread(&self, t: ThreadId) -> String {
        self.threads
            .get(&t.raw())
            .cloned()
            .unwrap_or_else(|| t.to_string())
    }

    /// Returns the display name of a variable.
    pub fn var(&self, x: VarId) -> String {
        self.vars
            .get(&x.raw())
            .cloned()
            .unwrap_or_else(|| x.to_string())
    }

    /// Returns the display name of a lock.
    pub fn lock(&self, m: LockId) -> String {
        self.locks
            .get(&m.raw())
            .cloned()
            .unwrap_or_else(|| m.to_string())
    }

    /// Returns the display name of a label.
    pub fn label(&self, l: Label) -> String {
        self.labels
            .get(&l.raw())
            .cloned()
            .unwrap_or_else(|| l.to_string())
    }

    /// The four name tables — threads, vars, locks, labels, the order
    /// both trace codecs write them in — as `(id, name)` pairs sorted by
    /// id.
    pub(crate) fn entries(&self) -> [Vec<(u32, &str)>; 4] {
        [&self.threads, &self.vars, &self.locks, &self.labels].map(|map| {
            let mut entries: Vec<(u32, &str)> = map.iter().map(|(&k, v)| (k, v.as_str())).collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries
        })
    }

    /// Registers `name` for `id` in table `table`, an index into the
    /// order of [`Self::entries`].
    pub(crate) fn insert(&mut self, table: usize, id: u32, name: String) {
        let tables = [
            &mut self.threads,
            &mut self.vars,
            &mut self.locks,
            &mut self.labels,
        ];
        tables[table].insert(id, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.raw(), 7);
        assert_eq!(ThreadId::from(7), t);
    }

    #[test]
    fn id_display_uses_prefix() {
        assert_eq!(ThreadId::new(2).to_string(), "T2");
        assert_eq!(VarId::new(0).to_string(), "x0");
        assert_eq!(LockId::new(5).to_string(), "m5");
        assert_eq!(Label::new(1).to_string(), "L1");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(VarId::new(1) < VarId::new(2));
    }

    #[test]
    fn symbol_table_falls_back_to_display() {
        let mut names = SymbolTable::new();
        names.name_thread(ThreadId::new(0), "main");
        assert_eq!(names.thread(ThreadId::new(0)), "main");
        assert_eq!(names.thread(ThreadId::new(1)), "T1");
        assert_eq!(names.var(VarId::new(3)), "x3");
    }

    #[test]
    fn symbol_table_roundtrips_through_trace_json() {
        let mut trace = crate::Trace::new();
        let names = trace.names_mut();
        names.name_var(VarId::new(1), "Set.elems");
        names.name_lock(LockId::new(0), "this");
        let back = crate::Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back.names().var(VarId::new(1)), "Set.elems");
        assert_eq!(back.names().lock(LockId::new(0)), "this");
    }
}
