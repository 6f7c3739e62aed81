//! The back-end analysis interface.
//!
//! RoadRunner instruments a target program and feeds the resulting event
//! stream to one or more *back-end tools*. [`Tool`] is that interface: a
//! tool observes each operation in order and accumulates [`Warning`]s.
//! Tools can be chained ([`ToolChain`]) so several analyses observe the same
//! stream in one pass, exactly as the paper runs Velodrome alongside the
//! Atomizer or a race detector.

use serde::Serialize;
use std::fmt;
use velodrome_events::{Label, Op, ThreadId, Trace};

/// The kind of defect a warning reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum WarningCategory {
    /// A data race on a shared variable.
    Race,
    /// An atomicity (serializability) violation.
    Atomicity,
    /// The analysis lost fidelity: a tool panicked and was quarantined, or
    /// a [`ResourceBudget`](crate::budget::ResourceBudget) tripped and the
    /// runtime stepped down the
    /// [`DegradationLevel`](crate::budget::DegradationLevel) ladder. The
    /// warning's `op_index` is the event at which fidelity was lost.
    Degraded,
    /// Any other analysis-specific diagnostic.
    Other,
}

impl fmt::Display for WarningCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarningCategory::Race => write!(f, "race"),
            WarningCategory::Atomicity => write!(f, "atomicity"),
            WarningCategory::Degraded => write!(f, "degraded"),
            WarningCategory::Other => write!(f, "other"),
        }
    }
}

/// A diagnostic produced by a back-end tool.
#[derive(Debug, Clone, Serialize)]
pub struct Warning {
    /// Name of the tool that produced the warning.
    pub tool: &'static str,
    /// What kind of defect is reported.
    pub category: WarningCategory,
    /// The atomic block (method) being blamed, when known.
    pub label: Option<Label>,
    /// The thread performing the offending operation.
    pub thread: ThreadId,
    /// Index in the trace of the operation that triggered the warning.
    pub op_index: usize,
    /// Human-readable description.
    pub message: String,
    /// Optional long-form details (e.g. a rendered error graph).
    pub details: Option<String>,
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} warning at op {}: {}",
            self.tool, self.category, self.op_index, self.message
        )
    }
}

/// A back-end dynamic analysis consuming the instrumentation event stream.
pub trait Tool {
    /// A short, stable name for reports (e.g. `"velodrome"`).
    fn name(&self) -> &'static str;

    /// Observes the operation at position `index` of the trace.
    fn op(&mut self, index: usize, op: Op);

    /// Signals that the observed execution has ended.
    ///
    /// Tools that need to flush state (e.g. close open transactions) do so
    /// here. The default does nothing.
    fn end_of_trace(&mut self) {}

    /// Removes and returns the warnings accumulated so far.
    fn take_warnings(&mut self) -> Vec<Warning> {
        Vec::new()
    }
}

impl<T: Tool + ?Sized> Tool for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn op(&mut self, index: usize, op: Op) {
        (**self).op(index, op)
    }
    fn end_of_trace(&mut self) {
        (**self).end_of_trace()
    }
    fn take_warnings(&mut self) -> Vec<Warning> {
        (**self).take_warnings()
    }
}

/// Feeds an entire recorded trace through `tool` and returns its warnings.
pub fn run_tool<T: Tool + ?Sized>(tool: &mut T, trace: &Trace) -> Vec<Warning> {
    for (i, op) in trace.iter() {
        tool.op(i, op);
    }
    tool.end_of_trace();
    tool.take_warnings()
}

/// Replays buffered `(index, op)` pairs into a tool, preserving the
/// original trace indices.
///
/// This is the dispatch primitive for *deferred* analysis: a recorder (or
/// a two-tier checker like `velodrome`'s hybrid backend) buffers the
/// stream and only engages an expensive tool later — warnings produced
/// from the replay then carry the same `op_index` values an online run
/// would have reported, so downstream consumers cannot tell the
/// difference. Does **not** call [`Tool::end_of_trace`]; the caller
/// decides when the stream actually ends.
pub fn replay_ops<T: Tool + ?Sized>(tool: &mut T, ops: &[(usize, Op)]) {
    for &(i, op) in ops {
        tool.op(i, op);
    }
}

/// Runs several tools over the same event stream in a single pass.
#[derive(Default)]
pub struct ToolChain {
    tools: Vec<Box<dyn Tool>>,
}

impl ToolChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a tool to the chain; tools observe events in insertion order.
    pub fn push(&mut self, tool: impl Tool + 'static) -> &mut Self {
        self.tools.push(Box::new(tool));
        self
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, tool: impl Tool + 'static) -> Self {
        self.tools.push(Box::new(tool));
        self
    }

    /// Number of tools in the chain.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// Returns `true` if the chain has no tools.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }
}

impl fmt::Debug for ToolChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ToolChain")
            .field(
                "tools",
                &self.tools.iter().map(|t| t.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Tool for ToolChain {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn op(&mut self, index: usize, op: Op) {
        for tool in &mut self.tools {
            tool.op(index, op);
        }
    }

    fn end_of_trace(&mut self) {
        for tool in &mut self.tools {
            tool.end_of_trace();
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        let mut all = Vec::new();
        for tool in &mut self.tools {
            all.extend(tool.take_warnings());
        }
        all.sort_by_key(|w| w.op_index);
        all
    }
}

/// The paper's "Empty" back-end: observes every event, does no analysis.
///
/// Used by the benchmark harness to isolate instrumentation overhead from
/// analysis overhead (Table 1's `Empty` column).
#[derive(Debug, Default, Clone)]
pub struct EmptyTool {
    ops_seen: u64,
    finished: bool,
}

impl EmptyTool {
    /// Creates an empty tool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operations observed.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Whether `end_of_trace` has been called.
    pub fn finished(&self) -> bool {
        self.finished
    }
}

impl Tool for EmptyTool {
    fn name(&self) -> &'static str {
        "empty"
    }

    fn op(&mut self, _index: usize, op: Op) {
        // Touch the operation so the call cannot be optimized away entirely.
        self.ops_seen = self.ops_seen.wrapping_add(1 + op.tid().raw() as u64 % 2);
    }

    fn end_of_trace(&mut self) {
        self.finished = true;
    }
}

/// Helper for tools that blame atomic blocks: deduplicates warnings per
/// label so each non-atomic method is reported once, mirroring how the
/// paper counts "non-atomic methods" rather than raw dynamic occurrences.
#[derive(Debug, Default)]
pub struct PerLabelDedup {
    reported: std::collections::HashSet<Option<Label>>,
}

impl PerLabelDedup {
    /// Creates an empty deduplicator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` the first time each label is seen.
    pub fn first_report(&mut self, label: Option<Label>) -> bool {
        self.reported.insert(label)
    }

    /// Number of distinct labels reported.
    pub fn len(&self) -> usize {
        self.reported.len()
    }

    /// Returns `true` when nothing has been reported.
    pub fn is_empty(&self) -> bool {
        self.reported.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::TraceBuilder;

    struct Recorder {
        seen: Vec<usize>,
        warn_on: usize,
    }

    impl Tool for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn op(&mut self, index: usize, _op: Op) {
            self.seen.push(index);
        }
        fn take_warnings(&mut self) -> Vec<Warning> {
            vec![Warning {
                tool: "recorder",
                category: WarningCategory::Other,
                label: None,
                thread: ThreadId::new(0),
                op_index: self.warn_on,
                message: "test".into(),
                details: None,
            }]
        }
    }

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.read("T1", "x").write("T2", "x").read("T1", "y");
        b.finish()
    }

    #[test]
    fn run_tool_feeds_all_ops_in_order() {
        let mut rec = Recorder {
            seen: vec![],
            warn_on: 0,
        };
        run_tool(&mut rec, &small_trace());
        assert_eq!(rec.seen, vec![0, 1, 2]);
    }

    #[test]
    fn empty_tool_counts_and_finishes() {
        let mut empty = EmptyTool::new();
        run_tool(&mut empty, &small_trace());
        assert!(empty.ops_seen() >= 3);
        assert!(empty.finished());
    }

    #[test]
    fn chain_broadcasts_and_merges_warnings() {
        let chain = ToolChain::new()
            .with(Recorder {
                seen: vec![],
                warn_on: 5,
            })
            .with(Recorder {
                seen: vec![],
                warn_on: 1,
            });
        let mut chain = chain;
        assert_eq!(chain.len(), 2);
        let warnings = run_tool(&mut chain, &small_trace());
        assert_eq!(warnings.len(), 2);
        // Sorted by op index.
        assert_eq!(warnings[0].op_index, 1);
        assert_eq!(warnings[1].op_index, 5);
    }

    #[test]
    fn dedup_reports_each_label_once() {
        let mut dedup = PerLabelDedup::new();
        let l = Some(Label::new(0));
        assert!(dedup.first_report(l));
        assert!(!dedup.first_report(l));
        assert!(dedup.first_report(Some(Label::new(1))));
        assert!(dedup.first_report(None));
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn warning_display_mentions_tool_and_category() {
        let w = Warning {
            tool: "velodrome",
            category: WarningCategory::Atomicity,
            label: None,
            thread: ThreadId::new(1),
            op_index: 42,
            message: "cycle".into(),
            details: None,
        };
        let shown = w.to_string();
        assert!(shown.contains("velodrome"));
        assert!(shown.contains("atomicity"));
        assert!(shown.contains("42"));
    }

    #[test]
    fn boxed_tool_delegates() {
        let mut boxed: Box<dyn Tool> = Box::new(EmptyTool::new());
        boxed.op(
            0,
            Op::Read {
                t: ThreadId::new(0),
                x: velodrome_events::VarId::new(0),
            },
        );
        assert_eq!(boxed.name(), "empty");
        assert!(boxed.take_warnings().is_empty());
    }
}
