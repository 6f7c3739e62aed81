//! The JSON reader's two paths must agree. Before it parses an operation
//! the reader tries to match the buffered bytes against the exact shape
//! the writer emits and, on any mismatch, hands the same position to the
//! general parser. Every input here is decoded twice: from a slice, so the
//! window holds up to 64 KiB and the fast path takes every operation it
//! can match; and one byte per `read`, so the window never holds a whole
//! operation and the general path takes them all. Both reads must yield
//! the same operations and summary, or the same error message and byte
//! offset.

mod common;

use common::{corpus, decode, decode_both_ways};
use velodrome_events::{read_json_trace, Label, LockId, Op, ThreadId, Trace, VarId};

/// An operation's tag, thread, and second field with its value, as the
/// JSON layout names them.
fn parts(op: Op) -> (&'static str, u32, Option<(&'static str, u32)>) {
    match op {
        Op::Read { t, x } => ("Read", t.raw(), Some(("x", x.raw()))),
        Op::Write { t, x } => ("Write", t.raw(), Some(("x", x.raw()))),
        Op::Acquire { t, m } => ("Acquire", t.raw(), Some(("m", m.raw()))),
        Op::Release { t, m } => ("Release", t.raw(), Some(("m", m.raw()))),
        Op::Begin { t, l } => ("Begin", t.raw(), Some(("l", l.raw()))),
        Op::End { t } => ("End", t.raw(), None),
        Op::Fork { t, child } => ("Fork", t.raw(), Some(("child", child.raw()))),
        Op::Join { t, child } => ("Join", t.raw(), Some(("child", child.raw()))),
    }
}

/// Ways to write the same operations that the writer never uses.
#[derive(Debug, Clone, Copy)]
enum Twin {
    /// Spaces around every token and a newline between operations.
    Padded,
    /// The operand before `t`.
    Reordered,
    /// An extra key after the known ones.
    UnknownKey,
}

impl Twin {
    fn render(self, op: Op) -> String {
        let (tag, t, operand) = parts(op);
        match (self, operand) {
            (Twin::Padded, None) => format!(r#"{{ "{tag}" : {{ "t" : {t} }} }}"#),
            (Twin::Padded, Some((f, v))) => {
                format!(r#"{{ "{tag}" : {{ "t" : {t} , "{f}" : {v} }} }}"#)
            }
            (Twin::Reordered, None) => format!(r#"{{"{tag}":{{"t":{t}}}}}"#),
            (Twin::Reordered, Some((f, v))) => format!(r#"{{"{tag}":{{"{f}":{v},"t":{t}}}}}"#),
            (Twin::UnknownKey, None) => format!(r#"{{"{tag}":{{"t":{t},"at":"L1"}}}}"#),
            (Twin::UnknownKey, Some((f, v))) => {
                format!(r#"{{"{tag}":{{"t":{t},"{f}":{v},"at":[1,{{"k":null}}]}}}}"#)
            }
        }
    }

    /// `json`, as the writer emits it, with its operations re-rendered.
    fn of(self, json: &[u8]) -> Vec<u8> {
        let json = std::str::from_utf8(json).unwrap();
        // A `"` inside a JSON string is escaped, so this is the end of `ops`.
        let tail = json.find(r#"],"names":"#).expect("writer layout");
        let ops = read_json_trace(json.as_bytes()).unwrap();
        let sep = match self {
            Twin::Padded => ",\n  ",
            _ => ",",
        };
        let body: Vec<String> = ops.ops().iter().map(|&op| self.render(op)).collect();
        format!("{{\"ops\":[{}{}", body.join(sep), &json[tail..]).into_bytes()
    }
}

#[test]
fn corpus_and_its_twins_decode_alike_both_ways() {
    for (name, json) in corpus(".trace.json") {
        let want = decode_both_ways(&name, &json);
        assert!(want.is_ok(), "{name}: {want:?}");
        for twin in [Twin::Padded, Twin::Reordered, Twin::UnknownKey] {
            let bytes = twin.of(&json);
            let got = decode_both_ways(&format!("{name} ({twin:?})"), &bytes);
            assert_eq!(got, want, "{name} ({twin:?})");
        }
    }
}

#[test]
fn ops_straddling_the_buffer_edge_decode_alike_at_every_offset() {
    const WINDOW: usize = 64 * 1024;
    // One operation of each tag, with ids of every width up to the limits.
    let cycle = [
        Op::Read {
            t: ThreadId::new(65535),
            x: VarId::new(u32::MAX),
        },
        Op::Write {
            t: ThreadId::new(1),
            x: VarId::new(22),
        },
        Op::Acquire {
            t: ThreadId::new(333),
            m: LockId::new(4444),
        },
        Op::Release {
            t: ThreadId::new(333),
            m: LockId::new(4444),
        },
        Op::Begin {
            t: ThreadId::new(12),
            l: Label::new(1_000_000),
        },
        Op::End {
            t: ThreadId::new(7),
        },
        Op::Fork {
            t: ThreadId::new(0),
            child: ThreadId::new(65535),
        },
        Op::Join {
            t: ThreadId::new(0),
            child: ThreadId::new(65535),
        },
    ];
    let filler = Op::End {
        t: ThreadId::new(0),
    };
    // `{"End":{"t":0}},` is 16 bytes: put the cycle just before the edge.
    let fillers = WINDOW / 16 - 40;
    let trace = Trace::from_ops(
        std::iter::repeat(filler)
            .take(fillers)
            .chain(cycle.iter().copied()),
    );
    let json = trace.to_json();
    let cycle_start = json.rfind(r#"{"End":{"t":0}}"#).unwrap() + 15;
    let cycle_end = json.find(r#"],"names":"#).unwrap();
    assert!(cycle_end < WINDOW);
    let want = decode(json.as_bytes());
    assert!(want.is_ok(), "{want:?}");
    // Leading whitespace shifts the document, so the edge falls on every
    // byte from the end of the cycle back into the filler before it.
    for pad in WINDOW - cycle_end..=WINDOW - cycle_start + 16 {
        let doc = format!("{}{json}", " ".repeat(pad));
        let got = decode_both_ways(&format!("edge at byte {}", WINDOW - pad), doc.as_bytes());
        assert_eq!(got, want, "edge at byte {} of the document", WINDOW - pad);
    }
}

#[test]
fn ids_at_and_past_their_limits_decode_alike() {
    const NAMES: &str = r#","names":{"threads":{},"vars":{},"locks":{},"labels":{}}}"#;
    for (op, error) in [
        (r#"{"Read":{"t":65535,"x":4294967295}}"#, None),
        (r#"{"Begin":{"t":0,"l":4294967295}}"#, None),
        (r#"{"Fork":{"t":65535,"child":65535}}"#, None),
        (
            r#"{"Read":{"t":65536,"x":0}}"#,
            Some("thread id 65536 out of range"),
        ),
        (
            r#"{"End":{"t":4294967296}}"#,
            Some("thread id 4294967296 out of range"),
        ),
        (
            r#"{"Write":{"t":0,"x":4294967296}}"#,
            Some("identifier 4294967296 out of range"),
        ),
        (
            r#"{"Acquire":{"t":0,"m":4294967296}}"#,
            Some("identifier 4294967296 out of range"),
        ),
        (
            r#"{"Join":{"t":0,"child":65536}}"#,
            Some("thread id 65536 out of range"),
        ),
        (
            r#"{"Fork":{"t":0,"child":4294967295}}"#,
            Some("thread id 4294967295 out of range"),
        ),
        (
            r#"{"End":{"t":18446744073709551616}}"#,
            Some("integer too large"),
        ),
        (r#"{"Read":{"t":1.5,"x":0}}"#, Some("non-integer")),
        (r#"{"Read":{"t":1,"x":2e3}}"#, Some("non-integer")),
    ] {
        let doc = format!(r#"{{"ops":[{op}]{NAMES}"#);
        match (decode_both_ways(op, doc.as_bytes()), error) {
            (Ok(json), None) => assert!(json.contains(op), "{op}: decoded as {json}"),
            (Err(e), Some(want)) => assert!(e.contains(want), "{op}: {e}"),
            (got, _) => panic!("{op}: {got:?}"),
        }
    }
}
