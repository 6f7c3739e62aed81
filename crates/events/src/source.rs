//! One way in for trace bytes, whatever their encoding.
//!
//! [`TraceSource::open`] sniffs a stream's first four bytes for the VBT
//! magic and opens the matching decoder ([`crate::vbt`] or the JSON reader
//! of [`crate::stream`]). [`TraceSource::stream`] then pushes each
//! `(index, op)` into a sink as soon as it is decoded and, once the stream
//! has ended and its tail has been validated, returns the
//! [`TraceSummary`]: the symbol table, the synthesized indices, and the
//! operation count. Nothing is kept on the way but the decoder's bounded
//! buffer, so a checker fed this way holds only its own live state, however
//! long the trace. [`TraceSource::read_to_trace`] collects the stream into
//! a [`Trace`] for the commands that need a whole one; [`crate::read_vbt`]
//! and [`crate::read_json_trace`] are exactly that, for a known encoding.
//!
//! Some errors can only show once the last operation has streamed: bytes
//! after the end of the trace, a synthesized index past the operation
//! count, and (in JSON, where `names` follows `ops`) a missing or broken
//! symbol table. A sink must treat what it has seen as provisional until
//! [`TraceSource::stream`] returns `Ok`.

use crate::ids::SymbolTable;
use crate::op::Op;
use crate::stream::{ByteStream, JsonParser, TraceReadError};
use crate::trace::Trace;
use crate::vbt::{is_vbt, VbtReader, MAGIC};
use std::io::Read;

/// What a trace stream carries besides its operations, known once the
/// last operation has streamed. Returned by [`TraceSource::stream`].
#[derive(Debug)]
pub struct TraceSummary {
    /// The trace's symbol table.
    pub names: SymbolTable,
    /// Sorted, deduplicated indices of synthesized operations, validated
    /// to be in bounds.
    pub synthesized: Vec<usize>,
    /// Number of operations streamed to the sink.
    pub ops: usize,
}

/// An open trace stream in either encoding, ready to push its operations
/// into a sink.
pub struct TraceSource<R>(Decoder<R>);

enum Decoder<R> {
    Vbt(Box<VbtReader<R>>),
    Json(JsonParser<R>),
}

impl<R: Read> TraceSource<R> {
    /// Opens a trace stream, choosing the decoder from its first bytes: the
    /// VBT magic selects the binary reader (whose header is read here),
    /// anything else the JSON reader.
    pub fn open(src: R) -> Result<Self, TraceReadError> {
        let mut s = ByteStream::new(src);
        Ok(if is_vbt(s.peek_prefix(MAGIC.len())?) {
            Self::vbt(VbtReader::from_stream(s)?)
        } else {
            Self::json(JsonParser::from_stream(s))
        })
    }

    pub(crate) fn vbt(reader: VbtReader<R>) -> Self {
        Self(Decoder::Vbt(Box::new(reader)))
    }

    pub(crate) fn json(parser: JsonParser<R>) -> Self {
        Self(Decoder::Json(parser))
    }

    /// Decodes the whole stream, calling `sink(index, op)` for each
    /// operation in trace order, and returns the rest of the trace once
    /// the stream has been validated to its end.
    pub fn stream<F: FnMut(usize, Op)>(self, mut sink: F) -> Result<TraceSummary, TraceReadError> {
        match self.0 {
            Decoder::Vbt(mut reader) => {
                let mut index = 0;
                while let Some(op) = reader.next_op()? {
                    sink(index, op);
                    index += 1;
                }
                Ok(reader.into_summary())
            }
            Decoder::Json(parser) => parser.parse_trace(sink),
        }
    }

    /// Decodes the whole stream into a [`Trace`].
    pub fn read_to_trace(self) -> Result<Trace, TraceReadError> {
        let mut ops = Vec::new();
        let summary = self.stream(|_, op| ops.push(op))?;
        Ok(Trace::from_raw_parts(
            ops,
            summary.names,
            summary.synthesized,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use crate::vbt::trace_to_vbt;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
        let mut t = b.finish();
        t.mark_synthesized(4);
        t
    }

    /// Hands out one byte per `read`, so the sniff must keep reading.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = first;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn both_encodings_stream_the_same_trace() {
        let trace = sample_trace();
        for bytes in [trace.to_json().into_bytes(), trace_to_vbt(&trace)] {
            let mut seen = Vec::new();
            let summary = TraceSource::open(Trickle(&bytes))
                .unwrap()
                .stream(|i, op| seen.push((i, op)))
                .unwrap();
            assert_eq!(seen, trace.iter().collect::<Vec<_>>());
            assert_eq!(summary.ops, trace.len());
            assert_eq!(summary.synthesized, trace.synthesized());
            assert_eq!(summary.names.label(crate::Label::new(0)), "inc");
            let collected = TraceSource::open(&bytes[..])
                .unwrap()
                .read_to_trace()
                .unwrap();
            assert_eq!(collected.to_json(), trace.to_json());
        }
    }

    #[test]
    fn inputs_shorter_than_the_magic_go_to_the_json_reader() {
        for bytes in [&b""[..], b"{}", b"VBT"] {
            let e = TraceSource::open(bytes)
                .unwrap()
                .stream(|_, _| {})
                .unwrap_err();
            assert!(e.is_malformed(), "{bytes:?}: {e}");
        }
    }
}
