//! Helpers shared by the decoder tests: the corpus, a reader that defeats
//! buffering, and one comparable rendering of a decode's outcome. Each test
//! binary uses only some of them.

#![allow(dead_code)]

use std::io::Read;
use std::path::PathBuf;
use velodrome_events::{Trace, TraceSource};

/// The conformance corpus files whose names end in `suffix`
/// (`.trace.json` or `.trace.vbt`), sorted by name.
pub fn corpus(suffix: &str) -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(suffix))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    assert!(files.len() >= 10, "only {} {suffix} files", files.len());
    files
}

/// Hands out one byte per `read`, so the decoder's buffered window never
/// holds more than one byte and every JSON operation takes the general
/// path.
pub struct OneByte<'a>(pub &'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some((&first, rest)) = self.0.split_first() else {
            return Ok(0);
        };
        buf[0] = first;
        self.0 = rest;
        Ok(1)
    }
}

/// Streams `src` through [`TraceSource`] and renders the outcome: the
/// decoded operations, symbol table and synthesized indices as trace JSON,
/// or the error as its message with its byte offset.
pub fn decode(src: impl Read) -> Result<String, String> {
    let mut ops = Vec::new();
    let summary = TraceSource::open(src)
        .and_then(|source| source.stream(|_, op| ops.push(op)))
        .map_err(|e| e.to_string())?;
    assert_eq!(summary.ops, ops.len());
    let mut trace = Trace::from_ops(ops);
    *trace.names_mut() = summary.names;
    for index in summary.synthesized {
        trace.mark_synthesized(index);
    }
    Ok(trace.to_json())
}

/// Decodes `bytes` through the buffered window and one byte at a time,
/// requires both outcomes to be equal, and returns it.
pub fn decode_both_ways(what: &str, bytes: &[u8]) -> Result<String, String> {
    let windowed = decode(bytes);
    let one_byte = decode(OneByte(bytes));
    assert_eq!(windowed, one_byte, "{what}: the two reads disagree");
    windowed
}
