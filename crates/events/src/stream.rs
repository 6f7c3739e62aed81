//! The JSON trace codec: the one place that knows the trace JSON layout,
//! in both directions.
//!
//! The reader parses trace JSON directly off an [`std::io::Read`] stream
//! with one bounded buffer and no intermediate value tree, handing each
//! operation on as it is decoded: [`crate::TraceSource`] drives it into a
//! sink, for files of either format, and [`read_json_trace`] collects one
//! into a [`Trace`]. [`write_json_trace`] is its mirror image: it renders
//! a [`Trace`] into an [`std::io::Write`] through one bounded buffer.
//! [`Trace::from_json`] and [`Trace::to_json`] are thin wrappers over the
//! two. The binary VBT reader ([`crate::vbt`]) shares the same buffered
//! byte source and error type.
//!
//! The layout is `{"ops":[…],"names":{…},"synthesized":[…]}`: each
//! operation is externally tagged (`{"Read":{"t":0,"x":1}}`), `names`
//! holds the `threads`, `vars`, `locks`, and `labels` id→name maps, and
//! `synthesized` is omitted when empty. The writer emits map keys sorted
//! as strings (`"10"` before `"2"`); the reader accepts any key order,
//! whitespace, and unknown keys. Because `names` and `synthesized` follow
//! `ops`, a streaming reader learns them, and finds their errors (and
//! trailing data), only after the last operation.
//!
//! The reader has one general path, byte by byte through the buffered
//! source, and one shortcut for the operations that make up nearly all of
//! a trace. Before it parses an operation it matches the bytes already
//! buffered against the exact shape the writer emits, `{"Tag":{"t":N}}` or
//! `{"Tag":{"t":N,"<operand>":N}}`, and builds the operation from that
//! slice in one step. On any mismatch (a buffer edge, whitespace, another
//! key order, an unknown key, an out-of-range id, anything malformed) it
//! consumes nothing and the general path parses the operation from the
//! same byte. The shortcut therefore accepts only what the general path
//! accepts, to the same operation, and never reports an error itself.
//!
//! Every read error carries the absolute byte offset of the first byte
//! that could not be interpreted, so CLI diagnostics can point into the
//! file.

use crate::ids::SymbolTable;
use crate::op::Op;
use crate::source::{TraceSource, TraceSummary};
use crate::trace::Trace;
use crate::{Label, LockId, ThreadId, VarId};
use std::fmt;
use std::io::{Read, Write};

/// Why a streaming trace read failed: the source itself, or its contents.
///
/// The distinction matters to callers that map errors onto exit codes —
/// a file that cannot be read is a different failure class from a file
/// that reads fine but does not encode a trace.
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The bytes read so far do not encode a valid trace.
    Malformed {
        /// Absolute offset, in bytes from the start of the stream, of the
        /// first byte that could not be interpreted.
        offset: u64,
        /// What was expected or found there.
        reason: String,
    },
}

impl TraceReadError {
    pub(crate) fn malformed(offset: u64, reason: impl Into<String>) -> Self {
        Self::Malformed {
            offset,
            reason: reason.into(),
        }
    }

    /// Returns `true` when the error describes malformed input rather than
    /// an I/O failure.
    pub fn is_malformed(&self) -> bool {
        matches!(self, Self::Malformed { .. })
    }
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "{e}"),
            Self::Malformed { offset, reason } => write!(f, "byte {offset}: {reason}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<std::io::Error> for TraceReadError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

const BUF_SIZE: usize = 64 * 1024;

/// A buffered byte source that tracks the absolute offset of every byte it
/// hands out. The single allocation shared by the JSON and VBT readers.
pub(crate) struct ByteStream<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    /// Absolute offset of `buf[0]` within the stream.
    base: u64,
    eof: bool,
}

impl<R: Read> ByteStream<R> {
    pub(crate) fn new(src: R) -> Self {
        Self {
            src,
            buf: vec![0; BUF_SIZE],
            pos: 0,
            len: 0,
            base: 0,
            eof: false,
        }
    }

    /// Absolute offset of the next unread byte.
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Ensures at least one byte is buffered; returns `false` at EOF.
    fn refill(&mut self) -> Result<bool, TraceReadError> {
        if self.pos < self.len {
            return Ok(true);
        }
        if self.eof {
            return Ok(false);
        }
        self.base += self.len as u64;
        self.pos = 0;
        self.len = 0;
        loop {
            match self.src.read(&mut self.buf) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.len = n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceReadError::Io(e)),
            }
        }
    }

    /// The next byte without consuming it, or `None` at EOF.
    pub(crate) fn peek(&mut self) -> Result<Option<u8>, TraceReadError> {
        Ok(if self.refill()? {
            Some(self.buf[self.pos])
        } else {
            None
        })
    }

    /// Up to `n` (at most the buffer size) next bytes without consuming
    /// them; fewer only when the stream ends first.
    pub(crate) fn peek_prefix(&mut self, n: usize) -> Result<&[u8], TraceReadError> {
        debug_assert!(n <= self.buf.len());
        if self.len - self.pos < n && !self.eof {
            self.buf.copy_within(self.pos..self.len, 0);
            self.base += self.pos as u64;
            self.len -= self.pos;
            self.pos = 0;
            while self.len < n {
                match self.src.read(&mut self.buf[self.len..]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(got) => self.len += got,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(TraceReadError::Io(e)),
                }
            }
        }
        Ok(&self.buf[self.pos..self.len.min(self.pos + n)])
    }

    /// Consumes the byte last returned by a successful [`Self::peek`].
    pub(crate) fn bump(&mut self) {
        debug_assert!(self.pos < self.len);
        self.pos += 1;
    }

    /// The bytes already buffered past the read position; reads nothing.
    fn window(&self) -> &[u8] {
        &self.buf[self.pos..self.len]
    }

    /// Consumes the first `n` bytes of [`Self::window`].
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len - self.pos);
        self.pos += n;
    }

    /// Reads and consumes the next byte, or `None` at EOF.
    pub(crate) fn next_byte(&mut self) -> Result<Option<u8>, TraceReadError> {
        let b = self.peek()?;
        if b.is_some() {
            self.bump();
        }
        Ok(b)
    }

    /// Fills `out` exactly, or fails with a malformed-input error naming
    /// the offset where the stream ran dry.
    pub(crate) fn read_exact(&mut self, out: &mut [u8]) -> Result<(), TraceReadError> {
        let mut filled = 0;
        while filled < out.len() {
            if !self.refill()? {
                return Err(TraceReadError::malformed(
                    self.offset(),
                    format!(
                        "unexpected end of input ({filled} of {} bytes available)",
                        out.len()
                    ),
                ));
            }
            let n = (self.len - self.pos).min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
        Ok(())
    }
}

/// Parses a JSON trace incrementally from `src` into a [`Trace`].
///
/// Never holds the input text (or a JSON value tree) in memory: peak
/// allocation is one fixed 64 KiB read buffer plus the decoded trace
/// itself.
pub fn read_json_trace<R: Read>(src: R) -> Result<Trace, TraceReadError> {
    TraceSource::json(JsonParser::new(src)).read_to_trace()
}

/// Encodes `trace` as JSON into `w`, byte for byte what
/// [`read_json_trace`] reads back. Output goes through one 64 KiB
/// buffer, so memory use is independent of trace length; `w` is flushed
/// before returning.
pub fn write_json_trace<W: Write>(w: W, trace: &Trace) -> std::io::Result<()> {
    let mut out = JsonWriter {
        w,
        buf: Vec::with_capacity(BUF_SIZE + 1024),
    };
    out.raw(b"{\"ops\":[");
    for (i, &op) in trace.ops().iter().enumerate() {
        if i > 0 {
            out.raw(b",");
        }
        let (tag, t, operand) = Tag::of(op);
        out.raw(b"{\"");
        out.raw(tag.name().as_bytes());
        out.raw(b"\":{\"t\":");
        out.num(t.raw() as u64);
        if let (Some(field), Some(v)) = (tag.operand(), operand) {
            out.raw(b",\"");
            out.raw(field.as_bytes());
            out.raw(b"\":");
            out.num(v as u64);
        }
        out.raw(b"}}");
        out.spill()?;
    }
    out.raw(b"],\"names\":{");
    for (i, (key, mut entries)) in NAME_TABLES
        .into_iter()
        .zip(trace.names().entries())
        .enumerate()
    {
        if i > 0 {
            out.raw(b",");
        }
        out.string(key);
        out.raw(b":{");
        // JSON object keys are strings, and they sort as strings.
        entries.sort_by_cached_key(|&(id, _)| id.to_string());
        for (j, (id, name)) in entries.into_iter().enumerate() {
            if j > 0 {
                out.raw(b",");
            }
            out.raw(b"\"");
            out.num(id as u64);
            out.raw(b"\":");
            out.string(name);
            out.spill()?;
        }
        out.raw(b"}");
    }
    out.raw(b"}");
    if !trace.synthesized().is_empty() {
        out.raw(b",\"synthesized\":[");
        for (i, &idx) in trace.synthesized().iter().enumerate() {
            if i > 0 {
                out.raw(b",");
            }
            out.num(idx as u64);
            out.spill()?;
        }
        out.raw(b"]");
    }
    out.raw(b"}");
    out.w.write_all(&out.buf)?;
    out.w.flush()
}

/// The output side of the codec: a byte buffer that spills into `w`
/// whenever it passes [`BUF_SIZE`].
struct JsonWriter<W> {
    w: W,
    buf: Vec<u8>,
}

impl<W: Write> JsonWriter<W> {
    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn num(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.raw(&digits[at..]);
    }

    /// A JSON string literal: `"` and `\` escaped, control characters as
    /// `\n`/`\r`/`\t` or `\u00XX`, everything else (non-ASCII included)
    /// verbatim.
    fn string(&mut self, s: &str) {
        self.buf.push(b'"');
        for c in s.chars() {
            match c {
                '"' => self.raw(b"\\\""),
                '\\' => self.raw(b"\\\\"),
                '\n' => self.raw(b"\\n"),
                '\r' => self.raw(b"\\r"),
                '\t' => self.raw(b"\\t"),
                c if (c as u32) < 0x20 => {
                    let hex = b"0123456789abcdef";
                    let c = c as usize;
                    self.raw(&[b'\\', b'u', b'0', b'0', hex[c >> 4], hex[c & 0xf]]);
                }
                c => self.raw(c.encode_utf8(&mut [0; 4]).as_bytes()),
            }
        }
        self.buf.push(b'"');
    }

    fn spill(&mut self) -> std::io::Result<()> {
        if self.buf.len() >= BUF_SIZE {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Top-level keys of a trace document.
#[derive(Clone, Copy, PartialEq)]
enum TopKey {
    Ops,
    Names,
    Synthesized,
    Unknown,
}

/// The keys of the `names` object, in the order of
/// [`SymbolTable::entries`].
const NAME_TABLES: [&str; 4] = ["threads", "vars", "locks", "labels"];

/// Operation tags, i.e. the variant names of [`Op`]. The declaration
/// order is the VBT tag byte ([`crate::vbt`]): `Read` = 0 … `Join` = 7.
#[derive(Clone, Copy)]
pub(crate) enum Tag {
    Read,
    Write,
    Acquire,
    Release,
    Begin,
    End,
    Fork,
    Join,
}

impl Tag {
    /// Every tag, indexed by its VBT tag byte.
    pub(crate) const ALL: [Tag; 8] = [
        Tag::Read,
        Tag::Write,
        Tag::Acquire,
        Tag::Release,
        Tag::Begin,
        Tag::End,
        Tag::Fork,
        Tag::Join,
    ];

    /// An operation's tag, thread, and second operand (if any).
    pub(crate) fn of(op: Op) -> (Tag, ThreadId, Option<u32>) {
        match op {
            Op::Read { t, x } => (Tag::Read, t, Some(x.raw())),
            Op::Write { t, x } => (Tag::Write, t, Some(x.raw())),
            Op::Acquire { t, m } => (Tag::Acquire, t, Some(m.raw())),
            Op::Release { t, m } => (Tag::Release, t, Some(m.raw())),
            Op::Begin { t, l } => (Tag::Begin, t, Some(l.raw())),
            Op::End { t } => (Tag::End, t, None),
            Op::Fork { t, child } => (Tag::Fork, t, Some(child.raw())),
            Op::Join { t, child } => (Tag::Join, t, Some(child.raw())),
        }
    }

    /// The inverse of [`Tag::of`]; `operand` is ignored for `End`.
    pub(crate) fn build(self, t: ThreadId, operand: u32) -> Op {
        match self {
            Tag::Read => Op::Read {
                t,
                x: VarId::new(operand),
            },
            Tag::Write => Op::Write {
                t,
                x: VarId::new(operand),
            },
            Tag::Acquire => Op::Acquire {
                t,
                m: LockId::new(operand),
            },
            Tag::Release => Op::Release {
                t,
                m: LockId::new(operand),
            },
            Tag::Begin => Op::Begin {
                t,
                l: Label::new(operand),
            },
            Tag::End => Op::End { t },
            Tag::Fork => Op::Fork {
                t,
                child: ThreadId::new(operand),
            },
            Tag::Join => Op::Join {
                t,
                child: ThreadId::new(operand),
            },
        }
    }

    fn name(self) -> &'static str {
        match self {
            Tag::Read => "Read",
            Tag::Write => "Write",
            Tag::Acquire => "Acquire",
            Tag::Release => "Release",
            Tag::Begin => "Begin",
            Tag::End => "End",
            Tag::Fork => "Fork",
            Tag::Join => "Join",
        }
    }

    /// The second operand's field name, if the variant has one.
    fn operand(self) -> Option<&'static str> {
        match self {
            Tag::Read | Tag::Write => Some("x"),
            Tag::Acquire | Tag::Release => Some("m"),
            Tag::Begin => Some("l"),
            Tag::End => None,
            Tag::Fork | Tag::Join => Some("child"),
        }
    }
}

/// Matches the start of `b` against the one operation shape
/// [`write_json_trace`] emits, `{"Tag":{"t":N}}` or
/// `{"Tag":{"t":N,"<operand>":N}}`, and returns the operation with the
/// number of bytes it spans. It applies the general parser's checks: ids
/// within range ([`ThreadId::checked`] for `t` and a fork/join `child`),
/// overflow-checked digits, and no fraction or exponent (the shape wants
/// `,` or `}` right after each number). Anything else is `None`: a window
/// that ends inside the operation, whitespace, another key order, an
/// unknown key, an out-of-range id, malformed input. The caller then hands
/// the same position to [`JsonParser::parse_op`], so every error, with its
/// message and byte offset, comes from the general path.
fn writer_shaped_op(b: &[u8]) -> Option<(Op, usize)> {
    let rest = b.strip_prefix(b"{\"")?;
    let tag = Tag::ALL
        .into_iter()
        .find(|tag| rest.starts_with(tag.name().as_bytes()))?;
    let rest = rest[tag.name().len()..].strip_prefix(b"\":{\"t\":")?;
    let (t, rest) = leading_u64(rest)?;
    let t = ThreadId::checked(t).ok()?;
    let (operand, rest) = match tag.operand() {
        None => (0, rest),
        Some(field) => {
            let rest = rest
                .strip_prefix(b",\"")?
                .strip_prefix(field.as_bytes())?
                .strip_prefix(b"\":")?;
            let (v, rest) = leading_u64(rest)?;
            let v = match tag {
                Tag::Fork | Tag::Join => ThreadId::checked(v).ok()?.raw(),
                _ => u32::try_from(v).ok()?,
            };
            (v, rest)
        }
    };
    let rest = rest.strip_prefix(b"}}")?;
    Some((tag.build(t, operand), b.len() - rest.len()))
}

/// The decimal number at the start of `b` and the bytes after it; `None`
/// without a digit or when the value overflows a `u64`.
fn leading_u64(b: &[u8]) -> Option<(u64, &[u8])> {
    let digits = b.iter().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let mut v = 0u64;
    for &c in &b[..digits] {
        v = v.checked_mul(10)?.checked_add((c - b'0') as u64)?;
    }
    Some((v, &b[digits..]))
}

const MAX_DEPTH: u32 = 128;

/// The streaming JSON trace reader.
pub(crate) struct JsonParser<R> {
    s: ByteStream<R>,
    /// Reusable decode buffer for string contents, so steady-state parsing
    /// performs no per-token allocation.
    scratch: Vec<u8>,
}

impl<R: Read> JsonParser<R> {
    fn new(src: R) -> Self {
        Self::from_stream(ByteStream::new(src))
    }

    pub(crate) fn from_stream(s: ByteStream<R>) -> Self {
        Self {
            s,
            scratch: Vec::with_capacity(64),
        }
    }

    fn fail(&self, reason: impl Into<String>) -> TraceReadError {
        TraceReadError::malformed(self.s.offset(), reason)
    }

    fn skip_ws(&mut self) -> Result<(), TraceReadError> {
        while let Some(b) = self.s.peek()? {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.s.bump(),
                _ => break,
            }
        }
        Ok(())
    }

    fn expect(&mut self, want: u8, what: &str) -> Result<(), TraceReadError> {
        match self.s.peek()? {
            Some(b) if b == want => {
                self.s.bump();
                Ok(())
            }
            Some(b) => Err(self.fail(format!("expected {what}, found `{}`", b as char))),
            None => Err(self.fail(format!("unexpected end of input (expected {what})"))),
        }
    }

    /// Decodes a JSON string (including escapes) into `self.scratch`.
    fn parse_string(&mut self) -> Result<(), TraceReadError> {
        self.expect(b'"', "a string")?;
        self.scratch.clear();
        loop {
            let Some(b) = self.s.next_byte()? else {
                return Err(self.fail("unexpected end of input in string"));
            };
            match b {
                b'"' => return Ok(()),
                b'\\' => {
                    let Some(e) = self.s.next_byte()? else {
                        return Err(self.fail("unexpected end of input in escape"));
                    };
                    match e {
                        b'"' => self.scratch.push(b'"'),
                        b'\\' => self.scratch.push(b'\\'),
                        b'/' => self.scratch.push(b'/'),
                        b'b' => self.scratch.push(0x08),
                        b'f' => self.scratch.push(0x0c),
                        b'n' => self.scratch.push(b'\n'),
                        b'r' => self.scratch.push(b'\r'),
                        b't' => self.scratch.push(b'\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // A high surrogate must pair with `\uXXXX`.
                                if self.s.next_byte()? != Some(b'\\')
                                    || self.s.next_byte()? != Some(b'u')
                                {
                                    return Err(self.fail("unpaired surrogate in string"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.fail("invalid low surrogate in string"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.fail("unpaired surrogate in string"));
                            } else {
                                hi
                            };
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.fail("invalid unicode escape"))?;
                            let mut utf8 = [0u8; 4];
                            self.scratch.extend(ch.encode_utf8(&mut utf8).as_bytes());
                        }
                        other => {
                            return Err(self.fail(format!("invalid escape `\\{}`", other as char)));
                        }
                    }
                }
                _ => self.scratch.push(b),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, TraceReadError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.s.next_byte()? else {
                return Err(self.fail("unexpected end of input in unicode escape"));
            };
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.fail("invalid hex digit in unicode escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// The scratch buffer as UTF-8 text (for error messages and name values).
    fn scratch_str(&self) -> Result<&str, TraceReadError> {
        std::str::from_utf8(&self.scratch)
            .map_err(|_| TraceReadError::malformed(self.s.offset(), "invalid UTF-8 in string"))
    }

    /// Parses a non-negative integer. Fractional or signed numbers are
    /// rejected: every number in a trace document is an identifier or an
    /// index.
    fn parse_u64(&mut self) -> Result<u64, TraceReadError> {
        let mut v: u64 = 0;
        let mut digits = 0u32;
        while let Some(b) = self.s.peek()? {
            if !b.is_ascii_digit() {
                break;
            }
            self.s.bump();
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u64))
                .ok_or_else(|| self.fail("integer too large"))?;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.fail("expected an unsigned integer"));
        }
        if let Some(b'.' | b'e' | b'E') = self.s.peek()? {
            return Err(self.fail("expected an unsigned integer, found a non-integer number"));
        }
        Ok(v)
    }

    fn parse_u32(&mut self, what: &str) -> Result<u32, TraceReadError> {
        let v = self.parse_u64()?;
        u32::try_from(v).map_err(|_| self.fail(format!("{what} {v} out of range")))
    }

    /// Parses a thread id (`t`, or a fork/join `child`) below
    /// [`crate::MAX_THREADS`].
    fn parse_thread(&mut self) -> Result<ThreadId, TraceReadError> {
        let v = self.parse_u64()?;
        ThreadId::checked(v).map_err(|reason| self.fail(reason))
    }

    /// Skips one JSON value of any shape (used for unknown keys).
    fn skip_value(&mut self, depth: u32) -> Result<(), TraceReadError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws()?;
        match self.s.peek()? {
            Some(b'"') => self.parse_string(),
            Some(b'{') => {
                self.s.bump();
                self.skip_ws()?;
                if self.s.peek()? == Some(b'}') {
                    self.s.bump();
                    return Ok(());
                }
                loop {
                    self.skip_ws()?;
                    self.parse_string()?;
                    self.skip_ws()?;
                    self.expect(b':', "`:`")?;
                    self.skip_value(depth + 1)?;
                    self.skip_ws()?;
                    match self.s.next_byte()? {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(()),
                        _ => return Err(self.fail("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'[') => {
                self.s.bump();
                self.skip_ws()?;
                if self.s.peek()? == Some(b']') {
                    self.s.bump();
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    self.skip_ws()?;
                    match self.s.next_byte()? {
                        Some(b',') => continue,
                        Some(b']') => return Ok(()),
                        _ => return Err(self.fail("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b't') => self.expect_literal(b"true"),
            Some(b'f') => self.expect_literal(b"false"),
            Some(b'n') => self.expect_literal(b"null"),
            Some(b'-') | Some(b'0'..=b'9') => self.skip_number(),
            Some(b) => Err(self.fail(format!("unexpected character `{}`", b as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn expect_literal(&mut self, lit: &[u8]) -> Result<(), TraceReadError> {
        for &want in lit {
            if self.s.next_byte()? != Some(want) {
                return Err(self.fail(format!(
                    "invalid literal (expected `{}`)",
                    std::str::from_utf8(lit).unwrap()
                )));
            }
        }
        Ok(())
    }

    fn skip_number(&mut self) -> Result<(), TraceReadError> {
        if self.s.peek()? == Some(b'-') {
            self.s.bump();
        }
        let mut digits = 0;
        while let Some(b) = self.s.peek()? {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => {
                    self.s.bump();
                    digits += 1;
                }
                _ => break,
            }
        }
        if digits == 0 {
            return Err(self.fail("expected a number"));
        }
        Ok(())
    }

    /// Parses the whole document, handing each operation to `on_op` as it
    /// is decoded.
    pub(crate) fn parse_trace<F: FnMut(usize, Op)>(
        mut self,
        mut on_op: F,
    ) -> Result<TraceSummary, TraceReadError> {
        self.skip_ws()?;
        self.expect(b'{', "a trace object")?;
        let mut names: Option<SymbolTable> = None;
        let mut synthesized: Option<Vec<usize>> = None;
        let mut ops: Option<usize> = None;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
        } else {
            loop {
                self.skip_ws()?;
                self.parse_string()?;
                let key = match self.scratch.as_slice() {
                    b"ops" => TopKey::Ops,
                    b"names" => TopKey::Names,
                    b"synthesized" => TopKey::Synthesized,
                    _ => TopKey::Unknown,
                };
                if match key {
                    TopKey::Ops => ops.is_some(),
                    TopKey::Names => names.is_some(),
                    TopKey::Synthesized => synthesized.is_some(),
                    TopKey::Unknown => false,
                } {
                    return Err(self.fail("duplicate key in trace object"));
                }
                self.skip_ws()?;
                self.expect(b':', "`:`")?;
                self.skip_ws()?;
                match key {
                    TopKey::Ops => ops = Some(self.parse_ops(&mut on_op)?),
                    TopKey::Names => names = Some(self.parse_names()?),
                    TopKey::Synthesized => synthesized = Some(self.parse_synthesized()?),
                    TopKey::Unknown => self.skip_value(0)?,
                }
                self.skip_ws()?;
                match self.s.next_byte()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.fail("expected `,` or `}` in trace object")),
                }
            }
        }
        self.skip_ws()?;
        if self.s.peek()?.is_some() {
            return Err(self.fail("trailing data after trace object"));
        }
        let ops = ops.ok_or_else(|| self.fail("trace object is missing `ops`"))?;
        let names = names.ok_or_else(|| self.fail("trace object is missing `names`"))?;
        let mut synthesized = synthesized.unwrap_or_default();
        synthesized.sort_unstable();
        synthesized.dedup();
        if let Some(&last) = synthesized.last() {
            if last >= ops {
                return Err(self.fail(format!(
                    "synthesized index {last} out of bounds for {ops} ops"
                )));
            }
        }
        Ok(TraceSummary {
            names,
            synthesized,
            ops,
        })
    }

    fn parse_ops<F: FnMut(usize, Op)>(&mut self, on_op: &mut F) -> Result<usize, TraceReadError> {
        self.expect(b'[', "an array for `ops`")?;
        let mut count = 0usize;
        self.skip_ws()?;
        if self.s.peek()? == Some(b']') {
            self.s.bump();
            return Ok(0);
        }
        loop {
            self.skip_ws()?;
            let op = match writer_shaped_op(self.s.window()) {
                Some((op, len)) => {
                    self.s.consume(len);
                    op
                }
                None => self.parse_op()?,
            };
            on_op(count, op);
            count += 1;
            self.skip_ws()?;
            match self.s.next_byte()? {
                Some(b',') => continue,
                Some(b']') => return Ok(count),
                _ => return Err(self.fail("expected `,` or `]` in `ops`")),
            }
        }
    }

    /// Parses one externally tagged operation: `{"Read":{"t":0,"x":1}}`.
    fn parse_op(&mut self) -> Result<Op, TraceReadError> {
        self.expect(b'{', "an operation object")?;
        self.skip_ws()?;
        self.parse_string()?;
        let Some(tag) = Tag::ALL
            .into_iter()
            .find(|tag| tag.name().as_bytes() == self.scratch)
        else {
            let name = self.scratch_str().unwrap_or("<non-UTF-8>").to_owned();
            return Err(self.fail(format!("unknown operation `{name}`")));
        };
        self.skip_ws()?;
        self.expect(b':', "`:`")?;
        self.skip_ws()?;
        self.expect(b'{', "an operation body")?;
        let mut t: Option<ThreadId> = None;
        let mut operand: Option<u32> = None;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
        } else {
            loop {
                self.skip_ws()?;
                self.parse_string()?;
                #[derive(PartialEq)]
                enum Field {
                    Thread,
                    Operand,
                    Unknown,
                }
                let field = if self.scratch.as_slice() == b"t" {
                    Field::Thread
                } else if tag.operand().is_some_and(|f| f.as_bytes() == self.scratch) {
                    Field::Operand
                } else {
                    Field::Unknown
                };
                self.skip_ws()?;
                self.expect(b':', "`:`")?;
                self.skip_ws()?;
                match field {
                    Field::Thread => t = Some(self.parse_thread()?),
                    Field::Operand if matches!(tag, Tag::Fork | Tag::Join) => {
                        operand = Some(self.parse_thread()?.raw())
                    }
                    Field::Operand => operand = Some(self.parse_u32("identifier")?),
                    Field::Unknown => self.skip_value(0)?,
                }
                self.skip_ws()?;
                match self.s.next_byte()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.fail("expected `,` or `}` in operation body")),
                }
            }
        }
        // Any further entries in the operation object are ignored: the
        // first entry is the operation.
        self.skip_ws()?;
        loop {
            match self.s.next_byte()? {
                Some(b'}') => break,
                Some(b',') => {
                    self.skip_ws()?;
                    self.parse_string()?;
                    self.skip_ws()?;
                    self.expect(b':', "`:`")?;
                    self.skip_value(0)?;
                    self.skip_ws()?;
                }
                _ => return Err(self.fail("expected `,` or `}` in operation object")),
            }
        }
        let t = t.ok_or_else(|| self.fail(format!("missing field `t` in {}", tag.name())))?;
        let operand = match tag.operand() {
            Some(field) => operand
                .ok_or_else(|| self.fail(format!("missing field `{field}` in {}", tag.name())))?,
            None => 0,
        };
        Ok(tag.build(t, operand))
    }

    /// Parses the `names` object: four id→name maps keyed by decimal
    /// strings, in any order; unknown keys are skipped.
    fn parse_names(&mut self) -> Result<SymbolTable, TraceReadError> {
        let mut table = SymbolTable::new();
        let mut seen = [false; 4];
        self.expect(b'{', "an object for `names`")?;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
        } else {
            loop {
                self.skip_ws()?;
                self.parse_string()?;
                let slot = NAME_TABLES
                    .iter()
                    .position(|k| k.as_bytes() == self.scratch);
                self.skip_ws()?;
                self.expect(b':', "`:`")?;
                self.skip_ws()?;
                match slot {
                    Some(i) => {
                        seen[i] = true;
                        self.parse_id_map(i, &mut table)?;
                    }
                    None => self.skip_value(0)?,
                }
                self.skip_ws()?;
                match self.s.next_byte()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.fail("expected `,` or `}` in `names`")),
                }
            }
        }
        for (i, field) in NAME_TABLES.iter().enumerate() {
            if !seen[i] {
                return Err(self.fail(format!("`names` is missing `{field}`")));
            }
        }
        Ok(table)
    }

    /// Parses one id→name map of `names` into table `slot` of `table`.
    fn parse_id_map(&mut self, slot: usize, table: &mut SymbolTable) -> Result<(), TraceReadError> {
        self.expect(b'{', "an object")?;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
            return Ok(());
        }
        loop {
            self.skip_ws()?;
            self.parse_string()?;
            let id: u32 = self
                .scratch_str()?
                .parse()
                .map_err(|_| self.fail("expected a decimal id key"))?;
            self.skip_ws()?;
            self.expect(b':', "`:`")?;
            self.skip_ws()?;
            self.parse_string()?;
            let name = self.scratch_str()?.to_owned();
            table.insert(slot, id, name);
            self.skip_ws()?;
            match self.s.next_byte()? {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.fail("expected `,` or `}` in name map")),
            }
        }
    }

    fn parse_synthesized(&mut self) -> Result<Vec<usize>, TraceReadError> {
        self.expect(b'[', "an array for `synthesized`")?;
        let mut out = Vec::new();
        self.skip_ws()?;
        if self.s.peek()? == Some(b']') {
            self.s.bump();
            return Ok(out);
        }
        loop {
            self.skip_ws()?;
            let v = self.parse_u64()?;
            out.push(usize::try_from(v).map_err(|_| self.fail("index too large"))?);
            self.skip_ws()?;
            match self.s.next_byte()? {
                Some(b',') => continue,
                Some(b']') => return Ok(out),
                _ => return Err(self.fail("expected `,` or `]` in `synthesized`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "add").acquire("T1", "m").read("T1", "v");
        b.write("T2", "v");
        b.release("T1", "m").end("T1");
        b.fork("T1", "T3").join("T1", "T3");
        b.finish()
    }

    /// Twelve named threads (so key `"10"` sorts before `"2"`), a name
    /// that needs every kind of escape, and synthesized indices.
    fn pinned_trace() -> Trace {
        const ESCAPED: &str = "q\"b\\s\u{1f}\n\té😀";
        let mut b = TraceBuilder::new();
        for i in 0..12 {
            b.thread(&format!("t{i}"));
        }
        b.begin("t0", "Set.add")
            .read("t0", ESCAPED)
            .write("t11", ESCAPED);
        b.acquire("t0", "this").release("t0", "this").end("t0");
        b.fork("t0", "t10").join("t0", "t10");
        let mut trace = b.finish();
        trace.mark_synthesized(5);
        trace.mark_synthesized(4);
        trace
    }

    const PINNED: &str = concat!(
        r#"{"ops":[{"Begin":{"t":0,"l":0}},{"Read":{"t":0,"x":0}},{"Write":{"t":11,"x":0}},"#,
        r#"{"Acquire":{"t":0,"m":0}},{"Release":{"t":0,"m":0}},{"End":{"t":0}},"#,
        r#"{"Fork":{"t":0,"child":10}},{"Join":{"t":0,"child":10}}],"#,
        r#""names":{"threads":{"0":"t0","1":"t1","10":"t10","11":"t11","2":"t2","3":"t3","#,
        r#""4":"t4","5":"t5","6":"t6","7":"t7","8":"t8","9":"t9"},"#,
        r#""vars":{"0":"q\"b\\s\u001f\n\té😀"},"locks":{"0":"this"},"labels":{"0":"Set.add"}},"#,
        r#""synthesized":[4,5]}"#,
    );

    #[test]
    fn writer_matches_pinned_literal() {
        assert_eq!(pinned_trace().to_json(), PINNED);
    }

    #[test]
    fn streaming_parse_matches_pinned_literal() {
        let expected = pinned_trace();
        let streamed = read_json_trace(PINNED.as_bytes()).unwrap();
        assert_eq!(streamed.ops(), expected.ops());
        assert_eq!(streamed.synthesized(), &[4, 5]);
        for i in 0..12 {
            assert_eq!(streamed.names().thread(ThreadId::new(i)), format!("t{i}"));
        }
        assert_eq!(
            streamed.names().var(VarId::new(0)),
            expected.names().var(VarId::new(0))
        );
        assert_eq!(streamed.to_json(), PINNED);
    }

    #[test]
    fn corpus_traces_roundtrip_byte_for_byte() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if !path.to_string_lossy().ends_with(".trace.json") {
                continue;
            }
            let bytes = std::fs::read(&path).unwrap();
            let trace = read_json_trace(&bytes[..]).unwrap();
            let mut out = Vec::new();
            write_json_trace(&mut out, &trace).unwrap();
            assert!(out == bytes, "{} does not round-trip", path.display());
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} corpus traces found");
    }

    #[test]
    fn synthesized_indices_roundtrip_and_are_validated() {
        let mut trace = sample_trace();
        trace.mark_synthesized(5);
        let json = trace.to_json();
        let streamed = read_json_trace(json.as_bytes()).unwrap();
        assert_eq!(streamed.synthesized(), &[5]);
        assert_eq!(streamed.to_json(), json);
        let bad = r#"{"ops":[{"End":{"t":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}},"synthesized":[7]}"#;
        let e = read_json_trace(bad.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("out of bounds"), "{e}");
    }

    #[test]
    fn tolerates_whitespace_reordering_and_unknown_keys() {
        let json = "\n{ \"extra\" : [1, {\"a\": null}, true] ,\n \"names\" : {\"labels\":{}, \"threads\": {\"0\":\"T1\"}, \"vars\":{}, \"locks\":{}, \"more\": 1},\n \"ops\" : [ {\"Read\": {\"x\": 2, \"t\": 0}} ] }\n";
        let trace = read_json_trace(json.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace.get(0),
            Some(Op::Read {
                t: ThreadId::new(0),
                x: VarId::new(2)
            })
        );
        assert_eq!(trace.names().thread(ThreadId::new(0)), "T1");
    }

    #[test]
    fn string_escapes_decode() {
        let json = r#"{"ops":[],"names":{"threads":{"0":"a\"b\\c\nA😀"},"vars":{},"locks":{},"labels":{}}}"#;
        let trace = read_json_trace(json.as_bytes()).unwrap();
        assert_eq!(trace.names().thread(ThreadId::new(0)), "a\"b\\c\nA😀");
    }

    #[test]
    fn errors_carry_byte_offsets() {
        for (doc, want) in [
            ("", "byte 0"),
            ("{\"ops\": 42}", "byte 8"),
            ("{\"ops\": [], \"names\"", "byte 19"),
            ("[1,2]", "byte 0"),
        ] {
            let e = read_json_trace(doc.as_bytes()).unwrap_err();
            assert!(e.is_malformed(), "{doc:?}: {e}");
            assert!(e.to_string().contains(want), "{doc:?}: {e}");
        }
        // Truncation mid-document points at the end of the input.
        let full = sample_trace().to_json();
        let cut = &full[..full.len() / 2];
        let e = read_json_trace(cut.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
    }

    #[test]
    fn trailing_data_and_missing_fields_are_rejected() {
        let e = read_json_trace(&b"{\"ops\":[],\"names\":{\"threads\":{},\"vars\":{},\"locks\":{},\"labels\":{}}} extra"[..])
            .unwrap_err();
        assert!(e.to_string().contains("trailing data"), "{e}");
        let e = read_json_trace(&b"{}"[..]).unwrap_err();
        assert!(e.to_string().contains("missing `ops`"), "{e}");
        let e = read_json_trace(&b"{\"ops\":[]}"[..]).unwrap_err();
        assert!(e.to_string().contains("missing `names`"), "{e}");
        let e = read_json_trace(
            &b"{\"ops\":[],\"names\":{\"threads\":{},\"vars\":{},\"locks\":{}}}"[..],
        )
        .unwrap_err();
        assert!(e.to_string().contains("missing `labels`"), "{e}");
        let e = read_json_trace(&b"{\"ops\":[{\"Read\":{\"t\":0}}],\"names\":{\"threads\":{},\"vars\":{},\"locks\":{},\"labels\":{}}}"[..])
            .unwrap_err();
        assert!(e.to_string().contains("missing field `x`"), "{e}");
    }

    #[test]
    fn rejects_non_integer_ids() {
        for doc in [
            r#"{"ops":[{"Read":{"t":-1,"x":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}"#,
            r#"{"ops":[{"Read":{"t":1.5,"x":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}"#,
            r#"{"ops":[{"Read":{"t":5000000000,"x":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}"#,
        ] {
            let e = read_json_trace(doc.as_bytes()).unwrap_err();
            assert!(e.is_malformed(), "{doc}: {e}");
        }
    }

    #[test]
    fn scan_streams_without_collecting() {
        let trace = sample_trace();
        let json = trace.to_json();
        let mut count = 0usize;
        let summary = TraceSource::open(json.as_bytes())
            .unwrap()
            .stream(|i, op| {
                assert_eq!(trace.get(i), Some(op));
                count += 1;
            })
            .unwrap();
        assert_eq!(count, trace.len());
        assert_eq!(summary.ops, trace.len());
        assert_eq!(summary.names.lock(LockId::new(0)), "m");
    }
}
