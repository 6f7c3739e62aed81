//! Regression tests: the JSON trace codec must hold bounded memory in both
//! directions, however long the trace.
//!
//! A value-tree codec slurps the whole file into a `String` and builds a
//! JSON tree — roughly 3× the input size in peak heap — and renders a
//! trace by building the same tree. The streaming reader must instead hold
//! only its fixed 64 KiB buffer (plus the symbol table), and the writer
//! only its 64 KiB output buffer. We assert this with an allocation counter
//! rather than OS RSS, which is noisy and platform-dependent.
//!
//! The same counter bounds the decoders on hostile input: a sweep of
//! corrupted corpus traces must never make either reader allocate what the
//! bytes merely claim.
//!
//! The tests serialize on [`SERIAL`]: two tests measuring at once in the
//! same process would pollute each other's allocator counters.

mod common;

use common::{corpus, decode, OneByte};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use velodrome_events::vbt::{MAX_FRAME_LEN, MAX_NAME_LEN, MAX_TABLE_ENTRIES};
use velodrome_events::{Op, ThreadId, Trace, TraceSource, VarId};

static SERIAL: Mutex<()> = Mutex::new(());

/// Counts live heap bytes and tracks the high-water mark.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Procedurally generates the JSON text of an enormous trace, 4096 ops per
/// chunk, so the input itself never exists in memory either. The document
/// is `{"ops":[...],"names":{...}}`.
fn synthetic_trace_json(ops: usize) -> impl Read {
    let header = b"{\"ops\":[".to_vec();
    let body = (0..ops).step_by(4096).map(move |start| {
        let mut chunk = Vec::new();
        for i in start..(start + 4096).min(ops) {
            if i > 0 {
                chunk.push(b',');
            }
            let tag = if i % 2 == 0 { "Read" } else { "Write" };
            let (t, x) = (i % 8, i % 1000);
            chunk.extend_from_slice(format!("{{\"{tag}\":{{\"t\":{t},\"x\":{x}}}}}").as_bytes());
        }
        chunk
    });
    let footer =
        b"],\"names\":{\"threads\":{\"0\":\"main\"},\"vars\":{},\"locks\":{},\"labels\":{}}}"
            .to_vec();
    let chunks = std::iter::once(header)
        .chain(body)
        .chain(std::iter::once(footer));
    ChunkReader {
        chunks,
        chunk: Vec::new(),
        pos: 0,
    }
}

/// Reads a byte stream produced one chunk at a time.
struct ChunkReader<I> {
    chunks: I,
    chunk: Vec<u8>,
    pos: usize,
}

impl<I: Iterator<Item = Vec<u8>>> Read for ChunkReader<I> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.pos == self.chunk.len() {
            match self.chunks.next() {
                Some(chunk) => (self.chunk, self.pos) = (chunk, 0),
                None => return Ok(0),
            }
        }
        let n = (self.chunk.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn scan_holds_bounded_memory_on_a_multi_hundred_mb_trace() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // ~8.4M ops at ~26 bytes each ≈ 220 MB of JSON text.
    const OPS: usize = 8_400_000;

    // Count the bytes the generator actually produces, to prove the input
    // really was multi-hundred-MB.
    struct Counted<R> {
        inner: R,
        bytes: u64,
    }
    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n as u64;
            Ok(n)
        }
    }

    let mut src = Counted {
        inner: synthetic_trace_json(OPS),
        bytes: 0,
    };

    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);

    let mut count = 0usize;
    let summary = TraceSource::open(&mut src)
        .and_then(|source| source.stream(|_, _| count += 1))
        .expect("synthetic trace parses");

    let peak_delta = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    assert_eq!(count, OPS);
    assert_eq!(summary.ops, OPS);
    assert!(
        src.bytes >= 200 << 20,
        "input was only {} bytes — not a multi-hundred-MB trace",
        src.bytes
    );
    // 64 KiB stream buffer + generator chunk (~100 KiB) + symbol table.
    // Anything over 4 MiB means the parser is accumulating input.
    assert!(
        peak_delta < 4 << 20,
        "peak allocation grew by {peak_delta} bytes while streaming {} bytes",
        src.bytes
    );
}

#[test]
fn write_holds_bounded_memory_on_a_million_op_trace() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const OPS: u32 = 1_200_000;
    let trace: Trace = (0..OPS)
        .map(|i| Op::Write {
            t: ThreadId::new(i % 8),
            x: VarId::new(i % 1000),
        })
        .collect();

    // Only allocations beyond the trace itself count.
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    velodrome_events::write_json_trace(std::io::sink(), &trace)
        .expect("writing to a sink succeeds");
    let peak_delta = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    // The 64 KiB output buffer; anything over the reader's 4 MiB bound
    // means the writer is building the ~30 MB document.
    assert!(
        peak_delta < 4 << 20,
        "peak allocation grew by {peak_delta} bytes while writing {OPS} ops"
    );
}

/// SplitMix64: a fixed seed gives the same sweep on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// LEB128, as VBT encodes every integer.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// Corrupted copies of `bytes`, each with what was done to it.
fn mutants(bytes: &[u8], rng: &mut Rng) -> Vec<(String, Vec<u8>)> {
    const EACH: usize = 24;
    let mut out = Vec::new();
    for _ in 0..EACH {
        let at = rng.below(bytes.len());
        let mut m = bytes.to_vec();
        m[at] ^= 1 + rng.below(255) as u8;
        out.push((format!("flip at {at}"), m));
    }
    for _ in 0..EACH {
        let at = rng.below(bytes.len());
        out.push((format!("cut at {at}"), bytes[..at].to_vec()));
    }
    for _ in 0..EACH {
        // Replace bytes[at..at + gone] with a copy of another stretch.
        let (at, from) = (rng.below(bytes.len()), rng.below(bytes.len()));
        let gone = rng.below(bytes.len() - at).min(64);
        let len = rng.below(bytes.len() - from).min(64);
        let mut m = bytes[..at].to_vec();
        m.extend_from_slice(&bytes[from..from + len]);
        m.extend_from_slice(&bytes[at + gone..]);
        out.push((format!("splice {from}+{len} over {at}+{gone}"), m));
    }
    for _ in 0..EACH {
        // A byte becomes a large varint: a count, length or id that the
        // rest of the input cannot back, at a reader limit or far past it.
        // In JSON it lands as garbage.
        let at = rng.below(bytes.len());
        let claims = [
            MAX_TABLE_ENTRIES,
            MAX_FRAME_LEN,
            MAX_NAME_LEN,
            u64::from(u32::MAX) + 1,
            u64::MAX,
        ];
        let claim = claims[rng.below(claims.len())];
        let mut m = bytes[..at].to_vec();
        m.extend(varint(claim));
        m.extend_from_slice(&bytes[at + 1..]);
        out.push((format!("varint {claim} at {at}"), m));
    }
    out
}

/// Peak heap growth while `src` decodes, with the outcome.
fn measured(src: impl Read) -> (usize, Result<String, String>) {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = decode(src);
    (PEAK.load(Ordering::Relaxed).saturating_sub(before), outcome)
}

#[test]
fn corrupted_corpus_traces_decode_alike_in_bounded_memory() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One frame body and one name are the most a VBT reader may hold on a
    // claim; everything else must be backed by bytes actually read.
    let bound = (MAX_FRAME_LEN + MAX_NAME_LEN) as usize + (1 << 20);
    let mut rng = Rng(0x5eed_2008);
    let mut files = corpus(".trace.json");
    files.extend(corpus(".trace.vbt"));
    let (mut decoded, mut rejected) = (0, 0);
    for (name, bytes) in &files {
        for (what, mutant) in mutants(bytes, &mut rng) {
            let run = |src: &mut dyn Read| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| measured(src)))
                    .unwrap_or_else(|_| panic!("{name}, {what}: the decoder panicked"))
            };
            let (windowed_peak, windowed) = run(&mut &mutant[..]);
            let (one_byte_peak, one_byte) = run(&mut OneByte(&mutant));
            assert_eq!(windowed, one_byte, "{name}, {what}: the two reads disagree");
            let peak = windowed_peak.max(one_byte_peak);
            assert!(
                peak <= bound,
                "{name}, {what}: decoding {} bytes peaked at {peak} heap bytes",
                mutant.len()
            );
            match windowed {
                Ok(_) => decoded += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    // Most corruptions must be caught; some (a flipped byte inside a name
    // or an id) leave a decodable trace.
    assert!(rejected > decoded, "{rejected} rejected, {decoded} decoded");
}
