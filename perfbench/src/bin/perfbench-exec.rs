//! Runs one command and reports its wall time and peak resident memory.
//!
//! ```text
//! perfbench-exec COMMAND [ARGS...]
//! ```
//!
//! The command inherits stdin, stdout and stderr. When it has exited, the
//! last line on stderr is `perfbench-exec wall_ns=N max_rss_kb=N status=N`,
//! and the exit code is the command's.
//!
//! Linux charges a child's peak RSS with the memory its parent had at
//! spawn time, so a large parent (a Python interpreter) would put a floor
//! under every reading. This launcher is small, so the floor it leaves is
//! a few hundred kilobytes.

use std::process::{Command, ExitCode};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak RSS in KiB over the children this process has waited for.
fn children_max_rss_kb() -> Option<i64> {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux, which `getrusage` fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then_some(usage.maxrss)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((program, rest)) = args.split_first() else {
        eprintln!("usage: perfbench-exec COMMAND [ARGS...]");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let status = match Command::new(program).args(rest).status() {
        Ok(status) => status,
        Err(e) => {
            eprintln!("error: running {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_ns = start.elapsed().as_nanos();
    let code = status.code().unwrap_or(-1);
    let Some(max_rss_kb) = children_max_rss_kb() else {
        eprintln!("error: getrusage failed");
        return ExitCode::from(2);
    };
    eprintln!("perfbench-exec wall_ns={wall_ns} max_rss_kb={max_rss_kb} status={code}");
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}
