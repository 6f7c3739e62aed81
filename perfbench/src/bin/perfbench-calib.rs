//! Times the benchmark's fixed calibration work once.
//!
//! ```text
//! perfbench-calib
//! ```
//!
//! Prints `perfbench-calib ns=N nominal_ns=N checksum=N`: the wall time of
//! `velodrome_perfbench::calib::work` in this process, its time on a quiet
//! host, and its result.

use std::time::Instant;
use velodrome_perfbench::calib;

fn main() {
    let start = Instant::now();
    let checksum = calib::work();
    let ns = start.elapsed().as_nanos();
    let nominal_ns = calib::NOMINAL_NS;
    println!("perfbench-calib ns={ns} nominal_ns={nominal_ns} checksum={checksum}");
}
