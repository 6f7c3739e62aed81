//! Vector clocks and a precise happens-before race detector.
//!
//! RoadRunner "includes several race detection algorithms (including Eraser
//! and a complete happens-before detector), which can be run concurrently
//! with Velodrome if race conditions are a concern" (Section 5). This crate
//! provides the complete happens-before detector: a DJIT⁺-style analysis
//! that reports a race iff two conflicting accesses are concurrent (neither
//! happens-before the other) in the observed trace (the `hb-race` backend)
//! — plus an AeroDrome-style transactional vector-clock *atomicity* screen
//! ([`aerodrome`]) used by the core crate's hybrid two-tier checker.

pub mod aerodrome;
pub mod clock;
pub mod detector;

pub use aerodrome::{AeroDrome, AeroDromeStats, Screen};
pub use clock::{ThreadSlots, VectorClock};
pub use detector::HbRaceDetector;
