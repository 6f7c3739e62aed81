//! Panic isolation helpers shared by the live runtime and the batch
//! checker.
//!
//! A monitoring runtime attached to a live service — or a batch runner
//! fanning a fleet of traces over a worker pool — must treat a panicking
//! analysis as a degraded *unit of work*, never as a crashed process. This
//! module centralizes the two pieces every caller needs: running a closure
//! under a panic guard, and rendering the opaque panic payload as text.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Renders a panic payload (the `Box<dyn Any>` from
/// [`std::panic::catch_unwind`]) as a human-readable message.
///
/// Panics carry `&str` (literal messages) or `String` (formatted messages);
/// anything else — a custom payload thrown via `panic_any` — renders as a
/// placeholder rather than being dropped.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Runs `f` under a panic guard, converting a panic into `Err` with the
/// rendered panic message.
///
/// The closure is wrapped in [`AssertUnwindSafe`]: callers are expected to
/// treat the captured state as poisoned on `Err` (quarantine the work unit
/// and move on), which is exactly the contract that makes the assertion
/// sound.
pub fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()).to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_passes_through() {
        assert_eq!(run_isolated(|| 40 + 2), Ok(42));
    }

    #[test]
    fn str_panic_is_captured() {
        let e = run_isolated(|| -> u32 { panic!("boom") }).unwrap_err();
        assert_eq!(e, "boom");
    }

    #[test]
    fn string_panic_is_captured() {
        let n = 7;
        let e = run_isolated(|| -> u32 { panic!("bad op {n}") }).unwrap_err();
        assert_eq!(e, "bad op 7");
    }

    #[test]
    fn non_string_payloads_render_placeholder() {
        let e = run_isolated(|| std::panic::panic_any(1234i64)).unwrap_err();
        assert_eq!(e, "non-string panic payload");
    }
}
