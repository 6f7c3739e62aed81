//! Vector clocks over thread identifiers.

use std::fmt;
use velodrome_events::ThreadId;

/// A vector clock: one logical timestamp per thread, absent entries being
/// zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The component for thread `t`.
    pub fn get(&self, t: ThreadId) -> u64 {
        self.entries.get(t.index()).copied().unwrap_or(0)
    }

    /// Sets the component for thread `t`.
    pub fn set(&mut self, t: ThreadId, value: u64) {
        if t.index() >= self.entries.len() {
            self.entries.resize(t.index() + 1, 0);
        }
        self.entries[t.index()] = value;
    }

    /// Increments thread `t`'s component.
    pub fn inc(&mut self, t: ThreadId) {
        let v = self.get(t);
        self.set(t, v + 1);
    }

    /// Pointwise maximum (join) with another clock.
    pub fn join(&mut self, other: &VectorClock) {
        if other.entries.len() > self.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (i, &v) in other.entries.iter().enumerate() {
            if v > self.entries[i] {
                self.entries[i] = v;
            }
        }
    }

    /// Pointwise comparison: does every component of `self` not exceed the
    /// corresponding component of `other`?
    pub fn le(&self, other: &VectorClock) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.entries.get(i).copied().unwrap_or(0))
    }

    /// Whether both clocks are incomparable (concurrent).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Whether the clock is all zeros.
    pub fn is_zero(&self) -> bool {
        self.entries.iter().all(|&v| v == 0)
    }
}

/// Dense clock slots for thread identifiers, handed out in first-seen
/// order. A [`VectorClock`] is as wide as the largest thread identifier it
/// is indexed by, so the analyses index their clocks by slot: clock width
/// then follows the number of threads present, not the largest id (a lone
/// thread 65535 costs one entry, not 65,536). Warnings keep naming the
/// original [`ThreadId`].
///
/// The analyses look a slot up once per operation, so the table is two
/// loads deep: `slot + 1` per id (0 for an id not seen yet), in pages of
/// 256 ids allocated on first use. A table over ids up to 65535 costs a
/// 2 KiB directory plus 1 KiB per page in use.
#[derive(Debug, Default, Clone)]
pub struct ThreadSlots {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    len: u32,
}

/// Thread ids per page of a [`ThreadSlots`] table.
const PAGE: usize = 256;

impl ThreadSlots {
    /// The slot of thread `t`, assigned on first sight.
    pub fn slot(&mut self, t: ThreadId) -> ThreadId {
        let (page, at) = (t.index() / PAGE, t.index() % PAGE);
        if page >= self.pages.len() {
            self.pages.resize(page + 1, None);
        }
        let entry = &mut self.pages[page].get_or_insert_with(|| Box::new([0; PAGE]))[at];
        if *entry == 0 {
            self.len += 1;
            *entry = self.len;
        }
        ThreadId::new(*entry - 1)
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn get_set_inc() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(t(3)), 0);
        c.set(t(3), 7);
        assert_eq!(c.get(t(3)), 7);
        c.inc(t(3));
        assert_eq!(c.get(t(3)), 8);
        c.inc(t(0));
        assert_eq!(c.get(t(0)), 1);
    }

    #[test]
    fn join_takes_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(t(0), 5);
        a.set(t(1), 1);
        let mut b = VectorClock::new();
        b.set(t(1), 4);
        b.set(t(2), 2);
        a.join(&b);
        assert_eq!(a.get(t(0)), 5);
        assert_eq!(a.get(t(1)), 4);
        assert_eq!(a.get(t(2)), 2);
    }

    #[test]
    fn le_and_concurrency() {
        let mut a = VectorClock::new();
        a.set(t(0), 1);
        let mut b = VectorClock::new();
        b.set(t(0), 2);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(!a.concurrent_with(&b));
        let mut c = VectorClock::new();
        c.set(t(1), 1);
        assert!(a.concurrent_with(&c));
    }

    #[test]
    fn le_handles_length_mismatch() {
        let mut a = VectorClock::new();
        a.set(t(5), 1);
        let b = VectorClock::new();
        assert!(b.le(&a));
        assert!(!a.le(&b));
        assert!(VectorClock::new().is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn slots_are_dense_in_first_seen_order() {
        let mut slots = ThreadSlots::default();
        assert_eq!(slots.slot(t(65535)), t(0));
        assert_eq!(slots.slot(t(7)), t(1));
        assert_eq!(slots.slot(t(65535)), t(0));
        let mut c = VectorClock::new();
        c.inc(slots.slot(t(7)));
        assert_eq!(c.to_string(), "⟨0, 1⟩");
    }

    #[test]
    fn display_renders_entries() {
        let mut a = VectorClock::new();
        a.set(t(1), 3);
        assert_eq!(a.to_string(), "⟨0, 3⟩");
    }
}
