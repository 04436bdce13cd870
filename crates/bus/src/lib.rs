//! # vire-bus
//!
//! A resizable, single-writer / multi-reader ring-buffer event channel —
//! the transport of the streaming localization pipeline.
//!
//! The paper's testbed is inherently streaming: tags beacon every ~2 s and
//! the middleware and location server consume an unsynchronized event
//! stream (§4.1). [`EventBus`] models that stream in memory:
//!
//! * **Single writer** — the simulation engine (or a real reader gateway)
//!   publishes events with [`EventBus::publish`]; exclusive access is
//!   enforced by `&mut`.
//! * **Multiple independent readers** — each consumer registers a
//!   [`ReaderToken`] cursor with [`EventBus::reader`] and drains newly
//!   published events with [`EventBus::read`]. Readers never block the
//!   writer or each other.
//! * **Amortized growth** — a bus built with [`EventBus::resizable`]
//!   doubles its capacity (one `rotate_left` copy per doubling, so O(1)
//!   amortized per publish) whenever the slowest *live* reader would
//!   otherwise lose an event, up to `max_capacity`.
//! * **Explicit loss, never silent** — past `max_capacity` the oldest
//!   event is overwritten ([`BackPressure::DropOldest`], the one policy)
//!   and every event a reader did not receive is reported exactly by
//!   [`BusRead::lagged`], in the style of `shrev`'s ring-buffer
//!   `EventChannel`. Keeping only the newest reading per key is the ingest
//!   ring's job (`vire_core::IngestFrontEnd`), not the bus's.
//!
//! Sequence numbers are monotonically increasing `u64`s, so the channel
//! never ambiguates wraparound (at one event per nanosecond a `u64` lasts
//! ~580 years).
//!
//! ```
//! use vire_bus::EventBus;
//!
//! let mut bus = EventBus::with_capacity(4);
//! let mut fast = bus.reader();
//! let mut slow = bus.reader();
//! for n in 0..3 {
//!     bus.publish(n);
//! }
//! assert_eq!(bus.read(&mut fast).copied().collect::<Vec<i32>>(), [0, 1, 2]);
//! for n in 3..8 {
//!     bus.publish(n); // overwrites 0..4 for the slow reader
//! }
//! let read = bus.read(&mut slow);
//! assert_eq!(read.lagged(), 4, "events 0–3 were overwritten");
//! assert_eq!(read.copied().collect::<Vec<i32>>(), [4, 5, 6, 7]);
//! ```
//!
//! A resizable bus under the same pressure loses nothing:
//!
//! ```
//! use vire_bus::{BackPressure, EventBus};
//!
//! let mut bus = EventBus::resizable(2, 16, BackPressure::DropOldest);
//! let mut slow = bus.reader();
//! bus.publish_all(0..10); // capacity doubles 2 → 4 → 8 → 16
//! let read = bus.read(&mut slow);
//! assert_eq!(read.lagged(), 0);
//! assert_eq!(read.len(), 10);
//! assert!(bus.grown() >= 3);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Source of unique bus identities; catches tokens used on the wrong bus.
static NEXT_BUS_ID: AtomicU64 = AtomicU64::new(0);

/// What a resizable bus does with the oldest unread event once the ring
/// is full *and* already at `max_capacity`. Loss is never silent: it
/// surfaces as [`BusRead::lagged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackPressure {
    /// Overwrite the oldest retained event; the slowest reader's next
    /// [`EventBus::read`] reports it via [`BusRead::lagged`].
    DropOldest,
}

/// One reader's cursor state, shared between its [`ReaderToken`] and the
/// bus's registry (the bus holds a [`Weak`], so dropping the token
/// deregisters the reader and stops it from pinning growth).
#[derive(Debug)]
struct CursorSlot {
    /// Sequence number of the next event this reader will receive.
    next: AtomicU64,
}

/// A single-writer / multi-reader event channel over a ring buffer.
///
/// See the [crate docs](crate) for semantics. `T: Clone` is *not*
/// required: readers borrow events in place.
#[derive(Debug)]
pub struct EventBus<T> {
    /// Ring storage; holds the `len` retained events.
    buf: Vec<T>,
    /// Current ring capacity (`initial ≤ cap ≤ max_cap`).
    cap: usize,
    /// Hard ceiling for `cap`; past it the oldest event is overwritten.
    max_cap: usize,
    /// Physical index of the oldest retained event.
    first: usize,
    /// Number of retained events (≤ `cap`). The event with sequence
    /// number `s` lives at `buf[(first + (s - (head - len))) % cap]`.
    len: usize,
    /// Sequence number of the *next* event to be published (== total
    /// events ever published).
    head: u64,
    /// Live reader cursors. Locked only by `reader(&self)`; the publish
    /// side holds `&mut self` and uses lock-free `get_mut`.
    readers: Mutex<Vec<Weak<CursorSlot>>>,
    /// Number of capacity doublings performed.
    grown: u64,
    id: u64,
}

/// An independent read cursor into one [`EventBus`].
///
/// Each consumer owns one; a token only observes events published *after*
/// it was created. Dropping the token deregisters the reader, so an
/// abandoned cursor never pins the bus's growth or retention.
#[derive(Debug)]
pub struct ReaderToken {
    slot: Arc<CursorSlot>,
    bus_id: u64,
}

impl PartialEq for ReaderToken {
    fn eq(&self, other: &Self) -> bool {
        self.bus_id == other.bus_id && Arc::ptr_eq(&self.slot, &other.slot)
    }
}

impl Eq for ReaderToken {}

/// The result of one [`EventBus::read`]: loss counters plus an iterator
/// over the surviving unread events, oldest first.
#[derive(Debug)]
pub struct BusRead<'a, T> {
    bus: &'a EventBus<T>,
    next: u64,
    end: u64,
    lagged: u64,
}

impl<T> EventBus<T> {
    /// Creates a fixed-capacity bus retaining at most `capacity` events
    /// (legacy semantics: the oldest event is overwritten once full, and
    /// the loss surfaces as [`BusRead::lagged`]).
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::resizable(capacity, capacity, BackPressure::DropOldest)
    }

    /// Creates a resizable bus: starts at `initial` capacity, doubles (up
    /// to `max_capacity`) whenever the slowest live reader would otherwise
    /// lose an event, then overwrites the oldest event once at the ceiling
    /// (`policy` names that; it is the only one).
    ///
    /// # Panics
    /// Panics when `initial` is zero or `max_capacity < initial`.
    pub fn resizable(initial: usize, max_capacity: usize, policy: BackPressure) -> Self {
        let BackPressure::DropOldest = policy;
        assert!(initial > 0, "bus capacity must be positive");
        assert!(
            max_capacity >= initial,
            "bus max_capacity ({max_capacity}) must be at least the initial capacity ({initial})"
        );
        EventBus {
            buf: Vec::with_capacity(initial),
            cap: initial,
            max_cap: max_capacity,
            first: 0,
            len: 0,
            head: 0,
            readers: Mutex::new(Vec::new()),
            grown: 0,
            id: NEXT_BUS_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Current ring capacity (grows up to [`EventBus::max_capacity`]).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Hard capacity ceiling; equal to [`EventBus::capacity`] for a
    /// fixed-capacity bus.
    pub fn max_capacity(&self) -> usize {
        self.max_cap
    }

    /// Number of events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event was ever published.
    pub fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// Total number of events ever published.
    pub fn total_published(&self) -> u64 {
        self.head
    }

    /// Number of capacity doublings performed so far.
    pub fn grown(&self) -> u64 {
        self.grown
    }

    /// Sequence number of the oldest event still retained.
    fn oldest(&self) -> u64 {
        self.head - self.len as u64
    }

    /// Physical slot of the event with sequence number `seq` (which must
    /// be retained).
    fn slot_of(&self, seq: u64) -> usize {
        (self.first + (seq - self.oldest()) as usize) % self.cap
    }

    /// Position of the slowest live reader, pruning dead registrations in
    /// passing. Publish-side only (`&mut self` makes the lock uncontended).
    fn slowest_cursor(&mut self) -> Option<u64> {
        let reg = self
            .readers
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let mut slowest: Option<u64> = None;
        reg.retain(|w| match w.upgrade() {
            Some(slot) => {
                let next = slot.next.load(Ordering::Relaxed);
                slowest = Some(slowest.map_or(next, |s| s.min(next)));
                true
            }
            None => false,
        });
        slowest
    }

    /// Publishes one event. When the ring is full it grows (resizable bus
    /// with a live reader at risk) or overwrites the oldest event.
    pub fn publish(&mut self, event: T) {
        if self.len == self.cap {
            self.make_room();
        }
        let idx = (self.first + self.len) % self.cap;
        if idx == self.buf.len() {
            self.buf.push(event);
        } else {
            self.buf[idx] = event;
        }
        self.len += 1;
        self.head += 1;
    }

    /// Publishes every event of an iterator in order.
    pub fn publish_all(&mut self, events: impl IntoIterator<Item = T>) {
        for e in events {
            self.publish(e);
        }
    }

    /// Frees at least one slot in a full ring: grows while the slowest
    /// live reader would otherwise lose an event and the ceiling allows,
    /// else recycles (or, at the ceiling, overwrites) the oldest event.
    fn make_room(&mut self) {
        let oldest = self.oldest();
        match self.slowest_cursor() {
            Some(c) if c <= oldest && self.cap < self.max_cap => self.grow(),
            _ => self.drop_oldest(),
        }
    }

    /// Discards the oldest retained event (loss accounting happens lazily
    /// at [`EventBus::read`] via `oldest - cursor`).
    fn drop_oldest(&mut self) {
        debug_assert!(self.len > 0);
        self.first = (self.first + 1) % self.cap;
        self.len -= 1;
    }

    /// Doubles the ring capacity (clamped to `max_cap`), straightening the
    /// ring with one `rotate_left`. Each doubling copies O(cap) events and
    /// buys cap more publishes, so the cost is O(1) amortized.
    fn grow(&mut self) {
        debug_assert_eq!(self.len, self.cap);
        debug_assert_eq!(self.buf.len(), self.cap);
        self.buf.rotate_left(self.first);
        self.first = 0;
        self.cap = (self.cap * 2).min(self.max_cap);
        self.buf.reserve_exact(self.cap - self.len);
        self.grown += 1;
    }

    /// Registers a new reader cursor positioned at the current head: it
    /// will observe only events published after this call.
    pub fn reader(&self) -> ReaderToken {
        let slot = Arc::new(CursorSlot {
            next: AtomicU64::new(self.head),
        });
        let mut reg = self.readers.lock().unwrap_or_else(PoisonError::into_inner);
        reg.push(Arc::downgrade(&slot));
        drop(reg);
        ReaderToken {
            slot,
            bus_id: self.id,
        }
    }

    /// Drains every event published since `token` last read, advancing the
    /// token to the head.
    ///
    /// When the reader fell behind a hard drop, the overwritten events are
    /// unrecoverable; [`BusRead::lagged`] reports exactly how many were
    /// lost and iteration yields the survivors.
    ///
    /// # Panics
    /// Panics when `token` belongs to a different bus.
    pub fn read(&self, token: &mut ReaderToken) -> BusRead<'_, T> {
        assert_eq!(
            token.bus_id, self.id,
            "reader token belongs to a different bus"
        );
        let oldest = self.oldest();
        let pos = token.slot.next.load(Ordering::Relaxed);
        let lagged = oldest.saturating_sub(pos);
        let next = pos.max(oldest);
        token.slot.next.store(self.head, Ordering::Relaxed);
        BusRead {
            bus: self,
            next,
            end: self.head,
            lagged,
        }
    }

    /// Number of events `token` would receive from [`EventBus::read`]
    /// (survivors only), without consuming them.
    pub fn pending(&self, token: &ReaderToken) -> usize {
        assert_eq!(
            token.bus_id, self.id,
            "reader token belongs to a different bus"
        );
        let pos = token.slot.next.load(Ordering::Relaxed);
        (self.head - pos.max(self.oldest())) as usize
    }
}

impl<T> BusRead<'_, T> {
    /// Number of events that were overwritten before this read and are
    /// permanently lost to this reader (0 when the reader kept up).
    pub fn lagged(&self) -> u64 {
        self.lagged
    }
}

impl<'a, T> Iterator for BusRead<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.next == self.end {
            return None;
        }
        let item = &self.bus.buf[self.bus.slot_of(self.next)];
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for BusRead<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_published_events_in_order() {
        let mut bus = EventBus::with_capacity(8);
        let mut r = bus.reader();
        bus.publish_all([10, 20, 30]);
        let read = bus.read(&mut r);
        assert_eq!(read.lagged(), 0);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [10, 20, 30]);
        // A second read yields nothing new.
        assert_eq!(bus.read(&mut r).count(), 0);
    }

    #[test]
    fn readers_are_independent() {
        let mut bus = EventBus::with_capacity(8);
        let mut a = bus.reader();
        bus.publish(1);
        let mut b = bus.reader(); // registered later: misses event 1
        bus.publish(2);
        assert_eq!(bus.read(&mut a).copied().collect::<Vec<i32>>(), [1, 2]);
        assert_eq!(bus.read(&mut b).copied().collect::<Vec<i32>>(), [2]);
        // Draining a did not affect b and vice versa.
        bus.publish(3);
        assert_eq!(bus.read(&mut b).copied().collect::<Vec<i32>>(), [3]);
        assert_eq!(bus.read(&mut a).copied().collect::<Vec<i32>>(), [3]);
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut bus = EventBus::with_capacity(4);
        let mut r = bus.reader();
        for round in 0..10 {
            bus.publish_all([4 * round, 4 * round + 1, 4 * round + 2, 4 * round + 3]);
            let got: Vec<i32> = bus.read(&mut r).copied().collect();
            assert_eq!(got, (4 * round..4 * round + 4).collect::<Vec<i32>>());
        }
        assert_eq!(bus.len(), 4);
        assert_eq!(bus.total_published(), 40);
    }

    #[test]
    fn slow_reader_observes_explicit_lag() {
        let mut bus = EventBus::with_capacity(3);
        let mut slow = bus.reader();
        bus.publish_all(0..7); // capacity 3: events 0–3 are gone
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 4);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [4, 5, 6]);
        // Once caught up the lag clears.
        bus.publish(7);
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 0);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [7]);
    }

    #[test]
    fn reader_registered_after_publishes_sees_nothing_old() {
        let mut bus = EventBus::with_capacity(4);
        bus.publish_all(0..3);
        let mut r = bus.reader();
        let read = bus.read(&mut r);
        assert_eq!(read.lagged(), 0);
        assert_eq!(read.count(), 0);
    }

    #[test]
    fn pending_counts_without_consuming() {
        let mut bus = EventBus::with_capacity(4);
        let mut r = bus.reader();
        bus.publish_all(0..2);
        assert_eq!(bus.pending(&r), 2);
        assert_eq!(bus.pending(&r), 2, "pending must not consume");
        bus.read(&mut r).for_each(drop);
        assert_eq!(bus.pending(&r), 0);
    }

    #[test]
    fn exact_size_iterator() {
        let mut bus = EventBus::with_capacity(8);
        let mut r = bus.reader();
        bus.publish_all(0..5);
        let read = bus.read(&mut r);
        assert_eq!(read.len(), 5);
    }

    #[test]
    #[should_panic(expected = "different bus")]
    fn token_from_another_bus_panics() {
        let a: EventBus<i32> = EventBus::with_capacity(2);
        let b: EventBus<i32> = EventBus::with_capacity(2);
        let mut t = a.reader();
        let _ = b.read(&mut t);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: EventBus<i32> = EventBus::with_capacity(0);
    }

    #[test]
    #[should_panic(expected = "max_capacity")]
    fn resizable_max_below_initial_panics() {
        let _: EventBus<i32> = EventBus::resizable(8, 4, BackPressure::DropOldest);
    }

    #[test]
    fn resizable_grows_instead_of_dropping() {
        let mut bus = EventBus::resizable(2, 16, BackPressure::DropOldest);
        let mut slow = bus.reader();
        bus.publish_all(0..12);
        assert!(bus.capacity() >= 12 && bus.capacity() <= 16);
        assert_eq!(bus.grown(), 3, "2 → 4 → 8 → 16");
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 0, "growth must prevent loss");
        assert_eq!(
            read.copied().collect::<Vec<i32>>(),
            (0..12).collect::<Vec<i32>>()
        );
    }

    #[test]
    fn growth_stops_at_max_then_drops() {
        let mut bus = EventBus::resizable(2, 4, BackPressure::DropOldest);
        let mut slow = bus.reader();
        bus.publish_all(0..7);
        assert_eq!(bus.capacity(), 4);
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 3);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [3, 4, 5, 6]);
    }

    #[test]
    fn dead_reader_does_not_pin_growth() {
        let mut bus = EventBus::resizable(2, 64, BackPressure::DropOldest);
        drop(bus.reader());
        bus.publish_all(0..100);
        assert_eq!(bus.capacity(), 2, "no live reader: recycle, don't grow");
        assert_eq!(bus.grown(), 0);
    }

    #[test]
    fn reader_ahead_of_oldest_does_not_force_growth() {
        let mut bus = EventBus::resizable(4, 64, BackPressure::DropOldest);
        let mut r = bus.reader();
        for n in 0..32 {
            bus.publish(n);
            // The reader keeps up, so the full ring recycles in place.
            assert_eq!(bus.read(&mut r).copied().collect::<Vec<i32>>(), [n]);
        }
        assert_eq!(bus.capacity(), 4);
        assert_eq!(bus.grown(), 0);
    }
}
