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
//! * **Explicit loss, never silent** — past `max_capacity` an explicit
//!   [`BackPressure`] policy kicks in: [`BackPressure::Coalesce`] merges
//!   same-key runs down to the newest event (counted per reader via
//!   [`BusRead::coalesced`]), [`BackPressure::DropOldest`] keeps the
//!   legacy hard-drop path whose losses are reported exactly by
//!   [`BusRead::lagged`], in the style of `shrev`'s ring-buffer
//!   `EventChannel`. Every event a reader does not receive is accounted
//!   in one of those two counters.
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

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Source of unique bus identities; catches tokens used on the wrong bus.
static NEXT_BUS_ID: AtomicU64 = AtomicU64::new(0);

/// Constructor failure for [`EventBus`].
///
/// The panicking constructors ([`EventBus::with_capacity`],
/// [`EventBus::resizable`]) are thin wrappers that
/// panic with this error's [`Display`](fmt::Display) message; callers that
/// build buses from untrusted configuration use the `try_` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusError {
    /// The requested ring capacity was zero.
    ZeroCapacity,
    /// A resizable bus was requested with `max_capacity` below its
    /// initial capacity.
    MaxBelowInitial {
        /// Requested initial capacity.
        initial: usize,
        /// Requested maximum capacity (smaller than `initial`).
        max: usize,
    },
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::ZeroCapacity => write!(f, "bus capacity must be positive"),
            BusError::MaxBelowInitial { initial, max } => write!(
                f,
                "bus max_capacity ({max}) must be at least the initial capacity ({initial})"
            ),
        }
    }
}

impl std::error::Error for BusError {}

/// What a resizable bus does with the oldest unread event once the ring
/// is full *and* already at `max_capacity`.
///
/// Neither policy is silent: hard drops surface as [`BusRead::lagged`],
/// merges surface as [`BusRead::coalesced`].
pub enum BackPressure<T> {
    /// Overwrite the oldest retained event; the slowest reader's next
    /// [`EventBus::read`] reports it via [`BusRead::lagged`].
    DropOldest,
    /// Merge retained events sharing a key down to the newest one (a
    /// per-(tag, reader) beacon run collapses to its latest reading).
    /// Events merged away ahead of a reader's cursor are reported via
    /// [`BusRead::coalesced`]. Falls back to [`BackPressure::DropOldest`]
    /// when every retained event has a distinct key.
    Coalesce(fn(&T) -> u128),
}

impl<T> Clone for BackPressure<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for BackPressure<T> {}

impl<T> fmt::Debug for BackPressure<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackPressure::DropOldest => write!(f, "DropOldest"),
            BackPressure::Coalesce(_) => write!(f, "Coalesce(<key fn>)"),
        }
    }
}

/// One reader's cursor state, shared between its [`ReaderToken`] and the
/// bus's registry (the bus holds a [`Weak`], so dropping the token
/// deregisters the reader and stops it from pinning growth).
#[derive(Debug)]
struct CursorSlot {
    /// Sequence number of the next event this reader will receive.
    next: AtomicU64,
    /// Events merged away ahead of this cursor, not yet reported.
    coalesced: AtomicU64,
    /// Hard-dropped events owed to `lagged`, accumulated when a coalesce
    /// renumbering had to move an already-lagging cursor forward.
    lag_debt: AtomicU64,
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
    /// Hard ceiling for `cap`; growth past it defers to `policy`.
    max_cap: usize,
    /// Physical index of the oldest retained event.
    first: usize,
    /// Number of retained events (≤ `cap`). The event with sequence
    /// number `s` lives at `buf[(first + (s - (head - len))) % cap]`.
    len: usize,
    /// Sequence number of the *next* event to be published (== total
    /// events ever published; renumbering after a coalesce preserves it).
    head: u64,
    /// Full-ring policy once `cap == max_cap`.
    policy: BackPressure<T>,
    /// Live reader cursors. Locked only by `reader(&self)`; the publish
    /// side holds `&mut self` and uses lock-free `get_mut`.
    readers: Mutex<Vec<Weak<CursorSlot>>>,
    /// Number of capacity doublings performed.
    grown: u64,
    /// Total events merged away by the coalesce policy.
    coalesced: u64,
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
    coalesced: u64,
}

impl<T> EventBus<T> {
    /// Creates a fixed-capacity bus retaining at most `capacity` events
    /// (legacy semantics: the oldest event is overwritten once full, and
    /// the loss surfaces as [`BusRead::lagged`]).
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::try_with_capacity(capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`EventBus::with_capacity`].
    pub fn try_with_capacity(capacity: usize) -> Result<Self, BusError> {
        Self::try_resizable(capacity, capacity, BackPressure::DropOldest)
    }

    /// Creates a resizable bus: starts at `initial` capacity, doubles (up
    /// to `max_capacity`) whenever the slowest live reader would otherwise
    /// lose an event, then applies `policy` once at the ceiling.
    ///
    /// # Panics
    /// Panics when `initial` is zero or `max_capacity < initial`.
    pub fn resizable(initial: usize, max_capacity: usize, policy: BackPressure<T>) -> Self {
        Self::try_resizable(initial, max_capacity, policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`EventBus::resizable`].
    pub fn try_resizable(
        initial: usize,
        max_capacity: usize,
        policy: BackPressure<T>,
    ) -> Result<Self, BusError> {
        if initial == 0 {
            return Err(BusError::ZeroCapacity);
        }
        if max_capacity < initial {
            return Err(BusError::MaxBelowInitial {
                initial,
                max: max_capacity,
            });
        }
        Ok(EventBus {
            buf: Vec::with_capacity(initial),
            cap: initial,
            max_cap: max_capacity,
            first: 0,
            len: 0,
            head: 0,
            policy,
            readers: Mutex::new(Vec::new()),
            grown: 0,
            coalesced: 0,
            id: NEXT_BUS_ID.fetch_add(1, Ordering::Relaxed),
        })
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

    /// Total events merged away by the coalesce policy (bus-wide; the
    /// per-reader share surfaces via [`BusRead::coalesced`]).
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced
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

    /// Live reader cursors, pruning dead registrations in passing.
    /// Publish-side only (`&mut self` makes the lock uncontended).
    fn live_cursors(&mut self) -> Vec<Arc<CursorSlot>> {
        let reg = match self.readers.get_mut() {
            Ok(reg) => reg,
            Err(poisoned) => poisoned.into_inner(),
        };
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(Weak::upgrade).collect()
    }

    /// Publishes one event. When the ring is full it grows (resizable bus
    /// with a live reader at risk) or applies the back-pressure policy.
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

    /// Frees at least one slot in a full ring.
    fn make_room(&mut self) {
        let oldest = self.oldest();
        let slowest = self
            .live_cursors()
            .iter()
            .map(|s| s.next.load(Ordering::Relaxed))
            .min();
        match slowest {
            // No live reader still needs the oldest event: recycle it.
            None => self.drop_oldest(),
            Some(c) if c > oldest => self.drop_oldest(),
            // The slowest live reader would lose an event.
            Some(_) => {
                if self.cap < self.max_cap {
                    self.grow();
                } else {
                    match self.policy {
                        BackPressure::DropOldest => self.drop_oldest(),
                        BackPressure::Coalesce(key) => {
                            if !self.coalesce(key) {
                                self.drop_oldest();
                            }
                        }
                    }
                }
            }
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

    /// Merges retained events sharing a coalesce key down to the newest
    /// one, preserving the relative order of survivors and renumbering
    /// them to `[head - survivors, head)`. Every live cursor is remapped
    /// so it re-reads exactly the survivors it had not yet received;
    /// events merged away ahead of a cursor are charged to its
    /// [`BusRead::coalesced`] counter. Returns `false` (ring unchanged)
    /// when every retained event has a distinct key.
    fn coalesce(&mut self, key: fn(&T) -> u128) -> bool {
        let len = self.len;
        let base = self.oldest();
        // Walk newest → oldest: the last event of each key survives.
        let mut survive = vec![false; len];
        let mut seen: HashSet<u128> = HashSet::with_capacity(len);
        for i in (0..len).rev() {
            let phys = (self.first + i) % self.cap;
            survive[i] = seen.insert(key(&self.buf[phys]));
        }
        // suffix_dropped[i] = merged-away events at logical index ≥ i.
        let mut suffix_dropped = vec![0u64; len + 1];
        for i in (0..len).rev() {
            suffix_dropped[i] = suffix_dropped[i + 1] + u64::from(!survive[i]);
        }
        let dropped = suffix_dropped[0];
        if dropped == 0 {
            return false;
        }

        // Remap every live cursor before renumbering: a cursor that had
        // `k` survivors ahead of it ends up `k` behind the new head.
        let head = self.head;
        for slot in self.live_cursors() {
            let c = slot.next.load(Ordering::Relaxed);
            let start = if c < base {
                // Events in [c, base) were hard-dropped earlier; bank the
                // lag now, because the renumbering erases the gap.
                slot.lag_debt.fetch_add(base - c, Ordering::Relaxed);
                0
            } else {
                ((c - base) as usize).min(len)
            };
            let dropped_ahead = suffix_dropped[start];
            slot.coalesced.fetch_add(dropped_ahead, Ordering::Relaxed);
            let survivors_ahead = (len - start) as u64 - dropped_ahead;
            slot.next.store(head - survivors_ahead, Ordering::Relaxed);
        }

        // Compact survivors toward `first`, preserving order.
        let mut kept = 0;
        for (i, &keep) in survive.iter().enumerate() {
            if keep {
                if i != kept {
                    let a = (self.first + kept) % self.cap;
                    let b = (self.first + i) % self.cap;
                    self.buf.swap(a, b);
                }
                kept += 1;
            }
        }
        self.len = kept;
        self.coalesced += dropped;
        true
    }

    /// Registers a new reader cursor positioned at the current head: it
    /// will observe only events published after this call.
    pub fn reader(&self) -> ReaderToken {
        let slot = Arc::new(CursorSlot {
            next: AtomicU64::new(self.head),
            coalesced: AtomicU64::new(0),
            lag_debt: AtomicU64::new(0),
        });
        let mut reg = match self.readers.lock() {
            Ok(reg) => reg,
            Err(poisoned) => poisoned.into_inner(),
        };
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
    /// lost and iteration yields the survivors. Events merged away ahead
    /// of the cursor by the coalesce policy are reported separately via
    /// [`BusRead::coalesced`] (their newest-per-key representatives are
    /// still delivered).
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
        let lagged = oldest.saturating_sub(pos) + token.slot.lag_debt.swap(0, Ordering::Relaxed);
        let coalesced = token.slot.coalesced.swap(0, Ordering::Relaxed);
        let next = pos.max(oldest);
        token.slot.next.store(self.head, Ordering::Relaxed);
        BusRead {
            bus: self,
            next,
            end: self.head,
            lagged,
            coalesced,
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

    /// Number of events merged away ahead of this reader's cursor by the
    /// coalesce policy since its last read. Unlike lagged events these are
    /// represented: the newest event of each merged run is delivered.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
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
    fn try_constructors_report_bad_shapes() {
        assert_eq!(
            EventBus::<i32>::try_with_capacity(0).unwrap_err(),
            BusError::ZeroCapacity
        );
        assert_eq!(
            EventBus::<i32>::try_resizable(8, 4, BackPressure::DropOldest).unwrap_err(),
            BusError::MaxBelowInitial { initial: 8, max: 4 }
        );
        assert!(EventBus::<i32>::try_with_capacity(4).is_ok());
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

    /// Key = the even/odd class of the event, so runs collapse per class.
    fn parity_key(e: &i32) -> u128 {
        (*e % 2) as u128
    }

    #[test]
    fn coalesce_keeps_newest_per_key() {
        let mut bus = EventBus::resizable(2, 4, BackPressure::Coalesce(parity_key));
        let mut slow = bus.reader();
        bus.publish_all([0, 2, 4, 1, 3, 6]);
        // Ring held [0,2,4,1] at capacity; publishing 3 coalesced evens
        // down to 4 → [0? no: newest-per-parity of [0,2,4,1] = [4,1]].
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 0, "coalescing must not hard-drop");
        let survivors: Vec<i32> = read.copied().collect();
        // The newest event of each parity class is delivered, in order.
        assert_eq!(*survivors.last().unwrap(), 6);
        assert!(survivors.contains(&3));
        assert!(bus.coalesced_total() > 0);
    }

    #[test]
    fn coalesce_accounting_balances() {
        let mut bus = EventBus::resizable(2, 4, BackPressure::Coalesce(parity_key));
        let mut slow = bus.reader();
        let published = 40u64;
        let mut delivered = 0u64;
        let mut lagged = 0u64;
        let mut coalesced = 0u64;
        for n in 0..published as i32 {
            bus.publish(n);
        }
        let read = bus.read(&mut slow);
        lagged += read.lagged();
        coalesced += read.coalesced();
        delivered += read.count() as u64;
        assert_eq!(
            lagged + delivered + coalesced,
            published,
            "every event must be accounted for"
        );
        assert_eq!(lagged, 0, "parity coalescing always frees slots");
        assert_eq!(coalesced, bus.coalesced_total());
    }

    #[test]
    fn coalesce_with_distinct_keys_falls_back_to_drop() {
        fn identity_key(e: &i32) -> u128 {
            *e as u128
        }
        let mut bus = EventBus::resizable(2, 4, BackPressure::Coalesce(identity_key));
        let mut slow = bus.reader();
        bus.publish_all(0..6);
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 2, "all-distinct keys: hard drop, counted");
        assert_eq!(read.coalesced(), 0);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [2, 3, 4, 5]);
    }

    #[test]
    fn coalesce_preserves_position_of_fresh_reader() {
        let mut bus = EventBus::resizable(2, 4, BackPressure::Coalesce(parity_key));
        let mut slow = bus.reader();
        bus.publish_all([0, 2, 4, 1]);
        // A reader registered at the head sees only post-registration
        // events, even across a coalesce renumbering.
        let mut fresh = bus.reader();
        bus.publish_all([6, 8]);
        let read = bus.read(&mut fresh);
        assert_eq!(read.lagged(), 0);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [6, 8]);
        // The slow reader still gets newest-per-key with full accounting.
        let read = bus.read(&mut slow);
        let lagged = read.lagged();
        let coalesced = read.coalesced();
        let delivered = read.count() as u64;
        assert_eq!(lagged + coalesced + delivered, 6);
    }
}
