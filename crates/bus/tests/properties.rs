//! Property tests for the ring-buffer event channel: no event is ever
//! silently dropped — every published event is either delivered or counted
//! in a reader's lag counter — and delivery order is always an ordered
//! suffix of publication order, including across capacity growth.

use proptest::prelude::*;
use std::collections::VecDeque;
use vire_bus::{BackPressure, EventBus};

proptest! {
    /// lagged + delivered == published since the reader registered, for
    /// any interleaving of publish bursts and reads at any capacity.
    #[test]
    fn lag_plus_delivered_accounts_for_every_event(
        capacity in 1usize..32,
        bursts in prop::collection::vec(0usize..40, 1..20),
        read_after in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let mut bus = EventBus::with_capacity(capacity);
        let mut token = bus.reader();
        let mut published: u64 = 0;
        let mut accounted: u64 = 0;
        for (burst, read) in bursts.iter().zip(read_after.iter().cycle()) {
            for _ in 0..*burst {
                bus.publish(published);
                published += 1;
            }
            if *read {
                let read = bus.read(&mut token);
                accounted += read.lagged();
                accounted += read.count() as u64;
            }
        }
        let read = bus.read(&mut token);
        accounted += read.lagged() + read.count() as u64;
        prop_assert_eq!(accounted, published);
    }

    /// Delivered events are exactly the most recent survivors, in
    /// publication order.
    #[test]
    fn delivery_is_an_ordered_suffix(
        capacity in 1usize..16,
        total in 0u64..64,
    ) {
        let mut bus = EventBus::with_capacity(capacity);
        let mut token = bus.reader();
        for n in 0..total {
            bus.publish(n);
        }
        let read = bus.read(&mut token);
        let lagged = read.lagged();
        let got: Vec<u64> = read.copied().collect();
        let expect: Vec<u64> = (lagged..total).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(lagged, total.saturating_sub(capacity as u64));
    }
}

proptest! {
    /// A growth-enabled single-reader bus behaves exactly like a
    /// `VecDeque` oracle that doubles its capacity whenever the reader
    /// would otherwise lose an event: same capacity trajectory, same
    /// retained length, same lag, same delivered events — across any
    /// schedule of publish bursts and reads, including growth mid-burst.
    #[test]
    fn resizable_ring_matches_vecdeque_oracle(
        initial in 1usize..8,
        headroom in 0u32..3,
        bursts in prop::collection::vec(0usize..24, 1..16),
        read_after in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let max = initial << headroom;
        let mut bus = EventBus::resizable(initial, max, BackPressure::DropOldest);
        let mut token = bus.reader();

        let mut oracle: VecDeque<u64> = VecDeque::new();
        let mut cap = initial;
        // Sequence number of the next event the reader will receive.
        let mut cursor: u64 = 0;
        let mut published: u64 = 0;

        for (burst, read) in bursts.iter().zip(read_after.iter().cycle()) {
            for _ in 0..*burst {
                if oracle.len() == cap {
                    let oldest = published - oracle.len() as u64;
                    if cursor > oldest {
                        oracle.pop_front(); // reader is past it: recycle
                    } else if cap < max {
                        cap = (cap * 2).min(max); // grow instead of losing
                    } else {
                        oracle.pop_front(); // at the ceiling: hard drop
                    }
                }
                oracle.push_back(published);
                bus.publish(published);
                published += 1;
            }
            prop_assert_eq!(bus.capacity(), cap);
            prop_assert_eq!(bus.len(), oracle.len());
            if *read {
                let r = bus.read(&mut token);
                let oldest = published - oracle.len() as u64;
                prop_assert_eq!(r.lagged(), oldest.saturating_sub(cursor));
                let got: Vec<u64> = r.copied().collect();
                let expect: Vec<u64> =
                    oracle.iter().copied().filter(|&s| s >= cursor).collect();
                prop_assert_eq!(got, expect);
                cursor = published;
            }
        }
    }

    /// Under back-pressure at the ceiling and any publish/read schedule:
    /// `lagged + delivered == published`, and the delivered events form an
    /// increasing subsequence of the publication order.
    #[test]
    fn loss_is_never_silent_under_back_pressure(
        initial in 1usize..6,
        headroom in 0u32..3,
        bursts in prop::collection::vec(0usize..24, 1..16),
        read_after in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let max = initial << headroom;
        let mut bus = EventBus::resizable(initial, max, BackPressure::DropOldest);
        let mut token = bus.reader();
        let mut published: u64 = 0;
        let mut accounted: u64 = 0;
        let mut last_delivered: Option<u64> = None;

        let drain = |bus: &EventBus<u64>,
                         token: &mut vire_bus::ReaderToken,
                         accounted: &mut u64,
                         last: &mut Option<u64>|
         -> Result<(), TestCaseError> {
            let r = bus.read(token);
            *accounted += r.lagged();
            for e in r.copied() {
                if let Some(prev) = *last {
                    prop_assert!(e > prev, "delivery must preserve order");
                }
                *last = Some(e);
                *accounted += 1;
            }
            Ok(())
        };

        for (burst, read) in bursts.iter().zip(read_after.iter().cycle()) {
            for _ in 0..*burst {
                bus.publish(published);
                published += 1;
            }
            if *read {
                drain(&bus, &mut token, &mut accounted, &mut last_delivered)?;
            }
        }
        drain(&bus, &mut token, &mut accounted, &mut last_delivered)?;
        prop_assert_eq!(
            accounted, published,
            "every event must be delivered or counted in lagged"
        );
    }
}
