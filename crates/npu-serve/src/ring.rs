//! Ticket-indexed outcome storage.
//!
//! Both services issue ticket ids sequentially, so the id is the slot: a
//! dense ring of slots starting at `base` holds every outcome, and
//! redeeming one is an index, not a hash lookup. A slot is empty (the
//! request is still pending), filled, or taken; taken slots are popped
//! off the ring's front. A ticket nobody redeems must not pin that
//! front, so once taken holes outnumber the outcomes still held, the
//! front outcome moves to a side map that keeps it redeemable. Memory is
//! bounded by the live tickets, whatever the redemption order.

use std::collections::{HashMap, VecDeque};

/// Taken holes the ring tolerates before it moves its front aside.
const SLACK: usize = 64;

#[derive(Debug)]
enum Slot<T> {
    Empty,
    Filled(T),
    Taken,
}

/// Outcomes by sequential ticket id.
#[derive(Debug)]
pub(crate) struct TicketRing<T> {
    /// Ticket id of `slots[0]`.
    base: u64,
    slots: VecDeque<Slot<T>>,
    /// Filled slots in `slots`.
    filled: usize,
    /// Outcomes of tickets that fell behind the front unredeemed.
    aside: HashMap<u64, T>,
}

impl<T> Default for TicketRing<T> {
    fn default() -> Self {
        TicketRing {
            base: 0,
            slots: VecDeque::new(),
            filled: 0,
            aside: HashMap::new(),
        }
    }
}

impl<T> TicketRing<T> {
    /// Files the outcome of ticket `id`. Each id is filled at most once.
    pub(crate) fn fill(&mut self, id: u64, value: T) {
        if id < self.base {
            self.aside.insert(id, value);
            return;
        }
        let at = (id - self.base) as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || Slot::Empty);
        }
        debug_assert!(matches!(self.slots[at], Slot::Empty), "ticket filled twice");
        self.slots[at] = Slot::Filled(value);
        self.filled += 1;
    }

    /// Takes the outcome of ticket `id` when it is filled and `accept`s
    /// it; otherwise leaves the slot as it is and returns `None`.
    pub(crate) fn take_if(&mut self, id: u64, accept: impl FnOnce(&T) -> bool) -> Option<T> {
        if id < self.base {
            return match self.aside.get(&id) {
                Some(value) if accept(value) => self.aside.remove(&id),
                _ => None,
            };
        }
        let slot = self.slots.get_mut((id - self.base) as usize)?;
        if !matches!(slot, Slot::Filled(value) if accept(value)) {
            return None;
        }
        let Slot::Filled(value) = std::mem::replace(slot, Slot::Taken) else {
            unreachable!("checked filled above");
        };
        self.filled -= 1;
        self.compact();
        Some(value)
    }

    /// Pops taken slots off the front, and moves the front aside while
    /// taken holes outnumber the filled slots.
    fn compact(&mut self) {
        loop {
            let crowded = self.slots.len() > 2 * self.filled + SLACK;
            match self.slots.front_mut() {
                Some(Slot::Taken) => {}
                // A pending front's outcome will be filed aside.
                Some(front) if crowded => {
                    if let Slot::Filled(value) = std::mem::replace(front, Slot::Taken) {
                        self.filled -= 1;
                        self.aside.insert(self.base, value);
                    }
                }
                _ => return,
            }
            self.slots.pop_front();
            self.base += 1;
            if self.slots.is_empty() {
                // Start the next run of tickets at the front of the
                // buffer again, so the ring only ever touches as many
                // slots as it has held at once.
                self.slots.clear();
            }
        }
    }

    /// Slots held, taken holes and outcomes set aside included.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.slots.len() + self.aside.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_redeem_in_any_order_exactly_once() {
        let mut ring = TicketRing::default();
        for id in [2u64, 0, 1] {
            ring.fill(id, id * 10);
        }
        assert_eq!(ring.take_if(1, |_| true), Some(10));
        assert_eq!(ring.take_if(1, |_| true), None);
        assert_eq!(ring.take_if(2, |_| true), Some(20));
        assert_eq!(ring.take_if(0, |&v| v > 0), None, "rejected, left in place");
        assert_eq!(ring.take_if(0, |_| true), Some(0));
        assert_eq!(ring.resident(), 0);
        assert_eq!(ring.take_if(7, |_| true), None, "never issued");
    }

    #[test]
    fn an_unredeemed_front_moves_aside_and_stays_redeemable() {
        let mut ring = TicketRing::default();
        ring.fill(0, 0u64);
        for id in 1..10_000u64 {
            ring.fill(id, id);
            assert_eq!(ring.take_if(id, |_| true), Some(id));
        }
        assert!(ring.resident() <= SLACK + 2, "{} resident", ring.resident());
        assert_eq!(ring.take_if(0, |_| true), Some(0));
        assert_eq!(ring.take_if(0, |_| true), None);
    }

    #[test]
    fn an_outcome_filed_behind_the_front_is_set_aside() {
        let mut ring = TicketRing::default();
        // Ticket 0 stays pending while later tickets come and go.
        for id in 1..1_000u64 {
            ring.fill(id, id);
            assert_eq!(ring.take_if(id, |_| true), Some(id));
        }
        assert!(ring.resident() <= SLACK + 2);
        ring.fill(0, 7);
        assert_eq!(ring.take_if(0, |_| true), Some(7));
        assert_eq!(ring.resident(), 0);
    }

    /// A flush files a batch of outcomes and redeems them all; the next
    /// batch starts at the front of the buffer again instead of
    /// wrapping round it, so the ring touches only as many slots as the
    /// largest batch.
    #[test]
    fn an_emptied_ring_refills_from_the_front_of_its_buffer() {
        let mut ring = TicketRing::default();
        let mut next = 0u64;
        for batch in [100u64, 37, 100, 64, 99, 100, 3, 100] {
            for id in next..next + batch {
                ring.fill(id, id);
            }
            let (front, back) = ring.slots.as_slices();
            assert_eq!((front.len(), back.len()), (batch as usize, 0));
            for id in next..next + batch {
                assert_eq!(ring.take_if(id, |_| true), Some(id));
            }
            next += batch;
        }
        assert!(ring.slots.capacity() < 256, "{}", ring.slots.capacity());
    }
}
