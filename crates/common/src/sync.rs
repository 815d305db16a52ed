//! Small synchronization helpers shared across the workspace.

use parking_lot::{Condvar, Mutex};

/// A ticket turnstile: threads holding consecutive tickets pass through one
/// at a time, in ticket order, regardless of the order they arrive in.
///
/// Each log stream (`taurus_logstore::LogStream`) keeps one: flush tickets
/// are assigned under the SAL lock in LSN order, and a stream runs its
/// appends one at a time in that order, each turn spanning the whole
/// replicated 3/3 append. Appends overlap only across streams.
///
/// Every ticket holder **must** call [`Sequencer::advance`] exactly once —
/// including on error paths — or every later ticket blocks forever.
#[derive(Debug, Default)]
pub struct Sequencer {
    current: Mutex<u64>,
    cv: Condvar,
}

impl Sequencer {
    /// A turnstile whose first admitted ticket is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until `ticket` is the current turn. Tickets must be obtained
    /// from a dense counter starting at 0; waiting on a ticket that was
    /// already admitted returns immediately (and indicates a caller bug if
    /// the holder also advances again).
    pub fn wait_for(&self, ticket: u64) {
        let mut current = self.current.lock();
        while *current < ticket {
            self.cv.wait(&mut current);
        }
    }

    /// Ends the current turn, admitting the next ticket.
    pub fn advance(&self) {
        let mut current = self.current.lock();
        *current += 1;
        self.cv.notify_all();
    }

    /// Blocks until `ticket` is the current turn and returns a guard that
    /// [`advance`](Sequencer::advance)s exactly once when dropped. Prefer
    /// this over a manual `wait_for`/`advance` pair: early returns, `?`,
    /// and panics all still admit the next ticket, so one failing holder
    /// cannot wedge the turnstile.
    pub fn ticket_guard(&self, ticket: u64) -> TicketGuard<'_> {
        self.wait_for(ticket);
        TicketGuard { seq: self }
    }
}

/// An admitted turn in a [`Sequencer`]; the turn ends (and the next ticket
/// is admitted) when this guard drops.
#[derive(Debug)]
pub struct TicketGuard<'a> {
    seq: &'a Sequencer,
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        self.seq.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn tickets_pass_in_order_regardless_of_arrival() {
        let seq = Arc::new(Sequencer::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Spawn in reverse ticket order so later tickets arrive first.
        for ticket in (0..8u64).rev() {
            let seq = Arc::clone(&seq);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                seq.wait_for(ticket);
                order.lock().push(ticket);
                seq.advance();
            }));
        }
        for h in handles {
            h.join().map_err(|_| "worker panicked").unwrap();
        }
        assert_eq!(*order.lock(), (0..8u64).collect::<Vec<_>>());
    }

    #[test]
    fn failing_ticket_holder_cannot_wedge_later_tickets() {
        let seq = Arc::new(Sequencer::new());
        // Ticket 0 "fails": its holder unwinds out of the ordered section.
        // The guard must still advance, or ticket 1 blocks forever.
        let s0 = Arc::clone(&seq);
        let failer = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _turn = s0.ticket_guard(0);
                panic!("flush failed mid-turn");
            }));
            assert!(result.is_err());
        });
        failer.join().map_err(|_| "failer hung").unwrap();
        // An error-return path (guard dropped by `?`-style early exit).
        let early_exit = |seq: &Sequencer| -> Result<(), ()> {
            let _turn = seq.ticket_guard(1);
            Err(())
        };
        assert!(early_exit(&seq).is_err());
        // Ticket 2 must now be admitted promptly.
        let s2 = Arc::clone(&seq);
        let waiter = std::thread::spawn(move || {
            let _turn = s2.ticket_guard(2);
        });
        waiter.join().map_err(|_| "ticket 2 wedged").unwrap();
    }

    #[test]
    fn turnstile_admits_one_holder_at_a_time() {
        let seq = Arc::new(Sequencer::new());
        let inside = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for ticket in 0..6u64 {
            let seq = Arc::clone(&seq);
            let inside = Arc::clone(&inside);
            handles.push(std::thread::spawn(move || {
                seq.wait_for(ticket);
                assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                inside.fetch_sub(1, Ordering::SeqCst);
                seq.advance();
            }));
        }
        for h in handles {
            h.join().map_err(|_| "worker panicked").unwrap();
        }
    }
}
