//! The log-write pipeline (paper §4.1 steps 1–3): the database log buffer
//! a committer's [`Sal::flush`] takes as one flush span, the span's one
//! append to the [`taurus_logstore::Log`], and the contiguous-prefix walk
//! that advances the durable LSN and hands each committed span's records
//! to the slice buffers — the LSN-vector commit rule of *Taurus:
//! Lightweight Parallel Logging*. A third `impl Sal` block beside
//! [`crate::slice_writer`] (slice buffers → Page Stores) and
//! [`crate::slice_reader`]; its state lives in `sal::state`.

use taurus_common::{LogRecordGroup, Lsn, Result, TaurusError};

use crate::sal::{Sal, SalState};

/// One log-buffer's worth of groups on its way through the flush pipeline:
/// prepared (ticketed) under the state lock, appended to the [`Log`] with
/// no lock held, then committed by the contiguous-prefix walk over
/// [`SalState::flush_spans`].
struct PreparedFlush {
    /// Dense flush ticket, in LSN order: the span's place in the log.
    ticket: u64,
    /// End of the span prepared immediately before this one: the chain
    /// link recovery uses to detect log holes.
    prev_end: Lsn,
    first: Lsn,
    end: Lsn,
    groups: Vec<LogRecordGroup>,
}

/// Completion state of one flush span in the global prepare-order window.
#[derive(Debug)]
enum SpanState {
    /// Append still running.
    InFlight,
    /// Durable in the log; groups parked here until the span reaches the
    /// front of the window and the prefix walk distributes them.
    Durable(Vec<LogRecordGroup>),
    /// Append failed outright; latches `failed_at` when it reaches the front.
    Failed,
}

/// One prepared flush tracked in global prepare order. The durable LSN only
/// advances over the contiguous prefix of durable spans, so a span that
/// lands before an earlier one does not become visible early — the
/// LSN-vector commit rule (parallel-logging paper).
#[derive(Debug)]
pub(crate) struct FlushSpan {
    end: Lsn,
    ticket: u64,
    state: SpanState,
}

impl Sal {
    /// Appends a log-record group to the database log buffer and, when the
    /// buffer is full, flushes it through [`Sal::flush`]. Does **not**
    /// otherwise guarantee durability — call [`Sal::flush`] for that (the
    /// engine does at commit).
    pub fn log_group(&self, group: LogRecordGroup) -> Result<()> {
        if self.buffer_group(group) {
            self.flush()?;
        }
        Ok(())
    }

    /// Buffers a log-record group without performing any Log Store I/O, and
    /// returns whether the buffer has reached its flush threshold. The
    /// engine buffers under the exclusive B-tree latch (buffer order must
    /// equal LSN order) and flushes after the latch drops: a full buffer is
    /// [`Sal::flush`]'s no-wait case, so the replicated append's round trips
    /// never run under the latch.
    pub fn buffer_group(&self, group: LogRecordGroup) -> bool {
        let mut st = self.state.lock();
        // Groups arrive in LSN order: the engine buffers under the tree
        // latch, and `Log::tail` skips a group that ends at or below one it
        // already delivered, so an out-of-order frame would lose its
        // earlier groups on a replica.
        let floor = st
            .log_buffer
            .last()
            .map_or(st.last_prepared_end, |g| g.end_lsn());
        taurus_common::invariant!(
            "log-groups-in-lsn-order",
            group.first_lsn() > floor,
            "group [{}..{}] buffered after LSN {floor}",
            group.first_lsn(),
            group.end_lsn()
        );
        st.log_buffer_bytes += group.encoded_len();
        st.log_buffer.push(group);
        st.log_buffer_bytes >= self.cfg.log_buffer_bytes
    }

    /// Forces the database log buffer to the Log Stores. On return, every
    /// record passed to [`Sal::log_group`] so far is durable (3/3) and the
    /// transaction ack may be sent — including records handed to flushes
    /// still in flight on other threads when this call started. Returns the
    /// durable LSN.
    pub fn flush(&self) -> Result<Lsn> {
        let (prepared, target) = {
            let mut st = self.state.lock();
            // Adaptive group commit: while every log stream already carries
            // an in-flight flush, queueing another tiny span buys nothing —
            // wait for a slot and let the buffer (the commit group) grow.
            // The waits are bounded: in-flight flushes are always driven by
            // the threads that prepared them, and completion (or failure)
            // notifies `flush_cv`. A buffer at the size threshold flushes
            // immediately regardless.
            while !st.log_buffer.is_empty()
                && st.flushes_in_flight >= self.log.streams()
                && st.log_buffer_bytes < self.cfg.log_buffer_bytes
            {
                self.stats.group_commit_waits.inc();
                self.flush_cv.wait(&mut st);
            }
            let p = self.prepare_flush_locked(&mut st);
            (p, st.last_prepared_end)
        };
        if let Some(p) = prepared {
            self.run_flush(p)?;
        }
        // Even after our own span lands, durability of the *caller's*
        // records rides on every earlier span: wait for the contiguous
        // durable prefix to reach the target.
        self.wait_durable(target)?;
        Ok(self.durable_lsn.get())
    }

    /// Blocks until the durable LSN (the contiguous span prefix) reaches
    /// `target`, or a flush at or below `target` has failed.
    fn wait_durable(&self, target: Lsn) -> Result<()> {
        if self.durable_lsn.get() >= target {
            return Ok(());
        }
        let mut st = self.state.lock();
        while self.durable_lsn.get() < target {
            if st.failed_at.is_valid() && st.failed_at <= target {
                return Err(TaurusError::Internal(format!(
                    "log flush failed at {}",
                    st.failed_at
                )));
            }
            self.flush_cv.wait(&mut st);
        }
        Ok(())
    }

    /// Takes the current log buffer as one pipelined flush unit, assigning
    /// it the next flush ticket. Cheap; called under the state lock. The
    /// caller must then drive [`Sal::run_flush`] (off the lock).
    fn prepare_flush_locked(&self, st: &mut SalState) -> Option<PreparedFlush> {
        if st.log_buffer.is_empty() {
            return None;
        }
        let groups = std::mem::take(&mut st.log_buffer);
        st.log_buffer_bytes = 0;
        // Groups arrive in LSN order (`buffer_group` checks it), so this is
        // the first group's first LSN and the last group's end; min/max
        // keeps the span right even when that check has fired.
        let first = groups
            .iter()
            .map(|g| g.first_lsn())
            .min()
            .unwrap_or(Lsn::ZERO);
        let end = groups
            .iter()
            .map(|g| g.end_lsn())
            .max()
            .unwrap_or(Lsn::ZERO);
        // Successive flushes carry strictly increasing LSN ranges; the
        // durable LSN itself may lag — earlier tickets can still be in
        // flight.
        taurus_common::invariant!(
            "log-flush-monotonic",
            end >= first && first > st.last_prepared_end.max(self.durable_lsn.get()),
            "flush [{first}..{end}] does not extend prepared {} / durable {}",
            st.last_prepared_end,
            self.durable_lsn.get()
        );
        let prev_end = st.last_prepared_end;
        st.last_prepared_end = end;
        let ticket = st.next_flush_ticket;
        st.next_flush_ticket += 1;
        st.flush_spans.push_back(FlushSpan {
            end,
            ticket,
            state: SpanState::InFlight,
        });
        st.flushes_in_flight += 1;
        Some(PreparedFlush {
            ticket,
            prev_end,
            first,
            end,
            groups,
        })
    }

    /// Drives one prepared flush through the log-write pipeline. The state
    /// lock is never held across the Log Store round trip: the span goes
    /// to the [`Log`] as one append (which overlaps it with other spans'
    /// appends), and durability bookkeeping commits via the
    /// contiguous-prefix walk over the global span window.
    fn run_flush(&self, p: PreparedFlush) -> Result<()> {
        // Back-pressure (§7): while a Page Store's consolidation is behind
        // or its send queue is full, the flush is held here.
        self.admit_flush();
        // Steps 2-3: durable on all Log Store replicas. Then any missing
        // slice is created before taking `state`: the CreateSlice RPC must
        // not run under the SAL's central lock, and it must happen before
        // the span is marked durable — the prefix walk distributes records
        // into `SalState::slices` and may run on another thread. Records
        // that are durable but cannot be homed fail the flush too (the
        // span would otherwise wedge the window).
        let landed = self
            .log
            .append(p.ticket, p.prev_end, p.first, p.end, &p.groups)
            .and_then(|()| self.ensure_slices(&self.homes_of(&p.groups)));
        // The commit point (durable LSN) advances only as far as the
        // contiguous durable prefix now reaches — which may commit this
        // span, later spans that finished earlier, or neither (when an
        // earlier span is still in flight; whoever lands it commits for
        // both).
        let mut st = self.state.lock();
        let state = match landed {
            Ok(()) => SpanState::Durable(p.groups),
            Err(_) => SpanState::Failed,
        };
        Self::mark_span(&mut st, p.ticket, state);
        st.flushes_in_flight -= 1;
        self.advance_durable_prefix_locked(&mut st);
        self.flush_cv.notify_all();
        landed?;
        if st.failed_at.is_valid() && p.end > st.failed_at {
            // An earlier flush failed: our records are durable but sit
            // behind a hole in the log, so they can never be acknowledged
            // or made visible.
            return Err(TaurusError::Internal(format!(
                "log flush failed at {}",
                st.failed_at
            )));
        }
        Ok(())
    }

    /// Records the completion state of the span flushed under `ticket`.
    fn mark_span(st: &mut SalState, ticket: u64, state: SpanState) {
        if let Some(span) = st.flush_spans.iter_mut().find(|s| s.ticket == ticket) {
            span.state = state;
        }
    }

    /// Pops the contiguous prefix of `Durable` spans off the global window,
    /// advancing the durable LSN and distributing each span's records into
    /// per-slice buffers — the LSN-vector commit rule: a span becomes
    /// visible only once every earlier span is durable. A `Failed` span at
    /// the front latches `failed_at` and stops the walk permanently; an
    /// `InFlight` span just stops it for now.
    fn advance_durable_prefix_locked(&self, st: &mut SalState) {
        loop {
            match st.flush_spans.front_mut() {
                None => return,
                Some(span) => match &mut span.state {
                    SpanState::InFlight => return,
                    SpanState::Failed => {
                        if !st.failed_at.is_valid() {
                            st.failed_at = span.end;
                        }
                        return;
                    }
                    SpanState::Durable(groups) => {
                        let groups = std::mem::take(groups);
                        let (ticket, end) = (span.ticket, span.end);
                        st.flush_spans.pop_front();
                        let covered = self.log.durable_at(ticket);
                        taurus_common::invariant!(
                            "lsn-vector-covers-durable",
                            covered >= end,
                            "span {ticket}: its stream's vector {covered} is behind its end {end}"
                        );
                        self.durable_lsn.advance(end);
                        self.stats.log_flushes.inc();
                        self.distribute_span_locked(st, groups);
                    }
                },
            }
        }
    }

    /// Distributes one committed span's records into per-slice buffers. Runs
    /// under `state`, on whichever thread's flush completion pulled the span
    /// off the window.
    fn distribute_span_locked(&self, st: &mut SalState, groups: Vec<LogRecordGroup>) {
        for g in groups {
            for rec in g.records {
                let key = self.slice_of(rec.page);
                let Some(slice) = st.slices.get_mut(&key) else {
                    // `finish_flush` verified the slice before marking the
                    // span durable, and slices are never removed.
                    taurus_common::invariant!(
                        "slice-homed-before-distribute",
                        false,
                        "slice {key} vanished after ensure"
                    );
                    continue;
                };
                if slice.buffer.is_empty() {
                    slice.buffer_opened_us = self.clock.now_us();
                }
                slice.buffer_bytes += rec.encoded_len();
                slice.buffer.push(rec);
            }
        }
        // Flush slice buffers that crossed the size threshold.
        self.flush_slices_locked(st, |s| s.buffer_bytes >= self.cfg.slice_buffer_bytes);
    }
}
