//! The SAL's counter families: the write and repair path ([`SalStats`]),
//! near-data scan pushdown ([`NdpStats`]) and the batched read path
//! ([`ReadBatchStats`]), re-exported from `sal`.

use taurus_common::metrics::Counter;
use taurus_common::PAGE_SIZE;

taurus_common::counters! {
    /// Counters exposed for benches and tests.
    pub struct SalStats => SalStatsSnapshot {
        pub log_flushes: Counter,
        pub slice_flushes: Counter,
        /// `read_page` calls.
        pub page_reads: Counter,
        /// Requests of `read_page` plans a replica refused (the next one is
        /// tried), plus one per re-plan.
        pub read_retries: Counter,
        /// Fragments `redo` delivered from the Log Stores, whoever asked:
        /// repair and restart recovery.
        pub resends: Counter,
        /// Log-window reads `redo` issued: one per pass with a lagging
        /// replica, however many slices and replicas the pass covers.
        pub redo_log_reads: Counter,
        /// `GetPersistentLSN` answers dropped because another report for
        /// the same replica (an ack) landed while the probe was in flight:
        /// the answer is older than what the SAL already knows.
        pub probe_replies_overtaken: Counter,
        pub gossip_triggers: Counter,
        /// `WriteLogs` envelopes with a failed slot (per envelope, not per
        /// fragment): the next repair pass re-sends those fragments from
        /// the Log Stores.
        pub write_retries: Counter,
        /// Fragments failed, refused by a node a rebuild replaced, or
        /// abandoned at admission — their slice is parked for repair from
        /// the Log Stores.
        pub fragments_parked: Counter,
        /// Fragments abandoned at admission (`Sal::admit_flush`): a node's
        /// send queue held flushes for `short_term_failure_us` without
        /// draining, or was full while the node was suspect or down.
        pub queue_full_drops: Counter,
        /// Log flushes held because a node's send queue was full.
        pub admission_waits: Counter,
        /// Time those flushes were held, on the SAL's clock, µs.
        pub admission_wait_us: Counter,
        /// Healthy → suspect transitions.
        pub suspect_demotions: Counter,
        /// Suspect → healthy transitions.
        pub suspect_resurrections: Counter,
        /// Log flushes whose error no caller observed. Nothing increments
        /// it any more: every log flush runs in a caller's [`Sal::flush`],
        /// which returns its error (a failure also latches for the next
        /// one). Kept because benches report it.
        pub dropped_flush_errors: Counter,
        /// `flush()` calls that waited for a stream slot so the commit group
        /// could grow (adaptive group commit under load).
        pub group_commit_waits: Counter,
        /// Log Directory pointers the recycle broadcasts purged across Page
        /// Stores (the handshake reports back what it freed).
        pub recycle_ptrs_purged: Counter,
        /// Fragment + layer bytes the recycle broadcasts logically reclaimed.
        pub recycle_bytes_reclaimed: Counter,
        /// Grouped (coalesced) fabric envelopes issued by the miss, scan, and
        /// write paths: each merges every per-slice request bound for one Page
        /// Store node into a single round trip. Every `WriteLogs` is one — a
        /// run of one fragment counts like any other.
        pub grouped_envelopes: Counter,
        /// Per-slice requests that rode a grouped envelope instead of paying
        /// their own fabric round trip.
        pub grouped_slice_batches: Counter,
        /// Slices their first grouped read envelope did not finish: reads
        /// that needed another round (a refusal or a budget continuation).
        pub grouped_fallback_slices: Counter,
        /// Coalescing histogram: per-slice requests per grouped envelope,
        /// buckets 1, 2, 3–4, 5–8, 9+.
        pub coalesced_per_rpc: [Counter; 5] as "coalesced_per_rpc[1|2|3-4|5-8|9+]",
    }
}

/// Index of the first histogram bucket whose inclusive upper bound holds
/// `n`; the fifth bucket is open-ended.
fn bucket(n: usize, upper: [usize; 4]) -> usize {
    upper.iter().position(|&u| n <= u).unwrap_or(4)
}

impl SalStats {
    /// Records one grouped envelope carrying `n` per-slice requests.
    pub(crate) fn note_coalesced(&self, n: usize) {
        self.coalesced_per_rpc[bucket(n, [1, 2, 4, 8])].inc();
        self.grouped_envelopes.inc();
        self.grouped_slice_batches.add(n as u64);
    }
}

taurus_common::counters! {
    /// Counters for the near-data scan pushdown planner (NDP paper; printed by
    /// the `ndp` bench).
    pub struct NdpStats => NdpStatsSnapshot {
        /// Planner invocations (one per table scan).
        pub pushdown_scans: Counter,
        /// `ScanSlice` RPCs issued, continuations included.
        pub slice_calls: Counter,
        /// Failed `ScanSlice` attempts (replica skipped, next one tried).
        pub slice_retries: Counter,
        /// Slices that fell back to `ReadPages` + local evaluation.
        pub fallbacks: Counter,
        /// Row slots examined remotely by Page Stores.
        pub rows_scanned: Counter,
        /// Matching rows returned across the fabric.
        pub rows_returned: Counter,
        /// Bytes of row payload returned across the fabric.
        pub bytes_returned: Counter,
        /// Pages materialized remotely by Page Stores.
        pub pages_scanned: Counter,
        /// Pages fetched master-ward by the local fallback.
        pub fallback_pages: Counter,
        /// Bytes moved master-ward by the local fallback (pages × page size).
        pub fallback_bytes: Counter,
    }
    derived { bytes_saved_vs_fetch }
}

impl NdpStatsSnapshot {
    /// Bytes that stayed on the Page Stores: what fetch-and-filter would
    /// have moved master-ward for the remotely scanned pages, minus what
    /// pushdown actually returned.
    pub fn bytes_saved_vs_fetch(&self) -> u64 {
        self.pages_scanned
            .saturating_mul(PAGE_SIZE as u64)
            .saturating_sub(self.bytes_returned)
    }
}

taurus_common::counters! {
    /// Counters for the batched read path (`Sal::read_pages`; printed by the
    /// `readpath` bench and the fig7/fig9 gauge dumps).
    pub struct ReadBatchStats => ReadBatchStatsSnapshot {
        /// `read_pages` invocations (one per multi-page miss batch).
        pub batches: Counter,
        /// `ReadPages` RPCs issued, budget continuations included.
        pub batch_rpcs: Counter,
        /// Failed `ReadPages` attempts (replica skipped, next one tried).
        pub batch_retries: Counter,
        /// Page ids requested across all batches.
        pub pages_requested: Counter,
        /// Pages returned by successful `ReadPages` RPCs.
        pub pages_returned: Counter,
        /// Pages a slice answered as recycled that the call did not re-plan
        /// (an explicit snapshot, or a head read recycled again): each is an
        /// error, never a returned page.
        pub partial_failures: Counter,
        /// Pages a head read found recycled and re-planned once, at
        /// re-resolved snapshots.
        pub straggler_retries: Counter,
        /// Pages-per-RPC histogram: buckets 1, 2–4, 5–16, 17–64, 65+.
        pub pages_per_rpc: [Counter; 5] as "pages_per_rpc[1|2-4|5-16|17-64|65+]",
    }
}

impl ReadBatchStats {
    /// Records one successful `ReadPages` round trip that carried `n` pages.
    pub(crate) fn note_rpc(&self, n: usize) {
        self.batch_rpcs.inc();
        self.pages_per_rpc[bucket(n, [1, 4, 16, 64])].inc();
    }
}
