//! Determinism checker: run the same seeded workload twice through the full
//! fabric and diff end-state fingerprints.
//!
//! The simulation substrate (manual clock, seeded fabric, seeded workload)
//! is supposed to make every run a pure function of its seed even though
//! the SAL ships fragments from background sender threads: thread timing
//! may reorder *in-flight* work, but the durable end state — what the log
//! says, what the B-tree answers, where every watermark stopped — must not
//! depend on it. Anything that sneaks wall-clock time or an unseeded RNG
//! into a decision breaks that contract; this harness catches it by
//! construction rather than by code review.
//!
//! Used by the integration tests (`tests/determinism_integration.rs`),
//! which pin seed 42's fingerprint and also *inject* nondeterminism to
//! prove the checker can see it.

use std::fmt;

use taurus_common::clock::ManualClock;
use taurus_common::config::{NetworkProfile, StorageProfile, REPLICAS};
use taurus_common::{DbId, Result, TaurusConfig};
use taurus_engine::TaurusDb;
use taurus_fabric::Fabric;
use taurus_logstore::LogStoreCluster;
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::PageStoreCluster;

/// What (if anything) to deliberately inject into the workload, so tests
/// can prove the checker flags real nondeterminism sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Clean run: everything derives from the seed.
    None,
    /// Mix wall-clock nanoseconds into written values — the exact failure
    /// mode of calling `SystemTime::now()`/`Instant::now()` in a code path
    /// that should use `taurus_common::clock`.
    WallClock,
}

/// Order-independent FNV-1a accumulator over labeled byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of everything observable about a run's end state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Master durable LSN after quiescing.
    pub durable_lsn: u64,
    /// Cluster-visible LSN.
    pub cv_lsn: u64,
    /// Replica visible LSN after catch-up.
    pub replica_visible_lsn: u64,
    /// Hash over the full key→value contents read from the master.
    pub master_kv_hash: u64,
    /// Hash over the full key→value contents read from the replica.
    pub replica_kv_hash: u64,
    /// Hash over the re-read log (every group's LSN range and encoding).
    pub log_hash: u64,
    /// Hash over a full-table scan pushed down to the Page Stores
    /// (`ScanSlice` per slice, evaluated next to the data). Must agree
    /// across runs — and with `master_kv_hash`'s source rows — or the
    /// near-data path diverged from the B-tree.
    pub pushdown_scan_hash: u64,
    /// Hash over a batched `Sal::read_pages` of every page at the durable
    /// LSN (id, version LSN, and bytes per page). Must agree across runs —
    /// batching, per-slice grouping, and the one re-plan are not allowed
    /// to change what a read returns.
    pub batched_read_hash: u64,
    /// Number of PLogs the Log Store directory tracks.
    pub plog_count: usize,
    /// Number of slices the Page Store fleet hosts.
    pub slice_count: usize,
}

impl Fingerprint {
    /// Single combined hash (what the CLI prints).
    pub fn combined(&self) -> u64 {
        let mut h = Fnv::new();
        for v in [
            self.durable_lsn,
            self.cv_lsn,
            self.replica_visible_lsn,
            self.master_kv_hash,
            self.replica_kv_hash,
            self.log_hash,
            self.pushdown_scan_hash,
            self.batched_read_hash,
            self.plog_count as u64,
            self.slice_count as u64,
        ] {
            h.write(&v.to_le_bytes());
        }
        h.finish()
    }

    /// Field-by-field diff against another fingerprint.
    pub fn diff(&self, other: &Fingerprint) -> Vec<String> {
        let mut out = Vec::new();
        let mut cmp = |name: &str, a: u64, b: u64| {
            if a != b {
                out.push(format!("{name}: {a:#x} != {b:#x}"));
            }
        };
        cmp("durable_lsn", self.durable_lsn, other.durable_lsn);
        cmp("cv_lsn", self.cv_lsn, other.cv_lsn);
        cmp(
            "replica_visible_lsn",
            self.replica_visible_lsn,
            other.replica_visible_lsn,
        );
        cmp("master_kv_hash", self.master_kv_hash, other.master_kv_hash);
        cmp(
            "replica_kv_hash",
            self.replica_kv_hash,
            other.replica_kv_hash,
        );
        cmp("log_hash", self.log_hash, other.log_hash);
        cmp(
            "pushdown_scan_hash",
            self.pushdown_scan_hash,
            other.pushdown_scan_hash,
        );
        cmp(
            "batched_read_hash",
            self.batched_read_hash,
            other.batched_read_hash,
        );
        cmp(
            "plog_count",
            self.plog_count as u64,
            other.plog_count as u64,
        );
        cmp(
            "slice_count",
            self.slice_count as u64,
            other.slice_count as u64,
        );
        out
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fingerprint {:#018x} (durable={} cv={} replica={} plogs={} slices={})",
            self.combined(),
            self.durable_lsn,
            self.cv_lsn,
            self.replica_visible_lsn,
            self.plog_count,
            self.slice_count
        )
    }
}

/// Tiny splitmix64 so the workload depends only on its seed (no rand crate
/// API surface needed here).
struct WorkloadRng(u64);

impl WorkloadRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Runs one seeded workload against a fresh fleet and fingerprints the end
/// state. Two calls with the same `seed`/`ops`/`Inject::None` must return
/// identical fingerprints.
pub fn fingerprint_run(seed: u64, ops: usize, inject: Inject) -> Result<Fingerprint> {
    let cfg = TaurusConfig::test();
    let clock = ManualClock::shared();
    let fabric = Fabric::new(clock, NetworkProfile::instant(), seed);
    let logs = LogStoreCluster::new(fabric.clone(), REPLICAS, cfg.logstore_cache_bytes);
    logs.spawn_servers(5, StorageProfile::instant());
    let pages = PageStoreCluster::new(fabric.clone(), REPLICAS, PageStoreOptions::default());
    pages.spawn_servers(5, StorageProfile::instant());
    let db = TaurusDb::launch_tenant(cfg, fabric, logs.clone(), pages.clone(), DbId(1))?;

    let mut rng = WorkloadRng(seed ^ 0x5eed_5eed_5eed_5eed);
    let key_space = (ops as u64 / 2).max(8);
    for op in 0..ops {
        let master = db.master();
        let k = format!("key-{:06}", rng.below(key_space));
        match rng.below(10) {
            // 70% upserts, 20% deletes of a known key, 10% read txns.
            0..=6 => {
                let mut v = format!("val-{op}-{}", rng.next());
                if inject == Inject::WallClock {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the deliberate bug: wall-clock time in a data path"
                    )]
                    let nanos = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.subsec_nanos())
                        .unwrap_or(0);
                    v.push_str(&format!("-{nanos}"));
                }
                let mut t = master.begin();
                t.put(k.as_bytes(), v.as_bytes())?;
                t.commit()?;
            }
            7..=8 => {
                let mut t = master.begin();
                t.delete(k.as_bytes())?;
                t.commit()?;
            }
            _ => {
                let _ = master.get(k.as_bytes())?;
            }
        }
        if op % 16 == 0 {
            db.maintain();
        }
    }

    // Quiesce: every live Page Store replica holds every durable record
    // (the batched read below takes its page ids from whichever replica
    // answers first), and a replica tails the log to the read horizon.
    let replica = db.add_replica()?;
    db.quiesce(db.fabric.clock.now_us() + 10_000_000)?;

    // Fingerprint the end state.
    let master = db.master();
    let mut master_kv = Fnv::new();
    for (k, v) in master.scan(b"", usize::MAX)? {
        master_kv.write(&k);
        master_kv.write(b"=");
        master_kv.write(&v);
        master_kv.write(b";");
    }
    let mut replica_kv = Fnv::new();
    // Replicas have no scan; probe the whole key space point-wise.
    for i in 0..key_space {
        let k = format!("key-{i:06}");
        if let Some(v) = replica.get(k.as_bytes())? {
            replica_kv.write(k.as_bytes());
            replica_kv.write(b"=");
            replica_kv.write(&v);
            replica_kv.write(b";");
        }
    }
    let mut log = Fnv::new();
    for group in master.sal.log.read_from(taurus_common::Lsn(1))? {
        log.write(&group.encode());
    }
    // Full-table scan through the near-data path: one `ScanSlice` per
    // slice, pages materialized at the durable LSN *inside* the Page
    // Stores. Hashing the merged rows pins down the pushdown evaluator and
    // the slice planner, not just the B-tree read path.
    let mut pushdown = Fnv::new();
    let scan = master.scan_pushdown(&taurus_common::scan::ScanRequest::full())?;
    for (k, v) in &scan.rows {
        pushdown.write(k);
        pushdown.write(b"=");
        pushdown.write(v);
        pushdown.write(b";");
    }
    // One batched read of every page at the durable LSN: pins down the
    // `ReadPages` grouping, per-slice routing, and continuation loops.
    let mut batched = Fnv::new();
    let mut ids = std::collections::BTreeSet::new();
    for key in pages.slices() {
        for node in pages.replicas_of(key) {
            if let Ok(page_ids) = pages.page_ids_of(node, node, key) {
                ids.extend(page_ids);
                break;
            }
        }
    }
    let ids: Vec<taurus_common::PageId> = ids.into_iter().collect();
    for (page, buf) in master
        .sal
        .read_pages(&ids, Some(master.sal.durable_lsn()))?
    {
        batched.write(&page.0.to_le_bytes());
        batched.write(&buf.lsn().0.to_le_bytes());
        batched.write(buf.as_bytes());
    }

    Ok(Fingerprint {
        durable_lsn: master.sal.durable_lsn().0,
        cv_lsn: master.sal.cv_lsn().0,
        replica_visible_lsn: replica.visible_lsn().0,
        master_kv_hash: master_kv.finish(),
        replica_kv_hash: replica_kv.finish(),
        log_hash: log.finish(),
        pushdown_scan_hash: pushdown.finish(),
        batched_read_hash: batched.finish(),
        plog_count: logs.plog_count(),
        slice_count: pages.slices().len(),
    })
}

/// Outcome of a two-run determinism check.
#[derive(Debug)]
pub struct DeterminismReport {
    pub first: Fingerprint,
    pub second: Fingerprint,
    /// Human-readable field mismatches; empty means deterministic.
    pub mismatches: Vec<String>,
}

impl DeterminismReport {
    pub fn deterministic(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs the workload twice with the same seed and diffs the fingerprints.
pub fn check_determinism(seed: u64, ops: usize, inject: Inject) -> Result<DeterminismReport> {
    let first = fingerprint_run(seed, ops, inject)?;
    let second = fingerprint_run(seed, ops, inject)?;
    let mismatches = first.diff(&second);
    Ok(DeterminismReport {
        first,
        second,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        let mut a = Fnv::new();
        a.write(b"hello");
        let mut b = Fnv::new();
        b.write(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write(b"hellp");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn workload_rng_is_a_pure_function_of_its_seed() {
        let mut a = WorkloadRng(42);
        let mut b = WorkloadRng(42);
        let mut c = WorkloadRng(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn fingerprint_diff_reports_changed_fields_only() {
        let f = Fingerprint {
            durable_lsn: 10,
            cv_lsn: 10,
            replica_visible_lsn: 10,
            master_kv_hash: 1,
            replica_kv_hash: 2,
            log_hash: 3,
            pushdown_scan_hash: 6,
            batched_read_hash: 7,
            plog_count: 4,
            slice_count: 5,
        };
        assert!(f.diff(&f).is_empty());
        let mut g = f.clone();
        g.log_hash = 99;
        let d = f.diff(&g);
        assert_eq!(d.len(), 1);
        assert!(d[0].starts_with("log_hash"));
        assert_ne!(f.combined(), g.combined());
    }
}
