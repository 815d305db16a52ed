//! Quorum-replicated shared storage (Aurora-style and PolarDB-style).
//!
//! The engine ships log fragments to **N** storage replicas and waits for
//! **W** acknowledgments before a commit is durable (paper §2, §4.4). There
//! is no separate log tier: every one of the N storage replicas persists the
//! log and consolidates pages, so the write amplification is N-fold and the
//! commit latency is the W-th order statistic of N round trips. Reads probe
//! replicas until one is caught up. Storage replicas reuse the real
//! `PageStoreServer`, so consolidation and versioned reads behave exactly
//! like Taurus's — the measured differences isolate the replication scheme.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use taurus_common::config::StorageProfile;
use taurus_common::lsn::LsnAllocator;
use taurus_common::record::RecordBody;
use taurus_common::{
    DbId, Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusConfig, TaurusError, TxnId,
};
use taurus_engine::btree::{BTree, MutCtx};
use taurus_engine::latch::{PageSource, TreeLatch};
use taurus_engine::pool::{EnginePool, Frame, PageMap};
use taurus_fabric::Fabric;
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::{PageStoreCluster, SliceFragment};

/// An engine over N/W quorum storage.
pub struct QuorumEngine {
    pub n: usize,
    pub w: usize,
    cfg: TaurusConfig,
    db: DbId,
    me: NodeId,
    cluster: PageStoreCluster,
    lsns: LsnAllocator,
    /// Same latch protocol as the Taurus master, so the comparison isolates
    /// the storage architecture.
    tree: TreeLatch,
    /// Per-slice chain link (last LSN shipped).
    chain: Mutex<HashMap<SliceKey, Lsn>>,
    next_txn: std::sync::atomic::AtomicU64,
    /// Background deliveries beyond the write quorum. The channel is
    /// unbounded: a replica slower than the committers grows it without
    /// limit (no back-pressure, unlike the Taurus SAL's send queues). It
    /// is a baseline's model of deferred delivery, kept as it is.
    deferred: Sender<(taurus_common::NodeId, SliceFragment)>,
}

impl QuorumEngine {
    /// Aurora-style: N=6, W=4.
    pub fn aurora(fabric: Fabric, cfg: TaurusConfig, storage: StorageProfile) -> Result<Arc<Self>> {
        Self::new(fabric, cfg, storage, 6, 4)
    }

    /// PolarDB-style: N=3, W=2.
    pub fn polardb(
        fabric: Fabric,
        cfg: TaurusConfig,
        storage: StorageProfile,
    ) -> Result<Arc<Self>> {
        Self::new(fabric, cfg, storage, 3, 2)
    }

    pub fn new(
        fabric: Fabric,
        cfg: TaurusConfig,
        storage: StorageProfile,
        n: usize,
        w: usize,
    ) -> Result<Arc<Self>> {
        assert!(w <= n && w > 0);
        let me = fabric.add_node(taurus_fabric::NodeKind::Compute);
        let cluster = PageStoreCluster::new(
            fabric,
            n,
            PageStoreOptions {
                log_cache_bytes: cfg.pagestore_log_cache_bytes,
                pool_pages: cfg.pagestore_buffer_pool_pages,
                ..PageStoreOptions::default()
            },
        );
        cluster.spawn_servers(n + 2, storage);
        let tree = TreeLatch::new(
            EnginePool::new(cfg.engine_buffer_pool_pages),
            cluster.fabric.clock.clone(),
        );
        let (tx, rx) = unbounded::<(taurus_common::NodeId, SliceFragment)>();
        {
            // One background sender drains post-quorum deliveries.
            let cluster = cluster.clone();
            let sender_me = me;
            std::thread::spawn(move || {
                while let Ok((node, frag)) = rx.recv() {
                    let _ = cluster.write_logs_to(node, sender_me, &frag);
                }
            });
        }
        let engine = Arc::new(QuorumEngine {
            n,
            w,
            cfg,
            db: DbId(1),
            me,
            cluster,
            lsns: LsnAllocator::new(Lsn::ZERO),
            tree,
            chain: Mutex::new(HashMap::new()),
            next_txn: std::sync::atomic::AtomicU64::new(1),
            deferred: tx,
        });
        // Bootstrap.
        let no_keys = std::iter::empty::<&[u8]>();
        let records = engine.tree.write(&*engine, no_keys, |fetch| {
            let mut ctx = MutCtx::new(&engine.lsns, fetch);
            BTree::bootstrap(&mut ctx)?;
            engine.install(std::mem::take(&mut ctx.pages));
            Ok(ctx.records)
        })?;
        engine.ship(records)?;
        Ok(engine)
    }

    fn slice_of(&self, page: PageId) -> SliceKey {
        SliceKey::new(self.db, page.slice(self.cfg.pages_per_slice))
    }

    fn install(&self, pages: PageMap<PageBuf>) {
        let guard = self.evict_guard();
        for (id, page) in pages {
            let lsn = page.lsn();
            self.tree
                .pool()
                .put(id, Frame::new(Arc::new(page), lsn, true), &guard);
        }
    }

    /// Ships one commit's records: per touched slice, one fragment to all N
    /// replicas, waiting for W acks (the quorum write).
    fn ship(&self, records: Vec<taurus_common::LogRecord>) -> Result<()> {
        let mut by_slice: HashMap<SliceKey, Vec<taurus_common::LogRecord>> = HashMap::new();
        for rec in records {
            by_slice
                .entry(self.slice_of(rec.page))
                .or_default()
                .push(rec);
        }
        for (key, recs) in by_slice {
            self.cluster.create_slice(key, self.me)?;
            let prev = {
                let chain = self.chain.lock();
                chain.get(&key).copied().unwrap_or(Lsn::ZERO)
            };
            let frag = SliceFragment::new(key, prev, recs);
            let last = frag.last_lsn();
            let replicas = self.cluster.replicas_of(key);
            // The commit returns once W replicas acknowledged; deliveries
            // beyond the quorum complete in the background.
            let mut acks = 0usize;
            let mut pending: Vec<taurus_common::NodeId> = Vec::new();
            for &node in &replicas {
                if acks >= self.w {
                    pending.push(node);
                    continue;
                }
                if self.cluster.write_logs_to(node, self.me, &frag).is_ok() {
                    acks += 1;
                }
            }
            if acks < self.w {
                return Err(TaurusError::InsufficientHealthyNodes {
                    needed: self.w,
                    available: acks,
                });
            }
            for node in pending {
                let _ = self.deferred.send((node, frag.clone()));
            }
            self.chain.lock().insert(key, last);
        }
        Ok(())
    }

    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.tree.read(self, |fetch| BTree::get(fetch, key))
    }

    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.tree
            .read(self, |fetch| BTree::scan(fetch, start, limit))
    }

    /// Applies a write batch atomically with quorum durability.
    pub fn apply(&self, writes: &[(Vec<u8>, Option<Vec<u8>>)]) -> Result<()> {
        let txn = TxnId(
            self.next_txn
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let keys = writes.iter().map(|(k, _)| k);
        let records = self.tree.write(self, keys, |fetch| {
            let mut ctx = MutCtx::new(&self.lsns, fetch);
            for (k, op) in writes {
                match op {
                    Some(v) => {
                        BTree::put(&mut ctx, k, v)?;
                    }
                    None => {
                        BTree::delete(&mut ctx, k)?;
                    }
                }
            }
            ctx.emit(PageId::CONTROL, RecordBody::TxnCommit { txn })?;
            self.install(std::mem::take(&mut ctx.pages));
            Ok(ctx.records)
        })?;
        self.ship(records)
    }

    /// The storage cluster (for failure injection in tests/benches).
    pub fn cluster(&self) -> &PageStoreCluster {
        &self.cluster
    }
}

/// A pool miss probes the slice's replicas, at the last LSN shipped to the
/// slice, until one is caught up.
impl PageSource for QuorumEngine {
    fn read_page(&self, id: PageId) -> Result<PageBuf> {
        let key = self.slice_of(id);
        let as_of = self.chain.lock().get(&key).copied().unwrap_or(Lsn::ZERO);
        let replicas = self.cluster.replicas_of(key);
        if replicas.is_empty() || !as_of.is_valid() {
            // Slice never shipped to storage: the page is brand new.
            return Ok(PageBuf::new());
        }
        let mut last_err = TaurusError::AllReplicasFailed(key);
        for node in replicas {
            match self.cluster.read_page_from(node, self.me, key, id, as_of) {
                Ok((buf, _)) => return Ok(buf),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// A dirty frame may go only once its slice's quorum write returned:
    /// a miss reads at the slice's shipped LSN, so a frame evicted above it
    /// would come back as the version before it. The shipped LSN is looked
    /// up once per slice per pool operation, as the master's guard does.
    fn evict_guard(&self) -> impl Fn(PageId, Lsn) -> bool + '_ {
        let shipped = std::cell::RefCell::new(HashMap::<SliceKey, Lsn>::new());
        move |page, lsn| {
            let key = self.slice_of(page);
            let mut shipped = shipped.borrow_mut();
            let chain = *shipped
                .entry(key)
                .or_insert_with(|| self.chain.lock().get(&key).copied().unwrap_or(Lsn::ZERO));
            lsn <= chain
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::{Clock, ManualClock};
    use taurus_common::config::NetworkProfile;

    fn engine(n: usize, w: usize) -> Arc<QuorumEngine> {
        let fabric = Fabric::new(ManualClock::shared(), NetworkProfile::instant(), 5);
        QuorumEngine::new(
            fabric,
            TaurusConfig::test(),
            StorageProfile::instant(),
            n,
            w,
        )
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip_via_quorum() {
        let e = engine(3, 2);
        e.apply(&[(b"k".to_vec(), Some(b"v".to_vec()))]).unwrap();
        assert_eq!(e.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn survives_n_minus_w_replica_failures() {
        let e = engine(3, 2);
        e.apply(&[(b"a".to_vec(), Some(b"1".to_vec()))]).unwrap();
        let key = SliceKey::new(DbId(1), PageId(1).slice(e.cfg.pages_per_slice));
        let victim = e.cluster.replicas_of(key)[0];
        e.cluster.fabric.set_down(victim);
        // One of three down: W=2 still reachable.
        e.apply(&[(b"b".to_vec(), Some(b"2".to_vec()))]).unwrap();
        assert_eq!(e.get(b"b").unwrap(), Some(b"2".to_vec()));
        // Two down: writes must fail (the availability gap Taurus closes).
        let replicas = e.cluster.replicas_of(key);
        e.cluster.fabric.set_down(replicas[1]);
        assert!(e.apply(&[(b"c".to_vec(), Some(b"3".to_vec()))]).is_err());
    }

    #[test]
    fn aurora_layout_uses_six_replicas() {
        let e = engine(6, 4);
        e.apply(&[(b"k".to_vec(), Some(b"v".to_vec()))]).unwrap();
        let key = SliceKey::new(DbId(1), PageId(1).slice(e.cfg.pages_per_slice));
        assert_eq!(e.cluster.replicas_of(key).len(), 6);
    }

    #[test]
    fn reads_fall_through_lagging_replicas() {
        let e = engine(3, 2);
        e.apply(&[(b"a".to_vec(), Some(b"1".to_vec()))]).unwrap();
        let key = SliceKey::new(DbId(1), PageId(1).slice(e.cfg.pages_per_slice));
        let victim = e.cluster.replicas_of(key)[0];
        e.cluster.fabric.set_down(victim);
        e.apply(&[(b"b".to_vec(), Some(b"2".to_vec()))]).unwrap();
        e.cluster.fabric.set_up(victim);
        // The recovered replica is behind; reads must still succeed.
        assert_eq!(e.get(b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn bulk_load_spans_pages() {
        let e = engine(3, 2);
        for i in 0..800u32 {
            e.apply(&[(format!("k{i:05}").into_bytes(), Some(vec![b'x'; 64]))])
                .unwrap();
        }
        for i in (0..800u32).step_by(97) {
            assert!(e.get(format!("k{i:05}").as_bytes()).unwrap().is_some());
        }
    }

    /// A manual clock that runs a hook inside the `n`-th wait of one thread.
    /// On the instant profiles every RPC is two waits on the calling thread
    /// (arrival, reply), so the hook lands at a chosen boundary of it.
    #[derive(Default)]
    struct HookClock {
        time: ManualClock,
        armed: Mutex<Option<HookArm>>,
    }

    struct HookArm {
        thread: std::thread::ThreadId,
        waits_left: usize,
        hook: Box<dyn FnOnce() + Send>,
    }

    impl std::fmt::Debug for HookClock {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "HookClock({})", self.time.now_us())
        }
    }

    impl HookClock {
        fn interpose(&self) {
            let due = {
                let mut armed = self.armed.lock();
                match armed.as_mut() {
                    Some(a) if a.thread == std::thread::current().id() => {
                        a.waits_left -= 1;
                        if a.waits_left == 0 {
                            armed.take()
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            };
            if let Some(arm) = due {
                (arm.hook)();
            }
        }
    }

    impl Clock for HookClock {
        fn now_us(&self) -> u64 {
            self.time.now_us()
        }

        fn sleep_us(&self, us: u64) {
            self.interpose();
            self.time.sleep_us(us);
        }

        fn sleep_until(&self, deadline_us: u64) {
            self.interpose();
            self.time.sleep_until(deadline_us);
        }
    }

    #[test]
    fn a_reader_inside_a_quorum_write_never_brings_back_the_version_before_it() {
        // A 4-frame pool over an 8-leaf table. A reader thread runs inside
        // the `n`-th wait of a commit — after its dirty leaf went into the
        // pool, before its W-th ack moved the slice's shipped LSN — and
        // misses on every other leaf, evicting whatever the guard lets go,
        // then reads the committed key. Had the dirty leaf gone, that read
        // would have installed the copy at the old shipped LSN, and every
        // read after the commit returned would see the value before it.
        let key = |i: u32| format!("k{i:05}").into_bytes();
        let val = |v: u8| Some(vec![v; 64]);
        for n in 1.. {
            let clock = Arc::new(HookClock::default());
            let fabric = Fabric::new(clock.clone(), NetworkProfile::instant(), 5);
            let cfg = TaurusConfig {
                engine_buffer_pool_pages: 4,
                ..TaurusConfig::test()
            };
            let e = QuorumEngine::new(fabric, cfg, StorageProfile::instant(), 3, 2).unwrap();
            for i in 0..800u32 {
                e.apply(&[(key(i), val(0))]).unwrap();
            }
            // Root and leaf resident: the commit itself fetches nothing.
            assert_eq!(e.get(&key(0)).unwrap(), val(0));
            let reader = Arc::clone(&e);
            *clock.armed.lock() = Some(HookArm {
                thread: std::thread::current().id(),
                waits_left: n,
                hook: Box::new(move || {
                    std::thread::spawn(move || {
                        for i in (50..800u32).step_by(50).chain([0]) {
                            reader.get(&key(i)).unwrap();
                        }
                    })
                    .join()
                    .unwrap();
                }),
            });
            e.apply(&[(key(0), val(1))]).unwrap();
            let fired = clock.armed.lock().take().is_none();
            assert_eq!(
                e.get(&key(0)).unwrap(),
                val(1),
                "a read at wait {n} of the commit brought back the old version"
            );
            if !fired {
                // Two quorum writes of two waits each at the least; fewer
                // means the clock no longer sees the RPCs.
                assert!(
                    n > 4,
                    "the commit made only {n} waits: the sweep is vacuous"
                );
                return;
            }
        }
    }
}
