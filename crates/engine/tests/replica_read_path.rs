//! Read replicas ride the shared read planner (`taurus_core::slice_reader`):
//! a replica's `get`, `scan` and `scan_pushdown` at a TV-LSN must return
//! exactly the database contents at that LSN — checked against a model of
//! the commit history and against the master's own answer — while a writer
//! keeps committing and after a Page Store node is killed mid-run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use taurus_common::clock::ManualClock;
use taurus_common::scan::ScanRequest;
use taurus_common::{Lsn, TaurusConfig};
use taurus_engine::replica::ReplicaTxn;
use taurus_engine::{MasterEngine, TaurusDb};

const ROWS: u32 = 900;

type Rows = Vec<(Vec<u8>, Vec<u8>)>;
/// Commit history: `(commit LSN, key, value)`, in commit order.
type History = Vec<(Lsn, Vec<u8>, Vec<u8>)>;

fn key(i: u32) -> Vec<u8> {
    format!("k{i:04}").into_bytes()
}

/// A page-filling value, so the table spans many 4-page slices.
fn value(tag: &str) -> Vec<u8> {
    format!("{tag:-<240}").into_bytes()
}

/// The deadline of a quiesce that starts now, on the deployment's clock
/// (a manual one moves only by modelled call costs: this bounds a drill).
fn deadline(db: &TaurusDb) -> u64 {
    db.fabric.clock.now_us() + 10_000_000
}

fn put(master: &Arc<MasterEngine>, history: &mut History, k: Vec<u8>, v: Vec<u8>) {
    let mut t = master.begin();
    t.put(&k, &v).unwrap();
    history.push((t.commit().unwrap(), k, v));
}

/// The table as of `lsn`: every commit at or below it, last writer wins.
fn model_at(history: &History, lsn: Lsn) -> Rows {
    let mut model = BTreeMap::new();
    for (_, k, v) in history.iter().filter(|(commit, _, _)| *commit <= lsn) {
        model.insert(k.clone(), v.clone());
    }
    model.into_iter().collect()
}

/// All three answers of one replica transaction.
fn read_all(txn: &ReplicaTxn) -> taurus_common::Result<(Rows, Rows)> {
    let local = txn.scan(b"", usize::MAX)?;
    let pushed = txn.scan_pushdown(&ScanRequest::full())?.rows;
    Ok((local, pushed))
}

#[test]
fn replica_reads_match_the_master_at_their_tv_lsn_under_writes_and_page_store_loss() {
    let cfg = TaurusConfig {
        pages_per_slice: 4, // spread the table across many slices
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 5, 6, ManualClock::shared(), 7).unwrap();
    let master = db.master();
    let mut history = History::new();
    // Two passes: the second touches every leaf's slice again, so the
    // replica's read horizon (the minimum per-slice acked LSN) moves past
    // the end of the first and the replica sees the whole table.
    for pass in ["load", "touch"] {
        for i in 0..ROWS {
            put(&master, &mut history, key(i), value(pass));
        }
    }
    // Quiesce: every record is on all three replicas of its slice, so
    // after the kill below any surviving replica can serve the pinned LSN.
    db.quiesce(deadline(&db)).unwrap();
    assert_eq!(
        master.sal.database_persistent_lsn(),
        master.sal.durable_lsn()
    );

    let replica = db.add_replica().unwrap();
    db.quiesce(deadline(&db)).unwrap();
    assert_eq!(replica.visible_lsn(), master.sal.cv_lsn());
    let pinned = replica.begin();
    let tv = pinned.tv_lsn();
    let expected = model_at(&history, tv);
    assert_eq!(
        expected.len(),
        ROWS as usize,
        "tv {tv} must cover the table"
    );
    // The master's own answer at that LSN.
    let at_master = master.sal.scan_pushdown(&ScanRequest::full(), tv).unwrap();
    assert_eq!(at_master.rows, expected);

    // A writer keeps overwriting the table for the rest of the test.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (master, stop) = (Arc::clone(&master), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut history = History::new();
            let mut n = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let v = value(&format!("w{n}"));
                put(&master, &mut history, key(n % ROWS), v);
                n += 1;
            }
            history
        })
    };

    // The victim is the first-choice replica of a leaf slice.
    let leaf_slice = *db.pages.slices().last().unwrap();
    let victim = db.pages.replicas_of(leaf_slice)[0];
    let mut fresh: Vec<(Lsn, Rows, Rows)> = Vec::new();
    for round in 0..6 {
        if round == 2 {
            db.fabric.set_down(victim);
        }
        db.maintain(); // the replica keeps tailing the log
        let (local, pushed) = read_all(&pinned).unwrap();
        assert_eq!(local, expected, "pinned scan, round {round}");
        assert_eq!(pushed, expected, "pinned pushdown, round {round}");
        for i in [0, ROWS / 2, ROWS - 1] {
            let (k, v) = &expected[i as usize];
            assert_eq!(pinned.get(k).unwrap().as_ref(), Some(v), "pinned get");
        }
        // A fresh transaction reads a moving TV-LSN; it is checked against
        // the full history once the writer has stopped. Right after the
        // kill a slice's newest fragment may have reached only the dead
        // node so far — a replica has no repair path, so such a read may be
        // refused until the SAL's other two sends land. It is never wrong.
        let txn = replica.begin();
        let answers = (0..2000).find_map(|_| read_all(&txn).ok());
        let (local, pushed) = answers.expect("fresh replica read never served");
        fresh.push((txn.tv_lsn(), local, pushed));
    }
    stop.store(true, Ordering::Relaxed);
    history.extend(writer.join().unwrap());
    assert!(replica.visible_lsn() > tv, "the replica must have moved on");
    for (tv, local, pushed) in &fresh {
        let expected = model_at(&history, *tv);
        assert_eq!(local, &expected, "fresh scan at {tv}");
        assert_eq!(pushed, &expected, "fresh pushdown at {tv}");
    }

    // The replica really rode the shared planner: multi-slice plans went out
    // as grouped envelopes, and the dead node cost it failed attempts.
    let stats = replica.reader.stats.snapshot();
    assert!(stats.grouped_envelopes > 0, "replica scans must coalesce");
    let failed_attempts = stats.read_retries
        + stats.grouped_fallback_slices
        + replica.reader.read_batch_stats.snapshot().batch_retries
        + replica.reader.ndp_stats.snapshot().slice_retries;
    assert!(failed_attempts > 0, "the killed node was never routed to");
}

#[test]
fn quiescent_replica_reaches_the_last_commit_without_further_writes() {
    let cfg = TaurusConfig {
        pages_per_slice: 4,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 5, 6, ManualClock::shared(), 7).unwrap();
    let master = db.master();
    let mut history = History::new();
    for i in 0..ROWS {
        put(&master, &mut history, key(i), value("load"));
    }
    assert!(db.pages.slices().len() > 4, "the table must span slices");
    // One more commit, to a single leaf — one slice — and then silence.
    put(&master, &mut history, key(ROWS / 2), value("last"));
    let last = history.last().unwrap().0;
    let replica = db.add_replica().unwrap();
    db.quiesce(deadline(&db)).unwrap();
    // Every other slice was last written (and acked) long before `last`:
    // they owe nothing, so they must not hold the replica below it.
    assert_eq!(replica.visible_lsn(), last);
    // And what the replica now exposes is servable: the whole table at the
    // last commit, quiet slices included.
    let txn = replica.begin();
    assert_eq!(txn.tv_lsn(), last);
    let (local, pushed) = read_all(&txn).unwrap();
    let expected = model_at(&history, last);
    assert_eq!(local, expected);
    assert_eq!(pushed, expected);
}

/// Every commit publishes, and so does every maintenance beat: publishers
/// race. A publisher that took its SAL snapshot early and stored it late
/// must not put an older per-slice map under a newer read horizon — a
/// replica would then read a slice below records its snapshot LSN covers,
/// and pool the stale page for good.
#[test]
fn racing_publishers_never_put_an_older_slice_map_under_a_newer_horizon() {
    let cfg = TaurusConfig {
        pages_per_slice: 4,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 5, 6, ManualClock::shared(), 7).unwrap();
    let master = db.master();
    let mut history = History::new();
    for i in 0..ROWS {
        put(&master, &mut history, key(i), value("load"));
    }
    let replica = db.add_replica().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // One committer (so `commit()` returns its own commit LSN, not a
    // group-commit neighbour's) walking the table — slices go quiet and
    // busy in turn — and two bare publishers racing its publishes.
    let committer = {
        let (master, stop) = (Arc::clone(&master), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut history = History::new();
            let mut n = 0u32;
            while !stop.load(Ordering::Relaxed) {
                put(
                    &master,
                    &mut history,
                    key(n % ROWS),
                    value(&format!("w{n}")),
                );
                n += 1;
            }
            history
        })
    };
    let publishers: Vec<_> = (0..2)
        .map(|_| {
            let (master, stop) = (Arc::clone(&master), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    master.publish();
                }
            })
        })
        .collect();

    // The replica's side of the board: a slice's acked LSN never goes back
    // (it is monotone at the SAL, and stores are in snapshot order), and
    // what the replica reads at its moving TV-LSN is the model's answer.
    let mut floor: std::collections::HashMap<_, Lsn> = Default::default();
    let mut fresh: Vec<(Lsn, Rows, Rows)> = Vec::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "the race runs real threads for a wall-clock 1.5 s"
    )]
    let began = std::time::Instant::now();
    let mut round = 0u32;
    while began.elapsed() < std::time::Duration::from_millis(1500) {
        for (k, a) in master.bulletin.slice_acked.read().iter() {
            let seen = floor.entry(*k).or_insert(Lsn::ZERO);
            assert!(*a >= *seen, "{k}: published acked LSN {a} after {seen}");
            *seen = *a;
        }
        round += 1;
        if round.is_multiple_of(64) {
            let _ = replica.poll();
            let txn = replica.begin();
            if let Ok((local, pushed)) = read_all(&txn) {
                fresh.push((txn.tv_lsn(), local, pushed));
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    history.extend(committer.join().unwrap());
    for p in publishers {
        p.join().unwrap();
    }
    assert!(
        fresh.len() > 2,
        "the replica must have read during the race"
    );
    for (tv, local, pushed) in &fresh {
        let expected = model_at(&history, *tv);
        assert_eq!(local, &expected, "scan at {tv}");
        assert_eq!(pushed, &expected, "pushdown at {tv}");
    }
}
