//! Quickstart: launch a Taurus cluster, write transactionally, read from the
//! master and from a read replica, watch the SAL's LSN machinery move.
//!
//! Run with: `cargo run --example quickstart`

use taurus::prelude::*;

fn main() -> Result<()> {
    // 6 Log Store nodes + 6 Page Store nodes on a real-time clock with the
    // default simulated network/device latency profiles.
    let db = TaurusDb::launch(TaurusConfig::default(), 6, 6)?;
    let guard = db.start_background(500); // consolidation + housekeeping
    let master = db.master();

    println!("== writes go through the master, durable on 3 Log Stores ==");
    let mut txn = master.begin();
    txn.put(b"user:1", b"ada lovelace")?;
    txn.put(b"user:2", b"grace hopper")?;
    txn.put(b"user:3", b"edsger dijkstra")?;
    let commit_lsn = txn.commit()?;
    println!("committed at {commit_lsn} (durable on three Log Stores)");

    println!("\n== reads: buffer pool first, Page Stores on a miss ==");
    for key in [b"user:1".as_slice(), b"user:2", b"user:9"] {
        let value = master.get(key)?;
        println!(
            "  {} -> {:?}",
            String::from_utf8_lossy(key),
            value.map(|v| String::from_utf8_lossy(&v).into_owned())
        );
    }

    println!("\n== range scans walk the B+tree leaf chain ==");
    for (k, v) in master.scan(b"user:", 10)? {
        println!(
            "  {} = {}",
            String::from_utf8_lossy(&k),
            String::from_utf8_lossy(&v)
        );
    }

    println!("\n== transactions: read-your-writes, conflicts, rollback ==");
    let mut t1 = master.begin();
    t1.put(b"balance", b"100")?;
    println!("  t1 sees its own write: {:?}", t1.get(b"balance")?);
    println!("  outside, it is invisible: {:?}", master.get(b"balance")?);
    let mut t2 = master.begin();
    match t2.put(b"balance", b"999") {
        Err(TaurusError::WriteConflict { .. }) => {
            println!("  t2 conflicts on the same key and aborts (first-updater-wins)")
        }
        other => println!("  unexpected: {other:?}"),
    }
    t2.rollback();
    t1.commit()?;

    println!("\n== a read replica tails the log from the Log Stores ==");
    let replica = db.add_replica()?;
    // Wait until every write is on the Page Stores and the replica has
    // polled up to the read horizon (the background thread drives it too).
    db.quiesce(db.fabric.clock.now_us() + 5_000_000)?;
    println!("  replica visible LSN: {}", replica.visible_lsn());
    println!(
        "  replica reads balance = {:?}",
        replica
            .get(b"balance")?
            .map(|v| String::from_utf8_lossy(&v).into_owned())
    );

    println!("\n== the SAL's watermark family (paper §3.5, §4.3) ==");
    println!(
        "  durable LSN (on Log Stores):        {}",
        master.sal.durable_lsn()
    );
    println!(
        "  cluster-visible LSN:                {}",
        master.sal.cv_lsn()
    );
    println!(
        "  database persistent LSN:            {}",
        master.sal.database_persistent_lsn()
    );
    println!(
        "  slices created:                     {}",
        master.sal.slice_keys().len()
    );

    drop(guard);
    println!("\ndone.");
    Ok(())
}
