//! Read-replica fan-out: several replicas tail the shared log, serve
//! snapshot reads at their TV-LSNs, and one gets promoted to master —
//! the paper's §6 workflow end to end.
//!
//! Run with: `cargo run --example read_replicas`

use taurus::prelude::*;

fn main() -> Result<()> {
    let db = TaurusDb::launch(TaurusConfig::default(), 5, 6)?;
    let guard = db.start_background(300);
    let master = db.master();

    // Seed a small table.
    let mut t = master.begin();
    for i in 0..100u32 {
        t.put(
            format!("item:{i:03}").as_bytes(),
            format!("v{i}").as_bytes(),
        )?;
    }
    t.commit()?;

    println!("== adding three read replicas (no data copy: they just tail the log) ==");
    let replicas: Vec<_> = (0..3).map(|_| db.add_replica().unwrap()).collect();
    db.quiesce(db.fabric.clock.now_us() + 5_000_000)?;
    for r in &replicas {
        println!(
            "  replica {} visible LSN {} — item:050 = {:?}",
            r.id,
            r.visible_lsn(),
            r.get(b"item:050")?
                .map(|v| String::from_utf8_lossy(&v).into_owned())
        );
    }

    println!("\n== snapshot isolation on a replica (TV-LSN pinning) ==");
    let snap = replicas[0].begin();
    println!("  snapshot pinned at TV-LSN {}", snap.tv_lsn());
    let mut t = master.begin();
    t.put(b"item:050", b"UPDATED")?;
    t.commit()?;
    db.quiesce(db.fabric.clock.now_us() + 5_000_000)?;
    println!(
        "  pinned snapshot still reads: {:?}",
        snap.get(b"item:050")?
            .map(|v| String::from_utf8_lossy(&v).into_owned())
    );
    let fresh = replicas[0].begin();
    println!(
        "  fresh transaction reads:     {:?}",
        fresh
            .get(b"item:050")?
            .map(|v| String::from_utf8_lossy(&v).into_owned())
    );
    drop(snap);
    drop(fresh);

    println!("\n== replicas reject writes ==");
    match replicas[1].put(b"item:000", b"nope") {
        Err(TaurusError::ReadOnlyReplica) => println!("  write rejected, as it must be"),
        other => println!("  unexpected: {other:?}"),
    }

    println!("\n== failover: promote replica 0 to master ==");
    drop(guard); // quiesce background before the switch
    db.promote_replica(0)?;
    let new_master = db.master();
    println!(
        "  new master serves reads: item:050 = {:?}",
        new_master
            .get(b"item:050")?
            .map(|v| String::from_utf8_lossy(&v).into_owned())
    );
    let mut t = new_master.begin();
    t.put(b"item:100", b"written-after-failover")?;
    t.commit()?;
    println!("  and accepts writes: item:100 committed");
    println!(
        "  remaining replicas follow the new master: {}",
        db.replicas().len()
    );
    Ok(())
}
