//! Property-based tests of Log Store invariants: PLog content equality
//! across replicas under arbitrary failure schedules, stream rollover
//! correctness, and truncation safety.

use bytes::Bytes;
use proptest::prelude::*;

use taurus_common::clock::ManualClock;
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::batch::encode_batch;
use taurus_logstore::{LogStoreCluster, LogStream, PLogEntry};

mod common;
use common::{create_stream, read_back, reopen_stream};

fn setup(nodes: usize, plog_limit: usize) -> (LogStream, LogStoreCluster, NodeId) {
    let fabric = Fabric::new(ManualClock::shared(), NetworkProfile::instant(), 3);
    let me = fabric.add_node(NodeKind::Compute);
    let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
    cluster.spawn_servers(nodes, StorageProfile::instant());
    let stream = create_stream(&cluster, DbId(1), me, plog_limit);
    (stream, cluster, me)
}

fn group(first: u64, len: u64) -> (Bytes, Lsn, Lsn) {
    let records: Vec<LogRecord> = (first..first + len)
        .map(|l| {
            LogRecord::new(
                Lsn(l),
                PageId(l % 7),
                RecordBody::Format {
                    ty: PageType::Leaf,
                    level: 0,
                },
            )
        })
        .collect();
    let g = LogRecordGroup::new(DbId(1), records);
    let (lo, hi) = (Lsn(first), Lsn(first + len - 1));
    (encode_batch(&[g], Lsn(first - 1), lo, hi), lo, hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary schedule of single-node outages between appends,
    /// every append either succeeds durably or the whole run fails — and
    /// everything acknowledged is readable afterwards, in order, exactly
    /// once.
    #[test]
    fn acknowledged_groups_always_readable_in_order(
        group_sizes in prop::collection::vec(1u64..5, 1..25),
        outage_schedule in prop::collection::vec(any::<Option<bool>>(), 1..25),
        plog_limit in 256usize..4096,
    ) {
        let (stream, cluster, me) = setup(7, plog_limit);
        let mut next_lsn = 1u64;
        let mut acked: Vec<(Lsn, Lsn)> = Vec::new();
        for (i, &len) in group_sizes.iter().enumerate() {
            // Toggle one storage node per step according to the schedule.
            if let Some(Some(down)) = outage_schedule.get(i) {
                let all = cluster.fabric.all_nodes(NodeKind::LogStore);
                let victim = all[i % all.len()];
                if *down {
                    cluster.fabric.set_down(victim);
                } else {
                    cluster.fabric.set_up(victim);
                }
            }
            let (data, first, last) = group(next_lsn, len);
            if stream.append(i as u64, data, first, last).is_ok() {
                acked.push((first, last));
                next_lsn += len;
            } else {
                // Give up this iteration; with >=3 healthy of 7 this should
                // not happen (at most 1 down at a time in this schedule).
                break;
            }
        }
        // Restore everything and read back.
        for n in cluster.fabric.all_nodes(NodeKind::LogStore) {
            cluster.fabric.set_up(n);
        }
        let groups = read_back(&cluster, me, Lsn(1));
        prop_assert_eq!(groups.len(), acked.len());
        for (g, (first, last)) in groups.iter().zip(&acked) {
            prop_assert_eq!(g.first_lsn(), *first);
            prop_assert_eq!(g.end_lsn(), *last);
        }
    }

    /// Truncation never deletes a group at or above the cut point, and a
    /// reopened stream agrees with the survivor set.
    #[test]
    fn truncation_is_safe_and_survives_reopen(
        n_groups in 4u64..30,
        cut in 1u64..60,
        plog_limit in 200usize..1200,
    ) {
        let (stream, cluster, me) = setup(5, plog_limit);
        let mut next = 1u64;
        for t in 0..n_groups {
            let (data, first, last) = group(next, 2);
            stream.append(t, data, first, last).unwrap();
            next += 2;
        }
        let cut = Lsn(cut.min(next - 1));
        stream.truncate_below(cut).unwrap();
        // Every group ending at or after the cut must still be in a PLog
        // the writer kept.
        let expected: Vec<u64> = (0..n_groups)
            .map(|i| 1 + i * 2 + 1) // end lsn of group i
            .filter(|&end| Lsn(end) >= cut)
            .collect();
        let kept = stream.entries();
        for e in &expected {
            prop_assert!(
                kept.iter().any(|p| p.first_lsn <= Lsn(*e) && Lsn(*e) <= p.last_lsn),
                "group ending at {e} lost by the writer (cut {cut})"
            );
        }
        // Reopen from metadata after the writer is gone: the same PLogs as
        // the writer kept, and every survivor reads back.
        drop(stream);
        let reopened = reopen_stream(&cluster, DbId(1), me, plog_limit);
        let ranges = |s: &[PLogEntry]| -> Vec<_> {
            s.iter().map(|p| (p.id, p.first_lsn, p.last_lsn)).collect()
        };
        prop_assert_eq!(ranges(&kept), ranges(&reopened.entries()));
        let got: Vec<u64> = read_back(&cluster, me, Lsn(1))
            .iter()
            .map(|g| g.end_lsn().0)
            .collect();
        for e in &expected {
            prop_assert!(got.contains(e), "group ending at {e} lost on reopen (cut {cut})");
        }
    }

    /// All three replicas of every PLog hold byte-identical committed data.
    #[test]
    fn replicas_are_byte_identical(n_groups in 1u64..20, plog_limit in 200usize..2000) {
        let (stream, cluster, _) = setup(6, plog_limit);
        let mut next = 1u64;
        for t in 0..n_groups {
            let (data, first, last) = group(next, 3);
            stream.append(t, data, first, last).unwrap();
            next += 3;
        }
        for entry in stream.entries() {
            let replicas = cluster.replicas_of(entry.id);
            if replicas.is_empty() {
                continue;
            }
            let committed = cluster.committed_len(entry.id) as usize;
            let mut contents = Vec::new();
            for node in replicas {
                let server = cluster.server_handle(node).unwrap();
                let data = server.read_from(entry.id, 0).unwrap();
                contents.push(data.slice(0..committed.min(data.len())));
            }
            for w in contents.windows(2) {
                prop_assert_eq!(&w[0], &w[1], "replica divergence in {}", entry.id);
            }
        }
    }
}
