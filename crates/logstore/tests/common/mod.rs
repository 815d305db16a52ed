//! Helpers shared by the logstore suites that drive a bare [`LogStream`].

use std::sync::Arc;

use taurus_common::metrics::LogStoreStats;
use taurus_common::record::LogRecordGroup;
use taurus_common::{DbId, Lsn, NodeId, TaurusConfig};
use taurus_logstore::{Log, LogStoreCluster, LogStream};

/// One stream on its own (stream 0, not part of a multi-stream log), with
/// the append window `window`.
pub fn create_stream(
    cluster: &LogStoreCluster,
    db: DbId,
    me: NodeId,
    plog_limit: usize,
    window: usize,
) -> LogStream {
    let stats = Arc::new(LogStoreStats::default());
    LogStream::create_stream(cluster.clone(), db, me, plog_limit, window, 0, false, stats).unwrap()
}

/// Reopens stream 0 of `db` from its metadata PLog, as a restart does.
#[allow(dead_code, reason = "not every suite reopens")]
pub fn reopen_stream(
    cluster: &LogStoreCluster,
    db: DbId,
    me: NodeId,
    plog_limit: usize,
    window: usize,
) -> LogStream {
    let stats = Arc::new(LogStoreStats::default());
    LogStream::open_stream(cluster.clone(), db, me, plog_limit, window, 0, false, stats).unwrap()
}

/// Reads database 1's log back as a reader does: a one-stream [`Log`]
/// opened over the stream the test wrote.
#[allow(dead_code, reason = "not every suite reads the log back")]
pub fn read_back(cluster: &LogStoreCluster, me: NodeId, from: Lsn) -> Vec<LogRecordGroup> {
    let cfg = TaurusConfig {
        log_streams: 1,
        ..TaurusConfig::test()
    };
    let log = Log::open(&cfg, cluster.clone(), DbId(1), me, false).unwrap();
    log.read_from(from).unwrap()
}
