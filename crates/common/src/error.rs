//! Error types shared across the Taurus stack.

use std::fmt;
use std::io;

use crate::ids::{NodeId, PLogId, PageId, SliceKey};
use crate::lsn::Lsn;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, TaurusError>;

/// Unified error type for all Taurus layers.
///
/// Several variants are *protocol signals* rather than faults — e.g.
/// [`TaurusError::PageStoreBehind`] tells the SAL to try the next Page Store
/// replica (paper §4.2), and [`TaurusError::PLogSealed`] tells a writer to
/// allocate a fresh PLog (paper §3.3).
#[derive(Debug)]
pub enum TaurusError {
    /// RPC target node is down or unreachable within the timeout.
    NodeUnavailable(NodeId),
    /// A write to a PLog failed because the PLog has been sealed; the caller
    /// must create a new PLog on a different set of Log Stores.
    PLogSealed(PLogId),
    /// A PLog id was not found on the contacted Log Store.
    PLogNotFound(PLogId),
    /// The Page Store replica has not yet received all log records up to the
    /// requested LSN and therefore cannot serve this versioned read.
    PageStoreBehind {
        slice: SliceKey,
        requested: Lsn,
        persistent: Lsn,
    },
    /// The requested page version has been purged (below the recycle LSN).
    VersionRecycled { page: PageId, requested: Lsn },
    /// The slice is unknown on the contacted Page Store.
    SliceNotFound(SliceKey),
    /// A `WriteLogs` reached a node the placement map no longer names as a
    /// replica of the slice: a rebuild (§5.2) replaced it while the caller
    /// still held the old replica list. The caller must refresh its
    /// placement view and re-send through the current replicas.
    NotAReplica { slice: SliceKey, node: NodeId },
    /// No replica of a slice could serve a request (all behind or down).
    AllReplicasFailed(SliceKey),
    /// Transaction aborted due to a write-write conflict.
    WriteConflict { page: PageId },
    /// A transaction handle was used after commit/abort.
    TxnFinished,
    /// The engine key was not found.
    KeyNotFound,
    /// A page-level structural invariant was violated (slot out of range,
    /// record too large for a page, corrupt header...).
    PageCorrupt(&'static str),
    /// Log record decode failure.
    Codec(&'static str),
    /// Underlying storage device / file error.
    Io(io::Error),
    /// The cluster manager could not find enough healthy hosts.
    InsufficientHealthyNodes { needed: usize, available: usize },
    /// Operation attempted on a read-only replica front end.
    ReadOnlyReplica,
    /// A replica's log-tail cursor fell behind truncation: records it had not
    /// yet consumed were deleted with their PLog, so resuming the tail read
    /// would silently skip them. The replica must resync its page state up to
    /// `truncated_through` (everything below it is persistent on all Page
    /// Store replicas) before reading the tail again.
    ReplicaBehindTruncation {
        consumed: Lsn,
        truncated_through: Lsn,
    },
    /// A B+tree traversal restricted to resident pages met one that is not
    /// in the engine pool. A signal inside the engine's tree-latch protocol
    /// (drop the latch, fetch the page, restart); it never reaches a caller.
    PageNotResident(PageId),
    /// A quiesce found the live replica `node` of `slice` at persistent LSN
    /// `at`, below the slice's flush LSN `target`, with nothing in flight
    /// that could bring it there: only a repair moves it now.
    ReplicaBehind {
        slice: SliceKey,
        node: NodeId,
        at: Lsn,
        target: Lsn,
    },
    /// A bounded wait reached its deadline; says what was still outstanding.
    DeadlinePassed(String),
    /// Catch-all for invariant violations with context.
    Internal(String),
}

impl fmt::Display for TaurusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TaurusError::*;
        match self {
            NodeUnavailable(n) => write!(f, "node {n} unavailable"),
            PLogSealed(id) => write!(f, "{id} is sealed"),
            PLogNotFound(id) => write!(f, "{id} not found"),
            PageStoreBehind {
                slice,
                requested,
                persistent,
            } => write!(
                f,
                "page store behind for {slice}: requested lsn {requested}, persistent {persistent}"
            ),
            VersionRecycled { page, requested } => {
                write!(f, "version {requested} of {page} has been recycled")
            }
            SliceNotFound(s) => write!(f, "slice {s} not found"),
            NotAReplica { slice, node } => {
                write!(f, "{node} is no longer a replica of {slice}")
            }
            AllReplicasFailed(s) => write!(f, "all replicas of {s} failed"),
            WriteConflict { page } => write!(f, "write-write conflict on {page}"),
            TxnFinished => write!(f, "transaction already finished"),
            KeyNotFound => write!(f, "key not found"),
            PageCorrupt(msg) => write!(f, "page corrupt: {msg}"),
            Codec(msg) => write!(f, "codec error: {msg}"),
            Io(e) => write!(f, "io error: {e}"),
            InsufficientHealthyNodes { needed, available } => write!(
                f,
                "insufficient healthy nodes: need {needed}, have {available}"
            ),
            ReadOnlyReplica => write!(f, "write attempted on a read-only replica"),
            ReplicaBehindTruncation {
                consumed,
                truncated_through,
            } => write!(
                f,
                "replica tail cursor behind truncation: consumed through lsn {consumed}, \
                 log truncated through {truncated_through}"
            ),
            PageNotResident(page) => write!(f, "{page} is not resident in the engine pool"),
            ReplicaBehind {
                slice,
                node,
                at,
                target,
            } => write!(
                f,
                "replica {node} of {slice} is at {at}, below its flush LSN {target}, with nothing in flight"
            ),
            DeadlinePassed(what) => write!(f, "deadline passed: {what}"),
            Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for TaurusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaurusError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TaurusError {
    fn from(e: io::Error) -> Self {
        TaurusError::Io(e)
    }
}

impl TaurusError {
    /// Whether the SAL should retry this error against another replica
    /// (transient/protocol errors) rather than surface it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TaurusError::NodeUnavailable(_)
                | TaurusError::PageStoreBehind { .. }
                | TaurusError::PLogSealed(_)
                | TaurusError::NotAReplica { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DbId;
    use crate::ids::SliceId;

    #[test]
    fn retryable_classification() {
        assert!(TaurusError::NodeUnavailable(NodeId(3)).is_retryable());
        assert!(TaurusError::PageStoreBehind {
            slice: SliceKey::new(DbId(1), SliceId(0)),
            requested: Lsn(10),
            persistent: Lsn(5),
        }
        .is_retryable());
        // A write to a rebuilt-away replica is retryable: the SAL refreshes
        // its view of the placement map and re-sends to the current nodes.
        assert!(TaurusError::NotAReplica {
            slice: SliceKey::new(DbId(1), SliceId(0)),
            node: NodeId(3),
        }
        .is_retryable());
        assert!(!TaurusError::KeyNotFound.is_retryable());
        assert!(!TaurusError::WriteConflict { page: PageId(1) }.is_retryable());
        // Not retryable: the replica must resync, not re-issue the read.
        assert!(!TaurusError::ReplicaBehindTruncation {
            consumed: Lsn(10),
            truncated_through: Lsn(20),
        }
        .is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = TaurusError::PageStoreBehind {
            slice: SliceKey::new(DbId(1), SliceId(2)),
            requested: Lsn(100),
            persistent: Lsn(40),
        };
        let s = e.to_string();
        assert!(s.contains("db:1/slice:2"));
        assert!(s.contains("100"));
        assert!(s.contains("40"));
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let e: TaurusError = io::Error::other("disk on fire").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
