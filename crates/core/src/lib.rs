//! # taurus-core
//!
//! The Storage Abstraction Layer (SAL) and recovery machinery — the primary
//! contribution of the Taurus paper (§3.5, §4, §5). The SAL is a library
//! linked into the database front end that hides the entire storage layer:
//!
//! * **Write path** (§4.1 / Fig. 3): log-record groups accumulate in the
//!   *database log buffer*; a flush writes the buffer durably to three Log
//!   Stores (all must ack — that is the commit point), then distributes the
//!   records into *per-slice buffers* which are shipped to the three Page
//!   Store replicas of each slice, **waiting for only one ack**. Durability
//!   comes from the Log Stores; Page Stores are eventually consistent and
//!   repaired by gossip and the SAL.
//! * **CV-LSN** (§3.5): every record at or below the cluster-visible LSN is
//!   durable on the Log Stores and on at least one Page Store replica. The
//!   paper advances it per database log buffer, tracking which per-slice
//!   buffers overlap each one; the SAL keeps it at slice granularity
//!   instead — the minimum acked LSN over the slices still owed an ack, or
//!   the durable LSN when none is. That is the same guarantee with no
//!   buffer-to-slice bookkeeping, and it is the read horizon the master
//!   publishes to read replicas.
//! * **Read path** (§4.2) and **scan pushdown** (NDP follow-on paper): one
//!   planner, [`slice_reader`], used by the master's SAL and by read
//!   replicas alike — versioned reads routed to the lowest-latency replica,
//!   falling through to the next replica when one is behind or down, with
//!   per-node coalescing of multi-slice plans and Log-Store-driven repair
//!   when all replicas miss data.
//! * **Log truncation** (§4.3): the *database persistent LSN* — the minimum
//!   persistent LSN across slice replicas that still miss records — gates
//!   PLog deletion, guaranteeing every record lives on three nodes somewhere
//!   at all times.
//! * **Slice writer** ([`slice_writer`]): the one way durable log records
//!   reach a slice replica — `ship` (a run of fragments to one node: one
//!   grouped envelope, sent once; a failed slot parks) and `redo` (one log
//!   read, each record homed to its slice by page arithmetic, one fragment
//!   per lagging replica) — behind the steady-state pipes, repair and
//!   restart redo alike; repair of the parked set is one pass on the thread
//!   of `Sal::tick` or the recovery round.
//! * **Recovery** (§5): persistent-LSN regression detection (Fig. 4b),
//!   stall detection (Fig. 4c), targeted gossip triggering, and full SAL
//!   restart recovery (§5.3) decide *what* is owed a resend; `redo` does it.

#![forbid(unsafe_code)]
// A panic in storage hot-path code is a node crash (§5): propagate
// `TaurusError` instead. Test code is exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod log_writer;
pub mod recovery;
pub mod sal;
pub mod slice_reader;
mod slice_writer;
mod stats;

pub use recovery::RecoveryService;
pub use sal::{NdpStats, NdpStatsSnapshot, Sal, SalStats, SalStatsSnapshot, SliceAcks};
pub use slice_reader::{FrontEnd, SliceReader, TableScan};
pub use slice_writer::SenderWatch;
