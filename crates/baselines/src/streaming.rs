//! The rejected replica design: the master streams all log data to every
//! read replica through its own NIC (paper §6).
//!
//! "With write-intensive workloads generating 100 MB/s of log records and 15
//! read replicas, the master would need to send over 12 Gbps of data just to
//! read replicas." This simulator reproduces the bottleneck: the master's
//! outbound NIC is a serialization queue (`Fabric::charge_bandwidth`), so
//! replica lag grows with write rate × replica count, while Taurus replicas
//! read from the Log Stores and keep the master NIC out of the path.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use taurus_common::clock::ClockRef;
use taurus_common::lsn::LsnWatermark;
use taurus_common::{Lsn, NodeId};
use taurus_fabric::{Fabric, NodeKind};

/// One simulated log shipment.
struct Shipment {
    end_lsn: Lsn,
    /// When the master handed the bytes to the NIC (µs).
    sent_at_us: u64,
}

/// A master-streaming replication simulator: call
/// [`StreamingReplicaSim::master_write`] for every committed group; replicas
/// apply asynchronously and expose their visible LSN.
pub struct StreamingReplicaSim {
    fabric: Fabric,
    clock: ClockRef,
    master: NodeId,
    senders: Vec<Sender<Shipment>>,
    pub replicas: Vec<Arc<StreamingReplica>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// One streaming replica's receive side.
pub struct StreamingReplica {
    pub visible_lsn: LsnWatermark,
    /// Total µs of lag accumulated (sum over shipments), for averaging.
    pub lag_sum_us: std::sync::atomic::AtomicU64,
    pub shipments: std::sync::atomic::AtomicU64,
}

impl StreamingReplicaSim {
    /// `nic_bytes_per_sec` caps the master's outbound bandwidth; the paper's
    /// scenario uses ~1.25 GB/s (10 Gbps) against 15 replicas × 100 MB/s.
    pub fn new(fabric: Fabric, replica_count: usize) -> Self {
        let clock = fabric.clock.clone();
        let master = fabric.add_node(NodeKind::Compute);
        let mut senders = Vec::new();
        let mut replicas = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..replica_count {
            let (tx, rx): (Sender<Shipment>, Receiver<Shipment>) = unbounded();
            let replica = Arc::new(StreamingReplica {
                visible_lsn: LsnWatermark::new(Lsn::ZERO),
                lag_sum_us: std::sync::atomic::AtomicU64::new(0),
                shipments: std::sync::atomic::AtomicU64::new(0),
            });
            let r = Arc::clone(&replica);
            let clock2 = clock.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok(shipment) = rx.recv() {
                    // Apply instantly on receipt; the lag is dominated by
                    // the NIC serialization delay the master already paid.
                    let now = clock2.now_us();
                    r.visible_lsn.advance(shipment.end_lsn);
                    r.lag_sum_us.fetch_add(
                        now.saturating_sub(shipment.sent_at_us),
                        std::sync::atomic::Ordering::Relaxed,
                    );
                    r.shipments
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }));
            senders.push(tx);
            replicas.push(replica);
        }
        StreamingReplicaSim {
            fabric,
            clock,
            master,
            senders,
            replicas,
            handles,
        }
    }

    /// The master commits a group of `bytes` log data ending at `end_lsn`
    /// and streams it to every replica through its NIC. Returns after the
    /// NIC accepted all copies (the master thread pays the serialization
    /// delay, exactly the bottleneck the paper describes).
    pub fn master_write(&self, end_lsn: Lsn, bytes: usize) {
        let sent_at_us = self.clock.now_us();
        for tx in &self.senders {
            // Each replica copy occupies the NIC separately.
            self.fabric.charge_bandwidth(self.master, bytes);
            let _ = tx.send(Shipment {
                end_lsn,
                sent_at_us,
            });
        }
    }

    /// Mean replica lag in µs across all shipments and replicas.
    pub fn mean_lag_us(&self) -> f64 {
        let mut sum = 0u64;
        let mut n = 0u64;
        for r in &self.replicas {
            sum += r.lag_sum_us.load(std::sync::atomic::Ordering::Relaxed);
            n += r.shipments.load(std::sync::atomic::Ordering::Relaxed);
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Stops the receive threads.
    pub fn shutdown(mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::{Clock, ManualClock};
    use taurus_common::config::NetworkProfile;

    #[test]
    fn nic_serialization_charges_grow_with_replica_count() {
        let clock = ManualClock::shared();
        let profile = NetworkProfile {
            hop_us: 0,
            jitter_us: 0,
            master_nic_bytes_per_sec: 1_000_000, // 1 µs per byte
        };
        let fabric = Fabric::new(clock.clone(), profile, 1);
        let sim = StreamingReplicaSim::new(fabric, 4);
        let before = clock.now_us();
        sim.master_write(Lsn(10), 250);
        // 4 replicas × 250 bytes at 1 µs/byte = 1000 µs of master NIC time.
        assert_eq!(clock.now_us() - before, 1000);
        sim.shutdown();
    }

    #[test]
    fn replicas_eventually_see_the_lsn() {
        let fabric = Fabric::new(ManualClock::shared(), NetworkProfile::instant(), 1);
        let sim = StreamingReplicaSim::new(fabric, 2);
        sim.master_write(Lsn(42), 100);
        for _ in 0..200 {
            if sim.replicas.iter().all(|r| r.visible_lsn.get() == Lsn(42)) {
                break;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "the simulated receivers are threads that signal nothing when they apply"
            )]
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert!(sim.replicas.iter().all(|r| r.visible_lsn.get() == Lsn(42)));
        sim.shutdown();
    }
}
