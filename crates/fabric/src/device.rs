//! Storage device model.
//!
//! Every storage-layer node persists bytes through a [`StorageDevice`],
//! which charges the configured per-I/O latency (`StorageProfile`) on top of
//! the actual data movement. The cost asymmetry — sequential appends being
//! 2–5× cheaper than random in-place writes on flash (paper §7, citing F2FS)
//! — is what lets the benchmarks reproduce the paper's append-only-wins
//! results with honest mechanics rather than hard-coded factors.
//!
//! Two backends: in memory (default; fast, deterministic) and a real temp
//! file (used by durability-oriented tests). The in-memory device keeps its
//! appends as they came, end to end; [`StorageDevice::append_shared`] keeps
//! a buffer the writer already holds rather than a copy, so one log
//! fragment persisted by three replicas is held once.
//!
//! **Device time is a deadline, not a spin.** While a fabric handler runs
//! (`run_handler`, entered by `Fabric::call` / `call_all`) its thread carries
//! a model-time *cursor* that starts at the request's arrival. A charge made
//! inside the handler still queues on the device's busy-until time, but
//! instead of blocking it moves the cursor to the I/O's completion; the
//! fabric adds the response hop to the cursor and the RPC's caller — who is
//! waiting for the reply anyway — waits out device time and hop in one
//! sleep. Outside a handler (background consolidation, direct server or
//! device calls) nobody else is waiting, so a charge blocks its own thread.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use taurus_common::clock::ClockRef;
use taurus_common::config::StorageProfile;
use taurus_common::{Result, TaurusError};

thread_local! {
    /// The fabric handler running on this thread: which clock it runs on
    /// (by address — a cursor means nothing on another clock) and the model
    /// time (µs) it has reached. `None` outside a handler.
    static HANDLER_CURSOR: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
}

fn clock_id(clock: &ClockRef) -> usize {
    std::sync::Arc::as_ptr(clock) as *const () as usize
}

/// The current handler's cursor, if this thread is inside one on `clock`.
fn cursor_on(clock: &ClockRef) -> Option<u64> {
    HANDLER_CURSOR
        .get()
        .and_then(|(id, at)| (id == clock_id(clock)).then_some(at))
}

/// This thread's model time on `clock`: the clock's reading, or — inside a
/// handler that has issued device I/O — the later time that I/O completes.
pub(crate) fn model_now(clock: &ClockRef) -> u64 {
    clock.now_us().max(cursor_on(clock).unwrap_or(0))
}

/// Runs `f` as the handler of a request that arrived at `arrived_at` on
/// `clock`. Device charges inside `f` advance a cursor instead of blocking;
/// returns `f`'s output and the model time at which the handler is done (no
/// earlier than the clock reads now: handler CPU time is real). The
/// enclosing handler's cursor, if any, is restored on the way out — also
/// when `f` unwinds.
pub(crate) fn run_handler<T>(clock: &ClockRef, arrived_at: u64, f: impl FnOnce() -> T) -> (T, u64) {
    struct Restore(Option<(usize, u64)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            HANDLER_CURSOR.set(self.0);
        }
    }
    let _outer = Restore(HANDLER_CURSOR.replace(Some((clock_id(clock), arrived_at))));
    let out = f();
    (out, model_now(clock))
}

enum Backend {
    Memory(Chunks),
    File { file: File, path: PathBuf, len: u64 },
}

/// One append of the in-memory device: bytes it copied, or an immutable
/// buffer its writer handed over and may still share.
enum Chunk {
    Copied(Vec<u8>),
    Shared(Box<dyn AsRef<[u8]> + Send + Sync>),
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Copied(v) => v,
            Chunk::Shared(b) => (**b).as_ref(),
        }
    }
}

/// The in-memory device's bytes: its appends laid end to end, each kept as
/// it arrived. No appended byte is ever reallocated or moved, and a buffer
/// several devices persist (one log fragment on three Page Store replicas)
/// is held once, however many of them append it.
#[derive(Default)]
struct Chunks {
    /// `(offset, chunk)`, in offset order, none empty.
    chunks: Vec<(u64, Chunk)>,
    len: u64,
}

impl Chunks {
    fn push(&mut self, chunk: Chunk) -> u64 {
        let offset = self.len;
        let len = chunk.bytes().len() as u64;
        if len > 0 {
            self.chunks.push((offset, chunk));
            self.len += len;
        }
        offset
    }

    /// Index of the chunk holding `offset` (`offset < self.len`).
    fn find(&self, offset: u64) -> usize {
        self.chunks
            .partition_point(|(start, _)| *start <= offset)
            .saturating_sub(1)
    }

    fn read(&self, offset: u64, len: usize) -> Option<Vec<u8>> {
        if offset.checked_add(len as u64)? > self.len {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for (start, chunk) in &self.chunks[self.find(offset)..] {
            if out.len() == len {
                break;
            }
            let bytes = chunk.bytes();
            let from = (offset + out.len() as u64 - start) as usize;
            let take = (bytes.len() - from).min(len - out.len());
            out.extend_from_slice(&bytes[from..from + take]);
        }
        Some(out)
    }

    /// Overwrites bytes at `offset`, zero-extending the device first if
    /// they reach past its end; a shared chunk written into becomes this
    /// device's own copy.
    fn write_at(&mut self, offset: u64, data: &[u8]) {
        let end = offset + data.len() as u64;
        if end > self.len {
            self.push(Chunk::Copied(vec![0; (end - self.len) as usize]));
        }
        let mut done = 0;
        let first = self.find(offset);
        for (start, chunk) in &mut self.chunks[first..] {
            if done == data.len() {
                break;
            }
            if let Chunk::Shared(b) = chunk {
                *chunk = Chunk::Copied((**b).as_ref().to_vec());
            }
            if let Chunk::Copied(v) = chunk {
                let from = (offset + done as u64 - *start) as usize;
                let take = (v.len() - from).min(data.len() - done);
                v[from..from + take].copy_from_slice(&data[done..done + take]);
                done += take;
            }
        }
    }
}

/// An append-friendly block device with charged I/O latency. I/O time is
/// **serialized per device** (a busy-until queue): concurrent requests wait
/// behind each other, so device bandwidth — not just latency — shapes
/// throughput, as on real hardware.
pub struct StorageDevice {
    clock: ClockRef,
    profile: StorageProfile,
    busy_until_us: Mutex<u64>,
    backend: Mutex<Backend>,
    appended_bytes: AtomicU64,
    append_ios: AtomicU64,
    random_write_ios: AtomicU64,
    read_ios: AtomicU64,
}

impl std::fmt::Debug for StorageDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageDevice")
            .field("len", &self.len())
            .field("append_ios", &self.append_ios.load(Ordering::Relaxed))
            .field(
                "random_write_ios",
                &self.random_write_ios.load(Ordering::Relaxed),
            )
            .field("read_ios", &self.read_ios.load(Ordering::Relaxed))
            .finish()
    }
}

impl StorageDevice {
    /// Charges `us` of device time: the request queues behind in-flight
    /// I/O, then occupies the device for `us`. Inside a fabric handler the
    /// completion time goes to the handler's cursor (the RPC's caller waits
    /// it out with the reply); anywhere else this thread blocks until then.
    fn charge(&self, us: u64) {
        if us == 0 {
            return;
        }
        let cursor = cursor_on(&self.clock);
        let now = self.clock.now_us().max(cursor.unwrap_or(0));
        let done = {
            let mut busy = self.busy_until_us.lock();
            let start = (*busy).max(now);
            *busy = start + us;
            *busy
        };
        match cursor {
            Some(_) => HANDLER_CURSOR.set(Some((clock_id(&self.clock), done))),
            None => self.clock.sleep_us(done - now),
        }
    }

    /// In-memory device (the default for simulations).
    pub fn in_memory(clock: ClockRef, profile: StorageProfile) -> Self {
        StorageDevice {
            clock,
            profile,
            busy_until_us: Mutex::new(0),
            backend: Mutex::new(Backend::Memory(Chunks::default())),
            appended_bytes: AtomicU64::new(0),
            append_ios: AtomicU64::new(0),
            random_write_ios: AtomicU64::new(0),
            read_ios: AtomicU64::new(0),
        }
    }

    /// File-backed device in the system temp directory. The file is removed
    /// on drop.
    pub fn in_temp_file(clock: ClockRef, profile: StorageProfile, tag: &str) -> Result<Self> {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "taurus-dev-{}-{}-{}.bin",
            std::process::id(),
            tag,
            n
        ));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        Ok(StorageDevice {
            clock,
            profile,
            busy_until_us: Mutex::new(0),
            backend: Mutex::new(Backend::File { file, path, len: 0 }),
            appended_bytes: AtomicU64::new(0),
            append_ios: AtomicU64::new(0),
            random_write_ios: AtomicU64::new(0),
            read_ios: AtomicU64::new(0),
        })
    }

    /// Appends `data`, returning the offset it was written at. Charged as
    /// one sequential-append I/O.
    pub fn append(&self, data: &[u8]) -> Result<u64> {
        self.append_chunk(Chunk::Copied(data.to_vec()))
    }

    /// Appends `parts` back to back as one blob — the bytes `append` of
    /// their concatenation writes — and returns the blob's offset. Charged
    /// as one sequential-append I/O.
    pub fn append_parts(&self, parts: &[&[u8]]) -> Result<u64> {
        self.append_chunk(Chunk::Copied(parts.concat()))
    }

    /// Appends an immutable buffer its writer already holds: the bytes
    /// `append` of `data` writes, charged the same, but the in-memory
    /// device keeps `data` itself rather than a copy. A buffer several
    /// devices persist (a `Bytes` cloned to each replica) is then held once
    /// and copied by none of them.
    pub fn append_shared<B>(&self, data: B) -> Result<u64>
    where
        B: AsRef<[u8]> + Send + Sync + 'static,
    {
        self.append_chunk(Chunk::Shared(Box::new(data)))
    }

    fn append_chunk(&self, chunk: Chunk) -> Result<u64> {
        let data = chunk.bytes();
        self.charge(self.profile.append_us);
        self.append_ios.fetch_add(1, Ordering::Relaxed);
        self.appended_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut backend = self.backend.lock();
        match &mut *backend {
            Backend::Memory(chunks) => Ok(chunks.push(chunk)),
            Backend::File { file, len, .. } => {
                file.seek(SeekFrom::End(0))?;
                file.write_all(data)?;
                let off = *len;
                *len += data.len() as u64;
                Ok(off)
            }
        }
    }

    /// Overwrites bytes at `offset`. Charged as one random-write I/O (the
    /// expensive kind; Taurus Page Stores never do this, baselines do).
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.charge(self.profile.random_write_us);
        self.random_write_ios.fetch_add(1, Ordering::Relaxed);
        let mut backend = self.backend.lock();
        match &mut *backend {
            Backend::Memory(chunks) => {
                chunks.write_at(offset, data);
                Ok(())
            }
            Backend::File { file, len, .. } => {
                file.seek(SeekFrom::Start(offset))?;
                file.write_all(data)?;
                *len = (*len).max(offset + data.len() as u64);
                Ok(())
            }
        }
    }

    /// Reads `len` bytes at `offset`. Charged as one random-read I/O.
    pub fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.charge(self.profile.read_us);
        self.read_ios.fetch_add(1, Ordering::Relaxed);
        let past_end = || {
            TaurusError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "read past end of device",
            ))
        };
        let mut backend = self.backend.lock();
        match &mut *backend {
            Backend::Memory(chunks) => chunks.read(offset, len).ok_or_else(past_end),
            Backend::File {
                file, len: flen, ..
            } => {
                if offset + len as u64 > *flen {
                    return Err(past_end());
                }
                file.seek(SeekFrom::Start(offset))?;
                let mut out = vec![0u8; len];
                file.read_exact(&mut out)?;
                Ok(out)
            }
        }
    }

    /// Current device length in bytes.
    pub fn len(&self) -> u64 {
        match &*self.backend.lock() {
            Backend::Memory(chunks) => chunks.len,
            Backend::File { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// I/O statistics: (append ios, random-write ios, read ios, appended bytes).
    pub fn io_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.append_ios.load(Ordering::Relaxed),
            self.random_write_ios.load(Ordering::Relaxed),
            self.read_ios.load(Ordering::Relaxed),
            self.appended_bytes.load(Ordering::Relaxed),
        )
    }
}

impl Drop for StorageDevice {
    fn drop(&mut self) {
        if let Backend::File { path, .. } = &*self.backend.lock() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use taurus_common::clock::{Clock, ManualClock};

    fn mem_dev(profile: StorageProfile) -> (StorageDevice, Arc<ManualClock>) {
        let clock = ManualClock::shared();
        (StorageDevice::in_memory(clock.clone(), profile), clock)
    }

    #[test]
    fn append_read_roundtrip() {
        let (dev, _) = mem_dev(StorageProfile::instant());
        let a = dev.append(b"hello").unwrap();
        let b = dev.append(b"world").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 5);
        assert_eq!(dev.read(0, 5).unwrap(), b"hello");
        assert_eq!(dev.read(5, 5).unwrap(), b"world");
        assert_eq!(dev.len(), 10);
    }

    #[test]
    fn write_at_overwrites() {
        let (dev, _) = mem_dev(StorageProfile::instant());
        dev.append(b"aaaaaa").unwrap();
        dev.write_at(2, b"XX").unwrap();
        assert_eq!(dev.read(0, 6).unwrap(), b"aaXXaa");
    }

    #[test]
    fn read_past_end_is_an_error() {
        let (dev, _) = mem_dev(StorageProfile::instant());
        dev.append(b"abc").unwrap();
        assert!(dev.read(0, 4).is_err());
        assert!(dev.read(10, 1).is_err());
    }

    #[test]
    fn latency_charges_match_profile() {
        let profile = StorageProfile {
            append_us: 10,
            random_write_us: 35,
            read_us: 60,
        };
        let (dev, clock) = mem_dev(profile);
        dev.append(b"x").unwrap();
        assert_eq!(clock.now_us(), 10);
        dev.write_at(0, b"y").unwrap();
        assert_eq!(clock.now_us(), 45);
        dev.read(0, 1).unwrap();
        assert_eq!(clock.now_us(), 105);
    }

    #[test]
    fn a_handlers_charges_move_its_cursor_and_block_nobody() {
        let profile = StorageProfile {
            append_us: 20,
            random_write_us: 70,
            read_us: 60,
        };
        let (dev, clock) = mem_dev(profile);
        let fabric_clock: ClockRef = clock.clone();
        clock.set(1_000);
        let ((), done_at) = run_handler(&fabric_clock, 1_000, || {
            dev.append(b"x").unwrap();
            assert_eq!(model_now(&fabric_clock), 1_020);
            // A nested handler (this one made an RPC of its own) has its own
            // cursor; ours is back when it returns.
            let ((), inner_done) = run_handler(&fabric_clock, 1_500, || {
                dev.read(0, 1).unwrap();
            });
            assert_eq!(inner_done, 1_560);
            assert_eq!(model_now(&fabric_clock), 1_020);
            // The device is one queue whoever charges it: busy until 1 560.
            dev.append(b"y").unwrap();
        });
        assert_eq!(done_at, 1_580);
        assert_eq!(clock.now_us(), 1_000, "no charge blocked the handler");
        // Outside a handler a charge blocks for its queue wait and its time.
        dev.append(b"z").unwrap();
        assert_eq!(clock.now_us(), 1_600);
        // A cursor means nothing on another clock: a device that keeps its
        // own time blocks on it even inside a handler.
        let (other, other_clock) = mem_dev(profile);
        let ((), done_at) = run_handler(&fabric_clock, 1_600, || {
            other.append(b"x").unwrap();
        });
        assert_eq!((done_at, other_clock.now_us()), (1_600, 20));
    }

    #[test]
    fn io_stats_are_tracked() {
        let (dev, _) = mem_dev(StorageProfile::instant());
        dev.append(b"abcd").unwrap();
        // Parts land back to back, as one append I/O of their bytes.
        assert_eq!(dev.append_parts(&[b"e", b"", b"f"]).unwrap(), 4);
        dev.write_at(0, b"z").unwrap();
        assert_eq!(dev.read(0, 6).unwrap(), b"zbcdef");
        assert_eq!(dev.io_stats(), (2, 1, 1, 6));
    }

    /// A shared append keeps the writer's buffer: two devices persisting
    /// one buffer hold it once and copy nothing, reads cross chunk
    /// boundaries, and a write into a shared chunk changes that device only.
    #[test]
    fn a_shared_append_keeps_the_writers_buffer_and_writes_copy_on_write() {
        let (a, _) = mem_dev(StorageProfile::instant());
        let (b, _) = mem_dev(StorageProfile::instant());
        let shared: Arc<[u8]> = Arc::from(&b"fragment"[..]);
        a.append(b"<<").unwrap();
        assert_eq!(a.append_shared(Arc::clone(&shared)).unwrap(), 2);
        a.append(b">>").unwrap();
        assert_eq!(b.append_shared(Arc::clone(&shared)).unwrap(), 0);
        assert_eq!(Arc::strong_count(&shared), 3, "held, not copied");
        assert_eq!(a.read(0, 12).unwrap(), b"<<fragment>>");
        assert_eq!(a.read(1, 10).unwrap(), b"<fragment>");
        assert_eq!(a.io_stats(), (3, 0, 2, 12));
        // A write spanning the shared chunk and past the device's end.
        a.write_at(9, b"T>>!!").unwrap();
        assert_eq!(a.read(0, 14).unwrap(), b"<<fragmenT>>!!");
        assert_eq!(Arc::strong_count(&shared), 2);
        assert_eq!(b.read(0, 8).unwrap(), b"fragment");
        assert!(a.read(10, 5).is_err());
    }

    #[test]
    fn file_backend_roundtrip_and_cleanup() {
        let clock = ManualClock::shared();
        let dev = StorageDevice::in_temp_file(clock, StorageProfile::instant(), "test").unwrap();
        dev.append(b"persist").unwrap();
        assert_eq!(dev.append_parts(&[b" ", b"me"]).unwrap(), 7);
        assert_eq!(dev.append_shared(Arc::<[u8]>::from(&b"!"[..])).unwrap(), 10);
        dev.write_at(0, b"P").unwrap();
        assert_eq!(dev.read(0, 11).unwrap(), b"Persist me!");
        let path = match &*dev.backend.lock() {
            Backend::File { path, .. } => path.clone(),
            _ => unreachable!(),
        };
        assert!(path.exists());
        drop(dev);
        assert!(!path.exists());
    }
}
