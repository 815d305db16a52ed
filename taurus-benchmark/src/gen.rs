//! Seeded input generation: the dataset and each connection's transaction
//! stream are functions of `--seed` and this file alone (own PRNG, own
//! SysBench shapes), so a change elsewhere in the repo cannot move the
//! benchmark's inputs.

use crate::spec::{Mix, MIXED_READ_SHARE, POINT_SELECTS, ROW_BYTES};

/// splitmix64: tiny, seedable, and good enough for uniform row picks.
#[derive(Clone, Debug)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Rng {
    /// Independent stream `stream` of seed `seed`. A splitmix64 state walks
    /// the lattice `start + n * GOLDEN`, so two streams whose starts differ
    /// by a small multiple of `GOLDEN` are one sequence read at an offset:
    /// two connections would then ask for the same rows a step apart and
    /// serve each other's misses. Hashing seed and stream into the start
    /// puts every stream at an unrelated point of the lattice.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(
            mix(seed.wrapping_add(GOLDEN)) ^ stream.wrapping_mul(GOLDEN)
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2^-40.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A SysBench-style printable row payload.
    pub fn row_value(&mut self) -> Vec<u8> {
        let mut v = Vec::with_capacity(ROW_BYTES);
        while v.len() < ROW_BYTES {
            for b in self.next_u64().to_le_bytes() {
                v.push(b'a' + b % 26);
            }
        }
        v.truncate(ROW_BYTES);
        v
    }
}

/// Stream ids below `FIRST_CONN_STREAM` are reserved; connection `i` draws
/// from stream `FIRST_CONN_STREAM + i`.
pub const DATASET_STREAM: u64 = 0;
/// Seeds the fabric's own RNG (replica placement, hop jitter).
pub const FABRIC_STREAM: u64 = 1;
pub const LADDER_STREAM: u64 = 2;
pub const NUDGE_STREAM: u64 = 3;
pub const FIRST_CONN_STREAM: u64 = 16;

/// The seeded initial table: fixed-width sorted keys and their payloads.
pub struct Dataset {
    pub keys: Vec<Vec<u8>>,
    pub values: Vec<Vec<u8>>,
}

impl Dataset {
    pub fn generate(seed: u64, rows: u64) -> Self {
        let mut rng = Rng::new(seed, DATASET_STREAM);
        Dataset {
            keys: (0..rows)
                .map(|r| format!("sb{r:012}").into_bytes())
                .collect(),
            values: (0..rows).map(|_| rng.row_value()).collect(),
        }
    }

    pub fn rows(&self) -> u64 {
        self.keys.len() as u64
    }
}

/// One generated transaction, as row numbers into the [`Dataset`].
#[derive(Clone, Debug)]
pub enum TxnInput {
    /// SysBench `oltp_read_only` minus the aggregates: point selects plus
    /// one range query.
    Read {
        gets: [u32; POINT_SELECTS],
        scan_start: u32,
    },
    /// SysBench `oltp_write_only`: index update, non-index update, and a
    /// delete + insert of one row.
    Write {
        updates: [(u32, Vec<u8>); 2],
        reinsert: (u32, Vec<u8>),
    },
}

#[cfg(test)]
impl TxnInput {
    pub fn is_write(&self) -> bool {
        matches!(self, TxnInput::Write { .. })
    }
}

pub fn next_txn(rng: &mut Rng, mix: Mix, rows: u64) -> TxnInput {
    let read = match mix {
        Mix::ReadOnly => true,
        Mix::WriteOnly => false,
        Mix::Mixed => rng.unit() < MIXED_READ_SHARE,
    };
    let row = |rng: &mut Rng| rng.below(rows) as u32;
    if read {
        let mut gets = [0u32; POINT_SELECTS];
        for g in &mut gets {
            *g = row(rng);
        }
        TxnInput::Read {
            gets,
            scan_start: row(rng),
        }
    } else {
        let a = (row(rng), rng.row_value());
        let b = (row(rng), rng.row_value());
        TxnInput::Write {
            updates: [a, b],
            reinsert: (row(rng), rng.row_value()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..50)
                .map(|_| format!("{:?}", next_txn(&mut r, Mix::Mixed, 40_000)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 16), draw(7, 16));
        assert_ne!(draw(7, 16), draw(7, 17));
        assert_ne!(draw(7, 16), draw(8, 16));
    }

    /// The two connections of one run must not replay each other's rows.
    #[test]
    fn streams_of_one_seed_do_not_overlap() {
        for seed in 0..64 {
            let a: Vec<u64> = {
                let mut r = Rng::new(seed, FIRST_CONN_STREAM);
                (0..200).map(|_| r.below(40_000)).collect()
            };
            let mut r = Rng::new(seed, FIRST_CONN_STREAM + 1);
            let b: Vec<u64> = (0..200).map(|_| r.below(40_000)).collect();
            for shift in 0..8 {
                let same = a.iter().zip(&b[shift..]).filter(|(x, y)| x == y).count()
                    + b.iter().zip(&a[shift..]).filter(|(x, y)| x == y).count();
                assert!(same < 5, "seed {seed}: streams align at shift {shift}");
            }
        }
    }

    #[test]
    fn dataset_is_sorted_fixed_width_and_seeded() {
        let d = Dataset::generate(3, 1_000);
        assert_eq!(d.rows(), 1_000);
        assert!(d.keys.windows(2).all(|w| w[0] < w[1]));
        assert!(d.values.iter().all(|v| v.len() == ROW_BYTES));
        assert!(d.values.iter().flatten().all(u8::is_ascii_lowercase));
        assert_eq!(d.values, Dataset::generate(3, 1_000).values);
        assert_ne!(d.values, Dataset::generate(4, 1_000).values);
    }

    #[test]
    fn mixes_have_the_declared_shape() {
        let mut r = Rng::new(1, FIRST_CONN_STREAM);
        assert!((0..100).all(|_| !next_txn(&mut r, Mix::ReadOnly, 100).is_write()));
        assert!((0..100).all(|_| next_txn(&mut r, Mix::WriteOnly, 100).is_write()));
        let writes = (0..10_000)
            .filter(|_| next_txn(&mut r, Mix::Mixed, 100).is_write())
            .count();
        assert!((2_700..3_300).contains(&writes), "{writes} writes of 10000");
    }
}
