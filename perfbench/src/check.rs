//! Output checks: order-independent digests of a run's outputs, compared
//! against a reference computed outside the timed window.

/// splitmix64's finaliser: a bijective 64-bit mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An order-independent digest of a multiset of rows: the row count and the
/// wrapping sum of the rows' hashes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Rows absorbed.
    pub rows: u64,
    /// Wrapping sum of row hashes.
    pub sum: u64,
}

impl Digest {
    /// Absorbs one row by its hash.
    #[inline]
    pub fn add(&mut self, hash: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(hash);
    }

    /// Combines two digests (of disjoint parts of one multiset).
    pub fn merge(&mut self, other: Digest) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// The hash of a `(key, count)` output row.
#[inline]
pub fn count_row_hash(key: u64, count: u64) -> u64 {
    mix64(key ^ mix64(count.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// The hash of a rendered text row (FNV-1a, then mixed).
pub fn text_row_hash(row: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in row.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(hash)
}

/// The reference for a counting run: a plain count per key over the
/// generated keys (a vector indexed by key, as the key domain has at most
/// 2^25 keys), yielding the digest of the `(key, running count)` rows the
/// operator must have emitted (one per record) and the records per key.
pub struct CountReference {
    counts: Vec<u32>,
    digest: Digest,
}

impl CountReference {
    /// An empty reference over the keys below `2^domain_bits`.
    pub fn new(domain_bits: u32) -> Self {
        CountReference {
            counts: vec![0; 1 << domain_bits],
            digest: Digest::default(),
        }
    }

    /// Counts one record of `key`.
    #[inline]
    pub fn record(&mut self, key: u64) {
        let count = &mut self.counts[key as usize];
        *count += 1;
        self.digest.add(count_row_hash(key, u64::from(*count)));
    }

    /// The digest of the expected output rows.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Records expected over the keys selected by `keep`.
    pub fn records_where(&self, keep: impl Fn(u64) -> bool) -> u64 {
        (0u64..)
            .zip(&self.counts)
            .filter(|(key, _)| keep(*key))
            .map(|(_, &n)| u64::from(n))
            .sum()
    }
}

/// Compares an observed digest with the expected one; `Err` names the
/// mismatch.
pub fn compare(what: &str, observed: Digest, expected: Digest) -> Result<(), String> {
    if observed == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: observed {} rows (sum {:#x}), expected {} rows (sum {:#x})",
            observed.rows, observed.sum, expected.rows, expected.sum
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let rows = [
            "new_seller=a window=0",
            "new_seller=b window=0",
            "new_seller=c window=1",
        ];
        let mut forward = Digest::default();
        rows.iter().for_each(|row| forward.add(text_row_hash(row)));
        let mut backward = Digest::default();
        rows.iter()
            .rev()
            .for_each(|row| backward.add(text_row_hash(row)));
        assert_eq!(compare("rows", forward, backward), Ok(()));

        // One corrupted row must fail the check.
        let mut corrupted = Digest::default();
        corrupted.add(text_row_hash("new_seller=a window=0"));
        corrupted.add(text_row_hash("new_seller=b window=9"));
        corrupted.add(text_row_hash("new_seller=c window=1"));
        assert!(compare("rows", corrupted, forward).is_err());
        // So must a missing or duplicated row.
        let mut missing = forward;
        missing.rows -= 1;
        missing.sum = missing.sum.wrapping_sub(text_row_hash(rows[2]));
        assert!(compare("rows", missing, forward).is_err());
        let mut doubled = forward;
        doubled.add(text_row_hash(rows[0]));
        assert!(compare("rows", doubled, forward).is_err());
    }

    #[test]
    fn count_reference_expects_running_counts() {
        let mut reference = CountReference::new(4);
        for key in [7, 7, 9] {
            reference.record(key);
        }
        let mut emitted = Digest::default();
        for (key, count) in [(9, 1), (7, 2), (7, 1)] {
            emitted.add(count_row_hash(key, count));
        }
        assert_eq!(compare("counts", emitted, reference.digest()), Ok(()));
        assert_eq!(reference.records_where(|key| key != 9), 2);

        // An operator that lost an update emits (7, 1) twice.
        let mut wrong = Digest::default();
        for (key, count) in [(9, 1), (7, 1), (7, 1)] {
            wrong.add(count_row_hash(key, count));
        }
        assert!(compare("counts", wrong, reference.digest()).is_err());
    }
}
