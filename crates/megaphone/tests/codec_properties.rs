//! Property-style tests for the chunked migration codec: over randomized
//! (seeded, reproducible — the build is offline, so no `proptest`) payload
//! shapes, sizes and fragment budgets, a [`Fragmenter`]'s output must
//! concatenate byte-identically to the one-shot [`Codec`] encoding, and an
//! [`Assembler`] must rebuild the original value from the fragments — the
//! invariant migration (and, since cluster mode, every byte crossing a TCP
//! socket) rests on.

use std::collections::{BTreeMap, VecDeque};

use megaphone::codec::{encode_fragments, Assembler, Codec};
use megaphone::prelude::*;
use megaphone::Bin;
use timelite::hashing::FxHashMap;

/// A deterministic xorshift64* generator, reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn string(&mut self, max_len: u64) -> String {
        let len = self.below(max_len + 1);
        (0..len)
            .map(|_| match self.below(4) {
                0 => char::from_u32(0x00a1 + self.below(0x4_0000) as u32).unwrap_or('\u{2603}'),
                _ => char::from_u32(0x20 + self.below(0x5e) as u32).unwrap(),
            })
            .collect()
    }
}

/// Checks the two chunking invariants for `value` under `budget`:
/// concatenated fragments equal the one-shot encoding byte for byte, and the
/// assembler rebuilds the value. Returns the fragments for extra checks.
fn check<C>(value: C, budget: usize, seed: u64) -> Vec<Vec<u8>>
where
    C: ChunkedCodec + Clone + PartialEq + std::fmt::Debug,
{
    let whole = value.encode_to_vec();
    let fragments = encode_fragments(value.clone(), budget);
    let concatenated: Vec<u8> = fragments.iter().flatten().copied().collect();
    assert_eq!(
        concatenated, whole,
        "seed {seed} budget {budget}: fragments diverge from the one-shot encoding"
    );
    // Feed the fragments exactly as migration does: one absorb per fragment,
    // each of which must be fully consumed.
    let mut assembler = C::assembler();
    for fragment in &fragments {
        let mut bytes = &fragment[..];
        assembler.absorb(&mut bytes);
        assert!(bytes.is_empty(), "seed {seed} budget {budget}: assembler left bytes unconsumed");
    }
    assert!(assembler.is_complete(), "seed {seed} budget {budget}: assembler incomplete");
    assert_eq!(assembler.finish(), value, "seed {seed} budget {budget}: round-trip changed value");
    fragments
}

const CASES: u64 = 128;

/// Randomized `Vec<Vec<u8>>` payloads (the shape of encoded bin content)
/// under randomized budgets.
#[test]
fn random_byte_payloads_fragment_byte_identically() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2 + 1);
        let value: Vec<Vec<u8>> = (0..rng.below(20))
            .map(|_| {
                let len = rng.below(200);
                (0..len).map(|_| rng.next() as u8).collect()
            })
            .collect();
        let budget = rng.below(300) as usize + 1;
        check(value, budget, seed);
    }
}

/// Randomized map payloads (the shape of real per-bin state: keys to vectors,
/// strings with multi-byte characters) under randomized budgets.
#[test]
fn random_state_maps_fragment_byte_identically() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 3 + 1);
        let value: FxHashMap<u64, (String, Vec<u64>)> = (0..rng.below(40))
            .map(|_| {
                let key = rng.next();
                let text = rng.string(24);
                let numbers = (0..rng.below(16)).map(|_| rng.next()).collect();
                (key, (text, numbers))
            })
            .collect();
        let budget = rng.below(256) as usize + 1;
        check(value, budget, seed);
    }
}

/// Randomized ordered collections: `BTreeMap` and `VecDeque` payloads.
#[test]
fn random_ordered_collections_fragment_byte_identically() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 5 + 1);
        let tree: BTreeMap<u64, String> =
            (0..rng.below(30)).map(|_| (rng.next(), rng.string(12))).collect();
        let budget = rng.below(128) as usize + 1;
        check(tree, budget, seed);
        let deque: VecDeque<u64> = (0..rng.below(60)).map(|_| rng.next()).collect();
        let budget = rng.below(64) as usize + 1;
        check(deque, budget, seed);
    }
}

/// The 0-byte edge: empty collections still produce a (header-only) fragment
/// stream that concatenates and round-trips, at any budget — including a
/// budget smaller than the header itself.
#[test]
fn zero_byte_payloads_roundtrip_at_any_budget() {
    for budget in [1usize, 7, 8, 9, 1024] {
        let fragments = check(Vec::<u8>::new(), budget, 0);
        assert_eq!(fragments.len(), 1, "an empty vector is one header fragment");
        check(FxHashMap::<u64, u64>::default(), budget, 0);
        check(BTreeMap::<u64, u64>::new(), budget, 0);
        check(VecDeque::<u64>::new(), budget, 0);
        // A zero-length byte payload inside a record, as migration produces
        // for an empty bin's encoded state.
        check(vec![Vec::<u8>::new()], budget, 0);
    }
}

/// The budget-equals-payload edge: when the budget exactly matches the full
/// encoding's length, everything must land in a single fragment — and one
/// byte less must force a split (for payloads whose last unit is splittable
/// off).
#[test]
fn budget_equal_to_payload_is_a_single_fragment() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 7 + 1);
        let value: Vec<u64> = (1..=rng.below(32) + 2).map(|_| rng.next()).collect();
        let whole = value.encode_to_vec();
        let fragments = check(value.clone(), whole.len(), seed);
        assert_eq!(
            fragments.len(),
            1,
            "seed {seed}: budget == encoded length must yield one fragment"
        );
        let fragments = check(value, whole.len() - 1, seed);
        assert!(
            fragments.len() > 1,
            "seed {seed}: one byte under the encoded length must split"
        );
    }
}

/// Oversized single units (larger than the whole budget) land alone, and the
/// stream still concatenates and round-trips.
#[test]
fn oversized_units_survive_tiny_budgets() {
    for seed in 0..32 {
        let mut rng = Rng::new(seed * 11 + 1);
        let value: Vec<String> =
            (0..rng.below(6) + 2).map(|_| rng.string(64)).collect();
        for budget in [1usize, 2, 9] {
            check(value.clone(), budget, seed);
        }
    }
}

// ---------------------------------------------------------------------------
// The byte format, pinned against an independent per-item reference.
// ---------------------------------------------------------------------------

/// The wire format spelled out one item at a time, independently of the
/// codec under test: little-endian numbers, `u64` length prefixes.
trait Reference {
    fn reference(&self, out: &mut Vec<u8>);
}

macro_rules! reference_le {
    ($($ty:ty),*) => {
        $(
            impl Reference for $ty {
                fn reference(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
            }
        )*
    };
}

reference_le!(u8, u16, u32, u64, u128, i64, f64);

impl Reference for String {
    fn reference(&self, out: &mut Vec<u8>) {
        (self.len() as u64).reference(out);
        out.extend(self.bytes());
    }
}

impl<A: Reference, B: Reference> Reference for (A, B) {
    fn reference(&self, out: &mut Vec<u8>) {
        self.0.reference(out);
        self.1.reference(out);
    }
}

impl<T: Reference> Reference for Vec<T> {
    fn reference(&self, out: &mut Vec<u8>) {
        for unit in units(self) {
            out.extend(unit);
        }
    }
}

/// The indivisible encoding units of a sequence: its length header, then one
/// unit per item.
fn units<T: Reference>(items: &[T]) -> Vec<Vec<u8>> {
    let mut header = Vec::new();
    (items.len() as u64).reference(&mut header);
    let items = items.iter().map(|item| {
        let mut unit = Vec::new();
        item.reference(&mut unit);
        unit
    });
    std::iter::once(header).chain(items).collect()
}

/// The fragments the chunking rule cuts from consecutive sequence
/// `sections` (each a header unit followed by item units) under `budget`: an
/// item that would overshoot a non-empty fragment, or one that finds the
/// fragment already full, opens the next fragment; a later section's header
/// opens one only when it would overshoot.
fn reference_fragments(sections: &[Vec<Vec<u8>>], budget: usize) -> Vec<Vec<u8>> {
    let mut fragments = Vec::new();
    let mut current: Vec<u8> = Vec::new();
    for (index, section) in sections.iter().enumerate() {
        let (header, items) = section.split_first().expect("a section opens with its header");
        if index > 0 && !current.is_empty() && current.len() + header.len() > budget {
            fragments.push(std::mem::take(&mut current));
        }
        current.extend_from_slice(header);
        for item in items {
            let full = current.len() >= budget || current.len() + item.len() > budget;
            if full && !current.is_empty() {
                fragments.push(std::mem::take(&mut current));
            }
            current.extend_from_slice(item);
        }
    }
    fragments.push(current);
    fragments
}

/// Checks `value` against its reference `sections`: the one-shot encoding,
/// the fragment stream, and both decoders fed the reference bytes (the image
/// any earlier build wrote for this value).
fn check_reference<C>(value: C, sections: &[Vec<Vec<u8>>], budget: usize, what: &str)
where
    C: ChunkedCodec + Clone + PartialEq + std::fmt::Debug,
{
    let whole: Vec<u8> = sections.iter().flatten().flatten().copied().collect();
    assert_eq!(value.encode_to_vec(), whole, "{what}: one-shot encoding diverges");
    let expected = reference_fragments(sections, budget);
    assert_eq!(
        encode_fragments(value.clone(), budget),
        expected,
        "{what} budget {budget}: fragments diverge"
    );
    assert_eq!(C::decode_from_slice(&whole), value, "{what}: decoding the reference failed");
    let mut assembler = C::assembler();
    for fragment in &expected {
        let mut bytes = &fragment[..];
        assembler.absorb(&mut bytes);
        assert!(bytes.is_empty(), "{what} budget {budget}: fragment left bytes unconsumed");
    }
    assert_eq!(assembler.finish(), value, "{what} budget {budget}: assembly changed the value");
}

/// A random budget: often below one item, sometimes far above the value.
fn random_budget(rng: &mut Rng) -> usize {
    match rng.below(3) {
        0 => rng.below(20) as usize + 1,
        1 => rng.below(600) as usize + 1,
        _ => rng.below(10_000) as usize + 1,
    }
}

fn check_vec<T>(seed: u64, item: impl Fn(&mut Rng) -> T)
where
    T: Reference + Codec + Clone + PartialEq + std::fmt::Debug,
{
    let mut rng = Rng::new(seed * 13 + 1);
    let value: Vec<T> = (0..rng.below(300)).map(|_| item(&mut rng)).collect();
    let budget = random_budget(&mut rng);
    let what = format!("seed {seed} Vec<{}>", std::any::type_name::<T>());
    check_reference(value.clone(), &[units(&value)], budget, &what);
}

/// Every fixed-width element type keeps the per-item byte format and the
/// per-item fragment boundaries on the bulk path.
#[test]
fn fixed_width_vectors_match_the_per_item_reference() {
    for seed in 0..CASES {
        check_vec(seed, |rng| rng.next() as u8);
        check_vec(seed, |rng| rng.next() as u16);
        check_vec(seed, |rng| rng.next() as u32);
        check_vec(seed, |rng| rng.next());
        check_vec(seed, |rng| rng.next() as i64);
        check_vec(seed, |rng| (rng.next() as i64) as f64 / 7.0);
        check_vec(seed, |rng| (u128::from(rng.next()) << 64) | u128::from(rng.next()));
    }
}

type DenseBin = Bin<u64, Vec<u64>, (u64, String)>;

/// A dense bin (bulk `Vec<u64>` state, per-item pending tuples) keeps the
/// reference format across its two sections.
#[test]
fn dense_bins_match_the_per_item_reference() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 17 + 1);
        let state: Vec<u64> = (0..rng.below(400)).map(|_| rng.next()).collect();
        let pending: Vec<(u64, (u64, String))> =
            (0..rng.below(6)).map(|_| (rng.next(), (rng.next(), rng.string(20)))).collect();
        let sections = [units(&state), units(&pending)];
        let bin: DenseBin = Bin { state, pending };
        let budget = random_budget(&mut rng);
        check_reference(bin, &sections, budget, &format!("seed {seed} dense bin"));
    }
}

/// WAL frame bytes exactly as any build writes them: `[len u32][crc32 u32]`
/// followed by the record payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::new();
    (payload.len() as u32).reference(&mut framed);
    megaphone::storage::crc32(payload).reference(&mut framed);
    framed.extend_from_slice(payload);
    framed
}

/// A WAL image whose fragment and spill payloads were laid out item by item
/// (as earlier builds wrote them) still replays, and the logged bytes
/// rebuild the bin. SSTable values are the same bin images, and a table's
/// bloom footer is a `Vec<u64>`, both pinned above.
#[test]
fn per_item_wal_images_still_replay() {
    use megaphone::storage::{replay_bytes, WalRecord};
    for seed in 0..32 {
        let mut rng = Rng::new(seed * 19 + 1);
        let state: Vec<u64> = (0..rng.below(200) + 1).map(|_| rng.next()).collect();
        let pending: Vec<(u64, (u64, String))> = vec![(rng.next(), (rng.next(), rng.string(8)))];
        let sections = [units(&state), units(&pending)];
        let bin: DenseBin = Bin { state, pending };
        let image: Vec<u8> = sections.iter().flatten().flatten().copied().collect();
        let fragments = reference_fragments(&sections, random_budget(&mut rng));

        let mut log = Vec::new();
        let mut expected = Vec::new();
        for (index, fragment) in fragments.iter().enumerate() {
            let last = index + 1 == fragments.len();
            let mut payload = vec![0u8];
            seed.reference(&mut payload);
            payload.push(u8::from(last));
            fragment.to_vec().reference(&mut payload);
            log.extend(frame(&payload));
            expected.push(WalRecord::Fragment { bin: seed, last, bytes: fragment.clone() });
        }
        let mut payload = vec![3u8];
        seed.reference(&mut payload);
        image.reference(&mut payload);
        log.extend(frame(&payload));
        expected.push(WalRecord::Spill { bin: seed, image: image.clone() });

        let (records, consumed) = replay_bytes(&log);
        assert_eq!(consumed, log.len(), "seed {seed}: the whole image must replay");
        assert_eq!(records, expected, "seed {seed}: replayed records diverge");
        let mut assembler = DenseBin::assembler();
        for record in &records[..fragments.len()] {
            let WalRecord::Fragment { bytes, .. } = record else { unreachable!() };
            assembler.absorb(&mut &bytes[..]);
        }
        assert_eq!(assembler.finish(), bin, "seed {seed}: logged fragments rebuild the bin");
        assert_eq!(DenseBin::decode_from_slice(&image), bin, "seed {seed}: spill image decodes");
    }
}

/// A fixed-width fragment cut inside an item fails loudly (release builds
/// included) instead of silently dropping the partial tail.
#[test]
#[should_panic(expected = "codec input truncated")]
fn fixed_width_fragment_cut_mid_item_panics() {
    let fragments = encode_fragments((0..100u64).collect::<Vec<_>>(), 64);
    let mut assembler = <Vec<u64>>::assembler();
    assembler.absorb(&mut &fragments[0][..]);
    let cut = &fragments[1][..fragments[1].len() - 3];
    assembler.absorb(&mut &cut[..]);
}

/// The same for a one-shot decode of a buffer cut inside its last item.
#[test]
#[should_panic(expected = "codec input truncated")]
fn fixed_width_buffer_cut_mid_item_panics() {
    let bytes = (0..100u32).collect::<Vec<_>>().encode_to_vec();
    let _ = Vec::<u32>::decode_from_slice(&bytes[..bytes.len() - 1]);
}
