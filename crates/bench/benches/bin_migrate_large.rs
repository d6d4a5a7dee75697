//! Criterion benches of migration encode/extract at large state sizes (the
//! regime of the paper's Figures 16–18): the old whole-bin path (one monolithic
//! encode + one monolithic decode) against the chunked fragment path, plus the
//! *max-stall* comparison — the largest single call either path performs. The
//! chunked path's worst single call touches at most one fragment budget of
//! bytes, while the whole-bin path's worst call scales with the bin.
//!
//! The chunked path runs exactly as the operators do: `BinStore::extract_chunked`,
//! `ChunkedExtraction::next_fragment` and `BinStore::install_fragment`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use megaphone::codec::encode_fragments;
use megaphone::storage::DurableConfig;
use megaphone::{Bin, BinStore, ChunkedCodec, Codec, MegaphoneConfig};
use timelite::hashing::FxHashMap;

type BenchBin<S> = Bin<u64, S, (u64, u64)>;
type Store<S> = BinStore<u64, S, (u64, u64)>;
type LargeBin = BenchBin<FxHashMap<u64, u64>>;
type LargeStore = Store<FxHashMap<u64, u64>>;
/// Dense state: one count per key of a contiguous key range, the shape the
/// bulk fixed-width codec path moves.
type DenseBin = BenchBin<Vec<u64>>;

/// The fragment budget used throughout: the `MegaphoneConfig` default.
const CHUNK_BYTES: usize = 64 << 10;

/// Builds a bin whose encoding is roughly `target_bytes` (16 bytes per entry).
fn bin_of(target_bytes: usize) -> LargeBin {
    let entries = (target_bytes / 16).max(1) as u64;
    Bin { state: (0..entries).map(|k| (k, k * 7)).collect(), pending: Vec::new() }
}

/// Builds a dense bin whose encoding is roughly `target_bytes` (8 bytes per key).
fn dense_bin_of(target_bytes: usize) -> DenseBin {
    let keys = (target_bytes / 8).max(1) as u64;
    Bin { state: (0..keys).map(|k| k * 7).collect(), pending: Vec::new() }
}

/// A one-bin source store hosting `bin` as bin 0, and an empty target store.
fn stores<S: ChunkedCodec + Default + 'static>(bin: BenchBin<S>) -> (Store<S>, Store<S>) {
    let config = MegaphoneConfig::new(0).with_chunk_bytes(CHUNK_BYTES);
    let mut source = BinStore::new(&config, 0, 1);
    *source.bin_mut(0) = bin;
    (source, BinStore::empty(config.bins()))
}

/// Moves bin 0 from `source` to `target` fragment by fragment, as the F and S
/// operators do, and returns the number of fragments.
fn migrate<S: ChunkedCodec + 'static>(source: &mut Store<S>, target: &mut Store<S>) -> usize {
    let mut extraction = source.extract_chunked(0).expect("bin 0 hosted");
    let mut fragments = 0;
    loop {
        let (bytes, last) = extraction.next_fragment(CHUNK_BYTES);
        fragments += 1;
        if target.install_fragment(0, &bytes, last) {
            return fragments;
        }
    }
}

/// `(label, approximate encoded bytes)` for the swept bin sizes.
const SIZES: [(&str, usize); 3] = [("1KB", 1 << 10), ("100KB", 100 << 10), ("10MB", 10 << 20)];

/// Full extract+install round trip, old path: one encode, one decode.
fn bench_whole_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/whole");
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            // `extract` hands the bin over by value on either path; the setup
            // clone stands in for that ownership transfer on both sides.
            b.iter_batched(
                || bin.clone(),
                |bin| {
                    let encoded = black_box(&bin).encode_to_vec();
                    let decoded = LargeBin::decode_from_slice(&encoded);
                    decoded.state.len()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Full extract+install round trip, chunked path: bounded-size fragments
/// pulled from a store's extraction and installed into another store, for the
/// bins `bin_of` builds at each swept size.
fn chunked_roundtrip<S: ChunkedCodec + Clone + Default + 'static>(
    c: &mut Criterion,
    group: &str,
    bin_of: fn(usize) -> BenchBin<S>,
) {
    let mut group = c.benchmark_group(group);
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            // Building the stores around a clone of the bin is setup,
            // excluded from the measurement.
            b.iter_batched(
                || stores(bin.clone()),
                |(mut source, mut target)| migrate(&mut source, &mut target),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_chunked_roundtrip(c: &mut Criterion) {
    chunked_roundtrip(c, "bin_migrate_large/chunked", bin_of);
}

/// The chunked round trip on dense `Vec<u64>` state, whose items move as
/// bulk fixed-width runs.
fn bench_chunked_dense_roundtrip(c: &mut Criterion) {
    chunked_roundtrip(c, "bin_migrate_large/chunked_dense", dense_bin_of);
}

/// Max-stall of the old path: the single monolithic encode call.
fn bench_stall_whole(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/stall_whole");
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            b.iter(|| black_box(bin).encode_to_vec().len())
        });
    }
    group.finish();
}

/// Max-stall of the chunked path: one `next_fragment` call producing one
/// fragment. Independent of bin size, this is the longest the F operator ever
/// blocks on encoding during a migration.
fn bench_stall_chunked(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large/stall_chunked");
    for (label, bytes) in SIZES {
        let bin = bin_of(bytes);
        group.bench_with_input(BenchmarkId::from_parameter(label), &bin, |b, bin| {
            b.iter_batched(
                || stores(bin.clone()).0.extract_chunked(0).expect("bin 0 hosted"),
                |mut extraction| extraction.next_fragment(CHUNK_BYTES).0.len(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The chunked install driven through the durable backend: every fragment is
/// WAL-appended before the assembler absorbs it and the commit record seals
/// the install. The delta against `bin_migrate_large/chunked` is the price of
/// durability on the migration path (fsync off — the process-crash model; the
/// per-iteration store open and directory reset happen in setup, untimed).
fn bench_durable_install(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_migrate_large_durable/install");
    let root = std::env::temp_dir().join(format!("mp-bench-durable-{}", std::process::id()));
    for (label, bytes) in SIZES {
        let fragments = encode_fragments(bin_of(bytes), CHUNK_BYTES);
        let dir = root.join(label);
        group.bench_with_input(BenchmarkId::from_parameter(label), &fragments, |b, fragments| {
            b.iter_batched(
                || {
                    let _ = std::fs::remove_dir_all(&dir);
                    let durable = DurableConfig::new(&dir).with_fsync(false);
                    let (store, recovered) =
                        LargeStore::open_durable(&MegaphoneConfig::new(2), &durable, "bench", 0)
                            .expect("open durable store");
                    assert!(!recovered, "the reset directory must open fresh");
                    store
                },
                |mut store| {
                    for (index, fragment) in fragments.iter().enumerate() {
                        store
                            .try_install_fragment(0, fragment, index + 1 == fragments.len())
                            .expect("durable install");
                    }
                    store.try_bin(0).map_or(0, |bin| bin.state.len())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(
    benches,
    bench_whole_roundtrip,
    bench_chunked_roundtrip,
    bench_chunked_dense_roundtrip,
    bench_stall_whole,
    bench_stall_chunked,
    bench_durable_install
);
criterion_main!(benches);
