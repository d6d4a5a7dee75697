//! A compact, dependency-free binary codec for data crossing process
//! boundaries.
//!
//! The trait originated in the Megaphone layer, where migrated state is
//! serialized into byte buffers (Section 4.1 of the paper); the cluster mode of
//! `timelite` reuses the exact same byte conventions — little-endian integers,
//! `u64` length prefixes — for everything a [`TcpAllocator`] puts on the wire:
//! coalesced data envelopes and progress updates alike. It lives here, at the
//! bottom of the stack, so both the communication fabric and the state layer
//! (`megaphone::codec`, which re-exports it and builds chunked encoding on
//! top) speak one format.
//!
//! [`TcpAllocator`]: crate::communication::net

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use crate::order::Product;
use crate::progress::{Port, ProgressUpdates};

/// A ref-counted, immutable byte region plus a range into it: the zero-copy
/// currency of the data plane.
///
/// A slab is created once from an owned buffer (no bytes move — the buffer is
/// adopted) and from then on only *sliced*: [`clone`](Clone::clone) and
/// [`slice`](Slab::slice) are O(1) reference-count bumps, never copies. A
/// decoded TCP frame, a broadcast payload shared by several remote targets and
/// a WAL record can therefore all alias one underlying allocation, which lives
/// until the last slice drops.
///
/// Ownership rules: the underlying region is append-only *before* it becomes a
/// slab and frozen afterwards — there is deliberately no `&mut [u8]` access,
/// so aliasing slices can never observe a mutation.
#[derive(Clone)]
pub struct Slab {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Slab {
    /// Adopts `bytes` as a new slab region. The buffer is moved, not copied.
    pub fn new(bytes: Vec<u8>) -> Self {
        let end = bytes.len();
        Slab { buf: Arc::new(bytes), start: 0, end }
    }

    /// An empty slab.
    pub fn empty() -> Self {
        Slab::new(Vec::new())
    }

    /// Number of bytes in this slice of the region.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` iff this slice is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes of this slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// A sub-slice of this slice (`range` is relative to it): O(1), no copy,
    /// shares the underlying region.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past this slice's end.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Slab {
        assert!(range.start <= range.end, "slab slice range inverted");
        assert!(
            self.start + range.end <= self.end,
            "slab slice {}..{} out of bounds of {} bytes",
            range.start,
            range.end,
            self.len()
        );
        Slab { buf: Arc::clone(&self.buf), start: self.start + range.start, end: self.start + range.end }
    }

    /// How many slab handles share this region (for tests asserting that
    /// cloning did not copy).
    pub fn region_refs(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Returns `true` iff `other` aliases the same underlying region.
    pub fn same_region(&self, other: &Slab) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Copies the slice out into an owned vector (the one deliberate copy,
    /// for callers that must own their bytes, e.g. durable storage).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for Slab {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Slab {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Slab {
    fn from(bytes: Vec<u8>) -> Self {
        Slab::new(bytes)
    }
}

impl PartialEq for Slab {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Slab {}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab({} bytes @ {}..{} of {})", self.len(), self.start, self.end, self.buf.len())
    }
}

/// Types that can be serialized into the wire format.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `bytes`.
    fn encode(&self, bytes: &mut Vec<u8>);
    /// Decodes a value from the front of `bytes`, advancing the slice.
    fn decode(bytes: &mut &[u8]) -> Self;

    /// Encodes `self` into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.encode(&mut bytes);
        bytes
    }

    /// Decodes a value from a complete buffer, asserting it is fully consumed.
    fn decode_from_slice(mut bytes: &[u8]) -> Self {
        let value = Self::decode(&mut bytes);
        debug_assert!(bytes.is_empty(), "codec left {} undecoded bytes", bytes.len());
        value
    }

    /// Appends the encodings of the longest prefix of `items` that fits a
    /// fragment `budget` (compared against the absolute length of `bytes`)
    /// and returns how many items it appended. An item that would overshoot a
    /// non-empty buffer is held back; an oversized item that starts an empty
    /// buffer is appended alone, since items are never split.
    ///
    /// The default encodes item by item (a held-back item is encoded again
    /// by the next call); fixed-width numbers override it with one bulk pass
    /// over the run.
    fn encode_run(items: &[Self], budget: usize, bytes: &mut Vec<u8>) -> usize {
        for (done, item) in items.iter().enumerate() {
            if bytes.len() >= budget {
                return done;
            }
            let start = bytes.len();
            item.encode(bytes);
            if bytes.len() > budget && start > 0 {
                bytes.truncate(start);
                return done;
            }
        }
        items.len()
    }

    /// Decodes up to `n` whole items from the front of `bytes` into `out`,
    /// stopping early only when `bytes` runs out. A buffer that ends inside
    /// an item panics, as [`Codec::decode`] does.
    ///
    /// The default decodes item by item; fixed-width numbers override it
    /// with one bulk pass over the run.
    fn decode_run(bytes: &mut &[u8], n: usize, out: &mut Vec<Self>) {
        for _ in 0..n {
            if bytes.is_empty() {
                return;
            }
            out.push(Self::decode(bytes));
        }
    }
}

/// Maximum number of items a decoder pre-sizes a collection for, so a corrupt
/// or hostile length header cannot force a huge allocation before the bytes
/// behind it are checked. Larger collections still decode; they just grow
/// past the initial capacity.
pub const MAX_PRESIZE_ITEMS: usize = 1 << 20;

fn take<'a>(bytes: &mut &'a [u8], len: usize) -> &'a [u8] {
    assert!(len <= bytes.len(), "codec input truncated: need {len} bytes, {} left", bytes.len());
    let (head, tail) = bytes.split_at(len);
    *bytes = tail;
    head
}

macro_rules! integer_codec {
    ($($ty:ty),*) => {
        $(
            impl Codec for $ty {
                #[inline]
                fn encode(&self, bytes: &mut Vec<u8>) {
                    bytes.extend_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn decode(bytes: &mut &[u8]) -> Self {
                    let mut buf = [0u8; std::mem::size_of::<$ty>()];
                    buf.copy_from_slice(take(bytes, std::mem::size_of::<$ty>()));
                    <$ty>::from_le_bytes(buf)
                }
                fn encode_run(items: &[Self], budget: usize, bytes: &mut Vec<u8>) -> usize {
                    const WIDTH: usize = std::mem::size_of::<$ty>();
                    let fit = budget.saturating_sub(bytes.len()) / WIDTH;
                    // An empty buffer below its budget always takes one item.
                    let floor = usize::from(bytes.is_empty() && budget > 0);
                    let n = fit.max(floor).min(items.len());
                    let start = bytes.len();
                    bytes.resize(start + n * WIDTH, 0);
                    for (out, item) in bytes[start..].chunks_exact_mut(WIDTH).zip(&items[..n]) {
                        out.copy_from_slice(&item.to_le_bytes());
                    }
                    n
                }
                fn decode_run(bytes: &mut &[u8], n: usize, out: &mut Vec<Self>) {
                    const WIDTH: usize = std::mem::size_of::<$ty>();
                    // Rounding up makes a buffer cut inside an item fail in
                    // `take` instead of silently dropping the partial tail.
                    let n = n.min(bytes.len().div_ceil(WIDTH));
                    let run = take(bytes, n * WIDTH);
                    out.extend(run.chunks_exact(WIDTH).map(|item| {
                        <$ty>::from_le_bytes(item.try_into().expect("chunks are exactly one item"))
                    }));
                }
            }
        )*
    };
}

integer_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Codec for usize {
    fn encode(&self, bytes: &mut Vec<u8>) {
        (*self as u64).encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        u64::decode(bytes) as usize
    }
}

impl Codec for isize {
    fn encode(&self, bytes: &mut Vec<u8>) {
        (*self as i64).encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        i64::decode(bytes) as isize
    }
}

impl Codec for bool {
    fn encode(&self, bytes: &mut Vec<u8>) {
        bytes.push(u8::from(*self));
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        take(bytes, 1)[0] != 0
    }
}

impl Codec for () {
    fn encode(&self, _bytes: &mut Vec<u8>) {}
    fn decode(_bytes: &mut &[u8]) -> Self {}
}

impl Codec for char {
    fn encode(&self, bytes: &mut Vec<u8>) {
        (*self as u32).encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        char::from_u32(u32::decode(bytes)).expect("invalid char encoding")
    }
}

impl Codec for String {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        bytes.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        String::from_utf8(take(bytes, len).to_vec()).expect("invalid utf-8 in encoded string")
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        match self {
            None => bytes.push(0),
            Some(value) => {
                bytes.push(1);
                value.encode(bytes);
            }
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        match take(bytes, 1)[0] {
            0 => None,
            _ => Some(T::decode(bytes)),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        T::encode_run(self, usize::MAX, bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        let mut items = Vec::with_capacity(len.min(MAX_PRESIZE_ITEMS));
        T::decode_run(bytes, len, &mut items);
        // Items that encode to no bytes (`()`) decode from an exhausted
        // buffer; for any other item this panics on the truncated input.
        while items.len() < len {
            items.push(T::decode(bytes));
        }
        items
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        for item in self {
            item.encode(bytes);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        let mut items = VecDeque::with_capacity(len.min(MAX_PRESIZE_ITEMS));
        for _ in 0..len {
            items.push_back(T::decode(bytes));
        }
        items
    }
}

impl<K: Codec + Eq + Hash, V: Codec, S: BuildHasher + Default> Codec for HashMap<K, V, S> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        for (key, value) in self {
            key.encode(bytes);
            value.encode(bytes);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        let mut map = HashMap::with_capacity_and_hasher(len.min(MAX_PRESIZE_ITEMS), S::default());
        for _ in 0..len {
            let key = K::decode(bytes);
            let value = V::decode(bytes);
            map.insert(key, value);
        }
        map
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.len().encode(bytes);
        for (key, value) in self {
            key.encode(bytes);
            value.encode(bytes);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        let len = usize::decode(bytes);
        (0..len).map(|_| (K::decode(bytes), V::decode(bytes))).collect()
    }
}

macro_rules! tuple_codec {
    ($(($($name:ident)+),)+) => {
        $(
            #[allow(non_snake_case)]
            impl<$($name: Codec),+> Codec for ($($name,)+) {
                fn encode(&self, bytes: &mut Vec<u8>) {
                    let ($(ref $name,)+) = *self;
                    $($name.encode(bytes);)+
                }
                fn decode(bytes: &mut &[u8]) -> Self {
                    ($($name::decode(bytes),)+)
                }
            }
        )+
    };
}

tuple_codec! {
    (A),
    (A B),
    (A B C),
    (A B C D),
    (A B C D E),
    (A B C D E F),
}

impl<TOuter: Codec, TInner: Codec> Codec for Product<TOuter, TInner> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.outer.encode(bytes);
        self.inner.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Product { outer: TOuter::decode(bytes), inner: TInner::decode(bytes) }
    }
}

impl Codec for Port {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.node.encode(bytes);
        self.port.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        Port { node: usize::decode(bytes), port: usize::decode(bytes) }
    }
}

impl<T: Codec> Codec for ProgressUpdates<T> {
    fn encode(&self, bytes: &mut Vec<u8>) {
        self.internals.encode(bytes);
        self.messages.encode(bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Self {
        ProgressUpdates { internals: Vec::decode(bytes), messages: Vec::decode(bytes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode_to_vec();
        let decoded = T::decode_from_slice(&bytes);
        assert_eq!(value, decoded);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(123456usize);
        roundtrip(3.25f64);
        roundtrip("ünïcödé ☃".to_string());
        roundtrip(Some(vec![1u64, 2, 3]));
    }

    #[test]
    fn timestamps_roundtrip() {
        roundtrip(Product::new(3u64, 7u64));
        roundtrip(Product::new(Product::new(1u32, 2u32), 9u64));
    }

    #[test]
    fn slab_adopts_without_copy_and_slices_share_the_region() {
        let bytes: Vec<u8> = (0..64).collect();
        let ptr = bytes.as_ptr();
        let slab = Slab::new(bytes);
        assert_eq!(slab.as_slice().as_ptr(), ptr, "adoption must not move the bytes");
        let clone = slab.clone();
        let slice = slab.slice(8..24);
        assert!(clone.same_region(&slab));
        assert!(slice.same_region(&slab));
        assert_eq!(slab.region_refs(), 3);
        assert_eq!(slice.as_slice(), &(8u8..24).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn slab_nested_subslices_compose() {
        let slab = Slab::new((0..100u8).collect());
        let outer = slab.slice(10..90);
        let inner = outer.slice(5..15);
        assert_eq!(inner.as_slice(), &(15u8..25).collect::<Vec<_>>()[..]);
        assert_eq!(inner.slice(0..0).len(), 0, "zero-byte nested slice");
        assert_eq!(outer.slice(0..outer.len()), outer, "full-region slice equals itself");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slab_slice_past_end_panics() {
        let slab = Slab::new(vec![1, 2, 3]);
        let _ = slab.slice(1..5);
    }

    /// A 16-byte buffer whose length header claims 2^36 items.
    fn huge_header() -> Vec<u8> {
        let mut bytes = (1u64 << 36).encode_to_vec();
        7u64.encode(&mut bytes);
        bytes
    }

    #[test]
    #[should_panic(expected = "codec input truncated")]
    fn vec_length_header_cannot_force_a_huge_allocation() {
        let _ = Vec::<u64>::decode_from_slice(&huge_header());
    }

    #[test]
    #[should_panic(expected = "codec input truncated")]
    fn deque_length_header_cannot_force_a_huge_allocation() {
        let _ = VecDeque::<u64>::decode_from_slice(&huge_header());
    }

    #[test]
    #[should_panic(expected = "codec input truncated")]
    fn map_length_header_cannot_force_a_huge_allocation() {
        let _ = HashMap::<u32, u32>::decode_from_slice(&huge_header());
    }

    #[test]
    fn zero_width_items_decode_from_an_exhausted_buffer() {
        roundtrip(vec![(); 5]);
        roundtrip(vec![((), ()); 3]);
    }

    #[test]
    fn progress_updates_roundtrip() {
        let updates = ProgressUpdates {
            internals: vec![(Port::new(0, 1), 7u64, -1), (Port::new(2, 0), 9, 1)],
            messages: vec![(3usize, 7u64, 4), (5, 8, -4)],
        };
        let bytes = updates.encode_to_vec();
        let decoded = ProgressUpdates::<u64>::decode_from_slice(&bytes);
        assert_eq!(decoded.internals, updates.internals);
        assert_eq!(decoded.messages, updates.messages);
    }
}
