//! Flat, sparsely allocated main memory.
//!
//! The 32-bit address space is a two-level page table: a directory of
//! [`DIR_ENTRIES`] slots, one per 4 MB region, each holding a lazily
//! allocated leaf of [`LEAF_ENTRIES`] slots, one per 4 KB page, each
//! holding a lazily allocated page. A functional load or store costs
//! two indexed loads (directory slot, then leaf slot) and no hashing.
//! Both indices are disjoint bit fields of the address into fixed-size
//! arrays, so they need no bounds check.
//!
//! Walking the slots in index order visits the pages in address order:
//! the canonical order [`MainMemory::pages`] and [`MainMemory::digest`]
//! need, with no sort.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Address bits that select a page inside a leaf.
const LEAF_BITS: u32 = 10;
/// Pages per leaf (4 MB of address space).
const LEAF_ENTRIES: usize = 1 << LEAF_BITS;
/// Leaves in the directory: the rest of the 32-bit address.
const DIR_ENTRIES: usize = 1 << (32 - PAGE_SHIFT - LEAF_BITS);

/// Bytes per allocation page — the granularity of [`MainMemory::pages`]
/// and [`MainMemory::load_page`] (snapshot capture/restore).
pub const PAGE_BYTES: usize = PAGE_SIZE;

type Page = [u8; PAGE_SIZE];

/// The pages of one 4 MB region, by page index within it.
type Leaf = [Option<Box<Page>>; LEAF_ENTRIES];

/// Byte-addressable main memory with a 32-bit address space, allocated
/// lazily in 4 KB pages. All multi-byte accesses are little-endian and may
/// straddle page boundaries.
///
/// Two memories are equal when they hold the same allocated page numbers
/// with the same bytes: exactly what [`MainMemory::digest`] tells apart,
/// so an allocated all-zero page differs from an unallocated one.
#[derive(Clone, PartialEq, Eq)]
pub struct MainMemory {
    /// The leaf of each 4 MB region, once a page in it was written.
    dir: Box<[Option<Box<Leaf>>; DIR_ENTRIES]>,
    /// Pages allocated so far.
    allocated: usize,
}

impl Default for MainMemory {
    fn default() -> MainMemory {
        MainMemory { dir: Box::new([const { None }; DIR_ENTRIES]), allocated: 0 }
    }
}

impl std::fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MainMemory").field("allocated_pages", &self.allocated).finish()
    }
}

#[inline]
fn split(addr: u32) -> (u32, usize) {
    (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_SIZE - 1))
}

/// Directory and leaf index of page number `page` (< 2^20).
#[inline(always)]
fn slots(page: u32) -> (usize, usize) {
    ((page >> LEAF_BITS) as usize & (DIR_ENTRIES - 1), page as usize & (LEAF_ENTRIES - 1))
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// The page with number `page`, if it was ever written.
    #[inline(always)]
    fn page(&self, page: u32) -> Option<&Page> {
        let (d, l) = slots(page);
        self.dir[d].as_ref()?[l].as_deref()
    }

    /// The page with number `page`, allocated (zeroed) on first touch.
    #[inline]
    fn page_mut(&mut self, page: u32) -> &mut Page {
        let (d, l) = slots(page);
        let slot = &mut self.dir[d].get_or_insert_with(empty_leaf)[l];
        if slot.is_none() {
            self.allocated += 1;
        }
        slot.get_or_insert_with(zero_page)
    }

    /// Visits every allocated page in address order.
    fn for_each_page<'a>(&'a self, mut visit: impl FnMut(u32, &'a Page)) {
        for (d, leaf) in self.dir.iter().enumerate() {
            for (l, page) in leaf.iter().flat_map(|leaf| leaf.iter().enumerate()) {
                if let Some(page) = page {
                    visit(((d << LEAF_BITS) | l) as u32, page);
                }
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        let (page, off) = split(addr);
        self.page(page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// Reads `N` little-endian bytes in one page lookup when the access
    /// stays inside a page (the overwhelmingly common case — aligned
    /// accesses never straddle), byte-by-byte otherwise.
    #[inline]
    fn read_n<const N: usize>(&self, addr: u32) -> [u8; N] {
        let (page, off) = split(addr);
        if off + N <= PAGE_SIZE {
            match self.page(page) {
                Some(p) => {
                    let mut out = [0u8; N];
                    out.copy_from_slice(&p[off..off + N]);
                    out
                }
                None => [0u8; N],
            }
        } else {
            core::array::from_fn(|i| self.read_u8(addr.wrapping_add(i as u32)))
        }
    }

    /// Writes `N` little-endian bytes in one page lookup when the access
    /// stays inside a page, byte-by-byte otherwise.
    #[inline]
    fn write_n<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let (page, off) = split(addr);
        if off + N <= PAGE_SIZE {
            self.page_mut(page)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Reads a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_n(addr))
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_n(addr, value.to_le_bytes());
    }

    /// Reads a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_n(addr))
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_n(addr, value.to_le_bytes());
    }

    /// Reads a 32-bit value as a float (bit reinterpretation).
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes a float by its bit pattern.
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads 16 contiguous bytes (one vector register).
    pub fn read_vec128(&self, addr: u32) -> [u8; 16] {
        self.read_n(addr)
    }

    /// Writes 16 contiguous bytes (one vector register).
    pub fn write_vec128(&mut self, addr: u32, bytes: [u8; 16]) {
        self.write_n(addr, bytes);
    }

    /// Copies a byte slice into memory starting at `addr`, one page
    /// lookup per page touched. Every touched page is allocated, zero
    /// bytes included, as by [`write_u8`](Self::write_u8).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let (page, off) = split(addr);
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(page)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr = addr.wrapping_add(n as u32);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.scan(addr, len, |chunk| out.extend_from_slice(chunk));
        out
    }

    /// Visits the `len` bytes starting at `addr` in address order, one
    /// page lookup per page: `visit` gets each page's share as one
    /// slice, zeros for a page never written. Allocates nothing.
    pub fn scan(&self, addr: u32, len: usize, mut visit: impl FnMut(&[u8])) {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        let mut addr = addr;
        let mut rest = len;
        while rest > 0 {
            let (page, off) = split(addr);
            let n = rest.min(PAGE_SIZE - off);
            let bytes = self.page(page).unwrap_or(&ZERO_PAGE);
            visit(&bytes[off..off + n]);
            rest -= n;
            addr = addr.wrapping_add(n as u32);
        }
    }

    /// Number of pages that have been touched by a write.
    pub fn allocated_pages(&self) -> usize {
        self.allocated
    }

    /// Every allocated page as `(page number, contents)`, sorted by page
    /// number — the canonical order used by snapshot serialization, so
    /// two memories with identical contents always serialize to
    /// identical bytes regardless of allocation order. The table walk
    /// yields this order directly.
    pub fn pages(&self) -> Vec<(u32, &[u8; PAGE_BYTES])> {
        let mut pages = Vec::with_capacity(self.allocated);
        self.for_each_page(|k, p| pages.push((k, p)));
        pages
    }

    /// Installs one full page (snapshot restore). Replaces any existing
    /// contents of that page.
    pub fn load_page(&mut self, page: u32, bytes: &[u8; PAGE_BYTES]) {
        self.page_mut(page).copy_from_slice(bytes);
    }

    /// A stable 64-bit digest of all allocated contents, used by tests to
    /// compare final memory states between scalar and vectorised runs.
    pub fn digest(&self) -> u64 {
        // FNV-1a over (page number, page bytes) in page-number order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        self.for_each_page(|k, page| {
            for b in k.to_le_bytes() {
                mix(b);
            }
            for &b in page.iter() {
                mix(b);
            }
        });
        h
    }
}

/// A region's first touch: a leaf with no pages.
#[cold]
fn empty_leaf() -> Box<Leaf> {
    Box::new([const { None }; LEAF_ENTRIES])
}

/// A page's first touch.
#[cold]
fn zero_page() -> Box<Page> {
    Box::new([0; PAGE_SIZE])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = MainMemory::new();
        assert_eq!(m.read_u32(0xdead_beef), 0);
        assert_eq!(m.allocated_pages(), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut m = MainMemory::new();
        m.write_u32(0x100, 0x1234_5678);
        assert_eq!(m.read_u8(0x100), 0x78);
        assert_eq!(m.read_u8(0x103), 0x12);
        assert_eq!(m.read_u16(0x100), 0x5678);
        assert_eq!(m.read_u32(0x100), 0x1234_5678);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        let addr = (1 << 12) - 2; // straddles page 0 / page 1
        m.write_u32(addr, 0xA1B2_C3D4);
        assert_eq!(m.read_u32(addr), 0xA1B2_C3D4);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn float_roundtrip() {
        let mut m = MainMemory::new();
        m.write_f32(64, 3.25);
        assert_eq!(m.read_f32(64), 3.25);
    }

    #[test]
    fn vec128_roundtrip() {
        let mut m = MainMemory::new();
        let data: [u8; 16] = core::array::from_fn(|i| i as u8);
        m.write_vec128(4094, data); // straddles pages
        assert_eq!(m.read_vec128(4094), data);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = MainMemory::new();
        m.write_bytes(10, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(10, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn bulk_bytes_match_the_per_byte_path_across_pages() {
        // Spans that start and end mid-page, cover whole pages, and wrap
        // around the top of the address space.
        let spans: [(u32, usize); 5] = [
            (PAGE_BYTES as u32 - 3, 7),
            (3 * PAGE_BYTES as u32 + 100, 2 * PAGE_BYTES + 50),
            (8 * PAGE_BYTES as u32, PAGE_BYTES),
            (u32::MAX - 5, 12),
            (40, 0),
        ];
        for (addr, len) in spans {
            for zeros in [false, true] {
                let data: Vec<u8> =
                    (0..len).map(|i| if zeros { 0 } else { (i * 7 + 1) as u8 }).collect();
                let mut bulk = MainMemory::new();
                bulk.write_u32(6 * PAGE_BYTES as u32, 0xAB); // an unrelated page
                let mut bytewise = bulk.clone();
                bulk.write_bytes(addr, &data);
                for (i, &b) in data.iter().enumerate() {
                    bytewise.write_u8(addr.wrapping_add(i as u32), b);
                }
                let what = format!("{len} bytes at {addr:#x}, zeros {zeros}");
                assert_eq!(bulk.allocated_pages(), bytewise.allocated_pages(), "{what}");
                assert_eq!(bulk.digest(), bytewise.digest(), "{what}");
                assert_eq!(bulk.read_bytes(addr, len), data, "{what}");
                // A read one page beyond the span crosses unwritten
                // pages and allocates none of them.
                let pages = bulk.allocated_pages();
                let wide =
                    bulk.read_bytes(addr.wrapping_sub(PAGE_BYTES as u32), len + 2 * PAGE_BYTES);
                let per_byte: Vec<u8> = (0..len + 2 * PAGE_BYTES)
                    .map(|i| {
                        bulk.read_u8(addr.wrapping_sub(PAGE_BYTES as u32).wrapping_add(i as u32))
                    })
                    .collect();
                assert_eq!(wide, per_byte, "{what}");
                assert_eq!(bulk.allocated_pages(), pages, "{what}: reads never allocate");
            }
        }
    }

    #[test]
    fn pages_roundtrip_sorted() {
        let mut m = MainMemory::new();
        m.write_u32(5 << 12, 0xAA); // page 5 first
        m.write_u32(1 << 12, 0xBB);
        let pages = m.pages();
        assert_eq!(pages.len(), 2);
        assert!(pages[0].0 < pages[1].0, "pages are sorted");
        let mut copy = MainMemory::new();
        for (k, p) in pages {
            copy.load_page(k, p);
        }
        assert_eq!(copy.digest(), m.digest());
        assert_eq!(copy.read_u32(5 << 12), 0xAA);
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        a.write_u32(0, 7);
        b.write_u32(0, 7);
        assert_eq!(a.digest(), b.digest());
        b.write_u8(1000, 1);
        assert_ne!(a.digest(), b.digest());
    }

    /// A seeded random walk over the whole API against a byte map, with
    /// addresses clustered on page, leaf and address-space boundaries.
    #[test]
    fn random_ops_match_a_byte_map() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        /// Every touched page's bytes, by page number: what `MainMemory`
        /// must hold, kept the simplest way.
        #[derive(Default)]
        struct Reference {
            pages: BTreeMap<u32, Vec<u8>>,
        }
        impl Reference {
            fn write(&mut self, addr: u32, data: &[u8]) {
                for (i, &b) in data.iter().enumerate() {
                    let a = addr.wrapping_add(i as u32);
                    let page =
                        self.pages.entry(a >> PAGE_SHIFT).or_insert_with(|| vec![0; PAGE_BYTES]);
                    page[a as usize % PAGE_BYTES] = b;
                }
            }
            fn read(&self, addr: u32, len: usize) -> Vec<u8> {
                (0..len)
                    .map(|i| {
                        let a = addr.wrapping_add(i as u32);
                        self.pages.get(&(a >> PAGE_SHIFT)).map_or(0, |p| p[a as usize % PAGE_BYTES])
                    })
                    .collect()
            }
            fn digest(&self) -> u64 {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for (k, page) in &self.pages {
                    for &b in k.to_le_bytes().iter().chain(page) {
                        h ^= b as u64;
                        h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
                h
            }
        }

        // Page, leaf (4 MB) and address-space boundaries, plus the start.
        let anchors = [0u32, 0x1000, 0x40_0000, 0x80_0000, 0xFFC0_0000, 0];
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mem = MainMemory::new();
            let mut want = Reference::default();
            for step in 0..2000 {
                let anchor = anchors[rng.gen_range(0..anchors.len())];
                let addr = if rng.gen_range(0..8u32) == 0 {
                    rng.next_u64() as u32
                } else {
                    anchor.wrapping_add(rng.gen_range(0..64u32)).wrapping_sub(32)
                };
                let what = format!("seed {seed} step {step} addr {addr:#x}");
                match rng.gen_range(0..10u32) {
                    0 => {
                        let v = rng.next_u64() as u8;
                        mem.write_u8(addr, v);
                        want.write(addr, &[v]);
                    }
                    1 => {
                        let v = rng.next_u64() as u16;
                        mem.write_u16(addr, v);
                        want.write(addr, &v.to_le_bytes());
                    }
                    2 => {
                        let v = rng.next_u64() as u32;
                        mem.write_u32(addr, v);
                        want.write(addr, &v.to_le_bytes());
                    }
                    3 => {
                        let v: [u8; 16] = core::array::from_fn(|_| rng.next_u64() as u8);
                        mem.write_vec128(addr, v);
                        want.write(addr, &v);
                    }
                    4 => {
                        let len = rng.gen_range(0..PAGE_BYTES as u32 + 9) as usize;
                        let zeros = rng.gen_bool();
                        let data: Vec<u8> = (0..len)
                            .map(|_| if zeros { 0 } else { rng.next_u64() as u8 })
                            .collect();
                        mem.write_bytes(addr, &data);
                        want.write(addr, &data);
                    }
                    5 => {
                        let page = addr >> PAGE_SHIFT;
                        let data: Box<[u8; PAGE_BYTES]> =
                            Box::new(core::array::from_fn(|_| rng.next_u64() as u8));
                        mem.load_page(page, &data);
                        want.write(page << PAGE_SHIFT, &data[..]);
                    }
                    6 => {
                        let len = rng.gen_range(0..2 * PAGE_BYTES as u32) as usize;
                        let mut got = Vec::new();
                        mem.scan(addr, len, |chunk| got.extend_from_slice(chunk));
                        assert_eq!(got, want.read(addr, len), "scan: {what}");
                        assert_eq!(mem.read_bytes(addr, len), got, "read_bytes: {what}");
                    }
                    _ => {
                        let r = want.read(addr, 16);
                        assert_eq!(mem.read_u8(addr), r[0], "u8: {what}");
                        assert_eq!(mem.read_u16(addr).to_le_bytes()[..], r[..2], "u16: {what}");
                        assert_eq!(mem.read_u32(addr).to_le_bytes()[..], r[..4], "u32: {what}");
                        let f32_bytes = mem.read_f32(addr).to_bits().to_le_bytes();
                        assert_eq!(f32_bytes[..], r[..4], "f32: {what}");
                        assert_eq!(mem.read_vec128(addr)[..], r[..], "vec128: {what}");
                    }
                }
                assert_eq!(mem.allocated_pages(), want.pages.len(), "allocated: {what}");
                if step % 200 == 0 {
                    let pages = mem.pages();
                    let order: Vec<u32> = pages.iter().map(|&(k, _)| k).collect();
                    assert_eq!(order, want.pages.keys().copied().collect::<Vec<_>>(), "{what}");
                    for (k, p) in pages {
                        assert_eq!(p[..], want.pages[&k][..], "page {k:#x}: {what}");
                    }
                    assert_eq!(mem.digest(), want.digest(), "digest: {what}");
                }
            }
            assert_eq!(mem.digest(), want.digest(), "final digest, seed {seed}");
            // A copy restored page by page, in any order, is the same memory.
            let mut copy = MainMemory::new();
            for (k, p) in mem.pages().into_iter().rev() {
                copy.load_page(k, p);
            }
            assert_eq!(copy.digest(), mem.digest());
            assert_eq!(copy.allocated_pages(), mem.allocated_pages());
            assert!(copy == mem);
        }
    }

    /// `==` holds exactly when `digest()` matches: over random pairs
    /// of memories that share a write prefix and then each take a few
    /// writes of their own, with small values so that the two sides
    /// often end equal by different routes.
    #[test]
    fn equality_holds_exactly_when_digests_match() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Pages 0 and 1 share a leaf; the others each sit in their own.
        let anchors = [0u32, 0x1000, 0x40_0000, 0xFFC0_0000];
        let write = |rng: &mut StdRng, mem: &mut MainMemory| {
            let addr = anchors[rng.gen_range(0..anchors.len())] + rng.gen_range(0..8u32);
            mem.write_u8(addr, rng.gen_range(0..3u32) as u8);
        };
        // (equal, unequal, unequal though every byte reads the same)
        let mut seen = (0, 0, 0);
        let mut rng = StdRng::seed_from_u64(0x3e3);
        for case in 0..2000 {
            let mut a = MainMemory::new();
            for _ in 0..rng.gen_range(0..24u32) {
                write(&mut rng, &mut a);
            }
            let mut b = a.clone();
            for _ in 0..rng.gen_range(0..3u32) {
                write(&mut rng, &mut a);
            }
            for _ in 0..rng.gen_range(0..3u32) {
                write(&mut rng, &mut b);
            }
            let equal = a == b;
            assert_eq!(equal, a.digest() == b.digest(), "case {case}");
            assert_eq!(equal, b == a, "case {case}: symmetric");
            let same_bytes = anchors.iter().all(|&p| a.read_bytes(p, 8) == b.read_bytes(p, 8));
            match (equal, same_bytes) {
                (true, _) => seen.0 += 1,
                (false, false) => seen.1 += 1,
                (false, true) => seen.2 += 1,
            }
        }
        assert!(seen.0 > 0 && seen.1 > 0 && seen.2 > 0, "outcomes seen: {seen:?}");

        // An all-zero page allocated on one side only, in a leaf the
        // other side never touched and in one it did.
        for page in [0x40_0000, 0x1000] {
            let (mut a, mut b) = (MainMemory::new(), MainMemory::new());
            a.write_u8(0, 1);
            b.write_u8(0, 1);
            b.write_u8(page, 0);
            assert!(a != b, "zero page at {page:#x}");
            assert_ne!(a.digest(), b.digest());
        }
        // The same byte at the same offset of pages in different leaves.
        let (mut a, mut b) = (MainMemory::new(), MainMemory::new());
        a.write_u8(0x10, 7);
        b.write_u8(0x40_0010, 7);
        assert!(a != b);
        assert_ne!(a.digest(), b.digest());
    }
}
