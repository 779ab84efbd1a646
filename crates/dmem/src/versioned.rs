//! Versioned memory layout (two-level cache-line versions).
//!
//! Sherman and CHIME stripe every tree node over 64-byte cache lines whose
//! first byte is a *version byte*; the remaining 63 bytes per line hold
//! payload. A version byte packs a 4-bit node-level version (NV, high nibble)
//! and a 4-bit entry-level version (EV, low nibble):
//!
//! * a **node write** bumps NV in every version byte of the node;
//! * an **entry write** bumps EV in the entry's own leading version byte and
//!   in every line version byte that falls physically inside the entry;
//! * a reader checks that all fetched version bytes agree on NV, and that the
//!   version bytes within each fetched entry agree on EV.
//!
//! This module provides the logical↔physical mapping, fetch/write helpers and
//! nibble arithmetic. The convention throughout the workspace is that every
//! *object* (node header or entry) begins with its own version byte in
//! logical space, so a fetch that starts at an object boundary always carries
//! enough version information to detect cross-line tearing.

use std::ops::Range;

use crate::addr::GlobalAddr;
use crate::verbs::Endpoint;

/// Payload bytes per 64-byte line (one byte is the version byte).
pub const LINE_PAYLOAD: usize = 63;
/// Physical line size.
pub const LINE: usize = 64;

/// Packs node-level and entry-level versions into one version byte.
#[inline]
pub fn pack_ver(nv: u8, ev: u8) -> u8 {
    (nv << 4) | (ev & 0x0F)
}

/// Extracts the node-level version (high nibble).
#[inline]
pub fn nv(b: u8) -> u8 {
    b >> 4
}

/// Extracts the entry-level version (low nibble).
#[inline]
pub fn ev(b: u8) -> u8 {
    b & 0x0F
}

/// Increments a 4-bit version, wrapping at 16.
#[inline]
pub fn bump(v: u8) -> u8 {
    (v + 1) & 0x0F
}

/// The versioned layout of one node: a payload of `payload_len` logical
/// bytes striped over 64-byte lines, followed by an 8-byte lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    payload_len: usize,
}

impl Layout {
    /// Creates a layout for `payload_len` logical bytes.
    pub fn new(payload_len: usize) -> Self {
        assert!(payload_len > 0);
        Layout { payload_len }
    }

    /// Logical payload length.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Number of 64-byte lines the payload occupies.
    #[inline]
    pub fn lines(&self) -> usize {
        self.payload_len.div_ceil(LINE_PAYLOAD)
    }

    /// Physical size of the versioned payload area.
    #[inline]
    pub fn versioned_size(&self) -> usize {
        self.lines() * LINE
    }

    /// Physical offset of the 8-byte lock word (8-aligned by construction).
    #[inline]
    pub fn lock_offset(&self) -> usize {
        self.versioned_size()
    }

    /// Total physical node size including the lock word.
    #[inline]
    pub fn node_size(&self) -> usize {
        self.versioned_size() + 8
    }

    /// Maps a logical payload offset to its physical offset in the node.
    #[inline]
    pub fn phys_of(&self, logical: usize) -> usize {
        debug_assert!(logical <= self.payload_len);
        (logical / LINE_PAYLOAD) * LINE + 1 + logical % LINE_PAYLOAD
    }

    /// Physical start of an access whose logical range begins at `lstart`.
    ///
    /// When `lstart` falls exactly on a line-payload boundary the access
    /// also covers that line's version byte (Sherman-style writes begin at
    /// the version byte), so the physical start is one byte earlier than
    /// `phys_of(lstart)`.
    #[inline]
    pub fn phys_start(&self, lstart: usize) -> usize {
        if lstart.is_multiple_of(LINE_PAYLOAD) {
            self.phys_of(lstart) - 1
        } else {
            self.phys_of(lstart)
        }
    }

    /// Physical byte range `[start, end)` of an access to logical
    /// `[lstart, lend)`: from [`Layout::phys_start`]`(lstart)` — by
    /// convention an object boundary carrying a version byte — to
    /// `phys_of(lend - 1) + 1`.
    #[inline]
    pub fn phys_range(&self, lstart: usize, lend: usize) -> Range<usize> {
        assert!(lstart < lend && lend <= self.payload_len);
        self.phys_start(lstart)..self.phys_of(lend - 1) + 1
    }

    /// Fetches logical range `[lstart, lend)` with one READ of
    /// [`Layout::phys_range`].
    pub fn fetch(
        &self,
        ep: &mut Endpoint,
        node: GlobalAddr,
        lstart: usize,
        lend: usize,
    ) -> Fetched {
        let prange = self.phys_range(lstart, lend);
        let mut raw = vec![0u8; prange.len()];
        ep.read(node.add(prange.start as u64), &mut raw);
        self.from_raw(lstart, lend, &raw)
    }

    /// Fetches two logical ranges with one doorbell batch (wrap-around case).
    pub fn fetch2(
        &self,
        ep: &mut Endpoint,
        node: GlobalAddr,
        r1: (usize, usize),
        r2: (usize, usize),
    ) -> (Fetched, Fetched) {
        let mut both = self.fetch_many(ep, node, &[r1, r2]);
        let f2 = both.pop().expect("two ranges fetched");
        let f1 = both.pop().expect("two ranges fetched");
        (f1, f2)
    }

    /// Fetches any number of logical ranges of one node with one doorbell
    /// batch.
    pub fn fetch_many(
        &self,
        ep: &mut Endpoint,
        node: GlobalAddr,
        ranges: &[(usize, usize)],
    ) -> Vec<Fetched> {
        let reqs: Vec<(GlobalAddr, usize, usize)> =
            ranges.iter().map(|&(ls, le)| (node, ls, le)).collect();
        self.fetch_batch(ep, &reqs)
    }

    /// Fetches logical range `[lstart, lend)` of each `(node, lstart, lend)`
    /// request with one doorbell batch (one READ per request).
    pub fn fetch_batch(
        &self,
        ep: &mut Endpoint,
        reqs: &[(GlobalAddr, usize, usize)],
    ) -> Vec<Fetched> {
        assert!(!reqs.is_empty());
        let pranges: Vec<Range<usize>> = reqs
            .iter()
            .map(|&(_, ls, le)| self.phys_range(ls, le))
            .collect();
        // One buffer for every physical image; each READ gets its own slice.
        let mut raw = vec![0u8; pranges.iter().map(Range::len).sum()];
        {
            let mut rest = &mut raw[..];
            let mut verbs: Vec<(GlobalAddr, &mut [u8])> = Vec::with_capacity(reqs.len());
            for (&(node, _, _), prange) in reqs.iter().zip(&pranges) {
                let (dst, tail) = rest.split_at_mut(prange.len());
                verbs.push((node.add(prange.start as u64), dst));
                rest = tail;
            }
            ep.read_batch(&mut verbs);
        }
        let mut at = 0;
        reqs.iter()
            .zip(&pranges)
            .map(|(&(_, ls, le), prange)| {
                let f = self.from_raw(ls, le, &raw[at..at + prange.len()]);
                at += prange.len();
                f
            })
            .collect()
    }

    /// Decodes the physical image `phys` of logical `[lstart, lend)` (as
    /// read from [`Layout::phys_range`]) into a [`Fetched`] view. Every
    /// fetch goes through here: the image is de-interleaved once, one copy
    /// per line run, so the accessors are plain slice reads.
    pub fn from_raw(&self, lstart: usize, lend: usize, phys: &[u8]) -> Fetched {
        let prange = self.phys_range(lstart, lend);
        assert_eq!(phys.len(), prange.len(), "raw buffer size mismatch");
        let len = lend - lstart;
        // Logical bytes first, then the line-version bytes in line order.
        let mut buf = vec![0u8; phys.len()];
        let (data, vers) = buf.split_at_mut(len);
        let head = head_len(&prange);
        data[..head].copy_from_slice(&phys[..head]);
        let mut at = head;
        for (v, line) in vers.iter_mut().zip(phys[head..].chunks(LINE)) {
            *v = line[0];
            data[at..at + line.len() - 1].copy_from_slice(&line[1..]);
            at += line.len() - 1;
        }
        debug_assert_eq!(at, len);
        Fetched {
            layout: *self,
            lstart,
            lend,
            first_line: prange.start.div_ceil(LINE),
            buf,
        }
    }

    /// Builds the physical image of logical range `[lstart, lend)`.
    ///
    /// `data` supplies the logical bytes; `line_ver` is called with the
    /// logical offset *following* each interleaved line-version slot and must
    /// return the version byte to store there.
    pub fn build_phys(
        &self,
        lstart: usize,
        data: &[u8],
        mut line_ver: impl FnMut(usize) -> u8,
    ) -> (usize, Vec<u8>) {
        let prange = self.phys_range(lstart, lstart + data.len());
        let mut out = vec![0u8; prange.len()];
        let head = head_len(&prange);
        out[..head].copy_from_slice(&data[..head]);
        let mut at = head;
        let first_line = prange.start.div_ceil(LINE);
        for (k, line) in out[head..].chunks_mut(LINE).enumerate() {
            // The version slot guards the payload byte at logical position
            // line * LINE_PAYLOAD.
            line[0] = line_ver((first_line + k) * LINE_PAYLOAD);
            let n = line.len() - 1;
            line[1..].copy_from_slice(&data[at..at + n]);
            at += n;
        }
        debug_assert_eq!(at, data.len());
        (prange.start, out)
    }

    /// Writes logical range `[lstart, lstart+data.len())` with one WRITE.
    ///
    /// See [`Layout::build_phys`] for the `line_ver` contract.
    pub fn write(
        &self,
        ep: &mut Endpoint,
        node: GlobalAddr,
        lstart: usize,
        data: &[u8],
        line_ver: impl FnMut(usize) -> u8,
    ) {
        let (pstart, img) = self.build_phys(lstart, data, line_ver);
        ep.write(node.add(pstart as u64), &img);
    }

    /// Logical offsets (following positions) of the line-version slots that
    /// fall inside the physical range of logical `[lstart, lend)`, ascending.
    pub fn line_ver_slots(
        &self,
        lstart: usize,
        lend: usize,
    ) -> impl ExactSizeIterator<Item = usize> {
        let prange = self.phys_range(lstart, lend);
        (prange.start.div_ceil(LINE)..prange.end.div_ceil(LINE)).map(|line| line * LINE_PAYLOAD)
    }
}

/// Length of the payload-only head of physical range `prange`: the bytes before
/// its first line boundary. Every later line starts with its version byte.
#[inline]
fn head_len(prange: &Range<usize>) -> usize {
    ((LINE - prange.start % LINE) % LINE).min(prange.len())
}

/// The result of a versioned fetch, decoded once by [`Layout::from_raw`].
///
/// `buf` holds the logical bytes `[lstart, lend)` contiguously, followed by
/// the version byte of every line slot inside the physical fetch in line
/// order; the first of those slots heads line `first_line`.
pub struct Fetched {
    layout: Layout,
    lstart: usize,
    lend: usize,
    first_line: usize,
    buf: Vec<u8>,
}

impl Fetched {
    /// First logical offset covered.
    pub fn lstart(&self) -> usize {
        self.lstart
    }

    /// One past the last logical offset covered.
    pub fn lend(&self) -> usize {
        self.lend
    }

    /// The `len` logical bytes starting at absolute logical offset `l`.
    #[inline]
    fn bytes(&self, l: usize, len: usize) -> &[u8] {
        let o = l - self.lstart;
        &self.buf[..self.lend - self.lstart][o..o + len]
    }

    /// The version bytes of every line slot in the fetch, in line order.
    #[inline]
    fn versions(&self) -> &[u8] {
        &self.buf[self.lend - self.lstart..]
    }

    /// Returns the logical byte at absolute logical offset `l`.
    #[inline]
    pub fn get(&self, l: usize) -> u8 {
        self.bytes(l, 1)[0]
    }

    /// Copies `len` logical bytes starting at absolute logical offset `l`.
    #[inline]
    pub fn copy(&self, l: usize, len: usize) -> Vec<u8> {
        self.bytes(l, len).to_vec()
    }

    /// Reads a little-endian `u64` at absolute logical offset `l`.
    #[inline]
    pub fn u64_at(&self, l: usize) -> u64 {
        u64::from_le_bytes(self.bytes(l, 8).try_into().expect("8-byte slice"))
    }

    /// Reads a little-endian `u16` at absolute logical offset `l`.
    #[inline]
    pub fn u16_at(&self, l: usize) -> u16 {
        u16::from_le_bytes(self.bytes(l, 2).try_into().expect("2-byte slice"))
    }

    /// Version bytes of the line slots inside logical `[a, b)` (both bounds
    /// absolute, inside the fetch), i.e. the interleaved cache-line versions
    /// a reader must check for an object spanning that range.
    pub fn line_versions(&self, a: usize, b: usize) -> impl Iterator<Item = u8> + '_ {
        assert!(
            a >= self.lstart && b <= self.lend,
            "range outside the fetch"
        );
        let vers = self.versions();
        self.layout
            .line_ver_slots(a, b)
            .map(move |slot| vers[slot / LINE_PAYLOAD - self.first_line])
    }

    /// Checks that every version byte in the fetch (line slots plus the
    /// object-leading bytes at `object_leads`, absolute logical offsets)
    /// agrees on NV. Returns that NV on success.
    pub fn check_nv(&self, object_leads: impl IntoIterator<Item = usize>) -> Option<u8> {
        let mut nvs = self
            .versions()
            .iter()
            .copied()
            .chain(object_leads.into_iter().map(|l| self.get(l)))
            .map(nv);
        let first = nvs.next()?;
        nvs.all(|n| n == first).then_some(first)
    }

    /// Checks that the object spanning logical `[a, b)` with leading version
    /// byte at `a` is EV-consistent (no concurrent entry write observed).
    pub fn check_ev(&self, a: usize, b: usize) -> bool {
        let lead = ev(self.get(a));
        self.line_versions(a, b).all(|v| ev(v) == lead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Pool, RESERVED_BYTES};

    fn ep() -> Endpoint {
        Endpoint::new(Pool::with_defaults(1, 1 << 20))
    }

    #[test]
    fn nibble_ops() {
        let b = pack_ver(0xA, 0x5);
        assert_eq!(nv(b), 0xA);
        assert_eq!(ev(b), 0x5);
        assert_eq!(bump(0xF), 0);
        assert_eq!(bump(7), 8);
    }

    #[test]
    fn layout_geometry() {
        let l = Layout::new(63);
        assert_eq!(l.lines(), 1);
        assert_eq!(l.versioned_size(), 64);
        assert_eq!(l.lock_offset(), 64);
        assert_eq!(l.node_size(), 72);
        let l = Layout::new(64);
        assert_eq!(l.lines(), 2);
        assert_eq!(l.node_size(), 136);
    }

    #[test]
    fn phys_mapping_skips_version_bytes() {
        let l = Layout::new(200);
        assert_eq!(l.phys_of(0), 1);
        assert_eq!(l.phys_of(62), 63);
        assert_eq!(l.phys_of(63), 65); // next line, after its version byte
        assert_eq!(l.phys_of(126), 129);
    }

    #[test]
    fn write_then_fetch_roundtrip() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        let data: Vec<u8> = (0..200u8).collect();
        layout.write(&mut e, node, 40, &data, |_| pack_ver(3, 1));
        let f = layout.fetch(&mut e, node, 40, 240);
        assert_eq!(f.copy(40, 200), data);
        // All interleaved line versions must be what we wrote.
        for v in f.line_versions(40, 240) {
            assert_eq!(nv(v), 3);
            assert_eq!(ev(v), 1);
        }
    }

    #[test]
    fn u64_and_u16_accessors() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        let mut data = vec![0u8; 100];
        data[58..66].copy_from_slice(&0xDEAD_BEEF_1234_5678u64.to_le_bytes());
        data[0..2].copy_from_slice(&0xABCDu16.to_le_bytes());
        layout.write(&mut e, node, 0, &data, |_| 0);
        let f = layout.fetch(&mut e, node, 0, 100);
        assert_eq!(f.u64_at(58), 0xDEAD_BEEF_1234_5678); // straddles a line
        assert_eq!(f.u16_at(0), 0xABCD);
    }

    #[test]
    fn nv_check_detects_mixed_versions() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        let data = vec![7u8; 150];
        layout.write(&mut e, node, 0, &data, |_| pack_ver(2, 0));
        // Overwrite the second line only, with a different NV.
        layout.write(&mut e, node, 63, &[7u8; 63], |_| pack_ver(3, 0));
        let f = layout.fetch(&mut e, node, 0, 150);
        assert_eq!(f.check_nv([]), None);
        // A fetch confined to the second line is self-consistent.
        let f2 = layout.fetch(&mut e, node, 63, 126);
        assert_eq!(f2.check_nv([]), Some(3));
    }

    #[test]
    fn ev_check_detects_partial_entry_write() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        // An "entry" spanning logical [50, 90): leading version byte at 50,
        // one interleaved line version slot at logical 63.
        let mut entry = vec![1u8; 40];
        entry[0] = pack_ver(0, 4);
        layout.write(&mut e, node, 50, &entry, |_| pack_ver(0, 4));
        let f = layout.fetch(&mut e, node, 50, 90);
        assert!(f.check_ev(50, 90));
        // Simulate a torn write: the line version got bumped but the lead
        // byte has not (reader raced the writer).
        layout.write(&mut e, node, 63, &[1u8], |_| pack_ver(0, 5));
        let f = layout.fetch(&mut e, node, 50, 90);
        assert!(!f.check_ev(50, 90));
    }

    #[test]
    fn line_ver_slots_positions() {
        let layout = Layout::new(300);
        // A range starting on a line-payload boundary owns that line's slot.
        let slots = |a, b| layout.line_ver_slots(a, b).collect::<Vec<_>>();
        assert_eq!(slots(0, 63), vec![0]);
        // Range [0, 64) crosses into line 1: also the slot guarding 63.
        assert_eq!(slots(0, 64), vec![0, 63]);
        // A mid-line start does not own the slot before it.
        assert_eq!(slots(50, 130), vec![63, 126]);
        // A one-byte range on a line-payload boundary owns that line's slot.
        assert_eq!(slots(126, 127), vec![126]);
        assert!(slots(127, 128).is_empty());
    }

    /// Reference for the decoded accessors: the byte-wise `phys_of` view of
    /// physical image `phys` of logical `[lstart, lend)`.
    struct ByteWise<'a> {
        layout: Layout,
        pstart: usize,
        phys: &'a [u8],
    }

    impl ByteWise<'_> {
        fn get(&self, l: usize) -> u8 {
            self.phys[self.layout.phys_of(l) - self.pstart]
        }

        /// Line-version slots of `[a, b)`: every line start inside its
        /// physical range, found by scanning the lines it touches.
        fn slots(&self, a: usize, b: usize) -> Vec<usize> {
            let pstart = self.layout.phys_start(a);
            let pend = self.layout.phys_of(b - 1) + 1;
            (pstart / LINE..=(pend - 1) / LINE)
                .filter(|line| line * LINE >= pstart)
                .map(|line| line * LINE_PAYLOAD)
                .collect()
        }

        fn line_versions(&self, a: usize, b: usize) -> Vec<u8> {
            self.slots(a, b)
                .iter()
                .map(|slot| self.phys[slot / LINE_PAYLOAD * LINE - self.pstart])
                .collect()
        }
    }

    /// Draws a logical range of `payload`: one byte, starting on a
    /// line-payload boundary, or anywhere (often spanning many lines).
    fn pick_range(payload: usize, shape: u8, a: usize, len: usize) -> (usize, usize) {
        let a = a % payload;
        let (start, len) = match shape {
            0 => (a, 1),
            1 => (a / LINE_PAYLOAD * LINE_PAYLOAD, len),
            _ => (a, len),
        };
        (start, (start + len).min(payload))
    }

    proptest::proptest! {
        // Few cases under miri: the nightly job runs this crate's unit tests.
        #![proptest_config(proptest::test_runner::Config::with_cases(if cfg!(miri) { 6 } else { 48 }))]

        /// Every decoded accessor agrees with the byte-wise mapping, on
        /// images whose version bytes mostly agree (so both outcomes of
        /// the NV/EV checks occur).
        #[test]
        fn decoded_accessors_match_bytewise_mapping(
            geom in (1usize..700, 0u8..3, 0usize..700, 1usize..400),
            seed in proptest::arbitrary::any::<u64>(),
            tear in 0usize..12,
            sub in (0usize..700, 1usize..200),
        ) {
            let (payload, shape, a, len) = geom;
            let layout = Layout::new(payload);
            let (lstart, lend) = pick_range(payload, shape, a, len);
            let prange = layout.phys_range(lstart, lend);
            let mut x = seed | 1;
            let mut phys: Vec<u8> = (0..prange.len())
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            // Uniform line versions, except one torn slot when `tear` hits.
            for (k, p) in (prange.start.div_ceil(LINE) * LINE..prange.end).step_by(LINE).enumerate() {
                phys[p - prange.start] = if k == tear { pack_ver(3, 6) } else { pack_ver(2, 5) };
            }
            let lead = lstart + (sub.0 % (lend - lstart));
            if tear % 3 == 0 {
                phys[layout.phys_of(lead) - prange.start] = pack_ver(2, 5);
            }
            let f = layout.from_raw(lstart, lend, &phys);
            let r = ByteWise { layout, pstart: prange.start, phys: &phys };
            proptest::prop_assert_eq!((f.lstart(), f.lend()), (lstart, lend));
            for l in lstart..lend {
                proptest::prop_assert_eq!(f.get(l), r.get(l));
            }
            let want: Vec<u8> = (lstart..lend).map(|l| r.get(l)).collect();
            proptest::prop_assert_eq!(f.copy(lstart, lend - lstart), want);
            for l in lstart..lend.saturating_sub(7) {
                let b: Vec<u8> = (l..l + 8).map(|i| r.get(i)).collect();
                proptest::prop_assert_eq!(f.u64_at(l), u64::from_le_bytes(b.try_into().unwrap()));
            }
            for l in lstart..lend.saturating_sub(1) {
                proptest::prop_assert_eq!(f.u16_at(l), u16::from_le_bytes([r.get(l), r.get(l + 1)]));
            }
            // A sub-object [sa, sb) of the fetch, as an entry would be.
            let sa = lead;
            let sb = (sa + sub.1).min(lend);
            proptest::prop_assert_eq!(
                layout.line_ver_slots(sa, sb).collect::<Vec<_>>(),
                r.slots(sa, sb)
            );
            proptest::prop_assert_eq!(
                f.line_versions(sa, sb).collect::<Vec<_>>(),
                r.line_versions(sa, sb)
            );
            proptest::prop_assert_eq!(
                f.line_versions(lstart, lend).collect::<Vec<_>>(),
                r.line_versions(lstart, lend)
            );
            let mut all = r.line_versions(lstart, lend);
            all.push(r.get(lead));
            let want_nv = all.iter().all(|&v| nv(v) == nv(all[0])).then(|| nv(all[0]));
            proptest::prop_assert_eq!(f.check_nv([lead]), want_nv);
            let want_ev = r.line_versions(sa, sb).iter().all(|&v| ev(v) == ev(r.get(sa)));
            proptest::prop_assert_eq!(f.check_ev(sa, sb), want_ev);
        }

        /// `build_phys` interleaves exactly like the byte-wise mapping, and
        /// decoding its image with `from_raw` returns the data and versions.
        #[test]
        fn build_phys_roundtrips_through_from_raw(
            geom in (1usize..700, 0u8..3, 0usize..700, 1usize..400),
            seed in proptest::arbitrary::any::<u8>(),
        ) {
            let (payload, shape, a, len) = geom;
            let layout = Layout::new(payload);
            let (lstart, lend) = pick_range(payload, shape, a, len);
            let data: Vec<u8> = (lstart..lend).map(|l| (l as u8).wrapping_mul(31) ^ seed).collect();
            let ver = |slot: usize| (slot % 251) as u8 ^ seed;
            let (pstart, phys) = layout.build_phys(lstart, &data, ver);
            let prange = layout.phys_range(lstart, lend);
            proptest::prop_assert_eq!(pstart, prange.start);
            proptest::prop_assert_eq!(phys.len(), prange.len());
            let r = ByteWise { layout, pstart, phys: &phys };
            for l in lstart..lend {
                proptest::prop_assert_eq!(r.get(l), data[l - lstart]);
            }
            let slots = r.slots(lstart, lend);
            let vers: Vec<u8> = slots.iter().map(|&s| ver(s)).collect();
            proptest::prop_assert_eq!(r.line_versions(lstart, lend), vers.clone());
            let f = layout.from_raw(lstart, lend, &phys);
            proptest::prop_assert_eq!(f.copy(lstart, lend - lstart), data);
            proptest::prop_assert_eq!(f.line_versions(lstart, lend).collect::<Vec<_>>(), vers);
        }
    }

    #[test]
    fn fetch2_doorbell() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        layout.write(&mut e, node, 0, &[9u8; 20], |_| 0);
        layout.write(&mut e, node, 200, &[8u8; 20], |_| 0);
        let before = e.stats().rtts;
        let (f1, f2) = layout.fetch2(&mut e, node, (0, 20), (200, 220));
        assert_eq!(e.stats().rtts, before + 1);
        assert_eq!(f1.copy(0, 20), vec![9u8; 20]);
        assert_eq!(f2.copy(200, 20), vec![8u8; 20]);
    }
}
