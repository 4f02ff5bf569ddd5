//! The paged segment substrate: fixed-size CRC-checked pages, a
//! checksummed header page, and section-addressed byte streams.
//!
//! The normative byte-level specification, with worked hexdumps, is
//! `docs/SEGMENT_FORMAT.md` in the repository; this module is its
//! implementation.
//!
//! ## File layout
//!
//! A segment file is a sequence of fixed-size pages ([`PAGE_SIZE`] bytes).
//! Every page is self-checking:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length (LE u32, ≤ PAGE_CAP)
//! 4       4     CRC-32 over the whole page except this field
//! 8       len   payload
//! 8+len   …     zero padding to PAGE_SIZE
//! ```
//!
//! The checksum covers the length field *and* the padding, so any bit flip
//! anywhere in the file lands in some page's checksummed region.
//!
//! Page 0 is the **header page**. Its payload is:
//!
//! ```text
//! magic "TCSEG01\n" (8 bytes) · version u16 · kind u16 · page_size u32
//! section_count u32 · per section: id u32, first_page u64,
//! page_count u64, byte_len u64
//! ```
//!
//! Each **section** is a logical byte stream chunked into consecutive
//! pages: every page holds exactly [`PAGE_CAP`] payload bytes except the
//! last, so byte offset → page arithmetic is a division. Readers fetch
//! sub-ranges of a section without touching the rest of the file — the
//! basis of the lazy TC-Tree reader in [`crate::tree`].

use crate::source::{BufferedFileSource, MemSource, PageSource};
use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use tc_util::bytes::{checked_len_u32, put_u16, put_u32, put_u64, ByteReader};
use tc_util::{Crc32, LoadError};

/// Bytes per page, header included.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of page bookkeeping (payload length + CRC-32).
pub const PAGE_HEADER: usize = 8;
/// Payload capacity of one page.
pub const PAGE_CAP: usize = PAGE_SIZE - PAGE_HEADER;
/// The 8-byte magic prefix of every segment file (also the sniffing key).
pub const MAGIC: [u8; 8] = *b"TCSEG01\n";

/// What a segment file stores, recorded in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A [`tc_core::DatabaseNetwork`].
    Network,
    /// A [`tc_index::TcTree`].
    TcTree,
}

impl SegmentKind {
    fn code(self) -> u16 {
        match self {
            SegmentKind::Network => 1,
            SegmentKind::TcTree => 2,
        }
    }

    /// The format version this build writes, and the only one it reads.
    fn version(self) -> u16 {
        match self {
            SegmentKind::Network => 1,
            SegmentKind::TcTree => 3,
        }
    }

    fn from_code(code: u16) -> Option<SegmentKind> {
        match code {
            1 => Some(SegmentKind::Network),
            2 => Some(SegmentKind::TcTree),
            _ => None,
        }
    }
}

/// One section's location and extent, from the header page.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Format-defined section id (see [`crate::network`] / [`crate::tree`]).
    pub id: u32,
    /// First page of the section.
    pub first_page: u64,
    /// Number of pages the section spans.
    pub page_count: u64,
    /// Logical byte length of the section stream.
    pub byte_len: u64,
}

/// The decoded header page.
#[derive(Debug, Clone)]
pub struct Header {
    /// What the file stores.
    pub kind: SegmentKind,
    /// Sections in file order.
    pub sections: Vec<SectionInfo>,
}

impl Header {
    /// Finds a section by id.
    pub fn section(&self, id: u32) -> Result<SectionInfo, LoadError> {
        self.sections
            .iter()
            .copied()
            .find(|s| s.id == id)
            .ok_or_else(|| LoadError::corrupt(format!("segment: missing section {id}")))
    }
}

/// Pages a section of `byte_len` bytes occupies.
fn pages_for(byte_len: u64) -> u64 {
    byte_len.div_ceil(PAGE_CAP as u64)
}

/// Encodes one page: length, checksum, payload, zero padding.
///
/// The length field is `u32`, so the payload size goes through a checked
/// conversion: an oversized payload is a save-time `InvalidInput` error,
/// never a silently wrapped length that would read back corrupt.
fn encode_page(payload: &[u8]) -> std::io::Result<[u8; PAGE_SIZE]> {
    // The capacity check comes first: it subsumes the u32 range (PAGE_CAP
    // is far below u32::MAX) and names the real limit in its error.
    if payload.len() > PAGE_CAP {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "page payload of {} bytes exceeds the {PAGE_CAP}-byte page capacity",
                payload.len()
            ),
        ));
    }
    let len = checked_len_u32(payload.len(), "page payload length")?;
    let mut page = [0u8; PAGE_SIZE];
    page[..4].copy_from_slice(&len.to_le_bytes());
    page[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
    let mut crc = Crc32::new();
    crc.update(&page[..4]);
    crc.update(&page[PAGE_HEADER..]);
    page[4..8].copy_from_slice(&crc.finish().to_le_bytes());
    Ok(page)
}

/// Writes a complete segment file: header page, then every section chunked
/// into pages. `sections` pairs a section id with its byte stream.
pub fn write_segment<W: Write>(
    w: &mut W,
    kind: SegmentKind,
    sections: &[(u32, Vec<u8>)],
) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(PAGE_CAP);
    header.extend_from_slice(&MAGIC);
    put_u16(&mut header, kind.version());
    put_u16(&mut header, kind.code());
    put_u32(&mut header, PAGE_SIZE as u32);
    put_u32(
        &mut header,
        checked_len_u32(sections.len(), "section count")?,
    );
    let mut next_page = 1u64;
    for (id, bytes) in sections {
        put_u32(&mut header, *id);
        put_u64(&mut header, next_page);
        let pages = pages_for(bytes.len() as u64);
        put_u64(&mut header, pages);
        put_u64(&mut header, bytes.len() as u64);
        next_page += pages;
    }
    assert!(header.len() <= PAGE_CAP, "header exceeds one page");

    let mut w = std::io::BufWriter::new(w);
    w.write_all(&encode_page(&header)?)?;
    // An empty section spans zero pages; the header records byte_len 0.
    for (_, bytes) in sections {
        for chunk in bytes.chunks(PAGE_CAP) {
            w.write_all(&encode_page(chunk)?)?;
        }
    }
    w.flush()
}

/// Checks the raw bytes of page `index` — checksum, then length field —
/// and returns the payload within them.
fn verified_payload(index: u64, page: &[u8; PAGE_SIZE]) -> Result<&[u8], LoadError> {
    let stored = u32::from_le_bytes([page[4], page[5], page[6], page[7]]);
    let mut crc = Crc32::new();
    crc.update(&page[..4]);
    crc.update(&page[PAGE_HEADER..]);
    if crc.finish() != stored {
        return Err(LoadError::checksum(format!("segment: page {index}")));
    }
    let len = u32::from_le_bytes([page[0], page[1], page[2], page[3]]) as usize;
    if len > PAGE_CAP {
        return Err(LoadError::corrupt(format!(
            "segment: page {index} claims {len} payload bytes"
        )));
    }
    Ok(&page[PAGE_HEADER..PAGE_HEADER + len])
}

/// Random-access page reader over a segment file (or an in-memory copy).
///
/// Every page read re-verifies that page's CRC, so damage in regions that
/// are only touched lazily still surfaces as [`LoadError::Checksum`] at
/// access time — regardless of the [`PageSource`] backing the reads;
/// [`PageFile::open`] additionally validates the header page and the
/// file's total length eagerly, so truncation is caught up front.
#[derive(Debug)]
pub struct PageFile {
    source: Box<dyn PageSource>,
    header: Header,
}

impl PageFile {
    /// Opens `path`, validating the header page, section geometry, and
    /// the total file length.
    pub fn open(path: &Path) -> Result<PageFile, LoadError> {
        Self::with_source(Box::new(BufferedFileSource::open(path)?))
    }

    /// Opens an in-memory segment image (tests, conversions).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<PageFile, LoadError> {
        Self::with_source(Box::new(MemSource(bytes)))
    }

    fn with_source(source: Box<dyn PageSource>) -> Result<PageFile, LoadError> {
        let actual_len = source.len();
        let mut pf = PageFile {
            source,
            header: Header {
                kind: SegmentKind::Network,
                sections: Vec::new(),
            },
        };
        pf.header = pf.read_header()?;
        // Geometry: sections must tile pages 1.. contiguously, and the file
        // must contain exactly the promised pages — truncation anywhere is
        // caught here, before any lazy read.
        let mut next_page = 1u64;
        for s in &pf.header.sections {
            if s.first_page != next_page {
                return Err(LoadError::corrupt(format!(
                    "segment: section {} starts at page {} (want {next_page})",
                    s.id, s.first_page
                )));
            }
            if s.page_count != pages_for(s.byte_len) {
                return Err(LoadError::corrupt(format!(
                    "segment: section {} spans {} pages for {} bytes",
                    s.id, s.page_count, s.byte_len
                )));
            }
            next_page += s.page_count;
        }
        let expect_len = next_page * PAGE_SIZE as u64;
        if actual_len != expect_len {
            return Err(LoadError::corrupt(format!(
                "segment: file is {actual_len} bytes, header promises {expect_len}"
            )));
        }
        Ok(pf)
    }

    /// The decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Fills `page` with the raw bytes of page `index`, unverified.
    fn read_raw_page(&self, index: u64, page: &mut [u8; PAGE_SIZE]) -> Result<(), LoadError> {
        let off = index * PAGE_SIZE as u64;
        if off
            .checked_add(PAGE_SIZE as u64)
            .is_none_or(|end| end > self.source.len())
        {
            return Err(LoadError::corrupt(format!(
                "segment: page {index} truncated"
            )));
        }
        self.source.read_at(off, page).map_err(|e| match e {
            LoadError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                LoadError::corrupt(format!("segment: page {index} truncated"))
            }
            other => other,
        })
    }

    /// Reads page `index` into `page` and returns its verified payload — a
    /// borrow of `page`, so a caller reading many pages reuses one buffer
    /// and copies only what it keeps.
    fn read_verified<'a>(
        &self,
        index: u64,
        page: &'a mut [u8; PAGE_SIZE],
    ) -> Result<&'a [u8], LoadError> {
        self.read_raw_page(index, page)?;
        verified_payload(index, page)
    }

    /// Reads and checksum-verifies page `index`, returning its payload.
    pub fn read_page(&self, index: u64) -> Result<Vec<u8>, LoadError> {
        let mut page = [0u8; PAGE_SIZE];
        Ok(self.read_verified(index, &mut page)?.to_vec())
    }

    fn read_header(&self) -> Result<Header, LoadError> {
        // Sniff the magic before trusting the page checksum, so a non-
        // segment file reports "not a segment" instead of a CRC error.
        let mut page = [0u8; PAGE_SIZE];
        self.read_raw_page(0, &mut page)?;
        if page[PAGE_HEADER..PAGE_HEADER + MAGIC.len()] != MAGIC {
            return Err(LoadError::corrupt("segment: bad magic (not a tcseg file)"));
        }
        let payload = verified_payload(0, &page)?;
        let mut r = ByteReader::new(payload);
        let eof = || LoadError::corrupt("segment: header page too short");
        r.take(MAGIC.len()).ok_or_else(eof)?;
        let version = r.u16().ok_or_else(eof)?;
        let kind_code = r.u16().ok_or_else(eof)?;
        let kind = SegmentKind::from_code(kind_code)
            .ok_or_else(|| LoadError::corrupt(format!("segment: unknown kind {kind_code}")))?;
        let want = kind.version();
        if version != want {
            let (what, redo) = match kind {
                SegmentKind::TcTree => ("TC-Tree", "re-index from text with `tc index`"),
                SegmentKind::Network => ("network", "re-convert from text with `tc convert`"),
            };
            return Err(LoadError::corrupt(format!(
                "segment: version skew: {what} segment is v{version}, this build reads v{want}; {redo}"
            )));
        }
        let page_size = r.u32().ok_or_else(eof)?;
        if page_size as usize != PAGE_SIZE {
            return Err(LoadError::corrupt(format!(
                "segment: page size {page_size} unsupported (want {PAGE_SIZE})"
            )));
        }
        let count = r.u32().ok_or_else(eof)?;
        // The header fits one page, which bounds the section count; reject
        // absurd counts before allocating.
        if count as usize > PAGE_CAP / 28 {
            return Err(LoadError::corrupt(
                "segment: section table overflows header",
            ));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            sections.push(SectionInfo {
                id: r.u32().ok_or_else(eof)?,
                first_page: r.u64().ok_or_else(eof)?,
                page_count: r.u64().ok_or_else(eof)?,
                byte_len: r.u64().ok_or_else(eof)?,
            });
        }
        if !r.is_empty() {
            return Err(LoadError::corrupt("segment: trailing bytes in header"));
        }
        Ok(Header { kind, sections })
    }

    /// Reads `len` bytes of section `s` starting at logical offset `start`,
    /// touching (and verifying) only the pages that overlap the range.
    pub fn read_section_range(
        &self,
        s: &SectionInfo,
        start: u64,
        len: u64,
    ) -> Result<Vec<u8>, LoadError> {
        Ok(self
            .read_range(s, start, len, &mut PageCursor::new())?
            .into_owned())
    }

    /// Reads a whole section.
    pub fn read_section(&self, s: &SectionInfo) -> Result<Vec<u8>, LoadError> {
        self.read_section_range(s, 0, s.byte_len)
    }

    /// The `len` bytes of section `s` at `start`, every page read through
    /// `cursor`: borrowed from its page if they lie on one, and else
    /// gathered into a copy, page by page, leaving the cursor on the
    /// range's last page — where the next range in file order starts.
    pub(crate) fn read_range<'c>(
        &self,
        s: &SectionInfo,
        start: u64,
        len: u64,
        cursor: &'c mut PageCursor,
    ) -> Result<Cow<'c, [u8]>, LoadError> {
        let end = start
            .checked_add(len)
            .filter(|&e| e <= s.byte_len)
            .ok_or_else(|| {
                LoadError::corrupt(format!(
                    "segment: range {start}+{len} outside section {} ({} bytes)",
                    s.id, s.byte_len
                ))
            })?;
        if len == 0 {
            return Ok(Cow::Borrowed(&[]));
        }
        let cap = PAGE_CAP as u64;
        let (first, last) = (start / cap, (end - 1) / cap);
        // The slice of page `p` the range covers, as payload offsets.
        let span = |p: u64| {
            let lo = start.max(p * cap) - p * cap;
            let hi = end.min((p + 1) * cap) - p * cap;
            (lo as usize, hi as usize)
        };
        if first == last {
            let (lo, hi) = span(first);
            let page = self.hold(s.first_page + first, hi, cursor)?;
            return Ok(Cow::Borrowed(&page[lo..hi]));
        }
        let mut gathered = Vec::with_capacity(len as usize);
        for p in first..=last {
            let (lo, hi) = span(p);
            gathered.extend_from_slice(&self.hold(s.first_page + p, hi, cursor)?[lo..hi]);
        }
        Ok(Cow::Owned(gathered))
    }

    /// Makes `cursor` hold page `index` — read and verified unless it
    /// already does — and returns its payload, which must have at least
    /// `need` bytes.
    fn hold<'c>(
        &self,
        index: u64,
        need: usize,
        cursor: &'c mut PageCursor,
    ) -> Result<&'c [u8], LoadError> {
        let payload = match cursor.held {
            Some((held, payload)) if held == index => payload,
            _ => {
                cursor.held = None;
                let payload = self.read_verified(index, &mut cursor.page)?.len();
                cursor.held = Some((index, payload));
                payload
            }
        };
        if need > payload {
            return Err(LoadError::corrupt(format!(
                "segment: page {index} too short"
            )));
        }
        Ok(&cursor.page[PAGE_HEADER..PAGE_HEADER + payload])
    }
}

/// One verified page a query (or an open's directory read) holds across
/// its reads (see [`PageFile::read_range`]); never shared between them,
/// so each page it holds was read from disk and verified by its reader.
pub(crate) struct PageCursor {
    /// The page held and its payload length, once one has loaded.
    held: Option<(u64, usize)>,
    page: [u8; PAGE_SIZE],
}

impl PageCursor {
    pub(crate) fn new() -> PageCursor {
        PageCursor {
            held: None,
            page: [0; PAGE_SIZE],
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn roundtrip(sections: &[(u32, Vec<u8>)]) -> PageFile {
        let mut buf = Vec::new();
        write_segment(&mut buf, SegmentKind::Network, sections).unwrap();
        assert_eq!(buf.len() % PAGE_SIZE, 0, "whole pages only");
        PageFile::from_bytes(buf).unwrap()
    }

    #[test]
    fn empty_and_multi_page_sections_roundtrip() {
        let big: Vec<u8> = (0..3 * PAGE_CAP + 17).map(|i| (i % 251) as u8).collect();
        let pf = roundtrip(&[(1, Vec::new()), (2, b"abc".to_vec()), (3, big.clone())]);
        assert_eq!(pf.header().kind, SegmentKind::Network);
        let s1 = pf.header().section(1).unwrap();
        assert_eq!(pf.read_section(&s1).unwrap(), Vec::<u8>::new());
        let s3 = pf.header().section(3).unwrap();
        assert_eq!(pf.read_section(&s3).unwrap(), big);
    }

    #[test]
    fn section_range_reads_cross_page_boundaries() {
        let data: Vec<u8> = (0..2 * PAGE_CAP + 100).map(|i| (i % 199) as u8).collect();
        let pf = roundtrip(&[(7, data.clone())]);
        let s = pf.header().section(7).unwrap();
        for (start, len) in [
            (0u64, 10u64),
            (PAGE_CAP as u64 - 3, 7),
            (PAGE_CAP as u64, PAGE_CAP as u64),
            (data.len() as u64 - 5, 5),
        ] {
            let got = pf.read_section_range(&s, start, len).unwrap();
            assert_eq!(got, data[start as usize..(start + len) as usize]);
        }
        assert!(pf.read_section_range(&s, data.len() as u64, 1).is_err());
    }

    /// A [`MemSource`] that logs the index of every page read from it.
    #[derive(Debug)]
    struct CountingSource {
        image: MemSource,
        reads: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl PageSource for CountingSource {
        fn len(&self) -> u64 {
            self.image.len()
        }

        fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), LoadError> {
            self.reads.lock().unwrap().push(off / PAGE_SIZE as u64);
            self.image.read_at(off, buf)
        }
    }

    /// Opens `image` over a [`CountingSource`]; returns the file and its
    /// read log.
    pub(crate) fn counted(
        image: Vec<u8>,
    ) -> (PageFile, std::sync::Arc<std::sync::Mutex<Vec<u64>>>) {
        let reads = std::sync::Arc::default();
        let source = CountingSource {
            image: MemSource(image),
            reads: std::sync::Arc::clone(&reads),
        };
        (PageFile::with_source(Box::new(source)).unwrap(), reads)
    }

    /// A segment of one section tiled by blobs, most of which straddle a
    /// page boundary and one of which spans three pages; returns its
    /// image, the section bytes and the blob extents in file order.
    fn straddling_blobs() -> (Vec<u8>, Vec<u8>, Vec<(u64, u64)>) {
        let lens = [1_000u64, 3_500, 4_100, 8_999, 50, 2_600, 4_088, 7];
        let data: Vec<u8> = (0..lens.iter().sum::<u64>())
            .map(|i| (i * 7 % 253) as u8)
            .collect();
        let mut image = Vec::new();
        write_segment(&mut image, SegmentKind::TcTree, &[(1, data.clone())]).unwrap();
        let blobs = lens
            .iter()
            .scan(0, |off, &len| {
                *off += len;
                Some((*off - len, len))
            })
            .collect();
        (image, data, blobs)
    }

    #[test]
    fn a_walk_over_straddling_blobs_reads_each_page_once() {
        let (image, data, blobs) = straddling_blobs();
        let (pf, reads) = counted(image);
        let s = pf.header().section(1).unwrap();
        let mut cursor = PageCursor::new();
        for &(start, len) in &blobs {
            let got = pf.read_range(&s, start, len, &mut cursor).unwrap();
            assert_eq!(*got, data[start as usize..(start + len) as usize]);
        }
        // Page 0 is the header, read at open.
        let every_page: Vec<u64> = (0..=s.page_count).collect();
        assert_eq!(*reads.lock().unwrap(), every_page);
    }

    #[test]
    fn a_flip_in_a_straddling_blobs_second_page_is_a_checksum_error() {
        let (mut image, _, blobs) = straddling_blobs();
        // Blob 1 runs from page 1 (the section's first) into page 2.
        let (start, len) = blobs[1];
        assert_eq!(
            (start / PAGE_CAP as u64, (start + len) / PAGE_CAP as u64),
            (0, 1)
        );
        image[2 * PAGE_SIZE + PAGE_HEADER + 10] ^= 0x04;
        let (pf, _) = counted(image);
        let s = pf.header().section(1).unwrap();
        let mut cursor = PageCursor::new();
        pf.read_range(&s, blobs[0].0, blobs[0].1, &mut cursor)
            .unwrap();
        let err = pf.read_range(&s, start, len, &mut cursor).unwrap_err();
        assert!(matches!(err, LoadError::Checksum(_)), "{err}");
    }

    #[test]
    fn missing_section_is_corrupt() {
        let pf = roundtrip(&[(1, b"x".to_vec())]);
        assert!(matches!(pf.header().section(9), Err(LoadError::Corrupt(_))));
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let mut buf = Vec::new();
        write_segment(
            &mut buf,
            SegmentKind::TcTree,
            &[(1, (0..500u32).flat_map(u32::to_le_bytes).collect())],
        )
        .unwrap();
        // Flip one bit at a spread of positions, including padding and the
        // checksum fields themselves.
        let step = (buf.len() / 61).max(1);
        for pos in (0..buf.len()).step_by(step) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            let damaged = (|| {
                let pf = PageFile::from_bytes(bad)?;
                let s = pf.header().section(1)?;
                pf.read_section(&s)?;
                Ok::<(), LoadError>(())
            })();
            assert!(damaged.is_err(), "flip at byte {pos} undetected");
        }
    }

    #[test]
    fn truncation_is_caught_at_open() {
        let mut buf = Vec::new();
        write_segment(
            &mut buf,
            SegmentKind::Network,
            &[(1, vec![9u8; PAGE_CAP * 2])],
        )
        .unwrap();
        for cut in [0, 1, PAGE_SIZE - 1, PAGE_SIZE, buf.len() - 1] {
            assert!(
                PageFile::from_bytes(buf[..cut].to_vec()).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn oversized_page_payload_is_a_save_time_error_not_a_wrap() {
        // Regression: the length field used to be written with a bare
        // `as u32`; an oversized payload must now surface as InvalidInput
        // at save time, never as a wrapped length read back corrupt.
        let err = encode_page(&vec![0u8; PAGE_CAP + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("page capacity"), "{err}");
        assert_eq!(encode_page(&vec![7u8; PAGE_CAP]).unwrap().len(), PAGE_SIZE);
    }

    #[test]
    fn non_segment_bytes_report_bad_magic() {
        let err = PageFile::from_bytes(vec![0u8; PAGE_SIZE]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let err = PageFile::from_bytes(b"dbnet v1\n".to_vec()).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt(_)));
    }
}
