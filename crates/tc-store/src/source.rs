//! Byte sources for segment page reads.
//!
//! A [`PageSource`] hands [`crate::page::PageFile`] the raw bytes of a
//! page; everything above it — CRC verification, header decoding, section
//! arithmetic — is backing-agnostic. Two implementations:
//!
//! - [`BufferedFileSource`]: positioned reads (`pread`) on an owned
//!   [`std::fs::File`], one syscall per read and no lock. Every read
//!   copies through the kernel; memory use is exactly the caller's
//!   buffers.
//! - [`MemSource`]: an in-memory image (tests, conversions).
//!
//! Integrity is unaffected by the backing: [`crate::page::PageFile::read_page`]
//! re-verifies each page's CRC-32 on every read, so a bit flip surfaces
//! as [`LoadError::Checksum`] whichever source the bytes arrived from.
//! See `docs/SEGMENT_FORMAT.md` for the on-disk layout.

use std::path::Path;
use tc_util::LoadError;

/// Random-access byte source a [`crate::page::PageFile`] reads pages from.
///
/// Implementations must be cheap to read concurrently; `read_at` fills
/// `buf` exactly from `off` or fails. Reads past `len()` are the caller's
/// bug — `PageFile` bounds-checks against `len()` before calling.
pub trait PageSource: Send + Sync + std::fmt::Debug {
    /// Total length in bytes.
    fn len(&self) -> u64;

    /// `true` when the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` with the bytes at `off..off + buf.len()`.
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), LoadError>;
}

/// Positioned reads (`pread`) on an owned file handle.
///
/// A read carries its own offset, so the handle has no cursor to guard:
/// concurrent reads neither lock nor wait on each other.
#[derive(Debug)]
pub struct BufferedFileSource {
    file: std::fs::File,
    len: u64,
}

impl BufferedFileSource {
    /// Opens `path` read-only.
    pub fn open(path: &Path) -> Result<BufferedFileSource, LoadError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(BufferedFileSource { file, len })
    }
}

impl PageSource for BufferedFileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), LoadError> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)?;
        Ok(())
    }
}

/// An in-memory segment image.
#[derive(Debug)]
pub struct MemSource(pub Vec<u8>);

impl PageSource for MemSource {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), LoadError> {
        let start = off as usize;
        let end = start
            .checked_add(buf.len())
            .filter(|&e| e <= self.0.len())
            .ok_or_else(|| LoadError::corrupt("segment: read past end of image"))?;
        buf.copy_from_slice(&self.0[start..end]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(bytes: &[u8]) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "tc-source-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&p, bytes).unwrap();
        p
    }

    #[test]
    fn buffered_source_reads_exact_bytes() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let path = tmp_file(&data);
        let src = BufferedFileSource::open(&path).unwrap();
        assert_eq!(src.len(), data.len() as u64);
        let mut buf = vec![0u8; 1000];
        for off in [0u64, 1, 4095, 4096, 8999] {
            src.read_at(off, &mut buf).unwrap();
            assert_eq!(
                buf,
                &data[off as usize..off as usize + 1000],
                "read at {off}"
            );
        }
        // Past-end reads fail rather than over-read.
        assert!(src.read_at(data.len() as u64 - 10, &mut buf).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_and_rejects_reads() {
        let path = tmp_file(&[]);
        let src = BufferedFileSource::open(&path).unwrap();
        assert_eq!(src.len(), 0);
        assert!(src.is_empty());
        let mut one = [0u8; 1];
        assert!(src.read_at(0, &mut one).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_source_bounds_checked() {
        let src = MemSource(vec![1, 2, 3, 4]);
        let mut buf = [0u8; 2];
        src.read_at(1, &mut buf).unwrap();
        assert_eq!(buf, [2, 3]);
        assert!(src.read_at(3, &mut buf).is_err());
        assert!(src.read_at(u64::MAX, &mut buf).is_err());
    }
}
