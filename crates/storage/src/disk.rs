//! Page stores: where pages live when they are not in the buffer.
//!
//! [`MemoryDisk`] keeps all pages in memory and is the default for
//! experiments (the paper's I/O cost is *simulated* by charging a fixed
//! penalty per buffer fault, so the pages themselves need not touch a real
//! device). [`FileDisk`] persists pages to a real file for users who want an
//! actual on-disk adjacency file.

use crate::error::StorageError;
use crate::page::{Page, PageId, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Bytes one page occupies in a [`FileDisk`] file: an 8-byte used-length
/// header followed by the page padded to [`PAGE_SIZE`].
const SLOT_BYTES: usize = PAGE_SIZE + 8;

/// Abstract page store.
///
/// `Sync` is a supertrait so a [`crate::PagedGraph`] built on any store can
/// be shared across query worker threads.
pub trait PageStore: Sync {
    /// Number of pages in the store.
    fn num_pages(&self) -> usize;

    /// Reads page `page` from the store.
    fn read_page(&self, page: PageId) -> Result<Page, StorageError>;
}

/// An in-memory simulated disk.
#[derive(Clone, Debug, Default)]
pub struct MemoryDisk {
    pages: Vec<Page>,
}

impl MemoryDisk {
    /// Creates a store from already-built pages.
    pub fn new(pages: Vec<Page>) -> Self {
        MemoryDisk { pages }
    }
}

impl PageStore for MemoryDisk {
    fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn read_page(&self, page: PageId) -> Result<Page, StorageError> {
        self.pages
            .get(page.index())
            .cloned()
            .ok_or(StorageError::PageOutOfBounds { page, num_pages: self.pages.len() })
    }
}

/// A file-backed page store. Every page occupies one fixed-size slot on
/// disk: 8 bytes storing the used length, then the page padded to
/// [`PAGE_SIZE`] bytes.
///
/// Reads are positional (`pread`): no seek, no shared file cursor and hence
/// no lock, so faults of different buffer shards read concurrently.
#[derive(Debug)]
pub struct FileDisk {
    file: File,
    num_pages: usize,
}

impl FileDisk {
    /// Writes `pages` to `path` (truncating any existing file) and opens the
    /// resulting store.
    pub fn create<P: AsRef<Path>>(path: P, pages: &[Page]) -> Result<Self, StorageError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let mut slot = vec![0u8; SLOT_BYTES];
        for page in pages {
            let used = page.used_bytes();
            slot[..8].copy_from_slice(&(used as u64).to_le_bytes());
            slot[8..8 + used].copy_from_slice(page.as_bytes());
            slot[8 + used..].fill(0);
            file.write_all(&slot)?;
        }
        file.flush()?;
        Ok(FileDisk { file, num_pages: pages.len() })
    }

    /// Opens an existing page file previously written by
    /// [`FileDisk::create`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        let file = OpenOptions::new().read(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        if !len.is_multiple_of(SLOT_BYTES) {
            return Err(StorageError::Io(format!(
                "page file length {len} is not a multiple of the slot size {SLOT_BYTES}"
            )));
        }
        Ok(FileDisk { file, num_pages: len / SLOT_BYTES })
    }
}

impl PageStore for FileDisk {
    fn num_pages(&self) -> usize {
        self.num_pages
    }

    fn read_page(&self, page: PageId) -> Result<Page, StorageError> {
        if page.index() >= self.num_pages {
            return Err(StorageError::PageOutOfBounds { page, num_pages: self.num_pages });
        }
        // One positional read of the whole slot (header and page), then one
        // copy of the used bytes into the shared page buffer.
        let mut slot = [0u8; SLOT_BYTES];
        self.file.read_exact_at(&mut slot, page.index() as u64 * SLOT_BYTES as u64)?;
        let (header, body) = slot.split_at(8);
        let used = u64::from_le_bytes(header.try_into().expect("8-byte header")) as usize;
        if used > PAGE_SIZE {
            return Err(StorageError::CorruptPage {
                page,
                message: format!("recorded length {used} exceeds the page size"),
            });
        }
        Page::from_bytes(&body[..used])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageBuilder, PageEntry};
    use rnn_graph::{EdgeId, NodeId, Weight};

    fn sample_pages() -> Vec<Page> {
        let mut pages = Vec::new();
        for i in 0..3u32 {
            let mut b = PageBuilder::new();
            b.push_record(
                NodeId(i),
                &[PageEntry {
                    neighbor: NodeId(i + 1),
                    edge: EdgeId(i),
                    weight: Weight::new(1.0 + i as f64),
                }],
            )
            .unwrap();
            pages.push(b.build());
        }
        pages
    }

    #[test]
    fn memory_disk_round_trips_pages() {
        let pages = sample_pages();
        let disk = MemoryDisk::new(pages.clone());
        assert_eq!(disk.num_pages(), 3);
        for (i, expected) in pages.iter().enumerate() {
            let got = disk.read_page(PageId::new(i)).unwrap();
            assert_eq!(&got, expected);
        }
        assert!(matches!(
            disk.read_page(PageId::new(9)),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn file_disk_round_trips_pages() {
        let dir = std::env::temp_dir().join(format!("rnn_storage_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");

        let pages = sample_pages();
        let disk = FileDisk::create(&path, &pages).unwrap();
        assert_eq!(disk.num_pages(), 3);
        for (i, expected) in pages.iter().enumerate() {
            let got = disk.read_page(PageId::new(i)).unwrap();
            assert_eq!(
                got.records(PageId::new(i)).unwrap(),
                expected.records(PageId::new(i)).unwrap()
            );
        }
        assert!(disk.read_page(PageId::new(3)).is_err());

        // reopen and read again
        drop(disk);
        let reopened = FileDisk::open(&path).unwrap();
        assert_eq!(reopened.num_pages(), 3);
        let got = reopened.read_page(PageId::new(1)).unwrap();
        assert_eq!(got.records(PageId::new(1)).unwrap().len(), 1);

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn file_disk_rejects_malformed_files() {
        let dir = std::env::temp_dir().join(format!("rnn_storage_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(FileDisk::open(&path).is_err());

        // A slot whose recorded length exceeds the page size fails alone:
        // its neighbours still read back as written.
        let pages = sample_pages();
        let disk = FileDisk::create(&path, &pages).unwrap();
        let raw = OpenOptions::new().write(true).open(&path).unwrap();
        for used in [PAGE_SIZE as u64 + 1, u64::MAX] {
            raw.write_all_at(&used.to_le_bytes(), SLOT_BYTES as u64).unwrap();
            assert!(matches!(
                disk.read_page(PageId(1)),
                Err(StorageError::CorruptPage { page: PageId(1), .. })
            ));
            for i in [0, 2] {
                assert_eq!(disk.read_page(PageId::new(i)).unwrap(), pages[i], "pg{i}");
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
