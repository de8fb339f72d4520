//! The page store: slotted pages, page stores, the buffer pool, and heap
//! files. The buffer experiment (C3, `c3_buffer_spatial`) drives it
//! directly; a [`crate::db::Database`] keeps its rows in memory-resident
//! copy-on-write partitions instead, and persistence of a whole database
//! is handled by [`crate::snapshot`], which serializes the logical state.

pub mod buffer;
pub mod heap;
pub mod page;
pub mod store;

pub use buffer::{BufferPool, BufferStats, EvictionPolicy};
pub use heap::{HeapFile, RecordId};
pub use page::{SlottedPage, SlottedPageRef, MAX_RECORD, PAGE_SIZE};
pub use store::{AnyStore, FileStore, MemStore, PageId, PageStore};
