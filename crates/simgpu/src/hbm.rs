//! Page-granular physical HBM allocation (`cuMemCreate` analogue).

#![expect(
    clippy::disallowed_types,
    reason = "physical-handle table: keyed lookup only"
)]

use std::collections::HashMap;

use crate::error::GpuError;
use crate::Result;

/// Physical allocation granularity: 2 MiB, matching the CUDA VMM minimum
/// granularity on data-center GPUs.
pub const PAGE_SIZE: u64 = 2 * 1024 * 1024;

/// An opaque handle to a physical HBM allocation (`CUmemGenericAllocationHandle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysHandle(pub u64);

#[derive(Debug, Clone)]
struct PhysAlloc {
    pages: u32,
}

/// The physical HBM of one GPU, allocated in [`PAGE_SIZE`] pages.
///
/// Physical pages need not be contiguous (the VMM maps them wherever asked),
/// so the pool tracks only page counts — physical HBM never fragments.
#[derive(Debug, Clone)]
pub struct HbmPool {
    total_pages: u64,
    free_pages: u64,
    next_handle: u64,
    allocs: HashMap<PhysHandle, PhysAlloc>,
}

impl HbmPool {
    /// Creates a pool with `capacity_bytes` of HBM, rounded down to whole
    /// pages.
    pub fn new(capacity_bytes: u64) -> Self {
        let total_pages = capacity_bytes / PAGE_SIZE;
        HbmPool {
            total_pages,
            free_pages: total_pages,
            next_handle: 1,
            allocs: HashMap::new(),
        }
    }

    /// Allocates physical memory for at least `bytes`, rounded up to page
    /// granularity (`cuMemCreate`).
    pub fn mem_create(&mut self, bytes: u64) -> Result<PhysHandle> {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        if pages > self.free_pages {
            return Err(GpuError::OutOfMemory {
                requested: pages * PAGE_SIZE,
                free: self.free_pages * PAGE_SIZE,
            });
        }
        self.free_pages -= pages;
        let handle = PhysHandle(self.next_handle);
        self.next_handle += 1;
        self.allocs.insert(
            handle,
            PhysAlloc {
                pages: pages as u32,
            },
        );
        Ok(handle)
    }

    /// Releases a physical allocation (`cuMemRelease`).
    ///
    /// The caller (the device layer) must ensure the handle is unmapped.
    pub fn mem_release(&mut self, handle: PhysHandle) -> Result<()> {
        let alloc = self.allocs.remove(&handle).ok_or(GpuError::InvalidHandle)?;
        self.free_pages += alloc.pages as u64;
        Ok(())
    }

    /// Size of an allocation in bytes.
    pub fn size_of(&self, handle: PhysHandle) -> Result<u64> {
        self.allocs
            .get(&handle)
            .map(|a| a.pages as u64 * PAGE_SIZE)
            .ok_or(GpuError::InvalidHandle)
    }

    /// Returns `true` if `handle` refers to a live allocation.
    pub fn is_live(&self, handle: PhysHandle) -> bool {
        self.allocs.contains_key(&handle)
    }

    /// Total pool capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages * PAGE_SIZE
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free_pages * PAGE_SIZE
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        (self.total_pages - self.free_pages) * PAGE_SIZE
    }

    /// Number of live allocations.
    pub fn num_allocs(&self) -> usize {
        self.allocs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_release_round_trip() {
        let mut pool = HbmPool::new(10 * PAGE_SIZE);
        assert_eq!(pool.capacity_bytes(), 10 * PAGE_SIZE);
        let h = pool.mem_create(3 * PAGE_SIZE).expect("fits");
        assert_eq!(pool.used_bytes(), 3 * PAGE_SIZE);
        assert_eq!(pool.size_of(h).expect("live"), 3 * PAGE_SIZE);
        pool.mem_release(h).expect("release");
        assert_eq!(pool.used_bytes(), 0);
        assert!(!pool.is_live(h));
    }

    #[test]
    fn sizes_round_up_to_pages() {
        let mut pool = HbmPool::new(10 * PAGE_SIZE);
        let h = pool.mem_create(1).expect("fits");
        assert_eq!(pool.size_of(h).expect("live"), PAGE_SIZE);
        let h2 = pool.mem_create(PAGE_SIZE + 1).expect("fits");
        assert_eq!(pool.size_of(h2).expect("live"), 2 * PAGE_SIZE);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut pool = HbmPool::new(2 * PAGE_SIZE);
        let _h = pool.mem_create(PAGE_SIZE).expect("fits");
        let err = pool.mem_create(2 * PAGE_SIZE).expect_err("must OOM");
        assert_eq!(
            err,
            GpuError::OutOfMemory {
                requested: 2 * PAGE_SIZE,
                free: PAGE_SIZE
            }
        );
    }

    #[test]
    fn double_release_fails() {
        let mut pool = HbmPool::new(PAGE_SIZE);
        let h = pool.mem_create(PAGE_SIZE).expect("fits");
        pool.mem_release(h).expect("first release");
        assert_eq!(pool.mem_release(h), Err(GpuError::InvalidHandle));
    }

    #[test]
    fn handles_are_unique() {
        let mut pool = HbmPool::new(100 * PAGE_SIZE);
        let a = pool.mem_create(PAGE_SIZE).expect("fits");
        let b = pool.mem_create(PAGE_SIZE).expect("fits");
        assert_ne!(a, b);
        pool.mem_release(a).expect("release");
        let c = pool.mem_create(PAGE_SIZE).expect("fits");
        assert_ne!(a, c, "handles are never reused");
    }
}
