//! Simulated GPU devices with CUDA-VMM-style memory management.
//!
//! KunServe's local memory manager (paper §4.1) relies on the CUDA virtual
//! memory management driver API (`cuMemCreate` / `cuMemMap` / `cuMemUnmap`):
//! GPU physical memory is allocated in fixed-granularity handles, and handles
//! can be mapped at arbitrary offsets inside reserved virtual-address ranges.
//! This lets the system *extend the tail of the KVCache region with physical
//! pages freed by dropped parameters* without touching the attention kernels,
//! which address the cache as one contiguous virtual range.
//!
//! This crate reproduces that machinery for a simulated device:
//!
//! - [`HbmPool`]: page-granular physical HBM allocator (`mem_create`).
//! - [`AddressSpace`]: virtual-address reservations with explicit
//!   map/unmap of physical handles and contiguous-extent queries.
//! - [`GpuDevice`]: one GPU combining a pool and an address space, plus the
//!   operation timing model (the paper measures ~5 ms for a remap).
//!
//! # Examples
//!
//! ```
//! use simgpu::{GpuDevice, GpuId};
//!
//! let mut gpu = GpuDevice::new(GpuId(0), 1 << 30); // 1 GiB HBM
//! let kv = gpu.va_reserve(1 << 30).unwrap();
//! let h = gpu.mem_create(4 << 20).unwrap();
//! gpu.mem_map(kv, 0, h).unwrap();
//! assert_eq!(gpu.contiguous_extent(kv).unwrap(), 4 << 20);
//! ```

pub mod device;
pub mod error;
pub mod hbm;
pub mod timing;
pub mod vmm;

pub use device::{GpuDevice, GpuId};
pub use error::GpuError;
pub use hbm::{HbmPool, PhysHandle, PAGE_SIZE};
pub use vmm::{AddressSpace, VaReservation};

/// Convenience alias for fallible GPU operations.
pub type Result<T> = std::result::Result<T, GpuError>;
