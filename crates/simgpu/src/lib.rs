//! The two GPU memory facts KunServe's parameter remapping depends on: page
//! granularity and remap cost.
//!
//! KunServe's local memory manager (paper §4.1) relies on the CUDA virtual
//! memory management driver API (`cuMemCreate` / `cuMemMap` / `cuMemUnmap`):
//! GPU physical memory is allocated in fixed-granularity pages, and pages
//! can be mapped at any offset of a reserved virtual-address range. This
//! lets the system *extend the tail of the KVCache region with the physical
//! pages freed by dropped parameters* without touching the attention
//! kernels, which address the cache as one contiguous virtual range.
//!
//! Pages are interchangeable, so the simulator needs only two things from
//! that machinery: the page size every layout aligns to ([`PAGE_SIZE`],
//! [`align_up_page`]) and what a remap costs ([`timing::remap_cost`]; the
//! paper measures about 5 ms). `cluster::Instance` computes an instance's
//! layout as arithmetic over page-aligned layers.
//!
//! # Examples
//!
//! ```
//! use simgpu::{align_up_page, PAGE_SIZE};
//!
//! assert_eq!(align_up_page(1), PAGE_SIZE);
//! assert_eq!(align_up_page(2 * PAGE_SIZE), 2 * PAGE_SIZE);
//! ```

pub mod timing;

/// Physical allocation granularity: 2 MiB, matching the CUDA VMM minimum
/// granularity on data-center GPUs.
pub const PAGE_SIZE: u64 = 2 * 1024 * 1024;

/// Rounds `bytes` up to a whole number of pages.
pub fn align_up_page(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE
}
