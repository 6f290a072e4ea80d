//! Virtual-address reservations and mappings (`cuMemAddressReserve`,
//! `cuMemMap`, `cuMemUnmap` analogues).
//!
//! The central query is [`AddressSpace::contiguous_extent`]: unmodified
//! attention kernels address the KVCache as `[base, base + extent)`, so the
//! usable cache size is exactly the length of the contiguous mapped prefix.
//! KunServe grows that prefix by mapping freed parameter memory at the tail
//! (paper §4.1, Fig. 7).

#![expect(
    clippy::disallowed_types,
    reason = "reservation lookup is keyed; offset-ordered iteration uses the inner BTreeMap"
)]

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::error::GpuError;
use crate::hbm::{PhysHandle, PAGE_SIZE};
use crate::Result;

/// An opaque id for a reserved virtual-address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VaReservation(pub u64);

#[derive(Debug, Clone)]
struct Reservation {
    size: u64,
    /// Mappings keyed by offset inside the reservation.
    mappings: BTreeMap<u64, Mapped>,
}

#[derive(Debug, Clone, Copy)]
struct Mapped {
    handle: PhysHandle,
    bytes: u64,
}

/// One GPU's virtual address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    next_id: u64,
    reservations: HashMap<VaReservation, Reservation>,
    /// Where each handle is mapped (a handle maps at most once).
    mapped_at: HashMap<PhysHandle, (VaReservation, u64)>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Reserves a virtual-address range of `size` bytes
    /// (`cuMemAddressReserve`). The size must be page-aligned.
    pub fn reserve(&mut self, size: u64) -> Result<VaReservation> {
        if size == 0 || !size.is_multiple_of(PAGE_SIZE) {
            return Err(GpuError::Misaligned);
        }
        self.next_id += 1;
        let id = VaReservation(self.next_id);
        self.reservations.insert(
            id,
            Reservation {
                size,
                mappings: BTreeMap::new(),
            },
        );
        Ok(id)
    }

    /// Maps `handle` (of `bytes` physical size) at `offset` inside the
    /// reservation (`cuMemMap` + `cuMemSetAccess`).
    pub fn map(
        &mut self,
        id: VaReservation,
        offset: u64,
        handle: PhysHandle,
        bytes: u64,
    ) -> Result<()> {
        if !offset.is_multiple_of(PAGE_SIZE) {
            return Err(GpuError::Misaligned);
        }
        if self.mapped_at.contains_key(&handle) {
            return Err(GpuError::HandleAlreadyMapped);
        }
        let r = self
            .reservations
            .get_mut(&id)
            .ok_or(GpuError::InvalidReservation)?;
        let end = offset.checked_add(bytes).ok_or(GpuError::MappingConflict)?;
        if end > r.size {
            return Err(GpuError::MappingConflict);
        }
        // Overlap check against the nearest mapping at or before `offset` and
        // the first mapping after it.
        if let Some((&prev_off, prev)) = r.mappings.range(..=offset).next_back() {
            if prev_off + prev.bytes > offset {
                return Err(GpuError::MappingConflict);
            }
        }
        if let Some((&next_off, _)) = r.mappings.range(offset..).next() {
            if next_off < end {
                return Err(GpuError::MappingConflict);
            }
        }
        r.mappings.insert(offset, Mapped { handle, bytes });
        self.mapped_at.insert(handle, (id, offset));
        Ok(())
    }

    /// Unmaps whatever is mapped at `offset`, returning its handle
    /// (`cuMemUnmap`).
    pub fn unmap(&mut self, id: VaReservation, offset: u64) -> Result<PhysHandle> {
        let r = self
            .reservations
            .get_mut(&id)
            .ok_or(GpuError::InvalidReservation)?;
        let m = r
            .mappings
            .remove(&offset)
            .ok_or(GpuError::NoMappingAtOffset)?;
        self.mapped_at.remove(&m.handle);
        Ok(m.handle)
    }

    /// Unmaps a handle wherever it is mapped, returning its former location.
    pub fn unmap_handle(&mut self, handle: PhysHandle) -> Result<(VaReservation, u64)> {
        let (id, offset) = *self.mapped_at.get(&handle).ok_or(GpuError::InvalidHandle)?;
        self.unmap(id, offset)?;
        Ok((id, offset))
    }

    /// Returns `true` if the handle is currently mapped.
    pub fn is_mapped(&self, handle: PhysHandle) -> bool {
        self.mapped_at.contains_key(&handle)
    }

    /// Length of the contiguous mapped prefix starting at offset 0.
    ///
    /// This is the usable size of a region addressed as `[base, base+extent)`
    /// by unmodified kernels (paper Fig. 7 (a)).
    pub fn contiguous_extent(&self, id: VaReservation) -> Result<u64> {
        let r = self
            .reservations
            .get(&id)
            .ok_or(GpuError::InvalidReservation)?;
        let mut extent = 0u64;
        for (&off, m) in &r.mappings {
            if off != extent {
                break;
            }
            extent += m.bytes;
        }
        Ok(extent)
    }

    /// Total bytes mapped inside the reservation (contiguous or not).
    pub fn mapped_bytes(&self, id: VaReservation) -> Result<u64> {
        let r = self
            .reservations
            .get(&id)
            .ok_or(GpuError::InvalidReservation)?;
        Ok(r.mappings.values().map(|m| m.bytes).sum())
    }

    /// Handles mapped in the reservation, ordered by offset.
    pub fn handles_in(&self, id: VaReservation) -> Result<Vec<(u64, PhysHandle, u64)>> {
        let r = self
            .reservations
            .get(&id)
            .ok_or(GpuError::InvalidReservation)?;
        Ok(r.mappings
            .iter()
            .map(|(&off, m)| (off, m.handle, m.bytes))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(n: u64) -> PhysHandle {
        PhysHandle(n)
    }

    #[test]
    fn reserve_map_extent() {
        let mut vs = AddressSpace::new();
        let r = vs.reserve(10 * PAGE_SIZE).expect("reserve");
        assert_eq!(vs.contiguous_extent(r).expect("query"), 0);
        vs.map(r, 0, handle(1), 2 * PAGE_SIZE).expect("map");
        assert_eq!(vs.contiguous_extent(r).expect("query"), 2 * PAGE_SIZE);
        // A hole at [2, 3) pages stops the contiguous prefix.
        vs.map(r, 3 * PAGE_SIZE, handle(2), PAGE_SIZE).expect("map");
        assert_eq!(vs.contiguous_extent(r).expect("query"), 2 * PAGE_SIZE);
        assert_eq!(vs.mapped_bytes(r).expect("query"), 3 * PAGE_SIZE);
        // Filling the hole extends the prefix across both mappings.
        vs.map(r, 2 * PAGE_SIZE, handle(3), PAGE_SIZE).expect("map");
        assert_eq!(vs.contiguous_extent(r).expect("query"), 4 * PAGE_SIZE);
    }

    #[test]
    fn overlap_rejected() {
        let mut vs = AddressSpace::new();
        let r = vs.reserve(10 * PAGE_SIZE).expect("reserve");
        vs.map(r, 2 * PAGE_SIZE, handle(1), 2 * PAGE_SIZE)
            .expect("map");
        // Overlaps tail of existing mapping.
        assert_eq!(
            vs.map(r, 3 * PAGE_SIZE, handle(2), PAGE_SIZE),
            Err(GpuError::MappingConflict)
        );
        // Overlaps head.
        assert_eq!(
            vs.map(r, PAGE_SIZE, handle(2), 2 * PAGE_SIZE),
            Err(GpuError::MappingConflict)
        );
        // Exceeds reservation.
        assert_eq!(
            vs.map(r, 9 * PAGE_SIZE, handle(2), 2 * PAGE_SIZE),
            Err(GpuError::MappingConflict)
        );
    }

    #[test]
    fn handle_maps_at_most_once() {
        let mut vs = AddressSpace::new();
        let r = vs.reserve(10 * PAGE_SIZE).expect("reserve");
        vs.map(r, 0, handle(1), PAGE_SIZE).expect("map");
        assert_eq!(
            vs.map(r, 5 * PAGE_SIZE, handle(1), PAGE_SIZE),
            Err(GpuError::HandleAlreadyMapped)
        );
        // After unmapping it can map elsewhere — the remap dance of Fig. 3(d).
        let h = vs.unmap(r, 0).expect("unmap");
        assert_eq!(h, handle(1));
        vs.map(r, 5 * PAGE_SIZE, handle(1), PAGE_SIZE)
            .expect("remap");
        assert_eq!(
            vs.handles_in(r).expect("query"),
            vec![(5 * PAGE_SIZE, handle(1), PAGE_SIZE)]
        );
    }

    #[test]
    fn unmap_handle_finds_location() {
        let mut vs = AddressSpace::new();
        let r = vs.reserve(4 * PAGE_SIZE).expect("reserve");
        vs.map(r, 2 * PAGE_SIZE, handle(7), PAGE_SIZE).expect("map");
        assert!(vs.is_mapped(handle(7)));
        let (rid, off) = vs.unmap_handle(handle(7)).expect("unmap");
        assert_eq!((rid, off), (r, 2 * PAGE_SIZE));
        assert!(!vs.is_mapped(handle(7)));
        assert_eq!(vs.unmap_handle(handle(7)), Err(GpuError::InvalidHandle));
    }

    #[test]
    fn misaligned_rejected() {
        let mut vs = AddressSpace::new();
        assert_eq!(vs.reserve(100), Err(GpuError::Misaligned));
        assert_eq!(vs.reserve(0), Err(GpuError::Misaligned));
        let r = vs.reserve(4 * PAGE_SIZE).expect("reserve");
        assert_eq!(
            vs.map(r, 17, handle(1), PAGE_SIZE),
            Err(GpuError::Misaligned)
        );
    }

    #[test]
    fn handles_in_sorted_by_offset() {
        let mut vs = AddressSpace::new();
        let r = vs.reserve(8 * PAGE_SIZE).expect("reserve");
        vs.map(r, 4 * PAGE_SIZE, handle(2), PAGE_SIZE).expect("map");
        vs.map(r, 0, handle(1), PAGE_SIZE).expect("map");
        let hs = vs.handles_in(r).expect("query");
        assert_eq!(hs.len(), 2);
        assert_eq!(hs[0], (0, handle(1), PAGE_SIZE));
        assert_eq!(hs[1], (4 * PAGE_SIZE, handle(2), PAGE_SIZE));
    }
}
