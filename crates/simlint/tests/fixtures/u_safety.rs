//! U-SAFETY fixture. No file allowlists `unsafe`, so U-FILE fires at
//! every site here too (3 fired); this fixture's own subject is
//! U-SAFETY: 1 fired, 1 suppressed.

fn undocumented(p: *mut u32) {
    unsafe { *p = 1 }; // fires U-SAFETY: line 6
}

fn documented(p: *mut u32) {
    // SAFETY: fixture — p is valid and uniquely borrowed by the caller.
    unsafe { *p = 2 }; // ok: SAFETY comment directly above
}

fn pragma_escape(p: *mut u32) {
    // simlint: allow(U-SAFETY) — fixture: the suppression path.
    unsafe { *p = 3 }; // suppressed (U-FILE still fires)
}
