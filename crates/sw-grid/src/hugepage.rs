//! Transparent huge pages under the large fields.
//!
//! A 128³ state holds ≈ 29 k pages of 4 KiB. Each is faulted in on its
//! first touch, so the first step of a run pays for all of them (82–103 ms
//! against ≈ 7.4 ms for a later step, EXPERIMENTS "Huge pages"). Where
//! the kernel's transparent-huge-page mode is `madvise`, no page is huge
//! unless the program asks; [`advise`] asks, for every whole
//! [`HUGE_PAGE`] inside a field's own store, before anything in it is
//! touched. One fault then maps 2 MiB.
//!
//! Advice never changes contents: the pages read what they read before,
//! zeros for untouched calloc memory. The call is Linux-only; elsewhere,
//! under the mode `never`, or when the call fails, [`advise`] does
//! nothing and the field lives on small pages as before.
//!
//! This file holds one of the repository's three `unsafe` blocks (the
//! others are in [`crate::fpenv`] and [`crate::simd`]); DESIGN.md ("The
//! `unsafe` policy") says why it is here and what it relies on.

/// Bytes of one transparent huge page (the PMD size of x86-64 and of
/// 4 KiB-granule aarch64): the turn a large field's origin is placed in.
pub const HUGE_PAGE: usize = 2 << 20;

/// Whether advised memory can be backed by huge pages here: Linux with
/// the transparent-huge-page mode `always` or `madvise`. Read once.
pub fn available() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        cfg!(target_os = "linux") && mode.is_ok_and(|m| !m.contains("[never]"))
    })
}

/// The whole [`HUGE_PAGE`]s inside `store` (its length, not its spare
/// capacity): `(first byte address, bytes)`, `None` when it holds none.
pub fn whole_pages(store: &[f32]) -> Option<(usize, usize)> {
    let start = store.as_ptr() as usize;
    let end = start + std::mem::size_of_val(store);
    let first = start.next_multiple_of(HUGE_PAGE);
    let last = end / HUGE_PAGE * HUGE_PAGE;
    (first < last).then(|| (first, last - first))
}

/// Ask the kernel to back the whole huge pages of `store` with
/// transparent huge pages; the partial pages at either end stay small, so
/// advice costs at most the bytes between `store`'s first huge-page
/// boundary and its first element in resident memory. Call it before the
/// pages are touched: memory already faulted in stays on small pages
/// until the kernel's background collapse gets to it.
pub fn advise(store: &[f32]) {
    if let Some((addr, len)) = whole_pages(store).filter(|_| available()) {
        madvise_huge(addr, len);
    }
}

#[cfg(target_os = "linux")]
fn madvise_huge(addr: usize, len: usize) {
    use std::ffi::{c_int, c_void};
    /// `MADV_HUGEPAGE` of `<sys/mman.h>`, the same on every Linux
    /// architecture.
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `madvise` is the C library's wrapper of the system call,
    // with the signature declared above. `[addr, addr + len)` lies
    // inside one live allocation, the slice the caller borrows, and is
    // aligned to whole huge pages, which are whole base pages too.
    // `MADV_HUGEPAGE` only sets a flag on the mapping: it neither maps,
    // unmaps nor changes the contents or protection of any page, so no
    // reference into the allocation (this slice or another) sees a
    // different value or a different validity after the call. Failure
    // (`EINVAL` on a kernel without THP, `ENOMEM` should the range not be
    // mapped) only returns -1, which is ignored: the pages stay small.
    unsafe {
        madvise(addr as *mut c_void, len, MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn madvise_huge(_addr: usize, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_pages_lie_inside_the_allocation() {
        let small = vec![0.0f32; 1000];
        assert_eq!(whole_pages(&small), None);
        let big = vec![0.0f32; 3 * HUGE_PAGE / 4];
        let (start, len) = whole_pages(&big).expect("3 huge pages of bytes hold 2 whole ones");
        let base = big.as_ptr() as usize;
        assert!(start >= base && start + len <= base + big.len() * 4);
        assert!(start.is_multiple_of(HUGE_PAGE) && len.is_multiple_of(HUGE_PAGE));
        assert!(len >= 2 * HUGE_PAGE);
    }

    #[test]
    fn advice_keeps_the_contents() {
        let mut big: Vec<f32> = (0..HUGE_PAGE).map(|i| i as f32).collect();
        advise(&big);
        assert!(big.iter().enumerate().all(|(i, &v)| v == i as f32));
        big[HUGE_PAGE - 1] = -1.0;
        assert_eq!(big[HUGE_PAGE - 1], -1.0);
    }
}
