//! The solver's floating-point environment: subnormals flush to zero.
//!
//! The 4th-order stencil pushes an exponentially decaying numerical
//! precursor ahead of the physical wavefront. Where it falls below
//! `f32::MIN_POSITIVE` (1.2e-38) every multiply/add that touches it
//! takes a microcode assist of ~150 cycles on x86, and the
//! bandwidth-bound kernels turn compute-bound on a thin shell of cells:
//! at 128³ a shell holding under 5 % of the cells triples the step time
//! (EXPERIMENTS.md, "Subnormal-free stepping").
//! Gradual underflow at 1e-38 m/s carries no physics, so every thread
//! that executes kernel code runs with
//!
//! * **flush-to-zero** — a result that would be subnormal becomes ±0;
//! * **denormals-are-zero** — a subnormal operand is read as ±0
//!
//! (x86-64: `MXCSR.FTZ|DAZ`; aarch64: `FPCR.FZ`, which does both). On
//! any other architecture this module is a no-op: [`flush_subnormals`]
//! changes nothing, [`is_flushing`] reports `false`, and the
//! `subnormal_count` of the `--health` stream is what shows the fringe.
//!
//! The mode is per thread. [`flush_subnormals`] returns a guard that
//! puts the caller's own mode back when dropped, so a library entry
//! point (`Simulation::step`) can enter it without changing what the
//! caller's arithmetic does afterwards. A thread that starts other
//! compute threads hands its mode on explicitly: read [`is_flushing`]
//! before spawning and enter a guard first thing on the new thread.
//! (glibc's `pthread_create` happens to copy the control word; nothing
//! here relies on it.)
//!
//! This file holds one of the repository's three `unsafe` blocks (the
//! others are the tier dispatch in [`crate::simd`] and the huge-page
//! advice in [`crate::hugepage`]); DESIGN.md ("The `unsafe` policy") says
//! why it is here and what it relies on.

use std::marker::PhantomData;

/// The control-word bits that make up the flushing mode.
#[cfg(target_arch = "x86_64")]
const FLUSH: u32 = (1 << 15) | (1 << 6); // MXCSR.FTZ | MXCSR.DAZ
#[cfg(target_arch = "aarch64")]
const FLUSH: u32 = 1 << 24; // FPCR.FZ
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const FLUSH: u32 = 1;

/// Read this thread's flush bits and, when `set` names different ones,
/// install those; every other bit of the control word (rounding mode,
/// exception masks and sticky flags) stays as it is. Returns the bits
/// that were in force before the call.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn exchange(set: Option<u32>) -> u32 {
    use std::arch::asm;
    let prior;
    // SAFETY: the instructions exist on every CPU of the architecture
    // they are compiled for (SSE2, and with it MXCSR.DAZ, is part of
    // x86-64; FPCR is part of AArch64) and are unprivileged. The memory
    // operands point at live, aligned `u32` locals, and the blocks
    // declare neither `nomem` nor `readonly`, so the compiler treats
    // them as reading and writing memory and keeps loads, stores and
    // the arithmetic fed by them on their own side. The word written is
    // the word just read with only `FLUSH` bits changed, and `set` only
    // ever carries `FLUSH` or an earlier return value of this function,
    // so no reserved bit is set (which would fault) and no exception is
    // unmasked.
    // What the language does not promise: Rust compiles floating-point
    // code for the default environment, so an expression the compiler
    // evaluates itself keeps a subnormal the CPU would now flush. No
    // memory-safety condition in this workspace depends on a
    // floating-point value, and the solver's results are pinned bitwise
    // by tests that run in this mode.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        {
            let mut csr = 0u32;
            asm!("stmxcsr dword ptr [{}]", in(reg) &raw mut csr, options(nostack, preserves_flags));
            prior = csr & FLUSH;
            if let Some(bits) = set.filter(|&b| b != prior) {
                let csr = (csr & !FLUSH) | bits;
                asm!("ldmxcsr dword ptr [{}]", in(reg) &raw const csr, options(nostack, preserves_flags));
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            let fpcr: u64;
            asm!("mrs {}, fpcr", out(reg) fpcr, options(nostack, preserves_flags));
            prior = fpcr as u32 & FLUSH;
            if let Some(bits) = set.filter(|&b| b != prior) {
                let fpcr = (fpcr & !u64::from(FLUSH)) | u64::from(bits);
                asm!("msr fpcr, {}", in(reg) fpcr, options(nostack, preserves_flags));
            }
        }
    }
    prior
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn exchange(_set: Option<u32>) -> u32 {
    0
}

/// Puts the thread's previous subnormal handling back when dropped.
/// Guards nest; drop them in the reverse order of creation (what scopes
/// do). Not `Send`: the mode belongs to the thread that entered it.
#[must_use = "the flushing mode ends when the guard is dropped"]
#[derive(Debug)]
pub struct FlushGuard {
    prior: u32,
    _this_thread: PhantomData<*const ()>,
}

/// Flush subnormals to zero on this thread until the guard is dropped.
pub fn flush_subnormals() -> FlushGuard {
    FlushGuard { prior: exchange(Some(FLUSH)), _this_thread: PhantomData }
}

/// Whether this thread currently flushes subnormals (both results and
/// operands).
pub fn is_flushing() -> bool {
    exchange(None) == FLUSH
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        exchange(Some(self.prior));
    }
}

#[cfg(all(test, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// A product whose exact result is subnormal.
    fn tiny_product() -> f32 {
        black_box(f32::MIN_POSITIVE) * black_box(0.5)
    }

    /// A product with a subnormal operand and a normal result.
    fn from_tiny_operand() -> f32 {
        black_box(f32::MIN_POSITIVE * 0.5) * black_box(4.0)
    }

    #[test]
    fn guard_flushes_results_and_operands_then_restores() {
        assert!(!is_flushing());
        assert_eq!(tiny_product(), f32::MIN_POSITIVE * 0.5);
        {
            let _fp = flush_subnormals();
            assert!(is_flushing());
            assert_eq!(tiny_product(), 0.0);
            assert_eq!(from_tiny_operand(), 0.0);
        }
        assert!(!is_flushing());
        assert_eq!(tiny_product(), f32::MIN_POSITIVE * 0.5);
        assert_eq!(from_tiny_operand(), f32::MIN_POSITIVE * 2.0);
    }

    #[test]
    fn nested_guards_restore_the_enclosing_mode() {
        let outer = flush_subnormals();
        {
            let _inner = flush_subnormals();
            assert!(is_flushing());
        }
        assert!(is_flushing(), "the inner guard restored flushing, not the default");
        assert_eq!(tiny_product(), 0.0);
        drop(outer);
        assert!(!is_flushing());
    }
}
