//! Allocation regression test for the optimizer scoring path.
//!
//! The READ optimizer scores thousands of candidate orderings per layer via
//! `sign_flips_for_order`; a per-call `Vec` allocation in that path showed
//! up as real cost.  The word-parallel kernel takes a reusable
//! [`read_core::SignFlipScratch`], and this test pins the contract: once
//! the scratch is warm, a scoring call performs **zero** heap allocations.
//!
//! A counting allocator wraps the system allocator for this test binary
//! only.  The count is **per-thread** so the libtest harness's own threads
//! (timers, output capture) cannot perturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accel_sim::Matrix;
use read_core::{sign_flips_for_order_scalar, sign_flips_for_order_with, SignFlipScratch};

struct CountingAlloc;

thread_local! {
    // `const` init so reading the counter never itself allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_scoring_calls_do_not_allocate() {
    let weights = Matrix::from_fn(256, 96, |r, c| (((r * 23 + c * 7) % 31) as i8) - 15);
    let columns: Vec<usize> = (0..96).collect();
    let order: Vec<usize> = (0..256).rev().collect();
    let acts: Vec<i8> = (0..256).map(|r| ((r * 13) % 17) as i8).collect();

    let mut scratch = SignFlipScratch::new();
    // Warm-up: grows the scratch buffers to the working-set size.
    let unit_expected = sign_flips_for_order_with(&mut scratch, &weights, &columns, &order, None)
        .expect("warm-up scoring call");
    let acts_expected =
        sign_flips_for_order_with(&mut scratch, &weights, &columns, &order, Some(&acts))
            .expect("warm-up scoring call with activations");

    let before = allocations();
    for _ in 0..32 {
        let unit = sign_flips_for_order_with(&mut scratch, &weights, &columns, &order, None)
            .expect("warm scoring call");
        let with_acts =
            sign_flips_for_order_with(&mut scratch, &weights, &columns, &order, Some(&acts))
                .expect("warm scoring call with activations");
        assert_eq!(unit, unit_expected);
        assert_eq!(with_acts, acts_expected);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm sign_flips_for_order_with calls must not allocate"
    );

    // Sanity: the result the warm loop produced matches the scalar
    // reference (which is free to allocate).
    assert_eq!(
        sign_flips_for_order_scalar(&weights, &columns, &order, Some(&acts)).unwrap(),
        acts_expected
    );
}
