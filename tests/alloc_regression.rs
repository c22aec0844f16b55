//! Allocation regression tests.
//!
//! The READ optimizer scores thousands of candidate orderings per layer via
//! `sign_flips_for_order`; a per-call `Vec` allocation in that path showed
//! up as real cost.  The word-parallel kernel takes a reusable
//! [`read_core::SignFlipScratch`], and `warm_scoring_calls_do_not_allocate`
//! pins the contract: once the scratch is warm, a scoring call performs
//! **zero** heap allocations.  The memory tests pin what compute schedules
//! and GEMM problems hold: a baseline schedule shares one identity row
//! order across its groups, and a layer workload's problem shares its
//! matrices.
//!
//! A counting allocator wraps the system allocator for this test binary
//! only.  It counts calls and requested bytes **per thread** so the libtest
//! harness's own threads (timers, output capture) cannot perturb the
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accel_sim::{ComputeSchedule, Matrix};
use read_core::{sign_flips_for_order_scalar, sign_flips_for_order_with, SignFlipScratch};
use read_pipeline::LayerWorkload;

struct CountingAlloc;

thread_local! {
    // `const` init so reading the counters never itself allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
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

/// The baseline schedule of a deep ResNet-18 layer (`R = 4608`, 512
/// channels, 4-column groups): 128 groups share one identity order of
/// 4608 `u32`s, about 28 KB in all.  One `usize` order per group took
/// 4.7 MB.
#[test]
fn baseline_schedule_allocates_one_shared_order() {
    let (calls, bytes_before) = (allocations(), bytes());
    let schedule = ComputeSchedule::baseline(4608, 512, 4);
    let allocated = bytes() - bytes_before;
    assert_eq!(schedule.groups().len(), 128);
    assert!(
        allocated < 64 * 1024,
        "baseline(4608, 512, 4) allocated {allocated} bytes in {} calls",
        allocations() - calls
    );
}

/// Building a layer workload's GEMM problem copies neither matrix.
#[test]
fn workload_problem_allocates_nothing() {
    let weights = Matrix::from_fn(1152, 256, |r, c| ((r * 7 + c * 3) % 15) as i8 - 7);
    let activations = Matrix::from_fn(1152, 4, |r, c| ((r + c) % 5) as i8);
    let layer = LayerWorkload::from_matrices("conv4_1", weights, activations).unwrap();
    let (calls, bytes_before) = (allocations(), bytes());
    let problem = layer.problem().unwrap();
    let (calls, allocated) = (allocations() - calls, bytes() - bytes_before);
    assert_eq!(
        (calls, allocated),
        (0, 0),
        "LayerWorkload::problem allocated"
    );
    assert_eq!(problem.weights(), layer.weights());
    assert_eq!(problem.activations(), layer.activations());
}
