//! Steady-state memory of the int8 engine, per forward pass.
//!
//! Every int8 activation of `CompiledModel::forward` lives at a planned
//! offset of one scratch-arena buffer, so after warm-up a forward asks the
//! system allocator only for its logits `Array`: the `batch × classes`
//! f32 values and the two-entry shape. That count does not grow with the
//! activations (the engine used to allocate about 169 KB of fresh int8
//! values per image). The arena itself stops growing too.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread only, so the test harness's other threads cannot disturb it.

use edd_ir::PassConfig;
use edd_tensor::{scratch, Array};
use edd_zoo::compile_tiny_zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// (bytes, calls) requested by this thread.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATED.try_with(|a| {
        let (b, n) = a.get();
        a.set((b + bytes, n + 1));
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes and calls this thread allocates while running `f`.
fn allocated(f: impl FnOnce()) -> (usize, usize) {
    let before = ALLOCATED.with(Cell::get);
    f();
    let after = ALLOCATED.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn warm_forward_allocates_only_its_logits() {
    let mut rng = StdRng::seed_from_u64(2026);
    for (name, model, _) in compile_tiny_zoo(11, &PassConfig::all()) {
        let classes = model.graph().meta.num_classes;
        for batch in [1usize, 32] {
            let x = Array::randn(&[batch, 3, 16, 16], 1.0, &mut rng);
            for _ in 0..3 {
                model.forward(&x).expect("forward");
            }
            let got = allocated(|| drop(model.forward(&x).expect("forward")));
            let logits = batch * classes * std::mem::size_of::<f32>();
            let shape = 2 * std::mem::size_of::<usize>();
            assert_eq!(
                got,
                (logits + shape, 2),
                "{name} at batch {batch}: (bytes, allocations) of a warm forward"
            );
        }
    }
}

#[test]
fn warm_forwards_keep_the_arena_steady() {
    let (name, model, _) = compile_tiny_zoo(11, &PassConfig::all()).remove(1);
    assert_eq!(name, "edd-tiny-int8");
    let x = Array::randn(&[32, 3, 16, 16], 1.0, &mut StdRng::seed_from_u64(7));
    for _ in 0..3 {
        model.forward(&x).expect("forward");
    }
    let reserved = scratch::reserved_bytes();
    assert!(reserved >= 32 * model.plan_bytes(), "{reserved} B reserved");
    for _ in 0..100 {
        model.forward(&x).expect("forward");
    }
    assert_eq!(scratch::reserved_bytes(), reserved);
}
