//! Steady-state memory of the int8 engine, per forward pass and per
//! pulsed push.
//!
//! Every int8 activation of `CompiledModel::forward` lives at a planned
//! offset of one scratch-arena buffer, so after warm-up a forward asks the
//! system allocator only for its logits `Array`: the `batch × classes`
//! f32 values and the two-entry shape. That count does not grow with the
//! activations (the engine used to allocate about 169 KB of fresh int8
//! values per image). The arena itself stops growing too. A served batch
//! (`infer_batch`) reads the request slice in place and returns the logits
//! vector itself: one allocation.
//!
//! The pulsed executor has no plan yet: each push allocates the rows its
//! nodes make, and the ring rows it keeps. Those figures are pinned
//! exactly, per engine.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread only, so the test harness's other threads cannot disturb it.

use edd_ir::{PassConfig, PulsedModel};
use edd_runtime::BatchModel;
use edd_tensor::{scratch, Array};
use edd_zoo::{compile_tiny_zoo, synthetic_signal};
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

#[test]
fn warm_infer_batch_allocates_only_its_logits() {
    let mut rng = StdRng::seed_from_u64(2026);
    for (name, model, _) in compile_tiny_zoo(11, &PassConfig::all()) {
        let classes = model.graph().meta.num_classes;
        for batch in [1usize, 32] {
            let x = Array::randn(&[batch, 3, 16, 16], 1.0, &mut rng);
            for _ in 0..3 {
                model.infer_batch(x.data(), batch).expect("infer_batch");
            }
            let got = allocated(|| drop(model.infer_batch(x.data(), batch).expect("infer_batch")));
            assert_eq!(
                got,
                (batch * classes * std::mem::size_of::<f32>(), 1),
                "{name} at batch {batch}: (bytes, allocations) of a warm infer_batch"
            );
        }
    }
}

#[test]
fn warm_pulse_pushes_allocate_the_pinned_bytes() {
    // (bytes, calls) of 32 warm pushes at hop 8, which complete 4 windows
    // (two windows are in flight at each push). Each sweep allocates the
    // rows its nodes make and the padded rows its rings keep.
    let pins = [
        ("edd-tiny-quant-demo", (1_217_264, 2_044)),
        ("edd-tiny-int8", (1_507_056, 2_064)),
        ("edd-tiny-int4", (1_507_056, 2_064)),
    ];
    let zoo = compile_tiny_zoo(11, &PassConfig::all());
    for ((name, model, _), (pinned, pin)) in zoo.into_iter().zip(pins) {
        assert_eq!(name, pinned);
        let g = model.graph();
        let [c, h, w] = g.meta.input_shape;
        let mut pulsed = PulsedModel::from_graph(g, h / 2).expect("pulse");
        let signal = synthetic_signal(c, w, 6 * h, 2026);
        for row in &signal[..2 * h] {
            pulsed.push(row).expect("push");
        }
        let mut windows = 0;
        let got = allocated(|| {
            for row in &signal[2 * h..4 * h] {
                windows += usize::from(pulsed.push(row).expect("push").is_some());
            }
        });
        assert_eq!(windows, 4, "{name}");
        assert_eq!(got, pin, "{name}: (bytes, calls) of 32 warm pushes");
    }
}
