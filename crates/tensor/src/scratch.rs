//! Thread-local scratch arena: a bump allocator for short-lived `f32`
//! buffers (im2col/col2im columns, GEMM packing, per-step intermediates).
//!
//! The hot loops of supernet training allocate the same large temporaries
//! thousands of times per step; `vec![0.0; n]` pays a malloc **and** a
//! memset each time. The arena keeps one growable block per thread and
//! hands out bump-allocated windows of it, so steady-state allocation is a
//! pointer increment — no syscalls, no zeroing (see [`alloc`] vs
//! [`alloc_zeroed`]).
//!
//! # Lifetime rules
//!
//! A [`ScratchBuf`] is valid for the current forward/backward step only by
//! convention: memory is reclaimed when the last outstanding buffer on the
//! thread is dropped, and [`reset`] (called between training steps) is a
//! backstop that asserts nothing leaked and bumps the arena generation.
//! Dropping the most recent buffer also pops it off the bump pointer, so
//! buffers freed last-in-first-out reuse their space while an older one is
//! still live (an op's temporaries above an engine's activation buffer).
//! Buffers are `!Send` — they must stay on the thread that allocated them
//! (each pool worker owns an independent arena).
//!
//! # Alignment
//!
//! Every returned slice starts on a 32-byte boundary (eight `f32` lanes),
//! matching the kernel layer's fixed eight-lane accumulators.

use std::cell::RefCell;

/// Allocation granularity in `f32` elements: 8 lanes × 4 bytes = 32 bytes,
/// so consecutive allocations stay lane-aligned.
const ALIGN_F32: usize = 8;

/// Initial block capacity (f32s) on first use of a thread's arena.
const INITIAL_CAPACITY: usize = 1 << 14;

struct Arena {
    /// Backing blocks; only the last is bump-allocated from. Earlier
    /// blocks persist solely to keep outstanding pointers valid, and are
    /// coalesced into one block once everything is returned.
    blocks: Vec<Box<[f32]>>,
    /// Elements skipped at the start of the last block for 32-byte
    /// alignment of the block's base.
    lead: usize,
    /// Bump offset into the last block (from its start, including `lead`).
    offset: usize,
    /// Live [`ScratchBuf`]s handed out from this arena.
    outstanding: usize,
    /// Elements consumed in retired (non-last) blocks of the current
    /// cycle, so the footprint below spans every block, not just the one
    /// currently bump-allocated from.
    carried: usize,
    /// Peak total elements consumed (across all blocks) since the arena
    /// was last empty; sizes the coalesced block so the next identical
    /// cycle needs a single allocation. Reset on [`Arena::rewind`] so the
    /// arena re-measures each cycle instead of being pinned forever to a
    /// one-off spike.
    high_water: usize,
    /// Bumped on [`reset`]; lets stale buffer drops detect they outlived a
    /// reset instead of corrupting the accounting.
    generation: u64,
}

/// Returns the number of elements to skip so `block[lead..]` starts on a
/// 32-byte boundary (`align_offset` counts in `f32` elements).
fn lead_of(block: &[f32]) -> usize {
    let lead = block.as_ptr().align_offset(ALIGN_F32 * 4);
    if lead == usize::MAX {
        0
    } else {
        lead
    }
}

impl Arena {
    const fn new() -> Self {
        Arena {
            blocks: Vec::new(),
            lead: 0,
            offset: 0,
            outstanding: 0,
            carried: 0,
            high_water: 0,
            generation: 0,
        }
    }

    fn push_block(&mut self, min_len: usize) {
        // The retiring block's consumption stays live (its buffers are
        // still out), so carry it into the cross-block footprint.
        if self.blocks.last().is_some() {
            self.carried += self.offset - self.lead;
        }
        let cap = min_len
            .max(self.blocks.last().map_or(INITIAL_CAPACITY, |b| 2 * b.len()))
            .next_multiple_of(ALIGN_F32)
            + ALIGN_F32;
        let block: Box<[f32]> = vec![0.0f32; cap].into_boxed_slice();
        self.lead = lead_of(&block);
        self.offset = self.lead;
        self.blocks.push(block);
    }

    fn alloc(&mut self, len: usize) -> (*mut f32, Mark) {
        let rounded = len.next_multiple_of(ALIGN_F32).max(ALIGN_F32);
        let fits = self
            .blocks
            .last()
            .is_some_and(|b| self.offset + rounded <= b.len());
        if !fits {
            self.push_block(rounded);
        }
        let block = self.blocks.last_mut().expect("block just ensured");
        let ptr = unsafe { block.as_mut_ptr().add(self.offset) };
        let mark = Mark {
            generation: self.generation,
            block: self.blocks.len(),
            start: self.offset,
            end: self.offset + rounded,
        };
        self.offset = mark.end;
        self.outstanding += 1;
        self.high_water = self.high_water.max(self.carried + self.offset - self.lead);
        (ptr, mark)
    }

    fn release(&mut self, mark: &Mark) {
        debug_assert!(self.outstanding > 0, "scratch release without alloc");
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.rewind();
        } else if mark.block == self.blocks.len() && mark.end == self.offset {
            // The newest buffer of the current block: pop it.
            self.offset = mark.start;
        }
    }

    /// Returns the arena to its empty state, coalescing fragmented blocks
    /// into a single one sized by the high-water mark.
    fn rewind(&mut self) {
        // Fold this cycle's peak footprint into the process-wide gauge
        // before the per-cycle mark is cleared (the global keeps the max).
        if self.high_water > 0 {
            crate::stats::record_scratch_high_water(
                self.high_water as u64 * std::mem::size_of::<f32>() as u64,
            );
        }
        if self.blocks.len() > 1 {
            let want = self.high_water;
            self.blocks.clear();
            self.push_block(want);
        }
        self.carried = 0;
        self.high_water = 0;
        self.offset = self.lead;
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

/// Where a buffer sits in its arena: the generation it was handed out in,
/// the block count at that time (its block is the last one), and its bump
/// window.
#[derive(Clone, Copy)]
struct Mark {
    generation: u64,
    block: usize,
    start: usize,
    end: usize,
}

/// A bump-allocated `f32` buffer borrowed from the current thread's arena.
///
/// Dereferences to `&mut [f32]`. Dropping it returns the space; when the
/// last outstanding buffer on the thread drops, the whole arena rewinds to
/// empty. Not `Send`: the buffer must be dropped on the allocating thread.
pub struct ScratchBuf {
    ptr: *mut f32,
    len: usize,
    mark: Mark,
}

impl std::ops::Deref for ScratchBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        // SAFETY: the arena keeps the backing block alive (and unmoved)
        // while `outstanding > 0`, and bump windows never overlap.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::ops::DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as above; `&mut self` guarantees exclusive access.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        ARENA.with(|a| {
            let mut arena = a.borrow_mut();
            // A buffer that (erroneously) outlived a reset must not
            // corrupt the post-reset accounting.
            if arena.generation == self.mark.generation {
                arena.release(&self.mark);
            }
        });
    }
}

impl std::fmt::Debug for ScratchBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchBuf")
            .field("len", &self.len)
            .finish()
    }
}

/// Allocates `len` f32s from the current thread's arena. The contents are
/// unspecified (possibly stale data from earlier steps) — callers must
/// fully overwrite the buffer, or use [`alloc_zeroed`].
#[must_use]
pub fn alloc(len: usize) -> ScratchBuf {
    let (ptr, mark) = ARENA.with(|a| a.borrow_mut().alloc(len));
    ScratchBuf { ptr, len, mark }
}

/// [`alloc`] followed by zero-filling; for accumulation buffers.
#[must_use]
pub fn alloc_zeroed(len: usize) -> ScratchBuf {
    let mut buf = alloc(len);
    buf.fill(0.0);
    buf
}

/// Declares a typed view over arena-backed f32 storage: the wrapper owns a
/// [`ScratchBuf`] sized in whole f32s and reinterprets its (32-byte
/// aligned) base pointer as `$elem`. Release/rewind mechanics are entirely
/// the inner buffer's.
macro_rules! scratch_view {
    ($(#[$meta:meta])* $name:ident, $elem:ty, $alloc:ident, $alloc_zeroed:ident) => {
        $(#[$meta])*
        pub struct $name {
            buf: ScratchBuf,
            len: usize,
        }

        impl std::ops::Deref for $name {
            type Target = [$elem];

            fn deref(&self) -> &[$elem] {
                // SAFETY: the inner buffer owns at least `len * size_of::<$elem>()`
                // bytes of live, 32-byte-aligned arena storage, and `$elem` has
                // no validity requirements beyond initialized bytes (the arena
                // zero-fills fresh blocks and callers overwrite reused space).
                unsafe { std::slice::from_raw_parts(self.buf.ptr.cast::<$elem>(), self.len) }
            }
        }

        impl std::ops::DerefMut for $name {
            fn deref_mut(&mut self) -> &mut [$elem] {
                // SAFETY: as above; `&mut self` guarantees exclusive access.
                unsafe {
                    std::slice::from_raw_parts_mut(self.buf.ptr.cast::<$elem>(), self.len)
                }
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).field("len", &self.len).finish()
            }
        }

        /// Allocates `len` elements from the current thread's arena.
        /// Contents are unspecified — fully overwrite, or use the zeroed
        /// variant.
        #[must_use]
        pub fn $alloc(len: usize) -> $name {
            let f32s = (len * std::mem::size_of::<$elem>()).div_ceil(std::mem::size_of::<f32>());
            $name {
                buf: alloc(f32s),
                len,
            }
        }

        /// Zero-filled variant of the allocator above.
        #[must_use]
        pub fn $alloc_zeroed(len: usize) -> $name {
            let mut buf = $alloc(len);
            buf.fill(0);
            buf
        }
    };
}

scratch_view! {
    /// A bump-allocated `i8` buffer borrowed from the arena (quantized
    /// activations, packed int8 panels). Same lifetime rules as
    /// [`ScratchBuf`].
    ScratchBufI8, i8, alloc_i8, alloc_i8_zeroed
}

scratch_view! {
    /// A bump-allocated `i16` buffer borrowed from the arena (sign-extended
    /// depthwise planes). Same lifetime rules as [`ScratchBuf`].
    ScratchBufI16, i16, alloc_i16, alloc_i16_zeroed
}

scratch_view! {
    /// A bump-allocated `i32` buffer borrowed from the arena (qGEMM
    /// accumulators). Same lifetime rules as [`ScratchBuf`].
    ScratchBufI32, i32, alloc_i32, alloc_i32_zeroed
}

/// Per-training-step backstop: verifies every [`ScratchBuf`] on this
/// thread has been dropped, rewinds the arena and bumps its generation.
///
/// Call between steps (the trainers do); it turns a scratch-buffer leak
/// into an immediate panic at a known boundary instead of silent memory
/// growth.
///
/// # Panics
///
/// Panics if scratch buffers allocated on this thread are still alive.
pub fn reset() {
    // The borrow is released before any panic so that unwinding (which
    // drops the leaked buffers, which re-borrow the arena) stays safe.
    let outstanding = ARENA.with(|a| {
        let mut arena = a.borrow_mut();
        if arena.outstanding == 0 {
            arena.rewind();
            arena.generation = arena.generation.wrapping_add(1);
        }
        arena.outstanding
    });
    assert_eq!(
        outstanding, 0,
        "scratch::reset with {outstanding} buffer(s) still outstanding; \
         scratch buffers must not outlive one forward/backward step"
    );
}

/// Bytes currently reserved by this thread's arena (test/diagnostic hook).
#[must_use]
pub fn reserved_bytes() -> usize {
    ARENA.with(|a| {
        a.borrow()
            .blocks
            .iter()
            .map(|b| b.len() * std::mem::size_of::<f32>())
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_disjoint_and_aligned() {
        let a = alloc(10);
        let b = alloc(100);
        let c = alloc(1);
        for buf in [&a, &b, &c] {
            assert_eq!(buf.as_ptr() as usize % 32, 0, "32-byte alignment");
        }
        let ra = a.as_ptr() as usize..a.as_ptr() as usize + a.len() * 4;
        let rb = b.as_ptr() as usize..b.as_ptr() as usize + b.len() * 4;
        let rc = c.as_ptr() as usize..c.as_ptr() as usize + c.len() * 4;
        assert!(ra.end <= rb.start || rb.end <= ra.start);
        assert!(ra.end <= rc.start || rc.end <= ra.start);
        assert!(rb.end <= rc.start || rc.end <= rb.start);
    }

    #[test]
    fn contents_survive_while_live_and_space_is_reused() {
        let first_ptr;
        {
            let mut a = alloc(64);
            a.fill(3.5);
            first_ptr = a.as_ptr();
            let mut b = alloc(64);
            b.fill(-1.0);
            assert!(a.iter().all(|&v| v == 3.5), "b must not clobber a");
        }
        // Everything returned: the next allocation reuses the same space.
        let c = alloc(64);
        assert_eq!(c.as_ptr(), first_ptr, "arena should rewind when empty");
    }

    #[test]
    fn newest_buffer_pops_while_older_ones_live() {
        let base = alloc(100);
        let first = {
            let a = alloc(64);
            let b = alloc(32);
            let ptr = a.as_ptr();
            drop(b);
            drop(a);
            ptr
        };
        // Both temporaries were popped in LIFO order, so the next one
        // reuses their space although `base` is still out.
        let c = alloc(16);
        assert_eq!(c.as_ptr(), first);
        // An out-of-order drop is only reclaimed by the final rewind.
        let d = alloc(8);
        let (c_ptr, d_end) = (c.as_ptr(), d.as_ptr());
        drop(c);
        let e = alloc(8);
        assert!(e.as_ptr() > d_end && e.as_ptr() > c_ptr);
        drop((d, e, base));
    }

    #[test]
    fn alloc_zeroed_zeroes_recycled_memory() {
        {
            let mut d = alloc(32);
            d.fill(7.0);
        }
        let z = alloc_zeroed(32);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn growth_preserves_live_buffers() {
        // Cumulative size crosses the initial block capacity, forcing new
        // blocks while older buffers are still live.
        let mut bufs = Vec::new();
        for i in 0..15 {
            let mut b = alloc(1 << i);
            b.fill(i as f32);
            bufs.push(b);
        }
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(b.len(), 1 << i);
            assert!(b.iter().all(|&v| v == i as f32), "buffer {i} corrupted");
        }
    }

    #[test]
    fn rewind_coalesces_to_full_cycle_footprint() {
        // A cycle whose live footprint spans several blocks: the rewind
        // must size the coalesced block from the cross-block total, so an
        // identical second cycle fits in one block and the arena stops
        // allocating (i.e. it converges instead of re-fragmenting).
        let cycle = || {
            let bufs: Vec<ScratchBuf> = (0..15).map(|i| alloc(1 << i)).collect();
            assert!(bufs
                .iter()
                .all(|b| (b.as_ptr() as usize).is_multiple_of(32)));
        };
        cycle();
        let after_first = reserved_bytes();
        for _ in 0..3 {
            cycle();
            assert_eq!(
                reserved_bytes(),
                after_first,
                "repeat cycles must reuse the coalesced block"
            );
        }
    }

    #[test]
    fn reset_rewinds_and_reports() {
        {
            let _a = alloc(100);
        }
        reset();
        assert!(reserved_bytes() > 0);
        let b = alloc(10);
        assert_eq!(b.as_ptr() as usize % 32, 0);
    }

    #[test]
    fn typed_views_are_disjoint_and_aligned() {
        let mut a = alloc_i8(13);
        a.fill(7);
        let mut b = alloc_i32(5);
        b.fill(-3);
        let z = alloc_i8_zeroed(40);
        assert_eq!(a.as_ptr() as usize % 32, 0);
        assert_eq!(b.as_ptr() as usize % 32, 0);
        assert!(a.iter().all(|&v| v == 7), "i32 view must not clobber i8");
        assert!(b.iter().all(|&v| v == -3));
        assert!(z.iter().all(|&v| v == 0));
    }

    #[test]
    fn reset_panics_on_leaked_buffer() {
        let result = std::panic::catch_unwind(|| {
            let _leaked = alloc(8);
            reset();
        });
        assert!(result.is_err(), "reset must reject outstanding buffers");
        // The drop of `_leaked` during unwinding is generation-checked, so
        // the arena stays usable afterwards.
        reset();
        let _ok = alloc(8);
    }
}
