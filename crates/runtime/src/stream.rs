//! Streaming (pulsed) inference API.
//!
//! Embedded deployments rarely see batch-N classification: the realistic
//! shape is a continuous signal arriving one fixed-size slice at a time,
//! processed under a fixed memory budget. This module defines the
//! contract for that mode — [`StreamModel`], a `push(slice) ->
//! Option<window>` interface over any pulsed executor — plus
//! [`StreamSession`], the instrumented wrapper that feeds `pulse.*`
//! telemetry (push/row/window counters and a carried-state-bytes gauge).
//!
//! The pulsed executor itself lives in `edd-ir` (`PulsedModel`), which
//! implements [`StreamModel`]; this crate only owns the trait so the
//! serving layer and the CLI can stream against any implementation, the
//! same way batch serving goes through [`crate::BatchModel`].

use crate::telemetry;

/// One completed sliding-window classification emitted by a stream.
///
/// Windows are indexed in arrival order; `start_row` is the absolute
/// stream row at which the window began, so `start_row + window_rows - 1`
/// is the row whose arrival completed it (the pulse delay made explicit).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamWindow {
    /// Zero-based index of the window in the stream.
    pub index: u64,
    /// Absolute stream row index of the window's first slice.
    pub start_row: u64,
    /// `[num_classes]` logits, bitwise-equal to the batch engine run on
    /// the same window.
    pub logits: Vec<f32>,
}

impl StreamWindow {
    /// Index of the highest logit (the predicted class).
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i)
    }
}

/// A model that consumes a signal one fixed-size slice (image row) at a
/// time and emits a [`StreamWindow`] whenever a sliding window completes.
///
/// Contract:
///
/// - `push` accepts exactly [`StreamModel::slice_len`] floats and returns
///   at most one window (window starts are at least one hop apart, and a
///   hop is at least one row, so two windows can never complete on the
///   same pushed row).
/// - Outputs are bitwise-identical to running the batch engine on the
///   same `window_rows`-row windows, whatever `EDD_NUM_THREADS` or
///   `EDD_SIMD` says.
/// - Carried state is bounded: [`StreamModel::state_bytes`] depends on
///   the model geometry and the window/hop sizes, never on how many rows
///   the stream has already delivered.
/// - `save_state`/`restore_state` round-trip the full mid-signal state,
///   so a resumed stream continues bit-for-bit.
pub trait StreamModel {
    /// Error type surfaced by [`StreamModel::push`] and
    /// [`StreamModel::restore_state`].
    type Error: std::fmt::Display;

    /// Floats per pushed slice (channels × width of one input row).
    fn slice_len(&self) -> usize;

    /// Rows per classification window.
    fn window_rows(&self) -> usize;

    /// Rows between consecutive window starts.
    fn hop_rows(&self) -> usize;

    /// Logits per emitted window.
    fn num_classes(&self) -> usize;

    /// Rows of a window that must arrive before its output can exist
    /// (for a window-classifier this is `window_rows - 1`: the pool over
    /// the full window pins the output to the last row).
    fn delay_rows(&self) -> usize;

    /// Feeds one slice; returns the window (if any) completed by it.
    ///
    /// # Errors
    ///
    /// Errors when the slice length is wrong or an internal layer fails.
    fn push(&mut self, slice: &[f32]) -> Result<Option<StreamWindow>, Self::Error>;

    /// Drops all carried state and stream position.
    fn reset(&mut self);

    /// Bytes of carried state currently held (rings, queues, partial
    /// pools) — the number the O(window) memory bound is stated over.
    fn state_bytes(&self) -> usize;

    /// Serializes the full mid-stream state (not the weights).
    fn save_state(&self) -> Vec<u8>;

    /// Restores a state produced by [`StreamModel::save_state`] on a
    /// model built from the same program.
    ///
    /// # Errors
    ///
    /// Errors when the bytes do not decode against this model's geometry.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), Self::Error>;
}

/// Counters accumulated by a [`StreamSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Slices pushed.
    pub pushes: u64,
    /// Windows emitted.
    pub windows: u64,
    /// Largest carried state observed after any push, in bytes.
    pub peak_state_bytes: usize,
}

/// Telemetry-instrumented wrapper around a [`StreamModel`].
///
/// Every push bumps the `pulse.pushes` counter and refreshes the
/// `pulse.state_bytes` gauge; every emitted window bumps `pulse.windows`.
/// The same numbers are kept locally in [`StreamStats`] so tests and the
/// CLI can assert on them without a telemetry sink.
#[derive(Debug)]
pub struct StreamSession<M: StreamModel> {
    model: M,
    stats: StreamStats,
}

impl<M: StreamModel> StreamSession<M> {
    /// Wraps a stream model.
    pub fn new(model: M) -> Self {
        StreamSession {
            model,
            stats: StreamStats::default(),
        }
    }

    /// Feeds one slice through the model, updating counters and gauges.
    ///
    /// # Errors
    ///
    /// Propagates the model's push error.
    pub fn push(&mut self, slice: &[f32]) -> Result<Option<StreamWindow>, M::Error> {
        let out = self.model.push(slice)?;
        self.stats.pushes += 1;
        telemetry::counter("pulse.pushes", 1);
        let state = self.model.state_bytes();
        self.stats.peak_state_bytes = self.stats.peak_state_bytes.max(state);
        telemetry::gauge("pulse.state_bytes", state);
        if let Some(w) = &out {
            self.stats.windows += 1;
            telemetry::counter("pulse.windows", 1);
            telemetry::event(
                "pulse.window",
                &[
                    ("index", telemetry::Value::U64(w.index)),
                    ("start_row", telemetry::Value::U64(w.start_row)),
                    ("state_bytes", telemetry::Value::U64(state as u64)),
                ],
            );
        }
        Ok(out)
    }

    /// Session counters so far.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Serializes the wrapped model's mid-stream state.
    #[must_use]
    pub fn save_state(&self) -> Vec<u8> {
        self.model.save_state()
    }

    /// Restores the wrapped model's mid-stream state.
    ///
    /// # Errors
    ///
    /// Propagates the model's restore error.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), M::Error> {
        self.model.restore_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal deterministic stream model: windows of 3 rows, hop 2,
    /// "logits" are the running sums of each pushed slice element.
    struct SumModel {
        rows: Vec<Vec<f32>>,
        t: u64,
        emitted: u64,
    }

    impl SumModel {
        fn new() -> Self {
            SumModel {
                rows: Vec::new(),
                t: 0,
                emitted: 0,
            }
        }
    }

    impl StreamModel for SumModel {
        type Error = String;

        fn slice_len(&self) -> usize {
            2
        }
        fn window_rows(&self) -> usize {
            3
        }
        fn hop_rows(&self) -> usize {
            2
        }
        fn num_classes(&self) -> usize {
            2
        }
        fn delay_rows(&self) -> usize {
            2
        }

        fn push(&mut self, slice: &[f32]) -> Result<Option<StreamWindow>, String> {
            if slice.len() != 2 {
                return Err(format!("expected 2 floats, got {}", slice.len()));
            }
            self.rows.push(slice.to_vec());
            self.t += 1;
            // Keep only what a window can still read (bounded state).
            while self.rows.len() > 3 {
                self.rows.remove(0);
            }
            let start = self.emitted * 2;
            if self.t >= start + 3 {
                let first = self.rows.len() - 3;
                let mut logits = vec![0.0f32; 2];
                for r in &self.rows[first..] {
                    logits[0] += r[0];
                    logits[1] += r[1];
                }
                let w = StreamWindow {
                    index: self.emitted,
                    start_row: start,
                    logits,
                };
                self.emitted += 1;
                return Ok(Some(w));
            }
            Ok(None)
        }

        fn reset(&mut self) {
            self.rows.clear();
            self.t = 0;
            self.emitted = 0;
        }

        fn state_bytes(&self) -> usize {
            self.rows.len() * 2 * 4
        }

        fn save_state(&self) -> Vec<u8> {
            let mut w = crate::ByteWriter::new();
            w.put_u64(self.t);
            w.put_u64(self.emitted);
            w.put_u32(self.rows.len() as u32);
            for r in &self.rows {
                w.put_f32_slice(r);
            }
            w.into_bytes()
        }

        fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
            let mut r = crate::ByteReader::new(bytes);
            self.t = r.get_u64().map_err(|e| e.to_string())?;
            self.emitted = r.get_u64().map_err(|e| e.to_string())?;
            let n = r.get_u32().map_err(|e| e.to_string())? as usize;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.get_f32_vec().map_err(|e| e.to_string())?);
            }
            self.rows = rows;
            Ok(())
        }
    }

    #[test]
    fn session_counts_pushes_and_windows() {
        let mut s = StreamSession::new(SumModel::new());
        let mut windows = Vec::new();
        for i in 0..9 {
            let slice = [i as f32, -(i as f32)];
            if let Some(w) = s.push(&slice).unwrap() {
                windows.push(w);
            }
        }
        // Windows start at rows 0, 2, 4, 6 and complete at 2, 4, 6, 8.
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[1].start_row, 2);
        let st = s.stats();
        assert_eq!(st.pushes, 9);
        assert_eq!(st.windows, 4);
        assert!(st.peak_state_bytes > 0);
        // Bounded: peak never exceeds one window of rows.
        assert!(st.peak_state_bytes <= 3 * 2 * 4);
    }

    #[test]
    fn save_restore_resumes_bitwise() {
        let rows: Vec<[f32; 2]> = (0..11).map(|i| [i as f32 * 0.5, 1.0 - i as f32]).collect();
        let mut full = StreamSession::new(SumModel::new());
        let mut want = Vec::new();
        for r in &rows {
            if let Some(w) = full.push(r).unwrap() {
                want.push(w);
            }
        }
        // Run half, snapshot, restore into a fresh model, run the rest.
        let mut a = StreamSession::new(SumModel::new());
        let mut got = Vec::new();
        for r in &rows[..5] {
            if let Some(w) = a.push(r).unwrap() {
                got.push(w);
            }
        }
        let blob = a.save_state();
        let mut b = StreamSession::new(SumModel::new());
        b.restore_state(&blob).unwrap();
        for r in &rows[5..] {
            if let Some(w) = b.push(r).unwrap() {
                got.push(w);
            }
        }
        assert_eq!(want, got);
    }

    #[test]
    fn push_error_propagates() {
        let mut s = StreamSession::new(SumModel::new());
        assert!(s.push(&[1.0]).is_err());
        assert_eq!(s.stats().pushes, 0);
    }

    #[test]
    fn argmax_picks_largest_logit() {
        let w = StreamWindow {
            index: 0,
            start_row: 0,
            logits: vec![0.25, -1.0, 0.75],
        };
        assert_eq!(w.argmax(), 2);
    }
}
