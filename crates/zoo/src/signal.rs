//! Synthetic long signals for streaming (pulsed) inference.
//!
//! The streaming demos and determinism suites need a continuous input
//! that is deterministic (integer-derived, no platform-dependent libm),
//! structured enough that different sliding windows classify differently,
//! and cheap to regenerate anywhere in the stream. A signal is a sequence
//! of channel-major rows — `channels × width` floats each — exactly the
//! slices a pulsed model's `push` consumes; [`signal_window`] reassembles
//! any window into the NCHW buffer the batch engine takes, so pulsed and
//! batch paths can be compared bit for bit on identical data.

/// One row (pulse) of a synthetic signal: `channels × width` floats in
/// channel-major order, deterministic in `(seed, row)`.
///
/// The pattern superimposes a per-channel drifting ramp with xorshift
/// noise, so consecutive windows see smoothly-varying but distinct
/// content — a stand-in for a sensor sweep rather than white noise.
#[must_use]
pub fn signal_row(channels: usize, width: usize, seed: u64, row: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(channels * width);
    for ch in 0..channels {
        for x in 0..width {
            // Slow structure: a ramp whose phase drifts with the row.
            let phase = (row * 3 + ch * 5 + x * 2) % 29;
            let ramp = (phase as f32 - 14.0) / 14.0;
            // Noise: splitmix64-style mix of (seed, row, ch, x) —
            // integer only, so identical on every platform.
            let mut s = seed
                ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((ch * width + x) as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            s ^= s >> 30;
            s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            s ^= s >> 27;
            s = s.wrapping_mul(0x94D0_49BB_1331_11EB);
            s ^= s >> 31;
            let noise = (s >> 52) as f32 / f32::from(1u16 << 11) - 1.0;
            out.push(ramp * 0.6 + noise * 0.4);
        }
    }
    out
}

/// The first `rows` rows of the signal, in order.
#[must_use]
pub fn synthetic_signal(channels: usize, width: usize, rows: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..rows)
        .map(|r| signal_row(channels, width, seed, r))
        .collect()
}

/// Assembles rows `[start, start + window)` of a signal into the NCHW
/// `[channels, window, width]` buffer the batch engine consumes (batch
/// dimension left to the caller).
///
/// # Panics
///
/// Panics if the slice holds fewer than `start + window` rows or a row
/// has the wrong length.
#[must_use]
pub fn signal_window(
    rows: &[Vec<f32>],
    start: usize,
    window: usize,
    channels: usize,
    width: usize,
) -> Vec<f32> {
    assert!(
        start + window <= rows.len(),
        "signal_window: window [{start}, {}) exceeds the {} rows given",
        start + window,
        rows.len()
    );
    let mut out = vec![0.0f32; channels * window * width];
    for (r, row) in rows[start..start + window].iter().enumerate() {
        assert_eq!(row.len(), channels * width, "signal_window: row length");
        for ch in 0..channels {
            out[(ch * window + r) * width..(ch * window + r) * width + width]
                .copy_from_slice(&row[ch * width..(ch + 1) * width]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_deterministic_and_seed_sensitive() {
        let a = signal_row(3, 16, 7, 42);
        let b = signal_row(3, 16, 7, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 48);
        assert_ne!(a, signal_row(3, 16, 8, 42));
        assert_ne!(a, signal_row(3, 16, 7, 43));
        assert!(a.iter().all(|v| v.is_finite() && v.abs() < 4.0));
    }

    #[test]
    fn window_reassembles_channel_major_rows() {
        let rows = synthetic_signal(2, 3, 5, 1);
        let win = signal_window(&rows, 1, 4, 2, 3);
        assert_eq!(win.len(), 2 * 4 * 3);
        // Channel 1, window-row 2 is stream row 3's second channel, at
        // offset (channel · window + row) · width = (1·4 + 2)·3 = 18.
        assert_eq!(win[18..21], rows[3][3..6]);
    }

    #[test]
    #[should_panic(expected = "signal_window")]
    fn window_past_end_panics() {
        let rows = synthetic_signal(1, 2, 3, 0);
        let _ = signal_window(&rows, 2, 2, 1, 2);
    }
}
