//! Property tests for the snapshot container: arbitrary payloads survive a
//! disk round trip bit-exactly, and arbitrary single-byte corruption is
//! always *detected* (an error, never a panic, never silent acceptance).

use edd_runtime::snapshot::{self, ByteReader, ByteWriter, SectionWriter, Sections, SnapshotError};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "edd-runtime-prop-{}-{tag}.edds",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn container_roundtrips_any_payload(payload in prop::collection::vec(0u8..=255, 0..512)) {
        let path = temp_path("roundtrip");
        snapshot::write_atomic(&path, &payload).unwrap();
        let back = snapshot::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn f32_sections_roundtrip_bit_exact(
        bits in prop::collection::vec(0u32..=u32::MAX, 1..64),
        extra in 0u64..=u64::MAX,
    ) {
        // Arbitrary bit patterns include NaNs with payloads, infinities,
        // and denormals — all must survive save → load unchanged.
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut w = ByteWriter::new();
        w.put_f32_slice(&values);
        w.put_u64(extra);
        let mut sections = SectionWriter::new();
        sections.add("floats", &w.into_bytes());
        let payload = sections.into_payload();

        let path = temp_path("bits");
        snapshot::write_atomic(&path, &payload).unwrap();
        let back = snapshot::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let parsed = Sections::parse(&back).unwrap();
        let mut r = ByteReader::new(parsed.require("floats").unwrap());
        let got = r.get_f32_vec().unwrap();
        prop_assert_eq!(got.len(), values.len());
        for (g, b) in got.iter().zip(&bits) {
            prop_assert_eq!(g.to_bits(), *b);
        }
        prop_assert_eq!(r.get_u64().unwrap(), extra);
    }

    #[test]
    fn flipped_byte_is_always_detected(
        payload in prop::collection::vec(0u8..=255, 8..128),
        pos_seed in 0usize..=usize::MAX,
        bit in 0u8..8,
    ) {
        let file = snapshot::encode_container(&payload);
        let pos = pos_seed % file.len();
        let mut bad = file;
        bad[pos] ^= 1 << bit;
        // Any single-bit flip anywhere in the file must surface as an
        // error. Which error depends on where it landed (magic, version,
        // length, CRC, payload) — corrupt data must never decode cleanly.
        prop_assert!(snapshot::decode_container(&bad).is_err());
    }

    #[test]
    fn truncation_is_always_detected(
        payload in prop::collection::vec(0u8..=255, 8..128),
        cut_seed in 0usize..=usize::MAX,
    ) {
        let file = snapshot::encode_container(&payload);
        let keep = cut_seed % file.len(); // strictly shorter than full
        prop_assert!(snapshot::decode_container(&file[..keep]).is_err());
    }

    #[test]
    fn reader_never_panics_on_garbage(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        // Exercise every accessor against arbitrary bytes: errors are
        // fine, panics are not.
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8();
        let _ = r.get_u32();
        let _ = r.get_f32_vec();
        let _ = r.get_str();
        let _ = r.get_u64();
        let _ = Sections::parse(&bytes);
        prop_assert!(true);
    }
}

#[test]
fn corruption_reports_the_right_error_kinds() {
    let payload = b"realistic checkpoint payload".to_vec();
    let file = snapshot::encode_container(&payload);

    let mut body_flip = file.clone();
    let last = body_flip.len() - 1;
    body_flip[last] ^= 0x01;
    assert!(matches!(
        snapshot::decode_container(&body_flip),
        Err(SnapshotError::CrcMismatch { .. })
    ));

    assert!(matches!(
        snapshot::decode_container(&file[..file.len() - 4]),
        Err(SnapshotError::Truncated { .. })
    ));

    let mut magic_flip = file;
    magic_flip[3] ^= 0x20;
    assert!(matches!(
        snapshot::decode_container(&magic_flip),
        Err(SnapshotError::BadMagic { .. })
    ));
}
