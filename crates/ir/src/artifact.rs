//! The compiled-model artifact format.
//!
//! An artifact is a lowered (all-quantized) [`Graph`] serialized into the
//! engine's standard snapshot container: an 8-byte magic, a little-endian
//! format version, a payload length, and a CRC-32 over the payload —
//! reusing `edd_runtime::snapshot`'s framing with an artifact-specific
//! magic (`EDDMODL\0`) so model files and training snapshots can never be
//! confused for one another. Tensors are stored as raw bits (int8/int4
//! weights verbatim, f32 scales as IEEE-754 bit patterns, requantizers as
//! their i32 fixed-point fields), so a load reconstructs the exact specs
//! that were saved and a hot-loaded model is bit-identical to the one
//! compiled in process.
//!
//! Robustness: the CRC rejects bit flips and truncation before parsing
//! begins; every count is bounds-checked against the remaining payload
//! ([`ByteReader::get_count`]); and decoded specs are cross-validated
//! against their geometry (weight/bias/requant lengths, clamp bounds
//! ordered and inside the i8 range) and against the kernels' numeric
//! domain (every requantizer [`Requant::is_well_formed`]) before graph
//! fact inference runs. A corrupt or hostile file yields a clean
//! [`SnapshotError`], never a panic or a result that depends on the SIMD
//! path.

use crate::exec::CompiledModel;
use crate::graph::{Graph, GraphMeta, Node, Op, QAddOp};
use edd_nn::{QConvSpec, QDwConvSpec, QLinearSpec, QWeights, ACT_QMAX};
use edd_runtime::{
    decode_container_as, encode_container_as, write_atomic_raw, ByteReader, ByteWriter,
    SectionWriter, Sections, SnapshotError,
};
use edd_tensor::qkernel::Requant;
use std::path::Path;

/// Magic bytes identifying a compiled-model artifact.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"EDDMODL\0";
/// Current artifact format version.
pub const ARTIFACT_VERSION: u32 = 1;
/// Conventional file extension for artifacts.
pub const ARTIFACT_EXT: &str = "eddm";

type Result<T> = std::result::Result<T, SnapshotError>;

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// Serializes a lowered graph into complete artifact file bytes
/// (container framing included).
///
/// # Errors
///
/// Errors when the graph still contains float ops — only lowered graphs
/// are artifacts.
pub fn to_bytes(g: &Graph) -> Result<Vec<u8>> {
    let mut meta = ByteWriter::new();
    meta.put_str(&g.meta.name);
    for d in g.meta.input_shape {
        meta.put_u64(d as u64);
    }
    meta.put_u64(g.meta.num_classes as u64);

    let mut gw = ByteWriter::new();
    gw.put_u64(g.len() as u64);
    gw.put_u64(g.output().map_err(|e| corrupt(e.to_string()))? as u64);
    for n in g.nodes() {
        gw.put_str(&n.name);
        match n.scale {
            Some(s) => {
                gw.put_u8(1);
                gw.put_f32(s);
            }
            None => gw.put_u8(0),
        }
        match n.bits {
            Some(b) => {
                gw.put_u8(1);
                gw.put_u32(b);
            }
            None => gw.put_u8(0),
        }
        gw.put_u64(n.inputs.len() as u64);
        for &i in &n.inputs {
            gw.put_u64(i as u64);
        }
        encode_op(&mut gw, &n.op)?;
    }

    let mut sections = SectionWriter::new();
    sections.add("meta", &meta.into_bytes());
    sections.add("graph", &gw.into_bytes());
    Ok(encode_container_as(
        &ARTIFACT_MAGIC,
        ARTIFACT_VERSION,
        &sections.into_payload(),
    ))
}

/// Parses artifact file bytes back into a validated lowered graph.
///
/// # Errors
///
/// Magic/version/CRC failures from the container, framing errors, and
/// semantic validation failures (spec-geometry mismatches, fact-inference
/// errors) all surface as [`SnapshotError`].
pub fn from_bytes(bytes: &[u8]) -> Result<Graph> {
    let payload = decode_container_as(&ARTIFACT_MAGIC, ARTIFACT_VERSION, bytes)?;
    let sections = Sections::parse(&payload)?;

    let mut mr = ByteReader::new(sections.require("meta")?);
    let name = mr.get_str()?;
    let mut input_shape = [0usize; 3];
    for d in &mut input_shape {
        *d = dim(mr.get_u64()?)?;
    }
    let num_classes = dim(mr.get_u64()?)?;

    let mut r = ByteReader::new(sections.require("graph")?);
    let count = r.get_count(1)?;
    let output = dim(r.get_u64()?)?;
    let mut g = Graph::new(GraphMeta {
        name,
        input_shape,
        num_classes,
    });
    for id in 0..count {
        let name = r.get_str()?;
        let scale = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_f32()?),
            v => return Err(corrupt(format!("node {id}: bad scale flag {v}"))),
        };
        let bits = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u32()?),
            v => return Err(corrupt(format!("node {id}: bad bits flag {v}"))),
        };
        let n_inputs = r.get_count(8)?;
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            inputs.push(dim(r.get_u64()?)?);
        }
        let op = decode_op(&mut r, id)?;
        g.add(Node {
            name,
            op,
            inputs,
            scale,
            bits,
        })
        .map_err(|e| corrupt(e.to_string()))?;
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "graph section has {} trailing bytes",
            r.remaining()
        )));
    }
    g.set_output(output).map_err(|e| corrupt(e.to_string()))?;
    // Type-check the decoded graph: shape/dtype facts must be coherent.
    g.facts().map_err(|e| corrupt(e.to_string()))?;
    Ok(g)
}

/// Writes a lowered graph to `path` atomically (tmp + fsync + rename).
///
/// # Errors
///
/// Serialization and I/O failures.
pub fn save(path: &Path, g: &Graph) -> Result<()> {
    write_atomic_raw(path, &to_bytes(g)?)
}

/// Loads an artifact from disk into a validated lowered graph.
///
/// # Errors
///
/// I/O, container, and validation failures.
pub fn load_graph(path: &Path) -> Result<Graph> {
    from_bytes(&std::fs::read(path)?)
}

/// Loads an artifact from disk and builds the runnable model (the hot
/// path for `edd serve --artifacts`).
///
/// # Errors
///
/// Everything [`load_graph`] rejects, plus executable-model validation
/// (e.g. the output not being logits).
pub fn load(path: &Path) -> Result<CompiledModel> {
    CompiledModel::from_graph(load_graph(path)?).map_err(|e| corrupt(e.to_string()))
}

fn dim(v: u64) -> Result<usize> {
    usize::try_from(v).map_err(|_| corrupt(format!("value {v} exceeds the address space")))
}

// Op tags. Stable on-disk identifiers — append, never renumber.
const TAG_INPUT: u8 = 0;
const TAG_QUANTIZE: u8 = 1;
const TAG_QCONV: u8 = 2;
const TAG_QDWCONV: u8 = 3;
const TAG_QRELU6: u8 = 4;
const TAG_QADD: u8 = 5;
const TAG_QGAP: u8 = 6;
const TAG_QLINEAR: u8 = 7;

fn encode_op(w: &mut ByteWriter, op: &Op) -> Result<()> {
    match op {
        Op::Input => w.put_u8(TAG_INPUT),
        Op::Quantize { scale } => {
            w.put_u8(TAG_QUANTIZE);
            w.put_f32(*scale);
        }
        Op::QConv(s) => {
            w.put_u8(TAG_QCONV);
            encode_weights(w, &s.weights);
            w.put_i32_slice(&s.bias_q);
            encode_requants(w, &s.requant);
            for d in [s.in_channels, s.out_channels, s.kernel, s.stride, s.padding] {
                w.put_u64(d as u64);
            }
            w.put_f32(s.in_scale);
            w.put_f32(s.out_scale);
            w.put_i32(s.lo);
            w.put_i32(s.hi);
            w.put_u8(u8::from(s.direct));
        }
        Op::QDwConv(s) => {
            w.put_u8(TAG_QDWCONV);
            encode_weights(w, &s.weights);
            w.put_i32_slice(&s.bias_q);
            encode_requants(w, &s.requant);
            for d in [s.channels, s.kernel, s.stride, s.padding] {
                w.put_u64(d as u64);
            }
            w.put_f32(s.in_scale);
            w.put_f32(s.out_scale);
            w.put_i32(s.lo);
            w.put_i32(s.hi);
        }
        Op::QRelu6 { hi } => {
            w.put_u8(TAG_QRELU6);
            w.put_u8(*hi as u8);
        }
        Op::QAdd(a) => {
            w.put_u8(TAG_QADD);
            let flags = u8::from(a.rq_a.is_some()) | (u8::from(a.rq_b.is_some()) << 1);
            w.put_u8(flags);
            for rq in [&a.rq_a, &a.rq_b].into_iter().flatten() {
                w.put_i32(rq.mult);
                w.put_i32(rq.shift);
            }
            w.put_f32(a.out_scale);
        }
        Op::QGlobalAvgPool => w.put_u8(TAG_QGAP),
        Op::QLinear(s) => {
            w.put_u8(TAG_QLINEAR);
            encode_weights(w, &s.weights);
            w.put_f32_slice(&s.bias);
            w.put_f32_slice(&s.w_scales);
            w.put_u64(s.in_features as u64);
            w.put_u64(s.out_features as u64);
            w.put_f32(s.in_scale);
        }
        float => {
            return Err(corrupt(format!(
                "float op `{}` cannot be serialized; lower the graph first",
                float.mnemonic()
            )));
        }
    }
    Ok(())
}

fn decode_op(r: &mut ByteReader<'_>, id: usize) -> Result<Op> {
    let tag = r.get_u8()?;
    let op = match tag {
        TAG_INPUT => Op::Input,
        TAG_QUANTIZE => Op::Quantize {
            scale: r.get_f32()?,
        },
        TAG_QCONV => {
            let weights = decode_weights(r)?;
            let bias_q = r.get_i32_vec()?;
            let requant = decode_requants(r)?;
            let (in_channels, out_channels, kernel, stride, padding) = (
                dim(r.get_u64()?)?,
                dim(r.get_u64()?)?,
                dim(r.get_u64()?)?,
                dim(r.get_u64()?)?,
                dim(r.get_u64()?)?,
            );
            let spec = QConvSpec {
                weights,
                bias_q,
                requant,
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                in_scale: r.get_f32()?,
                out_scale: r.get_f32()?,
                lo: r.get_i32()?,
                hi: r.get_i32()?,
                direct: r.get_u8()? != 0,
            };
            let (o, i, k) = (spec.out_channels, spec.in_channels, spec.kernel);
            check(
                product(&[o, i, k, k]) == Some(spec.weights.len())
                    && spec.bias_q.len() == spec.out_channels
                    && spec.requant.len() == spec.out_channels
                    && spec.kernel > 0
                    && spec.stride > 0
                    && spec.padding < spec.kernel
                    && clamp_in_range(spec.lo, spec.hi),
                id,
                "qconv",
            )?;
            Op::QConv(Box::new(spec))
        }
        TAG_QDWCONV => {
            let weights = decode_weights(r)?;
            let bias_q = r.get_i32_vec()?;
            let requant = decode_requants(r)?;
            let (channels, kernel, stride, padding) = (
                dim(r.get_u64()?)?,
                dim(r.get_u64()?)?,
                dim(r.get_u64()?)?,
                dim(r.get_u64()?)?,
            );
            let spec = QDwConvSpec {
                weights,
                bias_q,
                requant,
                channels,
                kernel,
                stride,
                padding,
                in_scale: r.get_f32()?,
                out_scale: r.get_f32()?,
                lo: r.get_i32()?,
                hi: r.get_i32()?,
            };
            check(
                product(&[spec.channels, spec.kernel, spec.kernel]) == Some(spec.weights.len())
                    && spec.bias_q.len() == spec.channels
                    && spec.requant.len() == spec.channels
                    && spec.kernel > 0
                    && spec.stride > 0
                    && spec.padding < spec.kernel
                    && clamp_in_range(spec.lo, spec.hi),
                id,
                "qdwconv",
            )?;
            Op::QDwConv(Box::new(spec))
        }
        TAG_QRELU6 => {
            let hi = r.get_u8()?;
            check(i32::from(hi) <= ACT_QMAX, id, "qrelu6")?;
            Op::QRelu6 { hi: hi as i8 }
        }
        TAG_QADD => {
            let flags = r.get_u8()?;
            check(flags <= 0b11, id, "qadd")?;
            let mut get_rq = |present: bool| -> Result<Option<Requant>> {
                if !present {
                    return Ok(None);
                }
                decode_requant(r).map(Some)
            };
            let rq_a = get_rq(flags & 1 != 0)?;
            let rq_b = get_rq(flags & 2 != 0)?;
            Op::QAdd(Box::new(QAddOp {
                rq_a,
                rq_b,
                out_scale: r.get_f32()?,
            }))
        }
        TAG_QGAP => Op::QGlobalAvgPool,
        TAG_QLINEAR => {
            let weights = decode_weights(r)?;
            let bias = r.get_f32_vec()?;
            let w_scales = r.get_f32_vec()?;
            let spec = QLinearSpec {
                weights,
                bias,
                w_scales,
                in_features: dim(r.get_u64()?)?,
                out_features: dim(r.get_u64()?)?,
                in_scale: r.get_f32()?,
            };
            check(
                product(&[spec.in_features, spec.out_features]) == Some(spec.weights.len())
                    && spec.bias.len() == spec.out_features
                    && spec.w_scales.len() == spec.out_features,
                id,
                "qlinear",
            )?;
            Op::QLinear(Box::new(spec))
        }
        other => return Err(corrupt(format!("node {id}: unknown op tag {other}"))),
    };
    Ok(op)
}

/// The product of `dims`, or `None` when it overflows: a hostile file must
/// not wrap a weight-length check into agreement.
fn product(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Requantizing layers clamp into `[lo, hi]` and store the result as i8.
fn clamp_in_range(lo: i32, hi: i32) -> bool {
    -128 <= lo && lo <= hi && hi <= 127
}

fn check(ok: bool, id: usize, what: &str) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(corrupt(format!(
            "node {id}: {what} spec is inconsistent with its geometry"
        )))
    }
}

const WEIGHTS_INT8: u8 = 0;
const WEIGHTS_INT4: u8 = 1;

fn encode_weights(w: &mut ByteWriter, q: &QWeights) {
    match q {
        QWeights::Int8(v) => {
            w.put_u8(WEIGHTS_INT8);
            w.put_i8_slice(v);
        }
        QWeights::Int4 { packed, len } => {
            w.put_u8(WEIGHTS_INT4);
            w.put_u64(*len as u64);
            w.put_bytes(packed);
        }
    }
}

fn decode_weights(r: &mut ByteReader<'_>) -> Result<QWeights> {
    match r.get_u8()? {
        WEIGHTS_INT8 => {
            let q = r.get_i8_vec()?;
            // Symmetric quantization stores at most ±127; the maddubs
            // kernel cannot negate -128, so its results would depend on
            // the SIMD path.
            if q.contains(&i8::MIN) {
                return Err(corrupt("int8 weights: -128 is off the symmetric grid"));
            }
            Ok(QWeights::Int8(q))
        }
        WEIGHTS_INT4 => {
            let len = dim(r.get_u64()?)?;
            let packed = r.get_bytes()?;
            if packed.len() != len.div_ceil(2) {
                return Err(corrupt(format!(
                    "int4 weights: {len} nibbles need {} bytes, found {}",
                    len.div_ceil(2),
                    packed.len()
                )));
            }
            Ok(QWeights::Int4 { packed, len })
        }
        other => Err(corrupt(format!("unknown weight storage tag {other}"))),
    }
}

fn encode_requants(w: &mut ByteWriter, rqs: &[Requant]) {
    w.put_u64(rqs.len() as u64);
    for rq in rqs {
        w.put_i32(rq.mult);
        w.put_i32(rq.shift);
    }
}

fn decode_requants(r: &mut ByteReader<'_>) -> Result<Vec<Requant>> {
    let n = r.get_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_requant(r)?);
    }
    Ok(out)
}

fn decode_requant(r: &mut ByteReader<'_>) -> Result<Requant> {
    let rq = Requant {
        mult: r.get_i32()?,
        shift: r.get_i32()?,
    };
    if !rq.is_well_formed() {
        return Err(corrupt(format!(
            "requantizer {rq:?} is outside the kernels' domain \
             (mult in [2^30, 2^31), left shift under 128 bits)"
        )));
    }
    Ok(rq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConvOp, DwConvOp, LinearOp};
    use crate::passes::{lower, PassConfig};
    use edd_runtime::BatchModel;

    /// A lowered graph with every serializable op, via the real pipeline.
    fn lowered() -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "artifact-test".into(),
            input_shape: [2, 5, 5],
            num_classes: 3,
        });
        let mut state = 0xDEAD_BEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / f64::from(1u32 << 21) - 16.0) as f32 * 0.03
        };
        let add = |g: &mut Graph, name: &str, op: Op, inputs: Vec<usize>, scale: f32, bits| {
            g.add(Node {
                name: name.into(),
                op,
                inputs,
                scale: Some(scale),
                bits,
            })
            .unwrap()
        };
        let i = add(&mut g, "in", Op::Input, vec![], 0.05, None);
        // int4 conv exercises the packed-weights encoding.
        let c1 = add(
            &mut g,
            "c1",
            Op::Conv2d(Box::new(ConvOp {
                w: (0..4 * 2 * 9).map(|_| next()).collect(),
                out_channels: 4,
                in_channels: 2,
                kernel: 3,
                stride: 1,
                padding: 1,
                bias: None,
                relu6: true,
            })),
            vec![i],
            0.04,
            Some(4),
        );
        let dw = add(
            &mut g,
            "dw",
            Op::DwConv2d(Box::new(DwConvOp {
                w: (0..4 * 9).map(|_| next()).collect(),
                channels: 4,
                kernel: 3,
                stride: 1,
                padding: 1,
                bias: None,
                relu6: true,
            })),
            vec![c1],
            0.04,
            Some(8),
        );
        let c2 = add(
            &mut g,
            "c2",
            Op::Conv2d(Box::new(ConvOp {
                w: (0..4 * 4).map(|_| next()).collect(),
                out_channels: 4,
                in_channels: 4,
                kernel: 1,
                stride: 1,
                padding: 0,
                bias: Some((0..4).map(|_| next()).collect()),
                relu6: false,
            })),
            vec![dw],
            0.04,
            Some(8),
        );
        let res = add(&mut g, "res", Op::Add, vec![c2, c1], 0.05, None);
        let p = add(&mut g, "gap", Op::GlobalAvgPool, vec![res], 0.05, None);
        let fc = add(
            &mut g,
            "fc",
            Op::Linear(Box::new(LinearOp {
                w: (0..4 * 3).map(|_| next()).collect(),
                in_features: 4,
                out_features: 3,
                bias: vec![0.1, -0.1, 0.0],
            })),
            vec![p],
            0.05,
            None,
        );
        g.set_output(fc).unwrap();
        lower(&g, &PassConfig::all()).unwrap().0
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let g = lowered();
        let bytes = to_bytes(&g).unwrap();
        let g2 = from_bytes(&bytes).unwrap();
        let bytes2 = to_bytes(&g2).unwrap();
        assert_eq!(bytes, bytes2, "decode→encode must reproduce the file");
        assert_eq!(g.len(), g2.len());
    }

    #[test]
    fn float_graphs_are_rejected_at_encode() {
        let mut g = Graph::new(GraphMeta {
            name: "f".into(),
            input_shape: [1, 2, 2],
            num_classes: 1,
        });
        let i = g
            .add(Node {
                name: "in".into(),
                op: Op::Input,
                inputs: vec![],
                scale: None,
                bits: None,
            })
            .unwrap();
        g.add(Node {
            name: "act".into(),
            op: Op::Relu6,
            inputs: vec![i],
            scale: None,
            bits: None,
        })
        .unwrap();
        let err = to_bytes(&g).unwrap_err().to_string();
        assert!(err.contains("relu6"), "{err}");
    }

    #[test]
    fn wrong_magic_and_truncation_are_rejected() {
        let bytes = to_bytes(&lowered()).unwrap();
        assert!(from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_bytes(&bytes[..10]).is_err());
        assert!(from_bytes(&[]).is_err());
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert!(from_bytes(&wrong).is_err());
        // A training snapshot's container must not parse as a model.
        let snap = edd_runtime::snapshot::encode_container(b"not a model");
        assert!(from_bytes(&snap).is_err());
    }

    /// Rebuilds `g` with `edit` applied to every op, encodes it (a valid
    /// CRC over the edited payload) and decodes it again.
    fn reencoded(g: &Graph, edit: impl Fn(&mut Op)) -> Result<Graph> {
        let mut h = Graph::new(g.meta.clone());
        for n in g.nodes() {
            let mut n = n.clone();
            edit(&mut n.op);
            h.add(n).unwrap();
        }
        h.set_output(g.output().unwrap()).unwrap();
        from_bytes(&to_bytes(&h).unwrap())
    }

    #[test]
    fn hostile_requantizers_and_clamps_are_rejected() {
        let g = lowered();
        for tag in ["qconv", "qdwconv", "qadd"] {
            assert!(
                g.nodes().iter().any(|n| n.op.mnemonic() == tag),
                "test graph lacks a {tag} node"
            );
        }
        assert!(reencoded(&g, |_| {}).is_ok(), "unedited graph must load");
        // A shift the debug build's `apply` cannot perform (i128 << 169),
        // and a negative multiplier the AVX2 requantizer reads unsigned.
        type RqEdit = fn(&mut Requant);
        let hostile: [(&str, RqEdit); 3] = [
            ("shift 200", |rq| rq.shift = 200),
            ("negative mult", |rq| rq.mult = -rq.mult),
            ("unnormalized mult", |rq| rq.mult = 1 << 29),
        ];
        for (what, f) in hostile {
            let requants = |op: &mut Op| match op {
                Op::QConv(s) => s.requant.iter_mut().for_each(f),
                Op::QDwConv(s) => s.requant.iter_mut().for_each(f),
                _ => {}
            };
            assert!(reencoded(&g, requants).is_err(), "conv/dw {what}");
            let adds = |op: &mut Op| {
                if let Op::QAdd(a) = op {
                    if let Some(rq) = a.rq_b.as_mut() {
                        f(rq);
                    }
                }
            };
            assert!(reencoded(&g, adds).is_err(), "qadd {what}");
        }
        // Clamp bounds outside the i8 range `apply_i8` and the narrowing
        // store assume.
        let wide_conv = |op: &mut Op| {
            if let Op::QConv(s) = op {
                (s.lo, s.hi) = (-1000, 1000);
            }
        };
        assert!(reencoded(&g, wide_conv).is_err(), "conv clamp");
        let wide_dw = |op: &mut Op| {
            if let Op::QDwConv(s) = op {
                (s.lo, s.hi) = (-1000, 1000);
            }
        };
        assert!(reencoded(&g, wide_dw).is_err(), "dw clamp");
    }

    /// `g` re-encoded with `pad` as the padding of its 3×3 `QConv`.
    fn with_conv_padding(g: &Graph, pad: usize) -> Result<Graph> {
        reencoded(g, |op| {
            if let Op::QConv(s) = op {
                if s.kernel == 3 {
                    s.padding = pad;
                }
            }
        })
    }

    #[test]
    fn conv_padding_past_the_kernel_is_rejected() {
        // With padding 2^14 the file used to decode and compile, and the
        // first one-image forward then asked for a 17 GB im2col buffer.
        let g = lowered();
        assert!(with_conv_padding(&g, 1).is_ok(), "padding 1 must load");
        for pad in [3, 1 << 14] {
            assert!(with_conv_padding(&g, pad).is_err(), "qconv padding {pad}");
        }
        let dw = |op: &mut Op| {
            if let Op::QDwConv(s) = op {
                s.padding = 1 << 14;
            }
        };
        assert!(reencoded(&g, dw).is_err(), "qdwconv padding 2^14");
    }

    #[test]
    fn overflowing_conv_padding_is_rejected() {
        // `in + 2·pad` used to overflow while inferring shapes: a panic in
        // a debug build, a wrapped geometry in a release one.
        assert!(with_conv_padding(&lowered(), usize::MAX / 2).is_err());
    }

    #[test]
    fn overflowing_weight_dimensions_are_rejected() {
        let g = lowered();
        // Products that wrap back to the true weight count modulo 2^64:
        // the 3×3 conv's 4·(2 + 2^62)·3·3 ≡ 72 and the linear's
        // 4·(3 + 2^62) ≡ 12.
        let conv = |op: &mut Op| {
            if let Op::QConv(s) = op {
                if s.kernel == 3 {
                    s.in_channels += 1 << 62;
                }
            }
        };
        assert!(reencoded(&g, conv).is_err(), "qconv in_channels");
        let fc = |op: &mut Op| {
            if let Op::QLinear(s) = op {
                s.out_features += 1 << 62;
            }
        };
        assert!(reencoded(&g, fc).is_err(), "qlinear out_features");
        // And a product that simply overflows.
        let dw = |op: &mut Op| {
            if let Op::QDwConv(s) = op {
                s.channels = usize::MAX / 4;
            }
        };
        assert!(reencoded(&g, dw).is_err(), "qdwconv channels");
    }

    /// Input → global pool → linear over `input_shape` with `classes`
    /// outputs: the graph is lowered (which runs no type check) and
    /// encoded, then returned with its artifact bytes.
    fn pooled_linear(input_shape: [usize; 3], classes: usize) -> (Graph, Vec<u8>) {
        let mut g = Graph::new(GraphMeta {
            name: "pooled".into(),
            input_shape,
            num_classes: classes,
        });
        let mut add = |op: Op, inputs: Vec<usize>| {
            let name = op.mnemonic().to_string();
            g.add(Node {
                name,
                op,
                inputs,
                scale: Some(0.05),
                bits: None,
            })
            .unwrap()
        };
        let c = input_shape[0];
        let i = add(Op::Input, vec![]);
        let p = add(Op::GlobalAvgPool, vec![i]);
        let fc = add(
            Op::Linear(Box::new(LinearOp {
                w: vec![0.1; c * classes],
                in_features: c,
                out_features: classes,
                bias: vec![0.0; classes],
            })),
            vec![p],
        );
        g.set_output(fc).unwrap();
        let lowered = lower(&g, &PassConfig::all()).unwrap().0;
        let bytes = to_bytes(&lowered).unwrap();
        (lowered, bytes)
    }

    #[test]
    fn zero_classes_are_rejected_at_load() {
        let (g, bytes) = pooled_linear([2, 5, 5], 3);
        assert!(from_bytes(&bytes).is_ok());
        let m = CompiledModel::from_graph(g).unwrap();
        assert_eq!(m.infer_batch(&[0.1; 2 * 5 * 5], 1).unwrap().len(), 3);
        // A file like this used to load, and the first request then
        // panicked in `QLinear::forward` on a zero chunk size.
        let (g, bytes) = pooled_linear([2, 5, 5], 0);
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("class count 0"), "{err}");
        assert!(CompiledModel::from_graph(g).is_err());
    }

    #[test]
    fn empty_input_planes_are_rejected_at_load() {
        // A file like this used to load, and the first request then
        // panicked building the global pool's `1 / plane` requantizer.
        let (g, bytes) = pooled_linear([2, 0, 0], 3);
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("input shape [2, 0, 0]"), "{err}");
        assert!(CompiledModel::from_graph(g.clone()).is_err());
        assert!(crate::PulsedProgram::from_graph(&g).is_err());
    }

    /// The artifact bytes of [`lowered`], built once per test binary.
    fn real_artifact() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| to_bytes(&lowered()).unwrap())
    }

    /// `file` with section `name` replaced by `data` and the container
    /// re-sealed with a fresh CRC, so the decoder itself sees the damage.
    fn resealed(file: &[u8], name: &str, data: &[u8]) -> Vec<u8> {
        let payload = decode_container_as(&ARTIFACT_MAGIC, ARTIFACT_VERSION, file).unwrap();
        let sections = Sections::parse(&payload).unwrap();
        let mut out = SectionWriter::new();
        for n in sections.names() {
            out.add(
                n,
                if n == name {
                    data
                } else {
                    sections.get(n).unwrap()
                },
            );
        }
        encode_container_as(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &out.into_payload())
    }

    proptest::proptest! {
        // A case takes microseconds, and the fields that matter most (conv
        // geometry) are a few words of a ~90-word graph section: without
        // the decoder's padding check, case 1131 aborts on a 4.5 PB
        // im2col allocation.
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Structure-aware fuzzing of the artifact decoder past the CRC:
        /// one section of a real artifact gets an aligned u64 overwritten
        /// (with a random or an extreme value), one bit flipped, or its
        /// tail cut, and the file is re-sealed. Decoding must not panic. A
        /// graph it accepts must re-encode to bytes that decode to the
        /// same graph, and must build and answer one batch-1 request
        /// without panicking.
        #[test]
        fn mutated_sections_decode_or_fail_cleanly(
            which in 0usize..2,
            kind in 0u8..4,
            pos in 0u64..=u64::MAX,
            value in 0u64..=u64::MAX,
            extreme in proptest::prop::sample::select(vec![u64::MAX, 1u64 << 32, 1000, 0]),
        ) {
            let file = real_artifact();
            let payload = decode_container_as(&ARTIFACT_MAGIC, ARTIFACT_VERSION, file).unwrap();
            let sections = Sections::parse(&payload).unwrap();
            let name = sections.names()[which];
            let mut data = sections.get(name).unwrap().to_vec();
            let pos = usize::try_from(pos % data.len() as u64).unwrap();
            match kind {
                0 | 1 => {
                    let at = (pos / 8).min(data.len() / 8 - 1) * 8;
                    let v = if kind == 0 { value } else { extreme };
                    data[at..at + 8].copy_from_slice(&v.to_le_bytes());
                }
                2 => data[pos] ^= 1 << (value % 8),
                _ => data.truncate(pos),
            }
            let Ok(g) = from_bytes(&resealed(file, name, &data)) else {
                return Ok(());
            };
            let again = to_bytes(&g);
            proptest::prop_assert!(again.is_ok(), "a decoded graph does not encode");
            let again = again.unwrap();
            let back = from_bytes(&again);
            proptest::prop_assert!(back.is_ok(), "a re-encoded graph does not decode");
            proptest::prop_assert_eq!(to_bytes(&back.unwrap()).unwrap(), again);
            if let Ok(model) = CompiledModel::from_graph(g) {
                // A request is one image of the input shape, which the
                // meta section sets: cap what this test hands the model.
                let len = model.image_len();
                if len <= 1 << 16 {
                    let image: Vec<f32> = (0..len).map(|i| ((i % 17) as f32 - 8.0) * 0.02).collect();
                    let _ = model.infer_batch(&image, 1);
                }
            }
        }
    }

    #[test]
    fn int8_weights_off_the_symmetric_grid_are_rejected() {
        // Found by `mutated_sections_decode_or_fail_cleanly`: a weight byte
        // of -128 loaded, and the first request then failed the prepacked
        // qGEMM's debug check (a release AVX2 build would have multiplied
        // it as +128 where the scalar walk uses -128).
        let g = lowered();
        let edit = |op: &mut Op| {
            if let Op::QConv(s) = op {
                if let QWeights::Int8(q) = &mut s.weights {
                    q[0] = i8::MIN;
                }
            }
        };
        let err = reencoded(&g, edit).unwrap_err().to_string();
        assert!(err.contains("-128"), "{err}");
    }

    #[test]
    fn input_shapes_past_the_address_space_are_rejected_at_load() {
        // Found by `mutated_sections_decode_or_fail_cleanly`: a file like
        // this used to load, and `image_len` then overflowed multiplying
        // the input shape out.
        let (g, bytes) = pooled_linear([2, 1 << 32, 1 << 32], 3);
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(
            err.contains("more elements than the address space"),
            "{err}"
        );
        assert!(CompiledModel::from_graph(g).is_err());
    }

    #[test]
    fn save_load_executes_identically() {
        let g = lowered();
        let dir = std::env::temp_dir().join(format!("edd-ir-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.eddm");
        save(&path, &g).unwrap();
        let loaded = load(&path).unwrap();
        let direct = CompiledModel::from_graph(g).unwrap();
        let data: Vec<f32> = (0..2 * 2 * 5 * 5)
            .map(|i| ((i % 17) as f32 - 8.0) * 0.02)
            .collect();
        let a = direct.infer_batch(&data, 2).unwrap();
        let b = loaded.infer_batch(&data, 2).unwrap();
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
