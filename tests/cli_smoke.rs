//! End-to-end smoke tests of the `edd` CLI binary: a search run writes a
//! JSON artifact that `eval` then consumes; informational subcommands
//! print what they promise; bad input fails with a nonzero exit code.

use std::process::Command;

fn edd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_edd"))
}

#[test]
fn devices_lists_all_platforms() {
    let out = edd().arg("devices").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Titan RTX", "GTX 1080 Ti", "ZCU102", "ZC706", "Loom"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn zoo_prints_thirteen_models() {
    let out = edd().arg("zoo").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["GoogleNet", "VGG16", "EDD-Net-1", "EDD-Net-2", "EDD-Net-3"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn search_then_eval_roundtrip() {
    let out_path = std::env::temp_dir().join("edd_cli_smoke_arch.json");
    let out = edd()
        .args([
            "search",
            "--target",
            "fpga-pipelined",
            "--blocks",
            "2",
            "--classes",
            "4",
            "--epochs",
            "2",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "search failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out_path.exists());

    let eval = edd()
        .args(["eval", "--arch"])
        .arg(&out_path)
        .output()
        .expect("runs");
    assert!(eval.status.success());
    let text = String::from_utf8_lossy(&eval.stdout);
    assert!(text.contains("FPGA pipelined"));
    assert!(text.contains("GPU (Titan RTX)"));
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn compile_then_hot_load_roundtrip() {
    let artifact = std::env::temp_dir().join("edd_cli_smoke_model.eddm");
    let out = edd()
        .args(["compile", "--qat-epochs", "1", "--out"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "compile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BN folded"), "missing pass report:\n{text}");
    assert!(artifact.exists());

    let qinfer = edd()
        .args(["qinfer", "--artifact"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        qinfer.status.success(),
        "qinfer --artifact failed: {}",
        String::from_utf8_lossy(&qinfer.stderr)
    );
    let text = String::from_utf8_lossy(&qinfer.stdout);
    assert!(text.contains("hot-loaded"), "stdout: {text}");

    let serve = edd()
        .args(["serve", "--requests", "40", "--artifacts"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        serve.status.success(),
        "serve --artifacts failed: {}",
        String::from_utf8_lossy(&serve.stderr)
    );
    let text = String::from_utf8_lossy(&serve.stdout);
    assert!(text.contains("0 failed"), "stdout: {text}");
    std::fs::remove_file(&artifact).ok();
}

/// The commands that compile their integer engine in process (no
/// artifact) run end to end at small sizes.
#[test]
fn qinfer_serve_and_stream_compile_in_process() {
    let run = |args: &[&str], want: &str| {
        let out = edd().args(args).output().expect("runs");
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(want), "{args:?}: no `{want}` in:\n{text}");
    };
    run(&["qinfer", "--qat-epochs", "1"], "compiled integer engine");
    run(&["serve", "--requests", "40"], "0 failed");
    run(&["stream", "--qat-epochs", "1", "--verify"], "verified");
}

#[test]
fn compile_rejects_unknown_pass() {
    let out = edd()
        .args(["compile", "--passes", "loop-unroll"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pass"), "stderr: {err}");
}

#[test]
fn qinfer_rejects_corrupt_artifact() {
    let path = std::env::temp_dir().join("edd_cli_smoke_corrupt.eddm");
    std::fs::write(&path, b"EDDMODL\0not a real artifact").unwrap();
    let out = edd()
        .args(["qinfer", "--artifact"])
        .arg(&path)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    std::fs::remove_file(&path).ok();
}

#[test]
fn qinfer_names_an_old_artifact_version() {
    // A real artifact's payload sealed as format version 1, as an older
    // build's `edd compile` wrote it.
    use edd::ir::artifact::{to_bytes, ARTIFACT_MAGIC, ARTIFACT_VERSION};
    use edd::runtime::{decode_container_as, encode_container_as};
    let (_, model, _) = edd::zoo::compile_tiny_zoo(11, &edd::ir::PassConfig::all()).remove(0);
    let file = to_bytes(model.graph()).unwrap();
    let payload = decode_container_as(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &file).unwrap();
    let path = std::env::temp_dir().join("edd_cli_smoke_v1.eddm");
    std::fs::write(&path, encode_container_as(&ARTIFACT_MAGIC, 1, &payload)).unwrap();
    let out = edd()
        .args(["qinfer", "--artifact"])
        .arg(&path)
        .output()
        .expect("runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let want = format!(
        "model artifact format version 1 is not supported; this build reads version \
         {ARTIFACT_VERSION}; recompile it with `edd compile`"
    );
    assert!(err.contains(&want), "stderr: {err}");
}

#[test]
fn unknown_command_fails() {
    let out = edd().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn bad_target_fails_with_message() {
    let out = edd()
        .args(["search", "--target", "abacus"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown target"), "stderr: {err}");
}

#[test]
fn eval_missing_file_fails() {
    let out = edd()
        .args(["eval", "--arch", "/nonexistent/void.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

/// Runs `edd` with `args`, expecting a clean failure: exit code 1 (a
/// panic exits 101) with `want` on stderr.
fn fails_with(args: &[&str], want: &str) {
    let out = edd().args(args).output().expect("runs");
    assert_eq!(out.status.code(), Some(1), "edd {args:?}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(want),
        "edd {args:?}: no `{want}` in stderr: {err}"
    );
}

#[test]
fn eval_rejects_a_zero_stem_stride() {
    let mut arch = edd::zoo::tiny_derived_arch();
    arch.space.stem_stride = 0;
    let path = std::env::temp_dir().join(format!("edd_cli_bad_arch_{}.json", std::process::id()));
    std::fs::write(&path, arch.to_json().unwrap()).unwrap();
    fails_with(
        &["eval", "--arch", path.to_str().unwrap()],
        "space.stem_stride must be positive",
    );
    std::fs::remove_file(&path).ok();
}

/// A head of 2^40 channels used to abort on a failed allocation while
/// building the model; the size cap rejects it first, with a message.
#[test]
fn compile_rejects_an_arch_past_the_size_cap() {
    let mut arch = edd::zoo::tiny_derived_arch();
    arch.space.head_channels = 1 << 40;
    let path = std::env::temp_dir().join(format!("edd_cli_huge_arch_{}.json", std::process::id()));
    std::fs::write(&path, arch.to_json().unwrap()).unwrap();
    let artifact = path.with_extension("eddm");
    fails_with(
        &[
            "compile",
            "--arch",
            path.to_str().unwrap(),
            "--out",
            artifact.to_str().unwrap(),
        ],
        "space.head_channels",
    );
    assert!(!artifact.exists());
    std::fs::remove_file(&path).ok();
}

#[test]
fn compile_rejects_an_empty_batch_and_writes_nothing() {
    let artifact = std::env::temp_dir().join(format!("edd_cli_batch0_{}.eddm", std::process::id()));
    let out = artifact.to_str().unwrap();
    fails_with(&["compile", "--batch", "0", "--out", out], "--batch");
    assert!(!artifact.exists(), "compile --batch 0 wrote {out}");
}

#[test]
fn qinfer_rejects_an_empty_batch() {
    fails_with(&["qinfer", "--batch", "0", "--qat-epochs", "0"], "--batch");
}

/// Runs `edd` with `args`, failing the test with its stderr if it fails.
fn run_ok(args: &[&str]) {
    let out = edd().args(args).output().expect("runs");
    assert!(
        out.status.success(),
        "edd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn search_and_sweep_checkpoints_share_a_directory() {
    let tmp = std::env::temp_dir().join(format!("edd_cli_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let path = |name: &str| tmp.join(name).to_str().unwrap().to_owned();
    let (dir, full, resumed) = (path("ckpts"), path("full"), path("resumed"));
    let sweep = |out: &str, extra: &[&str]| {
        let mut args = vec![
            "sweep",
            "--targets",
            "gpu,fpga-pipelined",
            "--blocks",
            "2",
            "--classes",
            "4",
            "--epochs",
            "3",
            "--checkpoint-keep",
            "1",
            "--out-prefix",
            out,
        ];
        args.extend_from_slice(extra);
        run_ok(&args);
    };

    // An uninterrupted reference sweep. Then, in one directory, the same
    // sweep stops after 2 of its 3 epochs, a single-target search
    // checkpoints beside it, and the sweep resumes from the directory.
    sweep(&full, &[]);
    sweep(&resumed, &["--stop-after", "2", "--checkpoint-dir", &dir]);
    run_ok(&[
        "search",
        "--target",
        "fpga-recursive",
        "--blocks",
        "2",
        "--classes",
        "4",
        "--epochs",
        "2",
        "--checkpoint-dir",
        &dir,
        "--out",
        &path("search.json"),
    ]);
    sweep(&resumed, &["--checkpoint-dir", &dir, "--resume", &dir]);

    let pareto = |p: &str| std::fs::read(format!("{p}-pareto.json")).unwrap();
    assert_eq!(
        pareto(&full),
        pareto(&resumed),
        "the resumed sweep's Pareto JSON differs from the uninterrupted sweep's"
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "ckpt-fpga-recursive-00000000.edds",
            "ckpt-fpga-recursive-00000001.edds",
            "ckpt-gpu+fpga-pipelined-00000002.edds",
        ],
        "the sweep's retention must prune only its own files"
    );
    std::fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn resume_rejects_an_earlier_snapshot_schema() {
    use edd::runtime::snapshot::{write_atomic, ByteWriter, SectionWriter};
    // A single-target search snapshot as the previous format wrote it: its
    // meta section opens with schema version 2.
    let mut meta = ByteWriter::new();
    meta.put_u32(2);
    meta.put_str("space=edd-tiny-2");
    meta.put_u64(0);
    for word in [1u64, 2, 3, 4] {
        meta.put_u64(word);
    }
    let mut sections = SectionWriter::new();
    sections.add("meta", &meta.into_bytes());
    let path = std::env::temp_dir().join(format!("edd_cli_old_schema_{}.edds", std::process::id()));
    write_atomic(&path, &sections.into_payload()).unwrap();

    let out = edd()
        .args(["search", "--target", "fpga-recursive", "--blocks", "2"])
        .args(["--classes", "4", "--epochs", "2", "--resume"])
        .arg(&path)
        .output()
        .expect("runs");
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("schema version 2"), "stderr: {err}");
}
