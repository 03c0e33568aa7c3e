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
