//! End-to-end tests of the `tensortool` binary itself (argument parsing,
//! exit codes, output) via `CARGO_BIN_EXE`.

use std::process::Command;

fn tensortool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tensortool"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tensortool_e2e_{name}_{}", std::process::id()))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = tensortool(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("mttkrp"));
}

#[test]
fn unknown_command_fails_with_usage_on_stderr() {
    let out = tensortool(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn generate_info_mttkrp_pipeline() {
    let tns = temp_path("pipe.tns");
    let out = tensortool(&["generate", "nell2", "1500", tns.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = tensortool(&["info", tns.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("order:    3"));
    assert!(text.contains("gini"));

    let out = tensortool(&["mttkrp", tns.to_str().unwrap(), "1", "8"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SpMTTKRP(mode-1)"));
    assert!(text.contains("µs simulated"));

    std::fs::remove_file(&tns).ok();
}

#[test]
fn preprocess_then_cached_run_pipeline() {
    let tns = temp_path("cache.tns");
    let fcoo = temp_path("cache.fcoo");
    assert!(
        tensortool(&["generate", "brainq", "2000", tns.to_str().unwrap()])
            .status
            .success()
    );
    let out = tensortool(&[
        "preprocess",
        tns.to_str().unwrap(),
        "spttm",
        "3",
        fcoo.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = tensortool(&["run", fcoo.to_str().unwrap(), "16"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SpTTM(mode-3)"));
    std::fs::remove_file(&tns).ok();
    std::fs::remove_file(&fcoo).ok();
}

#[test]
fn missing_file_reports_clean_error() {
    let out = tensortool(&["info", "/definitely/not/here.tns"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot open"));
}

#[test]
fn mode_zero_is_rejected_as_one_based() {
    let tns = temp_path("mode0.tns");
    assert!(
        tensortool(&["generate", "nell2", "500", tns.to_str().unwrap()])
            .status
            .success()
    );
    let out = tensortool(&["spttm", tns.to_str().unwrap(), "0", "4"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1-based"));
    std::fs::remove_file(&tns).ok();
}

#[test]
fn oocbench_and_saturate_json_are_identical_across_worker_counts() {
    // Boundary carries fold in launch order, so the committed trajectory
    // points reproduce at any host pool size.
    for command in ["oocbench", "saturate"] {
        let runs: Vec<Vec<u8>> = ["1", "4"]
            .iter()
            .map(|workers| {
                let json = temp_path(&format!("{command}_{workers}.json"));
                let out = Command::new(env!("CARGO_BIN_EXE_tensortool"))
                    .env("CPU_PAR_THREADS", workers)
                    .args([command, json.to_str().unwrap()])
                    .output()
                    .expect("binary runs");
                assert!(
                    out.status.success(),
                    "{command} at {workers} workers: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let bytes = std::fs::read(&json).expect("JSON written");
                std::fs::remove_file(&json).ok();
                bytes
            })
            .collect();
        assert!(
            runs[0] == runs[1],
            "{command} JSON differs between 1 and 4 pool workers"
        );
    }
}
