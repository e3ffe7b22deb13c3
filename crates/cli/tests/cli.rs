//! Integration tests driving the compiled `mime` binary.

use std::process::Command;

fn mime() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mime"))
}

#[test]
fn help_exits_zero() {
    let out = mime().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("storage"));
    assert!(text.contains("simulate"));
}

#[test]
fn no_args_shows_help() {
    let out = mime().output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}

#[test]
fn storage_table() {
    let out = mime()
        .args(["storage", "--children", "3", "--input-hw", "224"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("conventional"));
    // 3 children + header + zero row
    assert!(text.lines().count() >= 5);
}

#[test]
fn simulate_small() {
    let out = mime()
        .args(["simulate", "--input-hw", "64", "--approach", "case2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("TOTAL"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = mime().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
}

#[test]
fn bad_flag_fails() {
    let out = mime().args(["storage", "--children", "many"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("children"));
}

#[test]
fn batch_exit_codes_distinguish_clean_and_degraded() {
    // clean run: exit 0
    let out = mime()
        .args(["batch", "--images", "2", "--tasks", "2", "--seed", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // poison drill: the batch completes on the parent path for task 1
    // and exits with the distinct degraded code 2
    let out = mime()
        .args(["batch", "--images", "2", "--tasks", "2", "--seed", "1", "--poison", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("degraded tasks:     [1]"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "{stderr}");
}

#[test]
fn serve_drill_terminates_and_publishes_metrics() {
    let dir = std::env::temp_dir().join("mime_cli_bin_serve");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("serve.prom");
    // --no-batch: 8 requests make at least 8 dispatches, so some replica
    // reaches its 3rd and aborts; the front door respawns it and
    // requeues what it held
    let out = mime()
        .args([
            "--metrics-out",
            metrics.to_str().unwrap(),
            "serve",
            "--requests",
            "8",
            "--tasks",
            "2",
            "--inject",
            "replica-abort",
            "--inject-every",
            "3",
            "--no-batch",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lost:               0"), "{stdout}");
    assert!(stdout.contains("every request terminated"), "{stdout}");
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("mime_frontdoor_requests_total 8\n"), "{prom}");
    let restarts: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("mime_replica_restarts_total "))
        .and_then(|v| v.parse().ok())
        .expect("restarts counter published");
    assert!(restarts >= 1, "{prom}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_a_damaged_image_before_spawning_replicas() {
    let dir = std::env::temp_dir().join("mime_cli_bin_serve_bad_image");
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.mime");
    let bad = dir.join("bad.mime");
    let out = mime()
        .args(["pack", "--out", clean.to_str().unwrap(), "--tasks", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // seed 1 flips one bit inside task #0's section
    let out = mime()
        .args(["inject-faults", clean.to_str().unwrap(), "--out", bad.to_str().unwrap()])
        .args(["--mode", "bitflip", "--seed", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = mime()
        .args([
            "serve",
            "--image",
            bad.to_str().unwrap(),
            "--requests",
            "4",
            "--tasks",
            "2",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("rejected task section"), "{stderr}");
    assert!(stderr.contains("task #0"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_checkpoints_and_resumes_from_latest_clean() {
    let dir = std::env::temp_dir().join("mime_cli_bin_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().unwrap();
    let out = mime()
        .args(["train", "--epochs", "2", "--seed", "5", "--checkpoint-dir", dir_str])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // one crash-safe checkpoint image per epoch, each clean
    for epoch in ["epoch-0000.mime", "epoch-0001.mime"] {
        let path = dir.join(epoch);
        assert!(path.exists(), "{epoch} missing");
        let out = mime()
            .args(["verify-image", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{epoch} not clean");
    }
    // tear the newest checkpoint: resume must fall back to epoch 0
    let latest = dir.join("epoch-0001.mime");
    let bytes = std::fs::read(&latest).unwrap();
    std::fs::write(&latest, &bytes[..bytes.len() / 2]).unwrap();
    let out = mime()
        .args([
            "train",
            "--epochs",
            "2",
            "--seed",
            "5",
            "--checkpoint-dir",
            dir_str,
            "--resume",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed from"), "{stdout}");
    assert!(stdout.contains("epoch-0000.mime"), "{stdout}");
    assert!(stdout.contains("continuing at epoch 1"), "{stdout}");
    // only the remaining epoch is re-run and re-checkpointed
    assert!(stdout.contains("epoch  1:"), "{stdout}");
    assert!(!stdout.contains("epoch  0:"), "{stdout}");
    let out = mime()
        .args(["verify-image", dir.join("epoch-0001.mime").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "rewritten checkpoint must be clean");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_writes_file_and_inspect_reads_it() {
    let dir = std::env::temp_dir().join("mime_cli_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.mime");
    let out = mime()
        .args(["pack", "--out", path.to_str().unwrap(), "--tasks", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(path.exists());
    let out =
        mime().args(["inspect", path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("registered tasks"));
    std::fs::remove_dir_all(&dir).ok();
}
