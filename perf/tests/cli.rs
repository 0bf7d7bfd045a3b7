//! Command-line contract of the `hhsim-perf` binary: usage errors exit 2
//! without printing a result line.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hhsim-perf"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_workload_exits_2_and_names_the_known_ones() {
    let (code, stdout, stderr) = run(&["--workload", "figures"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "no result on a usage error: {stdout}");
    assert!(stderr.contains("unknown workload `figures`"));
    assert!(stderr.contains("figures-cold") && stderr.contains("replicate"));
}

#[test]
fn malformed_flags_exit_2() {
    for args in [
        &[][..],
        &["--workload"],
        &["--workload", "replicate", "--trace", "2"],
        &["--workload", "replicate", "--seed", "x"],
        &["--workload", "replicate", "--seconds", "0"],
        &["--frobnicate"],
    ] {
        let (code, stdout, _) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}
