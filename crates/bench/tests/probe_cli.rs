//! `probe` answers a short command line with its usage and exit code 2
//! (it used to index-panic on the missing positionals).

use std::process::Command;

#[test]
fn short_command_line_prints_usage_and_exits_2() {
    for args in [
        &[][..],
        &["stencil", "raycast"],
        &["stencil", "raycast", "dcr", "--quick"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_probe"))
            .args(args)
            .output()
            .expect("spawn probe");
        assert_eq!(out.status.code(), Some(2), "probe {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage: probe "),
            "probe {args:?}: {stderr}"
        );
    }
}
