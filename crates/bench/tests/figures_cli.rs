//! The `figures` binary's target list, driven as a user would.

use std::process::Command;

fn figures(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("figures prints UTF-8"),
    )
}

#[test]
fn ablations_is_a_listed_and_accepted_target() {
    let (code, list) = figures(&["--list"]);
    assert_eq!(code, Some(0));
    assert!(list.lines().any(|l| l == "ablations"), "--list: {list}");

    let (code, text) = figures(&["ablations"]);
    assert_eq!(code, Some(0));
    for row in [
        "conditional-stream merge:",
        "bitonic network:",
        "Crossbar:",
        "Ring:",
    ] {
        assert!(text.contains(row), "no `{row}` row in:\n{text}");
    }

    assert_eq!(figures(&["no-such-target"]).0, Some(2));
}
