//! The `figures` binary's target list and its one output, stdout, driven
//! as a user would.

use std::path::Path;
use std::process::Command;

fn figures(args: &[&str]) -> (Option<i32>, String) {
    figures_in(Path::new("."), args)
}

fn figures_in(cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(cwd)
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

#[test]
fn list_prints_exactly_the_targets() {
    let (code, list) = figures(&["--list"]);
    assert_eq!(code, Some(0));
    let want = [
        "all",
        "table3",
        "table4",
        "area",
        "energy",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "summary",
        "ablations",
    ];
    assert_eq!(list.lines().collect::<Vec<_>>(), want);
}

#[test]
fn a_figure_is_its_text_and_leaves_no_file_behind() {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_cli_cwd");
    std::fs::create_dir_all(&cwd).expect("create a scratch directory");
    let (code, text) = figures_in(&cwd, &["fig11"]);
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .expect("list the scratch directory")
        .collect();
    std::fs::remove_dir_all(&cwd).expect("remove the scratch directory");
    assert_eq!(code, Some(0));
    assert!(text.starts_with("== Figure 11"), "{text}");
    assert!(!text.contains("[wrote"), "{text}");
    assert!(left.is_empty(), "figures wrote {left:?}");
}
