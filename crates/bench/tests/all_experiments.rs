//! `all_experiments` is the one entry point to the paper's tables and
//! figures: its section list must reject unknown names before any
//! simulation and must cover every runner DESIGN.md's experiment index
//! names.

use std::collections::HashSet;
use std::process::Command;

use dsa_bench::experiments::SECTIONS;

#[test]
fn unknown_section_exits_2_and_lists_the_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg("no_such_section")
        .output()
        .expect("all_experiments runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing rendered");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_section"), "{stderr}");
    assert!(!stderr.contains("warming"), "names are checked before the warm-up: {stderr}");
    let listed: HashSet<&str> = stderr.lines().map(str::trim).collect();
    for (name, _) in SECTIONS {
        assert!(listed.contains(name), "`{name}` missing from:\n{stderr}");
    }
}

#[test]
fn sections_cover_the_design_experiment_index() {
    let names: HashSet<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), SECTIONS.len(), "section names are unique");

    let design = include_str!("../../../DESIGN.md");
    let start = design.find("## 4. Experiment index").expect("experiment index heading");
    let index = &design[start..];
    let index = &index[..index.find("\n## 5.").expect("next heading")];
    let mut runners = 0;
    for row in index.lines().filter(|l| l.starts_with("| ")) {
        let runner_cell = row.trim_end_matches('|').rsplit('|').next().expect("a cell");
        for runner in runner_cell.split('`').skip(1).step_by(2) {
            runners += 1;
            assert!(names.contains(runner), "DESIGN.md runner `{runner}` is not a section");
        }
    }
    assert!(runners >= 16, "only {runners} runners parsed from the experiment index");
}
