//! Every string the engine puts in a telemetry event is a word of the
//! trace schema's closed vocabulary (`dsa_trace::VOCABULARY`); the
//! decoders reject any other, so a word missing there would make the
//! engine's own traces unreadable. The names come from their enums,
//! and the engine's reasons and invariant strings, which are literals
//! at their call sites, from its source text.

use dsa_core::{FaultSite, LoopClass, SnapshotError};
use dsa_trace::VOCABULARY;

fn assert_known(words: impl IntoIterator<Item = String>, what: &str) {
    let unknown: Vec<String> = words.into_iter().filter(|w| !VOCABULARY.contains(&w.as_str())).collect();
    assert!(unknown.is_empty(), "{what} outside the trace vocabulary: {unknown:?}");
}

/// The string literals on `line`.
fn literals(line: &str) -> Vec<String> {
    line.split('"').skip(1).step_by(2).map(str::to_string).collect()
}

#[test]
fn engine_strings_are_in_the_trace_vocabulary() {
    let classes = [
        LoopClass::Count,
        LoopClass::Function,
        LoopClass::Nest,
        LoopClass::Conditional,
        LoopClass::DynamicRange,
        LoopClass::Sentinel,
        LoopClass::Partial,
        LoopClass::NonVectorizable,
    ];
    assert_known(classes.map(|c| c.name().to_string()), "loop classes");
    assert_known(FaultSite::ALL.map(|s| s.name().to_string()), "fault sites");
    let snapshot_errors = [
        SnapshotError::Truncated,
        SnapshotError::BadMagic,
        SnapshotError::UnsupportedVersion(0),
        SnapshotError::ChecksumMismatch,
        SnapshotError::Malformed(""),
        SnapshotError::ConfigMismatch,
    ];
    assert_known(snapshot_errors.map(|e| e.kind_name().to_string()), "snapshot error kinds");

    // Reasons reach events through `give_up`/`degrade` and `reason:`
    // fields, literal classes through `class:` fields, and the poison
    // record's strings through `expect_mode!` (whose mode name is
    // stringified) and `EngineError` literals.
    let source = include_str!("../src/engine.rs");
    let code = &source[..source.find("#[cfg(test)]").unwrap_or(source.len())];
    let mut words = Vec::new();
    let mut sites = 0;
    for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
        if line.contains("self.give_up(")
            || line.contains("self.degrade(")
            || line.contains("reason: \"")
            || line.contains("class: \"")
            || line.contains("EngineError { expected: \"")
        {
            words.extend(literals(line));
            sites += 1;
        }
        if let Some(args) = line.split("expect_mode!(self, ").nth(1) {
            let mode = args.split(',').next().unwrap_or_default();
            words.push(mode.to_string());
            words.extend(literals(line));
            sites += 1;
        }
    }
    assert!(sites > 40, "the scan found only {sites} emitting lines");
    assert_known(words, "engine strings");
}
