//! The decoders' bound on strings: every string a decoded event holds
//! is an entry of the schema's closed vocabulary, shared and never
//! allocated, and any other string is a decode error. Reading
//! arbitrary traces (as `trace_query` does) therefore cannot grow the
//! process, however many distinct strings they hold.

use dsa_trace::{decode, encode, parse_document, BinError, Event, JsonlSink, TraceSink, VOCABULARY};

fn jsonl(events: &[Event]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    for ev in events {
        sink.record(ev);
    }
    sink.finish();
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

/// Every string field of `ev`.
fn strings(ev: &Event) -> Vec<&'static str> {
    match *ev {
        Event::LoopClassified { class, .. } | Event::LoopVectorized { class, .. } => vec![class],
        Event::LoopRejected { class, reason, .. } | Event::LoopRolledBack { class, reason, .. } => {
            vec![class, reason]
        }
        Event::SupervisorRetry { workload, .. } | Event::WorkerPanicked { workload, .. } => {
            vec![workload]
        }
        Event::EnginePoisoned { during, expected, .. } => vec![during, expected],
        Event::FaultInjected { site: s, .. }
        | Event::JobShed { reason: s, .. }
        | Event::SimFault { kind: s, .. }
        | Event::SnapshotRejected { kind: s, .. } => vec![s],
        _ => vec![],
    }
}

#[test]
fn decoding_many_distinct_strings_stays_within_the_vocabulary() {
    // 10,000 distinct words outside the vocabulary, cut from one buffer.
    const N: usize = 10_000;
    let text: &'static str =
        Box::leak((0..N).map(|i| format!("w{i:05}")).collect::<String>().into_boxed_str());
    for i in 0..N {
        let word = &text[6 * i..6 * i + 6];
        let events = [
            Event::LoopRejected { loop_id: 1, class: "count", reason: word, cycle: 1 },
            Event::SupervisorRetry { workload: word, attempt: 1, cycle: 0 },
        ];
        for ev in events {
            match decode(&encode(&[ev])) {
                Err(BinError::UnknownString(s)) => assert_eq!(s, word),
                other => panic!("tracebin with {word:?} decoded as {other:?}"),
            }
            let err = parse_document(&jsonl(&[ev])).expect_err("an unknown word is an error");
            assert!(err.1.contains(word), "{err:?}");
        }
    }

    // Every vocabulary word, in every string field, decodes through both
    // formats to the vocabulary's own storage: the decoded strings are
    // at most the vocabulary's entries, however often they are read.
    let events: Vec<Event> = VOCABULARY
        .iter()
        .flat_map(|&w| {
            [
                Event::LoopRolledBack { loop_id: 2, class: w, reason: w, cycle: 3 },
                Event::EnginePoisoned { during: w, expected: w, cycle: 4 },
                Event::WorkerPanicked { workload: w, cycle: 0 },
                Event::SnapshotRejected { kind: w, cycle: 0 },
            ]
        })
        .collect();
    let from_bin = decode(&encode(&events)).expect("vocabulary decodes");
    let (from_jsonl, _) = parse_document(&jsonl(&events)).expect("vocabulary parses");
    for decoded in [&from_bin, &from_jsonl] {
        assert_eq!(decoded, &events);
        for s in decoded.iter().flat_map(strings) {
            assert!(VOCABULARY.iter().any(|w| std::ptr::eq(*w, s)), "{s:?} is a fresh copy");
        }
    }
}

#[test]
fn the_vocabulary_lists_each_word_once() {
    let mut seen = std::collections::BTreeSet::new();
    let repeated: Vec<&str> = VOCABULARY.iter().copied().filter(|w| !seen.insert(*w)).collect();
    assert!(repeated.is_empty(), "listed twice: {repeated:?}");
}
