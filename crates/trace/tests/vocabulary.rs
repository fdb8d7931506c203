//! The decoders' bound on words: every string field of an event is a
//! closed enum, a decoder maps the string on the wire to that enum's
//! variant, and a string that names no variant of the field's enum is
//! a typed decode error in both formats. Reading arbitrary traces (as
//! `trace_query` does) therefore yields only declared words.

use std::collections::{BTreeMap, BTreeSet};

use dsa_trace::event::json_str;
use dsa_trace::{
    crc32, decode, encode, json, parse_document, BinError, CacheKind, CacheOutcome, EngineMode,
    EngineOp, Event, FaultSite, JsonlSink, LoopClass, Reason, ShedReason, SimFaultKind,
    SnapshotErrorKind, SpecKind, Stage, TraceSink, WorkloadName,
};

fn jsonl(events: &[Event]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    for ev in events {
        sink.record(ev);
    }
    sink.finish();
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

/// Every value of every payload enum in every field that holds it.
fn every_word_stream() -> Vec<Event> {
    let mut events: Vec<Event> = SimFaultKind::ALL.map(|kind| Event::SimFault { kind, pc: 1, cycle: 1 }).into();
    for class in LoopClass::ALL {
        events.push(Event::LoopClassified { loop_id: 2, class, cycle: 2 });
        events.push(Event::LoopVectorized { loop_id: 2, class, planned: 3, peeled: 0, cycle: 2 });
    }
    for (i, reason) in Reason::ALL.into_iter().enumerate() {
        let class = LoopClass::ALL[i % LoopClass::ALL.len()];
        events.push(Event::LoopRejected { loop_id: 3, class, reason, cycle: 3 });
        events.push(Event::LoopRolledBack { loop_id: 3, class, reason, cycle: 3 });
    }
    for during in EngineOp::ALL {
        events.push(Event::EnginePoisoned { during, expected: EngineMode::Analyzing, cycle: 4 });
    }
    for expected in EngineMode::ALL {
        events.push(Event::EnginePoisoned { during: EngineOp::Execute, expected, cycle: 4 });
    }
    events.extend(FaultSite::ALL.map(|site| Event::FaultInjected { site, cycle: 5 }));
    for workload in WorkloadName::ALL {
        events.push(Event::SupervisorRetry { workload, attempt: 1, cycle: 0 });
        events.push(Event::WorkerPanicked { workload, cycle: 0 });
    }
    events.extend(ShedReason::ALL.map(|reason| Event::JobShed { reason, cycle: 0 }));
    events.extend(SnapshotErrorKind::ALL.map(|kind| Event::SnapshotRejected { kind, cycle: 0 }));
    events.extend(Stage::ALL.map(|stage| Event::StageActivated { stage, loop_id: 6, dsa_cycles: 1, cycle: 6 }));
    for (cache, outcome) in CacheKind::ALL.into_iter().flat_map(|c| CacheOutcome::ALL.map(|o| (c, o))) {
        events.push(Event::CacheAccess { cache, outcome, loop_id: 7, count: 1, dsa_cycles: 0, cycle: 7 });
    }
    events.extend(SpecKind::ALL.map(|kind| Event::SpeculationResolved {
        loop_id: 8,
        kind,
        injected: 4,
        used: 4,
        discarded: 0,
        cycle: 8,
    }));
    events
}

/// `ev`'s string payload fields as `(key, word)`, from its JSONL line.
fn string_fields(ev: Event) -> Vec<(String, String)> {
    let record = json::parse(&ev.to_json_line()).expect("own JSONL");
    let fields = record.as_obj().expect("an object").iter();
    let words = fields.filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())));
    words.filter(|(k, _)| k != "record" && k != "type").collect()
}

/// `bytes` with the string-table entry `from` replaced by `to` in every
/// event block, each block's length and CRC rewritten, so only the word
/// is wrong; `None` when no block holds `from` (a one-byte-tag field).
/// Both words are shorter than 128 bytes, so an entry is a one-byte
/// length and the bytes.
fn replace_in_blocks(bytes: &[u8], from: &str, to: &str) -> Option<Vec<u8>> {
    let entry = |w: &str| [&[w.len() as u8][..], w.as_bytes()].concat();
    let (from, to) = (entry(from), entry(to));
    let (mut out, mut pos, mut found) = (bytes[..10].to_vec(), 10, false);
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        let mut payload = bytes[pos + 5..pos + 5 + len].to_vec();
        if let Some(at) = payload.windows(from.len()).position(|w| w == from).filter(|_| bytes[pos] == 2) {
            payload.splice(at..at + from.len(), to.iter().copied());
            found = true;
        }
        let start = out.len();
        out.push(bytes[pos]);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        pos += 5 + len + 4;
    }
    found.then_some(out)
}

/// `ev`'s documents with `word` in its `key` field replaced by `unknown`
/// fail to decode: a JSONL field error, and `BinError::UnknownString`
/// where tracebin carries the field as a word.
fn assert_rejected(ev: Event, key: &str, word: &str, unknown: &str) {
    let text = jsonl(&[ev]);
    let bad = text.replace(&format!("\"{key}\":{}", json_str(word)), &format!("\"{key}\":{}", json_str(unknown)));
    assert_ne!(bad, text);
    let err = parse_document(&bad).expect_err("an unknown word is an error");
    assert!(err.1.contains(key), "{key} = {unknown:?}: {err:?}");
    match replace_in_blocks(&encode(&[ev]), word, unknown).map(|b| decode(&b)) {
        None | Some(Err(BinError::UnknownString(_))) => {}
        other => panic!("{key} = {unknown:?} decoded as {other:?}"),
    }
}

/// `(enum, names of its values in `ALL` order)` for every payload enum,
/// each name checked to map back to its value.
fn every_enum_names() -> Vec<(&'static str, Vec<&'static str>)> {
    macro_rules! names {
        ($($E:ident),+) => {
            vec![$((
                stringify!($E),
                $E::ALL.iter().map(|&v| {
                    assert_eq!($E::from_name(v.name()), Some(v), "{} {v:?}", stringify!($E));
                    v.name()
                }).collect(),
            )),+]
        };
    }
    names!(
        Stage, CacheKind, CacheOutcome, SpecKind, SimFaultKind, LoopClass, Reason, EngineOp, EngineMode, FaultSite,
        WorkloadName, ShedReason, SnapshotErrorKind
    )
}

#[test]
fn the_vocabulary_lists_each_word_once() {
    for (what, names) in every_enum_names() {
        let mut seen = BTreeSet::new();
        let repeated: Vec<&str> = names.iter().copied().filter(|w| !seen.insert(*w)).collect();
        assert!(repeated.is_empty(), "{what} lists twice: {repeated:?}");
    }
}

#[test]
fn decoding_many_distinct_strings_stays_within_the_vocabulary() {
    let stream = every_word_stream();
    // What each field of each event type accepts: the words the stream
    // puts there.
    let mut accepts: BTreeMap<(&str, String), BTreeSet<String>> = BTreeMap::new();
    let mut fields = Vec::new();
    for &ev in &stream {
        for (key, word) in string_fields(ev) {
            accepts.entry((ev.type_name(), key.clone())).or_default().insert(word.clone());
            fields.push((ev, key, word));
        }
    }
    assert_eq!(accepts.len(), 18, "14 word fields and 4 tag fields");
    let all: BTreeSet<&String> = accepts.values().flatten().collect();

    // 10,000 distinct fresh words, round robin over the fields.
    for i in 0..10_000 {
        let (ev, key, word) = &fields[i % fields.len()];
        assert_rejected(*ev, key, word, &format!("w{i:05}"));
    }
    // Every declared word in every field whose enum lacks it, and a word
    // that needs escaping.
    for (ev, key, word) in &fields {
        let own = &accepts[&(ev.type_name(), key.clone())];
        for unknown in all.iter().filter(|w| !own.contains(**w)) {
            assert_rejected(*ev, key, word, unknown);
        }
        assert_rejected(*ev, key, word, "say \"hi\" \\ bye");
    }
}

#[test]
fn every_word_of_every_enum_decodes_to_its_variant() {
    let events = every_word_stream();
    assert_eq!(decode(&encode(&events)).expect("every word decodes"), events);
    let (parsed, warnings) = parse_document(&jsonl(&events)).expect("every word parses");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(parsed, events);
}
