//! Property tests for the trace emitters: whatever span names, thread
//! labels and field values instrumentation throws at them, the JSONL
//! and Chrome sinks must produce output our own strict JSON parser
//! accepts — escaping bugs show up here long before Perfetto sees them.

use proptest::prelude::*;
use tytra_trace::sink::{render_chrome, render_jsonl, render_tree};
use tytra_trace::{json, SpanRecord, Value};

/// A record built from fuzzed parts. Control characters, quotes and
/// backslashes in names/keys are the interesting cases; f64s are drawn
/// from raw bits so NaN and the infinities appear.
fn record(id: u64, name: String, key: String, sval: String, bits: u64, tid: u64) -> SpanRecord {
    SpanRecord {
        id,
        parent: if id.is_multiple_of(3) { None } else { Some(id / 2) },
        tid,
        name,
        start_ns: id.wrapping_mul(17),
        dur_ns: id.wrapping_mul(3) % 1000,
        fields: vec![
            (key, Value::Str(sval)),
            ("f".to_string(), Value::F64(f64::from_bits(bits))),
            ("n".to_string(), Value::U64(id)),
            ("b".to_string(), Value::Bool(id.is_multiple_of(2))),
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn jsonl_lines_are_always_valid_json(
        name in ".{0,40}",
        key in ".{0,12}",
        sval in ".{0,40}",
        bits in proptest::arbitrary::any::<u64>(),
        id in 1u64..1000,
    ) {
        let recs = [record(id, name, key, sval, bits, id % 4)];
        let out = render_jsonl(&recs);
        for line in out.lines() {
            let v = json::parse(line);
            prop_assert!(v.is_ok(), "unparseable JSONL line {line:?}: {:?}", v.err());
        }
    }

    #[test]
    fn chrome_trace_is_always_valid_json(
        name in ".{0,40}",
        label in ".{0,24}",
        key in ".{0,12}",
        sval in ".{0,40}",
        bits in proptest::arbitrary::any::<u64>(),
        id in 1u64..1000,
    ) {
        let recs = [
            record(id, name.clone(), key.clone(), sval.clone(), bits, 0),
            record(id + 1, name, key, sval, bits, 1),
        ];
        let labels = [(0u64, label)];
        let out = render_chrome(&recs, &labels);
        let doc = json::parse(&out);
        prop_assert!(doc.is_ok(), "unparseable chrome trace: {:?}\n{out}", doc.err());
        let doc = doc.unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr());
        prop_assert!(events.is_some(), "traceEvents missing:\n{out}");
        // 1 thread_name metadata event + 2 complete events.
        prop_assert_eq!(events.unwrap().len(), 3);
    }

    #[test]
    fn tree_renderer_never_panics(
        name in ".{0,40}",
        id in 1u64..1000,
        bits in proptest::arbitrary::any::<u64>(),
    ) {
        // Parent ids may dangle (id/2 is usually not in the set): the
        // tree must hoist orphans, not loop or panic.
        let recs = [
            record(id, name.clone(), "k".into(), "v".into(), bits, 0),
            record(id + 7, name, "k".into(), "v".into(), bits, 1),
        ];
        let out = render_tree(&recs, &[(0, "main".to_string())]);
        prop_assert!(!out.is_empty());
    }
}
