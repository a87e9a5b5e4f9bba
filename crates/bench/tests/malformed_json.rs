//! The `tables` JSON readers on hostile input: a document nested 50 000
//! levels deep, a truncated trace, a trace cut right after a negative
//! number's sign and a lone UTF-16 surrogate each end in
//! exit status 2 and a message naming the byte offset, from both
//! `analyze --trace` and `bench-delta` — never a stack overflow or a panic.

use std::path::PathBuf;
use std::process::Command;

/// Write `text` to a file in the test's scratch directory.
fn input(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write test input");
    path.to_string_lossy().into_owned()
}

/// Run `tables` and return its exit code and standard error.
fn tables(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn checked_in_baseline() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json").to_owned()
}

#[test]
fn malformed_inputs_are_located_errors_from_both_readers() {
    let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    trace::enable();
    {
        let _chunk = trace::span("fleet.chunk", "chunk");
        let _stage = trace::span("pipeline.stage", "upload");
        trace::counter("gauge", -2.5);
    }
    let exported = trace::chrome_trace_json();
    trace::disable();
    let cut = (exported.len() / 2..)
        .find(|&i| exported.is_char_boundary(i))
        .expect("a char boundary");
    let sign = exported.find(":-").expect("a negative counter value") + 2;
    let lone = format!(
        "{{\"traceEvents\":[{{\"name\":\"\\u{}\",\"ph\":\"B\",\"tid\":1,\"ts\":0}}]}}",
        "d83d"
    );
    let cases = [
        (
            input(
                "deep.json",
                &format!("{{\"traceEvents\":{}}}", nest(50_000)),
            ),
            "nesting deeper than 64 at byte",
        ),
        (input("truncated.json", &exported[..cut]), "at byte"),
        (input("cut_at_sign.json", &exported[..sign]), "bad number"),
        (input("lone_surrogate.json", &lone), "unpaired surrogate"),
    ];
    for (path, needle) in &cases {
        for args in [
            ["analyze", "--trace", path.as_str()].as_slice(),
            ["bench-delta", path.as_str(), path.as_str()].as_slice(),
        ] {
            let (code, stderr) = tables(args);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(needle), "{args:?}: {stderr}");
            assert!(stderr.contains(" at byte "), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn the_checked_in_baseline_still_parses_and_passes_against_itself() {
    let baseline = checked_in_baseline();
    let (code, stderr) = tables(&["bench-delta", &baseline, &baseline]);
    assert_eq!(code, Some(0), "{stderr}");
}
