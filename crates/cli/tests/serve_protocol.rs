//! Protocol fuzz battery for `fhp serve`: hostile byte streams on stdin.
//!
//! Every malformed line — truncated JSON, lying shapes, unknown verbs,
//! raw garbage (including invalid UTF-8), oversized payloads — must earn
//! exactly one typed error reply (`ok:false` with an `error.kind`), and
//! the server must then answer the next well-formed request normally.
//! The process never crashes and always exits cleanly at EOF or
//! `shutdown`.

use std::io::Write;
use std::process::{Command, Stdio};

use fhp_obs::json::{self, Json};

/// Runs `fhp serve` over stdin with the given raw bytes and returns the
/// reply lines.
fn serve_bytes(input: &[u8]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fhp"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input)
        .expect("request bytes fit the pipe");
    let out = child.wait_with_output().expect("server exits");
    assert!(
        out.status.success(),
        "server must exit cleanly, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn parse_reply(line: &str) -> Json {
    json::parse(line).unwrap_or_else(|e| panic!("reply is not valid JSON ({e}): {line}"))
}

fn error_kind(reply: &Json) -> String {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    match reply.get("error").and_then(|e| e.get("kind")) {
        Some(Json::Str(kind)) => kind.clone(),
        other => panic!("error reply carries no kind: {other:?}"),
    }
}

const VALID_PARTITION: &str =
    r#"{"id":900,"verb":"partition","modules":4,"nets":[[0,1],[1,2],[2,3]]}"#;

#[test]
fn truncations_of_a_valid_request_all_get_parse_errors() {
    // Cut a known-good request at several byte boundaries; every prefix
    // is malformed JSON and must be answered, then the intact request
    // must still work.
    let mut input = Vec::new();
    let cuts: Vec<usize> = (1..VALID_PARTITION.len()).step_by(7).collect();
    for &cut in &cuts {
        input.extend_from_slice(&VALID_PARTITION.as_bytes()[..cut]);
        input.push(b'\n');
    }
    input.extend_from_slice(VALID_PARTITION.as_bytes());
    input.push(b'\n');
    let replies = serve_bytes(&input);
    assert_eq!(replies.len(), cuts.len() + 1);
    for line in &replies[..cuts.len()] {
        let kind = error_kind(&parse_reply(line));
        assert!(
            kind == "parse_error" || kind == "not_an_object" || kind == "missing_verb",
            "unexpected kind {kind} for a truncation"
        );
    }
    let last = parse_reply(replies.last().expect("final reply"));
    assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(last.get("id"), Some(&Json::Num(900.0)));
}

#[test]
fn lying_shapes_and_unknown_verbs_get_typed_errors() {
    let battery: &[(&str, &str)] = &[
        (r#"[1,2,3]"#, "not_an_object"),
        (r#""just a string""#, "not_an_object"),
        (r#"42"#, "not_an_object"),
        (r#"null"#, "not_an_object"),
        (r#"{}"#, "missing_verb"),
        (r#"{"id":1}"#, "missing_verb"),
        (r#"{"id":1,"verb":42}"#, "missing_verb"),
        (r#"{"id":1,"verb":"frobnicate"}"#, "unknown_verb"),
        (r#"{"id":1,"verb":"PARTITION"}"#, "unknown_verb"),
        // Lying shapes: the verb is right, the payload is not.
        (r#"{"id":1,"verb":"partition"}"#, "bad_request"),
        (
            r#"{"id":1,"verb":"partition","modules":0,"nets":[]}"#,
            "bad_request",
        ),
        (
            r#"{"id":1,"verb":"partition","modules":4,"nets":[[0,9]]}"#,
            "bad_request",
        ),
        (
            r#"{"id":1,"verb":"partition","modules":4,"nets":[[]]}"#,
            "bad_request",
        ),
        (
            r#"{"id":1,"verb":"partition","modules":3,"nets":[[0,1]],"weights":[1,2]}"#,
            "bad_request",
        ),
        (
            r#"{"id":1,"verb":"partition","modules":-3,"nets":[]}"#,
            "bad_request",
        ),
        (
            r#"{"id":1,"verb":"partition","modules":2.5,"nets":[]}"#,
            "bad_request",
        ),
        // A start count a run would size its tables by: over the cap.
        (
            r#"{"id":1,"verb":"partition","modules":4,"nets":[[0,1],[1,2],[2,3]],"starts":1000000000000}"#,
            "bad_request",
        ),
        (r#"{"id":1,"verb":"edit"}"#, "bad_request"),
        (r#"{"id":1,"verb":"edit","op":"explode"}"#, "bad_request"),
        (r#"{"id":1,"verb":"edit","op":"add_net"}"#, "bad_request"),
        (
            r#"{"id":1,"verb":"edit","op":"pin","net":0,"module":1}"#,
            "bad_request",
        ),
        // Well-formed edits and queries before any instance is loaded.
        (
            r#"{"id":1,"verb":"edit","op":"remove_net","net":0}"#,
            "no_instance",
        ),
        (r#"{"id":1,"verb":"query_cut"}"#, "no_instance"),
        (r#"{"id":1,"verb":"fingerprint"}"#, "no_instance"),
    ];
    let mut input = String::new();
    for (line, _) in battery {
        input.push_str(line);
        input.push('\n');
    }
    input.push_str(VALID_PARTITION);
    input.push('\n');
    let replies = serve_bytes(input.as_bytes());
    assert_eq!(replies.len(), battery.len() + 1);
    for ((line, want), reply) in battery.iter().zip(&replies) {
        assert_eq!(&error_kind(&parse_reply(reply)), want, "request: {line}");
    }
    let last = parse_reply(replies.last().expect("final reply"));
    assert_eq!(last.get("ok"), Some(&Json::Bool(true)), "{last:?}");
}

#[test]
fn garbage_bytes_and_invalid_utf8_never_crash_the_loop() {
    let mut input: Vec<u8> = Vec::new();
    let garbage: &[&[u8]] = &[
        b"\x00\x01\x02\x03",
        b"\xff\xfe{\"verb\":\"stats\"}",
        b"%PDF-1.4 not json at all",
        b"{\"id\":1,\"verb\":\"stats\"}}}}}",
        b"}{",
        b"\xc3\x28", // overlong / invalid UTF-8 continuation
    ];
    for g in garbage {
        input.extend_from_slice(g);
        input.push(b'\n');
    }
    input.extend_from_slice(b"{\"id\":7,\"verb\":\"stats\"}\n");
    let replies = serve_bytes(&input);
    assert_eq!(replies.len(), garbage.len() + 1);
    for reply in &replies[..garbage.len()] {
        let kind = error_kind(&parse_reply(reply));
        assert!(
            kind == "parse_error" || kind == "not_an_object",
            "unexpected kind {kind}"
        );
    }
    let last = parse_reply(replies.last().expect("final reply"));
    assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(last.get("verb"), Some(&Json::Str("stats".to_string())));
}

#[test]
fn oversized_lines_are_rejected_without_reading_the_payload_as_json() {
    let mut input = Vec::new();
    // 1 MiB + 1 of valid-looking JSON: size cap fires before the parser.
    let mut huge = String::from(r#"{"id":1,"verb":"partition","modules":4,"nets":[[0,1]],"pad":""#);
    huge.push_str(&"x".repeat((1 << 20) + 1 - huge.len()));
    huge.push_str("\"}");
    input.extend_from_slice(huge.as_bytes());
    input.push(b'\n');
    input.extend_from_slice(VALID_PARTITION.as_bytes());
    input.push(b'\n');
    let replies = serve_bytes(&input);
    assert_eq!(replies.len(), 2);
    assert_eq!(error_kind(&parse_reply(&replies[0])), "oversized");
    let last = parse_reply(&replies[1]);
    assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    // Balanced nesting well past the parser's depth cap, then a bracket
    // bomb filling the entire 1 MiB line budget (the worst depth a
    // single request line can carry): each must earn a typed error reply
    // — never a stack overflow — and leave the server answering the next
    // well-formed request.
    let mut nested = String::from(r#"{"id":1,"verb":"partition","modules":2,"nets":"#);
    nested.push_str(&"[".repeat(3000));
    nested.push_str(&"]".repeat(3000));
    nested.push('}');
    let mut input = nested.into_bytes();
    input.push(b'\n');
    let mut bomb = String::from(r#"{"id":2,"verb":"partition","modules":2,"nets":"#);
    bomb.push_str(&"[".repeat((1 << 20) - bomb.len()));
    input.extend_from_slice(bomb.as_bytes());
    input.push(b'\n');
    input.extend_from_slice(VALID_PARTITION.as_bytes());
    input.push(b'\n');
    let replies = serve_bytes(&input);
    assert_eq!(replies.len(), 3);
    for reply in &replies[..2] {
        assert_eq!(error_kind(&parse_reply(reply)), "parse_error");
    }
    let last = parse_reply(&replies[2]);
    assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn unterminated_flood_is_bounded_and_rejected() {
    // 8 MiB with no newline at all: the server answers one `oversized`
    // error at EOF without accumulating the flood, and exits cleanly.
    let mut input = vec![b'x'; 8 << 20];
    let replies = serve_bytes(&input);
    assert_eq!(replies.len(), 1);
    assert_eq!(error_kind(&parse_reply(&replies[0])), "oversized");
    // With a newline after the flood, serving resumes on the next line.
    input.push(b'\n');
    input.extend_from_slice(VALID_PARTITION.as_bytes());
    input.push(b'\n');
    let replies = serve_bytes(&input);
    assert_eq!(replies.len(), 2);
    assert_eq!(error_kind(&parse_reply(&replies[0])), "oversized");
    let last = parse_reply(&replies[1]);
    assert_eq!(last.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn rejected_edits_leave_the_engine_serving_the_old_state() {
    let input = format!(
        "{VALID_PARTITION}\n\
         {{\"id\":2,\"verb\":\"fingerprint\"}}\n\
         {{\"id\":3,\"verb\":\"edit\",\"op\":\"remove_net\",\"net\":999}}\n\
         {{\"id\":4,\"verb\":\"edit\",\"op\":\"add_net\",\"pins\":[0,0],\"weight\":1}}\n\
         {{\"id\":5,\"verb\":\"fingerprint\"}}\n\
         {{\"id\":6,\"verb\":\"shutdown\"}}\n"
    );
    let replies = serve_bytes(input.as_bytes());
    assert_eq!(replies.len(), 6);
    let fp_before = parse_reply(&replies[1]);
    assert_eq!(error_kind(&parse_reply(&replies[2])), "edit_rejected");
    assert_eq!(error_kind(&parse_reply(&replies[3])), "edit_rejected");
    let fp_after = parse_reply(&replies[4]);
    assert_eq!(
        fp_before.get("fp"),
        fp_after.get("fp"),
        "rejected edits must not change the engine state"
    );
}
