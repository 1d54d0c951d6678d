//! Property-based fuzzing of the incremental request parser behind the
//! nonblocking event loop.
//!
//! `http::parse_request` is the service's only request parser and its
//! unauthenticated network-facing surface: whatever bytes a client throws
//! at the socket flow through it first. These properties feed it arbitrary
//! byte buffers — pure noise, truncated/corrupted valid requests, and
//! adversarial header shapes — and assert the total-function contract: it
//! never panics, and every outcome is a parsed request, "need more bytes",
//! or a typed [`HttpError`] whose `http_status()` is a client-error code.
//!
//! Against an oracle, a generated complete request parses to exactly its
//! method, path, body and length. Every proper prefix stays at `Ok(None)`
//! no matter how reads are split (the slow-loris path), `Ok(None)` never
//! holds past the event loop's per-connection read cap, pipelined requests
//! walk in order, and mid-pipeline garbage becomes a typed error.

use mqo_service::http::{parse_request, HttpError, HttpLimits};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tight limits so the generated inputs can actually trip every cap.
fn small_limits() -> HttpLimits {
    HttpLimits {
        max_body: 256,
        max_line_bytes: 128,
        max_header_count: 8,
    }
}

/// The event loop's per-connection read cap for `limits`: it stops reading
/// once a connection's buffer holds this many bytes.
fn read_cap(limits: &HttpLimits) -> usize {
    limits.max_body + limits.max_line_bytes * (limits.max_header_count + 2)
}

/// Runs the parser over `bytes`, translating a panic — which must never
/// happen — into a test failure, and checking that any error carries a
/// legal response status.
fn parse_never_panics(bytes: &[u8], limits: &HttpLimits) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_request(bytes, limits)));
    let Ok(result) = outcome else {
        return Err(TestCaseError::fail(format!(
            "parse_request panicked on {} bytes: {:?}",
            bytes.len(),
            &bytes[..bytes.len().min(64)]
        )));
    };
    match result {
        Ok(Some(parsed)) => {
            // A parse that succeeds must respect the configured caps.
            prop_assert!(parsed.request.body.len() <= limits.max_body);
            prop_assert!(!parsed.request.method.is_empty());
            prop_assert!(parsed.consumed <= bytes.len());
        }
        Ok(None) => {}
        Err(e) => {
            let status = e.http_status();
            prop_assert!(
                matches!(status, 400 | 413 | 431),
                "unexpected status {status} for {e}"
            );
        }
    }
    Ok(())
}

/// A syntactically valid request the corruption strategies start from.
fn valid_request(body_len: usize) -> Vec<u8> {
    let body: Vec<u8> = (0..body_len).map(|i| b'a' + (i % 26) as u8).collect();
    let mut raw = format!(
        "POST /solve HTTP/1.1\r\nhost: test\r\ncontent-type: application/json\r\n\
         content-length: {body_len}\r\nconnection: close\r\n\r\n"
    )
    .into_bytes();
    raw.extend_from_slice(&body);
    raw
}

/// `prefix` padded with `a`s to a `\r\n`-terminated line of `len` bytes.
fn padded_line(prefix: &str, len: usize) -> Vec<u8> {
    let mut line = prefix.as_bytes().to_vec();
    line.resize(len.max(prefix.len() + 2) - 2, b'a');
    line.extend_from_slice(b"\r\n");
    line
}

/// A `content-length: {declared}` header line padded with spaces before
/// the value to exactly `len` bytes.
fn content_length_line(declared: usize, len: usize) -> Vec<u8> {
    let name = "content-length:";
    let width = len - name.len() - 2;
    format!("{name}{declared:>width$}\r\n").into_bytes()
}

/// Maps generated indices onto `alphabet`.
fn spell(alphabet: &[u8], picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| char::from(alphabet[i % alphabet.len()]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise: arbitrary bytes of arbitrary length.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..512)) {
        parse_never_panics(&bytes, &small_limits())?;
        parse_never_panics(&bytes, &HttpLimits::default())?;
    }

    /// Structured noise: a valid request truncated at an arbitrary point
    /// and with one arbitrary byte overwritten. This walks the parser
    /// through every state (request line, headers, separator, body) with
    /// a corruption at each.
    #[test]
    fn corrupted_valid_requests_never_panic(
        body_len in 0usize..64,
        cut in 0usize..256,
        flip_at in 0usize..256,
        flip_to in 0u8..=255,
    ) {
        let mut raw = valid_request(body_len);
        if flip_at < raw.len() {
            raw[flip_at] = flip_to;
        }
        raw.truncate(cut.min(raw.len()));
        parse_never_panics(&raw, &small_limits())?;
    }

    /// Adversarial header shapes: arbitrary counts of arbitrary-length
    /// header lines, colon or not, plus a declared content length that
    /// need not match the actual trailing bytes.
    #[test]
    fn adversarial_headers_never_panic(
        header_count in 0usize..16,
        header_len in 0usize..200,
        declared in 0usize..1024,
        actual in 0usize..300,
        with_colon in proptest::bool::ANY,
    ) {
        let mut raw = b"POST /solve HTTP/1.1\r\n".to_vec();
        for i in 0..header_count {
            let name = format!("x-h{i}");
            let filler = "v".repeat(header_len);
            if with_colon {
                raw.extend_from_slice(format!("{name}: {filler}\r\n").as_bytes());
            } else {
                raw.extend_from_slice(format!("{name}{filler}\r\n").as_bytes());
            }
        }
        raw.extend_from_slice(format!("content-length: {declared}\r\n\r\n").as_bytes());
        raw.extend_from_slice(&vec![b'x'; actual]);
        parse_never_panics(&raw, &small_limits())?;
    }

    /// Oracle: a generated complete request — any method casing, a path
    /// with or without a query string, filler headers, any body within the
    /// cap — parses to exactly its upper-cased method, its query-free path
    /// and its body, consuming exactly its own bytes and none of the bytes
    /// pipelined behind it.
    #[test]
    fn complete_requests_parse_to_exactly_their_fields(
        method in vec(0usize..52, 1..8),
        path in vec(0usize..40, 0..40),
        query in vec(0usize..40, 0..20),
        with_query in proptest::bool::ANY,
        headers in vec(vec(0usize..64, 0..60), 0..8),
        body in vec(0u8..=255, 0..=256),
        trailing in vec(0u8..=255, 0..64),
    ) {
        let limits = small_limits();
        let method = spell(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", &method);
        let path = format!("/{}", spell(b"abcdefghijklmnopqrstuvwxyz0123456789/._-", &path));
        let target = if with_query {
            format!("{path}?{}", spell(b"abcdefghijklmnopqrstuvwxyz0123456789=&?/", &query))
        } else {
            path.clone()
        };
        let mut raw = format!("{method} {target} HTTP/1.1\r\n").into_bytes();
        for (i, value) in headers.iter().take(limits.max_header_count - 1).enumerate() {
            let value = spell(b"abcdefghijklmnopqrstuvwxyz0123456789 ,;=/:-", value);
            raw.extend_from_slice(format!("x-h{i}: {value}\r\n").as_bytes());
        }
        raw.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        raw.extend_from_slice(&body);
        let request_len = raw.len();
        raw.extend_from_slice(&trailing);
        match parse_request(&raw, &limits) {
            Ok(Some(parsed)) => {
                prop_assert_eq!(&parsed.request.method, &method.to_ascii_uppercase());
                prop_assert_eq!(&parsed.request.path, &path);
                prop_assert_eq!(&parsed.request.body, &body);
                prop_assert_eq!(parsed.consumed, request_len);
                prop_assert!(!parsed.close, "HTTP/1.1 defaults to keep-alive");
            }
            other => return Err(TestCaseError::fail(format!(
                "complete request gave {other:?}"
            ))),
        }
    }

    /// The parser never waits on a buffer the event loop would stop
    /// reading into: `Ok(None)` only below `read_cap`. Every line here —
    /// the request line, each header and the padded `content-length` —
    /// sits at or just under the line cap, the header count runs past its
    /// cap, and the declared body runs to `max_body`, so truncations reach
    /// the largest prefixes the parser can legitimately be waiting on.
    #[test]
    fn incomplete_verdicts_stay_below_the_read_cap(
        line_lens in vec(120usize..=128, 1..12),
        declared in 0usize..=256,
        cut_back in 0usize..64,
    ) {
        let limits = small_limits();
        let mut raw = padded_line("GET /", line_lens[0]);
        for &len in &line_lens[1..] {
            raw.extend(padded_line("x-h: ", len));
        }
        raw.extend(content_length_line(declared, limits.max_line_bytes));
        raw.extend_from_slice(b"\r\n");
        raw.extend(std::iter::repeat_n(b'b', declared));
        for cut in raw.len().saturating_sub(cut_back)..=raw.len() {
            if let Ok(None) = parse_request(&raw[..cut], &limits) {
                prop_assert!(
                    cut < read_cap(&limits),
                    "waiting on {cut} bytes, read cap {}", read_cap(&limits)
                );
            }
        }
    }

    /// Split-read boundaries: every proper prefix of a valid request is
    /// `Ok(None)` — never an error, never a premature parse — and the full
    /// buffer parses with `consumed` equal to the request length. This is
    /// the byte-at-a-time slow-loris path: the event loop keeps buffering
    /// without misparsing regardless of where the kernel splits reads.
    #[test]
    fn every_prefix_of_a_valid_request_is_incomplete_not_an_error(
        body_len in 0usize..64,
        keep_alive in proptest::bool::ANY,
    ) {
        let mut raw = valid_request(body_len);
        if keep_alive {
            let text = String::from_utf8(raw).unwrap();
            raw = text.replace("connection: close", "connection: keep-alive").into_bytes();
        }
        let limits = small_limits();
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], &limits) {
                Ok(None) => {}
                other => return Err(TestCaseError::fail(format!(
                    "prefix of {cut}/{} bytes gave {other:?}", raw.len()
                ))),
            }
        }
        match parse_request(&raw, &limits) {
            Ok(Some(parsed)) => {
                prop_assert_eq!(parsed.consumed, raw.len());
                prop_assert_eq!(parsed.close, !keep_alive);
                prop_assert_eq!(parsed.request.body.len(), body_len);
            }
            other => return Err(TestCaseError::fail(format!(
                "complete request gave {other:?}"
            ))),
        }
    }

    /// Pipelining: several keep-alive requests concatenated into one
    /// segment parse strictly in order, each `consumed` draining exactly
    /// one request, with an empty buffer at the end.
    #[test]
    fn pipelined_requests_in_one_segment_parse_in_order(
        body_lens in vec(0usize..48, 1..6),
    ) {
        let limits = small_limits();
        let mut buf = Vec::new();
        for len in &body_lens {
            let text = String::from_utf8(valid_request(*len)).unwrap();
            buf.extend_from_slice(
                text.replace("connection: close", "connection: keep-alive").as_bytes(),
            );
        }
        for (k, len) in body_lens.iter().enumerate() {
            match parse_request(&buf, &limits) {
                Ok(Some(parsed)) => {
                    prop_assert_eq!(
                        parsed.request.body.len(), *len,
                        "request {} parsed out of order", k
                    );
                    prop_assert!(!parsed.close);
                    buf.drain(..parsed.consumed);
                }
                other => return Err(TestCaseError::fail(format!(
                    "pipelined request {k} gave {other:?}"
                ))),
            }
        }
        prop_assert!(buf.is_empty());
    }

    /// Mid-pipeline malformed input: a valid request followed by one of
    /// several definitively-broken tails parses the valid request first,
    /// then answers the tail with a typed client-error status — the event
    /// loop turns that into an error response plus connection close, never
    /// a hang or a panic.
    #[test]
    fn mid_pipeline_malformed_tails_are_typed_errors(
        body_len in 0usize..48,
        tail_kind in 0usize..4,
    ) {
        let limits = small_limits();
        let text = String::from_utf8(valid_request(body_len)).unwrap();
        let mut buf = text.replace("connection: close", "connection: keep-alive").into_bytes();
        let tail: &[u8] = match tail_kind {
            0 => b"POST /solve HTTP/1.1\r\ncontent-length: zzz\r\n\r\n",
            1 => b"not-even-a-request-line\r\n\r\n",
            2 => b"POST /solve HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
            _ => b"POST\r\n\r\n",
        };
        buf.extend_from_slice(tail);
        let first = match parse_request(&buf, &limits) {
            Ok(Some(parsed)) => parsed,
            other => return Err(TestCaseError::fail(format!(
                "leading valid request gave {other:?}"
            ))),
        };
        buf.drain(..first.consumed);
        match parse_request(&buf, &limits) {
            Err(e) => {
                let status = e.http_status();
                prop_assert!(
                    matches!(status, 400 | 413 | 431),
                    "unexpected status {status} for {e}"
                );
            }
            other => return Err(TestCaseError::fail(format!(
                "malformed tail {tail_kind} gave {other:?}"
            ))),
        }
    }

    /// Oversized declared bodies are rejected with the typed 413 from the
    /// head alone, never by waiting for (or allocating) the body first.
    #[test]
    fn huge_content_length_is_typed_not_allocated(extra in 1usize..1_000_000) {
        let limits = small_limits();
        let declared = limits.max_body + extra;
        let raw = format!(
            "POST /solve HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n"
        );
        match parse_request(raw.as_bytes(), &limits) {
            Err(HttpError::BodyTooLarge { declared: d, limit }) => {
                prop_assert_eq!(d, declared);
                prop_assert_eq!(limit, limits.max_body);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected BodyTooLarge, got {other:?}"
            ))),
        }
    }
}

/// The read-cap bound is not vacuous: with the request line and every
/// header at the line cap and the largest body, the parser is still
/// waiting one byte short of the request, which misses the cap only by
/// the blank line's unused `max_line_bytes - 2`.
#[test]
fn the_largest_request_fits_under_the_read_cap() {
    let limits = small_limits();
    let cap = limits.max_line_bytes;
    let mut full = padded_line("GET /", cap);
    for _ in 0..limits.max_header_count - 1 {
        full.extend(padded_line("x-h: ", cap));
    }
    full.extend(content_length_line(limits.max_body, cap));
    full.extend_from_slice(b"\r\n");
    full.extend(std::iter::repeat_n(b'b', limits.max_body));
    assert_eq!(full.len(), read_cap(&limits) - (cap - 2));
    assert!(matches!(parse_request(&full, &limits), Ok(Some(_))));
    assert!(matches!(
        parse_request(&full[..full.len() - 1], &limits),
        Ok(None)
    ));
}
