//! Property tests for the serving plane's HTTP framing boundary.
//!
//! `read_request` faces whatever bytes a peer sends. Over an in-memory
//! reader (which cannot fail or time out) it must never panic and never
//! report `Io` or `Timeout`: every malformed stream is the peer's fault,
//! so it is a `BadRequest` (400) or `HeadersTooLarge` (431). A request
//! written by `write_request` reads back equal, every proper prefix of one
//! is a `BadRequest`, and the header and `Content-Length` caps hold at
//! their exact edges.

use std::io::Cursor;

use frote_serve::http::{read_request, write_request, Request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use frote_serve::ServeError;
use proptest::prelude::*;

fn read(raw: &[u8]) -> Result<Option<Request>, ServeError> {
    read_request(&mut Cursor::new(raw))
}

/// Fails the case on any error a peer's bytes alone cannot explain.
fn assert_peer_error(raw: &[u8], result: &Result<Option<Request>, ServeError>) {
    if let Err(err) = result {
        assert!(
            matches!(err, ServeError::BadRequest { .. } | ServeError::HeadersTooLarge),
            "{err:?} from {:?}",
            String::from_utf8_lossy(raw)
        );
    }
}

/// Fragments of real requests, plus bytes that are not UTF-8 on their own.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: &[&str] = &[
        "GET ",
        "POST ",
        "/score/m ",
        "HTTP/1.1",
        "HTTP/2",
        "\r\n",
        "\n",
        "Content-Length: ",
        "content-length:",
        "Connection: close",
        ": ",
        "0",
        "7",
        "99999999999999999999",
        "é",
    ];
    prop_oneof![
        (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        (0u8..=255).prop_map(|b| vec![b]),
        Just(vec![0xc3]),
        Just(vec![0xff, b'\n']),
    ]
}

/// A token with no whitespace, as a method or path must be.
fn token(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..alphabet.len(), len)
        .prop_map(move |ix| ix.into_iter().map(|i| char::from(alphabet[i])).collect())
}

fn body() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        0x20u32..0x7f,
        Just(u32::from('\n')),
        Just(u32::from('\r')),
        0x80u32..0x800,
        0x1_f300u32..0x1_f400,
    ]
    .prop_map(|c| char::from_u32(c).unwrap_or('?'));
    proptest::collection::vec(ch, 0..64).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_a_request_or_a_peer_error(
        raw in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let result = read(&raw);
        assert_peer_error(&raw, &result);
    }

    #[test]
    fn request_shaped_streams_are_a_request_or_a_peer_error(
        parts in proptest::collection::vec(fragment(), 0..24),
    ) {
        let raw = parts.concat();
        let result = read(&raw);
        assert_peer_error(&raw, &result);
    }

    #[test]
    fn written_requests_read_back_and_their_prefixes_are_bad_requests(
        method in token(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1..8),
        path in token(b"abcxyz019-_./%?=&", 0..24),
        body in body(),
    ) {
        let path = format!("/{path}");
        let mut raw = Vec::new();
        write_request(&mut raw, &method, &path, &body).unwrap();
        let expected = Request { method, path, body, keep_alive: true };
        prop_assert_eq!(read(&raw), Ok(Some(expected)));
        prop_assert_eq!(read(&[]), Ok(None));
        for cut in 1..raw.len() {
            let result = read(&raw[..cut]);
            prop_assert!(
                matches!(result, Err(ServeError::BadRequest { .. })),
                "prefix of {cut}/{} bytes gave {result:?}",
                raw.len()
            );
        }
    }

    #[test]
    fn header_cap_holds_at_its_edge(
        pad in (MAX_HEADER_BYTES as usize - 64)..(MAX_HEADER_BYTES as usize + 64),
        lines in 1usize..4,
    ) {
        // `lines` headers share `pad` bytes of padding.
        let mut raw = String::from("POST /x HTTP/1.1\r\n");
        for i in 0..lines {
            let share = pad / lines + usize::from(i < pad % lines);
            raw.push_str(&format!("X-Pad: {}\r\n", "p".repeat(share)));
        }
        raw.push_str("Content-Length: 2\r\n\r\n");
        let head_len = raw.len() as u64;
        raw.push_str("ok");
        let result = read(raw.as_bytes());
        if head_len <= MAX_HEADER_BYTES {
            prop_assert_eq!(result.map(|r| r.map(|r| r.body)), Ok(Some("ok".to_string())));
        } else {
            prop_assert_eq!(result, Err(ServeError::HeadersTooLarge));
        }
    }

    #[test]
    fn oversized_or_malformed_content_length_is_a_bad_request(
        value in prop_oneof![
            (MAX_BODY_BYTES as u64 + 1..=u64::MAX).prop_map(|n| n.to_string()),
            // Nine or more digits with a nonzero lead always exceed the cap.
            (1u8..10, proptest::collection::vec(0u8..10, 8..40)).prop_map(|(lead, rest)| {
                std::iter::once(lead).chain(rest).map(|d| char::from(b'0' + d)).collect()
            }),
            Just("-1".to_string()),
            Just("1e3".to_string()),
            Just(String::new()),
        ],
    ) {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nbody");
        let result = read(raw.as_bytes());
        prop_assert!(matches!(result, Err(ServeError::BadRequest { .. })), "{value}: {result:?}");
    }
}
