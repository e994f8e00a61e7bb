//! A minimal vendored HTTP/1.1 line protocol over std-only I/O.
//!
//! The offline-deps rule bans real HTTP stacks, and the serving plane needs
//! only a sliver of the spec: a request line, case-insensitive
//! `Content-Length` / `Connection` headers, an optional body, and `200` /
//! `4xx` / `503` responses. Requests are read from any [`BufRead`] and
//! responses written to any [`Write`], so the framing is unit-testable over
//! in-memory buffers and shared verbatim by the server and the client.

use std::io::{BufRead, Read, Write};

use crate::ServeError;

/// Longest accepted request body, in bytes — a boundary guard against a
/// malformed or hostile `Content-Length` allocating unbounded memory.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Longest accepted header section (request line + headers + blank line),
/// in bytes. The body cap alone does not stop a hostile client from
/// streaming unbounded header lines; past this budget the request is
/// rejected with a structured `431` instead of growing memory.
pub const MAX_HEADER_BYTES: u64 = 16 * 1024;

/// Reads one `\n`-terminated line from the capped header section.
/// A line that runs into the cap without its terminator is the
/// header-bomb case: [`ServeError::HeadersTooLarge`], never an allocation
/// proportional to what the peer sends. A line that is not UTF-8 is a
/// [`ServeError::BadRequest`], as a non-UTF-8 body is.
fn read_header_line<R: BufRead>(
    head: &mut std::io::Take<R>,
    line: &mut String,
) -> Result<usize, ServeError> {
    line.clear();
    let n = head.read_line(line).map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidData => {
            ServeError::BadRequest { detail: "request head is not utf-8".to_string() }
        }
        _ => ServeError::from(e),
    })?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(ServeError::HeadersTooLarge);
    }
    Ok(n)
}

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path (`/score/wine-rf`), as sent; no query parsing.
    pub path: String,
    /// Request body (empty when no `Content-Length` header was present).
    pub body: String,
    /// Whether the peer asked to keep the connection open
    /// (HTTP/1.1 default: yes, unless `Connection: close`).
    pub keep_alive: bool,
}

/// Reads one request from `reader`.
///
/// Returns `Ok(None)` on a clean EOF before the request line — the peer
/// closed an idle keep-alive connection, which is not an error.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on malformed framing,
/// [`ServeError::HeadersTooLarge`] when the header section runs past
/// [`MAX_HEADER_BYTES`], [`ServeError::Timeout`] when a read deadline
/// expires mid-request, [`ServeError::Io`] on transport failure.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ServeError> {
    let mut head = reader.by_ref().take(MAX_HEADER_BYTES);
    let mut line = String::new();
    if read_header_line(&mut head, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(ServeError::BadRequest {
                detail: format!("malformed request line {:?}", line.trim_end()),
            })
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::BadRequest { detail: format!("unsupported version {version:?}") });
    }

    let mut content_length = 0usize;
    let mut keep_alive = true;
    loop {
        // EOF before a line's `\n`, even after a bare `\r`, leaves the head open.
        read_header_line(&mut head, &mut line)?;
        if !line.ends_with('\n') {
            return Err(ServeError::BadRequest { detail: "eof inside headers".to_string() });
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ServeError::BadRequest { detail: format!("malformed header {trimmed:?}") });
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| ServeError::BadRequest {
                detail: format!("bad content-length {value:?}"),
            })?;
            if content_length > MAX_BODY_BYTES {
                return Err(ServeError::BadRequest {
                    detail: format!("content-length {content_length} exceeds {MAX_BODY_BYTES}"),
                });
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| match ServeError::from(e) {
        // A deadline mid-body is the slow-client case (408), not a
        // framing error.
        ServeError::Timeout => ServeError::Timeout,
        other => ServeError::BadRequest {
            detail: format!("short body (wanted {content_length} bytes): {other}"),
        },
    })?;
    let body = String::from_utf8(body)
        .map_err(|_| ServeError::BadRequest { detail: "body is not utf-8".to_string() })?;
    Ok(Some(Request { method, path, body, keep_alive }))
}

/// Canonical reason phrase for the status codes this plane emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one `text/plain` response and flushes.
///
/// # Errors
///
/// [`ServeError::Io`] on transport failure.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> Result<(), ServeError> {
    write_response_ext(writer, status, body, keep_alive, None)
}

/// [`write_response`] with an optional `Retry-After` header (seconds) —
/// the load-shedding contract: a `503` from admission control tells the
/// client when to come back.
///
/// # Errors
///
/// [`ServeError::Io`] on transport failure.
pub fn write_response_ext<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after: Option<u64>,
) -> Result<(), ServeError> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry = match retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: {connection}\r\n{retry}\r\n{body}",
        reason(status),
        body.len(),
    )?;
    writer.flush()?;
    Ok(())
}

/// Writes one request (the client half of the protocol) and flushes.
/// Connections are keep-alive by default; the server honors
/// `Connection: close` per-request, which this writer never sends.
///
/// # Errors
///
/// [`ServeError::Io`] on transport failure.
pub fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(), ServeError> {
    let request =
        format!("{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    // One write call: when the server has already answered and closed (a
    // shed `503`), the RST our first bytes provoke would fail any later
    // write before the answer waiting in the receive buffer is read.
    writer.write_all(request.as_bytes())?;
    writer.flush()?;
    Ok(())
}

/// One parsed response on the client side: status code, body, and the
/// `Retry-After` hint when the server sent one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (`200`, `400`, …).
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Parsed `Retry-After` header (seconds), when present.
    pub retry_after: Option<u64>,
}

/// Reads one response from `reader` (the client half of the protocol).
///
/// # Errors
///
/// [`ServeError::BadRequest`] on malformed framing (the *peer* misbehaved),
/// [`ServeError::Io`] on transport failure.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, ServeError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ServeError::Io { detail: "connection closed before response".to_string() });
    }
    let mut parts = line.split_whitespace();
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| ServeError::BadRequest { detail: format!("bad status code {code:?}") })?,
        _ => {
            return Err(ServeError::BadRequest {
                detail: format!("malformed status line {:?}", line.trim_end()),
            })
        }
    };
    let mut content_length = 0usize;
    let mut retry_after = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(ServeError::BadRequest { detail: "eof inside headers".to_string() });
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| ServeError::BadRequest {
                    detail: format!("bad content-length {:?}", value.trim()),
                })?;
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| ServeError::Io { detail: format!("short response body: {e}") })?;
    let body = String::from_utf8(body)
        .map_err(|_| ServeError::BadRequest { detail: "body is not utf-8".to_string() })?;
    Ok(Response { status, body, retry_after })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_request_with_body() {
        let raw = "POST /score/m HTTP/1.1\r\nContent-Length: 5\r\nHost: x\r\n\r\nhello";
        let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/score/m");
        assert_eq!(req.body, "hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_case_insensitive_headers() {
        let raw = "GET /health HTTP/1.1\r\nCONNECTION: Close\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert!(!req.keep_alive);
        assert_eq!(req.body, "");
    }

    #[test]
    fn eof_before_request_is_none() {
        assert_eq!(read_request(&mut Cursor::new("")).unwrap(), None);
    }

    #[test]
    fn malformed_request_line_is_structured_error() {
        let err = read_request(&mut Cursor::new("garbage\r\n\r\n")).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
    }

    #[test]
    fn oversized_content_length_rejected() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
    }

    #[test]
    fn request_roundtrip() {
        let mut buf = Vec::new();
        write_request(&mut buf, "POST", "/score/wine-rf", "1,2,3\n").unwrap();
        let req = read_request(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/score/wine-rf");
        assert_eq!(req.body, "1,2,3\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "generation:3\nacc\n", true).unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "generation:3\nacc\n");
    }

    #[test]
    fn oversized_header_section_is_431_not_oom() {
        // One giant header line with no terminator: the reader must stop at
        // the cap, not buffer what the peer keeps sending.
        let mut raw = String::from("POST /x HTTP/1.1\r\nX-Bomb: ");
        raw.push_str(&"a".repeat(2 * MAX_HEADER_BYTES as usize));
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert_eq!(err, ServeError::HeadersTooLarge);

        // Many small headers crossing the cap hit the same wall.
        let mut raw = String::from("GET /health HTTP/1.1\r\n");
        for i in 0..2048 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(64)));
        }
        raw.push_str("\r\n");
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert_eq!(err, ServeError::HeadersTooLarge);

        // A request just under the cap still parses.
        let raw = format!(
            "POST /x HTTP/1.1\r\nX-Pad: {}\r\nContent-Length: 2\r\n\r\nok",
            "c".repeat(1024)
        );
        let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn header_cap_does_not_eat_into_the_body() {
        // The body is read from the raw stream, not the capped head: a
        // body larger than MAX_HEADER_BYTES must still arrive whole.
        let body = "z".repeat(3 * MAX_HEADER_BYTES as usize);
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.body.len(), body.len());
    }

    #[test]
    fn retry_after_roundtrip() {
        let mut buf = Vec::new();
        write_response_ext(&mut buf, 503, "overloaded\n", true, Some(2)).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(2));

        let mut buf = Vec::new();
        write_response(&mut buf, 200, "ok\n", true).unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.retry_after, None);
    }

    #[test]
    fn short_body_is_error_not_hang() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
    }

    #[test]
    fn non_utf8_head_is_bad_request_not_io() {
        // `read_line` reports invalid UTF-8 as an I/O error; in the head it
        // is the peer's framing fault, like a non-UTF-8 body.
        for raw in [
            &b"GET /\xff HTTP/1.1\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nX-Name: caf\xc3\r\n\r\n"[..],
        ] {
            let err = read_request(&mut Cursor::new(raw)).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
        }
    }
}
