//! A deliberately small HTTP/1.1 subset: enough to parse the request
//! line, the handful of headers the server cares about (`Connection`,
//! `Content-Length`), and to emit JSON responses with explicit
//! `Content-Length` framing.
//!
//! The subset is not a general web server. It exists so the admission
//! endpoints can be exercised over real sockets without pulling an async
//! runtime or an HTTP dependency into the vendored build (see the crate
//! docs for why). Requests with bodies have the body read and discarded;
//! chunked transfer encoding is rejected up front.

use std::io::{self, BufRead, Write};

/// Hard cap on a single request head (request line + headers). A client
/// that streams more than this without finishing its headers is cut off
/// rather than allowed to grow server memory.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Hard cap on a request body the server is willing to drain.
pub const MAX_BODY_BYTES: u64 = 64 * 1024;

/// A parsed request: method, decoded path segments, and query
/// parameters. Only the pieces the router consumes are kept.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased by the client convention (`GET`,
    /// `POST`, ...). The router treats `GET` and `POST` alike.
    pub method: String,
    /// The path portion of the request target, split on `/` with empty
    /// segments dropped: `/ticket/alpha` parses to `["ticket", "alpha"]`.
    pub segments: Vec<String>,
    /// Query parameters in arrival order, undecoded (`k=8` → `("k", "8")`).
    pub query: Vec<(String, String)>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value for query parameter `name`, if present.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Parses query parameter `name` as a `u64`.
    ///
    /// Returns `Ok(None)` when absent and `Err` with a client-facing
    /// message when present but malformed — the router turns that into a
    /// 400 rather than guessing.
    pub fn query_u64(&self, name: &str) -> Result<Option<u64>, String> {
        match self.query_param(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("query parameter `{name}` must be an unsigned integer")),
        }
    }
}

/// Outcome of reading one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, well-formed request.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out before the first byte of a new request — the
    /// connection is idle, not broken. The server uses this to poll its
    /// shutdown flag without abandoning the connection.
    Idle,
    /// The peer sent something unparseable; the caller should answer
    /// with a 400 (message included) and close.
    Malformed(String),
}

/// Reads one HTTP/1.1 request head (and drains its body, if any) from
/// `reader`.
///
/// Timeouts are only treated as [`ReadOutcome::Idle`] when they happen
/// before the first byte of the request line; a timeout mid-request means
/// the peer stalled and is reported as malformed. The server's clients
/// write each request as a single small packet, so this is the common
/// case, not a restriction that bites in practice.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<ReadOutcome> {
    let mut line = String::new();
    match read_head_line(reader, &mut line) {
        Ok(0) => return Ok(ReadOutcome::Closed),
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Idle),
        Err(e) if is_malformed(&e) => return Ok(ReadOutcome::Malformed(e.to_string())),
        Err(e) => return Err(e),
    }
    let (method, target, version) = match parse_request_line(line.trim_end()) {
        Some((m, t, v)) => (m.to_owned(), t.to_owned(), v.to_owned()),
        None => return Ok(ReadOutcome::Malformed(format!("bad request line: {line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Ok(ReadOutcome::Malformed(format!("unsupported version {version}")));
    }

    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length: u64 = 0;
    let mut head_bytes = line.len();
    loop {
        line.clear();
        let n = match read_head_line(reader, &mut line) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                return Ok(ReadOutcome::Malformed("timed out mid-headers".to_owned()))
            }
            Err(e) if is_malformed(&e) => return Ok(ReadOutcome::Malformed(e.to_string())),
            Err(e) => return Err(e),
        };
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Ok(ReadOutcome::Malformed("request head too large".to_owned()));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Ok(ReadOutcome::Malformed(format!("bad header line: {trimmed:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = match value.parse() {
                Ok(n) => n,
                Err(_) => {
                    return Ok(ReadOutcome::Malformed("bad Content-Length".to_owned()));
                }
            };
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Ok(ReadOutcome::Malformed("chunked bodies are not supported".to_owned()));
        }
    }

    if content_length > MAX_BODY_BYTES {
        return Ok(ReadOutcome::Malformed("request body too large".to_owned()));
    }
    drain_body(reader, content_length)?;

    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let segments =
        path.split('/').filter(|s| !s.is_empty()).map(ToOwned::to_owned).collect::<Vec<_>>();
    let query = raw_query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect::<Vec<_>>();

    Ok(ReadOutcome::Request(Request { method, segments, query, keep_alive }))
}

/// Reads one CRLF-terminated head line, capped at [`MAX_HEAD_BYTES`].
/// Returns the number of bytes consumed (0 at clean EOF); a line that is
/// not UTF-8 or outgrows the cap is an [`io::ErrorKind::InvalidData`]
/// error, which [`read_request`] reports as [`ReadOutcome::Malformed`].
fn read_head_line<R: BufRead>(reader: &mut R, out: &mut String) -> io::Result<usize> {
    let mut buf = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF mid-line is only clean when nothing was read at all.
            if buf.is_empty() {
                return Ok(0);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-line"));
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..=pos]);
            reader.consume(pos + 1);
            break;
        }
        buf.extend_from_slice(chunk);
        let n = chunk.len();
        reader.consume(n);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "head line too long"));
        }
    }
    let text = String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 head line"))?;
    let n = text.len();
    out.push_str(&text);
    Ok(n)
}

fn parse_request_line(line: &str) -> Option<(&str, &str, &str)> {
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    Some((method, target, version))
}

fn drain_body<R: BufRead>(reader: &mut R, mut remaining: u64) -> io::Result<()> {
    while remaining > 0 {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-body"));
        }
        let take = chunk.len().min(usize::try_from(remaining).unwrap_or(usize::MAX));
        reader.consume(take);
        remaining -= take as u64;
    }
    Ok(())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Whether `e` is a head line [`read_head_line`] refused: the peer's
/// bytes, not the connection, are at fault.
fn is_malformed(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::InvalidData
}

/// A response ready to serialize: status code plus a JSON body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 400, 404, ...).
    pub status: u16,
    /// JSON body, already serialized.
    pub body: String,
}

impl Response {
    /// A 200 response with the given JSON body.
    #[must_use]
    pub fn ok(body: String) -> Self {
        Self { status: 200, body }
    }

    /// An error response with a `{"error": ...}` body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        // Serialize through serde_json so the message is escaped properly.
        let body =
            serde_json::to_string(&ErrorBody { error: message.to_owned() }).unwrap_or_default();
        Self { status, body }
    }
}

// Owned field: the vendored serde derive does not handle lifetime
// parameters.
#[derive(serde::Serialize)]
struct ErrorBody {
    error: String,
}

/// Writes `response` with explicit `Content-Length` framing and the
/// given keep-alive disposition, then flushes.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        response.status,
        reason,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        response.body,
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> ReadOutcome {
        let mut reader = BufReader::new(raw.as_bytes());
        read_request(&mut reader).expect("io on in-memory buffer")
    }

    #[test]
    fn parses_path_segments_and_query() {
        let out = parse("GET /lease/alpha?k=8&trace HTTP/1.1\r\nHost: x\r\n\r\n");
        let ReadOutcome::Request(req) = out else { panic!("expected request, got {out:?}") };
        assert_eq!(req.method, "GET");
        assert_eq!(req.segments, ["lease", "alpha"]);
        assert_eq!(req.query_param("k"), Some("8"));
        assert_eq!(req.query_param("trace"), Some(""));
        assert_eq!(req.query_u64("k"), Ok(Some(8)));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_is_honored() {
        let out = parse("GET /status/a HTTP/1.1\r\nConnection: close\r\n\r\n");
        let ReadOutcome::Request(req) = out else { panic!("expected request, got {out:?}") };
        assert!(!req.keep_alive);
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let out = parse("GET /status/a HTTP/1.0\r\n\r\n");
        let ReadOutcome::Request(req) = out else { panic!("expected request, got {out:?}") };
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_is_closed() {
        assert!(matches!(parse(""), ReadOutcome::Closed));
    }

    #[test]
    fn garbage_is_malformed_not_fatal() {
        assert!(matches!(parse("NOT-HTTP\r\n\r\n"), ReadOutcome::Malformed(_)));
        assert!(matches!(parse("GET /x HTTP/9.9\r\n\r\n"), ReadOutcome::Malformed(_)));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn bodies_are_drained_before_the_next_request() {
        let raw = "POST /admit/a?n=2 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /status/a HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let first = read_request(&mut reader).unwrap();
        let ReadOutcome::Request(first) = first else { panic!("first: {first:?}") };
        assert_eq!(first.segments, ["admit", "a"]);
        let second = read_request(&mut reader).unwrap();
        let ReadOutcome::Request(second) = second else { panic!("second: {second:?}") };
        assert_eq!(second.segments, ["status", "a"]);
    }

    #[test]
    fn bad_query_numbers_report_the_parameter_name() {
        let out = parse("GET /lease/a?k=minus HTTP/1.1\r\n\r\n");
        let ReadOutcome::Request(req) = out else { panic!("expected request, got {out:?}") };
        let err = req.query_u64("k").unwrap_err();
        assert!(err.contains('k'), "error should name the parameter: {err}");
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let huge = format!("GET /x HTTP/1.1\r\nPad: {}\r\n\r\n", "y".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&huge), ReadOutcome::Malformed(_)));
    }

    #[test]
    fn non_utf8_head_lines_are_malformed_not_fatal() {
        let raw: &[u8] = b"GET /ticket/\xff HTTP/1.1\r\n\r\n";
        let out = read_request(&mut BufReader::new(raw)).expect("a 400, not a dropped socket");
        assert!(matches!(out, ReadOutcome::Malformed(_)), "{out:?}");
    }

    #[test]
    fn a_head_line_over_the_cap_across_buffer_fills_is_malformed() {
        let huge = format!("GET /x HTTP/1.1\r\nPad: {}\r\n\r\n", "y".repeat(2 * MAX_HEAD_BYTES));
        let mut reader = BufReader::with_capacity(64, huge.as_bytes());
        let out = read_request(&mut reader).expect("a 400, not a dropped socket");
        assert!(matches!(out, ReadOutcome::Malformed(_)), "{out:?}");
    }

    #[test]
    fn responses_carry_content_length_framing() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{\"a\":1}".to_owned()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 7\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"a\":1}"), "{text}");
    }
}
