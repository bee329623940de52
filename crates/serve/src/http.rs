//! A minimal HTTP/1.1 subset: exactly what the service endpoints need —
//! one request per connection (`Connection: close`), `Content-Length`
//! bodies, no chunked encoding, no keep-alive. Both the server and the
//! blocking client ride on these helpers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted header block (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request/response body.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed HTTP request (or response — the shapes coincide for this
/// subset; `path` holds the status line's remainder when parsing
/// responses).
#[derive(Debug)]
pub struct Message {
    /// Request method (`GET`/`POST`), or the protocol token of a
    /// response status line.
    pub method: String,
    /// Request path, or the status code text of a response.
    pub path: String,
    /// The body, limited to [`MAX_BODY_BYTES`].
    pub body: String,
}

/// Reads one HTTP message (head + `Content-Length` body) off `stream`.
pub fn read_message(stream: &mut TcpStream) -> io::Result<Message> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    let mut first_line = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
        if head.len() + line.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "header block too large",
            ));
        }
        if first_line.is_empty() {
            first_line = line.trim_end().to_string();
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }

    let mut parts = first_line.splitn(3, ' ');
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed start line",
        ));
    }

    let mut content_length = 0usize;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not utf-8"))?;
    Ok(Message { method, path, body })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one JSON response and flushes; the caller closes the stream.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Writes one request (the client side) and flushes.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: qt-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Parses the status code out of a response start line (`path` field of
/// [`read_message`] when reading responses).
pub fn response_status(msg: &Message) -> io::Result<u16> {
    msg.path
        .split(' ')
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))
}

#[cfg(test)]
mod tests {
    use super::status_text;
    use crate::error::ServiceError;
    use qt_core::{ExecError, PlanError};

    #[test]
    fn every_service_error_status_has_a_reason_phrase() {
        let errors = [
            ServiceError::Overloaded { capacity: 1 },
            ServiceError::BadRequest("bad".into()),
            ServiceError::Plan(PlanError::FullPrepsForPairs),
            ServiceError::Exec(ExecError::ArtifactsExhausted),
            ServiceError::NotFound { job: 1 },
            ServiceError::DeadlineExceeded {
                job: 1,
                deadline_millis: 1,
            },
            ServiceError::ShuttingDown,
        ];
        for e in &errors {
            // Exhaustive, so a new variant has to join the list above.
            match e {
                ServiceError::Overloaded { .. }
                | ServiceError::BadRequest(_)
                | ServiceError::Plan(_)
                | ServiceError::Exec(_)
                | ServiceError::NotFound { .. }
                | ServiceError::DeadlineExceeded { .. }
                | ServiceError::ShuttingDown => {}
            }
            assert_ne!(status_text(e.status_code()), "Unknown", "{e:?}");
        }
    }
}
