//! A small threaded HTTP/1.1 server over `std::net`.
//!
//! `avad` serves a low-rate control plane (VM lifecycle, metrics
//! scrapes), so a thread-per-connection server with `Connection: close`
//! semantics is the right amount of machinery: no external runtime, no
//! async, trivially auditable. The accept loop supports graceful
//! shutdown — `Server::stop` flips a flag and kicks the blocked
//! `accept` with a loopback connect, then waits for in-flight requests
//! to drain (bounded by the configured drain timeout).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted request body; control-plane bodies are tiny and a
/// bound keeps a buggy client from ballooning daemon memory.
const MAX_BODY: usize = 1 << 20;

/// Largest accepted request head (request line + all headers). Bounds
/// memory against a client that streams an endless header line, which
/// would otherwise grow a `String` without ever tripping the socket
/// timeout (each read keeps succeeding).
const MAX_HEAD: usize = 8 << 10;

/// Per-connection socket timeout; a stalled client cannot pin its
/// handler thread past this.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the nonblocking accept loop re-checks the stop flag when
/// idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, `DELETE`).
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Bearer token from the `Authorization` header, if present.
    pub bearer: Option<String>,
    /// Request body.
    pub body: Vec<u8>,
}

/// A response ready for serialization.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
        }
    }
}

fn status_line(code: u16) -> &'static str {
    match code {
        200 => "200 OK",
        201 => "201 Created",
        202 => "202 Accepted",
        400 => "400 Bad Request",
        401 => "401 Unauthorized",
        403 => "403 Forbidden",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        409 => "409 Conflict",
        413 => "413 Payload Too Large",
        429 => "429 Too Many Requests",
        500 => "500 Internal Server Error",
        503 => "503 Service Unavailable",
        _ => "500 Internal Server Error",
    }
}

/// The accept loop plus shutdown/drain machinery.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    inflight: Arc<AtomicU64>,
}

impl Server {
    /// Binds the listener. `addr` may use port 0 for a scratch port; the
    /// bound address is available via [`Server::addr`].
    pub fn bind(addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            inflight: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop the accept loop from another thread.
    pub fn stopper(&self) -> Stopper {
        Stopper {
            addr: self.addr,
            stop: Arc::clone(&self.stop),
            inflight: Arc::clone(&self.inflight),
        }
    }

    /// Runs the accept loop until stopped. Each connection is handled on
    /// its own thread with `handler`; worker threads are joined before
    /// returning so no request outlives the loop unaccounted.
    ///
    /// The listener runs nonblocking with a short poll so the loop
    /// observes the stop flag deterministically — shutdown cannot hinge
    /// on a wake-up connection reaching a wildcard listen address.
    pub fn run<F>(&self, handler: F)
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let mut workers = Vec::new();
        // If nonblocking mode cannot be set, accept() blocks and stop()
        // falls back to its loopback kick to wake the loop.
        let _ = self.listener.set_nonblocking(true);
        loop {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets may inherit the listener's
                    // nonblocking mode on some platforms.
                    let _ = stream.set_nonblocking(false);
                    let handler = Arc::clone(&handler);
                    let inflight = Arc::clone(&self.inflight);
                    inflight.fetch_add(1, Ordering::AcqRel);
                    workers.push(std::thread::spawn(move || {
                        let _ = serve_conn(stream, &*handler);
                        inflight.fetch_sub(1, Ordering::AcqRel);
                    }));
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
            // Reap finished workers so the vec stays bounded under churn.
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            let _ = w.join();
        }
    }
}

/// Stops a [`Server`] from another thread and waits for drain.
#[derive(Clone)]
pub struct Stopper {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    inflight: Arc<AtomicU64>,
}

impl Stopper {
    /// Signals the accept loop to exit and kicks it awake. Returns once
    /// in-flight requests have drained or `drain_timeout` elapses;
    /// `true` means a clean drain.
    pub fn stop(&self, drain_timeout: Duration) -> bool {
        self.stop.store(true, Ordering::Release);
        // The accept loop normally polls nonblocking and sees the flag on
        // its own; the throwaway connection is a fallback kick for the
        // rare platform where nonblocking mode could not be set. A
        // wildcard bind (0.0.0.0 / [::]) is not connectable everywhere,
        // so the kick always targets loopback on the bound port.
        let mut kick = self.addr;
        if kick.ip().is_unspecified() {
            kick.set_ip(match kick.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&kick, Duration::from_millis(250));
        let deadline = Instant::now() + drain_timeout;
        while self.inflight.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

fn serve_conn<F>(stream: TcpStream, handler: &F) -> std::io::Result<()>
where
    F: Fn(Request) -> Response,
{
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let response = match read_request(&mut reader) {
        Ok(Some(request)) => handler(request),
        Ok(None) => return Ok(()), // client connected and said nothing (shutdown kick)
        Err(e) => Response::json(400, format!("{{\"error\":\"bad request: {e}\"}}")),
    };
    write_response(stream, &response)
}

/// Reads one LF-terminated line of the request head, charging stored
/// bytes against `budget` so neither a single endless header line nor an
/// endless stream of headers can grow memory unbounded. Once the budget
/// is spent, further bytes are *discarded* (up to the separate `discard`
/// allowance) rather than refused mid-stream: the caller keeps consuming
/// to the end of the head and then answers with a clean 400 — closing
/// with unread bytes in the socket buffer can RST the error response off
/// the wire. Returns the stored line (CRs dropped) plus the line's true
/// length, so a caller in discard mode can still spot the blank
/// terminator line. EOF mid-line returns what was read.
fn read_line_bounded(
    reader: &mut impl BufRead,
    budget: &mut usize,
    discard: &mut usize,
) -> Result<(String, usize), String> {
    let mut buf = Vec::new();
    let mut len = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                let b = byte[0];
                if *budget > 0 {
                    *budget -= 1;
                    if b == b'\n' {
                        break;
                    }
                    if b != b'\r' {
                        buf.push(b);
                        len += 1;
                    }
                } else if *discard > 0 {
                    *discard -= 1;
                    if b == b'\n' {
                        break;
                    }
                    if b != b'\r' {
                        len += 1;
                    }
                } else {
                    return Err(format!("request head exceeds {MAX_HEAD} bytes"));
                }
            }
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    Ok((String::from_utf8_lossy(&buf).into_owned(), len))
}

fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, String> {
    let mut budget = MAX_HEAD;
    let mut discard = MAX_BODY;
    let (line, line_len) = read_line_bounded(reader, &mut budget, &mut discard)?;
    if line_len == 0 || line.trim().is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_ascii_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut bearer = None;
    let mut content_length = 0usize;
    loop {
        let (header, header_len) = read_line_bounded(reader, &mut budget, &mut discard)?;
        if header_len == 0 {
            break;
        }
        if budget == 0 {
            // Over budget: keep consuming to the blank terminator line,
            // parsing nothing; the error is raised after the loop.
            continue;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad content-length `{value}`"))?;
            }
            "authorization" => {
                if let Some(token) = value.strip_prefix("Bearer ") {
                    bearer = Some(token.trim().to_string());
                }
            }
            _ => {}
        }
    }
    if budget == 0 {
        return Err(format!("request head exceeds {MAX_HEAD} bytes"));
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body read error: {e}"))?;
    Ok(Some(Request {
        method,
        path,
        bearer,
        body,
    }))
}

fn write_response(mut stream: TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_line(response.status),
        response.content_type,
        response.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &str) -> Response {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let stopper = server.stopper();
        let t = std::thread::spawn(move || {
            server.run(|req| {
                Response::json(
                    200,
                    format!(
                        "{{\"method\":\"{}\",\"path\":\"{}\",\"body\":{},\"auth\":\"{}\"}}",
                        req.method,
                        req.path,
                        req.body.len(),
                        req.bearer.as_deref().unwrap_or("-"),
                    ),
                )
            });
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        stopper.stop(Duration::from_secs(2));
        t.join().unwrap();
        let (head, body) = out.split_once("\r\n\r\n").expect("has header/body split");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        Response::json(status, body.to_string())
    }

    #[test]
    fn parses_method_path_auth_and_body() {
        let resp = roundtrip(
            "POST /vms?pretty HTTP/1.1\r\nAuthorization: Bearer tok-1\r\nContent-Length: 4\r\n\r\nabcd",
        );
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"method\":\"POST\""), "{body}");
        assert!(body.contains("\"path\":\"/vms\""), "{body}");
        assert!(body.contains("\"body\":4"), "{body}");
        assert!(body.contains("\"auth\":\"tok-1\""), "{body}");
    }

    #[test]
    fn rejects_oversized_bodies() {
        let resp = roundtrip("POST /vms HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn rejects_endless_header_lines() {
        // One header line larger than the whole head budget: the server
        // must refuse with 400 instead of buffering it.
        let raw = format!(
            "GET /health HTTP/1.1\r\nX-Flood: {}\r\n\r\n",
            "a".repeat(MAX_HEAD + 1024)
        );
        let resp = roundtrip(&raw);
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("request head exceeds"), "{body}");
    }

    #[test]
    fn rejects_endless_header_streams() {
        // Many small headers summing past the budget are bounded too.
        let mut raw = String::from("GET /health HTTP/1.1\r\n");
        for i in 0..1024 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(64)));
        }
        raw.push_str("\r\n");
        let resp = roundtrip(&raw);
        assert_eq!(resp.status, 400);
    }
}
