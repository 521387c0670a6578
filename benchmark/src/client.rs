//! The load generator: a blocking HTTP/1.1 client over keep-alive
//! loopback connections and a closed loop of client threads. Standard
//! library only; it knows nothing about the program beyond the wire
//! format of `POST /explain`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Socket read/write timeout: well past the server's default deadline.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One HTTP response.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// The `X-Cfx-Trace` header, when the server echoed one.
    pub trace: Option<String>,
}

/// Renders `POST /explain` for one row. Values are written as the f64
/// image of each f32, so the server parses back exactly the same bits.
/// With `traced`, the request opts into the `X-Cfx-Trace` echo.
pub fn explain_request(row: &[f32], traced: bool) -> Vec<u8> {
    let mut body = String::with_capacity(16 + row.len() * 12);
    body.push_str("{\"rows\":[[");
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            body.push(',');
        }
        body.push_str(&(*v as f64).to_string());
    }
    body.push_str("]]}");
    let trace = if traced { "X-Cfx-Trace: 1\r\n" } else { "" };
    format!(
        "POST /explain HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n{trace}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders `GET path`.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Opens a keep-alive connection.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

/// Sends one request and reads one full response.
pub fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> std::io::Result<Response> {
    stream.write_all(request)?;
    read_response(stream)
}

/// One request over a fresh connection (scrapes and warm-ups).
pub fn oneshot(addr: SocketAddr, request: &[u8]) -> std::io::Result<Response> {
    roundtrip(&mut connect(addr)?, request)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
            let status = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad status line"))?;
            let header = |name: &str| {
                head.lines().skip(1).find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.trim()
                        .eq_ignore_ascii_case(name)
                        .then(|| v.trim().to_string())
                })
            };
            let len: usize = header("content-length")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("missing content-length"))?;
            let trace = header("x-cfx-trace");
            let start = end + 4;
            while buf.len() < start + len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(bad("EOF mid-body"));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            return Ok(Response {
                status,
                body: buf[start..start + len].to_vec(),
                trace,
            });
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("EOF before head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One request of a closed loop, as the client saw it.
pub struct Sample {
    /// Which input (the workload's row index).
    pub id: usize,
    /// Client-observed latency: request write to last body byte.
    pub ms: f64,
    /// The response, or `None` on a transport error.
    pub response: Option<Response>,
}

impl Sample {
    /// The body of a 200 answer. Anything else — another status, or a
    /// transport error — is a failed attempt.
    pub fn ok_body(&self) -> Option<&[u8]> {
        self.response
            .as_ref()
            .filter(|r| r.status == 200)
            .map(|r| r.body.as_slice())
    }
}

/// Runs `clients` threads, each over its own keep-alive connection, until
/// `until`: a client sends its next request only after the previous one
/// completed. `next` hands out (input id, request bytes) and may end the
/// loop early by returning `None`; `record` turns every sample, as it
/// completes and outside the timed window, into what the caller keeps.
/// Returns the records of all clients.
pub fn closed_loop<T: Send>(
    addr: SocketAddr,
    clients: usize,
    until: Instant,
    next: &(dyn Fn() -> Option<(usize, Vec<u8>)> + Sync),
    record: &(dyn Fn(Sample) -> T + Sync),
) -> Vec<T> {
    let kept = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut conn: Option<TcpStream> = None;
                while Instant::now() < until {
                    let Some((id, request)) = next() else { break };
                    let stream = match conn.take() {
                        Some(s) => Ok(s),
                        None => connect(addr),
                    };
                    let t0 = Instant::now();
                    let result = stream.and_then(|mut s| {
                        let r = roundtrip(&mut s, &request)?;
                        conn = Some(s);
                        Ok(r)
                    });
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    mine.push(record(Sample {
                        id,
                        ms,
                        response: result.ok(),
                    }));
                }
                kept.lock()
                    .expect("no client panicked holding the lock")
                    .extend(mine);
            });
        }
    });
    kept.into_inner()
        .expect("no client panicked holding the lock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;
    use std::net::TcpListener;

    /// Reads one request (head plus Content-Length body) off `s`.
    fn read_request(s: &mut TcpStream) -> bool {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            match s.read(&mut byte) {
                Ok(1) => buf.push(byte[0]),
                _ => return false,
            }
        }
        let head = String::from_utf8_lossy(&buf).to_ascii_lowercase();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .map_or(0, |v| v.trim().parse().unwrap_or(0));
        s.read_exact(&mut vec![0u8; len]).is_ok()
    }

    /// A loopback server answering each request with the next scripted
    /// status (`None` drops the connection unanswered); it ends after
    /// the last entry.
    fn scripted_server(script: Vec<Option<u16>>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let mut script = script.into_iter().peekable();
            while script.peek().is_some() {
                let (mut s, _) = listener.accept().expect("accept");
                while read_request(&mut s) {
                    let Some(Some(status)) = script.next() else {
                        break;
                    };
                    let reply = format!("HTTP/1.1 {status} X\r\nContent-Length: 2\r\n\r\n{{}}");
                    s.write_all(reply.as_bytes()).expect("reply");
                    if script.peek().is_none() {
                        return;
                    }
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn non_200_answers_and_transport_errors_count_against_attempts() {
        let script = vec![Some(200), Some(429), Some(500), Some(503), None, Some(200)];
        let (addr, server) = scripted_server(script);
        let sent = Mutex::new(0);
        let next = || {
            let mut n = sent.lock().expect("counter lock");
            *n += 1;
            (*n <= 6).then(|| (*n, explain_request(&[0.5, 1.0], false)))
        };
        let until = Instant::now() + Duration::from_secs(30);
        let samples = closed_loop(addr, 1, until, &next, &|s| s);
        server.join().expect("scripted server");
        let mut tally = Tally::default();
        for s in &samples {
            match s.ok_body() {
                Some(_) => tally.ok(s.ms),
                None => tally.fail(),
            }
        }
        assert_eq!((tally.attempted, tally.failed), (6, 4));
        assert!(
            samples[4].response.is_none(),
            "the dropped connection is a transport error"
        );
    }

    #[test]
    fn explain_requests_carry_exact_f32_values() {
        let row = [0.1f32, 1.0 / 3.0, 7.0e-8];
        let req = String::from_utf8(explain_request(&row, true)).expect("ASCII request");
        assert!(req.contains("X-Cfx-Trace: 1\r\n"));
        let body = &req[req.find("\r\n\r\n").expect("head ends") + 4..];
        let cells = body
            .trim_start_matches("{\"rows\":[[")
            .trim_end_matches("]]}");
        let parsed: Vec<f32> = cells
            .split(',')
            .map(|c| c.parse::<f64>().expect("number") as f32)
            .collect();
        assert_eq!(parsed, row);
    }
}
