//! Keep-alive HTTP/1.1 load generator (the engine's own `client` opens a
//! connection per request): one persistent connection per client thread,
//! `Content-Length` and chunked bodies read to the last byte, a closed loop
//! and a due-time open loop, and one [`Record`] per request.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::oracle::{digest_body, Format, Sig};

/// An operation that takes longer than this is aborted and counted failed.
pub const OP_BUDGET: Duration = Duration::from_secs(30);

/// One persistent connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_BUDGET))?;
        stream.set_write_timeout(Some(OP_BUDGET))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: Vec::new(),
        })
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        std::str::from_utf8(&self.line)
            .map(|l| l.trim_end_matches(['\r', '\n']))
            .map_err(|_| bad("non-UTF-8 response head"))
    }

    /// Sends `request` (a complete serialized request) and reads the whole
    /// response, leaving the decoded body in `body`. Returns the status.
    pub fn roundtrip(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.reader.get_mut().write_all(request)?;
        body.clear();
        let status: u16 = self
            .read_line()?
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad("malformed header line"));
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad("invalid Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.to_ascii_lowercase().contains("chunked");
            }
        }
        if chunked {
            loop {
                let size = usize::from_str_radix(
                    self.read_line()?.split(';').next().unwrap_or("").trim(),
                    16,
                )
                .map_err(|_| bad("invalid chunk size"))?;
                if size == 0 {
                    // Trailer fields, then the blank line ending the body.
                    while !self.read_line()?.is_empty() {}
                    break;
                }
                let start = body.len();
                body.resize(start + size, 0);
                self.reader.read_exact(&mut body[start..])?;
                if !self.read_line()?.is_empty() {
                    return Err(bad("chunk not followed by CRLF"));
                }
            }
        } else if let Some(n) = length {
            body.resize(n, 0);
            self.reader.read_exact(body)?;
        } else if status != 204 && status != 304 {
            return Err(bad("response has neither length nor chunking"));
        }
        Ok(status)
    }
}

pub fn query_request(sparql: &str, format: Format) -> Vec<u8> {
    format!(
        "POST /query HTTP/1.1\r\nHost: gauntlet\r\nAccept: {}\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{sparql}",
        format.accept(),
        sparql.len()
    )
    .into_bytes()
}

pub fn update_request(sparql: &str) -> Vec<u8> {
    format!(
        "POST /update HTTP/1.1\r\nHost: gauntlet\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    )
    .into_bytes()
}

pub const METRICS_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: gauntlet\r\n\r\n";

/// One issued request. Times are seconds since the phase started; a closed
/// loop has no schedule, so there `due` equals `sent`.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub class: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub status: u16,
    pub bytes: usize,
    /// Status, body signature and budget all as expected.
    pub ok: bool,
}

impl Record {
    /// Latency as the caller sees it: from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// What a correct response looks like; judged after `done` is stamped.
#[derive(Clone, Copy)]
pub enum Expect {
    /// `200` with a body of this signature in this format.
    Body(Format, Sig),
    /// `204`, as `/update` answers.
    NoContent,
}

impl Expect {
    fn holds(self, status: u16, body: &[u8]) -> bool {
        match self {
            Expect::Body(format, sig) => status == 200 && digest_body(format, body) == sig,
            Expect::NoContent => status == 204,
        }
    }
}

/// What a client thread issues next.
pub struct Issue {
    pub class: usize,
    pub request: Vec<u8>,
    pub expect: Expect,
}

/// When a client thread sends.
pub enum Pace {
    /// Next request as soon as the previous response is complete. The
    /// thread never sleeps: with think time between requests both ends went
    /// idle, and identical runs then differed by 15-40 % where back-to-back
    /// requests differ by 3-7 %.
    Closed,
    /// Request `i` is due `i * interval` after the phase start, whether or
    /// not earlier ones have completed.
    Open { interval: Duration },
}

/// Drives one connection until `next` returns `None` or `until` passes,
/// whichever is first. An I/O error or timeout fails that operation and
/// reconnects.
pub fn drive(
    addr: SocketAddr,
    start: Instant,
    until: Instant,
    pace: Pace,
    mut next: impl FnMut(usize) -> Option<Issue>,
) -> io::Result<Vec<Record>> {
    let mut conn = Conn::connect(addr)?;
    let mut body = Vec::new();
    let mut records = Vec::new();
    for i in 0.. {
        let schedule = match pace {
            Pace::Closed => None,
            Pace::Open { interval } => Some(start + interval * i as u32),
        };
        if schedule.unwrap_or_else(Instant::now) >= until {
            break;
        }
        let Some(issue) = next(i) else { break };
        if let Some(wait) = schedule.and_then(|due| due.checked_duration_since(Instant::now())) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let due = schedule.unwrap_or(sent);
        let outcome = conn.roundtrip(&issue.request, &mut body);
        let done = Instant::now();
        let (status, ok) = match outcome {
            Ok(status) => (
                status,
                done - sent <= OP_BUDGET && issue.expect.holds(status, &body),
            ),
            Err(_) => {
                conn = Conn::connect(addr)?;
                (0, false)
            }
        };
        records.push(Record {
            class: issue.class,
            due: (due - start).as_secs_f64(),
            sent: (sent - start).as_secs_f64(),
            done: (done - start).as_secs_f64(),
            status,
            bytes: body.len(),
            ok,
        });
    }
    Ok(records)
}
