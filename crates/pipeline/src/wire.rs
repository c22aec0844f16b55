//! The line protocol under the serve, worker and store daemons, and the
//! field codec of every line-oriented wire format in this crate.
//!
//! [`LineServer`] serves each connection on its own scoped thread through a
//! [`Handler`].  A stop never waits on a peer: connections waiting for
//! their next line are shut down at once, and a connection in the middle of
//! a line finishes that line and its reply, then closes.  The codec is
//! [`escape_wire`]/[`unescape`] for free-text fields plus [`Fields`], which
//! decodes a line of space-separated `key=value` tokens.
//!
//! Every socket of these protocols is opened here, by [`LineServer::run`]
//! on the daemon side and [`connect`] on the client side, and sends with
//! Nagle off: a line often leaves as two segments (`writeln!` writes its
//! newline apart), and with Nagle on the second would wait for the peer's
//! delayed ACK, about 40 ms per round trip.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::str::{FromStr, SplitWhitespace};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::PipelineError;

/// How long a connection may sit silent before its thread gives up on it.
/// Only reclaims threads of vanished peers: a stop closes idle peers at
/// once instead of waiting this out.
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// How long [`connect`] waits for a TCP connection to one resolved address.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Opens a client connection to `addr`: tries every address it resolves
/// to, each for at most [`CONNECT_TIMEOUT`], then turns Nagle off and
/// bounds every read by `read_timeout`.
pub(crate) fn connect(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<TcpStream> {
    let mut failure = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
    for sock_addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(read_timeout))?;
                return Ok(stream);
            }
            Err(e) => failure = e,
        }
    }
    Err(failure)
}

/// What a connection does after answering a line.
pub(crate) enum Flow {
    /// Read the next line.
    Continue,
    /// Flush the reply, then stop the whole server.
    Stop,
}

/// A daemon protocol: what a [`LineServer`] does with each connection.
pub(crate) trait Handler: Sync {
    /// Serves one connection: read lines with [`Conn::next_line`] or
    /// [`Conn::answer_lines`], reply by writing to [`Conn::out`].  Each
    /// reply is flushed once, when the next line is read or the connection
    /// ends.
    fn serve(&self, conn: &mut Conn<'_>);
}

/// A bound TCP listener serving line-delimited connections through `H`.
pub(crate) struct LineServer<H> {
    listener: TcpListener,
    handler: H,
    registry: Registry,
}

impl<H: Handler> LineServer<H> {
    /// Binds `addr` (port 0 picks an ephemeral port).
    pub(crate) fn bind(addr: &str, handler: H) -> Result<LineServer<H>, PipelineError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err(&format!("bind {addr}"), e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        let registry = Registry {
            addr,
            state: Mutex::default(),
        };
        Ok(LineServer {
            listener,
            handler,
            registry,
        })
    }

    /// The bound socket address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.registry.addr
    }

    pub(crate) fn handler(&self) -> &H {
        &self.handler
    }

    /// Accepts connections until a handler stops the server, then returns
    /// once every connection thread has ended.
    pub(crate) fn run(&self) -> Result<(), PipelineError> {
        std::thread::scope(|scope| loop {
            let accepted = self.listener.accept();
            if self.registry.lock().stopping {
                // The wake-up connection (or a late client).
                return Ok(());
            }
            let (stream, _) = match accepted {
                Ok(pair) => pair,
                Err(e) => {
                    self.registry.stop();
                    return Err(io_err("accept", e));
                }
            };
            scope.spawn(move || {
                let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
                let _ = stream.set_nodelay(true);
                let stream = Arc::new(stream);
                self.handler.serve(&mut Conn {
                    stream: &stream,
                    reader: BufReader::new(&*stream),
                    out: BufWriter::new(&*stream),
                    registry: &self.registry,
                });
            });
        })
    }
}

/// The stop flag of one [`LineServer`] and the connections it must close
/// when it stops: those waiting for their next line.
struct Registry {
    addr: SocketAddr,
    state: Mutex<RegistryState>,
}

#[derive(Default)]
struct RegistryState {
    stopping: bool,
    /// Idle connections, keyed by the address of their stream.
    idle: HashMap<usize, Arc<TcpStream>>,
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, RegistryState> {
        // Every critical section leaves the state consistent.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Marks `stream` as waiting for its next line (or not); `false` once
    /// the server is stopping, which ends the connection.
    fn set_idle(&self, stream: &Arc<TcpStream>, idle: bool) -> bool {
        let mut state = self.lock();
        let id = Arc::as_ptr(stream) as usize;
        if idle {
            state.idle.insert(id, Arc::clone(stream));
        } else {
            state.idle.remove(&id);
        }
        !state.stopping
    }

    /// Stops the server: shuts down every idle connection and wakes the
    /// acceptor (a self-connection is the portable nudge for a blocking
    /// `accept`).
    fn stop(&self) {
        {
            let mut state = self.lock();
            if std::mem::replace(&mut state.stopping, true) {
                return;
            }
            for stream in state.idle.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// One accepted connection, as its [`Handler`] sees it.
pub(crate) struct Conn<'s> {
    stream: &'s Arc<TcpStream>,
    reader: BufReader<&'s TcpStream>,
    /// The reply writer.
    pub(crate) out: BufWriter<&'s TcpStream>,
    registry: &'s Registry,
}

impl<'s> Conn<'s> {
    /// Flushes the pending reply, then reads the next non-blank line and
    /// returns it trimmed.  `None` when the peer hung up, the read failed
    /// or timed out, or the server is stopping.
    pub(crate) fn next_line(&mut self) -> Option<String> {
        self.out.flush().ok()?;
        loop {
            // A fresh buffer per line, as `BufRead::lines` does: an idle
            // connection keeps no copy of the largest line it has seen.
            let mut line = String::new();
            if !self.registry.set_idle(self.stream, true) {
                return None;
            }
            let read = self.reader.read_line(&mut line);
            if !self.registry.set_idle(self.stream, false) || !matches!(read, Ok(n) if n > 0) {
                return None;
            }
            line.truncate(line.trim_end().len());
            line.drain(..line.len() - line.trim_start().len());
            if !line.is_empty() {
                return Some(line);
            }
        }
    }

    /// Answers line after line with `answer` until the connection ends or
    /// `answer` returns [`Flow::Stop`].
    pub(crate) fn answer_lines(
        &mut self,
        mut answer: impl FnMut(&str, &mut BufWriter<&'s TcpStream>) -> Flow,
    ) {
        while let Some(line) = self.next_line() {
            if let Flow::Stop = answer(&line, &mut self.out) {
                return self.stop();
            }
        }
    }

    /// Flushes the pending reply, then stops the server.
    pub(crate) fn stop(&mut self) {
        let _ = self.out.flush();
        self.registry.stop();
    }
}

/// A [`LineServer`] running on its own thread.
pub(crate) struct Daemon {
    pub(crate) addr: SocketAddr,
    join: JoinHandle<Result<(), PipelineError>>,
}

impl Daemon {
    /// Runs `server` (listening on `addr`) on a background thread.
    pub(crate) fn spawn(
        addr: SocketAddr,
        server: impl FnOnce() -> Result<(), PipelineError> + Send + 'static,
    ) -> Daemon {
        let join = std::thread::spawn(server);
        Daemon { addr, join }
    }

    /// Waits for the server to exit and returns its result.
    pub(crate) fn join(self) -> Result<(), PipelineError> {
        self.join
            .join()
            .map_err(|_| PipelineError::exec("daemon thread panicked"))?
    }
}

pub(crate) fn io_err(context: &str, e: std::io::Error) -> PipelineError {
    PipelineError::exec(format!("{context}: {e}"))
}

/// The error for a line that does not decode, from `(line, reason)`.
pub(crate) type Bad = fn(&str, &str) -> PipelineError;

pub(crate) fn bad_wire(line: &str, reason: &str) -> PipelineError {
    PipelineError::exec(format!("malformed wire line {line:?}: {reason}"))
}

/// Escapes a string field for the single-line, space-tokenized wire format.
/// Decoders tokenize with `split_whitespace`, so EVERY Unicode whitespace
/// character must be escaped, not just ASCII space — the uncommon ones
/// round-trip as `\uXXXX` (whitespace is BMP-only).  Also used by the
/// artifact-store check lines ([`crate::cache`]), which reuse the same
/// single-line framing.
pub(crate) fn escape_wire(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_whitespace() => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverts [`escape_wire`]; `line` is the context for the error.
pub(crate) fn unescape(s: &str, line: &str) -> Result<String, PipelineError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| bad_wire(line, "bad \\u escape"))?;
                out.push(code);
            }
            _ => return Err(bad_wire(line, "bad escape sequence")),
        }
    }
    Ok(out)
}

/// A wire line being decoded token by token.  Iterating yields the raw
/// tokens; the other methods decode `key=value` fields and report failures
/// against the whole line through the protocol's [`Bad`] constructor.
pub(crate) struct Fields<'l> {
    line: &'l str,
    tokens: SplitWhitespace<'l>,
    bad: Bad,
}

impl<'l> Fields<'l> {
    pub(crate) fn new(line: &'l str, bad: Bad) -> Fields<'l> {
        Fields {
            line,
            tokens: line.split_whitespace(),
            bad,
        }
    }

    /// The error for this line, with `reason`.
    pub(crate) fn bad(&self, reason: &str) -> PipelineError {
        (self.bad)(self.line, reason)
    }

    /// The next token's value, which must be spelled `key=<value>`.
    pub(crate) fn field(&mut self, key: &str) -> Result<&'l str, PipelineError> {
        let token = self
            .tokens
            .next()
            .ok_or_else(|| self.bad(&format!("missing field {key:?}")))?;
        token
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| self.bad(&format!("expected field {key:?}, got {token:?}")))
    }

    /// The next token's value, parsed.
    pub(crate) fn parse<T: FromStr>(&mut self, key: &str) -> Result<T, PipelineError> {
        let raw = self.field(key)?;
        self.value(raw, key)
    }

    /// The next token's value, a hexadecimal `u64`.
    pub(crate) fn hex(&mut self, key: &str) -> Result<u64, PipelineError> {
        let raw = self.field(key)?;
        u64::from_str_radix(raw, 16).map_err(|_| self.bad(&format!("bad {key} {raw:?}")))
    }

    /// The next token's value, unescaped.
    pub(crate) fn text(&mut self, key: &str) -> Result<String, PipelineError> {
        unescape(self.field(key)?, self.line)
    }

    /// Parses a raw value (a field or part of one) named `what`.
    pub(crate) fn value<T: FromStr>(&self, raw: &str, what: &str) -> Result<T, PipelineError> {
        raw.parse()
            .map_err(|_| self.bad(&format!("bad {what} {raw:?}")))
    }

    /// The remaining tokens as `(key, value)` pairs, for free-order fields.
    pub(crate) fn pairs(&mut self) -> Result<Vec<(&'l str, &'l str)>, PipelineError> {
        let mut pairs = Vec::new();
        while let Some(token) = self.tokens.next() {
            let pair = token
                .split_once('=')
                .ok_or_else(|| self.bad(&format!("field {token:?} wants key=value")))?;
            pairs.push(pair);
        }
        Ok(pairs)
    }

    /// Succeeds when no token is left.
    pub(crate) fn end(mut self) -> Result<(), PipelineError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(extra) => Err(self.bad(&format!("trailing token {extra:?}"))),
        }
    }
}

impl<'l> Iterator for Fields<'l> {
    type Item = &'l str;

    fn next(&mut self) -> Option<&'l str> {
        self.tokens.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ServeServer, ServerConfig, WorkerConfig, WorkerServer};
    use crate::store::{MemoryStore, StoreServer};
    use std::sync::mpsc;
    use std::time::Instant;

    /// Starts one daemon with an idle peer attached, sends the in-band
    /// `shutdown` and returns the peer (kept open while the daemon stops)
    /// with the daemon's join.
    type Case = fn() -> (
        Box<dyn Send>,
        Box<dyn FnOnce() -> Result<(), PipelineError> + Send>,
    );

    #[test]
    fn shutdown_closes_idle_peers_instead_of_waiting_for_them() {
        let cases: [(&str, Case); 3] = [
            ("store", || {
                let handle =
                    StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new())).unwrap();
                let idle = handle.client();
                idle.ping().unwrap();
                handle.client().shutdown_daemon().unwrap();
                (Box::new(idle), Box::new(move || handle.join()))
            }),
            ("serve", || {
                let handle = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
                let idle = TcpStream::connect(handle.addr()).unwrap();
                handle.client().shutdown().unwrap();
                (Box::new(idle), Box::new(move || handle.join()))
            }),
            ("worker", || {
                let handle = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();
                let idle = TcpStream::connect(handle.addr()).unwrap();
                WorkerServer::shutdown_at(&handle.addr().to_string()).unwrap();
                (Box::new(idle), Box::new(move || handle.join()))
            }),
        ];
        for (daemon, start) in cases {
            let (_idle, join) = start();
            let stopped = Instant::now();
            let (tx, rx) = mpsc::channel();
            let waiter = std::thread::spawn(move || tx.send(join().map_err(|e| e.to_string())));
            match rx.recv_timeout(Duration::from_secs(3)) {
                Ok(result) => assert_eq!(result, Ok(()), "{daemon} daemon exit"),
                Err(_) => panic!(
                    "{daemon} daemon still running {:?} after shutdown",
                    stopped.elapsed()
                ),
            }
            waiter.join().unwrap().unwrap();
        }
    }
}
