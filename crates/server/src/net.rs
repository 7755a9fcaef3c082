//! Shared line-protocol plumbing for `tbaad` and `tbaa-router`.
//!
//! Both the daemon and the router speak the same newline-delimited JSON
//! protocol, so the transport layer lives here once: a duplex [`Conn`]
//! over TCP or a Unix-domain socket, a timeout-surviving [`LineReader`],
//! a [`DualListener`] over both listener families, and the connection
//! model [`serve`] parameterized by a [`LineService`]:
//!
//! * one blocking accept thread per listener, so a connection is taken
//!   the moment it arrives;
//! * one thread per connection, up to a cap of
//!   [`CONNECTIONS_PER_WORKER`] × `workers`; a connection past the cap
//!   gets one `overloaded` error line and is closed;
//! * `workers` compute permits, taken around each batch of pipelined
//!   requests, so an idle connection holds a parked thread and not a
//!   worker;
//! * a [`Drain`] switch: triggering it wakes each accept thread with a
//!   self-connect, and after `drain_grace` the read half of every
//!   connection still open is shut down, which ends its blocked read.
//!
//! The bench crate re-exports these types as its wire harness, so the
//! load generator exercises the exact I/O code the daemon runs.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::Duration;

use crate::proto::error_reply;

/// Most pipelined lines served per batch before replies are flushed.
const MAX_BATCH: usize = 64;
/// Open connections allowed per worker permit before new ones are
/// refused with `overloaded` (1024 at the default 16 workers).
pub const CONNECTIONS_PER_WORKER: usize = 64;
/// Longest request line [`serve`] reads. A longer one gets a
/// `line_too_long` error line and the connection is closed.
pub const MAX_LINE_BYTES: usize = 4 << 20;
// The journal logs each admitted `load` line inside a JSON string, where
// escaping can double it, and recovery rejects records over
// `MAX_PAYLOAD` as torn — dropping that record and every later one.
const _: () = assert!(MAX_LINE_BYTES <= crate::journal::MAX_PAYLOAD / 2);
/// How long an accept thread waits after a failed accept (out of file
/// descriptors, say) before it tries again, instead of spinning.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// One duplex peer connection (TCP or Unix).
pub enum Conn {
    /// A TCP stream (nodelay is set by [`Conn::connect_tcp`]).
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connects over TCP with `TCP_NODELAY` (latency beats batching for
    /// a line protocol).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Conn::Tcp(stream))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Conn> {
        Ok(Conn::Unix(UnixStream::connect(path)?))
    }

    /// Clones the underlying socket (for split read/write halves).
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Sets the read timeout (None = block forever).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Sets the write timeout (None = block forever).
    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Writes one request line (appending the newline) and flushes.
    pub fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.write_all(line.as_bytes())?;
        self.write_all(b"\n")?;
        self.flush()
    }

    /// Shuts the read half down on every clone of this socket: a read
    /// blocked on it returns end-of-file.
    fn shutdown_read(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Read),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Read),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// What one [`LineReader::tick`] produced.
pub enum Tick {
    /// A complete line (without the newline).
    Line(String),
    /// No complete line yet (timeout); `true` if a partial line is pending.
    Idle(bool),
    /// The pending line passed the reader's cap before its newline
    /// arrived; its bytes so far are discarded. Only the request readers
    /// of [`serve`] have a cap (of [`MAX_LINE_BYTES`]).
    TooLong,
    /// Peer closed the connection.
    Eof,
}

/// A buffered line reader that survives read timeouts: partial bytes
/// accumulate across [`tick`](LineReader::tick)s instead of being lost.
pub struct LineReader {
    reader: BufReader<Conn>,
    pending: Vec<u8>,
    max_line: usize,
}

impl LineReader {
    /// Wraps a connection (typically the read half of a
    /// [`Conn::try_clone`] pair). Lines may be any length.
    pub fn new(conn: Conn) -> LineReader {
        LineReader::with_max_line(conn, usize::MAX)
    }

    /// Like [`LineReader::new`], but [`tick`](LineReader::tick) reports
    /// [`Tick::TooLong`] once a line passes `max_line` bytes, so a peer
    /// that never sends a newline cannot grow the buffer without limit.
    fn with_max_line(conn: Conn, max_line: usize) -> LineReader {
        LineReader {
            reader: BufReader::new(conn),
            pending: Vec::new(),
            max_line,
        }
    }

    /// The underlying connection (e.g. to adjust timeouts).
    pub fn get_ref(&self) -> &Conn {
        self.reader.get_ref()
    }

    /// Bytes the pending line may still grow by, its newline included.
    fn room(&self) -> usize {
        self.max_line
            .saturating_sub(self.pending.len())
            .saturating_add(1)
    }

    /// One read attempt, honoring the socket's read timeout.
    ///
    /// A line flushed by EOF without a trailing newline is still served
    /// as a [`Tick::Line`] — the serve loop's lenient behavior for
    /// half-closed clients.
    pub fn tick(&mut self) -> std::io::Result<Tick> {
        // Read at most one byte past the cap: enough to tell an
        // over-long line, never more of it.
        let room = self.room() as u64;
        match (&mut self.reader)
            .take(room)
            .read_until(b'\n', &mut self.pending)
        {
            Ok(0) => {
                if self.pending.is_empty() {
                    Ok(Tick::Eof)
                } else {
                    // EOF flushed a final unterminated line; serve it.
                    let line = String::from_utf8_lossy(&self.pending).into_owned();
                    self.pending.clear();
                    Ok(Tick::Line(line))
                }
            }
            Ok(_) => {
                if self.pending.last() == Some(&b'\n') {
                    self.pending.pop();
                    if self.pending.last() == Some(&b'\r') {
                        self.pending.pop();
                    }
                } else if self.pending.len() > self.max_line {
                    self.pending.clear();
                    return Ok(Tick::TooLong);
                }
                // Otherwise EOF (rather than the delimiter or the cap)
                // ended the read — the same "final unterminated line"
                // case as above, served leniently.
                let line = String::from_utf8_lossy(&self.pending).into_owned();
                self.pending.clear();
                Ok(Tick::Line(line))
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // `read_until` keeps partial bytes in `pending` across ticks.
                Ok(Tick::Idle(!self.pending.is_empty()))
            }
            Err(e) => Err(e),
        }
    }

    /// Whether a complete line within the cap is already sitting in the
    /// read buffer — answerable without touching the socket, so batch
    /// collection never blocks on a peer that has nothing more to say.
    pub fn buffered_line(&self) -> bool {
        let buffered = self.reader.buffer();
        buffered[..buffered.len().min(self.room())].contains(&b'\n')
    }

    /// Blocks until a full line arrives, looping over timeouts.
    /// EOF is an `UnexpectedEof` error.
    pub fn read_line_blocking(&mut self) -> std::io::Result<String> {
        loop {
            match self.tick()? {
                Tick::Line(line) => return Ok(line),
                Tick::Idle(_) => continue,
                Tick::TooLong => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "line longer than the reader's cap",
                    ))
                }
                Tick::Eof => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    ))
                }
            }
        }
    }

    /// Reads one *reply* line with strict framing: EOF — even with a
    /// partial line buffered — and read timeouts are errors, never data.
    /// This is what a proxy must use for backend replies: a half-written
    /// reply from a dying backend must fail the exchange (and trigger a
    /// retry), not be forwarded as if complete. The line length is not
    /// capped.
    pub fn read_line_strict(&mut self) -> std::io::Result<String> {
        loop {
            match self.reader.read_until(b'\n', &mut self.pending) {
                Ok(0) => {
                    let what = if self.pending.is_empty() {
                        "peer closed before replying"
                    } else {
                        "peer closed mid-reply"
                    };
                    self.pending.clear();
                    return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what));
                }
                Ok(_) if self.pending.last() == Some(&b'\n') => {
                    self.pending.pop();
                    if self.pending.last() == Some(&b'\r') {
                        self.pending.pop();
                    }
                    let line = String::from_utf8_lossy(&self.pending).into_owned();
                    self.pending.clear();
                    return Ok(line);
                }
                // read_until returns early only on delimiter or EOF; a
                // short read without either means EOF with a partial.
                Ok(_) => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for reply",
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The switch that stops a [`serve`] loop, shared by the service (its
/// `shutdown` verb) and the listener it was made for.
pub struct Drain {
    flag: AtomicBool,
    /// Where the listener's accept threads can be reached (the Unix
    /// socket path is also the file [`DualListener::cleanup`] removes).
    tcp: SocketAddr,
    #[cfg(unix)]
    unix: Option<std::path::PathBuf>,
}

impl Drain {
    /// Whether the drain has been triggered.
    pub fn is_draining(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Starts the drain: sets the flag and wakes each accept thread with
    /// a self-connect, which it drops unserved. Idempotent.
    pub fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        // A failed connect means the listener is already gone.
        let _ = TcpStream::connect(self.tcp);
        #[cfg(unix)]
        if let Some(path) = &self.unix {
            let _ = UnixStream::connect(path);
        }
    }
}

/// A TCP listener plus, on unix, an optional Unix-domain listener;
/// [`serve`] gives each one a blocking accept thread.
pub struct DualListener {
    tcp: TcpListener,
    local_addr: SocketAddr,
    #[cfg(unix)]
    unix: Option<UnixListener>,
    drain: Arc<Drain>,
}

impl DualListener {
    /// Binds `addr` (TCP; port 0 picks an ephemeral port) and, when
    /// given, `unix_path` (a stale socket file from a dead process is
    /// removed first).
    pub fn bind(addr: &str, unix_path: Option<&std::path::Path>) -> std::io::Result<DualListener> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let tcp = TcpListener::bind(&addrs[..])?;
        let local_addr = tcp.local_addr()?;
        // A wildcard bind is reachable on loopback.
        let mut wake_tcp = local_addr;
        if wake_tcp.ip().is_unspecified() {
            wake_tcp.set_ip(if wake_tcp.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        #[cfg(unix)]
        let unix = match unix_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        #[cfg(not(unix))]
        let _ = unix_path;
        Ok(DualListener {
            tcp,
            local_addr,
            #[cfg(unix)]
            unix,
            drain: Arc::new(Drain {
                flag: AtomicBool::new(false),
                tcp: wake_tcp,
                #[cfg(unix)]
                unix: unix_path.map(|p| p.to_path_buf()),
            }),
        })
    }

    /// The bound TCP address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The switch that stops [`serve`] on this listener.
    pub fn drain(&self) -> Arc<Drain> {
        self.drain.clone()
    }

    /// Removes the Unix socket file, if any (idempotent).
    pub fn cleanup(&self) {
        #[cfg(unix)]
        if let Some(path) = &self.drain.unix {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A line-protocol service plugged into [`serve`]: turns request lines
/// into reply lines. Implementations must be callable from many
/// connection threads at once.
pub trait LineService: Send + Sync + 'static {
    /// Handles one request line, appending the reply line (no newline)
    /// to `out`. The buffer is owned by the connection thread and reused
    /// across requests, so steady-state replies allocate nothing.
    fn handle(&self, line: &str, out: &mut String);

    /// Handles a batch of pipelined request lines in order, appending
    /// one newline-terminated reply per line to `out`. The default
    /// serves them one at a time; a proxy can override this to forward
    /// same-destination runs in one exchange.
    fn handle_batch(&self, lines: &[String], out: &mut String) {
        for l in lines {
            self.handle(l, out);
            out.push('\n');
        }
    }

    /// Called when a connection thread starts serving a connection.
    fn on_connect(&self) {}

    /// Called when a connection thread is done with its connection (any
    /// exit path).
    fn on_disconnect(&self) {}
}

/// Timeouts and sizing for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Requests executing at once: the permits a connection takes around
    /// each batch. Open connections are capped at
    /// [`CONNECTIONS_PER_WORKER`] times this.
    pub workers: usize,
    /// Per-request I/O timeout: a peer that sends nothing for this long
    /// in the middle of a line, or refuses its reply for this long, is
    /// disconnected.
    pub io_timeout: Duration,
    /// How long a drain lets open connections finish on their own before
    /// their reads are shut down.
    pub drain_grace: Duration,
}

/// Serves `listener` until its [`Drain`] is triggered, then drains:
/// stops accepting, gives open connections `drain_grace` to finish, shuts
/// the read half of the rest down, waits for every connection thread and
/// removes the Unix socket file.
pub fn serve(
    listener: DualListener,
    opts: ServeOptions,
    service: Arc<dyn LineService>,
) -> std::io::Result<()> {
    let workers = opts.workers.max(1);
    let shared = Shared {
        service,
        opts,
        permits: Permits::new(workers),
        live: Live::new(workers.saturating_mul(CONNECTIONS_PER_WORKER)),
    };
    let shared = &shared;
    let drain = &*listener.drain;
    let served = std::thread::scope(|s| -> std::io::Result<()> {
        #[cfg(unix)]
        let unix_accept = match &listener.unix {
            Some(unix) => Some(
                std::thread::Builder::new()
                    .name("accept-unix".into())
                    .spawn_scoped(s, move || {
                        shared.accept_loop(s, drain, || unix.accept().map(|(c, _)| Conn::Unix(c)))
                    })?,
            ),
            None => None,
        };
        // This thread accepts TCP.
        shared.accept_loop(s, drain, || {
            listener.tcp.accept().map(|(c, _)| Conn::Tcp(c))
        });
        #[cfg(unix)]
        let unix_panicked = unix_accept.is_some_and(|t| t.join().is_err());
        shared.live.reap(opts.drain_grace);
        #[cfg(unix)]
        if unix_panicked {
            return Err(std::io::Error::other(
                "the Unix-socket accept thread panicked",
            ));
        }
        Ok(())
    });
    listener.cleanup();
    served
}

/// What the threads of one [`serve`] call share.
struct Shared {
    service: Arc<dyn LineService>,
    opts: ServeOptions,
    permits: Permits,
    live: Live,
}

impl Shared {
    /// Accepts until the drain is triggered, starting one connection
    /// thread per connection.
    fn accept_loop<'s>(
        &'s self,
        s: &'s Scope<'s, '_>,
        drain: &Drain,
        accept: impl Fn() -> std::io::Result<Conn>,
    ) {
        loop {
            let accepted = accept();
            // The drain's wake-up connect lands here; it, and any client
            // that arrives during the drain, is dropped unserved.
            if drain.is_draining() {
                return;
            }
            match accepted {
                Ok(conn) => self.admit(s, conn),
                Err(_) => std::thread::sleep(ACCEPT_RETRY),
            }
        }
    }

    /// Starts a thread serving `conn`, or refuses it past the cap.
    fn admit<'s>(&'s self, s: &'s Scope<'s, '_>, conn: Conn) {
        let Some(id) = self.live.register(&conn) else {
            return refuse(conn, self.live.cap);
        };
        let spawned = std::thread::Builder::new()
            .name("line-conn".into())
            .spawn_scoped(s, move || {
                // A panic ends this connection only.
                let _ = catch_unwind(AssertUnwindSafe(|| self.serve_connection(conn)));
                self.live.release(id);
            });
        if spawned.is_err() {
            if let Some(sock) = self.live.release(id) {
                refuse(sock, self.live.cap);
            }
        }
    }

    fn serve_connection(&self, conn: Conn) {
        let service = &*self.service;
        service.on_connect();
        // Balance the disconnect hook on every exit path (early returns too).
        struct DisconnectGuard<'a>(&'a dyn LineService);
        impl Drop for DisconnectGuard<'_> {
            fn drop(&mut self) {
                self.0.on_disconnect();
            }
        }
        let _guard = DisconnectGuard(service);

        // A read that times out with half a line buffered ends the
        // connection; an idle one just waits again.
        let _ = conn.set_read_timeout(Some(self.opts.io_timeout));
        let _ = conn.set_write_timeout(Some(self.opts.io_timeout));
        let Ok(read_half) = conn.try_clone() else {
            return;
        };
        let mut reader = LineReader::with_max_line(read_half, MAX_LINE_BYTES);
        let mut writer = conn;
        // Reused across iterations: the batch vector and the reply buffer
        // reach steady-state capacity once, then the loop stops allocating.
        let mut batch: Vec<String> = Vec::new();
        let mut out = String::new();

        loop {
            batch.clear();
            out.clear();
            match reader.tick() {
                Ok(Tick::Line(line)) => {
                    if !line.trim().is_empty() {
                        batch.push(line);
                    }
                }
                Ok(Tick::Idle(false)) => continue,
                Ok(Tick::TooLong) => {
                    let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    error_reply("line_too_long", &message).encode_into(&mut out);
                    out.push('\n');
                    let _ = writer.write_all(out.as_bytes());
                    return;
                }
                // Stalled mid-line for `io_timeout`, or gone.
                Ok(Tick::Idle(true)) | Ok(Tick::Eof) | Err(_) => return,
            }
            // Collect whatever the peer has already pipelined into one
            // batch; `buffered_line` never touches the socket, so this
            // adds no latency for one-line-at-a-time clients.
            while batch.len() < MAX_BATCH && reader.buffered_line() {
                match reader.tick() {
                    Ok(Tick::Line(l)) => {
                        if !l.trim().is_empty() {
                            batch.push(l);
                        }
                    }
                    _ => break,
                }
            }
            if batch.is_empty() {
                continue;
            }
            // Past the drain's grace window nothing more is served, even
            // under continuous traffic: a killed thread-backed backend
            // must actually stop answering.
            if self.live.reaped.load(Ordering::SeqCst) {
                return;
            }
            {
                let _permit = self.permits.acquire();
                service.handle_batch(&batch, &mut out);
            }
            if writer
                .write_all(out.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                return; // peer gone mid-reply
            }
        }
    }
}

/// Writes one `overloaded` error line to a connection past the cap.
fn refuse(mut conn: Conn, cap: usize) {
    let message = format!("connection limit of {cap} reached; retry later");
    let mut line = error_reply("overloaded", &message).encode();
    line.push('\n');
    let _ = conn.write_all(line.as_bytes());
}

/// The connections one [`serve`] call is serving: a clone of each
/// socket, so the drain can shut its read half down, under a cap.
struct Live {
    cap: usize,
    set: Mutex<LiveSet>,
    /// Signalled when the set empties while a drain waits on it.
    emptied: Condvar,
    /// Set once the drain has shut the reads down.
    reaped: AtomicBool,
}

#[derive(Default)]
struct LiveSet {
    next_id: u64,
    socks: HashMap<u64, Conn>,
    /// A drain is waiting for the set to empty.
    draining: bool,
}

impl Live {
    fn new(cap: usize) -> Live {
        Live {
            cap,
            set: Mutex::new(LiveSet::default()),
            emptied: Condvar::new(),
            reaped: AtomicBool::new(false),
        }
    }

    /// Every update leaves the set valid, so a panic elsewhere while the
    /// lock was held cannot have broken it.
    fn lock(&self) -> MutexGuard<'_, LiveSet> {
        self.set.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `conn` as live; `None` at the cap (or if its socket cannot
    /// be cloned).
    fn register(&self, conn: &Conn) -> Option<u64> {
        let mut set = self.lock();
        if set.socks.len() >= self.cap {
            return None;
        }
        let sock = conn.try_clone().ok()?;
        let id = set.next_id;
        set.next_id += 1;
        set.socks.insert(id, sock);
        Some(id)
    }

    /// Forgets connection `id`, returning its socket clone.
    fn release(&self, id: u64) -> Option<Conn> {
        let mut set = self.lock();
        let sock = set.socks.remove(&id);
        if set.draining && set.socks.is_empty() {
            self.emptied.notify_all();
        }
        sock
    }

    /// Waits until every connection has closed or `grace` has passed,
    /// then shuts down the read half of those still open.
    fn reap(&self, grace: Duration) {
        let mut set = self.lock();
        set.draining = true;
        let (set, _) = self
            .emptied
            .wait_timeout_while(set, grace, |set| !set.socks.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        self.reaped.store(true, Ordering::SeqCst);
        for sock in set.socks.values() {
            let _ = sock.shutdown_read();
        }
    }
}

/// A counting semaphore of compute permits. An uncontended acquire or
/// release is one atomic read-modify-write: only a release that finds a
/// waiter takes the lock and notifies, because `Condvar::notify_one`
/// makes a futex call even when nobody waits.
struct Permits {
    free: AtomicUsize,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    freed: Condvar,
}

/// A held permit, returned on drop.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn new(n: usize) -> Permits {
        Permits {
            free: AtomicUsize::new(n),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            freed: Condvar::new(),
        }
    }

    fn try_take(&self) -> bool {
        self.free
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn acquire(&self) -> Permit<'_> {
        if !self.try_take() {
            // Registering as a waiter under the lock before retrying
            // pairs with the release below: either the retry sees the
            // freed permit, or the release sees the waiter and notifies
            // only after this thread is parked.
            let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.waiters.fetch_add(1, Ordering::SeqCst);
            while !self.try_take() {
                guard = self
                    .freed
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let permits = self.0;
        permits.free.fetch_add(1, Ordering::SeqCst);
        if permits.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = permits.lock.lock().unwrap_or_else(PoisonError::into_inner);
            permits.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl LineService for Echo {
        fn handle(&self, line: &str, out: &mut String) {
            out.push_str("echo:");
            out.push_str(line);
        }
    }

    /// A connected (client, server-side) TCP pair.
    fn tcp_pair() -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = Conn::connect_tcp(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, Conn::Tcp(server))
    }

    fn spawn_echo(workers: usize) -> (SocketAddr, Arc<Drain>, std::thread::JoinHandle<()>) {
        let listener = DualListener::bind("127.0.0.1:0", None).expect("bind");
        let addr = listener.local_addr();
        let drain = listener.drain();
        let opts = ServeOptions {
            workers,
            io_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_millis(50),
        };
        let t = std::thread::spawn(move || serve(listener, opts, Arc::new(Echo)).expect("serve"));
        (addr, drain, t)
    }

    #[test]
    fn line_reader_strict_vs_lenient_partial_at_eof() {
        let (mut client, conn) = tcp_pair();
        client.write_all(b"complete\npart").expect("write");
        drop(client); // EOF with a partial line pending
        let reader = conn.try_clone().expect("clone");
        // Lenient: the partial is served as a line.
        let mut lenient = LineReader::new(reader);
        assert_eq!(lenient.read_line_blocking().expect("line"), "complete");
        assert!(matches!(lenient.tick().expect("tick"), Tick::Line(l) if l == "part"));
        assert!(matches!(lenient.tick().expect("tick"), Tick::Eof));
        // Strict: a second reader over the same (now-drained) socket
        // reports EOF as an error, never a line.
        let mut strict = LineReader::new(conn);
        let err = strict.read_line_strict().expect_err("eof is an error");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn buffered_line_detects_pipelined_input_without_blocking() {
        let (mut client, conn) = tcp_pair();
        client.write_all(b"a\nb\n").expect("write");
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut reader = LineReader::new(conn);
        assert_eq!(reader.read_line_blocking().expect("first"), "a");
        // "b\n" is already in the BufReader; no socket read needed.
        assert!(reader.buffered_line());
        assert_eq!(reader.read_line_blocking().expect("second"), "b");
        assert!(!reader.buffered_line());
    }

    #[test]
    fn line_cap_allows_exactly_max_and_refuses_one_more() {
        let (mut client, conn) = tcp_pair();
        client
            .write_all(b"12345678\n123456789\nok\n")
            .expect("write");
        drop(client);
        let mut reader = LineReader::with_max_line(conn, 8);
        assert!(matches!(reader.tick().expect("tick"), Tick::Line(l) if l == "12345678"));
        // The next line is buffered but over the cap: not a batchable line.
        assert!(!reader.buffered_line());
        assert!(matches!(reader.tick().expect("tick"), Tick::TooLong));
    }

    #[test]
    fn serve_refuses_an_endless_line_and_keeps_serving() {
        let (addr, drain, t) = spawn_echo(1);
        let mut conn = Conn::connect_tcp(addr).expect("connect");
        // One byte past the cap, no newline: the server reads all of it.
        conn.write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
            .expect("write");
        let mut reader = LineReader::new(conn);
        let reply = reader.read_line_blocking().expect("an error line");
        assert!(reply.contains(r#""kind":"line_too_long""#), "{reply}");
        assert!(matches!(reader.tick().expect("eof"), Tick::Eof));
        // Other connections are unaffected.
        let mut next = Conn::connect_tcp(addr).expect("connect");
        next.write_line("still here").expect("write");
        let mut reader = LineReader::new(next);
        assert_eq!(reader.read_line_blocking().unwrap(), "echo:still here");
        drain.trigger();
        t.join().expect("serve returns after the drain");
    }

    #[test]
    fn serve_echoes_batches_in_order() {
        let (addr, drain, t) = spawn_echo(2);
        let mut conn = Conn::connect_tcp(addr).expect("connect");
        conn.write_all(b"one\ntwo\nthree\n").expect("write");
        let mut reader = LineReader::new(conn.try_clone().expect("clone"));
        assert_eq!(reader.read_line_blocking().unwrap(), "echo:one");
        assert_eq!(reader.read_line_blocking().unwrap(), "echo:two");
        assert_eq!(reader.read_line_blocking().unwrap(), "echo:three");
        // The open connection is reaped after the grace window.
        drain.trigger();
        t.join().expect("serve returns after the drain");
        assert!(matches!(reader.tick().expect("eof"), Tick::Eof));
    }

    #[test]
    fn permits_bound_concurrent_holders_and_wake_waiters() {
        let permits = Permits::new(2);
        let held = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let _p = permits.acquire();
                        let now = held.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        held.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert_eq!(permits.free.load(Ordering::SeqCst), 2);
        assert_eq!(permits.waiters.load(Ordering::SeqCst), 0);
    }
}
