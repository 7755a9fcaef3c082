//! The system under test as an outside client sees it: a spawned
//! `tbaad` (or a `tbaac route` in front of it), persistent Unix-socket
//! connections and one-shot TCP connections.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single reply may take before it counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A spawned daemon or router. Dropping it kills the process and waits
/// for it, so no exit path leaves a process behind.
pub struct Server {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The TCP address the process printed on startup.
    pub tcp: String,
    /// The Unix socket it serves.
    pub socket: PathBuf,
}

impl Server {
    /// Spawns `bin args…` and waits for its `… listening on ADDR` line.
    pub fn spawn(bin: &Path, args: &[String], socket: &Path) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let tcp = match (read, line.rsplit_once(" listening on ")) {
            (Ok(n), Some((_, addr))) if n > 0 => addr.trim().to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!(
                    "{} did not report a listening address",
                    bin.display()
                )));
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            tcp,
            socket: socket.to_path_buf(),
        })
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the process to drain and exit; kills it if it has not exited
    /// within ten seconds. Always waits for it.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::unix(&self.socket) {
            let mut reply = String::new();
            let _ = conn.exchange("{\"op\":\"shutdown\"}\n", &mut reply);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                let _ = std::fs::remove_file(&self.socket);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and waits.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

/// One client connection with one request in flight.
pub struct Conn {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Conn {
    /// A persistent Unix-socket connection.
    pub fn unix(path: &Path) -> std::io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: Stream::Unix(s.try_clone()?),
            reader: BufReader::new(Stream::Unix(s)),
        })
    }

    /// A TCP connection, as `tbaac query` opens one.
    pub fn tcp(addr: &str) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: Stream::Tcp(s.try_clone()?),
            reader: BufReader::new(Stream::Tcp(s)),
        })
    }

    /// Sends one newline-terminated request and reads its reply into
    /// `reply` (newline stripped).
    pub fn exchange(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        match &mut self.writer {
            Stream::Unix(s) => s.write_all(line.as_bytes())?,
            Stream::Tcp(s) => s.write_all(line.as_bytes())?,
        }
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(())
    }
}
