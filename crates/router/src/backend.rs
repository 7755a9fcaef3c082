//! Backend shard lifecycles: in-process servers, spawned `tbaad`
//! children, or externally-owned daemons the router merely attaches to.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tbaa_server::net::Conn;
use tbaa_server::{Server, ServerConfig, ServerHandle};

/// How the router obtains its N backends.
///
/// An owned shard (in-process or spawned) runs its spec's
/// [`ServerConfig`] on its own ephemeral port, without the Unix socket,
/// and with its journal, if any, under `<journal_dir>/shard<i>`: shards
/// must not share a journal, and the subdirectory is kept across
/// respawns so a restarted shard recovers its own sessions
/// ([`tbaa_server::journal`]). Without a journal directory the router
/// falls back to replaying its in-memory journal after a respawn.
#[derive(Debug, Clone)]
pub enum BackendSpec {
    /// Run each shard as an in-process [`Server`] on its own ephemeral
    /// port (tests, single-binary deployments).
    InProcess {
        /// Per-shard server configuration (see [`BackendSpec`] for what
        /// each shard overrides).
        config: ServerConfig,
    },
    /// Spawn each shard as a `tbaad` child process, its configuration
    /// rendered to flags by [`tbaa_server::cli::render_args`].
    Spawn {
        /// Path to the `tbaad` binary.
        bin: PathBuf,
        /// Per-shard daemon configuration (see [`BackendSpec`] for what
        /// each shard overrides); only the fields the daemon's command
        /// line sets reach the child.
        config: ServerConfig,
    },
    /// Attach to already-running daemons; the router owns neither their
    /// lifecycle nor their respawn (a dead attached backend stays dead).
    Attach {
        /// One `HOST:PORT` per shard.
        addrs: Vec<String>,
    },
}

impl BackendSpec {
    /// How many shards this spec yields for a requested count:
    /// `Attach` is pinned to its address list.
    pub fn shard_count(&self, requested: usize) -> usize {
        match self {
            BackendSpec::Attach { addrs } => addrs.len(),
            _ => requested.max(1),
        }
    }
}

/// One shard's backend process, behind a uniform lifecycle.
pub(crate) trait BackendHost: Send {
    /// Human-readable identity for logs and stats.
    fn label(&self) -> String;
    /// Current `HOST:PORT`.
    fn addr(&self) -> String;
    /// Replaces a dead backend with a fresh one, returning its address.
    fn respawn(&mut self) -> Result<String, String>;
    /// Forcibly terminates the backend (fault injection).
    fn kill(&mut self);
    /// Gracefully shuts the backend down (router exit).
    fn shutdown(&mut self);
}

/// Builds one host per shard from the spec.
pub(crate) fn build_hosts(
    spec: &BackendSpec,
    shards: usize,
) -> std::io::Result<Vec<Box<dyn BackendHost>>> {
    let mut hosts: Vec<Box<dyn BackendHost>> = Vec::with_capacity(shards);
    match spec {
        BackendSpec::InProcess { config } => {
            for shard in 0..shards {
                hosts.push(Box::new(InProcessHost::start(shard_config(config, shard))?));
            }
        }
        BackendSpec::Spawn { bin, config } => {
            for shard in 0..shards {
                let config = shard_config(config, shard);
                hosts.push(Box::new(SpawnHost::start(bin.clone(), config)?));
            }
        }
        BackendSpec::Attach { addrs } => {
            for addr in addrs {
                hosts.push(Box::new(AttachHost { addr: addr.clone() }));
            }
        }
    }
    Ok(hosts)
}

/// Shard `shard`'s copy of an owned-backend configuration; see
/// [`BackendSpec`].
fn shard_config(config: &ServerConfig, shard: usize) -> ServerConfig {
    let mut config = config.clone();
    config.addr = "127.0.0.1:0".into();
    config.unix_path = None;
    config.journal_dir = config
        .journal_dir
        .map(|base| base.join(format!("shard{shard}")));
    config
}

/// An in-process [`Server`] on an ephemeral port.
struct InProcessHost {
    config: ServerConfig,
    handle: Option<ServerHandle>,
    addr: String,
}

impl InProcessHost {
    fn start(config: ServerConfig) -> std::io::Result<InProcessHost> {
        let server = Server::bind(config.clone())?;
        let addr = server.local_addr().to_string();
        Ok(InProcessHost {
            config,
            handle: Some(server.spawn()),
            addr,
        })
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.state().request_shutdown();
            let _ = handle.join();
        }
    }
}

impl BackendHost for InProcessHost {
    fn label(&self) -> String {
        format!("in-process:{}", self.addr)
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }

    fn respawn(&mut self) -> Result<String, String> {
        self.stop();
        let fresh = InProcessHost::start(self.config.clone())
            .map_err(|e| format!("respawn failed: {e}"))?;
        *self = fresh;
        Ok(self.addr.clone())
    }

    fn kill(&mut self) {
        // Thread-backed servers cannot be killed harder than a drain:
        // it stops the accept threads at once, and every pooled
        // connection gets EOF when the grace window ends.
        self.stop();
    }

    fn shutdown(&mut self) {
        self.stop();
    }
}

/// A spawned `tbaad` child on an ephemeral port, discovered by scraping
/// the startup banner.
struct SpawnHost {
    bin: PathBuf,
    config: ServerConfig,
    child: Option<Child>,
    addr: String,
}

impl SpawnHost {
    fn start(bin: PathBuf, config: ServerConfig) -> std::io::Result<SpawnHost> {
        let args = tbaa_server::cli::render_args(&config);
        let mut child = Command::new(&bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner)?;
        let addr = banner
            .trim()
            .strip_prefix("tbaad listening on ")
            .map(str::to_string)
            .ok_or_else(|| {
                let _ = child.kill();
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected tbaad banner: {banner:?}"),
                )
            })?;
        Ok(SpawnHost {
            bin,
            config,
            child: Some(child),
            addr,
        })
    }

    fn hard_kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl BackendHost for SpawnHost {
    fn label(&self) -> String {
        format!("spawn:{}", self.addr)
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }

    fn respawn(&mut self) -> Result<String, String> {
        self.hard_kill();
        let fresh = SpawnHost::start(self.bin.clone(), self.config.clone())
            .map_err(|e| format!("respawn failed: {e}"))?;
        *self = fresh;
        Ok(self.addr.clone())
    }

    fn kill(&mut self) {
        self.hard_kill();
    }

    fn shutdown(&mut self) {
        let Some(child) = self.child.as_mut() else {
            return;
        };
        // Ask nicely first so the backend drains in-flight work.
        let asked = Conn::connect_tcp(&self.addr)
            .and_then(|mut c| c.write_line(r#"{"op":"shutdown"}"#))
            .is_ok();
        if asked {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    self.child = None;
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        self.hard_kill();
    }
}

/// An externally-owned daemon: no lifecycle, no respawn.
struct AttachHost {
    addr: String,
}

impl BackendHost for AttachHost {
    fn label(&self) -> String {
        format!("attach:{}", self.addr)
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }

    fn respawn(&mut self) -> Result<String, String> {
        Err(format!(
            "backend {} is attached, not owned; cannot respawn",
            self.addr
        ))
    }

    fn kill(&mut self) {}

    fn shutdown(&mut self) {}
}
