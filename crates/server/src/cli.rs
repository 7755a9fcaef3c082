//! The daemon's command line, shared by the `tbaad` binary, `tbaac
//! serve` and the shards `tbaac route` owns: one flag parser, one set of
//! defaults, one usage text, one startup line, and the renderer that
//! turns a [`ServerConfig`] back into flags for a spawned shard.
//!
//! ```text
//! [--addr HOST:PORT] [--socket PATH] [--workers N] [--capacity N]
//! [--journal-dir DIR] [--compile-threads N] [--prewarm N]
//! ```
//!
//! On startup the daemon prints exactly one line to stdout,
//! `tbaad listening on ADDR`, so scripts can scrape the (possibly
//! ephemeral) port. It exits 0 after a client sends `{"op":"shutdown"}`
//! and the drain finishes.

use std::io::Write as _;
use std::process::ExitCode;

use crate::server::{Server, ServerConfig};

/// Where the daemon listens when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4980";

/// The daemon's flags, one per line, for usage messages.
const USAGE: &str = "\
[--addr HOST:PORT] [--socket PATH] [--workers N] [--capacity N]
       [--journal-dir DIR] [--compile-threads N] [--prewarm N]

  --addr             TCP bind address (default 127.0.0.1:4980; use :0 for
                     an ephemeral port — the chosen one is printed)
  --socket           additionally serve a Unix-domain socket (unix only)
  --workers          requests executing at once (default 16); open
                     connections are capped at 64 per worker
  --capacity         max cached sessions before LRU eviction (default 32)
  --journal-dir      durable session journal: admitted loads are logged
                     here and replayed on restart (crash recovery)
  --compile-threads  worker threads for cold-compile fan-out and engine
                     builds (default 0 = one per host core; output is
                     byte-identical at any setting)
  --prewarm          engines built eagerly per admitted load (default 1 =
                     the default (level, world) engine; 0 = off)";

/// Parses the daemon's flags. `Ok(None)` means `--help` was asked for.
///
/// # Errors
///
/// An unknown flag, a missing value, or a value out of range.
pub fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut config = ServerConfig::builder().addr(DEFAULT_ADDR).build();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        let number = || value.and_then(|s| s.parse::<usize>().ok());
        match args[i].as_str() {
            "--addr" => config.addr = value.ok_or("--addr needs HOST:PORT")?.clone(),
            "--socket" => config.unix_path = Some(value.ok_or("--socket needs PATH")?.into()),
            "--workers" => {
                config.workers = number()
                    .filter(|&n| n >= 1)
                    .ok_or("--workers needs a positive integer")?;
            }
            "--capacity" => {
                config.session_capacity = number()
                    .filter(|&n| n >= 1)
                    .ok_or("--capacity needs a positive integer")?;
            }
            "--journal-dir" => {
                config.journal_dir = Some(value.ok_or("--journal-dir needs DIR")?.into());
            }
            "--compile-threads" => {
                config.compile_threads =
                    number().ok_or("--compile-threads needs an integer (0 = auto)")?;
            }
            "--prewarm" => {
                config.prewarm = number().ok_or("--prewarm needs an integer (0 = off)")?
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(Some(config))
}

/// The flags that make [`parse_args`] return `config` again: every field
/// the command line sets. The rest (`io_timeout`, `drain_grace`) has no
/// flag and takes its default in the spawned daemon.
pub fn render_args(config: &ServerConfig) -> Vec<String> {
    let mut args = vec!["--addr".to_string(), config.addr.clone()];
    if let Some(path) = &config.unix_path {
        args.push("--socket".into());
        args.push(path.display().to_string());
    }
    for (flag, n) in [
        ("--workers", config.workers),
        ("--capacity", config.session_capacity),
        ("--compile-threads", config.compile_threads),
        ("--prewarm", config.prewarm),
    ] {
        args.push(flag.into());
        args.push(n.to_string());
    }
    if let Some(dir) = &config.journal_dir {
        args.push("--journal-dir".into());
        args.push(dir.display().to_string());
    }
    args
}

/// Runs the daemon from its command line until it drains: parse,
/// bind, print the startup line, serve. `prog` prefixes every message
/// on stderr (`tbaad`, `tbaac serve`).
pub fn run(prog: &str, args: &[String]) -> ExitCode {
    #[allow(unused_mut)] // only non-unix builds drop the socket
    let mut config = match parse_args(args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("usage: {prog} {USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{prog}: {msg}");
            eprintln!("usage: {prog} {USAGE}");
            return ExitCode::FAILURE;
        }
    };
    #[cfg(not(unix))]
    if config.unix_path.take().is_some() {
        eprintln!("{prog}: --socket ignored (not a unix platform)");
    }
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{prog}: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("tbaad listening on {}", server.local_addr());
    // Stdout may be block-buffered when piped; force the line out so
    // wrapper scripts can scrape the port immediately.
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => {
            eprintln!("{prog}: drained and exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{prog}: server error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn defaults_match_the_server_config_with_the_daemon_port() {
        let config = parse_args(&[]).unwrap().unwrap();
        let default = ServerConfig::default();
        assert_eq!(config.addr, DEFAULT_ADDR);
        assert_eq!(config.workers, default.workers);
        assert_eq!(config.session_capacity, default.session_capacity);
        assert_eq!(config.compile_threads, default.compile_threads);
        assert_eq!(config.prewarm, default.prewarm);
        assert!(config.journal_dir.is_none() && config.unix_path.is_none());
    }

    #[test]
    fn every_flag_sets_its_field() {
        let config = parse_args(&args(
            "--addr 127.0.0.1:0 --socket /tmp/t.sock --workers 16 --capacity 32 \
             --journal-dir /tmp/j --compile-threads 0 --prewarm 0",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.unix_path.as_deref(), Some("/tmp/t.sock".as_ref()));
        assert_eq!((config.workers, config.session_capacity), (16, 32));
        assert_eq!(config.journal_dir.as_deref(), Some("/tmp/j".as_ref()));
        assert_eq!((config.compile_threads, config.prewarm), (0, 0));
    }

    #[test]
    fn rendered_flags_parse_back_to_the_same_config() {
        let fields = |c: &ServerConfig| {
            (
                c.addr.clone(),
                c.unix_path.clone(),
                c.workers,
                c.session_capacity,
                c.journal_dir.clone(),
                c.compile_threads,
                c.prewarm,
            )
        };
        let every = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .unix_path("/tmp/t.sock")
            .workers(3)
            .session_capacity(7)
            .journal_dir("/tmp/j/shard1")
            .compile_threads(2)
            .prewarm(0)
            .build();
        for config in [ServerConfig::default(), every] {
            let back = parse_args(&render_args(&config)).unwrap().unwrap();
            assert_eq!(fields(&back), fields(&config));
        }
    }

    #[test]
    fn bad_flags_are_refused_and_help_is_not_an_error() {
        for bad in ["--workers 0", "--capacity x", "--addr", "--bogus 1"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(parse_args(&args("--help")).unwrap().is_none());
    }
}
