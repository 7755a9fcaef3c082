//! `tbaad` — the TBAA alias-query daemon.
//!
//! ```text
//! tbaad [--addr HOST:PORT] [--socket PATH] [--workers N] [--capacity N]
//!       [--journal-dir DIR] [--compile-threads N] [--prewarm N]
//!
//!   --addr             TCP bind address (default 127.0.0.1:4980; use :0 for
//!                      an ephemeral port — the chosen one is printed)
//!   --socket           additionally serve a Unix-domain socket (unix only)
//!   --workers          requests executing at once (default 16); open
//!                      connections are capped at 64 per worker
//!   --capacity         max cached sessions before LRU eviction (default 32)
//!   --journal-dir      durable session journal: admitted loads are logged
//!                      here and replayed on restart (crash recovery)
//!   --compile-threads  worker threads for cold-compile fan-out and engine
//!                      builds (default 0 = one per host core; output is
//!                      byte-identical at any setting)
//!   --prewarm          engines built eagerly per admitted load (default 1 =
//!                      the default (level, world) engine; 0 = off)
//! ```
//!
//! On startup the daemon prints exactly one line to stdout:
//!
//! ```text
//! tbaad listening on 127.0.0.1:4980
//! ```
//!
//! so scripts can scrape the (possibly ephemeral) port. It exits 0 after
//! a client sends `{"op":"shutdown"}` and all in-flight requests drain.

use std::process::ExitCode;

use tbaa_server::{Server, ServerConfig};

const USAGE: &str = "tbaad [--addr HOST:PORT] [--socket PATH] [--workers N] [--capacity N] [--journal-dir DIR] [--compile-threads N] [--prewarm N]";

fn main() -> ExitCode {
    let mut config = ServerConfig::builder().addr("127.0.0.1:4980").build();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match flag {
            "--addr" => match value(i) {
                Some(a) => config.addr = a.clone(),
                None => return usage("--addr needs HOST:PORT"),
            },
            "--socket" => match value(i) {
                Some(p) => config.unix_path = Some(p.into()),
                None => return usage("--socket needs PATH"),
            },
            "--workers" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => config.workers = n,
                _ => return usage("--workers needs a positive integer"),
            },
            "--capacity" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => config.session_capacity = n,
                _ => return usage("--capacity needs a positive integer"),
            },
            "--journal-dir" => match value(i) {
                Some(d) => config.journal_dir = Some(d.into()),
                None => return usage("--journal-dir needs DIR"),
            },
            "--compile-threads" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) => config.compile_threads = n,
                None => return usage("--compile-threads needs an integer (0 = auto)"),
            },
            "--prewarm" => match value(i).and_then(|s| s.parse().ok()) {
                Some(n) => config.prewarm = n,
                None => return usage("--prewarm needs an integer (0 = off)"),
            },
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
        i += 2;
    }

    #[cfg(not(unix))]
    if config.unix_path.take().is_some() {
        eprintln!("tbaad: --socket ignored (not a unix platform)");
    }

    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tbaad: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("tbaad listening on {}", server.local_addr());
    // Line-buffer stdout may hold the line back when piped; force it out
    // so wrapper scripts can scrape the port immediately.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    match server.run() {
        Ok(()) => {
            eprintln!("tbaad: drained and exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tbaad: server error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("tbaad: {msg}");
    eprintln!("usage: {USAGE}");
    ExitCode::FAILURE
}
