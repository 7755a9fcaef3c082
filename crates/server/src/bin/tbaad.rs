//! `tbaad` — the TBAA alias-query daemon.
//!
//! ```text
//! tbaad [--addr HOST:PORT] [--socket PATH] [--workers N] [--capacity N]
//!       [--journal-dir DIR] [--compile-threads N] [--prewarm N]
//! ```
//!
//! The flags, their defaults and the startup line
//! (`tbaad listening on 127.0.0.1:4980`) live in [`tbaa_server::cli`],
//! which `tbaac serve` runs too. `tbaad --help` lists them.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    tbaa_server::cli::run("tbaad", &args)
}
