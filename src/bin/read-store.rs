//! `read-store` — the shared artifact-store daemon for a worker fleet.
//!
//! Serves the content-addressed `ArtifactStore` namespace (schedules,
//! histograms, memoized unit results) over a line-delimited TCP GET/PUT
//! protocol, backed by a `DiskStore` directory.  Drivers and `read-worker`
//! processes attach with `RemoteStore` / `--store-addr`, so the whole fleet
//! shares one warm cache and exactly-once computation holds across
//! machines.
//!
//! ```text
//! read-store [--addr HOST:PORT] [--root DIR]
//! ```
//!
//! Runs until a client sends the in-band `shutdown` command (e.g.
//! `RemoteStore::shutdown_daemon`), then stops without waiting on any
//! peer: idle `RemoteStore` connections are closed at once (their next
//! operation degrades to a counted miss), a request in progress is
//! answered first, and the process exits 0.  See the repo README for the
//! wire grammar.

use std::process::ExitCode;
use std::sync::Arc;

use read_repro::read_pipeline::{ArtifactStore, DiskStore, StoreServer};

struct Args {
    addr: String,
    root: String,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7361".to_string();
    let mut root = "read-store-data".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} wants a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--root" => root = value("--root")?,
            "--help" | "-h" => {
                return Err("usage: read-store [--addr HOST:PORT] [--root DIR]".to_string())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Args { addr, root })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let disk = match DiskStore::new(&args.root) {
        Ok(disk) => disk,
        Err(e) => {
            eprintln!("read-store: --root {}: {e}", args.root);
            return ExitCode::FAILURE;
        }
    };
    let store = Arc::new(disk) as Arc<dyn ArtifactStore>;
    let server = match StoreServer::bind(&args.addr, store) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("read-store: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("read-store listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => {
            println!("read-store: drained and shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("read-store: {e}");
            ExitCode::FAILURE
        }
    }
}
