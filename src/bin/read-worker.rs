//! `read-worker` — one fleet worker for a remote sweep.
//!
//! Listens for driver connections (a `SocketExecutor` or a `read-serve`
//! daemon with `--fleet`), rebuilds the driver's `WorkPlan` from its
//! pipeline spec line, and answers encoded work-unit lines with encoded
//! unit-result lines — the remote analog of `WorkPlan::serve` on stdio.
//!
//! ```text
//! read-worker [--addr HOST:PORT] [--store DIR | --store-addr HOST:PORT]
//!             [--die-after-units N]
//! ```
//!
//! With `--store-addr` the worker joins a shared `read-store` namespace, so
//! a cold worker reuses everything the fleet has already computed.
//! `--die-after-units` is fault injection for smoke tests: the worker drops
//! its connection mid-stream after N served units and exits non-zero, as a
//! crashed worker would.  Otherwise the worker runs until a client sends
//! the in-band `shutdown` command, then stops without waiting on any peer:
//! idle connections are closed at once, and an open driver session ends at
//! its next unit boundary (the driver requeues its in-flight window on the
//! surviving workers).  It then exits 0.

use std::process::ExitCode;
use std::sync::Arc;

use read_repro::read_pipeline::serve::{WorkerConfig, WorkerServer};
use read_repro::read_pipeline::{ArtifactStore, DiskStore, RemoteStore};

struct Args {
    addr: String,
    config: WorkerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7351".to_string();
    let mut config = WorkerConfig::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} wants a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--store" => {
                let dir = value("--store")?;
                let store = DiskStore::new(&dir).map_err(|e| format!("--store {dir}: {e}"))?;
                config.store = Some(Arc::new(store) as Arc<dyn ArtifactStore>);
            }
            "--store-addr" => {
                let daemon = value("--store-addr")?;
                let store = RemoteStore::connect(&daemon)
                    .map_err(|e| format!("--store-addr {daemon}: {e}"))?;
                config.store = Some(Arc::new(store) as Arc<dyn ArtifactStore>);
            }
            "--die-after-units" => {
                let n: u64 = value("--die-after-units")?
                    .parse()
                    .map_err(|e| format!("--die-after-units: {e}"))?;
                config.die_after_units = Some(n);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: read-worker [--addr HOST:PORT] [--store DIR | --store-addr HOST:PORT] \
                     [--die-after-units N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Args { addr, config })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match WorkerServer::bind(&args.addr, args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("read-worker: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("read-worker listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => {
            println!("read-worker: drained and shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("read-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
