//! A multi-machine fleet run, end to end, against the real release
//! binaries — with an injected worker crash:
//!
//! 1. spawns a `read-store` daemon (the fleet's shared artifact
//!    namespace) and two `read-worker` processes attached to it, one
//!    rigged with `--die-after-units 1` to drop its connection mid-stream;
//! 2. drives a corner sweep through a `SocketExecutor` and asserts the
//!    `SweepReport` JSON is byte-identical to the serial in-process run —
//!    the crashed worker's lost unit is retried on the survivor;
//! 3. reruns the sweep serially against the shared store and asserts it
//!    executed zero fresh units (pure aggregation);
//! 4. shuts the fleet down and asserts the exit codes: healthy worker and
//!    store daemon drain to 0, the crashed worker reports its death with a
//!    non-zero exit.
//!
//! Run with:
//!
//! ```text
//! cargo build --release --bins
//! cargo run --release --example fleet -- --window 8
//! ```
//!
//! `--window N` sets the per-worker in-flight dispatch window (default 8;
//! 1 drives each worker lock-step, one unit in flight).

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use read_repro::prelude::*;

/// The fleet experiment: 3 VGG-16 layers, baseline vs READ, three corners,
/// typical + one per-PE die, a sharded Monte-Carlo budget.
fn fleet_request() -> ServeRequest {
    let mut request = ServeRequest::sweep("fleet-example");
    request.layers = 3;
    request.pixels = 2;
    request.corners = vec![
        CornerSpec::ideal(),
        CornerSpec {
            aging_years: 0.0,
            vt_fluctuation: 0.05,
        },
        CornerSpec::aging_vt(10.0, 0.05),
    ];
    request.typical = true;
    request.dies = vec![3];
    request.mc = Some(McSpec {
        trials: 24,
        seed: 7,
        trials_per_shard: 8,
    });
    request
}

/// The driver-side mirror of [`fleet_request`]: the same experiment as a
/// local pipeline (same plan ⇒ same unit encodings ⇒ same store keys the
/// workers use).
fn fleet_pipeline(
    request: &ServeRequest,
    store: Arc<dyn ArtifactStore>,
    executor: impl Executor + 'static,
) -> Result<(ReadPipeline, Vec<LayerWorkload>), PipelineError> {
    let config = WorkloadConfig {
        pixels_per_layer: request.pixels,
        seed: request.workload_seed,
        ..WorkloadConfig::default()
    };
    let workloads = vgg16_workloads_prefix(&config, request.layers);
    let mut plan = SweepPlan::new().conditions(request.corners.iter().map(CornerSpec::resolve));
    if request.typical {
        plan = plan.typical();
    }
    plan = plan.dies(request.dies.iter().copied());
    if let Some(mc) = &request.mc {
        plan = plan.monte_carlo(mc.trials, mc.seed);
        if mc.trials_per_shard > 0 {
            plan = plan.trials_per_shard(mc.trials_per_shard);
        }
    }
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .sweep(plan)
        .store_arc(store)
        .executor(executor)
        .build()?;
    Ok((pipeline, workloads))
}

/// Locates a sibling release/debug binary: examples run from
/// `target/<profile>/examples/`, the binaries live one level up.
fn binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .and_then(|examples| examples.parent())
        .ok_or("cannot locate the target directory")?;
    let path = dir.join(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build the fleet binaries first: cargo build --bins",
            path.display()
        ))
    }
}

/// One spawned fleet daemon with its self-reported listen address.
struct Daemon {
    name: String,
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `name` with `args` and reads its `... listening on ADDR`
    /// banner; the rest of its stdout is forwarded by a drain thread (so
    /// the child never blocks — or dies on SIGPIPE — writing to a closed
    /// pipe).
    fn spawn(name: &str, args: &[&str]) -> Result<Daemon, Box<dyn std::error::Error>> {
        let mut child = Command::new(binary(name)?)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .ok_or_else(|| format!("{name} exited before its banner"))??;
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("{name}: unexpected banner {banner:?}"))?
            .to_string();
        println!("  {banner}");
        let tag = name.to_string();
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                println!("  [{tag}] {line}");
            }
        });
        Ok(Daemon {
            name: name.to_string(),
            child,
            addr,
        })
    }

    /// Waits for the daemon and returns whether it exited successfully.
    fn wait(mut self) -> Result<bool, Box<dyn std::error::Error>> {
        let status = self.child.wait()?;
        println!("  {} exited with {status}", self.name);
        Ok(status.success())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut window = 8usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--window" => {
                window = argv
                    .next()
                    .ok_or("--window requires a count")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    let root = std::env::temp_dir().join(format!("read-fleet-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let request = fleet_request();

    // The serial reference: same experiment, in-process, private store.
    let (serial, workloads) =
        fleet_pipeline(&request, Arc::new(MemoryStore::new()), SerialExecutor)?;
    let reference = serial.run_sweep(&request.network, &workloads)?.to_json();
    println!(
        "serial reference: {} units -> {} bytes of report JSON\n",
        serial.plan_sweep(&request.network, &workloads)?.len(),
        reference.len()
    );

    // The fleet: one store daemon, two workers — one rigged to crash after
    // a single served unit.
    println!("spawning the fleet:");
    let store = Daemon::spawn(
        "read-store",
        &["--addr", "127.0.0.1:0", "--root", &root.to_string_lossy()],
    )?;
    let worker_args = |extra: &[&str]| -> Vec<String> {
        let mut args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--store-addr".to_string(),
            store.addr.clone(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        args
    };
    let healthy_args = worker_args(&[]);
    let flaky_args = worker_args(&["--die-after-units", "1"]);
    let healthy = Daemon::spawn(
        "read-worker",
        &healthy_args.iter().map(String::as_str).collect::<Vec<_>>(),
    )?;
    let flaky = Daemon::spawn(
        "read-worker",
        &flaky_args.iter().map(String::as_str).collect::<Vec<_>>(),
    )?;

    // Drive the sweep through the fleet.
    let executor =
        SocketExecutor::new(request.encode(), [healthy.addr.clone(), flaky.addr.clone()])
            .window(window)
            .liveness_timeout(Duration::from_secs(60));
    let stats = executor.stats();
    let (fleet, workloads) = fleet_pipeline(
        &request,
        Arc::new(RemoteStore::connect(&store.addr)?),
        executor,
    )?;
    let distributed = fleet.run_sweep(&request.network, &workloads)?.to_json();
    assert_eq!(
        distributed, reference,
        "fleet report must be byte-identical to the serial run"
    );
    assert!(
        stats.worker_deaths() >= 1,
        "the rigged worker must have died mid-stream"
    );
    assert!(
        stats.retried_units() >= 1,
        "the lost unit must have been retried on the survivor"
    );
    println!(
        "\nfleet run (window {window}): byte-identical to serial ({} bytes); \
         worker deaths: {}, units retried: {}, units completed: {}, \
         in-flight peak: {}, in-flight requeued: {}",
        distributed.len(),
        stats.worker_deaths(),
        stats.retried_units(),
        stats.completed_units(),
        stats.inflight_peak(),
        stats.requeued_inflight(),
    );

    // Warm rerun against the fleet's shared store: pure aggregation.
    let (warm, workloads) = fleet_pipeline(
        &request,
        Arc::new(RemoteStore::connect(&store.addr)?),
        SerialExecutor,
    )?;
    let rerun = warm.run_sweep(&request.network, &workloads)?.to_json();
    assert_eq!(rerun, reference, "warm rerun must reproduce the same bytes");
    let cache = warm.cache_stats();
    assert_eq!(cache.misses, 0, "schedules came from the fleet store");
    assert_eq!(cache.hist_misses, 0, "histograms came from the fleet store");
    assert_eq!(cache.unit_misses, 0, "warm rerun executed zero fresh units");
    println!(
        "warm rerun: zero fresh units ({} store hits), byte-identical",
        cache.disk_hits
    );

    // Teardown: drain the healthy worker and the store daemon in-band; the
    // crashed worker must already be reporting a non-zero exit.
    println!("\nshutting the fleet down:");
    WorkerServer::shutdown_at(&healthy.addr)?;
    RemoteStore::connect(&store.addr)?.shutdown_daemon()?;
    assert!(healthy.wait()?, "healthy worker must drain to exit 0");
    assert!(
        !flaky.wait()?,
        "the crashed worker must exit non-zero after its injected death"
    );
    assert!(store.wait()?, "store daemon must drain to exit 0");
    let _ = std::fs::remove_dir_all(&root);
    println!("\nfleet example passed: mid-stream death recovered, bytes identical, rerun warm");
    Ok(())
}
