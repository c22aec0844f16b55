//! Fleet dispatch throughput: units per second through a `SocketExecutor`
//! driving two in-process workers, with an injected per-message latency
//! shim between driver and fleet — the regime windowed dispatch exists
//! for.
//!
//! Same harness as `kernel_throughput`/`dataflow_throughput`
//! ([`read_bench::ab`]): interleaved A/B samples (minimum of repeated
//! timed runs after warmup) with byte-identical-result checks inside the
//! measured pairs, and `--json <path>` to write the committed
//! `BENCH_<pr>.json` perf-trajectory record.
//!
//! Topology: a `StoreServer` (shared artifact namespace) and two
//! `WorkerServer`s run in-process; every TCP hop — driver→worker and
//! worker→store — goes through a latency relay that delivers each wire
//! line a fixed delay after it was read.  The relay models *latency*, not
//! bandwidth: lines in flight overlap, so a pipelining peer can hide the
//! delay while a lock-step peer pays a full round trip per unit.
//!
//! * `window2_vs_lockstep` / `window8_vs_lockstep` — before =
//!   `SocketExecutor::window(1)` (lock-step: one unit in flight),
//!   after = the same fleet driven with 2 or 8 units in flight per worker.
//!   Workers are warm (the shared store memoizes unit artifacts and each
//!   connection prefetches them in `mget` batches), so the measured cost
//!   is dispatch, which is the point.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use read_bench::ab::{emit, time_ab, AbRecord};
use read_core::SortCriterion;
use read_pipeline::{
    vgg16_workloads_prefix, Algorithm, ArtifactStore, CornerSpec, Executor, LayerWorkload, McSpec,
    MemoryStore, PipelineError, ReadPipeline, RemoteStore, SerialExecutor, ServeRequest,
    SocketExecutor, StoreServer, SweepPlan, WorkerConfig, WorkerServer, WorkloadConfig,
};

/// Injected one-way latency per wire line, each hop.  A lock-step driver
/// pays two of these per unit (request out, result back); a windowed
/// driver amortizes them across its in-flight window.
const LINE_DELAY: Duration = Duration::from_millis(6);

/// One direction of a latency relay: a reader thread stamps each incoming
/// line with its delivery deadline, a writer thread sleeps until the
/// deadline and forwards it.  Splitting read from write is what makes the
/// delay a *latency* — the reader keeps draining while earlier lines are
/// still waiting out their deadlines, so in-flight lines overlap.
fn relay(from: TcpStream, to: TcpStream, delay: Duration) {
    let (tx, rx) = mpsc::channel::<(Instant, String)>();
    thread::spawn(move || {
        let mut reader = BufReader::new(from);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if tx.send((Instant::now() + delay, line)).is_err() {
                        break;
                    }
                }
            }
        }
    });
    thread::spawn(move || {
        let mut to = to;
        for (deadline, line) in rx {
            let now = Instant::now();
            if deadline > now {
                thread::sleep(deadline - now);
            }
            if to
                .write_all(line.as_bytes())
                .and_then(|()| to.flush())
                .is_err()
            {
                break;
            }
        }
        // Propagate EOF so the peer's read loop terminates cleanly.
        let _ = to.shutdown(Shutdown::Write);
    });
}

/// Spawns a per-line latency relay in front of `upstream` and returns the
/// address to dial instead.
fn latency_proxy(upstream: SocketAddr, delay: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(upstream) else {
                continue;
            };
            relay(
                client.try_clone().expect("clone client"),
                server.try_clone().expect("clone server"),
                delay,
            );
            relay(server, client, delay);
        }
    });
    addr
}

/// The benched experiment: the first VGG-16 layer only (27-row reduction —
/// units are cheap, so dispatch is the cost being measured, not compute),
/// baseline vs READ, three corners, typical, and a finely sharded
/// Monte-Carlo budget to produce a deep queue of small units.
fn fleet_request() -> ServeRequest {
    let mut request = ServeRequest::sweep("fleet-bench");
    request.layers = 1;
    request.pixels = 1;
    request.corners = vec![
        CornerSpec::ideal(),
        CornerSpec {
            aging_years: 0.0,
            vt_fluctuation: 0.05,
        },
        CornerSpec::aging_vt(10.0, 0.05),
    ];
    request.typical = true;
    request.mc = Some(McSpec {
        trials: 64,
        seed: 7,
        trials_per_shard: 2,
    });
    request
}

/// The driver-side pipeline for [`fleet_request`] (same plan ⇒ same unit
/// encodings ⇒ same store keys the workers use).
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

fn main() {
    let mut json_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json_path = Some(argv.next().expect("--json requires a path")),
            "--bench" => {} // forwarded by `cargo bench`
            other => eprintln!("ignoring unknown argument: {other}"),
        }
    }

    let request = fleet_request();

    // The serial reference: same experiment, in-process, private store —
    // every fleet run below must reproduce these exact bytes.
    let (serial, workloads) =
        fleet_pipeline(&request, Arc::new(MemoryStore::new()), SerialExecutor)
            .expect("serial pipeline");
    let units = serial
        .plan_sweep(&request.network, &workloads)
        .expect("plan")
        .len();
    let reference = serial
        .run_sweep(&request.network, &workloads)
        .expect("serial sweep")
        .to_json();
    println!(
        "fleet bench: {units} units, {} byte reference report, {:?} per-line injected latency\n",
        reference.len(),
        LINE_DELAY
    );

    // The fleet: one store daemon and two workers in-process, every hop
    // behind a latency relay.
    let store = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new()) as _)
        .expect("spawn store daemon");
    let store_proxy = latency_proxy(store.addr(), LINE_DELAY);
    let worker = |_: usize| {
        let config = WorkerConfig {
            store: Some(Arc::new(RemoteStore::new(store_proxy.to_string())) as _),
            die_after_units: None,
        };
        WorkerServer::spawn("127.0.0.1:0", config).expect("spawn worker")
    };
    let workers = [worker(0), worker(1)];
    let proxied: Vec<String> = workers
        .iter()
        .map(|w| latency_proxy(w.addr(), LINE_DELAY).to_string())
        .collect();

    let run_fleet = |window: usize| {
        let executor = SocketExecutor::new(request.encode(), proxied.iter().cloned())
            .window(window)
            .liveness_timeout(Duration::from_secs(60));
        let (fleet, workloads) = fleet_pipeline(&request, Arc::new(MemoryStore::new()), executor)
            .expect("fleet pipeline");
        let json = fleet
            .run_sweep(&request.network, &workloads)
            .expect("fleet sweep")
            .to_json();
        assert_eq!(json, reference, "fleet report must match the serial bytes");
    };

    let mut records = Vec::new();
    for (window, label) in [(2usize, "window2"), (8, "window8")] {
        let (before, after) = time_ab(5, || run_fleet(1), || run_fleet(window));
        records.push(AbRecord {
            kernel: format!("fleet/{label}_vs_lockstep_{units}units_2workers"),
            elems: units as u64,
            before_s: before,
            after_s: after,
        });
    }

    // Drain the fleet: workers first (they hold store-client connections),
    // then the store daemon.
    for w in workers {
        WorkerServer::shutdown_at(&w.addr().to_string()).expect("worker shutdown");
        w.join().expect("worker drained");
    }
    store.client().shutdown_daemon().expect("store shutdown");
    store.join().expect("store drained");

    emit("fleet", &records, json_path.as_deref());
}
