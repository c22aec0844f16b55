//! The `serve_fleet` workload: a closed loop of two client connections
//! against an in-process `ServeServer` (one local slot) whose bulk work
//! runs on one in-process `WorkerServer`; both share a `RemoteStore` to an
//! in-process `StoreServer`.  Every pass starts a fresh daemon trio over an
//! empty store and tears it down in dependency order with a capped wait.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use read_core::SortCriterion;
use read_pipeline::{
    resnet18_workloads_prefix, Algorithm, ArtifactStore, CornerSpec, McSpec, MemoryStore,
    ModelFamily, Priority, ReadPipeline, RequestKind, SerialExecutor, ServeClient, ServeRequest,
    ServeServer, ServerConfig, SourceSpec, StoreServer, SweepPlan, WorkerConfig, WorkerServer,
    WorkloadConfig, NO_TIMEOUT,
};

use crate::trace::{Counters, TracedStore};
use crate::{median, ratio, sec, secs, tail, Args, Outcome, MIN_PASSES};

/// Distinct interactive probe keys (workload seeds) per run.
const PROBE_KEYS: u64 = 6;
/// Interactive probes per pass, drawn from the key space.
const PROBES: usize = 30;
/// Bulk sweeps per pass, each on its own workload seed.
const BULKS: u64 = 2;
/// Set-ups per run (`setup_s` is their median).
const SETUP_REPEATS: usize = 3;
/// Cap on each daemon's drain at teardown.
const DRAIN_CAP: Duration = Duration::from_secs(3);

/// SplitMix64: the seeded request-key stream.
struct KeyStream(u64);

impl KeyStream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn base(kind: RequestKind, network: &str, layers: usize, seed: u64) -> ServeRequest {
    let mut request = match kind {
        RequestKind::Sweep => ServeRequest::sweep(network),
        _ => ServeRequest::ter(network),
    };
    request.family = ModelFamily::Resnet18;
    request.layers = layers;
    request.pixels = 4;
    request.workload_seed = seed;
    request.sources = vec![SourceSpec::Baseline, SourceSpec::Read];
    request.timeout_ms = NO_TIMEOUT;
    request
}

/// Interactive TER probe: the first two ResNet-18 layers.
fn probe(seed: u64) -> ServeRequest {
    base(RequestKind::Ter, "resnet18-probe", 2, seed)
}

/// Bulk sweep: six ResNet-18 layers, two corners, typical plus one die,
/// 64 Monte-Carlo trials.
fn bulk(seed: u64) -> ServeRequest {
    let mut request = base(RequestKind::Sweep, "resnet18-bulk", 6, seed);
    request.corners = vec![CornerSpec::ideal(), CornerSpec::aging_vt(10.0, 0.05)];
    request.typical = true;
    request.dies = vec![3];
    request.mc = Some(McSpec {
        trials: 64,
        seed: 0xF169,
        trials_per_shard: 16,
    });
    request
}

/// The report an in-process serial pipeline gives for `request`.
fn in_process(request: &ServeRequest) -> Result<String, String> {
    let config = WorkloadConfig {
        pixels_per_layer: request.pixels,
        seed: request.workload_seed,
        ..WorkloadConfig::default()
    };
    let workloads = resnet18_workloads_prefix(&config, request.layers);
    let mut builder = ReadPipeline::builder().executor(SerialExecutor);
    for source in &request.sources {
        builder = builder.source(match source {
            SourceSpec::Baseline => Algorithm::Baseline,
            SourceSpec::Reorder => Algorithm::Reorder(SortCriterion::SignFirst),
            SourceSpec::Read => Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
        });
    }
    let conditions: Vec<_> = request.corners.iter().map(CornerSpec::resolve).collect();
    let e = |e: read_pipeline::PipelineError| e.to_string();
    match request.kind {
        RequestKind::Sweep => {
            let mc = request
                .mc
                .ok_or("bulk sweep without a Monte-Carlo budget")?;
            // Same builder order as the daemon: the typical die first.
            let mut plan = SweepPlan::new().conditions(conditions);
            if request.typical {
                plan = plan.typical();
            }
            let plan = plan
                .dies(request.dies.iter().copied())
                .monte_carlo(mc.trials, mc.seed)
                .trials_per_shard(mc.trials_per_shard);
            let pipeline = builder.sweep(plan).build().map_err(e)?;
            Ok(pipeline
                .run_sweep(&request.network, &workloads)
                .map_err(e)?
                .to_json())
        }
        _ => {
            let pipeline = builder.conditions(conditions).build().map_err(e)?;
            Ok(pipeline
                .run_ter(&request.network, &workloads)
                .map_err(e)?
                .to_json())
        }
    }
}

/// One client-observed request.
struct Sample {
    rtt: f64,
    server: f64,
    inflight_hits: u64,
}

/// Sends `request`, checks its report and admission class against the
/// reference, and returns the sample.
fn send(
    client: &ServeClient,
    request: &ServeRequest,
    reference: &str,
    priority: Priority,
) -> Result<Sample, String> {
    let start = Instant::now();
    let reply = client.request(request).map_err(|e| e.to_string())?;
    let rtt = secs(start);
    crate::same("served report", &reply.report_json, reference)?;
    if reply.priority != priority {
        return Err(format!("ran at {:?}, want {priority:?}", reply.priority));
    }
    Ok(Sample {
        rtt,
        server: reply.latency.as_secs_f64(),
        inflight_hits: reply.stats.inflight_hits,
    })
}

/// Waits for `join` at most `cap`; a daemon still draining at the cap is
/// left to finish on its own thread.
fn join_capped<E: Send + 'static>(
    join: impl FnOnce() -> Result<(), E> + Send + 'static,
    cap: Duration,
) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(join().is_ok());
    });
    match rx.recv_timeout(cap) {
        Ok(true) => Ok(()),
        Ok(false) => Err("daemon exited with an error".into()),
        Err(_) => Err(format!("drain exceeded the {cap:?} cap")),
    }
}

/// The fixed request script and its in-process references.
struct Script {
    probes: Vec<u64>,
    bulks: Vec<u64>,
    probe_refs: Vec<(u64, String)>,
    bulk_refs: Vec<(u64, String)>,
}

impl Script {
    fn new(seed: u64) -> Result<Script, String> {
        let keys: Vec<u64> = (0..PROBE_KEYS)
            .map(|k| seed.wrapping_mul(1000) + k)
            .collect();
        // Rounds of seeded permutations of the keys: the first round is
        // cold, every later probe warm, whatever the seed.
        let mut stream = KeyStream(seed);
        let mut probes = Vec::with_capacity(PROBES);
        while probes.len() < PROBES {
            let mut round = keys.clone();
            for i in (1..round.len()).rev() {
                round.swap(i, (stream.next() % (i as u64 + 1)) as usize);
            }
            probes.extend(round);
        }
        probes.truncate(PROBES);
        let bulks: Vec<u64> = (0..BULKS)
            .map(|b| seed.wrapping_mul(1000) + 500 + b)
            .collect();
        let probe_refs = keys
            .iter()
            .map(|&k| Ok((k, in_process(&probe(k))?)))
            .collect::<Result<_, String>>()?;
        let bulk_refs = bulks
            .iter()
            .map(|&k| Ok((k, in_process(&bulk(k))?)))
            .collect::<Result<_, String>>()?;
        Ok(Script {
            probes,
            bulks,
            probe_refs,
            bulk_refs,
        })
    }

    fn reference(refs: &[(u64, String)], key: u64) -> &str {
        &refs.iter().find(|(k, _)| *k == key).expect("reference").1
    }
}

/// Client-side observations of one pass.
#[derive(Default)]
struct Pass {
    wall: f64,
    warm: f64,
    drain: f64,
    interactive: Vec<Sample>,
    bulk: Vec<Sample>,
}

/// Starts the daemon trio over an empty store, runs the script from two
/// client connections, replays the probe keys warm, and tears down.
fn run_pass(
    script: &Script,
    counters: Option<&Arc<Counters>>,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    let e = |e: read_pipeline::PipelineError| e.to_string();
    let store = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new())).map_err(e)?;
    let store_addr = store.addr();
    let client_store = |addr: std::net::SocketAddr| -> Arc<dyn ArtifactStore> {
        let remote: Arc<dyn ArtifactStore> =
            Arc::new(read_pipeline::RemoteStore::new(addr.to_string()));
        match counters {
            Some(c) => Arc::new(TracedStore {
                inner: remote,
                counters: Arc::clone(c),
            }),
            None => remote,
        }
    };
    let worker = WorkerServer::spawn(
        "127.0.0.1:0",
        WorkerConfig {
            store: Some(client_store(store_addr)),
            die_after_units: None,
        },
    )
    .map_err(e)?;
    let worker_addr = worker.addr().to_string();
    let serve = ServeServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            slots: 1,
            store: Some(client_store(store_addr)),
            fleet: vec![worker_addr.clone()],
            ..ServerConfig::default()
        },
    )
    .map_err(e)?;
    let client = serve.client();

    let mut pass = Pass::default();
    let start = Instant::now();
    let (interactive, bulks) = std::thread::scope(|scope| {
        let client = &client;
        let bulks = scope.spawn(move || {
            script
                .bulks
                .iter()
                .map(|&k| {
                    let reference = Script::reference(&script.bulk_refs, k);
                    send(client, &bulk(k), reference, Priority::Bulk)
                })
                .collect::<Vec<_>>()
        });
        let interactive: Vec<_> = script
            .probes
            .iter()
            .map(|&k| {
                let reference = Script::reference(&script.probe_refs, k);
                send(client, &probe(k), reference, Priority::Interactive)
            })
            .collect();
        (interactive, bulks.join().expect("bulk client thread"))
    });
    pass.wall = secs(start);
    for (what, results, into) in [
        ("interactive probe", interactive, &mut pass.interactive),
        ("bulk sweep", bulks, &mut pass.bulk),
    ] {
        for result in results {
            match result {
                Ok(sample) => {
                    outcome.check(what, Ok(()));
                    into.push(sample);
                }
                Err(why) => outcome.check(what, Err(why)),
            }
        }
    }

    // Warm replay: every probe key once more, all served from the store.
    let start = Instant::now();
    for (k, reference) in &script.probe_refs {
        let result = send(&client, &probe(*k), reference, Priority::Interactive).map(|_| ());
        outcome.check("warm probe", result);
    }
    pass.warm = secs(start);

    // Teardown in dependency order: serve, then worker, then store.
    let start = Instant::now();
    // Array elements evaluate in order, so each daemon is told to stop only
    // after the previous one has drained (or hit the cap).
    let teardown = [
        client
            .shutdown()
            .map_err(e)
            .and_then(|()| join_capped(move || serve.join(), DRAIN_CAP)),
        WorkerServer::shutdown_at(&worker_addr)
            .map_err(e)
            .and_then(|()| join_capped(move || worker.join(), DRAIN_CAP)),
        store
            .client()
            .shutdown_daemon()
            .map_err(e)
            .and_then(|()| join_capped(move || store.join(), DRAIN_CAP)),
    ];
    pass.drain = secs(start);
    eprintln!(
        "pass wall {:.3} s, warm {:.3} s, drain {:.3} s",
        pass.wall, pass.warm, pass.drain
    );
    for result in teardown {
        if let Err(why) = result {
            eprintln!("teardown: {why}");
        }
    }
    Ok(pass)
}

pub fn serve_fleet(args: &Args) -> Result<Outcome, String> {
    // Set-up is cheap here, so it runs several times and reports the median.
    let mut setups = Vec::new();
    let mut script = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        script = Some(Script::new(args.seed)?);
        setups.push(secs(started));
    }
    let script = script.expect("at least one set-up");
    let setup_s = median(&setups);
    eprintln!("set-up {setup_s:.3} s (median of {SETUP_REPEATS})");
    let mut outcome = Outcome::default();
    if args.trace {
        let untraced = run_pass(&script, None, &mut outcome)?;
        let counters = Arc::new(Counters::default());
        let traced = run_pass(&script, Some(&counters), &mut outcome)?;
        let s = counters.snapshot();
        let all: Vec<&Sample> = traced.interactive.iter().chain(&traced.bulk).collect();
        let server: Vec<f64> = traced.interactive.iter().map(|x| x.server * 1e3).collect();
        let wire: Vec<f64> = all.iter().map(|x| (x.rtt - x.server) * 1e3).collect();
        outcome.push("store.load_s", sec(s.load_ns));
        outcome.push("store.put_s", sec(s.put_ns));
        outcome.push("store.loads", s.loads as f64);
        outcome.push("store.puts", s.puts as f64);
        outcome.push("store.hit_ratio", ratio(s.load_hits as f64, s.loads as f64));
        outcome.push("serve.server_ms", median(&server));
        outcome.push("serve.wire_ms", median(&wire));
        let joins: u64 = all.iter().map(|x| x.inflight_hits).sum();
        outcome.push("serve.inflight_hits", joins as f64);
        outcome.push("serve.drain_s", traced.drain);
        outcome.push("trace.wall_s", traced.wall);
        outcome.push("trace.overhead_s", traced.wall - untraced.wall);
        return Ok(outcome);
    }
    let mut passes = Vec::new();
    let measure = Instant::now();
    while passes.len() < MIN_PASSES || secs(measure) < args.seconds {
        passes.push(run_pass(&script, None, &mut outcome)?);
    }
    let rtt_ms = |pick: fn(&Pass) -> &Vec<Sample>| -> Vec<f64> {
        passes.iter().flat_map(pick).map(|x| x.rtt * 1e3).collect()
    };
    let interactive = rtt_ms(|p| &p.interactive);
    let bulk = rtt_ms(|p| &p.bulk);
    if interactive.is_empty() || bulk.is_empty() {
        return Err("no request succeeded".into());
    }
    let (tail_ms, pct) = tail(&interactive);
    println!(
        "passes {}; interactive tail is p{pct:.0} of {} samples; bulk samples {}; drain {:.3} s (median)",
        passes.len(),
        interactive.len(),
        bulk.len(),
        median(&passes.iter().map(|p| p.drain).collect::<Vec<_>>())
    );
    outcome.push(
        "wall_s",
        median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>()),
    );
    outcome.push("setup_s", setup_s);
    outcome.push(
        "warm_s",
        median(&passes.iter().map(|p| p.warm).collect::<Vec<_>>()),
    );
    outcome.push("interactive_p50_ms", median(&interactive));
    outcome.push("interactive_tail_ms", tail_ms);
    outcome.push("bulk_p50_ms", median(&bulk));
    Ok(outcome)
}
