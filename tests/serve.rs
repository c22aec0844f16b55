//! Serve-daemon integration tests: request coalescing under concurrency
//! (exactly-once computation of every distinct work unit), byte-identical
//! reports versus serial execution, and interactive-over-bulk preemption.

use std::time::{Duration, Instant};

use read_repro::prelude::*;

/// The soak's bulk request: a corner sweep over the first two VGG-16
/// layers with a small sharded Monte-Carlo budget.
fn sweep_request() -> ServeRequest {
    let mut request = ServeRequest::sweep("soak-sweep");
    request.layers = 2;
    request.pixels = 2;
    request.sources = vec![SourceSpec::Baseline, SourceSpec::Read];
    request.corners = vec![CornerSpec::ideal(), CornerSpec::aging_vt(10.0, 0.05)];
    request.typical = true;
    request.mc = Some(McSpec {
        trials: 8,
        seed: 7,
        trials_per_shard: 4,
    });
    request.priority = Some(Priority::Bulk);
    request
}

/// The soak's overlapping TER request: three layers, so its first two
/// layers' histograms are content-addressed duplicates of the sweep's and
/// only the third layer is new work.
fn ter_request() -> ServeRequest {
    let mut request = ServeRequest::ter("soak-ter");
    request.layers = 3;
    request.pixels = 2;
    request.sources = vec![SourceSpec::Baseline, SourceSpec::Read];
    request.corners = vec![CornerSpec::aging_vt(10.0, 0.05)];
    request.priority = Some(Priority::Bulk);
    request
}

fn fresh_units(stats: &CacheStats) -> (u64, u64) {
    (stats.hist_misses, stats.unit_misses)
}

#[test]
fn concurrent_soak_computes_each_distinct_unit_exactly_once() {
    // Serial reference: one daemon, one client, requests back to back.
    // This pins the expected report bytes and the number of distinct
    // fresh computations (6 histograms: 3 layers x 2 sources, shared
    // between the sweep and the TER request via content-addressed keys).
    let serial = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = serial.client();
    let sweep_ref = client.request(&sweep_request()).unwrap();
    let ter_ref = client.request(&ter_request()).unwrap();
    client.shutdown().unwrap();
    serial.join().unwrap();

    let (sweep_hist, sweep_units) = fresh_units(&sweep_ref.stats);
    let (ter_hist, ter_units) = fresh_units(&ter_ref.stats);
    assert_eq!(sweep_hist, 4, "sweep computes 2 layers x 2 sources");
    assert_eq!(
        ter_hist, 2,
        "TER recomputes only its third layer: the first two are served \
         from the store across plan kinds"
    );
    assert!(sweep_units > 0, "sweep has Monte-Carlo shard units");
    assert_eq!(ter_units, 0, "TER has histogram units only");
    let serial_hist = sweep_hist + ter_hist;
    let serial_units = sweep_units + ter_units;

    // Concurrent soak: 6 clients (3 identical sweeps, 3 identical TERs)
    // against one fresh daemon.  Whatever the interleaving — in-flight
    // join, store hit or fresh leader — every distinct unit must be
    // computed exactly once daemon-wide, and every reply must carry the
    // exact serial report bytes.
    let soak = ServeServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            slots: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = soak.addr();
    let replies: Vec<ServeReply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let client = ServeClient::new(addr);
                    let request = if i % 2 == 0 {
                        sweep_request()
                    } else {
                        ter_request()
                    };
                    client.request(&request).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut total_hist = 0;
    let mut total_units = 0;
    for reply in &replies {
        let reference = match reply.kind {
            RequestKind::Sweep => &sweep_ref,
            RequestKind::Ter => &ter_ref,
            RequestKind::Accuracy => unreachable!("soak sends no accuracy requests"),
        };
        assert_eq!(
            reply.report_json, reference.report_json,
            "report bytes must match the serial run"
        );
        let (hist, units) = fresh_units(&reply.stats);
        total_hist += hist;
        total_units += units;
    }
    assert_eq!(
        total_hist, serial_hist,
        "each distinct histogram must be computed exactly once across all \
         6 concurrent requests"
    );
    assert_eq!(
        total_units, serial_units,
        "each distinct Monte-Carlo shard must be computed exactly once \
         across all 6 concurrent requests"
    );

    let daemon = soak.client();
    daemon.shutdown().unwrap();
    soak.join().unwrap();
}

#[test]
fn interactive_request_preempts_an_in_flight_bulk_sweep() {
    // One executor slot, so units strictly serialize: the only way the
    // interactive request can finish first is the gate handing freed slots
    // to interactive units ahead of the bulk queue.
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            slots: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let client = handle.client();

    let (bulk_done, interactive_done, interactive_reply, bulk_reply) =
        std::thread::scope(|scope| {
            // 8 histogram units (4 layers x 2 sources) plus their
            // Monte-Carlo shards, all behind the single slot: after its
            // first store write the sweep still has hundreds of
            // milliseconds of work queued, against the few milliseconds
            // the probe below needs to connect.
            let bulk = scope.spawn(move || {
                let mut request = sweep_request();
                request.layers = 4;
                let reply = ServeClient::new(addr).request(&request).unwrap();
                (Instant::now(), reply)
            });
            // Wait until the bulk sweep is in flight — its first computed
            // artifact has written through to the daemon store — then ask
            // for a small interactive TER on *disjoint* work (different
            // workload seed, so nothing is served by the bulk run's
            // artifacts).
            let deadline = Instant::now() + Duration::from_secs(60);
            while client.stats().unwrap().store_writes == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the bulk sweep never wrote an artifact"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let interactive = scope.spawn(move || {
                let mut request = ServeRequest::ter("interactive-probe");
                request.layers = 1;
                request.pixels = 1;
                request.workload_seed = 0x5EED;
                request.sources = vec![SourceSpec::Baseline];
                request.corners = vec![CornerSpec::ideal()];
                request.priority = Some(Priority::Interactive);
                let reply = ServeClient::new(addr).request(&request).unwrap();
                (Instant::now(), reply)
            });
            let (interactive_done, interactive_reply) = interactive.join().unwrap();
            let (bulk_done, bulk_reply) = bulk.join().unwrap();
            (bulk_done, interactive_done, interactive_reply, bulk_reply)
        });

    assert_eq!(interactive_reply.priority, Priority::Interactive);
    assert_eq!(bulk_reply.priority, Priority::Bulk);
    assert!(
        interactive_done < bulk_done,
        "the single-layer interactive TER must complete while the bulk \
         sweep is still in flight"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}
