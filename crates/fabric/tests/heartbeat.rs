//! Ending a worker must not wait out a heartbeat period: `finish` wakes
//! the heartbeat thread instead of joining it mid-sleep, so a fabric run
//! carries no fixed per-worker floor of [`HEARTBEAT_EVERY`].

use rendezvous_fabric::{
    CoordinatorConfig, FabricServer, ServerConfig, WorkerClient, HEARTBEAT_EVERY,
};
use rendezvous_telemetry::{Stopwatch, TelemetrySnapshot};

#[test]
fn finish_returns_well_inside_one_heartbeat_period() {
    let server = FabricServer::start(ServerConfig {
        coordinator: CoordinatorConfig {
            workers: 1,
            chunk: 0,
            lease_timeout_ms: 5_000,
        },
        checkpoint: None,
        resume: Vec::new(),
    })
    .expect("loopback coordinator starts");
    let client = WorkerClient::connect(server.addr(), 1).expect("worker connects");
    // The bound must hold however the threads interleave; the pause
    // only makes the slow case certain — a heartbeat thread already
    // inside its wait, as in any real run by the time a worker ends.
    std::thread::sleep(HEARTBEAT_EVERY / 10);
    let watch = Stopwatch::start();
    client
        .finish(TelemetrySnapshot::empty())
        .expect("final frame is delivered");
    let took = u128::from(watch.elapsed_ms());
    assert!(
        took * 4 < HEARTBEAT_EVERY.as_millis(),
        "finish took {took} ms, a heartbeat period is {} ms",
        HEARTBEAT_EVERY.as_millis()
    );
    let outcome = server.join().expect("a run with no sweeps completes");
    assert!(outcome.sweeps.is_empty());
}
