//! Deterministic invocation-semantics tests under seeded fault schedules.
//!
//! Both directions of an in-memory link are wrapped in seeded
//! [`FaultyTransport`]s (drop / duplicate / reorder / corrupt), and the
//! client/server pair is driven step-by-step in one thread: every `None`
//! from `try_complete` models one retransmission-timer expiry. The
//! schedule is a pure function of the seeds, so the assertions are exact:
//!
//! - **at-most-once**: every completed request executed the handler
//!   *exactly once*, no matter how many duplicates the network minted or
//!   how many retransmissions the client sent;
//! - **at-least-once**: every request completes (none is ever lost) and
//!   executes *at least once*, with duplicate executions showing up
//!   exactly where the fault schedule says they should.

use rpclens_rpcwire::client::WireClient;
use rpclens_rpcwire::faulty::{FaultConfig, FaultyTransport};
use rpclens_rpcwire::message::{Request, Status};
use rpclens_rpcwire::server::{Handler, Semantics, WireServer};
use rpclens_rpcwire::transport::MemLink;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Handler that records how many times each `(client, request)` executed.
struct CountingHandler {
    executions: Arc<Mutex<HashMap<(u64, u64), u32>>>,
}

impl Handler for CountingHandler {
    fn handle(&mut self, request: &Request) -> (Status, Vec<u8>) {
        *self
            .executions
            .lock()
            .unwrap()
            .entry((request.client_id, request.request_id))
            .or_insert(0) += 1;
        // Echo a transformed body so the client can verify integrity.
        let mut body = request.body.to_vec();
        for b in &mut body {
            *b ^= 0x5A;
        }
        (Status::Ok, body)
    }
}

struct Outcome {
    completed: u32,
    executions: HashMap<(u64, u64), u32>,
    client_retransmissions: u64,
    server_dedup_hits: u64,
    request_faults: rpclens_rpcwire::faulty::FaultStats,
    reply_faults: rpclens_rpcwire::faulty::FaultStats,
}

/// Runs `requests` calls through a faulty link under the given semantics
/// and seed; fully deterministic.
fn run_scenario(semantics: Semantics, seed: u64, requests: u32, faults: FaultConfig) -> Outcome {
    let (client_end, server_end) = MemLink::pair();
    let client_transport = FaultyTransport::new(client_end, faults, seed);
    let server_transport = FaultyTransport::new(server_end, faults, seed ^ 0x5EED);
    let executions = Arc::new(Mutex::new(HashMap::new()));
    let handler = CountingHandler {
        executions: executions.clone(),
    };
    let mut server = WireServer::new(server_transport, handler, semantics);
    let mut client = WireClient::new(client_transport, 0xC11E17, seed);

    let mut completed = 0u32;
    for i in 0..requests {
        let body = format!("request {i} payload payload payload {i}");
        let mut pending = client
            .start_call(100 + (i % 7) as u64, body.as_bytes(), true)
            .unwrap();
        // Up to 64 scheduled timer expiries per call; the lossy schedule
        // recovers within a handful.
        let mut done = false;
        for _round in 0..64 {
            server.poll().unwrap();
            // A held (reordered) reply only rides behind the next reply
            // send; flush so lone in-flight replies still arrive.
            server.transport_mut().flush_held().unwrap();
            match client.try_complete(&pending, Duration::ZERO).unwrap() {
                Some(resp) => {
                    let expected: Vec<u8> = body.bytes().map(|b| b ^ 0x5A).collect();
                    assert_eq!(&resp.body[..], &expected[..], "echo integrity");
                    done = true;
                    break;
                }
                None => {
                    client.retransmit(&mut pending).unwrap();
                    client.transport_mut().flush_held().unwrap();
                }
            }
        }
        assert!(done, "request {i} never completed under seed {seed}");
        completed += 1;
    }
    let request_faults = client.transport_mut().stats();
    let reply_faults = server.transport_mut().stats();
    let executions = executions.lock().unwrap().clone();
    Outcome {
        completed,
        executions,
        client_retransmissions: client.stats().retransmissions,
        server_dedup_hits: server.stats().dedup_hits,
        request_faults,
        reply_faults,
    }
}

#[test]
fn at_most_once_executes_each_request_exactly_once() {
    for seed in [1u64, 7, 42, 1234] {
        let outcome = run_scenario(Semantics::AtMostOnce, seed, 100, FaultConfig::lossy());
        assert_eq!(outcome.completed, 100);
        assert_eq!(
            outcome.executions.len(),
            100,
            "every request executed (seed {seed})"
        );
        for (key, count) in &outcome.executions {
            assert_eq!(
                *count, 1,
                "request {key:?} executed {count} times (seed {seed})"
            );
        }
        // The schedule actually exercised the machinery: faults fired and
        // retransmissions happened, otherwise the exactly-once claim is
        // vacuous.
        assert!(
            outcome.request_faults.dropped > 0 || outcome.reply_faults.dropped > 0,
            "seed {seed} never dropped anything"
        );
        assert!(outcome.client_retransmissions > 0, "seed {seed}");
        assert!(
            outcome.server_dedup_hits > 0,
            "seed {seed} never hit the dedup cache"
        );
    }
}

#[test]
fn at_least_once_never_loses_a_request() {
    for seed in [3u64, 9, 77, 2024] {
        let outcome = run_scenario(Semantics::AtLeastOnce, seed, 100, FaultConfig::lossy());
        assert_eq!(outcome.completed, 100, "seed {seed}");
        assert_eq!(outcome.executions.len(), 100, "seed {seed}");
        let total: u32 = outcome.executions.values().sum();
        for (key, count) in &outcome.executions {
            assert!(*count >= 1, "request {key:?} lost (seed {seed})");
        }
        // Retransmissions + duplicates re-execute under at-least-once.
        assert!(
            total > 100,
            "seed {seed}: lossy schedule should force some re-execution (got {total})"
        );
        assert_eq!(outcome.server_dedup_hits, 0, "no dedup in at-least-once");
    }
}

#[test]
fn scenarios_are_bit_deterministic_per_seed() {
    for semantics in [Semantics::AtMostOnce, Semantics::AtLeastOnce] {
        let a = run_scenario(semantics, 55, 60, FaultConfig::lossy());
        let b = run_scenario(semantics, 55, 60, FaultConfig::lossy());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.client_retransmissions, b.client_retransmissions);
        assert_eq!(a.server_dedup_hits, b.server_dedup_hits);
        assert_eq!(a.request_faults, b.request_faults);
        assert_eq!(a.reply_faults, b.reply_faults);
        // A different seed shifts the schedule.
        let c = run_scenario(semantics, 56, 60, FaultConfig::lossy());
        assert!(
            c.request_faults != a.request_faults
                || c.client_retransmissions != a.client_retransmissions,
            "seed 56 produced the identical schedule"
        );
    }
}

#[test]
fn clean_link_needs_no_retransmissions() {
    let outcome = run_scenario(Semantics::AtMostOnce, 1, 50, FaultConfig::none());
    assert_eq!(outcome.completed, 50);
    assert_eq!(outcome.client_retransmissions, 0);
    assert_eq!(outcome.server_dedup_hits, 0);
    let total: u32 = outcome.executions.values().sum();
    assert_eq!(total, 50);
}
