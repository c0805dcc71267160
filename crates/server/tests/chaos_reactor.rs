//! Fault-injection regression test for the reactor's coalescing path.
//! Lives in its own integration-test binary because [`FaultPlan`] is
//! process-global and must not race the round-trip tests.

use mnc_runtime::{FaultPlan, MappingRequest};
use mnc_server::reactor::spawn_reactor_on_ephemeral_port;
use mnc_server::WireClient;
use mnc_wire::{encode_request, frame, ErrorCode, WireBody, WireRequest};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;

fn request(seed: u64) -> MappingRequest {
    // Population 64 guarantees well over 32 unique cache-miss
    // evaluations in generation 0 alone, so the armed panic always
    // fires before the search can complete.
    MappingRequest::new("tiny_cnn_cifar10", "dual_test")
        .validation_samples(400)
        .generations(40)
        .population_size(64)
        .seed(seed)
}

/// Sends two identical submits (ids 1 and 2) in one TCP write and returns
/// the answer texts by id.
fn pipelined_pair(addr: std::net::SocketAddr, repeated: &MappingRequest) -> HashMap<u64, String> {
    let mut pipelined = String::new();
    for id in [1u64, 2u64] {
        let text = encode_request(&WireRequest::new(
            id,
            WireBody::Submit(Box::new(repeated.clone())),
        ))
        .unwrap();
        pipelined.push_str(&format!("{}\n{text}", text.len()));
    }
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(pipelined.as_bytes()).unwrap();

    let mut answered = HashMap::new();
    for _ in 0..2 {
        let text = frame::read_frame(&mut reader).unwrap().expect("answered");
        let response = mnc_wire::decode_response(&text).unwrap();
        answered.insert(response.id, text);
    }
    answered
}

/// Coalesced waiters share one encoding of the leader's outcome: their
/// answers match byte for byte apart from the id.
fn assert_same_answer_but_the_id(answered: &HashMap<u64, String>) {
    assert_eq!(
        answered[&1].replacen("\"id\":1,", "\"id\":2,", 1),
        answered[&2],
        "coalesced answers differ beyond their ids"
    );
}

/// A panic in a search leader must answer every coalesced follower with
/// a structured `Internal` error and clean the in-flight index so the
/// same request can be served again.
///
/// The two submissions are pipelined in one TCP write: the event loop
/// decodes and handles every buffered frame before it delivers worker
/// completions, so the second submit deterministically coalesces onto
/// the first while it is still pending. The same holds for a pair that
/// succeeds, whose answers share one encoding of the front.
#[test]
fn leader_panic_answers_coalesced_followers_and_cleans_the_index() {
    let _guard = FaultPlan::guard();
    let handle = spawn_reactor_on_ephemeral_port(None, Default::default()).unwrap();
    let addr = handle.addr();

    FaultPlan::arm_eval_panic(8);
    let repeated = request(9001);
    let answered = pipelined_pair(addr, &repeated);

    // Both the leader and the coalesced follower got the structured
    // error; nobody hung, nobody got a half-answer.
    for id in [1u64, 2u64] {
        match mnc_wire::decode_response(&answered[&id]).unwrap().outcome {
            mnc_wire::WireOutcome::Err(error) => {
                assert_eq!(error.code, ErrorCode::Internal, "id {id}: {error}");
                assert!(
                    error.message.contains("panic"),
                    "id {id} hides the cause: {}",
                    error.message
                );
            }
            mnc_wire::WireOutcome::Ok(_) => panic!("id {id} succeeded through an armed panic"),
        }
    }
    assert_same_answer_but_the_id(&answered);

    // The follower really did coalesce (it would otherwise have run its
    // own — successful — search, failing the assertions above).
    let mut client = WireClient::connect(addr).unwrap();
    let metrics = client.metrics().unwrap();
    let coalesced = metrics
        .metrics
        .counter_value("mnc_inflight_coalesced_total")
        .expect("coalescing counter registered");
    assert!(coalesced >= 1, "the second submit never joined the leader");

    // The in-flight index entry died with the job: an identical request
    // must start a fresh search and succeed, not chain onto a ghost.
    let recovered = client.submit(&repeated).unwrap();
    assert!(!recovered.pareto_front.is_empty());

    // Without a fault, a coalesced pair shares the leader's front.
    let answered = pipelined_pair(addr, &request(9002));
    for id in [1u64, 2u64] {
        match mnc_wire::decode_response(&answered[&id]).unwrap().outcome {
            mnc_wire::WireOutcome::Ok(payload) => {
                assert!(
                    matches!(*payload, mnc_wire::WirePayload::Front(_)),
                    "id {id}"
                );
            }
            mnc_wire::WireOutcome::Err(error) => panic!("id {id} failed: {error}"),
        }
    }
    assert_same_answer_but_the_id(&answered);
    let coalesced_after = client
        .metrics()
        .unwrap()
        .metrics
        .counter_value("mnc_inflight_coalesced_total")
        .expect("coalescing counter registered");
    assert!(
        coalesced_after > coalesced,
        "the second submit never joined the leader"
    );

    handle.shutdown().unwrap();
}
