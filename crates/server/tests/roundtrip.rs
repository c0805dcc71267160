//! Integration tests of the wire front-end: bit-identical round trips,
//! hardened error paths, and archive persistence across a simulated
//! restart.

use mnc_runtime::{BatchConfig, MappingRequest, MappingService};
use mnc_server::{
    spawn_reactor_on_ephemeral_port, ClientError, ReactorConfig, ReactorServer, RequestLimits,
    ServerConfig, WireClient,
};
use mnc_wire::frame;
use mnc_wire::{
    encode_request, encode_response, CacheStats, ErrorCode, WireBatch, WireBody, WireOutcome,
    WirePayload, WireRequest, WireResponse, WireResult,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn small_request() -> MappingRequest {
    MappingRequest::new("tiny_cnn_cifar10", "dual_test")
        .validation_samples(300)
        .generations(2)
        .population_size(8)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mnc_server_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn wire_batch_coalesces_and_reports_per_request_results() {
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();

    let requests = vec![
        small_request(),
        small_request(),
        MappingRequest::new("no_such_model", "dual_test"),
    ];
    let report = client
        .submit_batch(WireBatch {
            requests,
            config: BatchConfig::new().max_concurrent(2),
        })
        .unwrap();

    assert_eq!(report.responses.len(), 3);
    assert_eq!(report.stats.coalesced_requests, 1);
    let leader = match &report.responses[0] {
        WireResult::Ok(response) => response,
        WireResult::Err(error) => panic!("leader failed: {error}"),
    };
    match &report.responses[1] {
        WireResult::Ok(duplicate) => {
            assert_eq!(duplicate.pareto_front, leader.pareto_front);
            assert_eq!(duplicate.stats, leader.stats);
        }
        WireResult::Err(error) => panic!("duplicate failed: {error}"),
    }
    match &report.responses[2] {
        WireResult::Err(error) => assert_eq!(error.code, ErrorCode::UnknownModel),
        WireResult::Ok(_) => panic!("unknown model was answered"),
    }

    handle.shutdown().unwrap();
}

/// Sends a raw payload in one frame and returns the response text.
fn raw_frame_text(addr: SocketAddr, payload: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    frame::write_frame(&mut writer, payload).unwrap();
    frame::read_frame(&mut reader).unwrap().expect("answered")
}

/// Sends a raw payload in one frame and returns the decoded response.
fn raw_frame_exchange(addr: SocketAddr, payload: &str) -> mnc_wire::WireResponse {
    mnc_wire::decode_response(&raw_frame_text(addr, payload)).unwrap()
}

#[test]
fn malformed_json_gets_a_structured_error_and_keeps_the_connection() {
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Malformed JSON in a valid frame → MalformedRequest, id 0.
    frame::write_frame(&mut writer, "{\"version\": 1, \"id\": oops").unwrap();
    let response =
        mnc_wire::decode_response(&frame::read_frame(&mut reader).unwrap().unwrap()).unwrap();
    assert_eq!(response.id, 0);
    match response.outcome {
        WireOutcome::Err(error) => assert_eq!(error.code, ErrorCode::MalformedRequest),
        WireOutcome::Ok(_) => panic!("malformed JSON accepted"),
    }

    // A shape mismatch (valid JSON, wrong fields) is also structured.
    frame::write_frame(&mut writer, "{\"hello\": 1}").unwrap();
    let response =
        mnc_wire::decode_response(&frame::read_frame(&mut reader).unwrap().unwrap()).unwrap();
    match response.outcome {
        WireOutcome::Err(error) => assert_eq!(error.code, ErrorCode::MalformedRequest),
        WireOutcome::Ok(_) => panic!("shape mismatch accepted"),
    }

    // The same connection still serves well-formed requests.
    frame::write_frame(
        &mut writer,
        &mnc_wire::encode_request(&mnc_wire::WireRequest::new(5, mnc_wire::WireBody::Ping))
            .unwrap(),
    )
    .unwrap();
    let response =
        mnc_wire::decode_response(&frame::read_frame(&mut reader).unwrap().unwrap()).unwrap();
    assert_eq!(response.id, 5);
    assert!(matches!(
        response.outcome.into_result(),
        Ok(mnc_wire::WirePayload::Pong)
    ));

    handle.shutdown().unwrap();
}

#[test]
fn corrupt_framing_is_answered_before_the_connection_closes() {
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A header that is not a number desynchronises the stream: the
    // server answers once, structurally, then closes.
    use std::io::Write;
    writer.write_all(b"not-a-length\n").unwrap();
    writer.flush().unwrap();
    let text = frame::read_frame(&mut reader).unwrap().expect("answered");
    let response = mnc_wire::decode_response(&text).unwrap();
    match response.outcome {
        WireOutcome::Err(error) => assert_eq!(error.code, ErrorCode::MalformedRequest),
        WireOutcome::Ok(_) => panic!("corrupt framing accepted"),
    }
    assert!(
        frame::read_frame(&mut reader).unwrap().is_none(),
        "desynchronised connection must close after the error"
    );

    handle.shutdown().unwrap();
}

#[test]
fn version_and_budget_violations_are_structured() {
    let limits = RequestLimits {
        max_batch_requests: 2,
        max_evaluations: 100,
        max_validation_samples: 500,
    };
    let handle = spawn_reactor_on_ephemeral_port(None, limits).unwrap();
    let addr = handle.addr();
    let mut client = WireClient::connect(addr).unwrap();

    // Unsupported protocol version (raw, the client always sends v1).
    let response = raw_frame_exchange(addr, "{\"version\": 2, \"id\": 9, \"body\": \"Ping\"}");
    assert_eq!(response.id, 9);
    match response.outcome {
        WireOutcome::Err(error) => assert_eq!(error.code, ErrorCode::UnsupportedVersion),
        WireOutcome::Ok(_) => panic!("future version accepted"),
    }

    // Over the evaluation cap (2 × 8 = 16 ≤ 100 is fine; 20 × 8 = 160 is
    // not) — unless the request's own max_evaluations caps it back.
    match client.submit(&small_request().generations(20)) {
        Err(ClientError::Server(error)) => assert_eq!(error.code, ErrorCode::OverBudget),
        other => panic!("over-budget submit gave {other:?}"),
    }
    client
        .submit(&small_request().generations(20).max_evaluations(50))
        .expect("explicitly capped request is within budget");

    // Over the validation-sample cap.
    match client.submit(&small_request().validation_samples(501)) {
        Err(ClientError::Server(error)) => assert_eq!(error.code, ErrorCode::OverBudget),
        other => panic!("over-sample submit gave {other:?}"),
    }

    // Over the batch-size cap: the whole command is rejected.
    match client.submit_batch(WireBatch {
        requests: vec![small_request(); 3],
        config: BatchConfig::default(),
    }) {
        Err(ClientError::Server(error)) => assert_eq!(error.code, ErrorCode::OverBudget),
        other => panic!("oversized batch gave {other:?}"),
    }

    // A mixed batch answers over-budget members structurally and still
    // serves the rest.
    let report = client
        .submit_batch(WireBatch {
            requests: vec![small_request(), small_request().validation_samples(501)],
            config: BatchConfig::default(),
        })
        .unwrap();
    assert!(matches!(report.responses[0], WireResult::Ok(_)));
    match &report.responses[1] {
        WireResult::Err(error) => assert_eq!(error.code, ErrorCode::OverBudget),
        WireResult::Ok(_) => panic!("over-budget batch member was served"),
    }
    // Batch accounting covers the whole batch, not just the admitted
    // members — the rejected request counts in `requests` but ran no
    // search.
    assert_eq!(report.stats.requests, report.responses.len());
    assert_eq!(report.stats.unique_requests, 1);

    handle.shutdown().unwrap();
}

#[test]
fn persisted_archive_replays_the_warm_request_after_restart() {
    let dir = temp_dir("persist");
    let limits = RequestLimits::default();

    // First life: answer two requests (filling the archive), persist,
    // then run a warm-started request.
    let handle = spawn_reactor_on_ephemeral_port(Some(dir.clone()), limits).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    client.submit(&small_request()).unwrap();
    client.submit(&small_request().seed(77)).unwrap();
    let persisted = client.persist().unwrap();
    assert!(persisted.genomes > 0);

    let warm_request = small_request()
        .seed(4242)
        .generations(5)
        .stall_generations(2)
        .warm_start(true);
    let warm_before = client.submit(&warm_request).unwrap();
    assert!(warm_before.stats.warm_start_seeds > 0);
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Second life: the archive loads from disk, so the same warm request
    // seeds identically — same evaluation count, bit-identical front
    // ("no more evaluations / no worse front" with equality).
    let handle = spawn_reactor_on_ephemeral_port(Some(dir.clone()), limits).unwrap();
    assert!(handle.service().elite_archive().len() >= persisted.genomes);
    let mut client = WireClient::connect(handle.addr()).unwrap();
    let warm_after = client.submit(&warm_request).unwrap();
    assert_eq!(warm_after.stats.evaluations, warm_before.stats.evaluations);
    assert_eq!(
        warm_after.stats.warm_start_seeds,
        warm_before.stats.warm_start_seeds
    );
    assert_eq!(warm_after.pareto_front, warm_before.pareto_front);
    assert_eq!(warm_after.best_by_objective, warm_before.best_by_objective);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_carry_cache_pipeline_and_archive_counters() {
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();

    client.submit(&small_request()).unwrap();
    // A verbatim repeat replays from the response cache on the fast path
    // — no second search runs for it.
    client.submit(&small_request()).unwrap();
    // A warm-started variant is a different request: it searches.
    client.submit(&small_request().warm_start(true)).unwrap();
    let stats = client.stats().unwrap();

    assert_eq!(stats.pipeline.searches_run, 2);
    assert_eq!(
        stats.pipeline.fast_path_answered, 1,
        "the verbatim repeat was answered without searching"
    );
    assert_eq!(stats.pipeline.stages.len(), mnc_runtime::STAGE_COUNT);
    assert!(stats.pipeline.stages.iter().all(|s| s.errors == 0));
    assert_eq!(
        stats.cache,
        CacheStats::default(),
        "the service keeps no cross-request evaluation cache"
    );
    assert!(stats.archive_genomes > 0);

    // Persist without --archive-dir is a structured persistence error.
    match client.persist() {
        Err(ClientError::Server(error)) => assert_eq!(error.code, ErrorCode::Persistence),
        other => panic!("persist without archive dir gave {other:?}"),
    }

    handle.shutdown().unwrap();
}

#[test]
fn reactor_submit_and_batch_are_bit_identical_to_in_process() {
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();

    let request = small_request();
    let over_wire = client.submit(&request).unwrap();
    let in_process = MappingService::new().submit(&request).unwrap();
    assert_eq!(over_wire.pareto_front, in_process.pareto_front);
    assert_eq!(over_wire.best_by_objective, in_process.best_by_objective);
    for (a, b) in over_wire.pareto_front.iter().zip(&in_process.pareto_front) {
        assert_eq!(a.result.objective.to_bits(), b.result.objective.to_bits());
        assert_eq!(
            a.result.average_energy_mj.to_bits(),
            b.result.average_energy_mj.to_bits()
        );
        assert_eq!(
            a.result.average_latency_ms.to_bits(),
            b.result.average_latency_ms.to_bits()
        );
    }
    // The per-request pipeline trace crossed the wire intact.
    assert_eq!(over_wire.stats.evaluations, in_process.stats.evaluations);
    assert!(over_wire.stats.stage_micros_total() > 0.0);

    // A verbatim repeat is a response-cache replay, sent from the cached
    // encoding: byte for byte the frame the encoder writes for it.
    let text = encode_request(&WireRequest::new(
        u64::MAX,
        WireBody::Submit(Box::new(request.clone())),
    ))
    .unwrap();
    let replay = raw_frame_text(handle.addr(), &text);
    let encoded = encode_response(&WireResponse::ok(
        u64::MAX,
        WirePayload::Front(over_wire.clone()),
    ))
    .unwrap();
    assert_eq!(replay, encoded);

    // Batches run on the search-worker pool and coalesce duplicates.
    let report = client
        .submit_batch(WireBatch {
            requests: vec![
                small_request().seed(5),
                small_request().seed(5),
                MappingRequest::new("no_such_model", "dual_test"),
            ],
            config: BatchConfig::new().max_concurrent(2),
        })
        .unwrap();
    assert_eq!(report.responses.len(), 3);
    assert_eq!(report.stats.coalesced_requests, 1);
    assert!(matches!(report.responses[0], WireResult::Ok(_)));
    assert!(matches!(report.responses[1], WireResult::Ok(_)));
    match &report.responses[2] {
        WireResult::Err(error) => assert_eq!(error.code, ErrorCode::UnknownModel),
        WireResult::Ok(_) => panic!("unknown model was answered"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn reactor_answers_a_hostile_nesting_depth_and_keeps_serving() {
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();
    // 100,000 openers once overflowed the recursive parser's stack and
    // aborted the whole process. Whether they are the whole frame or sit
    // in a field the decoder skips, the answer is structured.
    let openers = "[".repeat(100_000);
    for (payload, nesting) in [
        (openers.clone(), false),
        (
            format!("{{\"version\":1,\"id\":5,\"extra\":{openers}"),
            true,
        ),
    ] {
        let response = raw_frame_exchange(handle.addr(), &payload);
        assert_eq!(response.id, 0);
        match response.outcome {
            WireOutcome::Err(error) => {
                assert_eq!(error.code, ErrorCode::MalformedRequest);
                assert_eq!(
                    error.message.contains("nesting"),
                    nesting,
                    "{}",
                    error.message
                );
            }
            WireOutcome::Ok(_) => panic!("a hostile frame was accepted"),
        }
    }
    let mut client = WireClient::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn reactor_sheds_searches_with_a_structured_overloaded_error() {
    // A zero-depth queue admits no search jobs at all: every fast-path
    // miss is shed. Fast-path work (ping, catalogues) must keep flowing.
    let server = ReactorServer::bind(
        ServerConfig::default(),
        ReactorConfig {
            queue_depth: 0,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();

    match client.submit(&small_request()) {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.code, ErrorCode::Overloaded);
            assert!(!error.message.is_empty(), "shed reason travels to clients");
        }
        other => panic!("shed submit gave {other:?}"),
    }
    // Shedding is per-request, not per-connection: the same connection
    // still answers inline work.
    client.ping().expect("connection survived the shed");
    assert!(!client.models().unwrap().is_empty());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn reactor_isolates_a_slow_reader() {
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();
    let addr = handle.addr();

    // The slow reader floods pings and reads none of the responses.
    let slow = TcpStream::connect(addr).unwrap();
    let mut slow_writer = slow.try_clone().unwrap();
    const FLOOD: u64 = 64;
    for id in 1..=FLOOD {
        let text =
            mnc_wire::encode_request(&mnc_wire::WireRequest::new(id, mnc_wire::WireBody::Ping))
                .unwrap();
        frame::write_frame(&mut slow_writer, &text).unwrap();
    }

    // A well-behaved client on another connection is answered promptly —
    // the reactor never blocks on the slow reader's socket.
    let mut client = WireClient::connect(addr).unwrap();
    let started = std::time::Instant::now();
    client.ping().expect("fast client answered");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "fast client stalled behind a slow reader"
    );

    // Once the slow reader drains, every buffered response is intact and
    // in order.
    let mut slow_reader = BufReader::new(slow);
    for id in 1..=FLOOD {
        let text = frame::read_frame(&mut slow_reader)
            .unwrap()
            .expect("buffered pong delivered");
        let response = mnc_wire::decode_response(&text).unwrap();
        assert_eq!(response.id, id);
        assert!(matches!(
            response.outcome.into_result(),
            Ok(mnc_wire::WirePayload::Pong)
        ));
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn reactor_shutdown_drains_an_active_batch_before_teardown() {
    // Regression: a Shutdown racing an in-flight batch used to tear the
    // connection down before the batch response was written. The drain
    // phase must deliver the queued batch first.
    let handle = spawn_reactor_on_ephemeral_port(None, RequestLimits::default()).unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Queue a batch, then shut down on the same connection before the
    // batch can possibly have finished.
    let batch = mnc_wire::WireRequest::new(
        1,
        mnc_wire::WireBody::SubmitBatch(WireBatch {
            requests: vec![
                small_request().seed(11),
                small_request().seed(12),
                small_request().seed(13),
            ],
            config: BatchConfig::new().max_concurrent(2),
        }),
    );
    frame::write_frame(&mut writer, &mnc_wire::encode_request(&batch).unwrap()).unwrap();
    let shutdown = mnc_wire::WireRequest::new(2, mnc_wire::WireBody::Shutdown);
    frame::write_frame(&mut writer, &mnc_wire::encode_request(&shutdown).unwrap()).unwrap();

    // The shutdown acknowledgement comes back immediately; the batch
    // report follows once the workers drain.
    let mut got_batch = false;
    let mut got_shutdown = false;
    while !(got_batch && got_shutdown) {
        let text = frame::read_frame(&mut reader)
            .unwrap()
            .expect("drain delivered every pending response");
        let response = mnc_wire::decode_response(&text).unwrap();
        match response.id {
            1 => {
                match response.outcome.into_result().expect("batch succeeded") {
                    mnc_wire::WirePayload::Batch(report) => {
                        assert_eq!(report.responses.len(), 3);
                        assert!(report
                            .responses
                            .iter()
                            .all(|r| matches!(r, WireResult::Ok(_))));
                    }
                    other => panic!("batch answered with {other:?}"),
                }
                got_batch = true;
            }
            2 => {
                assert!(matches!(
                    response.outcome.into_result(),
                    Ok(mnc_wire::WirePayload::ShuttingDown)
                ));
                got_shutdown = true;
            }
            other => panic!("unexpected response id {other}"),
        }
    }

    handle.join().unwrap();
}
