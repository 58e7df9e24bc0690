//! Server determinism suite: byte-identical cold/warm answers, run-once
//! coalescing under concurrency, and correct (if colder) answers under
//! cache eviction — the three properties the serving contract promises.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use wormcast_serve::{frame, net, Provenance, Server};
use wormcast_simcheck::ScenarioRequest;
use wormcast_telemetry::MetricId;

/// A small DB broadcast on a 4×4 mesh, written as wire JSON — the tests
/// double as documentation of the request format.
fn req_json(alg: &str, length: u64, events: bool) -> String {
    format!(
        r#"{{"v":1,"reps":1,"jobs":1,"shards":1,"outputs":{{"events":{events}}},"scenario":{{"seed":7,"index":0,"topo":{{"Mesh":[4,4]}},"mode":"PathHolding","workload":{{"Single":{{"alg":"{alg}","src":0,"length":{length}}}}},"fail_stop_rate":0.0,"transient_rate":0.0,"watchdog_us":0.0}}}}"#
    )
}

fn request(alg: &str, length: u64, events: bool) -> ScenarioRequest {
    ScenarioRequest::from_json(&req_json(alg, length, events)).expect("valid request")
}

/// Everything after the provenance line (which differs by design).
fn body_after_provenance(rendered: &str) -> &str {
    rendered.split_once('\n').expect("provenance line").1
}

#[test]
fn cold_then_warm_frames_are_byte_identical() {
    let server = Server::new(8);
    let req = request("Db", 8, true);
    let cold = server.respond(&req);
    let warm = server.respond(&req);
    assert_eq!(cold.provenance, Provenance::CacheMiss);
    assert_eq!(warm.provenance, Provenance::CacheHit);
    assert!(cold.run.frame.starts_with("{\"result\":"));
    assert_eq!(cold.run.frame, warm.run.frame);
    assert_eq!(
        body_after_provenance(&cold.render()),
        body_after_provenance(&warm.render()),
        "events + frame replay byte-identically"
    );
    assert!(
        cold.run
            .frame
            .contains(&format!("\"{:016x}\"", req.config_hash())),
        "frame echoes the request's config hash"
    );
    assert_eq!(server.metric(MetricId::ServeRequests), 2);
    assert_eq!(server.metric(MetricId::ServeRunsExecuted), 1);
    assert_eq!(server.metric(MetricId::ServeCacheHits), 1);
    assert_eq!(server.metric(MetricId::ServeCoalesced), 0);
}

#[test]
fn output_selection_shares_one_cached_run() {
    // `outputs` is excluded from the config hash, so an events-off request
    // must prime the cache for a later events-on request (and vice versa).
    let server = Server::new(8);
    let quiet = request("Db", 8, false);
    let loud = request("Db", 8, true);
    assert_eq!(quiet.config_hash(), loud.config_hash());
    let first = server.respond(&quiet);
    assert!(!first.include_events);
    assert!(
        !first.render().contains("\"ev\":\"deliver\""),
        "quiet answer carries no event lines"
    );
    let second = server.respond(&loud);
    assert_eq!(second.provenance, Provenance::CacheHit);
    assert!(second.include_events);
    assert!(!second.run.events_ndjson.is_empty());
    assert_eq!(server.metric(MetricId::ServeRunsExecuted), 1);

    // Provenance + events form a valid NDJSON event stream (the frame line
    // is the only non-event line of a response).
    let rendered = second.render();
    let head: String = {
        let mut lines: Vec<&str> = rendered.lines().collect();
        let last = lines.pop().expect("frame line");
        assert!(frame::is_frame(last));
        lines.iter().map(|l| format!("{l}\n")).collect()
    };
    let stats = wormcast_telemetry::events::validate_ndjson(&head).expect("valid event stream");
    assert!(stats.lines > 1, "provenance plus engine events");
}

#[test]
fn concurrent_identical_requests_run_the_engine_once() {
    let server = Arc::new(Server::new(8));
    let req = request("Db", 16, false);
    let mut handles = Vec::new();
    for _ in 0..8 {
        let server = Arc::clone(&server);
        let req = req.clone();
        handles.push(std::thread::spawn(move || server.respond(&req)));
    }
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first = &responses[0].run.frame;
    for r in &responses {
        assert_eq!(&r.run.frame, first, "every client gets identical bytes");
    }
    assert_eq!(server.metric(MetricId::ServeRequests), 8);
    assert_eq!(
        server.metric(MetricId::ServeRunsExecuted),
        1,
        "identical concurrent requests coalesce onto one engine run"
    );
    assert_eq!(
        server.metric(MetricId::ServeCacheHits) + server.metric(MetricId::ServeCoalesced),
        7
    );
}

#[test]
fn eviction_re_runs_but_reproduces_identical_bytes() {
    let server = Server::new(1);
    let a = request("Db", 8, false);
    let b = request("Db", 24, false);
    assert_ne!(a.config_hash(), b.config_hash());
    let first = server.respond(&a);
    assert_eq!(first.provenance, Provenance::CacheMiss);
    assert_eq!(server.cached_runs(), 1);
    let other = server.respond(&b); // evicts `a` (FIFO, capacity 1)
    assert_eq!(other.provenance, Provenance::CacheMiss);
    assert_eq!(server.cached_runs(), 1);
    let again = server.respond(&a);
    assert_eq!(
        again.provenance,
        Provenance::CacheMiss,
        "evicted entries re-run"
    );
    assert_eq!(
        first.run.frame, again.run.frame,
        "the re-run reproduces the evicted answer byte-for-byte"
    );
    assert_eq!(server.metric(MetricId::ServeRunsExecuted), 3);
    assert_ne!(other.run.frame, first.run.frame);
}

#[test]
fn failing_scenarios_answer_with_cached_error_frames() {
    // EDN requires a 3-D mesh; on a 4×4 mesh the engine panics, measure
    // catches it, and the server renders (and caches) an error frame — the
    // process must survive and stay deterministic.
    let server = Server::new(4);
    let bad = request("Edn", 8, false);
    let first = server.respond(&bad);
    assert!(first.run.frame.starts_with("{\"error\":"));
    assert!(first.run.frame.contains("\"config_hash\""));
    let second = server.respond(&bad);
    assert_eq!(
        second.provenance,
        Provenance::CacheHit,
        "deterministic failures are cached like results"
    );
    assert_eq!(first.run.frame, second.run.frame);
    assert_eq!(server.metric(MetricId::ServeRunsExecuted), 1);
}

#[test]
fn default_schedule_injection_changes_the_hash_but_respects_embedded_ones() {
    let sched = wormcast_sim::Schedule {
        ramp: Some(wormcast_sim::LoadRamp::linear(0.5, 2.0, 40.0)),
        ..Default::default()
    };
    let plain = Server::new(4);
    let scheduled = Server::new(4).with_default_schedule(sched.clone());
    let req = request("Db", 8, false);

    // A schedule-less request picks up the server default *before* hashing:
    // the two servers answer under different config hashes, so a scheduled
    // and an unscheduled answer can never alias in a shared cache.
    let bare = plain.respond(&req);
    let injected = scheduled.respond(&req);
    assert!(
        bare.run.frame.starts_with("{\"result\":"),
        "{}",
        bare.run.frame
    );
    assert!(
        injected.run.frame.starts_with("{\"result\":"),
        "{}",
        injected.run.frame
    );
    assert_ne!(
        bare.config_hash, injected.config_hash,
        "injected schedule must be part of the request identity"
    );

    // A request carrying its own schedule is untouched — both servers see
    // the same identity and produce byte-identical frames.
    let mut owned = request("Db", 8, false);
    owned.scenario.schedule = Some(sched);
    let a = plain.respond(&owned);
    let b = scheduled.respond(&owned);
    assert_eq!(a.config_hash, b.config_hash);
    assert_eq!(a.run.frame, b.run.frame);
    assert_eq!(
        owned.config_hash(),
        injected.config_hash,
        "injection is equivalent to the client embedding the schedule"
    );
}

#[test]
fn malformed_lines_are_answered_in_band() {
    let server = Server::new(4);
    let mut out = Vec::new();
    net::respond_line(&server, "{definitely not a request", &mut out).expect("write");
    let s = String::from_utf8(out).expect("utf8");
    assert!(s.starts_with("{\"error\":{\"detail\":"));
    assert!(s.ends_with('\n'));
    assert_eq!(
        server.metric(MetricId::ServeRequests),
        0,
        "unparseable lines never reach the routing core"
    );
}

#[test]
fn tcp_round_trip_streams_events_then_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::new(Server::new(8));
    let _workers = net::serve(listener, Arc::clone(&server), 2);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let line = req_json("Db", 8, true);

    let mut frames = Vec::new();
    let mut provenances = Vec::new();
    for _ in 0..2 {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        writer.flush().expect("flush");
        let mut event_lines = 0usize;
        let mut buf = String::new();
        loop {
            buf.clear();
            assert_ne!(
                reader.read_line(&mut buf).expect("read"),
                0,
                "server closed mid-response"
            );
            let l = buf.trim_end();
            if frame::is_frame(l) {
                frames.push(l.to_string());
                break;
            }
            if event_lines == 0 {
                provenances.push(l.to_string());
            }
            event_lines += 1;
        }
        assert!(event_lines > 1, "provenance plus engine events streamed");
    }
    assert_eq!(frames[0], frames[1], "cold and warm TCP frames identical");
    assert!(provenances[0].contains("\"ev\":\"cache_miss\""));
    assert!(provenances[1].contains("\"ev\":\"cache_hit\""));

    // The TCP answer and the in-process answer are the same bytes.
    let direct = server.respond(&ScenarioRequest::from_json(&line).expect("parse"));
    assert_eq!(direct.run.frame, frames[0]);
}

#[test]
fn qab_requests_are_served_deterministically() {
    // The fifth algorithm over the wire: a QAB scenario request is accepted,
    // keys its own cache slot (distinct from AB's for the otherwise-identical
    // scenario), and replays byte-identically from cache.
    let server = Server::new(8);
    let req = request("Qab", 8, true);
    assert_ne!(
        req.config_hash(),
        request("Ab", 8, true).config_hash(),
        "QAB and AB must not share a cache key"
    );
    let cold = server.respond(&req);
    let warm = server.respond(&req);
    assert_eq!(cold.provenance, Provenance::CacheMiss);
    assert_eq!(warm.provenance, Provenance::CacheHit);
    assert_eq!(cold.run.frame, warm.run.frame);
    assert_eq!(
        body_after_provenance(&cold.render()),
        body_after_provenance(&warm.render())
    );
    assert!(
        cold.run
            .frame
            .contains(&format!("\"{:016x}\"", req.config_hash())),
        "frame echoes the QAB request's config hash"
    );
    assert_eq!(server.metric(MetricId::ServeRunsExecuted), 1);
}

#[test]
fn shards_field_is_hashed_but_selects_nothing() {
    // `shards` stays in the wire schema and the config hash, but every
    // request runs on the one engine: a `"shards":4` request answers with
    // exactly the summary and event stream of its `"shards":1` twin.
    fn summary(frame: &str) -> &str {
        let start = frame.find("\"summary\":").expect("frame carries a summary");
        let end = frame[start..].find('}').expect("summary object closes");
        &frame[start..=start + end]
    }
    let server = Server::new(8);
    for alg in ["Db", "Qab"] {
        let one = request(alg, 8, true);
        let four = ScenarioRequest::from_json(
            &req_json(alg, 8, true).replace("\"shards\":1", "\"shards\":4"),
        )
        .expect("valid request");
        assert_eq!(four.shards, 4);
        assert_ne!(one.config_hash(), four.config_hash(), "shards is hashed");
        let a = server.respond(&one);
        let b = server.respond(&four);
        assert_eq!(b.provenance, Provenance::CacheMiss, "{alg}: own cache slot");
        assert_eq!(summary(&a.run.frame), summary(&b.run.frame), "{alg}");
        assert_eq!(a.run.events_ndjson, b.run.events_ndjson, "{alg}");
        assert!(b.run.frame.contains("\"shards\":4"), "{alg}: shards echoed");
    }
}
