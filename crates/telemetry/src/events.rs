//! Streaming NDJSON event export.
//!
//! Every `MetricsSink` callback can be captured as one [`Event`] — the
//! engine's one event record, defined in `wormcast_network::trace` and
//! re-exported here — and serialized lazily: the [`EventLog`] stores
//! events in memory as packed structs and only renders JSON when written
//! out, but it enforces its byte budget *eagerly* by computing the exact
//! serialized line length arithmetically (digit counting), so a bounded log
//! never buffers more than it will emit. Once the budget is exhausted,
//! further events are counted in [`EventLog::dropped`] rather than stored.
//! The log is the first-fit retention policy over that record: it keeps the
//! *oldest* events that fit, where the engine's trace ring keeps the
//! *newest*; both render through the one writer, [`to_ndjson`], whose line
//! schema `wormcast_network::trace` documents. Because
//! the vendored serde facade has no deserializer, this module also ships a
//! minimal flat-object parser ([`parse_line`]) and a whole-file validator
//! ([`validate_ndjson`]) used by the schema tests and CI.

use crate::TELEMETRY_EVENT_BUDGET_DEFAULT;
use std::collections::HashMap;
pub use wormcast_network::trace::{to_ndjson, Event, EventKind};

/// A byte-budgeted, lazily-serialized event buffer.
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Vec<Event>,
    budget: usize,
    bytes_used: usize,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(TELEMETRY_EVENT_BUDGET_DEFAULT)
    }
}

impl EventLog {
    /// An empty log that will retain at most `budget_bytes` of NDJSON
    /// (each line's cost includes its trailing newline).
    pub fn new(budget_bytes: usize) -> Self {
        EventLog {
            events: Vec::new(),
            budget: budget_bytes,
            bytes_used: 0,
            dropped: 0,
        }
    }

    /// Append `e` if it fits the remaining budget; count it as dropped
    /// otherwise. Deterministic: depends only on the event sequence.
    pub fn push(&mut self, e: Event) {
        let cost = e.line_len() + 1;
        if self.bytes_used + cost > self.budget {
            self.dropped += 1;
            return;
        }
        self.bytes_used += cost;
        self.events.push(e);
    }

    /// Events retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events rejected by the budget (plus any carried over by merges).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact NDJSON bytes the retained events will serialize to.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Append all of `other`'s retained events (re-checking this log's
    /// budget) and carry over its drop count.
    pub fn merge(&mut self, other: &EventLog) {
        for e in &other.events {
            self.push(*e);
        }
        self.dropped += other.dropped;
    }

    /// Render the whole log as NDJSON (one line per event, each
    /// newline-terminated).
    pub fn to_ndjson(&self) -> String {
        to_ndjson(&self.events)
    }
}

/// The one NDJSON writer every export path goes through — the experiment
/// binaries' `--events` stream, `wormcast --trace-dump`, profile-event
/// appends and the serve layer's event files all format their lines
/// upstream and land here. Creates parent directories; `append` extends an
/// existing stream instead of replacing it.
///
/// # Errors
/// Propagates directory-creation and write failures.
pub fn write_ndjson(path: &std::path::Path, ndjson: &str, append: bool) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::options()
        .write(true)
        .create(true)
        .append(append)
        .truncate(!append)
        .open(path)?;
    f.write_all(ndjson.as_bytes())
}

/// A scalar value in a parsed NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// An unsigned integer field.
    U64(u64),
    /// A string field.
    Str(String),
}

/// Parse one NDJSON line as a flat JSON object of unsigned-integer and
/// string values (the only shapes the event schema emits). Returns the
/// key/value pairs in file order. The vendored serde facade cannot
/// deserialize, so schema validation uses this parser instead.
pub fn parse_line(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let err = |pos: usize, what: &str| format!("col {pos}: {what}");

    let expect = |pos: &mut usize, b: u8| -> Result<(), String> {
        if bytes.get(*pos) == Some(&b) {
            *pos += 1;
            Ok(())
        } else {
            Err(err(*pos, &format!("expected {:?}", b as char)))
        }
    };

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("col {pos}: expected '\"'", pos = *pos));
        }
        *pos += 1;
        let start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| "invalid utf8".to_string())?;
                    *pos += 1;
                    return Ok(s.to_string());
                }
                b'\\' => return Err(format!("col {pos}: escapes unsupported", pos = *pos)),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
        let start = *pos;
        while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == start {
            return Err(format!("col {pos}: expected digit", pos = *pos));
        }
        std::str::from_utf8(&bytes[start..*pos])
            .unwrap()
            .parse::<u64>()
            .map_err(|e| format!("col {start}: {e}"))
    }

    expect(&mut pos, b'{')?;
    let mut fields = Vec::new();
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            let key = parse_string(bytes, &mut pos)?;
            expect(&mut pos, b':')?;
            let value = if bytes.get(pos) == Some(&b'"') {
                Scalar::Str(parse_string(bytes, &mut pos)?)
            } else {
                Scalar::U64(parse_u64(bytes, &mut pos)?)
            };
            fields.push((key, value));
            match bytes.get(pos) {
                Some(&b',') => pos += 1,
                Some(&b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(err(pos, "expected ',' or '}'")),
            }
        }
    }
    if pos != bytes.len() {
        return Err(err(pos, "trailing bytes"));
    }
    Ok(fields)
}

/// Summary of a validated NDJSON event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdjsonStats {
    /// Lines parsed.
    pub lines: usize,
    /// Distinct `(rep, msg)` pairs seen.
    pub messages: usize,
}

/// Validate a whole NDJSON event export: every line must parse as a flat
/// object with a `t_ps` integer and an `ev` string, and for every
/// `(rep, msg)` pair the timestamps must be non-decreasing in file order
/// (events of one message are emitted chronologically).
pub fn validate_ndjson(text: &str) -> Result<NdjsonStats, String> {
    let mut last_t: HashMap<(u64, u64), u64> = HashMap::new();
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let fields = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let t = match get("t_ps") {
            Some(Scalar::U64(t)) => *t,
            _ => return Err(format!("line {}: missing integer t_ps", i + 1)),
        };
        match get("ev") {
            Some(Scalar::Str(_)) => {}
            _ => return Err(format!("line {}: missing string ev", i + 1)),
        }
        let rep = match get("rep") {
            Some(Scalar::U64(r)) => *r,
            _ => return Err(format!("line {}: missing integer rep", i + 1)),
        };
        if let Some(Scalar::U64(msg)) = get("msg") {
            let prev = last_t.entry((rep, *msg)).or_insert(0);
            if t < *prev {
                return Err(format!(
                    "line {}: t_ps {} went backwards for rep {} msg {} (prev {})",
                    i + 1,
                    t,
                    rep,
                    msg,
                    prev
                ));
            }
            *prev = t;
        }
        lines += 1;
    }
    Ok(NdjsonStats {
        lines,
        messages: last_t.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_event() -> Event {
        Event {
            t_ps: 1_500_000,
            kind: EventKind::ChannelWait,
            rep: 12,
            msg: Some(3),
            node: Some(107),
            ch: Some(0),
            q: Some(4),
            flits: Some(100),
            name: None,
        }
    }

    #[test]
    fn budget_bounds_bytes_and_counts_drops() {
        let e = Event::new(1, EventKind::Inject, 0);
        let cost = e.line_len() + 1;
        let mut log = EventLog::new(cost * 2);
        log.push(e);
        log.push(e);
        log.push(e);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.bytes_used(), cost * 2);
        assert_eq!(log.to_ndjson().len(), log.bytes_used());
    }

    #[test]
    fn rendered_lines_parse_back() {
        let f = full_event();
        let fields = parse_line(&f.line()).expect("line should parse");
        assert_eq!(fields[0], ("t_ps".to_string(), Scalar::U64(1_500_000)));
        assert_eq!(
            fields[1],
            ("ev".to_string(), Scalar::Str("channel_wait".to_string()))
        );
        assert_eq!(fields.last().unwrap().1, Scalar::U64(100));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("{\"a\":1,}").is_err());
        assert!(parse_line("{\"a\":1} ").is_err());
        assert!(parse_line("{\"a\":-1}").is_err());
        assert!(parse_line("{\"a\":1.5}").is_err());
    }

    #[test]
    fn validator_accepts_log_and_rejects_time_travel() {
        let mut log = EventLog::new(1 << 16);
        let mut a = Event::new(10, EventKind::Inject, 0);
        a.msg = Some(0);
        let mut b = Event::new(20, EventKind::Complete, 0);
        b.msg = Some(0);
        log.push(a);
        log.push(b);
        let stats = validate_ndjson(&log.to_ndjson()).expect("valid");
        assert_eq!(stats.lines, 2);
        assert_eq!(stats.messages, 1);

        let mut bad = EventLog::new(1 << 16);
        bad.push(b);
        bad.push(a);
        assert!(validate_ndjson(&bad.to_ndjson()).is_err());
    }

    #[test]
    fn merge_respects_budget_and_carries_drops() {
        let e = Event::new(1, EventKind::Inject, 0);
        let cost = e.line_len() + 1;
        let mut a = EventLog::new(cost);
        a.push(e);
        let mut b = EventLog::new(cost * 2);
        b.push(e);
        b.push(e);
        b.push(e); // dropped in b
        a.merge(&b);
        assert_eq!(a.len(), 1);
        assert_eq!(a.dropped(), 2 + 1); // b's two retained don't fit + b's own drop
    }

    #[test]
    fn trace_sink_output_validates() {
        use wormcast_network::{MessageId, MetricsSink, TraceSink};
        use wormcast_sim::SimTime;
        use wormcast_topology::{ChannelId, NodeId};
        let mut sink = TraceSink::default();
        sink.enable(8);
        sink.on_inject(SimTime::from_ps(5), MessageId(0), NodeId(3));
        sink.on_channel_release(SimTime::from_ps(9), ChannelId(2));
        sink.on_schedule_phase(SimTime::from_ps(9), 4);
        let nd = to_ndjson(sink.trace().records());
        let stats = validate_ndjson(&nd).expect("trace NDJSON should validate");
        assert_eq!(stats.lines, 3);
        assert_eq!(stats.messages, 1);
        assert_eq!(
            nd.lines().nth(1),
            Some("{\"t_ps\":9,\"ev\":\"channel_release\",\"rep\":0,\"ch\":2}")
        );
        assert_eq!(
            nd.lines().nth(2),
            Some("{\"t_ps\":9,\"ev\":\"schedule_phase\",\"rep\":0,\"q\":4}")
        );
    }
}
