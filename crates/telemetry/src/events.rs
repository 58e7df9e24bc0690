//! Streaming NDJSON event export.
//!
//! Every `MetricsSink` callback can be captured as one [`Event`] — a flat
//! record of small integers — and serialized lazily: the [`EventLog`] stores
//! events in memory as packed structs and only renders JSON when written
//! out, but it enforces its byte budget *eagerly* by computing the exact
//! serialized line length arithmetically (digit counting), so a bounded log
//! never buffers more than it will emit. Once the budget is exhausted,
//! further events are counted in [`EventLog::dropped`] rather than stored.
//!
//! The line schema is fixed and order-stable:
//!
//! ```json
//! {"t_ps":1500000,"ev":"deliver","rep":3,"msg":0,"node":12,"flits":100}
//! ```
//!
//! Keys appear in the order `t_ps, ev, rep, msg, node, ch, q, flits, name`;
//! absent fields are omitted entirely (never `null`). All values are
//! unsigned integers except `ev`, which is one of the [`EventKind`] names,
//! and `name`, a static label used by profiling events. Because
//! the vendored serde facade has no deserializer, this module also ships a
//! minimal flat-object parser ([`parse_line`]) and a whole-file validator
//! ([`validate_ndjson`]) used by the schema tests and CI.

use crate::TELEMETRY_EVENT_BUDGET_DEFAULT;
use std::collections::HashMap;
use std::fmt::Write as _;
use wormcast_network::trace::{Trace, TraceKind, TraceRecord};

/// What a line records; mirrors the `MetricsSink` callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Injection requested.
    Inject,
    /// Injection port granted.
    PortGrant,
    /// Start-up latency elapsed.
    StartupDone,
    /// Header finished crossing a channel.
    Header,
    /// Header joined a busy channel's FIFO.
    ChannelWait,
    /// Channel granted.
    ChannelGrant,
    /// Channel released.
    ChannelRelease,
    /// Payload copy absorbed.
    Deliver,
    /// Message complete.
    Complete,
    /// A link went down (fault injection).
    LinkDown,
    /// A link came back up (end of a transient outage).
    LinkUp,
    /// An adaptive header steered around a faulted channel.
    Reroute,
    /// The delivery watchdog retired a stalled message.
    Stalled,
    /// The simcheck invariant checker recorded a violation (the line only
    /// locates it; the violation text lives in the simcheck report).
    InvariantViolation,
    /// A profiling phase span opened (`name` carries the span name, `q`
    /// its pre-order sequence number).
    SpanOpen,
    /// A profiling phase span closed.
    SpanClose,
    /// A deterministic metric's final value (`name` carries the metric id,
    /// `q` the value).
    MetricSnapshot,
    /// A serve request was answered from the completed-result cache (`q`
    /// carries the request's config hash).
    CacheHit,
    /// A serve request missed the cache and started a fresh engine run
    /// (`q` carries the request's config hash).
    CacheMiss,
    /// A serve request joined an identical in-flight run instead of
    /// starting its own (`q` carries the request's config hash).
    Coalesced,
    /// A scenario-schedule phase boundary was crossed (`q` carries the
    /// phase number).
    SchedulePhase,
}

impl EventKind {
    /// Stable wire name for the `ev` field.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Inject => "inject",
            EventKind::PortGrant => "port_grant",
            EventKind::StartupDone => "startup_done",
            EventKind::Header => "header",
            EventKind::ChannelWait => "channel_wait",
            EventKind::ChannelGrant => "channel_grant",
            EventKind::ChannelRelease => "channel_release",
            EventKind::Deliver => "deliver",
            EventKind::Complete => "complete",
            EventKind::LinkDown => "link_down",
            EventKind::LinkUp => "link_up",
            EventKind::Reroute => "reroute",
            EventKind::Stalled => "stalled",
            EventKind::InvariantViolation => "invariant_violation",
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::MetricSnapshot => "metric_snapshot",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::Coalesced => "coalesced",
            EventKind::SchedulePhase => "schedule_phase",
        }
    }
}

/// One observable engine event, packed for lazy serialization.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Simulation time in picoseconds.
    pub t_ps: u64,
    /// What happened.
    pub kind: EventKind,
    /// Replication index the event came from.
    pub rep: u64,
    /// Message involved, if any.
    pub msg: Option<u64>,
    /// Node involved, if any.
    pub node: Option<u32>,
    /// Channel involved, if any.
    pub ch: Option<u32>,
    /// FIFO depth (for `channel_wait`) or undelivered destination count
    /// (for `stalled`), if any.
    pub q: Option<u64>,
    /// Payload flits (for `deliver`), if any.
    pub flits: Option<u64>,
    /// Static label (span name or metric id) for profiling events, if any.
    pub name: Option<&'static str>,
}

impl Event {
    /// A minimal event with all optional fields absent.
    pub fn new(t_ps: u64, kind: EventKind, rep: u64) -> Self {
        Event {
            t_ps,
            kind,
            rep,
            msg: None,
            node: None,
            ch: None,
            q: None,
            flits: None,
            name: None,
        }
    }

    /// Render the NDJSON line, **without** the trailing newline.
    pub fn line(&self) -> String {
        let mut s = String::with_capacity(self.line_len());
        let _ = write!(
            s,
            "{{\"t_ps\":{},\"ev\":\"{}\",\"rep\":{}",
            self.t_ps,
            self.kind.name(),
            self.rep
        );
        if let Some(m) = self.msg {
            let _ = write!(s, ",\"msg\":{m}");
        }
        if let Some(n) = self.node {
            let _ = write!(s, ",\"node\":{n}");
        }
        if let Some(c) = self.ch {
            let _ = write!(s, ",\"ch\":{c}");
        }
        if let Some(q) = self.q {
            let _ = write!(s, ",\"q\":{q}");
        }
        if let Some(f) = self.flits {
            let _ = write!(s, ",\"flits\":{f}");
        }
        if let Some(name) = self.name {
            let _ = write!(s, ",\"name\":\"{name}\"");
        }
        s.push('}');
        s
    }

    /// Exact byte length of [`Event::line`], computed without allocating.
    pub fn line_len(&self) -> usize {
        let mut n = 8 + digits(self.t_ps); // {"t_ps":N
        n += 8 + self.kind.name().len(); // ,"ev":"K"
        n += 7 + digits(self.rep); // ,"rep":N
        if let Some(m) = self.msg {
            n += 7 + digits(m); // ,"msg":N
        }
        if let Some(node) = self.node {
            n += 8 + digits(node as u64); // ,"node":N
        }
        if let Some(c) = self.ch {
            n += 6 + digits(c as u64); // ,"ch":N
        }
        if let Some(q) = self.q {
            n += 5 + digits(q); // ,"q":N
        }
        if let Some(f) = self.flits {
            n += 9 + digits(f); // ,"flits":N
        }
        if let Some(name) = self.name {
            n += 10 + name.len(); // ,"name":"S"
        }
        n + 1 // }
    }
}

/// Decimal digit count of `v`.
#[inline]
fn digits(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (v.ilog10() + 1) as usize
    }
}

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
        let mut s = String::with_capacity(self.bytes_used);
        for e in &self.events {
            s.push_str(&e.line());
            s.push('\n');
        }
        s
    }
}

/// Convert one engine trace record to an [`Event`] (rep is always 0: the
/// bounded trace describes a single run).
pub fn trace_event(r: &TraceRecord) -> Event {
    let kind = match r.kind {
        TraceKind::Inject => EventKind::Inject,
        TraceKind::PortGrant => EventKind::PortGrant,
        TraceKind::StartupDone => EventKind::StartupDone,
        TraceKind::ChannelGrant => EventKind::ChannelGrant,
        TraceKind::ChannelWait => EventKind::ChannelWait,
        TraceKind::HeaderArrive => EventKind::Header,
        TraceKind::Deliver => EventKind::Deliver,
        TraceKind::Complete => EventKind::Complete,
        TraceKind::ChannelRelease => EventKind::ChannelRelease,
        TraceKind::SchedulePhase => EventKind::SchedulePhase,
    };
    let mut e = Event::new(r.time.as_ps(), kind, 0);
    if r.kind == TraceKind::SchedulePhase {
        // The phase number rides in the trace record's `message` slot; on
        // the wire it belongs in `q` so `msg` keeps message-id semantics.
        e.q = Some(r.message.0);
    } else if r.message.0 != u64::MAX {
        e.msg = Some(r.message.0);
    }
    e.node = r.node.map(|n| n.0);
    e.ch = r.channel.map(|c| c.0);
    e
}

/// Render a bounded engine trace as NDJSON, reusing the event schema.
pub fn trace_to_ndjson(trace: &Trace) -> String {
    let mut s = String::new();
    for r in trace.records() {
        s.push_str(&trace_event(r).line());
        s.push('\n');
    }
    s
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
    fn line_len_matches_rendered_length() {
        let mut e = Event::new(0, EventKind::Inject, 0);
        assert_eq!(e.line().len(), e.line_len(), "{}", e.line());
        e.msg = Some(10);
        e.node = Some(9);
        assert_eq!(e.line().len(), e.line_len(), "{}", e.line());
        let f = full_event();
        assert_eq!(f.line().len(), f.line_len(), "{}", f.line());
        for kind in [
            EventKind::Inject,
            EventKind::PortGrant,
            EventKind::StartupDone,
            EventKind::Header,
            EventKind::ChannelWait,
            EventKind::ChannelGrant,
            EventKind::ChannelRelease,
            EventKind::Deliver,
            EventKind::Complete,
            EventKind::LinkDown,
            EventKind::LinkUp,
            EventKind::Reroute,
            EventKind::Stalled,
            EventKind::InvariantViolation,
            EventKind::SpanOpen,
            EventKind::SpanClose,
            EventKind::MetricSnapshot,
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::Coalesced,
            EventKind::SchedulePhase,
        ] {
            let mut e = Event::new(u64::MAX, kind, u64::MAX);
            assert_eq!(e.line().len(), e.line_len(), "{}", e.line());
            e.name = Some("engine_arena_msgs_highwater");
            assert_eq!(e.line().len(), e.line_len(), "{}", e.line());
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
    fn trace_round_trips_through_exporter() {
        use wormcast_network::message::MessageId;
        use wormcast_sim::SimTime;
        use wormcast_topology::NodeId;
        let mut t = Trace::default();
        t.enable(8);
        t.push(TraceRecord {
            time: SimTime::from_ps(5),
            kind: TraceKind::Inject,
            message: MessageId(0),
            node: Some(NodeId(3)),
            channel: None,
        });
        t.push(TraceRecord {
            time: SimTime::from_ps(9),
            kind: TraceKind::ChannelRelease,
            message: MessageId(u64::MAX),
            node: None,
            channel: None,
        });
        let nd = trace_to_ndjson(&t);
        let stats = validate_ndjson(&nd).expect("trace NDJSON should validate");
        assert_eq!(stats.lines, 2);
        assert!(nd.lines().nth(1).unwrap().contains("channel_release"));
        assert!(!nd.lines().nth(1).unwrap().contains("msg"));
    }
}
