//! The engine's one event record and its bounded trace.
//!
//! [`Event`] is a flat record of small integers describing one observable
//! engine callback; [`Event::write_line`] appends it to a string as one
//! NDJSON line, and [`Event::line`] and [`to_ndjson`] (a sequence of
//! records) render through it. Every event consumer keeps the same record
//! under its own retention policy: the [`Trace`] here is a ring that keeps
//! the *newest* records (for debugging and for tests that assert
//! *mechanism*, not just outcome), while the telemetry layer's `EventLog`
//! keeps the *oldest* lines that fit a byte budget, already rendered.
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
//! and `name`, a static label used by profiling events.

use crate::message::MessageId;
use std::collections::VecDeque;

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

/// One observable engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// FIFO depth (for `channel_wait`), undelivered destination count
    /// (for `stalled`) or phase number (for `schedule_phase`), if any.
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
        self.write_line(&mut s);
        s
    }

    /// Append the NDJSON line, **without** the trailing newline, to `out`:
    /// the one writer behind [`Event::line`], [`to_ndjson`] and the
    /// telemetry event log. Writes integers digit by digit, so it formats
    /// nothing through `core::fmt` and allocates only when `out` grows.
    pub fn write_line(&self, out: &mut String) {
        out.push_str("{\"t_ps\":");
        push_u64(out, self.t_ps);
        out.push_str(",\"ev\":\"");
        out.push_str(self.kind.name());
        out.push_str("\",\"rep\":");
        push_u64(out, self.rep);
        if let Some(m) = self.msg {
            out.push_str(",\"msg\":");
            push_u64(out, m);
        }
        if let Some(n) = self.node {
            out.push_str(",\"node\":");
            push_u64(out, n as u64);
        }
        if let Some(c) = self.ch {
            out.push_str(",\"ch\":");
            push_u64(out, c as u64);
        }
        if let Some(q) = self.q {
            out.push_str(",\"q\":");
            push_u64(out, q);
        }
        if let Some(f) = self.flits {
            out.push_str(",\"flits\":");
            push_u64(out, f);
        }
        if let Some(name) = self.name {
            out.push_str(",\"name\":\"");
            out.push_str(name);
            out.push('"');
        }
        out.push('}');
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

/// Append `v` in decimal to `out`.
#[inline]
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
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

/// Render `events` as NDJSON, one newline-terminated line per event — the
/// one writer behind the trace dump and every event log.
pub fn to_ndjson<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut s = String::new();
    for e in events {
        e.write_line(&mut s);
        s.push('\n');
    }
    s
}

/// A bounded ring buffer of events that keeps the newest; disabled
/// (zero-cost apart from a branch) by default.
#[derive(Debug, Default)]
pub struct Trace {
    records: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Enable with the given capacity; older records are dropped once full.
    pub fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace capacity must be positive");
        self.capacity = capacity;
        self.records.clear();
        self.dropped = 0;
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Append a record (no-op when disabled).
    #[inline]
    pub fn push(&mut self, e: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(e);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Event> {
        self.records.iter()
    }

    /// Records for one message, oldest first.
    pub fn of_message(&self, m: MessageId) -> Vec<Event> {
        self.records
            .iter()
            .filter(|e| e.msg == Some(m.0))
            .copied()
            .collect()
    }

    /// Records dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: EventKind, msg: u64) -> Event {
        Event {
            msg: Some(msg),
            ..Event::new(1, kind, 0)
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.push(rec(EventKind::Inject, 0));
        assert_eq!(t.records().count(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = Trace::default();
        t.enable(2);
        t.push(rec(EventKind::Inject, 0));
        t.push(rec(EventKind::Deliver, 1));
        t.push(rec(EventKind::Complete, 2));
        let kinds: Vec<EventKind> = t.records().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::Deliver, EventKind::Complete]);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn per_message_filter() {
        let mut t = Trace::default();
        t.enable(10);
        t.push(rec(EventKind::Inject, 5));
        t.push(rec(EventKind::Inject, 6));
        t.push(rec(EventKind::Complete, 5));
        t.push(Event::new(2, EventKind::ChannelRelease, 0));
        assert_eq!(t.of_message(MessageId(5)).len(), 2);
        assert_eq!(t.of_message(MessageId(9)).len(), 0);
    }

    /// The line as `core::fmt` renders it: the reference the hand-written
    /// digits of [`Event::write_line`] must reproduce byte for byte.
    fn fmt_line(e: &Event) -> String {
        let mut s = format!(
            "{{\"t_ps\":{},\"ev\":\"{}\",\"rep\":{}",
            e.t_ps,
            e.kind.name(),
            e.rep
        );
        let opt = |k: &str, v: Option<u64>| v.map(|v| format!(",\"{k}\":{v}"));
        s.extend(opt("msg", e.msg));
        s.extend(opt("node", e.node.map(u64::from)));
        s.extend(opt("ch", e.ch.map(u64::from)));
        s.extend(opt("q", e.q));
        s.extend(opt("flits", e.flits));
        s.extend(e.name.map(|n| format!(",\"name\":\"{n}\"")));
        s.push('}');
        s
    }

    /// `line_len` is the exact length of the line, and `write_line` appends
    /// exactly `fmt_line`'s bytes after whatever `out` already holds.
    fn check_line(e: &Event) {
        let want = fmt_line(e);
        assert_eq!(e.line(), want);
        assert_eq!(e.line_len(), want.len(), "{want}");
        let mut out = String::from("prefix\n");
        e.write_line(&mut out);
        assert_eq!(out, format!("prefix\n{want}"));
    }

    #[test]
    fn line_len_matches_rendered_length() {
        let mut e = Event::new(0, EventKind::Inject, 0);
        check_line(&e);
        e.msg = Some(10);
        e.node = Some(9);
        check_line(&e);
        let f = Event {
            msg: Some(3),
            node: Some(107),
            ch: Some(0),
            q: Some(4),
            flits: Some(100),
            ..Event::new(1_500_000, EventKind::ChannelWait, 12)
        };
        check_line(&f);
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
            check_line(&e);
            e.name = Some("engine_arena_msgs_highwater");
            check_line(&e);
        }
        // Every digit count, and each power of ten's neighbours.
        let mut v = 1u64;
        for _ in 0..20 {
            for x in [v - 1, v, v + 1, v.saturating_mul(7)] {
                let e = Event {
                    msg: Some(x),
                    node: Some(x as u32),
                    ch: Some((x >> 32) as u32),
                    q: Some(x),
                    flits: Some(x),
                    ..Event::new(x, EventKind::Deliver, x)
                };
                check_line(&e);
            }
            v = v.saturating_mul(10);
        }
    }
}
