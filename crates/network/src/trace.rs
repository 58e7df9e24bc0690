//! The engine's one event record and its bounded trace.
//!
//! [`Event`] is a flat record of small integers describing one observable
//! engine callback; [`Event::write_line`] appends it to a byte buffer as
//! one NDJSON line, and [`Event::line`], [`write_lines`] and [`to_ndjson`]
//! (a sequence of records) render through it. Every event consumer keeps
//! the same record under its own retention policy: the [`Trace`] here is a
//! ring that keeps the *newest* records (for debugging and for tests that
//! assert *mechanism*, not just outcome), while the telemetry layer's
//! `EventLog` keeps the *oldest* events whose lines fit a byte budget, as
//! compact records, and renders their lines only when it is exported.
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
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 21] = [
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
    ];

    /// Stable wire name for the `ev` field.
    pub const fn name(self) -> &'static str {
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

/// Bytes of the shortest line any event renders to: the shortest kind
/// name, one-digit `t_ps` and `rep`, and no optional field. Derived from
/// [`Event::line_len`], so it follows the writer; a log that has less room
/// than this (plus a newline) can keep no further line.
pub const MIN_LINE_LEN: usize = {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < EventKind::ALL.len() {
        let n = Event::new(0, EventKind::ALL[i], 0).line_len();
        if n < min {
            min = n;
        }
        i += 1;
    }
    min
};

impl Event {
    /// A minimal event with all optional fields absent.
    pub const fn new(t_ps: u64, kind: EventKind, rep: u64) -> Self {
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
        let mut v = Vec::with_capacity(self.line_len());
        self.write_line(&mut v);
        String::from_utf8(v).expect("a line is ASCII plus a UTF-8 name")
    }

    /// Append the NDJSON line, **without** the trailing newline, to `out`:
    /// the one writer behind [`Event::line`], [`to_ndjson`] and the
    /// telemetry event log's export. The line is assembled in a buffer on
    /// the stack, integers two digits at a time from a table of digit
    /// pairs, with no `core::fmt`, and lands in `out` with one copy (two
    /// more for a `name`). It allocates only when `out` grows: a caller
    /// that reserves [`Event::line_len`] first never grows it.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        self.render(&mut LineBuf::new(), out);
    }

    /// [`Event::write_line`] through `b`, which it overwrites.
    #[inline]
    fn render(&self, b: &mut LineBuf, out: &mut Vec<u8>) {
        b.len = 0;
        b.put(b"{\"t_ps\":");
        b.put_u64(self.t_ps);
        b.put(b",\"ev\":\"");
        b.put(self.kind.name().as_bytes());
        b.put(b"\",\"rep\":");
        b.put_u64(self.rep);
        if let Some(m) = self.msg {
            b.put(b",\"msg\":");
            b.put_u64(m);
        }
        if let Some(n) = self.node {
            b.put(b",\"node\":");
            b.put_u64(n as u64);
        }
        if let Some(c) = self.ch {
            b.put(b",\"ch\":");
            b.put_u64(c as u64);
        }
        if let Some(q) = self.q {
            b.put(b",\"q\":");
            b.put_u64(q);
        }
        if let Some(f) = self.flits {
            b.put(b",\"flits\":");
            b.put_u64(f);
        }
        match self.name {
            None => {
                b.put(b"}");
                out.extend_from_slice(b.as_bytes());
            }
            Some(name) => {
                b.put(b",\"name\":\"");
                out.extend_from_slice(b.as_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(b"\"}");
            }
        }
    }

    /// Exact byte length of [`Event::line`], computed without allocating.
    pub const fn line_len(&self) -> usize {
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

/// `"00" "01" … "99"`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Bytes of the longest line without its `name` value: every key, a
/// 19-byte kind name and 20-digit integers.
const LINE_CAP: usize = 8 + 20 + 7 + 19 + 8 + 20 + 7 + 20 + 8 + 10 + 6 + 10 + 5 + 20 + 9 + 20 + 9;

/// A line being assembled on the stack.
struct LineBuf {
    bytes: [u8; LINE_CAP],
    len: usize,
}

impl LineBuf {
    #[inline]
    fn new() -> Self {
        LineBuf {
            bytes: [0; LINE_CAP],
            len: 0,
        }
    }

    #[inline]
    fn put(&mut self, s: &[u8]) {
        self.bytes[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }

    /// Append `v` in decimal, two digits at a time from the right.
    #[inline]
    fn put_u64(&mut self, mut v: u64) {
        let end = self.len + digits(v);
        let mut i = end;
        while v >= 100 {
            let p = 2 * (v % 100) as usize;
            v /= 100;
            i -= 2;
            self.bytes[i..i + 2].copy_from_slice(&DIGIT_PAIRS[p..p + 2]);
        }
        if v >= 10 {
            let p = 2 * v as usize;
            self.bytes[i - 2..i].copy_from_slice(&DIGIT_PAIRS[p..p + 2]);
        } else {
            self.bytes[i - 1] = b'0' + v as u8;
        }
        self.len = end;
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Decimal digit count of `v`.
#[inline]
const fn digits(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (v.ilog10() + 1) as usize
    }
}

/// Append `events` to `out` as NDJSON, one newline-terminated line per
/// event, through [`Event::write_line`]'s writer and one line buffer.
pub fn write_lines(events: impl IntoIterator<Item = Event>, out: &mut Vec<u8>) {
    let mut b = LineBuf::new();
    for e in events {
        e.render(&mut b, out);
        out.push(b'\n');
    }
}

/// Render `events` as NDJSON, one newline-terminated line per event — the
/// one writer behind the trace dump and every event log.
pub fn to_ndjson<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut v = Vec::new();
    write_lines(events.into_iter().copied(), &mut v);
    String::from_utf8(v).expect("lines are ASCII plus UTF-8 names")
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
        let mut out = b"prefix\n".to_vec();
        e.write_line(&mut out);
        assert_eq!(out, format!("prefix\n{want}").into_bytes());
    }

    /// `EventKind::ALL` lists every kind once, in declaration order: the
    /// match fails to compile when a kind is added without an index.
    #[test]
    fn all_lists_every_kind_in_order() {
        let index = |k: EventKind| match k {
            EventKind::Inject => 0,
            EventKind::PortGrant => 1,
            EventKind::StartupDone => 2,
            EventKind::Header => 3,
            EventKind::ChannelWait => 4,
            EventKind::ChannelGrant => 5,
            EventKind::ChannelRelease => 6,
            EventKind::Deliver => 7,
            EventKind::Complete => 8,
            EventKind::LinkDown => 9,
            EventKind::LinkUp => 10,
            EventKind::Reroute => 11,
            EventKind::Stalled => 12,
            EventKind::InvariantViolation => 13,
            EventKind::SpanOpen => 14,
            EventKind::SpanClose => 15,
            EventKind::MetricSnapshot => 16,
            EventKind::CacheHit => 17,
            EventKind::CacheMiss => 18,
            EventKind::Coalesced => 19,
            EventKind::SchedulePhase => 20,
        };
        for (i, &k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(index(k), i, "{k:?}");
        }
    }

    /// `put_u64` appends exactly `format!`'s digits.
    fn check_u64(v: u64) {
        let mut b = LineBuf::new();
        b.put(b"x");
        b.put_u64(v);
        assert_eq!(b.as_bytes(), format!("x{v}").as_bytes());
        assert_eq!(digits(v), v.to_string().len());
    }

    #[test]
    fn put_u64_matches_format() {
        for v in [0, 9, 10, 99, 100, u64::MAX, u64::MAX - 1] {
            check_u64(v);
        }
        // Each power of ten and its neighbours: every digit count, and
        // every carry into a new pair.
        let mut p = 1u64;
        for _ in 0..20 {
            for v in [p - 1, p, p + 1] {
                check_u64(v);
            }
            p = p.saturating_mul(10);
        }
        // Random values at every magnitude.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            check_u64(x);
            check_u64(x >> (x % 64));
        }
    }

    #[test]
    fn min_line_len_is_the_shortest_rendered_line() {
        let shortest = EventKind::ALL
            .iter()
            .map(|&k| Event::new(0, k, 0).line().len())
            .min();
        assert_eq!(Some(MIN_LINE_LEN), shortest);
        assert_eq!(
            MIN_LINE_LEN,
            "{\"t_ps\":0,\"ev\":\"inject\",\"rep\":0}".len()
        );
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
        for kind in EventKind::ALL {
            // The widest line, up to its name's value, fits the line
            // buffer (exactly, for the longest kind name).
            let widest = Event {
                msg: Some(u64::MAX),
                node: Some(u32::MAX),
                ch: Some(u32::MAX),
                q: Some(u64::MAX),
                flits: Some(u64::MAX),
                ..Event::new(u64::MAX, kind, u64::MAX)
            };
            check_line(&widest);
            let named = Event {
                name: Some(""),
                ..widest
            };
            check_line(&named);
            assert!(named.line_len() - "\"}".len() <= LINE_CAP);
            let mut e = Event::new(u64::MAX, kind, u64::MAX);
            check_line(&e);
            e.name = Some("engine_arena_msgs_highwater");
            check_line(&e);
            let e = Event {
                msg: Some(99),
                node: Some(u32::MAX),
                ch: Some(10),
                q: Some(0),
                flits: Some(100),
                ..Event::new(9, kind, 100)
            };
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
