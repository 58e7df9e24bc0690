//! Streaming NDJSON event export.
//!
//! Every `MetricsSink` callback can be captured as one [`Event`] — the
//! engine's one event record, defined in `wormcast_network::trace` and
//! re-exported here. The [`EventLog`] keeps the events it retains as
//! compact byte records (a kind byte, a presence-mask byte and LEB128
//! varints, about a sixth of the rendered line) and renders NDJSON once,
//! at export, through the one line writer, [`Event::write_line`], whose
//! schema `wormcast_network::trace` documents. Retention is still decided
//! in rendered bytes: the line's exact length is computed arithmetically
//! (digit counting, [`Event::line_len`]) and a log keeps an event only
//! while its lines fit the log's byte budget, counting the rest in
//! [`EventLog::dropped`]. A sink hands the log a closure that builds the
//! event and a floor under the cost of every line it can still log
//! ([`EventLog::push_with`]): when the log's room is below the floor, it
//! counts the drop in O(1) and builds nothing. The log is the first-fit
//! retention policy over that record: it keeps the *oldest* events that
//! fit, where the engine's trace ring keeps the *newest*.
//!
//! A replication's log is merged into its cell's log, which has its own
//! budget. When a bound on the room the cell will have left is known up
//! front ([`EventLog::with_bound`]), the replication's log does not store
//! the lines longer than that bound, which the merge could never keep; the
//! merged result is the same either way. Because the vendored serde facade has no
//! deserializer, this module also ships a minimal flat-object parser
//! ([`parse_line`]) and a whole-file validator ([`validate_ndjson`]) used
//! by the schema tests and CI.

use crate::TELEMETRY_EVENT_BUDGET_DEFAULT;
use std::collections::HashMap;
use wormcast_network::trace::write_lines;
pub use wormcast_network::trace::{to_ndjson, Event, EventKind, MIN_LINE_LEN};

/// Presence-mask bits of a record's optional fields, in line order.
const MSG: u8 = 1;
const NODE: u8 = 2;
const CH: u8 = 4;
const Q: u8 = 8;
const FLITS: u8 = 16;
const NAME: u8 = 32;

/// Bytes of the longest record: kind, mask and seven varints of at most
/// ten bytes each.
const MAX_RECORD: usize = 2 + 7 * 10;

/// A byte-budgeted event buffer holding its retained events as compact
/// records and rendering them as NDJSON on export.
///
/// Retention is first-fit in rendered bytes: an event is kept when its line
/// (plus newline) fits the bytes the log has left, and counted in
/// [`EventLog::dropped`] otherwise, so a later, shorter line can still be
/// kept after a longer one was dropped. The cost is computed with
/// [`Event::line_len`], so no line is rendered before export, and
/// [`EventLog::push_with`] does not even build an event that no line could
/// fit. [`EventLog::bytes_used`] and [`EventLog::room_left`] count the
/// NDJSON the log renders to, not the records it stores.
///
/// A record is the event's kind (its index in [`EventKind::ALL`]), a mask
/// of the optional fields present, then `t_ps`, `rep` and each present
/// field as an LEB128 varint; a `name` is stored as its index in the log's
/// table of names, which [`EventLog::merge`] remaps.
///
/// A log that will be merged into a cell log with at most `bound` bytes
/// left can be built [`EventLog::with_bound`]: it still charges every line
/// to its own budget, but does not store a line that costs more than
/// `bound`, because the merge could not keep it. Its merged result is
/// identical to an unbounded log's.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// The retained events' records, back to back.
    records: Vec<u8>,
    /// The names the records refer to, by index.
    names: Vec<&'static str>,
    /// Events in `records`.
    lines: usize,
    /// NDJSON bytes the retained events render to, newlines included.
    bytes: usize,
    /// Cost of the shortest retained line (`usize::MAX` when empty).
    min_cost: usize,
    budget: usize,
    /// Bytes charged to `budget`: every retained line, plus the lines
    /// `bound` then turned away.
    charged: usize,
    /// An upper bound on the room the destination log will have left when
    /// this log is merged into it (`usize::MAX` when unknown).
    bound: usize,
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
        EventLog::with_bound(budget_bytes, usize::MAX)
    }

    /// An empty log with budget `budget_bytes` that will be merged into a
    /// log with at most `bound` bytes left, such as the room that log had
    /// left at any earlier time (its room only shrinks). Lines costing more
    /// than `bound` are charged to the budget as usual but counted as
    /// dropped instead of stored, so merging this log gives the same result
    /// as merging a [`EventLog::new`] log fed the same events.
    pub fn with_bound(budget_bytes: usize, bound: usize) -> Self {
        EventLog {
            records: Vec::new(),
            names: Vec::new(),
            lines: 0,
            bytes: 0,
            min_cost: usize::MAX,
            budget: budget_bytes,
            charged: 0,
            bound,
            dropped: 0,
        }
    }

    /// Append `e` if it fits the remaining budget and the bound; count it
    /// as dropped otherwise. Deterministic: depends only on the event
    /// sequence and the bound.
    pub fn push(&mut self, e: Event) {
        let cost = e.line_len() + 1;
        if self.charged + cost > self.budget {
            self.dropped += 1;
            return;
        }
        self.charged += cost;
        if cost > self.bound {
            self.dropped += 1;
            return;
        }
        self.keep(&e, cost);
    }

    /// Store `e`, whose line costs `cost`, as one more retained event.
    fn keep(&mut self, e: &Event, cost: usize) {
        let mut rec = [0u8; MAX_RECORD];
        rec[0] = e.kind as u8;
        let mut n = 2;
        let mut mask = 0;
        put_varint(&mut rec, &mut n, e.t_ps);
        put_varint(&mut rec, &mut n, e.rep);
        let name = e.name.map(|s| self.name_index(s));
        let fields = [
            (MSG, e.msg),
            (NODE, e.node.map(u64::from)),
            (CH, e.ch.map(u64::from)),
            (Q, e.q),
            (FLITS, e.flits),
            (NAME, name),
        ];
        for (bit, v) in fields {
            if let Some(v) = v {
                mask |= bit;
                put_varint(&mut rec, &mut n, v);
            }
        }
        rec[1] = mask;
        self.records.extend_from_slice(&rec[..n]);
        self.lines += 1;
        self.bytes += cost;
        self.min_cost = self.min_cost.min(cost);
    }

    /// The index of `name` in this log's table, added when missing.
    fn name_index(&mut self, name: &'static str) -> u64 {
        let i = match self.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        i as u64
    }

    /// [`EventLog::push`] the event `build` makes, without calling `build`
    /// when no line could be kept. `floor` is at most the cost (line plus
    /// newline) of this event's line and of every line pushed after it.
    /// When the budget left is below `floor`, this line cannot fit; when
    /// the bound is, neither this line nor any later pushed one can be
    /// stored, so what the budget is charged for them no longer decides
    /// anything. Either way the event only counts as dropped, in O(1).
    /// Retained lines, their bytes and the drop count are those of
    /// `push(build())`; only the budget charged for lines the bound turns
    /// away can differ.
    #[inline]
    pub fn push_with(&mut self, floor: usize, build: impl FnOnce() -> Event) {
        if self.charged + floor > self.budget || floor > self.bound {
            self.dropped += 1;
        } else {
            self.push(build());
        }
    }

    /// Events retained.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// Events rejected by the budget (plus any carried over by merges).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact NDJSON bytes of the retained events.
    pub fn bytes_used(&self) -> usize {
        self.bytes
    }

    /// Bytes of the records that hold the retained events: what the log
    /// keeps in memory in place of [`EventLog::bytes_used`].
    pub fn record_bytes(&self) -> usize {
        self.records.len()
    }

    /// Bytes of budget left: what a log merged into this one can still add.
    pub fn room_left(&self) -> usize {
        self.budget - self.bytes
    }

    /// Append `other`'s retained events first-fit against this log's
    /// budget, counting those that don't fit as dropped, and carry over
    /// `other`'s drop count. O(1) when nothing fits; one copy of the
    /// records when everything does and `other`'s names keep their indices
    /// here; otherwise one pass over `other`'s events.
    pub fn merge(&mut self, other: &EventLog) {
        let (room, before) = (self.room_left(), self.bytes);
        if room < other.min_cost {
            self.dropped += other.lines as u64;
        } else if other.bytes <= room && self.names.starts_with(&other.names) {
            self.records.extend_from_slice(&other.records);
            self.lines += other.lines;
            self.bytes += other.bytes;
            self.min_cost = self.min_cost.min(other.min_cost);
        } else {
            for e in other.events() {
                let cost = e.line_len() + 1;
                if self.bytes + cost > self.budget {
                    self.dropped += 1;
                } else {
                    self.keep(&e, cost);
                }
            }
        }
        self.charged += self.bytes - before;
        self.dropped += other.dropped;
    }

    /// The retained events, oldest first, decoded from their records.
    fn events(&self) -> impl Iterator<Item = Event> + '_ {
        Records {
            bytes: &self.records,
            names: &self.names,
        }
    }

    /// Append the retained events to `out` as NDJSON, each line
    /// newline-terminated, growing `out` at most once.
    pub fn append_ndjson(&self, out: &mut Vec<u8>) {
        out.reserve(self.bytes);
        write_lines(self.events(), out);
    }

    /// The retained events rendered as NDJSON (each line
    /// newline-terminated), into a string of exactly
    /// [`EventLog::bytes_used`] bytes.
    pub fn to_ndjson(&self) -> String {
        let mut out = Vec::new();
        self.append_ndjson(&mut out);
        String::from_utf8(out).expect("lines are ASCII plus UTF-8 names")
    }

    /// [`EventLog::to_ndjson`], consuming the log.
    pub fn into_ndjson(self) -> String {
        self.to_ndjson()
    }
}

/// Append `v` as an LEB128 varint at `buf[*n..]`.
#[inline]
fn put_varint(buf: &mut [u8], n: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*n] = v as u8 | 0x80;
        v >>= 7;
        *n += 1;
    }
    buf[*n] = v as u8;
    *n += 1;
}

/// The events a log's records decode to: a cursor over the records not
/// yet read and the log's names.
struct Records<'a> {
    bytes: &'a [u8],
    names: &'a [&'static str],
}

impl Records<'_> {
    /// Read the LEB128 varint at the cursor.
    #[inline]
    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for (i, &b) in self.bytes.iter().enumerate() {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                self.bytes = &self.bytes[i + 1..];
                return v;
            }
        }
        unreachable!("a record ends inside its last varint")
    }

    /// The field `bit` of `mask`, if present.
    #[inline]
    fn field(&mut self, mask: u8, bit: u8) -> Option<u64> {
        (mask & bit != 0).then(|| self.varint())
    }
}

impl Iterator for Records<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        let (&[kind, mask], rest) = self.bytes.split_first_chunk()?;
        self.bytes = rest;
        let t_ps = self.varint();
        let rep = self.varint();
        Some(Event {
            t_ps,
            kind: EventKind::ALL[usize::from(kind)],
            rep,
            msg: self.field(mask, MSG),
            node: self.field(mask, NODE).map(|v| v as u32),
            ch: self.field(mask, CH).map(|v| v as u32),
            q: self.field(mask, Q),
            flits: self.field(mask, FLITS),
            name: self.field(mask, NAME).map(|i| self.names[i as usize]),
        })
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
    open_ndjson(path, append)?.write_all(ndjson.as_bytes())
}

/// Open an NDJSON stream at `path` for writing, as [`write_ndjson`] does,
/// for callers that write it piece by piece.
///
/// # Errors
/// Propagates directory-creation and open failures.
pub fn open_ndjson(path: &std::path::Path, append: bool) -> std::io::Result<std::fs::File> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::File::options()
        .write(true)
        .create(true)
        .append(append)
        .truncate(!append)
        .open(path)
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

    /// Inject events at `t_ps = 10^e` for each `e`: each extra power of ten
    /// adds one byte to the line.
    fn sized(exps: &[u32]) -> Vec<Event> {
        exps.iter()
            .map(|&e| Event::new(10u64.pow(e), EventKind::Inject, 0))
            .collect()
    }

    fn cost(e: &Event) -> usize {
        e.line_len() + 1
    }

    fn log_of(budget: usize, events: &[Event]) -> EventLog {
        let mut log = EventLog::new(budget);
        events.iter().for_each(|&e| log.push(e));
        log
    }

    #[test]
    fn exhausted_merge_drops_everything_in_one_step() {
        let (short, long) = (sized(&[0]), sized(&[19, 19, 19]));
        // Two of three long lines fit `other`; one is its own drop.
        let other = log_of(2 * cost(&long[0]), &long);
        assert_eq!((other.len(), other.dropped()), (2, 1));
        // The cell's room is one byte short of `other`'s shortest line.
        let mut cell = log_of(cost(&short[0]) + cost(&long[0]) - 1, &short);
        let before = cell.to_ndjson();
        cell.merge(&other);
        assert_eq!(cell.to_ndjson(), before);
        assert_eq!((cell.len(), cell.dropped()), (1, 3));
        // An empty log only carries its drop count over.
        cell.merge(&log_of(0, &short));
        assert_eq!((cell.len(), cell.dropped()), (1, 4));
    }

    #[test]
    fn boundary_merge_keeps_later_shorter_lines() {
        let cell_events = sized(&[0]);
        let events = sized(&[19, 0, 19, 3]);
        let other = log_of(1 << 16, &events);
        let other_nd = other.to_ndjson();
        let lines: Vec<&str> = other_nd.lines().collect();
        // Room for line 1 plus two bytes: line 0 is longer than the whole
        // room, line 2 no longer fits after line 1, and line 3 needs three
        // bytes more than line 1.
        let budget = cost(&cell_events[0]) + cost(&events[1]) + 2;
        let mut cell = log_of(budget, &cell_events);
        assert!(cost(&events[0]) > cell.room_left());
        cell.merge(&other);
        let cell_nd = cell.to_ndjson();
        let kept: Vec<&str> = cell_nd.lines().skip(1).collect();
        assert_eq!(kept, [lines[1]]);
        assert_eq!((cell.len(), cell.dropped()), (2, 3));
        assert_eq!(cell.room_left(), 2);
        // Everything fits a roomier cell in one copy.
        let mut roomy = log_of(1 << 16, &cell_events);
        roomy.merge(&other);
        assert_eq!(roomy.len(), 5);
        assert!(roomy.to_ndjson().ends_with(&other_nd));
    }

    #[test]
    fn bounded_logs_merge_like_unbounded_ones() {
        let cell_events = sized(&[0]);
        let events = sized(&[19, 0, 19, 3]);
        let budget = 1 << 16;
        let plain = {
            let mut cell = log_of(cost(&cell_events[0]) + cost(&events[1]) + 2, &cell_events);
            cell.merge(&log_of(budget, &events));
            cell
        };
        // The exact room stores only line 1; a stale bound three bytes
        // larger also stores line 3, which the merge then drops.
        for (slack, stored) in [(0, 1), (3, 2)] {
            let mut cell = log_of(cost(&cell_events[0]) + cost(&events[1]) + 2, &cell_events);
            let mut rep = EventLog::with_bound(budget, cell.room_left() + slack);
            events.iter().for_each(|&e| rep.push(e));
            assert_eq!((rep.len(), rep.dropped()), (stored, 4 - stored as u64));
            cell.merge(&rep);
            assert_eq!(cell.to_ndjson(), plain.to_ndjson());
            assert_eq!((cell.len(), cell.dropped()), (plain.len(), plain.dropped()));
        }
        // Lines turned away by the bound still count against the budget:
        // the 4-digit line no longer fits after the first long line.
        let mut tight = EventLog::with_bound(cost(&events[0]) + cost(&events[1]), 0);
        events.iter().for_each(|&e| tight.push(e));
        let mut loose = EventLog::new(cost(&events[0]) + cost(&events[1]));
        events.iter().for_each(|&e| loose.push(e));
        assert_eq!((tight.len(), tight.dropped()), (0, 4));
        assert_eq!((loose.len(), loose.dropped()), (2, 2));
    }

    /// An event drawn from `(t_ps, shape, id)`: `shape` picks the kind and
    /// its optional fields, so line lengths vary.
    fn drawn(t_ps: u64, shape: u8, id: u64) -> Event {
        let e = Event::new(t_ps, EventKind::Inject, 0);
        let (msg, node) = (Some(id), Some(id as u32));
        match shape % 4 {
            0 => Event { msg, node, ..e },
            1 => Event {
                kind: EventKind::ChannelWait,
                msg,
                ch: Some(id as u32 / 3),
                q: Some(shape.into()),
                ..e
            },
            2 => Event {
                kind: EventKind::ChannelRelease,
                ch: node,
                ..e
            },
            _ => Event {
                kind: EventKind::Deliver,
                msg,
                node,
                flits: Some(100),
                ..e
            },
        }
    }

    /// Cost of the shortest line any event renders to: a floor for any
    /// stream.
    const MIN_COST: usize = MIN_LINE_LEN + 1;

    #[test]
    fn lazy_push_builds_nothing_without_room() {
        let e = Event::new(1, EventKind::Inject, 0);
        let mut built = 0;
        // A budget one byte short of the shortest line, and a spent one.
        let mut short = EventLog::new(MIN_COST - 1);
        let mut spent = EventLog::new(cost(&e) + MIN_COST - 1);
        spent.push(e);
        // A bound below the shortest line, with budget to spare.
        let mut bounded = EventLog::with_bound(1 << 16, MIN_COST - 1);
        for log in [&mut short, &mut spent, &mut bounded] {
            log.push_with(MIN_COST, || {
                built += 1;
                e
            });
        }
        assert_eq!(built, 0);
        assert_eq!((short.len(), short.dropped()), (0, 1));
        assert_eq!((spent.len(), spent.dropped()), (1, 1));
        assert_eq!((bounded.len(), bounded.dropped()), (0, 1));
        // A tighter floor refuses a longer line in the same room.
        let long = Event::new(1_000_000, EventKind::ChannelRelease, 0);
        let mut tight = EventLog::with_bound(1 << 16, cost(&long) - 1);
        tight.push_with(cost(&long), || {
            built += 1;
            long
        });
        assert_eq!((built, tight.len(), tight.dropped()), (0, 0, 1));
        // With exactly the floor's room, in the bound or in the budget
        // left, the event is built and kept.
        let shortest = Event::new(0, EventKind::Inject, 0);
        assert_eq!(cost(&shortest), MIN_COST);
        let mut bound_fits = EventLog::with_bound(1 << 16, MIN_COST);
        let mut budget_fits = EventLog::new(cost(&e) + MIN_COST);
        budget_fits.push(e);
        for log in [&mut bound_fits, &mut budget_fits] {
            let before = log.len();
            log.push_with(MIN_COST, || {
                built += 1;
                shortest
            });
            assert_eq!((log.len(), log.dropped()), (before + 1, 0));
        }
        assert_eq!(built, 2);
    }

    /// A value picked by the low two bits of `sel`: 0, `u32::MAX`,
    /// `u64::MAX`, or `x` shifted right by the next six bits.
    fn pick(sel: u64, x: u64) -> u64 {
        match sel & 3 {
            0 => 0,
            1 => u32::MAX.into(),
            2 => u64::MAX,
            _ => x >> (sel >> 2 & 63),
        }
    }

    /// An event of kind `EventKind::ALL[kind]` whose optional fields are
    /// the set bits of `mask` (in line order), with values picked from
    /// `sel` and `x`.
    fn coded(kind: u8, mask: u8, sel: u64, x: u64) -> Event {
        const NAMES: [&str; 4] = ["", "a", "span", "engine_arena_msgs_highwater"];
        let at = |i: u32| pick(sel.rotate_right(8 * i), x.rotate_left(9 * i));
        let narrow = |v: u64| v.min(u32::MAX.into()) as u32;
        let has = |bit: u8| mask & bit != 0;
        Event {
            t_ps: at(0),
            kind: EventKind::ALL[usize::from(kind)],
            rep: at(1),
            msg: has(MSG).then(|| at(2)),
            node: has(NODE).then(|| narrow(at(3))),
            ch: has(CH).then(|| narrow(at(4))),
            q: has(Q).then(|| at(5)),
            flits: has(FLITS).then(|| at(6)),
            name: has(NAME).then(|| NAMES[(sel >> 60) as usize % NAMES.len()]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every kind with every combination of optional fields, at 0,
        /// `u32::MAX`, `u64::MAX` and values between, and with names:
        /// the records decode to the events pushed, the log renders what
        /// the line writer renders for them, and `bytes_used` is the
        /// rendered length. Two logs whose name tables disagree merge into
        /// the log of the whole stream.
        #[test]
        fn records_round_trip_every_kind_and_field(
            stream in proptest::collection::vec(
                (0u8..21, 0u8..64, 0u64..u64::MAX, 0u64..u64::MAX),
                0usize..48,
            ),
            cut in 0usize..48,
        ) {
            use proptest::prelude::prop_assert_eq;
            let events: Vec<Event> =
                stream.iter().map(|&(k, mask, sel, x)| coded(k, mask, sel, x)).collect();
            let log = log_of(usize::MAX, &events);
            prop_assert_eq!(log.events().collect::<Vec<_>>(), events.clone());
            let nd = log.to_ndjson();
            prop_assert_eq!(&nd, &to_ndjson(&events));
            prop_assert_eq!(log.bytes_used(), nd.len());
            prop_assert_eq!(log.len(), events.len());
            // The tail's names are indexed in its own order, not the head's.
            let (head, tail) = events.split_at(cut.min(events.len()));
            let mut merged = log_of(usize::MAX, head);
            merged.merge(&log_of(usize::MAX, tail));
            prop_assert_eq!(merged.events().collect::<Vec<_>>(), events.clone());
            prop_assert_eq!(merged.to_ndjson(), nd);
            prop_assert_eq!(merged.bytes_used(), log.bytes_used());
        }

        /// A cell merges replication logs in order, as the experiment grid
        /// does: the first replication's log becomes the cell log, later
        /// ones merge into it. Logs bounded by the room the cell had left
        /// after a random earlier fold (as a task that ran ahead of its
        /// cell's folds reads it) must give the same cell log as unbounded
        /// logs, and both must match first-fit applied twice to the
        /// rendered lines: per replication under its budget, then per cell.
        #[test]
        fn bounded_merges_match_unbounded_and_the_first_fit_model(
            stream in proptest::collection::vec(
                (0u64..2_000_000_000_000, 0u8..8, 0u64..100_000, 0u8..6),
                0usize..160,
            ),
            lags in proptest::collection::vec(0usize..4, 160usize..161),
            budget in 0usize..4_000,
        ) {
            use proptest::prelude::prop_assert_eq;
            // Split the stream into replications where the last draw is 0.
            let mut reps: Vec<Vec<Event>> = vec![Vec::new()];
            for &(t, shape, id, cut) in &stream {
                if cut == 0 {
                    reps.push(Vec::new());
                }
                reps.last_mut().expect("non-empty").push(drawn(t, shape, id));
            }

            let mut plain: Option<EventLog> = None;
            let mut hinted: Option<EventLog> = None;
            // The cell's room before any fold (no bound) and after each.
            let mut rooms = vec![usize::MAX];
            for (events, &lag) in reps.iter().zip(&lags) {
                let mut p = EventLog::new(budget);
                let bound = rooms[rooms.len() - 1 - lag.min(rooms.len() - 1)];
                let mut h = EventLog::with_bound(budget, bound);
                for &e in events {
                    p.push(e);
                    h.push(e);
                }
                match (&mut plain, &mut hinted) {
                    (Some(pc), Some(hc)) => {
                        pc.merge(&p);
                        hc.merge(&h);
                    }
                    _ => {
                        plain = Some(p);
                        hinted = Some(h);
                    }
                }
                rooms.push(hinted.as_ref().expect("folded").room_left());
            }
            let (plain, hinted) = (plain.expect("one rep"), hinted.expect("one rep"));
            prop_assert_eq!(hinted.to_ndjson(), plain.to_ndjson());
            prop_assert_eq!(hinted.len(), plain.len());
            prop_assert_eq!(hinted.dropped(), plain.dropped());
            prop_assert_eq!(hinted.bytes_used(), plain.bytes_used());

            // The model: first-fit over rendered lines, twice.
            let first_fit = |lines: &[String], budget: usize| {
                let mut used = 0;
                let kept: Vec<String> = lines
                    .iter()
                    .filter(|l| {
                        let fits = used + l.len() <= budget;
                        used += if fits { l.len() } else { 0 };
                        fits
                    })
                    .cloned()
                    .collect();
                let dropped = (lines.len() - kept.len()) as u64;
                (kept, dropped)
            };
            let mut cell: Vec<String> = Vec::new();
            let mut dropped = 0u64;
            for (i, events) in reps.iter().enumerate() {
                let lines: Vec<String> = events.iter().map(|e| e.line() + "\n").collect();
                let (kept, d) = first_fit(&lines, budget);
                dropped += d;
                if i == 0 {
                    cell = kept;
                    continue;
                }
                let used: usize = cell.iter().map(String::len).sum();
                let (more, d) = first_fit(&kept, budget - used);
                dropped += d;
                cell.extend(more);
            }
            prop_assert_eq!(plain.to_ndjson(), cell.concat());
            prop_assert_eq!(plain.len(), cell.len());
            prop_assert_eq!(plain.dropped(), dropped);
        }

        /// `push_with` keeps, renders and drops exactly what `push` does,
        /// under any budget and bound (bounds below the shortest line,
        /// budgets spent before the stream starts, and a merge in the
        /// middle of the stream that may leave the budget overcharged),
        /// given any floor at most the cost of every line from its own on.
        #[test]
        fn lazy_push_matches_eager_push(
            stream in proptest::collection::vec(
                (0u64..2_000_000_000_000, 0u8..8, 0u64..100_000),
                0usize..200,
            ),
            spent in proptest::collection::vec(
                (0u64..2_000_000_000_000, 0u8..8, 0u64..100_000),
                0usize..8,
            ),
            other in proptest::collection::vec(
                (0u64..2_000_000_000_000, 0u8..8, 0u64..100_000),
                0usize..16,
            ),
            budget in proptest::strategy::Strategy::prop_map(
                (0u8..2, 0usize..2 * MIN_COST, 0usize..6_000),
                |(pick, small, any)| if pick == 0 { small } else { any },
            ),
            bound in proptest::strategy::Strategy::prop_map(
                (0u8..3, 0usize..2 * MIN_COST, 0usize..6_000),
                |(pick, small, any)| [small, any, usize::MAX][pick as usize],
            ),
            cut in 0usize..200,
            slack in proptest::collection::vec(0usize..24, 200usize..201),
        ) {
            use proptest::prelude::prop_assert_eq;
            // Shapes 6 and 7 are bare events of any kind, down to the
            // shortest line.
            let ev = |&(t, shape, id): &(u64, u8, u64)| match shape {
                6 | 7 => Event::new(t % 1_000, EventKind::ALL[id as usize % 21], 0),
                _ => drawn(t, shape, id),
            };
            let mut eager = EventLog::with_bound(budget, bound);
            let mut lazy = EventLog::with_bound(budget, bound);
            for e in spent.iter().map(ev) {
                eager.push(e);
                lazy.push(e);
            }
            let mut merged = EventLog::new(budget);
            other.iter().map(ev).for_each(|e| merged.push(e));
            let events: Vec<Event> = stream.iter().map(ev).collect();
            // The cheapest line from each event on, less some slack.
            let mut floors: Vec<usize> = events.iter().map(cost).collect();
            for i in (1..floors.len()).rev() {
                floors[i - 1] = floors[i - 1].min(floors[i]);
            }
            for (i, &e) in events.iter().enumerate() {
                if i == cut {
                    eager.merge(&merged);
                    lazy.merge(&merged);
                }
                eager.push(e);
                lazy.push_with(floors[i].saturating_sub(slack[i]), || e);
            }
            prop_assert_eq!(lazy.to_ndjson(), eager.to_ndjson());
            prop_assert_eq!(lazy.len(), eager.len());
            prop_assert_eq!(lazy.dropped(), eager.dropped());
            prop_assert_eq!(lazy.room_left(), eager.room_left());
        }
    }
}
