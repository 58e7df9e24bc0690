//! Streaming NDJSON event export.
//!
//! Every `MetricsSink` callback can be captured as one [`Event`] — the
//! engine's one event record, defined in `wormcast_network::trace` and
//! re-exported here. The [`EventLog`] keeps the lines it retains already
//! rendered, in one NDJSON string: it enforces its byte budget by computing
//! each line's exact length arithmetically (digit counting) *before*
//! rendering, renders only the lines that fit, with
//! [`Event::write_line`], and counts the rest in [`EventLog::dropped`].
//! Exporting a log is handing out its buffer. The log is the first-fit
//! retention policy over that record: it keeps the *oldest* events that
//! fit, where the engine's trace ring keeps the *newest*; both render
//! through the one line writer, whose schema `wormcast_network::trace`
//! documents.
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
pub use wormcast_network::trace::{to_ndjson, Event, EventKind};

/// A byte-budgeted event buffer holding its retained lines already
/// rendered, as one NDJSON string.
///
/// Retention is first-fit: an event is kept when its line (plus newline)
/// fits the bytes the log has left, and counted in [`EventLog::dropped`]
/// otherwise, so a later, shorter line can still be kept after a longer one
/// was dropped. The cost is computed with [`Event::line_len`] before any
/// rendering, so a dropped event is never rendered.
///
/// A log that will be merged into a cell log with at most `bound` bytes
/// left can be built [`EventLog::with_bound`]: it still charges every line
/// to its own budget, but does not store a line that costs more than
/// `bound`, because the merge could not keep it. Its merged result is
/// identical to an unbounded log's.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// The retained lines, each newline-terminated.
    ndjson: String,
    /// Lines in `ndjson`.
    lines: usize,
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
            ndjson: String::new(),
            lines: 0,
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
        e.write_line(&mut self.ndjson);
        self.ndjson.push('\n');
        self.lines += 1;
        self.min_cost = self.min_cost.min(cost);
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
        self.ndjson.len()
    }

    /// Bytes of budget left: what a log merged into this one can still add.
    pub fn room_left(&self) -> usize {
        self.budget - self.ndjson.len()
    }

    /// Append `other`'s retained lines first-fit against this log's budget,
    /// counting those that don't fit as dropped, and carry over `other`'s
    /// drop count. O(1) when nothing fits, one copy when everything does.
    pub fn merge(&mut self, other: &EventLog) {
        let (room, before) = (self.room_left(), self.ndjson.len());
        if room < other.min_cost {
            self.dropped += other.lines as u64;
        } else if other.ndjson.len() <= room {
            self.ndjson.push_str(&other.ndjson);
            self.lines += other.lines;
            self.min_cost = self.min_cost.min(other.min_cost);
        } else {
            for line in other.ndjson.split_inclusive('\n') {
                if self.ndjson.len() + line.len() > self.budget {
                    self.dropped += 1;
                } else {
                    self.ndjson.push_str(line);
                    self.lines += 1;
                    self.min_cost = self.min_cost.min(line.len());
                }
            }
        }
        self.charged += self.ndjson.len() - before;
        self.dropped += other.dropped;
    }

    /// The retained lines as NDJSON (each newline-terminated).
    pub fn ndjson(&self) -> &str {
        &self.ndjson
    }

    /// The retained lines as an owned NDJSON string (a copy).
    pub fn to_ndjson(&self) -> String {
        self.ndjson.clone()
    }

    /// The retained lines as NDJSON, without copying them.
    pub fn into_ndjson(self) -> String {
        self.ndjson
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
        let lines: Vec<&str> = other.ndjson().lines().collect();
        // Room for line 1 plus two bytes: line 0 is longer than the whole
        // room, line 2 no longer fits after line 1, and line 3 needs three
        // bytes more than line 1.
        let budget = cost(&cell_events[0]) + cost(&events[1]) + 2;
        let mut cell = log_of(budget, &cell_events);
        assert!(cost(&events[0]) > cell.room_left());
        cell.merge(&other);
        let kept: Vec<&str> = cell.ndjson().lines().skip(1).collect();
        assert_eq!(kept, [lines[1]]);
        assert_eq!((cell.len(), cell.dropped()), (2, 3));
        assert_eq!(cell.room_left(), 2);
        // Everything fits a roomier cell in one copy.
        let mut roomy = log_of(1 << 16, &cell_events);
        roomy.merge(&other);
        assert_eq!(roomy.len(), 5);
        assert!(roomy.ndjson().ends_with(other.ndjson()));
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

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
    }
}
