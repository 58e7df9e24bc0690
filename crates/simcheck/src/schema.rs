//! The versioned scenario-request schema — the one request language the
//! `simcheck --scenario` CLI and the `wormcast-serve` server share.
//!
//! A [`ScenarioRequest`] wraps a serializable [`Scenario`] (already pinned by
//! its own `(seed, index)` pair) with the execution knobs a service needs:
//! replication count, worker count, and which outputs the client wants
//! streamed back. Requests are compared and cached by their
//! **canonical form**: compact JSON with every object's keys sorted
//! recursively ([`canonical_json`]), hashed with 64-bit FNV-1a
//! ([`ScenarioRequest::config_hash`]). Only physics-bearing fields enter the
//! hash — `v`, `scenario`, `reps` and `shards` — because `jobs` (harness
//! parallelism) and `outputs` never change the simulation's result; two
//! requests that differ only there share one cached run. `shards` once
//! chose a sharded engine that no longer exists; it is still decoded and
//! hashed so existing requests and their cache keys stay valid.
//!
//! The vendored serde facade serializes but cannot deserialize, so this
//! module also carries the hand-written `Value` decoders
//! ([`ScenarioRequest::from_json`], [`scenario_from_value`]) matched to the
//! derive's externally-tagged encoding.

use serde::{Serialize, Value};
use wormcast_broadcast::Algorithm;
use wormcast_network::ReleaseMode;
use wormcast_sim::{
    HotspotDrift, LinkModulation, LoadRamp, RampPoint, ReplayEntry, Schedule, TraceReplay,
};
use wormcast_workload::MulticastScheme;

use crate::scenario::{Scenario, TopoSpec, WorkloadSpec};

/// Current request-schema version. Decoders accept `1..=SCHEMA_VERSION` and
/// reject anything else; v2 added the optional `scenario.schedule` object
/// (dynamic load ramps, link modulation, hotspot drift, trace replay).
/// A v1 request (necessarily schedule-free) canonicalizes and hashes to the
/// exact bytes it always did — the schedule key is omitted when absent,
/// never `null`.
pub const SCHEMA_VERSION: u64 = 2;

/// Oldest request-schema version decoders still accept.
pub const SCHEMA_VERSION_MIN: u64 = 1;

/// Which response streams a request wants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RequestedOutputs {
    /// Stream the engine's NDJSON event lines before the result frame.
    pub events: bool,
}

/// One versioned simulation request: a scenario plus execution knobs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioRequest {
    /// Schema version; must equal [`SCHEMA_VERSION`].
    pub v: u64,
    /// The scenario to run. Replication `r` runs this scenario with its
    /// `index` advanced by `r`, so each replication re-derives its own
    /// workload substreams while every config field stays fixed.
    pub scenario: Scenario,
    /// Replication count (default 1).
    pub reps: u64,
    /// Harness worker threads (0 = auto; default 0). Never affects results.
    pub jobs: u64,
    /// Legacy shard count (default 1; 0 is rejected). Decoded and hashed
    /// for wire compatibility, but it selects nothing: every request runs
    /// on the one engine.
    pub shards: u64,
    /// Requested response streams.
    pub outputs: RequestedOutputs,
}

impl ScenarioRequest {
    /// A request running `scenario` once, with no event stream.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioRequest {
            v: SCHEMA_VERSION,
            scenario,
            reps: 1,
            jobs: 0,
            shards: 1,
            outputs: RequestedOutputs::default(),
        }
    }

    /// The canonical one-line JSON encoding of the whole request.
    pub fn canonical_json(&self) -> String {
        canonical_json(&self.to_value())
    }

    /// Stable 64-bit hash of the physics-bearing fields (`v`, `scenario`,
    /// `reps`, `shards`) in canonical form. Identical across processes,
    /// platforms and reruns; `jobs` and `outputs` are excluded (see the
    /// module docs).
    pub fn config_hash(&self) -> u64 {
        let physics = Value::Object(vec![
            ("reps".to_string(), Value::U64(self.reps)),
            ("scenario".to_string(), self.scenario.to_value()),
            ("shards".to_string(), Value::U64(self.shards)),
            ("v".to_string(), Value::U64(self.v)),
        ]);
        fnv1a64(canonical_json(&physics).as_bytes())
    }

    /// Decode a request from its JSON text.
    ///
    /// # Errors
    /// Returns a description of the first offending field (or the JSON
    /// syntax error).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }

    /// Decode a request from a parsed [`Value`]. Missing knobs take their
    /// defaults; `v` and `scenario` are required.
    ///
    /// # Errors
    /// Returns a description of the first offending field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let obj = as_object(v, "request")?;
        let version = get_u64(obj, "v")?.ok_or("request lacks the schema version field `v`")?;
        if !(SCHEMA_VERSION_MIN..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema version {version} \
                 (this build speaks v{SCHEMA_VERSION_MIN}..=v{SCHEMA_VERSION})"
            ));
        }
        let scenario = field(obj, "scenario").ok_or("request lacks `scenario`")?;
        let scenario = scenario_from_value(scenario)?;
        if scenario.schedule.is_some() && version < 2 {
            return Err(format!(
                "`scenario.schedule` requires schema v2 (request declared v{version})"
            ));
        }
        let reps = get_u64(obj, "reps")?.unwrap_or(1);
        if reps == 0 {
            return Err("`reps` must be at least 1".to_string());
        }
        let jobs = get_u64(obj, "jobs")?.unwrap_or(0);
        let shards = get_u64(obj, "shards")?.unwrap_or(1);
        if shards == 0 {
            return Err("`shards` must be at least 1".to_string());
        }
        let outputs = match field(obj, "outputs") {
            None => RequestedOutputs::default(),
            Some(o) => {
                let o = as_object(o, "outputs")?;
                RequestedOutputs {
                    events: get_bool(o, "events")?.unwrap_or(false),
                }
            }
        };
        Ok(ScenarioRequest {
            v: version,
            scenario,
            reps,
            jobs,
            shards,
            outputs,
        })
    }
}

/// Render any serializable value as canonical JSON: compact, with every
/// object's keys sorted recursively. Equal values always render to equal
/// bytes, independent of field declaration order.
pub fn canonical_json<T: Serialize + ?Sized>(value: &T) -> String {
    let sorted = sort_keys(value.to_value());
    serde_json::to_string(&sorted).expect("value-tree printing is total")
}

fn sort_keys(v: Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.into_iter().map(sort_keys).collect()),
        Value::Object(entries) => {
            let mut entries: Vec<(String, Value)> = entries
                .into_iter()
                .map(|(k, v)| (k, sort_keys(v)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(entries)
        }
        scalar => scalar,
    }
}

/// 64-bit FNV-1a over `bytes` — small, stable, dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Value decoders (the vendored serde facade has no typed deserializer).

fn as_object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Value::Object(entries) => Ok(entries),
        other => Err(format!("{what} must be a JSON object, got {other:?}")),
    }
}

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(obj: &[(String, Value)], key: &str) -> Result<Option<u64>, String> {
    match field(obj, key) {
        None => Ok(None),
        Some(Value::U64(n)) => Ok(Some(*n)),
        Some(Value::I64(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(other) => Err(format!(
            "`{key}` must be an unsigned integer, got {other:?}"
        )),
    }
}

fn get_f64(obj: &[(String, Value)], key: &str) -> Result<f64, String> {
    match field(obj, key) {
        Some(Value::F64(x)) => Ok(*x),
        Some(Value::U64(n)) => Ok(*n as f64),
        Some(Value::I64(n)) => Ok(*n as f64),
        Some(other) => Err(format!("`{key}` must be a number, got {other:?}")),
        None => Err(format!("missing numeric field `{key}`")),
    }
}

fn get_bool(obj: &[(String, Value)], key: &str) -> Result<Option<bool>, String> {
    match field(obj, key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("`{key}` must be a boolean, got {other:?}")),
    }
}

fn req_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
    get_u64(obj, key)?.ok_or_else(|| format!("missing integer field `{key}`"))
}

fn req_u32(obj: &[(String, Value)], key: &str) -> Result<u32, String> {
    u32::try_from(req_u64(obj, key)?).map_err(|_| format!("`{key}` exceeds u32"))
}

fn dims_from(v: &Value) -> Result<Vec<u16>, String> {
    let Value::Array(items) = v else {
        return Err(format!("topology extents must be an array, got {v:?}"));
    };
    if items.is_empty() {
        return Err("topology extents must be non-empty".to_string());
    }
    items
        .iter()
        .map(|d| match d {
            Value::U64(n) if *n >= 1 && *n <= u16::MAX as u64 => Ok(*n as u16),
            other => Err(format!("extent must be a positive u16, got {other:?}")),
        })
        .collect()
}

/// The externally-tagged encoding splits into `"UnitVariant"` strings and
/// one-entry `{"Variant": payload}` objects; this resolves either shape.
fn variant<'a>(v: &'a Value, what: &str) -> Result<(&'a str, Option<&'a Value>), String> {
    match v {
        Value::Str(name) => Ok((name.as_str(), None)),
        Value::Object(entries) if entries.len() == 1 => {
            Ok((entries[0].0.as_str(), Some(&entries[0].1)))
        }
        other => Err(format!(
            "{what} must be a variant name or one-entry object, got {other:?}"
        )),
    }
}

fn algorithm_from(v: &Value) -> Result<Algorithm, String> {
    match variant(v, "algorithm")? {
        ("Rd", None) => Ok(Algorithm::Rd),
        ("Edn", None) => Ok(Algorithm::Edn),
        ("Db", None) => Ok(Algorithm::Db),
        ("Ab", None) => Ok(Algorithm::Ab),
        ("Qab", None) => Ok(Algorithm::Qab),
        (other, _) => Err(format!("unknown algorithm `{other}`")),
    }
}

fn scheme_from(v: &Value) -> Result<MulticastScheme, String> {
    match variant(v, "multicast scheme")? {
        ("Um", None) => Ok(MulticastScheme::Um),
        ("Cm", None) => Ok(MulticastScheme::Cm),
        ("Sp", None) => Ok(MulticastScheme::Sp),
        (other, _) => Err(format!("unknown multicast scheme `{other}`")),
    }
}

fn mode_from(v: &Value) -> Result<ReleaseMode, String> {
    match variant(v, "release mode")? {
        ("PathHolding", None) => Ok(ReleaseMode::PathHolding),
        ("AfterTailCrossing", None) => Ok(ReleaseMode::AfterTailCrossing),
        (other, _) => Err(format!("unknown release mode `{other}`")),
    }
}

fn topo_from(v: &Value) -> Result<TopoSpec, String> {
    match variant(v, "topology")? {
        ("Mesh", Some(d)) => Ok(TopoSpec::Mesh(dims_from(d)?)),
        ("Torus", Some(d)) => Ok(TopoSpec::Torus(dims_from(d)?)),
        (other, _) => Err(format!("unknown topology `{other}`")),
    }
}

fn workload_from(v: &Value) -> Result<WorkloadSpec, String> {
    let (name, payload) = variant(v, "workload")?;
    let obj = as_object(payload.ok_or("workload variant needs a payload")?, name)?;
    match name {
        "Single" => Ok(WorkloadSpec::Single {
            alg: algorithm_from(field(obj, "alg").ok_or("Single lacks `alg`")?)?,
            src: req_u32(obj, "src")?,
            length: req_u64(obj, "length")?,
        }),
        "Unicasts" => Ok(WorkloadSpec::Unicasts {
            alg: algorithm_from(field(obj, "alg").ok_or("Unicasts lacks `alg`")?)?,
            n: req_u32(obj, "n")?,
            max_len: req_u64(obj, "max_len")?,
        }),
        "Mixed" => Ok(WorkloadSpec::Mixed {
            alg: algorithm_from(field(obj, "alg").ok_or("Mixed lacks `alg`")?)?,
            src: req_u32(obj, "src")?,
            length: req_u64(obj, "length")?,
            n_unicasts: req_u32(obj, "n_unicasts")?,
        }),
        "Multicast" => Ok(WorkloadSpec::Multicast {
            scheme: scheme_from(field(obj, "scheme").ok_or("Multicast lacks `scheme`")?)?,
            src: req_u32(obj, "src")?,
            set_size: req_u32(obj, "set_size")?,
            length: req_u64(obj, "length")?,
        }),
        "Contended" => Ok(WorkloadSpec::Contended {
            alg: algorithm_from(field(obj, "alg").ok_or("Contended lacks `alg`")?)?,
            n_broadcasts: req_u32(obj, "n_broadcasts")?,
            length: req_u64(obj, "length")?,
        }),
        "TorusRing" => Ok(WorkloadSpec::TorusRing {
            src: req_u32(obj, "src")?,
            length: req_u64(obj, "length")?,
        }),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Decode the optional schedule object. Strict: an unknown schedule kind is
/// an error, not a silent skip — a typo'd or future dimension must never
/// degrade to "ran without it".
fn schedule_from(v: &Value) -> Result<Schedule, String> {
    let obj = as_object(v, "schedule")?;
    let mut sched = Schedule::default();
    for (key, val) in obj {
        match key.as_str() {
            "ramp" => {
                let r = as_object(val, "ramp")?;
                let pts = field(r, "points").ok_or("ramp lacks `points`")?;
                let Value::Array(pts) = pts else {
                    return Err(format!("`points` must be an array, got {pts:?}"));
                };
                let points = pts
                    .iter()
                    .map(|p| {
                        let p = as_object(p, "ramp point")?;
                        Ok(RampPoint {
                            t_us: get_f64(p, "t_us")?,
                            rate: get_f64(p, "rate")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                sched.ramp = Some(LoadRamp { points });
            }
            "modulation" => {
                let m = as_object(val, "modulation")?;
                sched.modulation = Some(LinkModulation {
                    period_us: get_f64(m, "period_us")?,
                    duty: get_f64(m, "duty")?,
                    factor: req_u32(m, "factor")?,
                    fraction: get_f64(m, "fraction")?,
                    windows: req_u32(m, "windows")?,
                });
            }
            "hotspot" => {
                let h = as_object(val, "hotspot")?;
                sched.hotspot = Some(HotspotDrift {
                    start: req_u32(h, "start")?,
                    stride: req_u32(h, "stride")?,
                    step_us: get_f64(h, "step_us")?,
                    weight: get_f64(h, "weight")?,
                });
            }
            "replay" => {
                let r = as_object(val, "replay")?;
                let es = field(r, "entries").ok_or("replay lacks `entries`")?;
                let Value::Array(es) = es else {
                    return Err(format!("`entries` must be an array, got {es:?}"));
                };
                let entries = es
                    .iter()
                    .map(|e| {
                        let e = as_object(e, "replay entry")?;
                        Ok(ReplayEntry {
                            at_us: get_f64(e, "at_us")?,
                            src: req_u32(e, "src")?,
                            dst: req_u32(e, "dst")?,
                            length: req_u64(e, "length")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                sched.replay = Some(TraceReplay { entries });
            }
            other => {
                return Err(format!(
                    "unknown schedule kind `{other}` \
                     (this build knows ramp, modulation, hotspot, replay)"
                ));
            }
        }
    }
    if sched.is_empty() {
        return Err("schedule must enable at least one dimension".to_string());
    }
    sched
        .validate()
        .map_err(|e| format!("invalid schedule: {e}"))?;
    Ok(sched)
}

/// Decode a [`Scenario`] from its `Value` encoding.
///
/// # Errors
/// Returns a description of the first offending field.
pub fn scenario_from_value(v: &Value) -> Result<Scenario, String> {
    let obj = as_object(v, "scenario")?;
    let topo = topo_from(field(obj, "topo").ok_or("scenario lacks `topo`")?)?;
    let workload = workload_from(field(obj, "workload").ok_or("scenario lacks `workload`")?)?;
    let schedule = match field(obj, "schedule") {
        None => None,
        Some(v) => Some(schedule_from(v)?),
    };
    let scenario = Scenario {
        seed: req_u64(obj, "seed")?,
        index: req_u64(obj, "index")?,
        topo,
        mode: mode_from(field(obj, "mode").ok_or("scenario lacks `mode`")?)?,
        workload,
        fail_stop_rate: get_f64(obj, "fail_stop_rate")?,
        transient_rate: get_f64(obj, "transient_rate")?,
        watchdog_us: get_f64(obj, "watchdog_us")?,
        schedule,
    };
    for (name, rate) in [
        ("fail_stop_rate", scenario.fail_stop_rate),
        ("transient_rate", scenario.transient_rate),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "`{name}` must be a probability in [0, 1], got {rate}"
            ));
        }
    }
    if !scenario.watchdog_us.is_finite() || scenario.watchdog_us < 0.0 {
        return Err(format!(
            "`watchdog_us` must be finite and non-negative, got {}",
            scenario.watchdog_us
        ));
    }
    Ok(scenario)
}

/// Decode a bare [`Scenario`] from JSON text (the `simcheck --scenario FILE`
/// shape; [`ScenarioRequest::from_json`] decodes the full request).
///
/// # Errors
/// Returns a description of the syntax error or the first offending field.
pub fn scenario_from_json(text: &str) -> Result<Scenario, String> {
    let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    scenario_from_value(&v)
}

/// Decode a bare [`Schedule`] from JSON text (the `--schedule FILE` shape
/// on the drivers and serve; the same object embeds in a v2 request under
/// `scenario.schedule`). Strict and validated, like the request path.
///
/// # Errors
/// Returns a description of the syntax error or the first offending field.
pub fn schedule_from_json(text: &str) -> Result<Schedule, String> {
    let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    schedule_from(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(s: &Scenario) {
        let json = canonical_json(s);
        let back = scenario_from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(*s, back, "round trip changed the scenario: {json}");
    }

    #[test]
    fn generated_scenarios_round_trip() {
        for i in 0..200 {
            round_trip(&Scenario::generate(2005, i));
        }
        for i in 0..50 {
            round_trip(&Scenario::generate(7, i));
        }
    }

    #[test]
    fn requests_round_trip_with_all_knobs() {
        let mut req = ScenarioRequest::new(Scenario::generate(1, 4));
        req.reps = 5;
        req.jobs = 2;
        req.shards = 2;
        req.outputs.events = true;
        let back = ScenarioRequest::from_json(&req.canonical_json()).expect("round trip");
        assert_eq!(req, back);
    }

    #[test]
    fn request_defaults_apply() {
        let mut s = Scenario::generate(3, 0);
        s.schedule = None; // pinning v:1 below, which rejects schedules
        let json = format!("{{\"v\":1,\"scenario\":{}}}", canonical_json(&s));
        let req = ScenarioRequest::from_json(&json).expect("minimal request");
        assert_eq!(req.reps, 1);
        assert_eq!(req.jobs, 0);
        assert_eq!(req.shards, 1);
        assert!(!req.outputs.events);
        assert_eq!(req.scenario, s);
    }

    #[test]
    fn version_gate_and_field_errors() {
        let mut sc = Scenario::generate(3, 0);
        sc.schedule = None; // the v:1 legs below must not trip the schedule gate
        let s = canonical_json(&sc);
        let e = ScenarioRequest::from_json(&format!("{{\"v\":3,\"scenario\":{s}}}")).unwrap_err();
        assert!(e.contains("unsupported schema version"), "{e}");
        let e = ScenarioRequest::from_json(&format!("{{\"v\":0,\"scenario\":{s}}}")).unwrap_err();
        assert!(e.contains("unsupported schema version"), "{e}");
        let e = ScenarioRequest::from_json("{\"v\":1}").unwrap_err();
        assert!(e.contains("scenario"), "{e}");
        let e = ScenarioRequest::from_json("not json").unwrap_err();
        assert!(e.contains("parse error"), "{e}");
        let e = ScenarioRequest::from_json(&format!("{{\"v\":1,\"scenario\":{s},\"reps\":0}}"))
            .unwrap_err();
        assert!(e.contains("reps"), "{e}");
    }

    fn scheduled_scenario() -> Scenario {
        let mut s = Scenario::generate(3, 0);
        s.schedule = Some(Schedule {
            ramp: Some(LoadRamp::linear(0.25, 2.0, 40.0)),
            modulation: Some(LinkModulation {
                period_us: 10.0,
                duty: 0.5,
                factor: 4,
                fraction: 0.3,
                windows: 3,
            }),
            hotspot: Some(HotspotDrift {
                start: 5,
                stride: 3,
                step_us: 8.0,
                weight: 0.6,
            }),
            replay: Some(TraceReplay {
                entries: vec![ReplayEntry {
                    at_us: 1.5,
                    src: 0,
                    dst: 7,
                    length: 12,
                }],
            }),
        });
        s
    }

    #[test]
    fn scheduled_scenarios_round_trip() {
        round_trip(&scheduled_scenario());
        let req = ScenarioRequest::new(scheduled_scenario());
        let back = ScenarioRequest::from_json(&req.canonical_json()).expect("v2 round trip");
        assert_eq!(req, back);
        assert_eq!(req.v, 2);
    }

    #[test]
    fn schedule_decoding_is_strict() {
        let mut s = canonical_json(&scheduled_scenario());
        // A v1 request carrying a schedule is rejected outright.
        let e = ScenarioRequest::from_json(&format!("{{\"v\":1,\"scenario\":{s}}}")).unwrap_err();
        assert!(e.contains("requires schema v2"), "{e}");
        // An unknown schedule kind is an error, not a silent skip.
        s = s.replace("\"ramp\":", "\"surge\":");
        let e = ScenarioRequest::from_json(&format!("{{\"v\":2,\"scenario\":{s}}}")).unwrap_err();
        assert!(e.contains("unknown schedule kind `surge`"), "{e}");
        // An empty schedule object is rejected.
        let bare = canonical_json(&Scenario::generate(3, 0));
        let with_empty = bare.replacen("{", "{\"schedule\":{},", 1);
        let e = ScenarioRequest::from_json(&format!("{{\"v\":2,\"scenario\":{with_empty}}}"))
            .unwrap_err();
        assert!(e.contains("at least one dimension"), "{e}");
        // A malformed dimension is rejected by the schedule validator.
        let mut sched = scheduled_scenario();
        if let Some(x) = &mut sched.schedule {
            x.modulation.as_mut().unwrap().factor = 1;
        }
        let e = ScenarioRequest::from_json(&format!(
            "{{\"v\":2,\"scenario\":{}}}",
            canonical_json(&sched)
        ))
        .unwrap_err();
        assert!(e.contains("invalid schedule"), "{e}");
    }

    #[test]
    fn schedule_changes_the_config_hash() {
        let mut plain = ScenarioRequest::new(Scenario::generate(3, 0));
        plain.scenario.schedule = None;
        let scheduled = ScenarioRequest::new(scheduled_scenario());
        assert_ne!(plain.config_hash(), scheduled.config_hash());
    }

    #[test]
    fn canonical_form_sorts_keys_and_is_stable() {
        let a =
            serde_json::from_str("{\"b\":1,\"a\":{\"d\":2,\"c\":[{\"y\":0,\"x\":1}]}}").unwrap();
        assert_eq!(
            canonical_json(&a),
            "{\"a\":{\"c\":[{\"x\":1,\"y\":0}],\"d\":2},\"b\":1}"
        );
    }

    #[test]
    fn config_hash_is_stable_and_field_sensitive() {
        let req = ScenarioRequest::new(Scenario::generate(2005, 0));
        // Pinned: a silent change to the canonical encoding or the hash
        // function invalidates every persisted cache key — fail loudly.
        assert_eq!(req.config_hash(), req.clone().config_hash());
        let mut reordered = req.clone();
        reordered.outputs.events = true; // excluded from the hash
        reordered.jobs = 7; // excluded from the hash
        assert_eq!(req.config_hash(), reordered.config_hash());
        let mut more_reps = req.clone();
        more_reps.reps = 2;
        assert_ne!(req.config_hash(), more_reps.config_hash());
        let mut sharded = req.clone();
        sharded.shards = 2;
        assert_ne!(req.config_hash(), sharded.config_hash());
        let mut other = req.clone();
        other.scenario.seed ^= 1;
        assert_ne!(req.config_hash(), other.config_hash());
    }

    fn pinned_scenario() -> Scenario {
        Scenario {
            seed: 7,
            index: 3,
            topo: TopoSpec::Mesh(vec![4, 4]),
            mode: ReleaseMode::PathHolding,
            workload: WorkloadSpec::Single {
                alg: Algorithm::Db,
                src: 0,
                length: 16,
            },
            fail_stop_rate: 0.0,
            transient_rate: 0.0,
            watchdog_us: 0.0,
            schedule: None,
        }
    }

    #[test]
    fn config_hash_pinned_value() {
        // The hash is part of the wire contract (cache keys, provenance
        // events). This pins the value for one concrete scenario; if it
        // moves, either the canonical encoding or FNV changed — both are
        // schema breaks that need a version bump.
        let req = ScenarioRequest::new(pinned_scenario());
        assert_eq!(
            req.config_hash(),
            fnv1a64(req_physics_bytes(&req).as_bytes())
        );
    }

    #[test]
    fn v1_requests_decode_and_hash_identically() {
        // The exact hash a v1 build produced for this request, captured
        // before the v2 (schedule) extension landed. A schedule-free v1
        // request must keep canonicalizing and hashing to the same bytes
        // forever — serve caches and provenance logs key on it.
        const PINNED_V1_HASH: u64 = 0xef3c_22ab_242e_70e7;
        let mut req = ScenarioRequest::new(pinned_scenario());
        req.v = 1;
        assert_eq!(req.config_hash(), PINNED_V1_HASH);
        assert!(
            !req.canonical_json().contains("schedule"),
            "an absent schedule must be omitted, not null: {}",
            req.canonical_json()
        );
        // And the same request arriving as v1 wire text decodes, keeps its
        // declared version, and hashes to the pinned value.
        let wire = req.canonical_json();
        let back = ScenarioRequest::from_json(&wire).expect("v1 decodes");
        assert_eq!(back.v, 1);
        assert_eq!(back.config_hash(), PINNED_V1_HASH);
    }

    #[test]
    fn qab_requests_decode_and_hash_without_moving_existing_hashes() {
        // The fifth algorithm rides the existing v2 schema: a QAB request
        // decodes, canonicalizes with `"alg":"Qab"`, and keys its own cache
        // slot. Pinning its hash (and re-asserting the v1 pin above stays
        // where it was) proves adding the variant did not perturb the wire
        // contract for any pre-QAB request.
        const PINNED_QAB_V2_HASH: u64 = 0xc400_fe74_9e84_d538;
        let mut scenario = pinned_scenario();
        scenario.workload = WorkloadSpec::Single {
            alg: Algorithm::Qab,
            src: 0,
            length: 16,
        };
        let req = ScenarioRequest::new(scenario);
        assert_eq!(req.v, 2);
        assert_eq!(req.config_hash(), PINNED_QAB_V2_HASH);
        assert!(req.canonical_json().contains("\"alg\":\"Qab\""));
        let back = ScenarioRequest::from_json(&req.canonical_json()).expect("QAB decodes");
        assert_eq!(back.config_hash(), PINNED_QAB_V2_HASH);
        // Same scenario, different algorithm → different cache key; and the
        // Db request's own hash is untouched by the enum gaining a variant.
        let db = ScenarioRequest::new(pinned_scenario());
        assert_ne!(db.config_hash(), PINNED_QAB_V2_HASH);
        assert_eq!(db.config_hash(), fnv1a64(req_physics_bytes(&db).as_bytes()));
    }

    fn req_physics_bytes(req: &ScenarioRequest) -> String {
        let physics = Value::Object(vec![
            ("reps".to_string(), Value::U64(req.reps)),
            ("scenario".to_string(), req.scenario.to_value()),
            ("shards".to_string(), Value::U64(req.shards)),
            ("v".to_string(), Value::U64(req.v)),
        ]);
        canonical_json(&physics)
    }

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
