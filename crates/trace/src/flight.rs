//! Always-on bounded flight recorder for post-mortem diagnostics.
//!
//! A [`FlightRecorder`] keeps a fixed-size ring of the most recent events
//! per *lane* (a tenant id, or a job index before admission). Recording is
//! a couple of `VecDeque` operations — cheap enough to leave on for every
//! fleet run — and nothing is formatted or serialized until something goes
//! wrong, at which point [`FlightRecorder::post_mortem`] renders the whole
//! recent history as a JSON document (`"schema":"mesa.flight/v1"`).
//!
//! The recorder deliberately stores owned strings only at `record` time
//! when the caller already built them; hot paths pass `&'static str` kinds
//! and short pre-formatted details. Rings drop their oldest entry on
//! overflow and count the drops, so a dump always says how much history it
//! is missing.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::json::Json;

/// Default per-lane ring capacity (events retained per tenant).
pub const FLIGHT_LANE_CAPACITY: usize = 64;

/// One recorded event: a simulated-cycle timestamp, a short kind tag
/// (`admit`, `slice`, `migrate`, `fault`, ...), and a detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated cycle at which the event happened.
    pub cycle: u64,
    /// Short machine-readable tag (`admit`, `placed`, `slice`, ...).
    pub kind: &'static str,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// Bounded per-lane ring buffer of recent fabric/engine events.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    lanes: BTreeMap<u32, VecDeque<FlightEvent>>,
    capacity: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder with the default per-lane capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(FLIGHT_LANE_CAPACITY)
    }

    /// A recorder keeping at most `capacity` events per lane (min 4).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder { lanes: BTreeMap::new(), capacity: capacity.max(4), dropped: 0 }
    }

    /// Records one event into `lane`, evicting the lane's oldest event if
    /// the ring is full.
    pub fn record(&mut self, lane: u32, cycle: u64, kind: &'static str, detail: String) {
        let ring = self.lanes.entry(lane).or_default();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped += 1;
        }
        ring.push_back(FlightEvent { cycle, kind, detail });
    }

    /// Total events currently retained across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.values().map(VecDeque::len).sum()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.values().all(VecDeque::is_empty)
    }

    /// Number of events evicted by ring overflow since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events of one lane, oldest first.
    #[must_use]
    pub fn lane(&self, lane: u32) -> Vec<&FlightEvent> {
        self.lanes.get(&lane).map_or_else(Vec::new, |ring| ring.iter().collect())
    }

    /// Folds another recorder's lanes into this one (used when a fleet run
    /// aggregates recorders from sequential episodes). Lane rings are
    /// concatenated then re-bounded, oldest dropped first.
    pub fn merge(&mut self, other: &FlightRecorder) {
        for (lane, ring) in &other.lanes {
            for ev in ring {
                self.record(*lane, ev.cycle, ev.kind, ev.detail.clone());
            }
        }
        self.dropped += other.dropped;
    }

    /// Renders everything the recorder still holds as a JSON post-mortem:
    ///
    /// ```json
    /// {"schema":"mesa.flight/v1","reason":"...","dropped":0,
    ///  "lanes":{"0":[{"cycle":12,"kind":"admit","detail":"..."}]}}
    /// ```
    ///
    /// Lanes are keyed by id in sorted order and events stay oldest-first,
    /// so a dump is deterministic for a deterministic run.
    #[must_use]
    pub fn post_mortem(&self, reason: &str) -> String {
        let event = |ev: &FlightEvent| {
            let detail = ev.detail.as_str().into();
            Json::obj([("cycle", ev.cycle.into()), ("kind", ev.kind.into()), ("detail", detail)])
        };
        let lanes = self
            .lanes
            .iter()
            .map(|(lane, ring)| (lane.to_string(), Json::arr(ring.iter().map(event))));
        Json::obj([
            ("schema", "mesa.flight/v1".into()),
            ("reason", reason.into()),
            ("dropped", self.dropped.into()),
            ("lanes", Json::obj(lanes)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_bound_history_and_count_drops() {
        let mut fr = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            fr.record(1, i, "slice", format!("slice {i}"));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 6);
        let lane = fr.lane(1);
        assert_eq!(lane.first().map(|e| e.cycle), Some(6), "oldest evicted first");
        assert_eq!(lane.last().map(|e| e.cycle), Some(9));
        assert!(fr.lane(99).is_empty());
    }

    #[test]
    fn post_mortem_is_wellformed_json() {
        let mut fr = FlightRecorder::new();
        assert!(fr.is_empty());
        fr.record(0, 5, "admit", "tenant 0 rows [0,4) \"quoted\"".to_string());
        fr.record(2, 9, "fault", "counter bit-flip".to_string());
        let dump = fr.post_mortem("forced fault");
        let doc = crate::json::parse(&dump).expect("post-mortem parses");
        assert_eq!(doc.to_string(), dump, "re-renders to the same bytes");
        assert!(dump.starts_with("{\"schema\":\"mesa.flight/v1\""));
        assert!(dump.contains("\"reason\":\"forced fault\""));
        assert!(dump.contains("\"kind\":\"fault\""));
        assert!(dump.contains("\\\"quoted\\\""), "details are JSON-escaped");
    }

    #[test]
    fn merge_concatenates_lanes() {
        let mut a = FlightRecorder::with_capacity(8);
        a.record(0, 1, "admit", "a".to_string());
        let mut b = FlightRecorder::with_capacity(8);
        b.record(0, 2, "slice", "b".to_string());
        b.record(3, 4, "migrate", "c".to_string());
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.lane(0).len(), 2);
        assert_eq!(a.lane(3).len(), 1);
    }
}
