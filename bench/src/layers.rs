//! The per-layer host-time split of a traced phase.
//!
//! Every node of the host span tree has a self time, and the self times
//! of all nodes add up exactly to the profile total. Each node's self time
//! goes to the layer its span belongs to, or to `other`, so the layers and
//! `other` also add up exactly to the total.

use mesa_trace::host::{apportion, HostProfile, HostSpan};

/// `(layer, span)`: the layers of the split and the span whose self time
/// each one takes. Spans named like their layer are the bench's own, put
/// around the public calls it makes; the others are the program's spans.
pub const LAYERS: [(&str, &str); 11] = [
    ("accel.execute", "offload"),
    ("core.translate", "translate"),
    ("core.map", "map"),
    ("core.reoptimize", "reoptimize"),
    ("cpu.warmup", "detect"),
    ("cpu.config_overlap", "configure"),
    ("sysbench.serve", "sysbench.serve"),
    ("core.fabric.advance", "fabric.advance"),
    ("core.fabric.migrate", "fabric.migrate"),
    ("core.fabric.driver", "core.fabric.driver"),
    ("mem.setup", "mem.setup"),
];

/// Shares are whole parts of this many.
pub const SHARE_UNITS: u64 = 1_000_000;

/// Self nanoseconds per layer; the last entry is `other`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// The profile's conserved total.
    pub total_ns: u64,
    /// One entry per [`LAYERS`] entry, then `other`.
    pub self_ns: Vec<u64>,
}

impl Split {
    /// Splits `profile` by layer.
    #[must_use]
    pub fn of(profile: &HostProfile) -> Self {
        let mut self_ns = vec![0u64; LAYERS.len() + 1];
        for root in &profile.roots {
            add(root, &mut self_ns);
        }
        Split { total_ns: profile.total_ns(), self_ns }
    }

    /// Nanoseconds of the named layer (`other` included).
    #[must_use]
    pub fn ns(&self, layer: &str) -> u64 {
        LAYERS
            .iter()
            .map(|(name, _)| *name)
            .chain(["other"])
            .position(|name| name == layer)
            .map_or(0, |at| self.self_ns[at])
    }

    /// Each layer's share of the total in [`SHARE_UNITS`], apportioned so
    /// the shares sum to exactly `SHARE_UNITS` (all zero for an empty
    /// profile).
    #[must_use]
    pub fn share_units(&self) -> Vec<u64> {
        apportion(SHARE_UNITS, &self.self_ns)
    }
}

fn add(span: &HostSpan, self_ns: &mut [u64]) {
    let at = LAYERS.iter().position(|(_, s)| *s == span.name).unwrap_or(LAYERS.len());
    self_ns[at] += span.self_ns();
    for child in &span.children {
        add(child, self_ns);
    }
}
