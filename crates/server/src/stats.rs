//! Unified stats registry: one named-counter schema behind every stats
//! surface.
//!
//! [`crate::proto::WireStats`] grew a field at a time — every new
//! counter meant touching the struct, the binary codec, the
//! `solve_remote stats` printer, and now the HTTP gateway's `/v1/stats`
//! and `/metrics` renderings. This module inverts that: [`SCHEMA`] is
//! the single ordered list of `(name, help, kind)` counter definitions,
//! and a [`Registry`] is one snapshot of their values. Every consumer
//! renders *from the registry*:
//!
//! - the binary `stats reply` frame encodes the registry's values in
//!   [`SCHEMA`] order (bit-compatible with the pre-registry wire
//!   format — the field order **is** the schema order);
//! - `solve_remote stats` prints `name: value` lines off
//!   [`Registry::from_wire`];
//! - the HTTP gateway renders `/v1/stats` (JSON) and `/metrics`
//!   (Prometheus text) off [`Registry::iter`].
//!
//! Adding a counter is now one [`SCHEMA`] row plus one value in
//! `SessionCore`'s snapshot — the renderers pick it
//! up for free. (The binary frame still needs its codec line, which the
//! `schema_matches_wire_frame` test pins against the schema.)

use crate::proto::{FrontendKind, WireStats};

/// Whether a counter only grows (Prometheus `counter`) or can move both
/// ways (`gauge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotone since boot.
    Counter,
    /// Instantaneous level (backlog, connections) or high-water mark.
    Gauge,
}

/// One named counter's static definition.
#[derive(Debug, Clone, Copy)]
pub struct CounterDef {
    /// Stable snake_case name (doubles as the Prometheus metric name
    /// under the `msropm_` prefix and the JSON stats key).
    pub name: &'static str,
    /// One-line human description (the Prometheus `# HELP` text).
    pub help: &'static str,
    /// Counter vs gauge semantics.
    pub kind: CounterKind,
}

/// The ordered counter schema. **Order is the binary wire format**: the
/// `stats reply` frame encodes exactly these values in exactly this
/// order, so reordering or inserting mid-list is a wire break — append
/// only.
pub const SCHEMA: [CounterDef; 10] = [
    CounterDef {
        name: "jobs_completed",
        help: "Jobs that completed with a report, since boot.",
        kind: CounterKind::Counter,
    },
    CounterDef {
        name: "jobs_cancelled",
        help: "Jobs observed as cancelled (no report), since boot.",
        kind: CounterKind::Counter,
    },
    CounterDef {
        name: "jobs_failed",
        help: "Jobs that died without a report, since boot.",
        kind: CounterKind::Counter,
    },
    CounterDef {
        name: "worker_restarts",
        help: "Dead workers the supervisor has respawned, since boot.",
        kind: CounterKind::Counter,
    },
    CounterDef {
        name: "backlog",
        help: "Jobs waiting in the queue right now.",
        kind: CounterKind::Gauge,
    },
    CounterDef {
        name: "cache_hits",
        help: "Problem-cache hits since boot.",
        kind: CounterKind::Counter,
    },
    CounterDef {
        name: "cache_misses",
        help: "Problem-cache misses since boot.",
        kind: CounterKind::Counter,
    },
    CounterDef {
        name: "connections",
        help: "Connections currently served.",
        kind: CounterKind::Gauge,
    },
    CounterDef {
        name: "jobs_sharded",
        help: "Jobs that ran with more than one shard, since boot.",
        kind: CounterKind::Counter,
    },
    CounterDef {
        name: "shard_width_max",
        help: "Widest shard count any job has run with, since boot.",
        kind: CounterKind::Gauge,
    },
];

/// One snapshot of every [`SCHEMA`] counter plus the serving front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registry {
    values: [u64; SCHEMA.len()],
    frontend: FrontendKind,
}

impl Registry {
    /// Wraps a snapshot taken in [`SCHEMA`] order.
    pub fn new(values: [u64; SCHEMA.len()], frontend: FrontendKind) -> Registry {
        Registry { values, frontend }
    }

    /// Rebinds a decoded binary stats frame to the schema's names (the
    /// client-side entry point: `solve_remote stats` prints from this).
    pub fn from_wire(stats: &WireStats) -> Registry {
        Registry {
            values: [
                stats.jobs_completed,
                stats.jobs_cancelled,
                stats.jobs_failed,
                stats.worker_restarts,
                stats.backlog,
                stats.cache_hits,
                stats.cache_misses,
                stats.connections,
                stats.jobs_sharded,
                stats.shard_width_max,
            ],
            frontend: stats.frontend,
        }
    }

    /// Projects the registry onto the legacy struct the binary codec
    /// encodes — the schema order and the field order are the same
    /// frame, so this is the bit-compatibility seam.
    pub fn to_wire(&self) -> WireStats {
        WireStats {
            jobs_completed: self.values[0],
            jobs_cancelled: self.values[1],
            jobs_failed: self.values[2],
            worker_restarts: self.values[3],
            backlog: self.values[4],
            cache_hits: self.values[5],
            cache_misses: self.values[6],
            connections: self.values[7],
            jobs_sharded: self.values[8],
            shard_width_max: self.values[9],
            frontend: self.frontend,
        }
    }

    /// Which front end produced the snapshot.
    pub fn frontend(&self) -> FrontendKind {
        self.frontend
    }

    /// Looks up one counter by schema name.
    pub fn get(&self, name: &str) -> Option<u64> {
        SCHEMA
            .iter()
            .position(|def| def.name == name)
            .map(|i| self.values[i])
    }

    /// Every counter with its definition, in schema (= wire) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> + '_ {
        SCHEMA.iter().zip(self.values.iter().copied())
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (the HTTP gateway's `/metrics` body): per counter a `# HELP`
    /// line, a `# TYPE` line, and `msropm_<name> <value>`; the serving
    /// front end travels as a labelled info-style gauge.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (def, value) in self.iter() {
            let kind = match def.kind {
                CounterKind::Counter => "counter",
                CounterKind::Gauge => "gauge",
            };
            out.push_str(&format!(
                "# HELP msropm_{name} {help}\n# TYPE msropm_{name} {kind}\nmsropm_{name} {value}\n",
                name = def.name,
                help = def.help,
            ));
        }
        out.push_str(&format!(
            "# HELP msropm_frontend Which serving front end answered (1 = active).\n\
             # TYPE msropm_frontend gauge\n\
             msropm_frontend{{kind=\"{}\"}} 1\n",
            self.frontend
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_response, Response};

    fn sample() -> Registry {
        Registry::new([9, 8, 7, 6, 5, 4, 3, 2, 1, 11], FrontendKind::Http)
    }

    /// The registry round-trips through the binary stats frame without
    /// loss — the schema order *is* the wire field order.
    #[test]
    fn schema_matches_wire_frame() {
        let reg = sample();
        let frame = encode_response(&Response::StatsReply(reg.to_wire()));
        let Response::StatsReply(back) = decode_response(&frame).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(Registry::from_wire(&back), reg);
    }

    #[test]
    fn named_lookup_and_order() {
        let reg = sample();
        assert_eq!(reg.get("jobs_completed"), Some(9));
        assert_eq!(reg.get("shard_width_max"), Some(11));
        assert_eq!(reg.get("no_such_counter"), None);
        let names: Vec<&str> = reg.iter().map(|(def, _)| def.name).collect();
        assert_eq!(names[0], "jobs_completed");
        assert_eq!(names[9], "shard_width_max");
    }

    #[test]
    fn prometheus_rendering_covers_every_counter() {
        let text = sample().render_prometheus();
        for def in SCHEMA {
            assert!(text.contains(&format!("msropm_{} ", def.name)), "{text}");
            assert!(text.contains(&format!("# TYPE msropm_{}", def.name)));
        }
        assert!(text.contains("msropm_frontend{kind=\"http\"} 1"));
    }
}
