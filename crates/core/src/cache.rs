//! Problem cache: interned, compiled machines keyed by canonical graph
//! hash + config fingerprint.
//!
//! Compiling a problem (building the [`msropm_osc::PhaseNetwork`] from a
//! graph at an operating point) is pure overhead for repeat topologies —
//! a production front end sees the same benchmark boards and customer
//! graphs over and over. [`ProblemCache`] interns one [`Msropm`] per
//! `(graph, config)` pair behind an `Arc`, so concurrent workers share a
//! single compilation and a job can start integrating immediately on a
//! hit.
//!
//! Keys are `(`[`msropm_graph::io::graph_hash`]`, config fingerprint,
//! problem fingerprint)`. The problem fingerprint is `0` for plain
//! graph-coloring submissions; compiled `ProblemSpec` submissions
//! (see the `msropm-problems` crate) carry their own domain digest so
//! two different problems that *encode* onto the same graph and config
//! (e.g. MIS vs max-cut on one topology) occupy distinct slots and the
//! per-class hit statistics stay meaningful.
//! Because a 64-bit digest can collide in principle, every hit is
//! verified structurally against the resident machine's graph **and**
//! config (an `O(m)` edge compare — noise next to a solve); a verified
//! mismatch is compiled fresh and **not** cached, so a collision can
//! never produce a wrong answer, only a lost cache slot. Eviction is LRU
//! under a fixed entry cap. Cache hits are bit-identical to misses:
//! `Msropm::new` is deterministic, and the machine is immutable once
//! interned.

use crate::config::{KernelBackend, MsropmConfig, ReinitMode};
use crate::machine::Msropm;
use msropm_graph::{graph_hash, Graph};
use std::collections::HashMap;
use std::sync::Arc;

/// FNV-1a over the configuration's exact field encoding: two configs
/// share a fingerprint iff every dynamics/timing field is bit-identical
/// (f64 fields compare by `to_bits`, so `-0.0 != 0.0` — stricter than
/// `==`, never wrong).
fn config_fingerprint(c: &MsropmConfig) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(c.num_colors as u64);
    mix(c.coupling_strength.to_bits());
    mix(c.shil_strength.to_bits());
    mix(c.noise.to_bits());
    mix(c.frequency_spread.to_bits());
    mix(c.t_init.to_bits());
    mix(c.t_anneal.to_bits());
    mix(c.t_lock.to_bits());
    mix(c.dt.to_bits());
    match c.reinit {
        ReinitMode::UniformRandom => mix(1),
        ReinitMode::JitterDrift { sigma } => {
            mix(2);
            mix(sigma.to_bits());
        }
    }
    mix(u64::from(c.shil_ramp));
    // The numeric backend is part of the problem identity: a machine
    // compiled for one backend must never serve the other's lookups.
    mix(match c.backend {
        KernelBackend::F64 => 1,
        KernelBackend::Fixed => 2,
    });
    h
}

/// Same labelled topology? Cheap structural equality used to verify
/// hash hits (edge lists are canonical in a [`Graph`], so zip-compare
/// suffices).
fn same_graph(a: &Graph, b: &Graph) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.num_edges() == b.num_edges()
        && a.edges()
            .zip(b.edges())
            .all(|((_, u1, v1), (_, u2, v2))| u1 == u2 && v1 == v2)
}

#[derive(Debug)]
struct Entry {
    machine: Arc<Msropm>,
    /// Monotone LRU stamp; the smallest stamp is evicted first.
    last_used: u64,
}

/// Running hit/miss/eviction counters of a [`ProblemCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident, verified entry.
    pub hits: u64,
    /// Lookups that compiled a fresh machine (and, capacity permitting,
    /// interned it).
    pub misses: u64,
    /// Entries evicted to respect the capacity cap.
    pub evictions: u64,
    /// Verified 64-bit digest collisions (compiled fresh, not cached).
    pub collisions: u64,
}

/// LRU-interning table of compiled machines; see the module docs.
///
/// The cache itself is not synchronized — `msropm-server` wraps one in a
/// mutex and clones the `Arc<Msropm>` out, so workers never solve while
/// holding the lock.
#[derive(Debug)]
pub struct ProblemCache {
    capacity: usize,
    entries: HashMap<(u64, u64, u64), Entry>,
    clock: u64,
    stats: CacheStats,
}

impl ProblemCache {
    /// Creates a cache holding at most `capacity` compiled machines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        ProblemCache {
            capacity,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks up the interned machine for `(graph, config)` without
    /// compiling. `None` means absent (counted as the start of a miss)
    /// *or* a verified digest collision (counted; such a problem is
    /// served uncached). On a hit the entry is verified structurally —
    /// graph **and** config — so a collision on either 64-bit digest can
    /// never hand back the wrong compilation.
    ///
    /// Use `lookup`/[`ProblemCache::intern`] around an unlocked compile
    /// when the cache sits behind a mutex; [`ProblemCache::get_or_compile`]
    /// is the single-threaded convenience.
    pub fn lookup(&mut self, graph: &Graph, config: &MsropmConfig) -> Option<Arc<Msropm>> {
        self.lookup_problem(graph, config, 0)
    }

    /// Like [`ProblemCache::lookup`], but scoped to one compiled
    /// problem: `problem_fingerprint` is the domain digest of the
    /// submitted `ProblemSpec` (`0` for plain graph submissions), so
    /// distinct problem classes sharing an encoding graph and config
    /// never alias each other's slots.
    pub fn lookup_problem(
        &mut self,
        graph: &Graph,
        config: &MsropmConfig,
        problem_fingerprint: u64,
    ) -> Option<Arc<Msropm>> {
        let key = (
            graph_hash(graph),
            config_fingerprint(config),
            problem_fingerprint,
        );
        self.clock += 1;
        match self.entries.get_mut(&key) {
            Some(entry)
                if same_graph(entry.machine.graph(), graph) && entry.machine.config() == config =>
            {
                entry.last_used = self.clock;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.machine))
            }
            Some(_) => {
                // True 64-bit collision: keep the resident entry; the
                // caller compiles fresh and `intern` will refuse to
                // displace the resident.
                self.stats.collisions += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Interns `machine` (compiled by the caller after a failed
    /// [`ProblemCache::lookup`]) and returns the canonical `Arc` for the
    /// problem: if another worker interned a verified entry for the same
    /// key in the meantime, *that* entry wins and `machine` is discarded
    /// (all compilations are bit-identical, so either answer is the
    /// same); on a digest collision the resident entry stays and
    /// `machine` is returned uncached. Evicts LRU beyond capacity.
    pub fn intern(&mut self, machine: Arc<Msropm>) -> Arc<Msropm> {
        self.intern_problem(machine, 0)
    }

    /// Like [`ProblemCache::intern`], but under the slot of one
    /// compiled problem (see [`ProblemCache::lookup_problem`]).
    pub fn intern_problem(
        &mut self,
        machine: Arc<Msropm>,
        problem_fingerprint: u64,
    ) -> Arc<Msropm> {
        let key = (
            graph_hash(machine.graph()),
            config_fingerprint(machine.config()),
            problem_fingerprint,
        );
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            if same_graph(entry.machine.graph(), machine.graph())
                && entry.machine.config() == machine.config()
            {
                entry.last_used = self.clock;
                return Arc::clone(&entry.machine);
            }
            return machine;
        }
        if self.entries.len() >= self.capacity {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                machine: Arc::clone(&machine),
                last_used: self.clock,
            },
        );
        machine
    }

    /// Returns the interned machine for `(graph, config)`, compiling it
    /// on first sight. The returned `Arc` stays valid (and bit-identical)
    /// however the cache evolves afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`MsropmConfig::validate`]).
    pub fn get_or_compile(&mut self, graph: &Graph, config: &MsropmConfig) -> Arc<Msropm> {
        if let Some(machine) = self.lookup(graph, config) {
            return machine;
        }
        self.intern(Arc::new(Msropm::new(graph, *config)))
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry cap this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Running counters (hits, misses, evictions, collisions).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msropm_graph::generators;

    fn fast_config() -> MsropmConfig {
        MsropmConfig {
            dt: 0.02,
            ..MsropmConfig::paper_default()
        }
    }

    #[test]
    fn repeat_topology_hits_and_interns() {
        let g = generators::kings_graph(4, 4);
        let mut cache = ProblemCache::new(4);
        let a = cache.get_or_compile(&g, &fast_config());
        let b = cache.get_or_compile(&g, &fast_config());
        assert!(Arc::ptr_eq(&a, &b), "hit must return the interned machine");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn config_changes_are_distinct_problems() {
        let g = generators::kings_graph(3, 3);
        let mut cache = ProblemCache::new(4);
        let a = cache.get_or_compile(&g, &fast_config());
        let hot = MsropmConfig {
            noise: 0.31,
            ..fast_config()
        };
        let b = cache.get_or_compile(&g, &hot);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_under_the_cap() {
        let mut cache = ProblemCache::new(2);
        let g1 = generators::kings_graph(3, 3);
        let g2 = generators::cycle_graph(10);
        let g3 = generators::path_graph(7);
        let cfg = fast_config();
        cache.get_or_compile(&g1, &cfg);
        cache.get_or_compile(&g2, &cfg);
        // Touch g1 so g2 becomes the LRU victim.
        cache.get_or_compile(&g1, &cfg);
        cache.get_or_compile(&g3, &cfg);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // g1 survived (hit), g2 was evicted (miss recompiles).
        let before = cache.stats().hits;
        cache.get_or_compile(&g1, &cfg);
        assert_eq!(cache.stats().hits, before + 1);
        let misses_before = cache.stats().misses;
        cache.get_or_compile(&g2, &cfg);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn lookup_intern_double_checked_path() {
        let g = generators::kings_graph(3, 3);
        let cfg = fast_config();
        let mut cache = ProblemCache::new(2);
        // Absent: lookup misses, caller compiles unlocked.
        assert!(cache.lookup(&g, &cfg).is_none());
        let a = cache.intern(Arc::new(Msropm::new(&g, cfg)));
        // A racing worker's duplicate compilation loses to the resident.
        let b = cache.intern(Arc::new(Msropm::new(&g, cfg)));
        assert!(Arc::ptr_eq(&a, &b), "resident entry must win the race");
        let hit = cache.lookup(&g, &cfg).expect("now resident");
        assert!(Arc::ptr_eq(&a, &hit));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn problem_fingerprints_get_distinct_slots() {
        // Two problems encoding onto the same graph + config (e.g. MIS
        // vs max-cut) must not alias each other's cache slots, and the
        // plain graph path (fingerprint 0) is its own slot too.
        let g = generators::cycle_graph(8);
        let cfg = fast_config();
        let mut cache = ProblemCache::new(4);
        let plain = cache.get_or_compile(&g, &cfg);
        assert!(cache.lookup_problem(&g, &cfg, 0xfeed).is_none());
        let a = cache.intern_problem(Arc::new(Msropm::new(&g, cfg)), 0xfeed);
        let b = cache.intern_problem(Arc::new(Msropm::new(&g, cfg)), 0xbeef);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&plain, &a));
        assert_eq!(cache.len(), 3);
        let hit = cache.lookup_problem(&g, &cfg, 0xfeed).expect("resident");
        assert!(Arc::ptr_eq(&a, &hit));
        // The plain-key API still resolves to the fingerprint-0 slot.
        let hit0 = cache.lookup(&g, &cfg).expect("resident");
        assert!(Arc::ptr_eq(&plain, &hit0));
    }

    #[test]
    fn backend_never_aliases_a_cache_slot() {
        // Two configs identical except for the kernel backend must hash
        // to distinct fingerprints and occupy distinct slots: a machine
        // compiled for the f64 stack must never be served to a
        // fixed-point job or vice versa.
        let cfg_f64 = fast_config();
        let cfg_fx = fast_config().with_backend(KernelBackend::Fixed);
        assert_ne!(config_fingerprint(&cfg_f64), config_fingerprint(&cfg_fx));

        let g = generators::kings_graph(3, 3);
        let mut cache = ProblemCache::new(4);
        let a = cache.get_or_compile(&g, &cfg_f64);
        let b = cache.get_or_compile(&g, &cfg_fx);
        assert!(!Arc::ptr_eq(&a, &b), "cross-backend hit served");
        assert_eq!(cache.len(), 2, "backends must occupy distinct slots");
        assert_eq!(cache.stats().misses, 2);
        // Each backend's lookup resolves to its own machine.
        let hit_f64 = cache.lookup(&g, &cfg_f64).expect("f64 slot resident");
        let hit_fx = cache.lookup(&g, &cfg_fx).expect("fixed slot resident");
        assert!(Arc::ptr_eq(&a, &hit_f64));
        assert!(Arc::ptr_eq(&b, &hit_fx));
        assert_eq!(hit_f64.config().backend, KernelBackend::F64);
        assert_eq!(hit_fx.config().backend, KernelBackend::Fixed);
    }

    #[test]
    fn fingerprint_distinguishes_reinit_modes() {
        let uniform = MsropmConfig {
            reinit: ReinitMode::UniformRandom,
            ..fast_config()
        };
        let drift = MsropmConfig {
            reinit: ReinitMode::JitterDrift { sigma: 1.0 },
            ..fast_config()
        };
        assert_ne!(config_fingerprint(&uniform), config_fingerprint(&drift));
        assert_eq!(config_fingerprint(&uniform), config_fingerprint(&uniform));
    }
}
