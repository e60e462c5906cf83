//! Session-scoped memoization of calibration-curve lookups.
//!
//! The calibration fits ([`OpCostModel`]) and the empirical bandwidth
//! tables ([`BandwidthModel`]) are evaluated thousands of times per DSE
//! sweep, almost always at a handful of distinct `(opcode, type)` or
//! `(pattern, size)` points. [`CurveCache`] interns those evaluations
//! behind interior mutability so one shared reference can serve every
//! cost pass of an estimator session; the cached value is the *exact*
//! `f64`/[`ResourceVector`] the underlying model produced, so memoized
//! estimates stay bit-identical to fresh ones.
//!
//! The cache is deliberately device-agnostic: each method takes the
//! model to consult on a miss, and the owner (one estimator session per
//! target) guarantees a cache never sees two different devices.

use crate::bandwidth::BandwidthModel;
use crate::calibration::OpCostModel;
use crate::resources::ResourceVector;
use std::cell::RefCell;
use tytra_ir::{AccessPattern, LatencyModel, Opcode, ScalarType};
use tytra_trace::bounded::BoundedMap;
use tytra_trace::metrics::{Counter, Registry};

/// Which link a bandwidth lookup is for (part of the memo key, so the
/// host and DRAM curves of one device never alias).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Host ↔ device (PCIe DMA).
    Host,
    /// Device DRAM.
    Dram,
}

type OpKey = (Opcode, ScalarType);

/// Entries each memo table may hold before the CLOCK hand starts
/// evicting. The op-keyed tables see a handful of distinct points per
/// device, and the sustained-bandwidth table one point per distinct
/// transfer size — 1024 is far above any real working set while keeping
/// a long-running `tybec serve` deployment's memory bounded.
const CURVE_TABLE_CAPACITY: usize = 1024;

/// Memo tables for per-op calibration fits and sustained-bandwidth
/// interpolations. Cheap to construct; hold one per estimator session.
/// Size-bounded: each table evicts with the CLOCK policy past
/// `CURVE_TABLE_CAPACITY` entries (an eviction only ever forces a
/// bit-identical recompute).
#[derive(Debug)]
pub struct CurveCache {
    cost: RefCell<BoundedMap<OpKey, ResourceVector>>,
    latency: RefCell<BoundedMap<OpKey, u32>>,
    stage_delay: RefCell<BoundedMap<OpKey, u64>>,
    sustained: RefCell<BoundedMap<(LinkKind, AccessPattern, u64), u64>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl Default for CurveCache {
    fn default() -> CurveCache {
        CurveCache {
            cost: RefCell::new(BoundedMap::new(CURVE_TABLE_CAPACITY)),
            latency: RefCell::new(BoundedMap::new(CURVE_TABLE_CAPACITY)),
            stage_delay: RefCell::new(BoundedMap::new(CURVE_TABLE_CAPACITY)),
            sustained: RefCell::new(BoundedMap::new(CURVE_TABLE_CAPACITY)),
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
        }
    }
}

impl CurveCache {
    /// Fresh, empty cache with free-standing hit/miss counters.
    pub fn new() -> CurveCache {
        CurveCache::default()
    }

    /// Fresh cache whose counters are registered in `metrics` as
    /// `curves.hits` / `curves.misses` / `curves.evictions`, so a
    /// session's metrics snapshot reports curve-cache traffic without
    /// extra bookkeeping.
    pub fn with_registry(metrics: &Registry) -> CurveCache {
        CurveCache {
            hits: metrics.counter("curves.hits"),
            misses: metrics.counter("curves.misses"),
            evictions: metrics.counter("curves.evictions"),
            ..CurveCache::default()
        }
    }

    /// Memoized [`OpCostModel::cost`].
    pub fn cost(&self, ops: &OpCostModel, op: Opcode, ty: ScalarType) -> ResourceVector {
        let mut table = self.cost.borrow_mut();
        match table.get(&(op, ty)) {
            Some(&v) => {
                self.hits.incr();
                v
            }
            None => {
                self.misses.incr();
                let v = ops.cost(op, ty);
                if table.insert((op, ty), v) {
                    self.evictions.incr();
                }
                v
            }
        }
    }

    /// Memoized [`OpCostModel::latency`].
    pub fn latency(&self, ops: &OpCostModel, op: Opcode, ty: ScalarType) -> u32 {
        let mut table = self.latency.borrow_mut();
        match table.get(&(op, ty)) {
            Some(&v) => {
                self.hits.incr();
                v
            }
            None => {
                self.misses.incr();
                let v = ops.latency(op, ty);
                if table.insert((op, ty), v) {
                    self.evictions.incr();
                }
                v
            }
        }
    }

    /// Memoized [`OpCostModel::stage_delay_ns`] (stored as bits, returned
    /// bit-identical).
    pub fn stage_delay_ns(&self, ops: &OpCostModel, op: Opcode, ty: ScalarType) -> f64 {
        let mut table = self.stage_delay.borrow_mut();
        match table.get(&(op, ty)) {
            Some(&v) => {
                self.hits.incr();
                f64::from_bits(v)
            }
            None => {
                self.misses.incr();
                let v = ops.stage_delay_ns(op, ty);
                if table.insert((op, ty), v.to_bits()) {
                    self.evictions.incr();
                }
                v
            }
        }
    }

    /// Memoized [`BandwidthModel::sustained_bytes_per_s`].
    pub fn sustained_bytes_per_s(
        &self,
        link: LinkKind,
        bw: &BandwidthModel,
        pattern: AccessPattern,
        total_elems: u64,
    ) -> f64 {
        let mut table = self.sustained.borrow_mut();
        match table.get(&(link, pattern, total_elems)) {
            Some(&v) => {
                self.hits.incr();
                f64::from_bits(v)
            }
            None => {
                self.misses.incr();
                let v = bw.sustained_bytes_per_s(pattern, total_elems);
                if table.insert((link, pattern, total_elems), v.to_bits()) {
                    self.evictions.incr();
                }
                v
            }
        }
    }

    /// Lookups answered from the tables.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that fell through to the underlying model.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries the CLOCK hand has evicted under capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of interned entries across all tables.
    pub fn len(&self) -> usize {
        self.cost.borrow().len()
            + self.latency.borrow().len()
            + self.stage_delay.borrow().len()
            + self.sustained.borrow().len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every interned entry (counters keep running); returns how
    /// many entries were evicted.
    pub fn clear(&self) -> usize {
        let n = self.len();
        self.cost.borrow_mut().clear();
        self.latency.borrow_mut().clear();
        self.stage_delay.borrow_mut().clear();
        self.sustained.borrow_mut().clear();
        n
    }
}

/// Adapter plugging a cache-backed latency lookup into
/// [`tytra_ir::Dfg::build`], which wants a [`LatencyModel`].
#[derive(Debug, Clone, Copy)]
pub struct CachedLatency<'a> {
    /// The calibration consulted on a miss.
    pub ops: &'a OpCostModel,
    /// The session cache.
    pub cache: &'a CurveCache,
}

impl LatencyModel for CachedLatency<'_> {
    fn latency(&self, op: Opcode, ty: ScalarType) -> u32 {
        self.cache.latency(self.ops, op, ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UI18: ScalarType = ScalarType::UInt(18);

    #[test]
    fn cached_values_are_bit_identical() {
        let ops = OpCostModel::stratix_v();
        let cache = CurveCache::new();
        for _ in 0..3 {
            assert_eq!(cache.cost(&ops, Opcode::Mul, UI18), ops.cost(Opcode::Mul, UI18));
            assert_eq!(cache.latency(&ops, Opcode::Div, UI18), ops.latency(Opcode::Div, UI18));
            assert_eq!(
                cache.stage_delay_ns(&ops, Opcode::Add, UI18).to_bits(),
                ops.stage_delay_ns(Opcode::Add, UI18).to_bits()
            );
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 6);
    }

    #[test]
    fn sustained_lookup_keyed_per_link() {
        let bw = BandwidthModel::fig10_virtex7();
        let cache = CurveCache::new();
        let a =
            cache.sustained_bytes_per_s(LinkKind::Dram, &bw, AccessPattern::Contiguous, 1 << 20);
        let b =
            cache.sustained_bytes_per_s(LinkKind::Dram, &bw, AccessPattern::Contiguous, 1 << 20);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // A different link is a different key even at the same point.
        let _ =
            cache.sustained_bytes_per_s(LinkKind::Host, &bw, AccessPattern::Contiguous, 1 << 20);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn latency_adapter_matches_model() {
        let ops = OpCostModel::stratix_v();
        let cache = CurveCache::new();
        let adapter = CachedLatency { ops: &ops, cache: &cache };
        let lm: &dyn LatencyModel = &adapter;
        assert_eq!(lm.latency(Opcode::Mul, UI18), 2);
        assert_eq!(lm.latency(Opcode::Mul, UI18), 2);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn clear_evicts_but_keeps_counters() {
        let ops = OpCostModel::stratix_v();
        let cache = CurveCache::new();
        let _ = cache.cost(&ops, Opcode::Add, UI18);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.clear(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
    }
}
