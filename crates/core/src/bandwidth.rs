//! Applying the empirical sustained-bandwidth model to a design's
//! streams (paper section V-C).
//!
//! Each off-chip stream sustains a pattern- and size-dependent fraction
//! of the link's peak. Concurrent streams time-share the memory
//! controller: the aggregate is the sum of per-stream sustained figures,
//! capped at a controller-efficiency fraction of the link peak. The
//! resulting aggregate ÷ peak is the design's ρ (ρ_G for the DRAM link,
//! ρ_H for the host link).

use std::fmt;
use std::sync::Arc;
use tytra_device::{LinkSpec, TargetDevice};
use tytra_ir::{lane_name, AccessPattern, PatchedModule, StreamDir};

/// Fraction of link peak a real controller sustains with many concurrent
/// well-formed streams.
pub const CONTROLLER_EFFICIENCY: f64 = 0.85;

/// One stream's bandwidth assessment.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBandwidth {
    /// Stream-object name.
    pub name: String,
    /// Direction.
    pub dir: StreamDir,
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Elements in the backing array.
    pub elems: u64,
    /// Sustained bandwidth alone on the link, bytes/s.
    pub sustained_bytes_per_s: f64,
}

/// The per-stream assessments of a design: one lane's streams, standing
/// for one copy per lane. Every copy of a stream has the same pattern,
/// length and sustained figure and differs only in the lane suffix of its
/// name, so the list is kept once and the names are expanded only where
/// the streams are read: [`iter`][LaneStreams::iter] yields, and `Debug`
/// prints, the expanded list in lane-major order.
#[derive(Clone)]
pub struct LaneStreams {
    /// One lane's streams, named as in the lane template.
    pub(crate) lane: Arc<[StreamBandwidth]>,
    /// How many lanes the list stands for (≥ 1).
    pub(crate) lanes: u64,
}

impl LaneStreams {
    /// Number of streams across every lane.
    pub fn len(&self) -> usize {
        self.lane.len() * self.lanes as usize
    }

    /// Whether the design has no off-chip stream.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty()
    }

    /// Every lane's streams, lane-major, each with its lane's name.
    pub fn iter(&self) -> impl Iterator<Item = StreamBandwidth> + '_ {
        (0..self.lanes).flat_map(move |l| {
            self.lane.iter().map(move |s| StreamBandwidth {
                name: lane_name(&s.name, l, self.lanes),
                ..s.clone()
            })
        })
    }
}

impl PartialEq for LaneStreams {
    /// Equal when the expanded lists are.
    fn eq(&self, other: &LaneStreams) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for LaneStreams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Aggregate bandwidth figures for one design on one target.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthBreakdown {
    /// Per off-chip stream assessments. Shared, so every report of a
    /// design's variants holds the memoized list instead of a copy.
    pub streams: LaneStreams,
    /// Aggregate sustained DRAM bandwidth, bytes/s (`GPB · ρ_G`).
    pub dram_effective: f64,
    /// The DRAM scaling factor ρ_G.
    pub rho_g: f64,
    /// Aggregate sustained host bandwidth, bytes/s (`HPB · ρ_H`).
    pub host_effective: f64,
    /// The host scaling factor ρ_H.
    pub rho_h: f64,
}

/// Assess with the empirical model disabled: every stream is assumed to
/// sustain the controller-efficiency fraction of peak, regardless of
/// pattern or size. This is the naive model the paper's section V-C
/// argues against; the ablation bench quantifies the damage.
pub(crate) fn assess_naive(d: &PatchedModule<'_>, dev: &TargetDevice) -> BandwidthBreakdown {
    let mut full = assess(d, dev);
    let dram = dev.dram_link.peak_bytes_per_s * CONTROLLER_EFFICIENCY;
    let host = dev.host_link.peak_bytes_per_s * CONTROLLER_EFFICIENCY;
    full.streams.lane = full
        .streams
        .lane
        .iter()
        .map(|s| StreamBandwidth { sustained_bytes_per_s: dram, ..s.clone() })
        .collect();
    full.dram_effective = dram;
    full.rho_g = CONTROLLER_EFFICIENCY;
    full.host_effective = host;
    full.rho_h = CONTROLLER_EFFICIENCY;
    full
}

/// Assess every off-chip stream of the design and derive ρ_G / ρ_H.
///
/// Streams are **co-required**: every work-item consumes one element of
/// each input stream and produces one of each output, so the slowest
/// per-element stream gates the item rate — a strided input cannot be
/// masked by a fast contiguous output. The aggregate is therefore
/// `min(Σ sustained capped at controller efficiency,
///      lanes × min_i(sustained_i / elem_bytes_i) × bytes_per_item)`.
///
/// A patch at KNL lanes stands for KNL copies of the template's
/// Manage-IR, each array `len / KNL` long. Every copy of a stream has the
/// template's pattern and that length, so the curve is looked up once per
/// template stream and one lane's list is kept; the sums still run over
/// the expanded streams in lane-major order, which keeps every `f64`
/// rounding that of the expanded module.
pub(crate) fn assess(d: &PatchedModule<'_>, dev: &TargetDevice) -> BandwidthBreakdown {
    let m = d.arena.template();
    let lanes = d.lanes();
    let links = m.manage_links();
    // One lane's off-chip streams, with their element widths.
    let mut lane = Vec::new();
    let mut elem_bytes = Vec::new();
    for (i, s) in m.streams.iter().enumerate() {
        let Some(mem) = links.stream_mem(i).filter(|mem| mem.space.is_offchip()) else {
            continue;
        };
        let elems = mem.len / lanes;
        lane.push(StreamBandwidth {
            name: s.name.clone(),
            dir: s.dir,
            pattern: s.pattern,
            elems,
            sustained_bytes_per_s: dev.dram_link.bw.sustained_bytes_per_s(s.pattern, elems),
        });
        elem_bytes.push(f64::from(mem.elem_ty.bytes()));
    }
    let mut dram_sum = 0.0;
    // Slowest per-element rate across co-required streams, items/s.
    let mut min_item_rate = f64::INFINITY;
    let mut bytes_per_item_all_lanes = 0.0f64;
    for _ in 0..lanes {
        for (s, &eb) in lane.iter().zip(&elem_bytes) {
            dram_sum += s.sustained_bytes_per_s;
            min_item_rate = min_item_rate.min(s.sustained_bytes_per_s / eb);
            bytes_per_item_all_lanes += eb;
        }
    }
    let knl = d.kernel_lanes().max(1) as f64;
    // Per-work-item bytes (per-lane stream sets are parallel replicas).
    let bytes_per_item = bytes_per_item_all_lanes / knl;
    let gated = if min_item_rate.is_finite() {
        knl * min_item_rate * bytes_per_item
    } else {
        f64::INFINITY
    };
    let dram_sum = dram_sum.min(gated);
    let (dram_effective, rho_g) = aggregate(&dev.dram_link, dram_sum, lane.is_empty());

    // Host DMA moves whole arrays contiguously regardless of the kernel's
    // access pattern; its sustained figure depends on transfer size.
    let total_elems: u64 = lane.iter().map(|s| s.elems).sum::<u64>() * lanes;
    let host_sum = if total_elems == 0 {
        0.0
    } else {
        dev.host_link.bw.sustained_bytes_per_s(AccessPattern::Contiguous, total_elems)
    };
    let (host_effective, rho_h) = aggregate(&dev.host_link, host_sum, total_elems == 0);

    BandwidthBreakdown {
        streams: LaneStreams { lane: lane.into(), lanes },
        dram_effective,
        rho_g,
        host_effective,
        rho_h,
    }
}

fn aggregate(link: &LinkSpec, sum: f64, empty: bool) -> (f64, f64) {
    if empty {
        // No off-chip streams: bandwidth is not a factor; report the
        // cap so time terms divide cleanly.
        let eff = link.peak_bytes_per_s * CONTROLLER_EFFICIENCY;
        return (eff, CONTROLLER_EFFICIENCY);
    }
    let eff = sum.min(link.peak_bytes_per_s * CONTROLLER_EFFICIENCY);
    (eff, eff / link.peak_bytes_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::{stratix_v_gsd8, virtex7_adm7v3};
    use tytra_ir::{ArenaModule, IrModule, MemForm, ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(32);

    fn assess_tree(m: IrModule, dev: &TargetDevice) -> BandwidthBreakdown {
        assess(&ArenaModule::build(m).identity(), dev)
    }

    fn module_with_streams(n_in: usize, strided: bool, elems: u64) -> IrModule {
        let mut b = ModuleBuilder::new("m");
        for i in 0..n_in {
            if strided {
                b.global_array(
                    &format!("x{i}"),
                    T,
                    elems,
                    StreamDir::Read,
                    AccessPattern::Strided { stride: 2000 },
                );
            } else {
                b.global_input(&format!("x{i}"), T, elems);
            }
        }
        b.global_output("y", T, elems);
        {
            let f = b.function("f0", ParKind::Pipe);
            for i in 0..n_in {
                f.input(format!("x{i}"), T);
            }
            f.output("y", T);
            let x = f.arg("x0");
            let v = f.instr(Opcode::Add, T, vec![x, f.imm(1)]);
            f.write_out("y", v);
        }
        b.main_calls("f0");
        b.ndrange(&[elems]);
        b.finish_unchecked()
    }

    #[test]
    fn contiguous_streams_aggregate() {
        let dev = virtex7_adm7v3();
        let m = module_with_streams(3, false, 2000 * 2000);
        let bw = assess_tree(m, &dev);
        assert_eq!(bw.streams.len(), 4);
        // Each contiguous 2000-side stream sustains 5.2 Gbps = 0.65 GB/s.
        let per = 5.2e9 / 8.0;
        assert!((bw.streams.lane[0].sustained_bytes_per_s - per).abs() / per < 1e-9);
        assert!((bw.dram_effective - 4.0 * per).abs() / per < 1e-6);
        assert!(bw.rho_g > 0.2 && bw.rho_g < 0.3, "{}", bw.rho_g);
    }

    #[test]
    fn aggregate_capped_at_controller_efficiency() {
        let dev = virtex7_adm7v3();
        // 20 streams would nominally exceed the 10.7 GB/s link.
        let m = module_with_streams(19, false, 6000 * 6000);
        let bw = assess_tree(m, &dev);
        assert!((bw.rho_g - CONTROLLER_EFFICIENCY).abs() < 1e-9);
        assert!(
            (bw.dram_effective - dev.dram_link.peak_bytes_per_s * CONTROLLER_EFFICIENCY).abs()
                < 1.0
        );
    }

    #[test]
    fn strided_streams_collapse_rho() {
        let dev = virtex7_adm7v3();
        let cont = assess_tree(module_with_streams(1, false, 2000 * 2000), &dev);
        let strided = assess_tree(module_with_streams(1, true, 2000 * 2000), &dev);
        // One stream of each direction; the strided input drags the
        // aggregate down by an order of magnitude or more.
        assert!(cont.dram_effective / strided.dram_effective > 1.8);
        let strided_in = &strided.streams.lane[0];
        assert!(matches!(strided_in.pattern, AccessPattern::Strided { .. }));
        assert!(strided_in.sustained_bytes_per_s < 0.08e9 / 8.0 + 1.0);
    }

    #[test]
    fn small_arrays_sustain_less() {
        let dev = virtex7_adm7v3();
        let small = assess_tree(module_with_streams(1, false, 100 * 100), &dev);
        let large = assess_tree(module_with_streams(1, false, 4000 * 4000), &dev);
        assert!(small.dram_effective < large.dram_effective);
    }

    #[test]
    fn no_offchip_streams_reports_cap() {
        let dev = stratix_v_gsd8();
        let mut b = ModuleBuilder::new("c");
        b.local_array("x", T, 64, StreamDir::Read);
        b.local_array("y", T, 64, StreamDir::Write);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x, f.imm(1)]);
            f.write_out("y", v);
        }
        b.main_calls("f0");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let bw = assess_tree(m, &dev);
        assert!(bw.streams.is_empty());
        assert_eq!(bw.rho_g, CONTROLLER_EFFICIENCY);
    }

    #[test]
    fn host_rho_depends_on_transfer_size() {
        let dev = stratix_v_gsd8();
        let small = assess_tree(module_with_streams(1, false, 64 * 64), &dev);
        let large = assess_tree(module_with_streams(1, false, 4000 * 4000), &dev);
        assert!(small.rho_h < large.rho_h);
        assert!(large.rho_h <= CONTROLLER_EFFICIENCY + 1e-12);
    }

    #[test]
    fn lane_template_assesses_like_its_expansion() {
        // Strided and contiguous inputs of different lengths, one output,
        // and a one-call `par` dispatcher: the per-stream list, every sum
        // and both ρ must match the expanded module bit for bit, with one
        // lane's list kept.
        let dev = virtex7_adm7v3();
        let mut b = ModuleBuilder::new("tpl");
        let n = 4096 * 64;
        b.global_array("x", T, n, StreamDir::Read, AccessPattern::Strided { stride: 64 });
        b.global_input("w", ScalarType::UInt(18), n / 2);
        b.global_output("y", T, n);
        b.function("f0", ParKind::Pipe);
        b.function("f1", ParKind::Par).call("f0", vec![], ParKind::Pipe);
        b.main_calls("f1");
        let template = b.finish_unchecked();
        let arena = ArenaModule::build(template.clone());
        for lanes in [1u64, 2, 3, 16, 64] {
            let d = arena.patched("tpl", MemForm::B, 1, lanes);
            let replicated = assess(&d, &dev);
            let expanded = assess_tree(template.clone().expand_lanes(lanes), &dev);
            assert_eq!(replicated.streams.lane.len(), 3, "{lanes} lanes");
            assert_eq!(replicated.streams.len(), 3 * lanes as usize);
            assert_eq!(replicated, expanded, "{lanes} lanes");
            assert_eq!(format!("{replicated:?}"), format!("{expanded:?}"), "{lanes} lanes");
        }
    }
}
