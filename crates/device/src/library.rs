//! Built-in target devices.

use crate::calibration::OpCostModel;
use crate::power::PowerModel;
use crate::resources::ResourceVector;
use crate::target::{LinkSpec, TargetDevice};

/// The Maxeler Maia DFE's Altera **Stratix-V GS D8** (695 K logic
/// elements ≈ 262 K ALMs ≈ 525 K ALUTs; 2567 M20K blocks; 1963
/// variable-precision DSPs), hosted over PCIe gen2 ×8 — the paper's §VII
/// case-study platform.
pub fn stratix_v_gsd8() -> TargetDevice {
    TargetDevice {
        name: "stratix-v-gsd8 (Maxeler Maia DFE)".into(),
        capacity: ResourceVector::new(524_800, 1_049_600, 2567 * 20_480, 1963),
        bram_block_bits: 20_480,
        fmax_mhz: 250.0,
        // PCIe gen2 ×8: 4 GB/s peak per direction, DMA-engine driven.
        host_link: LinkSpec::dma(4.0e9, 45.0),
        // Maia on-board DDR3: ~38 GB/s aggregate behind Maxeler's
        // optimised streaming controllers.
        dram_link: LinkSpec::dma(38.4e9, 8.0),
        ops: OpCostModel::stratix_v(),
        power: PowerModel::stratix_v(),
        host_call_overhead_us: 60.0,
        util_derate: 0.35,
    }
}

/// The Alpha-Data **ADM-PCIE-7V3**'s Xilinx Virtex-7 690T (433 K LUTs,
/// 866 K FFs, 1470 36-Kb block RAMs, 3600 DSP48s) — the board the Fig 10
/// bandwidth benchmark ran on under SDAccel.
pub fn virtex7_adm7v3() -> TargetDevice {
    TargetDevice {
        name: "virtex-7-690t (Alpha-Data ADM-PCIE-7V3)".into(),
        capacity: ResourceVector::new(433_200, 866_400, 1470 * 36_864, 3600),
        bram_block_bits: 36_864,
        fmax_mhz: 220.0,
        // PCIe gen3 ×8: ~7.9 GB/s peak, DMA-engine driven.
        host_link: LinkSpec::dma(7.9e9, 50.0),
        // Single DDR3-1333 bank: 10.7 GB/s (the Fig 10 baseline).
        dram_link: LinkSpec::with_peak(10.7e9, 9.0),
        ops: OpCostModel::stratix_v(),
        power: PowerModel::stratix_v(),
        host_call_overhead_us: 70.0,
        util_derate: 0.35,
    }
}

/// The evaluation target of the Fig 15 lane sweep. Table II's SOR uses
/// ~534 ALUTs per lane yet Fig 15 hits its computation wall at six lanes,
/// which only fits a device far smaller than a GSD8 once per-lane stream
/// control is replicated (see DESIGN.md §6). This target is sized so the
/// integer SOR lane (datapath + offset buffers + stream control) crosses
/// 100 % ALUTs between lanes 6 and 7 while BRAM and DSPs stay
/// under-utilised, reproducing the wall ordering of the figure.
pub fn eval_small() -> TargetDevice {
    TargetDevice {
        name: "eval-small (fig-15 sweep target)".into(),
        // ~6.4 integer SOR lanes' worth of ALUTs; plentiful registers,
        // BRAM and DSPs so only the ALUT (computation) wall binds.
        capacity: ResourceVector::new(3_400, 26_000, 512 * 20_480, 64),
        bram_block_bits: 20_480,
        // The figure's walls are stated against a 150 MHz build clock.
        fmax_mhz: 150.0,
        // Host link sized so the Form-A communication wall falls at
        // four 9-byte-per-item lanes: 4 × 9 B × 150 MHz = 5.4 GB/s
        // effective.
        host_link: LinkSpec::dma(7.0e9, 45.0),
        // DRAM link sized so the Form-B wall falls at sixteen lanes:
        // 16 × 9 B × 150 MHz = 21.6 GB/s effective.
        dram_link: LinkSpec::dma(22.8e9, 8.0),
        ops: OpCostModel::stratix_v(),
        power: PowerModel::stratix_v(),
        host_call_overhead_us: 60.0,
        util_derate: 0.1,
    }
}

/// The target `tybec --target` and a served request use when they name
/// none.
pub const DEFAULT_TARGET: &str = "stratix-v-gsd8";

/// A built-in target's constructor, such as [`stratix_v_gsd8`].
pub type TargetFn = fn() -> TargetDevice;

/// Look a target up by the name `tybec --target` and `tybec serve`
/// accept, aliases included: its canonical name, which aliases share,
/// and its constructor.
pub fn target_by_name(name: &str) -> Result<(&'static str, TargetFn), String> {
    match name {
        "stratix-v-gsd8" | "stratix" => Ok(("stratix-v-gsd8", stratix_v_gsd8)),
        "virtex7-adm7v3" | "virtex7" => Ok(("virtex7-adm7v3", virtex7_adm7v3)),
        "eval-small" => Ok(("eval-small", eval_small)),
        other => Err(format!("unknown target `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gsd8_capacities_match_datasheet_scale() {
        let d = stratix_v_gsd8();
        assert_eq!(d.capacity.aluts, 524_800);
        assert_eq!(d.capacity.dsps, 1963);
        assert_eq!(d.bram_block_capacity(), 2567);
        assert!(d.host_link.peak_bytes_per_s < d.dram_link.peak_bytes_per_s);
    }

    #[test]
    fn virtex7_uses_36kb_blocks() {
        let d = virtex7_adm7v3();
        assert_eq!(d.bram_block_bits, 36_864);
        assert_eq!(d.bram_block_capacity(), 1470);
    }

    #[test]
    fn fig10_calibration_attached_to_virtex_dram() {
        let d = virtex7_adm7v3();
        let gbps = d.dram_link.bw.sustained_gbps(tytra_ir::AccessPattern::Contiguous, 6000 * 6000);
        assert!((gbps - 6.3).abs() < 1e-9);
    }

    #[test]
    fn eval_small_is_much_smaller_than_gsd8() {
        let s = eval_small();
        let g = stratix_v_gsd8();
        assert!(s.capacity.aluts * 20 < g.capacity.aluts);
        assert!(s.capacity.fits_within(&g.capacity));
    }
}
