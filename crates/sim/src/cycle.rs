//! Cycle-level simulation of one kernel instance.
//!
//! The simulator advances device time in refresh-bounded chunks,
//! tracking offset-buffer priming, pipeline fill, the stream FIFO fed by
//! the mechanistic DRAM model ([`crate::memory::DramModel`]), stalls when
//! the datapath outruns the link, discrete refresh windows, and drain.
//! Its cycle count is the "actual" CPKI of Table II; deviations from the
//! analytic estimate come from burst quantisation, refresh and drain —
//! the same effect classes that separate the paper's estimates from its
//! measurements.

use crate::memory::DramModel;
use tytra_cost::CostParams;
use tytra_device::TargetDevice;
use tytra_ir::{AccessPattern, IrModule, MemForm, TybecError};

/// DDR3 refresh cadence: tREFI ≈ 7.8 µs, tRFC ≈ 260 ns.
const T_REFI_S: f64 = 7.8e-6;
const T_RFC_S: f64 = 260.0e-9;

/// Breakdown of one simulated kernel instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleStats {
    /// Cycles priming offset buffers before the first work-item.
    pub prime_cycles: u64,
    /// Cycles filling the pipeline.
    pub fill_cycles: u64,
    /// Cycles streaming work-items (including memory stalls).
    pub stream_cycles: u64,
    /// Of which: cycles the datapath stalled waiting for the link.
    pub stall_cycles: u64,
    /// Cycles lost to DRAM refresh windows.
    pub refresh_cycles: u64,
    /// Cycles draining the pipeline after the last work-item entered.
    pub drain_cycles: u64,
    /// Total cycles per kernel instance ("actual" CPKI).
    pub total: u64,
    /// Achieved effective DRAM bandwidth over the instance, bytes/s.
    pub achieved_bytes_per_s: f64,
}

/// Simulate one kernel instance of a validated module at `freq_mhz`.
pub fn simulate_instance(
    m: &IrModule,
    dev: &TargetDevice,
    freq_mhz: f64,
) -> Result<CycleStats, TybecError> {
    let p = CostParams::extract(m, dev)?;
    simulate_with_params(m, dev, &p, freq_mhz)
}

/// Simulate with pre-extracted parameters (the DSE engine reuses them).
pub fn simulate_with_params(
    m: &IrModule,
    dev: &TargetDevice,
    p: &CostParams,
    freq_mhz: f64,
) -> Result<CycleStats, TybecError> {
    if !(freq_mhz.is_finite() && freq_mhz > 0.0) {
        return Err(TybecError::sim(format!(
            "cannot simulate at a non-positive or non-finite clock ({freq_mhz} MHz)"
        )));
    }
    let f_hz = freq_mhz * 1e6;
    let dram = DramModel::streaming(dev.dram_link.peak_bytes_per_s);

    // Mechanistic steady per-stream rates (refresh handled discretely in
    // the loop, so exclude the model's refresh derating here). Streams
    // are co-required: the slowest per-element stream gates the item
    // rate (see tytra-cost's bandwidth module).
    let mut aggregate = 0.0f64;
    let mut min_item_rate = f64::INFINITY;
    let mut bytes_per_item_all_lanes = 0.0f64;
    let links = m.manage_links();
    for (i, s) in m.streams.iter().enumerate() {
        let Some(mem) = links.stream_mem(i) else { continue };
        if !mem.space.is_offchip() {
            continue;
        }
        let eb = f64::from(mem.elem_ty.bytes());
        let rate = match s.pattern {
            AccessPattern::Contiguous => {
                dram.burst_bytes / (dram.burst_bytes / dram.peak_bytes_per_s + dram.burst_gap_s)
            }
            AccessPattern::Strided { .. } => {
                eb / (dram.request_overhead_s + eb / dram.peak_bytes_per_s)
            }
        };
        aggregate += rate;
        min_item_rate = min_item_rate.min(rate / eb);
        bytes_per_item_all_lanes += eb;
    }
    let lanes_f = p.knl.max(1) as f64;
    if min_item_rate.is_finite() {
        let gated = lanes_f * min_item_rate * (bytes_per_item_all_lanes / lanes_f);
        aggregate = aggregate.min(gated);
    }
    let aggregate = aggregate.min(dram.peak_bytes_per_s * 0.85);

    let offchip = !matches!(p.form, MemForm::C) && p.bytes_per_item > 0;
    let supply = if offchip { aggregate / f_hz } else { f64::INFINITY }; // bytes/cycle
    if supply.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        // Off-chip streams over a zero-bandwidth (or numerically
        // degenerate) link — NaN supply lands here too, hence the
        // `partial_cmp`: the streaming loop below would spin without
        // ever advancing a work-item. Refuse the configuration instead,
        // mirroring the `exercised_gbytes` clamp in tytra-cost.
        return Err(TybecError::sim(
            "off-chip streams with zero effective link bandwidth: instance would never complete",
        ));
    }
    // Bytes one "group item" moves (all lanes × vector slots consume and
    // produce together), and the byte rate the full-speed datapath
    // demands per cycle.
    let group_bytes = (p.knl.max(1) * u64::from(p.dv.max(1)) * p.bytes_per_item) as f64;
    let demand_rate = group_bytes / p.sched.ii.max(1.0);

    let refi_cycles = (T_REFI_S * f_hz).round().max(1.0) as u64;
    let rfc_cycles = (T_RFC_S * f_hz).ceil() as u64;

    // Phase 1: priming.
    let prime_cycles = if p.noff == 0 {
        0
    } else if offchip {
        // The priming elements arrive over the link; include the burst
        // quantisation of at least one burst per stream.
        let t = (p.noff_bytes as f64 / supply).ceil() as u64;
        t + rfc_cycles.min(t / refi_cycles.max(1) * rfc_cycles)
    } else {
        p.noff // one element per cycle from BRAM
    };

    // Phase 2: fill.
    let fill_cycles = u64::from(p.sched.kpd);

    // Phase 3: streaming, chunked on refresh boundaries.
    let items_total = p.items_per_lane().ceil().max(0.0);
    let mut items_done = 0.0f64;
    let mut cycles: u64 = 0;
    let mut stall_cycles: u64 = 0;
    let mut refresh_cycles: u64 = 0;
    let mut fifo = 0.0f64; // bytes buffered ahead of the datapath
    let fifo_cap = 4.0 * dram.burst_bytes * p.n_streams.max(1) as f64;
    // Phase offset of the refresh timer when streaming starts.
    let mut to_refresh = refi_cycles.saturating_sub(prime_cycles % refi_cycles.max(1)).max(1);

    let rate_per_cycle = p.sched.ii.max(1.0).recip(); // group items per cycle at full speed

    while items_done < items_total {
        // Next event: refresh or completion.
        let items_left = items_total - items_done;
        let compute_bound = !offchip || supply >= demand_rate;
        let chunk_by_items = if compute_bound {
            (items_left / rate_per_cycle).ceil() as u64
        } else {
            // Memory-bound: items trickle at the link's byte rate.
            let eff = (supply / group_bytes).max(1e-12);
            (items_left / eff).ceil() as u64
        };
        let chunk = chunk_by_items.clamp(1, to_refresh);

        if compute_bound {
            // Fabric-rate progress; fifo tops up to cap.
            let progressed = (chunk as f64 * rate_per_cycle).min(items_left);
            items_done += progressed;
            if offchip {
                fifo = (fifo + chunk as f64 * (supply - demand_rate)).clamp(0.0, fifo_cap);
            }
        } else {
            // Memory-bound: drain the fifo, then advance at link rate.
            let delivered = chunk as f64 * supply + fifo;
            let consumable_items = delivered / group_bytes;
            let progressed = consumable_items.min(items_left).min(chunk as f64 * rate_per_cycle);
            items_done += progressed;
            fifo = (delivered - progressed * group_bytes).clamp(0.0, fifo_cap);
            let ideal = chunk as f64 * rate_per_cycle;
            stall_cycles += ((ideal - progressed) * p.sched.ii).round().max(0.0) as u64;
        }
        cycles += chunk;
        to_refresh = to_refresh.saturating_sub(chunk);
        if to_refresh == 0 {
            if offchip {
                cycles += rfc_cycles;
                refresh_cycles += rfc_cycles;
            }
            to_refresh = refi_cycles;
        }
    }

    // Phase 4: drain.
    let drain_cycles = u64::from(p.sched.kpd);

    let stream_cycles = cycles;
    let total = prime_cycles + fill_cycles + stream_cycles + drain_cycles;
    let achieved = if total > 0 && offchip { p.total_bytes() / (total as f64 / f_hz) } else { 0.0 };

    Ok(CycleStats {
        prime_cycles,
        fill_cycles,
        stream_cycles,
        stall_cycles,
        refresh_cycles,
        drain_cycles,
        total,
        achieved_bytes_per_s: achieved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_cost::estimate;
    use tytra_device::stratix_v_gsd8;
    use tytra_ir::{ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn kernel(lanes: usize, n: u64, nwpt_heavy: bool, form: MemForm) -> IrModule {
        let mut b = ModuleBuilder::new(format!("k{lanes}_{nwpt_heavy}"));
        let mk_ports = |b: &mut ModuleBuilder, suffix: &str, len: u64| {
            b.global_input(&format!("p{suffix}"), T, len);
            if nwpt_heavy {
                for i in 0..8 {
                    b.global_input(&format!("w{i}{suffix}"), T, len);
                }
            }
            b.global_output(&format!("q{suffix}"), T, len);
        };
        if lanes > 1 {
            for l in 0..lanes {
                mk_ports(&mut b, &l.to_string(), n / lanes as u64);
            }
        } else {
            mk_ports(&mut b, "", n);
        }
        {
            let suffix = if lanes > 1 { "0" } else { "" };
            let _ = suffix;
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            if nwpt_heavy {
                for i in 0..8 {
                    f.input(format!("w{i}"), T);
                }
            }
            f.output("q", T);
            let a = f.offset("p", T, 30);
            let c = f.offset("p", T, -30);
            let mut s = f.instr(Opcode::Add, T, vec![a, c]);
            if nwpt_heavy {
                for i in 0..8 {
                    let w = f.arg(&format!("w{i}"));
                    s = f.instr(Opcode::Add, T, vec![s, w]);
                }
            }
            f.write_out("q", s);
        }
        if lanes > 1 {
            let f = b.function("f1", ParKind::Par);
            for _ in 0..lanes {
                f.call("f0", vec![], ParKind::Pipe);
            }
            b.main_calls("f1");
        } else {
            b.main_calls("f0");
        }
        b.ndrange(&[n]).nki(10).form(form);
        b.finish_unchecked()
    }

    #[test]
    fn zero_bandwidth_device_is_rejected_not_hung() {
        // An off-chip design on a zero-bandwidth link can never finish a
        // kernel instance; before the guard this spun the streaming loop
        // forever. It must come back as a Sim-category error instead.
        let m = kernel(1, 1 << 12, false, MemForm::B);
        let mut dev = stratix_v_gsd8();
        dev.dram_link.peak_bytes_per_s = 0.0;
        let e = simulate_instance(&m, &dev, 200.0).unwrap_err();
        assert_eq!(e.category, tytra_ir::ErrorCategory::Sim);
        assert!(e.message.contains("bandwidth"), "{e}");
    }

    #[test]
    fn degenerate_clock_is_rejected() {
        let m = kernel(1, 1 << 12, false, MemForm::B);
        let dev = stratix_v_gsd8();
        for f in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let e = simulate_instance(&m, &dev, f).unwrap_err();
            assert_eq!(e.category, tytra_ir::ErrorCategory::Sim, "freq {f}");
        }
    }

    #[test]
    fn zero_trip_count_instance_terminates() {
        // A degenerate NDRange of zero work-items streams nothing but
        // still pays prime/fill/drain; it must terminate, not loop.
        let m = kernel(1, 0, false, MemForm::B);
        let dev = stratix_v_gsd8();
        let s = simulate_instance(&m, &dev, 200.0).unwrap();
        assert_eq!(s.stall_cycles, 0);
        assert_eq!(s.total, s.prime_cycles + s.fill_cycles + s.stream_cycles + s.drain_cycles);
        assert!(s.achieved_bytes_per_s.is_finite());
    }

    #[test]
    fn compute_bound_cpki_close_to_estimate() {
        let m = kernel(1, 1 << 16, false, MemForm::B);
        let dev = stratix_v_gsd8();
        let est = estimate(&m, &dev).unwrap();
        let sim = simulate_instance(&m, &dev, est.clock.freq_mhz).unwrap();
        let err = (est.throughput.cpki - sim.total as f64) / sim.total as f64 * 100.0;
        assert!(
            err.abs() < 6.0,
            "CPKI error {err}% (est {} vs sim {})",
            est.throughput.cpki,
            sim.total
        );
        assert_ne!(est.throughput.cpki as u64, sim.total, "simulation adds drain/refresh detail");
    }

    #[test]
    fn phases_compose() {
        let m = kernel(1, 4096, false, MemForm::B);
        let dev = stratix_v_gsd8();
        let s = simulate_instance(&m, &dev, 200.0).unwrap();
        assert_eq!(s.total, s.prime_cycles + s.fill_cycles + s.stream_cycles + s.drain_cycles);
        assert!(s.prime_cycles > 0, "stencil must prime");
        assert!(s.fill_cycles > 0);
        assert_eq!(s.fill_cycles, s.drain_cycles);
    }

    #[test]
    fn memory_heavy_designs_stall() {
        let dev = stratix_v_gsd8();
        // 10 words/item × 8 lanes overwhelms the link.
        let m = kernel(8, 1 << 16, true, MemForm::B);
        let s = simulate_instance(&m, &dev, 250.0).unwrap();
        assert!(s.stall_cycles > 0, "expected link stalls: {s:?}");
        // A light design at the same geometry does not stall.
        let light = kernel(1, 1 << 16, false, MemForm::B);
        let sl = simulate_instance(&light, &dev, 250.0).unwrap();
        assert_eq!(sl.stall_cycles, 0, "{sl:?}");
    }

    #[test]
    fn form_c_never_touches_dram() {
        let dev = stratix_v_gsd8();
        let m = kernel(1, 1 << 14, false, MemForm::C);
        let s = simulate_instance(&m, &dev, 200.0).unwrap();
        assert_eq!(s.stall_cycles, 0);
        assert_eq!(s.refresh_cycles, 0);
        assert_eq!(s.achieved_bytes_per_s, 0.0);
    }

    #[test]
    fn lanes_divide_stream_cycles() {
        let dev = stratix_v_gsd8();
        let s1 = simulate_instance(&kernel(1, 1 << 18, false, MemForm::B), &dev, 200.0).unwrap();
        let s4 = simulate_instance(&kernel(4, 1 << 18, false, MemForm::B), &dev, 200.0).unwrap();
        let ratio = s1.stream_cycles as f64 / s4.stream_cycles as f64;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn refresh_costs_cycles_on_offchip_runs() {
        let dev = stratix_v_gsd8();
        let s = simulate_instance(&kernel(1, 1 << 20, false, MemForm::B), &dev, 200.0).unwrap();
        assert!(s.refresh_cycles > 0);
        assert!(s.refresh_cycles < s.total / 20, "refresh is a small tax");
    }

    #[test]
    fn simulation_is_deterministic() {
        let dev = stratix_v_gsd8();
        let m = kernel(2, 1 << 16, false, MemForm::B);
        let a = simulate_instance(&m, &dev, 200.0).unwrap();
        let b = simulate_instance(&m, &dev, 200.0).unwrap();
        assert_eq!(a, b);
    }
}
