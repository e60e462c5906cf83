//! Extraction of the Table I throughput parameters from a design's IR.
//!
//! Every parameter of the EKIT expressions (Eqs 1–3), with its paper name
//! and provenance ("Evaluation Method" column of Table I):
//!
//! | field | paper | provenance |
//! |---|---|---|
//! | `ngs` | NGS | parsing IR metadata (NDRange) |
//! | `nki` | NKI | parsing IR metadata |
//! | `nwpt_words` / `bytes_per_item` | NWPT | parsing IR (off-chip ports) |
//! | `noff` / `noff_bytes` | Noff | parsing IR (stream offsets) |
//! | `kpd` | KPD | parsing IR (scheduled datapath) |
//! | `ii` | NTO·NI | parsing IR (configuration kind) |
//! | `ni` | NI | parsing IR |
//! | `knl` | KNL | parsing IR (par replication) |
//! | `dv` | DV | parsing IR metadata |
//!
//! `HPB`, `GPB` come from the architecture description and ρ_H, ρ_G from
//! the empirical bandwidth model (see [`crate::bandwidth`]).

use crate::schedule::{self, PipelineSchedule};
use tytra_device::TargetDevice;
use tytra_ir::{ArenaModule, IrModule, MemForm, TybecError};

/// All design-and-program-dependent parameters of the throughput model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// `NGS`: work-items per kernel instance (NDRange product).
    pub ngs: u64,
    /// `NKI`: kernel-instance repetitions.
    pub nki: u64,
    /// `NWPT`: off-chip words consumed + produced per work-item.
    pub nwpt_words: u64,
    /// Off-chip bytes per work-item (NWPT with word widths applied).
    pub bytes_per_item: u64,
    /// `Noff`: maximum look-ahead of any stream offset, in elements — the
    /// number of elements that must arrive before the first work-item can
    /// be processed.
    pub noff: u64,
    /// `Noff` converted to bytes at the offset stream's element width.
    pub noff_bytes: u64,
    /// The lane schedule (KPD, II, NI, delay lines).
    pub sched: PipelineSchedule,
    /// `KNL`: parallel kernel lanes.
    pub knl: u64,
    /// `DV`: degree of vectorization per lane.
    pub dv: u32,
    /// Memory-execution form.
    pub form: MemForm,
    /// Number of off-chip streams (each pays per-stream DMA setup).
    pub n_streams: u64,
    /// Total bytes held in on-chip (local) memory objects.
    pub local_bytes: u64,
}

impl CostParams {
    /// Extract every parameter from the module against a target: the
    /// geometry of an arena built over a copy of `m`, plus the schedule
    /// of its lane subtree — the session's parameters pass, run cold.
    pub fn extract(m: &IrModule, dev: &TargetDevice) -> Result<CostParams, TybecError> {
        let a = ArenaModule::build(m.clone());
        let plan = a.config()?;
        let sched = schedule::schedule(a.template(), dev, &plan.tree.root)?;
        Ok(RawGeometry::extract_design(&a.identity()).finish(sched))
    }

    /// Work-items each lane processes per kernel instance.
    pub fn items_per_lane(&self) -> f64 {
        self.ngs as f64 / (self.knl.max(1) as f64 * f64::from(self.dv.max(1)))
    }

    /// Total off-chip bytes one kernel instance moves (reads + writes).
    pub fn total_bytes(&self) -> f64 {
        self.ngs as f64 * self.bytes_per_item as f64
    }
}

/// The schedule-free parameters: everything [`CostParams`] carries except
/// the lane schedule. Extracted by IR inspection alone, so the `bound`
/// pass can price the bandwidth and overhead terms of Eqs 1–3 without
/// running the (datapath-walking) schedule pass.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawGeometry {
    pub ngs: u64,
    pub nki: u64,
    pub nwpt_words: u64,
    pub bytes_per_item: u64,
    pub noff: u64,
    pub noff_bytes: u64,
    pub knl: u64,
    pub dv: u32,
    pub form: MemForm,
    pub n_streams: u64,
    pub local_bytes: u64,
}

impl RawGeometry {
    /// Extract the Table I geometry of an arena-backed design from the
    /// arena's precomputed scalars plus the variant's patched cells.
    pub(crate) fn extract_design(d: &tytra_ir::PatchedModule<'_>) -> RawGeometry {
        let a = d.arena;
        let knl = d.kernel_lanes();
        // Off-chip traffic: every port whose backing memory object lives
        // in an off-chip space moves one element per work-item. With KNL
        // lanes the ports are replicated (p0..p3 in the paper's Fig 14)
        // but each lane serves NGS/KNL items, so per-work-item traffic is
        // the *distinct arrays'* element count: ports ÷ lanes when the
        // module declares per-lane ports.
        let offchip_ports = d.offchip_ports();
        let bytes = d.offchip_port_bytes();
        let lanes_div = knl.max(1);
        let (nwpt_words, bytes_per_item) =
            if offchip_ports.is_multiple_of(lanes_div) && offchip_ports > 0 {
                (offchip_ports / lanes_div, bytes / lanes_div)
            } else {
                (offchip_ports, bytes)
            };
        RawGeometry {
            ngs: a.ngs(),
            nki: a.nki(),
            nwpt_words,
            bytes_per_item,
            noff: a.noff(),
            noff_bytes: a.noff_bytes(),
            knl,
            dv: d.vect,
            form: d.form,
            n_streams: offchip_ports,
            local_bytes: d.local_bytes(),
        }
    }

    /// Attach a schedule, completing the [`CostParams`].
    pub(crate) fn finish(self, sched: PipelineSchedule) -> CostParams {
        CostParams {
            ngs: self.ngs,
            nki: self.nki,
            nwpt_words: self.nwpt_words,
            bytes_per_item: self.bytes_per_item,
            noff: self.noff,
            noff_bytes: self.noff_bytes,
            sched,
            knl: self.knl,
            dv: self.dv,
            form: self.form,
            n_streams: self.n_streams,
            local_bytes: self.local_bytes,
        }
    }

    /// Work-items each lane processes per kernel instance. Must stay
    /// bit-identical to [`CostParams::items_per_lane`]: the bound's
    /// compute floor divides the same numerator the throughput pass
    /// divides, so floating-point monotonicity makes the bound
    /// admissible (see `docs/dse-search.md`).
    pub(crate) fn items_per_lane(&self) -> f64 {
        self.ngs as f64 / (self.knl.max(1) as f64 * f64::from(self.dv.max(1)))
    }

    /// Total off-chip bytes per kernel instance, as in
    /// [`CostParams::total_bytes`].
    pub(crate) fn total_bytes(&self) -> f64 {
        self.ngs as f64 * self.bytes_per_item as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::stratix_v_gsd8;
    use tytra_ir::{MemForm, ModuleBuilder, Opcode, ParKind, ScalarType, StreamDir};

    const T: ScalarType = ScalarType::UInt(18);

    fn stencil_module(lanes: usize) -> IrModule {
        let mut b = ModuleBuilder::new("st");
        let n = 27_000u64;
        if lanes > 1 {
            for l in 0..lanes {
                b.global_input(&format!("p{l}"), T, n / lanes as u64);
                b.global_output(&format!("q{l}"), T, n / lanes as u64);
            }
        } else {
            b.global_input("p", T, n);
            b.global_output("q", T, n);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, 900);
            let c = f.offset("p", T, -900);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
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
        b.ndrange(&[30, 30, 30]).nki(1000).form(MemForm::B);
        b.finish_unchecked()
    }

    #[test]
    fn extracts_basic_geometry() {
        let m = stencil_module(1);
        let dev = stratix_v_gsd8();
        let p = CostParams::extract(&m, &dev).unwrap();
        assert_eq!(p.ngs, 27_000);
        assert_eq!(p.nki, 1000);
        assert_eq!(p.knl, 1);
        assert_eq!(tytra_ir::config_tree::extract(&m).unwrap().lanes, 1);
        assert_eq!(p.nwpt_words, 2);
        assert_eq!(p.bytes_per_item, 6); // two ui18 ports, 3 bytes each
        assert_eq!(p.noff, 900);
        assert_eq!(p.noff_bytes, 2700);
        assert_eq!(p.form, MemForm::B);
        assert_eq!(p.n_streams, 2);
        assert_eq!(p.dv, 1);
    }

    #[test]
    fn per_lane_ports_normalise_nwpt() {
        let m = stencil_module(4);
        let dev = stratix_v_gsd8();
        let p = CostParams::extract(&m, &dev).unwrap();
        assert_eq!(p.knl, 4);
        assert_eq!(p.n_streams, 8, "8 physical streams");
        assert_eq!(p.nwpt_words, 2, "but still 2 words per work-item");
        assert!((p.items_per_lane() - 6750.0).abs() < 1e-9);
    }

    #[test]
    fn local_memory_counted_for_form_c() {
        let mut b = ModuleBuilder::new("c");
        b.local_array("x", T, 4096, StreamDir::Read);
        b.local_array("y", T, 4096, StreamDir::Write);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x, f.imm(1)]);
            f.write_out("y", v);
        }
        b.main_calls("f0");
        b.ndrange(&[4096]).form(MemForm::C);
        let m = b.finish_unchecked();
        let dev = stratix_v_gsd8();
        let p = CostParams::extract(&m, &dev).unwrap();
        assert_eq!(p.nwpt_words, 0, "no off-chip traffic");
        assert_eq!(p.n_streams, 0);
        assert_eq!(p.local_bytes, 2 * 4096 * 3);
    }

    #[test]
    fn negative_offsets_do_not_set_noff() {
        let mut b = ModuleBuilder::new("m");
        b.global_input("p", T, 64);
        b.global_output("q", T, 64);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, -8);
            let p = f.arg("p");
            let s = f.instr(Opcode::Add, T, vec![a, p]);
            f.write_out("q", s);
        }
        b.main_calls("f0");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let p = CostParams::extract(&m, &stratix_v_gsd8()).unwrap();
        assert_eq!(p.noff, 0, "pure look-behind needs no priming");
    }

    /// [`stencil_module`] plus Manage-IR names declared twice (the copies
    /// differ in space, type and length) and dangling references.
    fn shadowed_module() -> IrModule {
        use tytra_ir::{AccessPattern, AddrSpace, MemObject, PortDecl, SrcLoc, StreamObject};
        let mem = |name: &str, space, elem_ty, len| MemObject {
            name: name.into(),
            space,
            elem_ty,
            len,
            span: SrcLoc::none(),
        };
        let stream = |name: &str, mem: &str| StreamObject {
            name: name.into(),
            mem: mem.into(),
            dir: StreamDir::Read,
            pattern: AccessPattern::Contiguous,
            span: SrcLoc::none(),
        };
        let port = |name: &str, stream: &str| PortDecl {
            name: name.into(),
            space: AddrSpace::Other(12),
            ty: T,
            dir: StreamDir::Read,
            pattern: AccessPattern::Contiguous,
            base_offset: 0,
            stream: stream.into(),
            span: SrcLoc::none(),
        };
        let mut m = stencil_module(1);
        let u32_ty = ScalarType::UInt(32);
        m.mems.extend([
            mem("mem_p", AddrSpace::Global, u32_ty, 7),
            mem("mem_s", AddrSpace::Local, T, 64),
            mem("mem_s", AddrSpace::Global, u32_ty, 64),
        ]);
        m.streams.extend([
            stream("strobj_q", "mem_p"),
            stream("strobj_s", "mem_s"),
            stream("strobj_g", "ghost"),
        ]);
        m.ports.extend([
            port("main.r", "strobj_q"),
            port("main.s", "strobj_s"),
            port("main.g", "nosuch"),
            port("main.h", "strobj_g"),
        ]);
        m
    }

    #[test]
    fn shadowed_manage_ir_names_resolve_to_the_first_declaration() {
        let a = ArenaModule::build(shadowed_module());
        // Off chip: p, q, r (through the first `strobj_q`) and the
        // dangling g and h; `main.s` is on chip through the first `mem_s`.
        let g = RawGeometry::extract_design(&a.identity());
        assert_eq!(g.n_streams, 5);
        assert_eq!(g.bytes_per_item, 5 * 3);
        // The bandwidth pass sees the off-chip streams with the first
        // `mem_p`'s length; neither `mem_s` nor a dangling name counts.
        let bw = crate::bandwidth::assess(&a.identity(), &stratix_v_gsd8());
        let streams: Vec<(String, u64)> = bw.streams.iter().map(|s| (s.name, s.elems)).collect();
        let want = [("strobj_p", 27_000), ("strobj_q", 27_000), ("strobj_q", 27_000)];
        assert_eq!(streams, want.map(|(n, e)| (n.to_string(), e)));
    }

    #[test]
    fn total_bytes_product() {
        let m = stencil_module(1);
        let p = CostParams::extract(&m, &stratix_v_gsd8()).unwrap();
        assert!((p.total_bytes() - 27_000.0 * 6.0).abs() < 1e-9);
    }
}
