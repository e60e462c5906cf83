//! The STREAM *triad* kernel — the memory-bandwidth benchmark the
//! paper's sustained-bandwidth experiments extend ("we performed a set
//! of experiments by extending the stream benchmark \[16\] to OpenCL",
//! §V-C; \[16\] is McCalpin's STREAM).
//!
//! `y[i] = a[i] + s · b[i]` — trivially compute-light and traffic-heavy
//! (12 bytes in, 4 bytes out per item at ui32), which makes it the
//! canonical memory-bound probe for the DSE engine and the roofline
//! view: its arithmetic intensity is far left of every device's ridge.

use crate::common::{seeded_array, IntOps};
use crate::EvalKernel;
use std::collections::HashMap;
use tytra_ir::ScalarType;
use tytra_transform::lower::Geometry;
use tytra_transform::{Expr, KernelDef};

/// The STREAM triad over `n` elements.
#[derive(Debug, Clone)]
pub struct StreamTriad {
    /// Elements per array.
    pub n: u64,
    /// Benchmark repetitions.
    pub nki: u64,
}

impl Default for StreamTriad {
    fn default() -> StreamTriad {
        StreamTriad { n: 1 << 22, nki: 10 }
    }
}

const TY: ScalarType = ScalarType::UInt(32);

impl EvalKernel for StreamTriad {
    fn name(&self) -> &'static str {
        "stream-triad"
    }

    fn kernel_def(&self) -> KernelDef {
        KernelDef {
            name: "triad".into(),
            elem_ty: TY,
            inputs: vec!["a".into(), "b".into(), "s".into()],
            outputs: vec![(
                "y".into(),
                Expr::add(Expr::arg("a"), Expr::mul(Expr::arg("s"), Expr::arg("b"))),
            )],
            reductions: vec![],
        }
    }

    fn geometry(&self) -> Geometry {
        Geometry { ndrange: vec![self.n], nki: self.nki }
    }

    fn workload(&self) -> HashMap<String, Vec<f64>> {
        let n = self.n as usize;
        let mut w = HashMap::new();
        w.insert("a".to_string(), seeded_array(0xA1, n, 1 << 20));
        w.insert("b".to_string(), seeded_array(0xB1, n, 1 << 20));
        w.insert("s".to_string(), seeded_array(0x51, n, 8));
        w
    }

    fn reference(
        &self,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> (HashMap<String, Vec<f64>>, HashMap<String, f64>) {
        let ops = IntOps::new(TY);
        let n = self.n as usize;
        let (a, b, s) = (&inputs["a"], &inputs["b"], &inputs["s"]);
        let mut y = vec![0.0; n];
        for i in 0..n {
            y[i] = ops.add(a[i], ops.mul(s[i], b[i]));
        }
        let mut outs = HashMap::new();
        outs.insert("y".to_string(), y);
        (outs, HashMap::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_cost::{estimate, Limiter};
    use tytra_device::{stratix_v_gsd8, virtex7_adm7v3};
    use tytra_transform::Variant;

    #[test]
    fn triad_is_memory_bound_on_the_fig10_board() {
        // On the Virtex baseline link the triad's 16 B/item dwarf its
        // two operations — the DRAM wall binds even at one lane.
        let t = StreamTriad { n: 1 << 22, nki: 10 };
        let dev = virtex7_adm7v3();
        let r = estimate(&t.lower_variant(&Variant::baseline()).unwrap(), &dev).unwrap();
        assert_eq!(r.limiter, Limiter::DramBandwidth, "{}", r.render());
        assert!(r.throughput.t_memory > r.throughput.t_compute);
    }

    #[test]
    fn lanes_buy_far_less_than_linear_on_a_memory_bound_kernel() {
        // Replicating a bandwidth-bound kernel helps only as far as the
        // extra concurrent streams raise the *sustained* aggregate (a
        // single stream cannot saturate the Fig 10 link); it stays far
        // from the 8× a compute-bound kernel would enjoy, and the DRAM
        // wall keeps binding.
        let t = StreamTriad { n: 1 << 22, nki: 10 };
        let dev = virtex7_adm7v3();
        let e1 = estimate(&t.lower_variant(&Variant::baseline()).unwrap(), &dev).unwrap();
        let e8 =
            estimate(&t.lower_variant(&Variant { lanes: 8, ..Variant::baseline() }).unwrap(), &dev)
                .unwrap();
        let gain = e8.throughput.ekit / e1.throughput.ekit;
        assert!(gain < 4.0, "8 lanes bought {gain}x on a memory-bound kernel");
        assert_eq!(e8.limiter, Limiter::DramBandwidth);
    }

    #[test]
    fn triad_reference_matches_frontend() {
        let t = StreamTriad { n: 4096, nki: 1 };
        let w = t.workload();
        let (r_out, _) = t.reference(&w);
        let (f_out, _) = t.kernel_def().eval_reference(&w, 4096).unwrap();
        assert_eq!(r_out["y"], f_out["y"]);
    }

    #[test]
    fn triad_roofline_sits_left_of_the_ridge() {
        let t = StreamTriad { n: 1 << 22, nki: 10 };
        let dev = stratix_v_gsd8();
        let m = t.lower_variant(&Variant { lanes: 4, ..Variant::baseline() }).unwrap();
        let r = estimate(&m, &dev).unwrap();
        // ~3 ops over 16 bytes: intensity < 0.25 ops/byte.
        let ni = r.params.sched.ni as f64;
        let intensity = ni / r.params.bytes_per_item as f64;
        assert!(intensity < 0.3, "{intensity}");
    }
}
