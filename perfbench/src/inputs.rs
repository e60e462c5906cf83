//! Seeded inputs: the design corpus, the kernels' variant spaces, and the
//! closed-loop op sequences. The same seed gives the same inputs; the
//! program under test only ever sees the `.tirl` files and request lines
//! made here.

use std::path::{Path, PathBuf};
use tytra_device::TargetDevice;
use tytra_ir::MemForm;
use tytra_kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra_transform::{enumerate_variants, InnerKind};

/// splitmix64: small, seedable, good enough for shuffles and coin flips.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_4A11_D00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The default target every workload uses.
pub fn device() -> TargetDevice {
    tytra_device::stratix_v_gsd8()
}

pub const KERNELS: [&str; 3] = ["sor", "hotspot", "lavamd"];

pub fn kernel(name: &str) -> Box<dyn EvalKernel> {
    match name {
        "sor" => Box::new(Sor::default()),
        "hotspot" => Box::new(Hotspot::default()),
        _ => Box::new(LavaMd::default()),
    }
}

/// The `dse` workload's lane list, 1 to 64: the largest space the CLI
/// admits.
pub fn wide_lanes() -> Vec<u64> {
    (1..=64).collect()
}

/// The CLI's default lane list.
pub fn default_lanes() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32]
}

/// Where a corpus design came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Asset,
    Variant,
    Generated,
}

/// One design, written to a file the program reads.
#[derive(Debug, Clone)]
pub struct Design {
    pub source_kind: Source,
    pub text: String,
    /// The file, as passed on the `tybec` command line.
    pub path: String,
}

/// Every pipelined variant of `kernel` over `lanes` × vect {1, 2} × forms
/// {A, B} that lowers, printed as TIRL.
pub fn variant_space(kernel: &dyn EvalKernel, lanes: &[u64], forms: &[MemForm]) -> Vec<String> {
    let ngs = kernel.geometry().size();
    enumerate_variants(ngs, lanes, &[1, 2], forms)
        .into_iter()
        .filter(|v| v.inner == InnerKind::Pipe)
        .filter_map(|v| kernel.lower_variant(&v).ok())
        .map(|m| tytra_ir::print(&m))
        .collect()
}

/// Whether every command the workloads run succeeds on `text`: it
/// parses, costs, lints clean, synthesizes and simulates.
fn usable(text: &str, dev: &TargetDevice) -> bool {
    let Ok(m) = tytra_ir::parse(text) else { return false };
    tytra_cost::estimate(&m, dev).is_ok()
        && tytra_lint::lint(&m, dev).errors() == 0
        && tytra_sim::run_application(&m, dev).is_ok()
}

/// How many `TirlGen` designs the corpus draws.
pub const GENERATED: usize = 250;

/// The `TirlGen` seed of the corpus. It is fixed, not the run's seed: the
/// accuracy metrics are percentiles over the corpus, and over a corpus
/// redrawn per run they would move with the draw, not with the model.
/// The run's seed drives the op sequence.
const CORPUS_SEED: u64 = 0x7e57_c0de;

/// The `oneshot`/`serve` corpus: the repository's reference designs,
/// every sor/hotspot/lavamd variant over the default lanes × vect {1, 2}
/// (form B), and `GENERATED` `TirlGen` designs; designs some command
/// would reject are dropped. Written under `dir`.
pub fn corpus(assets: &Path, dir: &Path) -> std::io::Result<Vec<Design>> {
    let dev = device();
    let mut texts: Vec<(Source, String)> = Vec::new();
    let mut asset_paths: Vec<PathBuf> = std::fs::read_dir(assets)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tirl"))
        .collect();
    asset_paths.sort();
    for p in asset_paths {
        texts.push((Source::Asset, std::fs::read_to_string(p)?));
    }
    for k in KERNELS {
        for t in variant_space(kernel(k).as_ref(), &default_lanes(), &[MemForm::B]) {
            texts.push((Source::Variant, t));
        }
    }
    let mut gen = tytra_fuzz::TirlGen::new(CORPUS_SEED);
    for _ in 0..GENERATED {
        texts.push((Source::Generated, gen.valid_source()));
    }
    write_designs(texts.into_iter().filter(|(_, t)| usable(t, &dev)).collect(), dir)
}

/// The `dse` workload's accuracy set: every design point its ops explore.
pub fn dse_designs(dir: &Path) -> std::io::Result<Vec<Design>> {
    let dev = device();
    let mut texts = Vec::new();
    for k in KERNELS {
        for t in variant_space(kernel(k).as_ref(), &wide_lanes(), &[MemForm::A, MemForm::B]) {
            if usable(&t, &dev) {
                texts.push((Source::Variant, t));
            }
        }
    }
    write_designs(texts, dir)
}

fn write_designs(texts: Vec<(Source, String)>, dir: &Path) -> std::io::Result<Vec<Design>> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::with_capacity(texts.len());
    for (i, (source_kind, text)) in texts.into_iter().enumerate() {
        let path = dir.join(format!("d{i:04}.tirl"));
        std::fs::write(&path, &text)?;
        out.push(Design { source_kind, text, path: path.to_string_lossy().into_owned() });
    }
    Ok(out)
}

/// One closed-loop op: which pool item it runs, whether it repeats an
/// earlier op of its epoch byte for byte (*warm*) or runs an item the
/// epoch has not seen (*cold*), and a draw fixed when the item was first
/// run (a repeat copies it).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub item: usize,
    pub warm: bool,
    pub draw: u64,
}

/// Seeded op sequence over a pool of `n` items, one epoch at a time. In
/// an epoch, each op is warm with probability ½ (once there is something
/// to repeat), and the epoch ends when every item has been run cold once.
pub struct OpStream {
    rng: Rng,
    n: usize,
}

impl OpStream {
    pub fn new(seed: u64, n: usize) -> OpStream {
        OpStream { rng: Rng::new(seed), n }
    }

    pub fn epoch(&mut self) -> Vec<Op> {
        let mut fresh: Vec<usize> = (0..self.n).collect();
        self.rng.shuffle(&mut fresh);
        let mut fresh = fresh.into_iter();
        let mut ops: Vec<Op> = Vec::new();
        let mut cold: Vec<Op> = Vec::new();
        loop {
            if !cold.is_empty() && self.rng.below(2) == 0 {
                let earlier = cold[self.rng.below(cold.len())];
                ops.push(Op { warm: true, ..earlier });
                continue;
            }
            let Some(item) = fresh.next() else { return ops };
            let op = Op { item, warm: false, draw: self.rng.next_u64() };
            cold.push(op);
            ops.push(op);
        }
    }
}

/// The request kinds of the serve stream.
pub const REQUEST_KINDS: [&str; 3] = ["estimate", "bound", "analyze"];

/// Index into [`REQUEST_KINDS`] for an op's draw, in the ratio
/// estimate:bound:analyze = 2:1:1.
pub fn request_slot(draw: u64) -> usize {
    match draw % 4 {
        0 | 1 => 0,
        2 => 1,
        _ => 2,
    }
}

/// A `tybec serve` request line (no newline) for `design`.
pub fn request_line(id: u64, kind: &str, design: &str) -> String {
    format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",\"design\":\"{}\"}}",
        tytra_trace::json::escape(design)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_half_warm_and_run_every_item_cold_once() {
        let mut s = OpStream::new(7, 50);
        let ops = s.epoch();
        let mut cold: Vec<usize> = ops.iter().filter(|o| !o.warm).map(|o| o.item).collect();
        cold.sort();
        assert_eq!(cold, (0..50).collect::<Vec<_>>());
        assert!(!ops[0].warm);
        let warm = ops.iter().filter(|o| o.warm).count();
        assert!((25..=75).contains(&warm), "{warm} warm ops");
    }

    #[test]
    fn same_seed_same_ops() {
        let a: Vec<(usize, bool)> =
            OpStream::new(3, 9).epoch().iter().map(|o| (o.item, o.warm)).collect();
        let b: Vec<(usize, bool)> =
            OpStream::new(3, 9).epoch().iter().map(|o| (o.item, o.warm)).collect();
        assert_eq!(a, b);
    }
}
