//! # tytra-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation, each producing
//! structured rows plus a rendered text table, with a binary per
//! experiment (`cargo run -p tytra-bench --release --bin fig09` etc.,
//! or `--bin all` for the full set). The timing-sensitive §VI-A claim is
//! `--bin speedup`, gated by its module's release-mode test. See
//! DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
//! paper-vs-measured results.

pub mod ablation;
pub mod emit;
pub mod fig09;
pub mod fig10;
pub mod fig15;
pub mod fig17;
pub mod fig18;
pub mod speedup;
pub mod table2;

/// Run every experiment and render the full report (the `all` binary).
pub fn run_all() -> String {
    let mut s = String::new();
    s.push_str(&fig09::render());
    s.push('\n');
    s.push_str(&fig10::render());
    s.push('\n');
    s.push_str(&table2::render());
    s.push('\n');
    s.push_str(&fig15::render());
    s.push('\n');
    s.push_str(&fig17::render());
    s.push('\n');
    s.push_str(&fig18::render());
    s.push('\n');
    s.push_str(&speedup::render());
    s.push('\n');
    s.push_str(&ablation::render());
    s
}
