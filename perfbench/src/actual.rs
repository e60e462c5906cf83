//! Parser for `tybec actual` stdout, and the model-accuracy distribution
//! built from it.
//!
//! "Actual" here means the tytra-sim emulator (virtual synthesis plus a
//! cycle-level simulation), not silicon. The errors are recomputed from
//! the `estimated:` / `actual   :` resource vectors and the CPKI line, not
//! read from the `error %` line: that line prints +100.0 for an axis whose
//! actual value is 0. Zero-actual axes are left out of the distribution
//! and counted.

/// The four resource axes, in the order `tybec actual` prints them.
pub const AXES: [&str; 4] = ["ALUT", "REG", "BRAM", "DSP"];

/// One design's estimated and emulated figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Actual {
    /// ALUT, REG, BRAM bits, DSP from the cost model.
    pub estimated: [f64; 4],
    /// The same axes from the emulator's virtual synthesis.
    pub actual: [f64; 4],
    /// Cycles per kernel instance from the cost model.
    pub cpki_est: f64,
    /// Cycles per kernel instance from the emulator's simulation.
    pub cpki_sim: f64,
}

/// Parse `ALUT a / REG r / BRAM b bits / DSP d`.
fn resource_vector(s: &str) -> Option<[f64; 4]> {
    let mut out = [0.0; 4];
    for (i, (part, axis)) in s.split(" / ").zip(AXES).enumerate() {
        let num = part.strip_prefix(axis)?.trim().trim_end_matches("bits").trim();
        out[i] = num.parse().ok()?;
    }
    (s.split(" / ").count() == 4).then_some(out)
}

/// Parse the stdout of one `tybec actual` run.
pub fn parse(stdout: &str) -> Option<Actual> {
    let mut estimated = None;
    let mut actual = None;
    let mut cpki = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("estimated:") {
            estimated = resource_vector(rest.trim());
        } else if let Some(rest) = line.strip_prefix("actual   :") {
            actual = resource_vector(rest.trim());
        } else if let Some(rest) = line.strip_prefix("CPKI     : est ") {
            // `est 27911, simulated 27975 (-0.23 %)`
            let (est, rest) = rest.split_once(", simulated ")?;
            let sim = rest.split_whitespace().next()?;
            cpki = Some((est.trim().parse().ok()?, sim.parse().ok()?));
        }
    }
    let (cpki_est, cpki_sim) = cpki?;
    Some(Actual { estimated: estimated?, actual: actual?, cpki_est, cpki_sim })
}

/// Relative-error samples per axis (ALUT, REG, BRAM, DSP, CPKI), in
/// percent, plus how many zero-actual values were left out per axis.
#[derive(Debug, Default, Clone)]
pub struct ErrorDistribution {
    /// `|est − act| / act × 100` per design, per axis.
    pub samples: [Vec<f64>; 5],
    /// Designs whose actual value on that axis was 0.
    pub zero_actual: [usize; 5],
}

impl ErrorDistribution {
    /// Add one design.
    pub fn add(&mut self, a: &Actual) {
        let pairs = [
            (a.estimated[0], a.actual[0]),
            (a.estimated[1], a.actual[1]),
            (a.estimated[2], a.actual[2]),
            (a.estimated[3], a.actual[3]),
            (a.cpki_est, a.cpki_sim),
        ];
        for (i, (est, act)) in pairs.into_iter().enumerate() {
            if act == 0.0 {
                self.zero_actual[i] += 1;
            } else {
                self.samples[i].push((est - act).abs() / act * 100.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOR: &str = "estimated: ALUT 554 / REG 771 / BRAM 32418 bits / DSP 0
actual   : ALUT 590 / REG 783 / BRAM 32400 bits / DSP 0
error %  : ALUT -6.1 REG -1.5 BRAM +0.1 DSP +0.0
clock    : est 249.9 MHz, achieved 243.0 MHz
CPKI     : est 27911, simulated 27975 (-0.23 %)
runtime  : 0.175 ms/instance, 0.175 s total; 8.4 W, 1.5 J
";

    #[test]
    fn parses_the_resource_vectors_and_cpki() {
        let a = parse(SOR).expect("parses");
        assert_eq!(a.estimated, [554.0, 771.0, 32418.0, 0.0]);
        assert_eq!(a.actual, [590.0, 783.0, 32400.0, 0.0]);
        assert_eq!(a.cpki_est, 27911.0);
        assert_eq!(a.cpki_sim, 27975.0);
    }

    #[test]
    fn ignores_the_error_line() {
        // A corrupted `error %` line changes nothing: errors are recomputed.
        let doctored = SOR.replace("ALUT -6.1", "ALUT +100.0");
        assert_eq!(parse(&doctored), parse(SOR));
    }

    #[test]
    fn rejects_truncated_output() {
        assert_eq!(parse(""), None);
        let no_cpki: String = SOR.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert_eq!(parse(&no_cpki), None);
        assert_eq!(parse(&SOR.replace(" / DSP 0\nactual", "\nactual")), None);
    }

    #[test]
    fn zero_actual_axes_are_counted_not_sampled() {
        let mut d = ErrorDistribution::default();
        d.add(&parse(SOR).unwrap());
        assert_eq!(d.zero_actual, [0, 0, 0, 1, 0]);
        assert!(d.samples[3].is_empty());
        let alut = d.samples[0][0];
        assert!((alut - 36.0 / 590.0 * 100.0).abs() < 1e-9, "{alut}");
        let cpki = d.samples[4][0];
        assert!((cpki - 64.0 / 27975.0 * 100.0).abs() < 1e-9, "{cpki}");
    }
}
