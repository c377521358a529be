//! Model representation, integer scoring, and the versioned text format.
//!
//! Everything here is Q16.16 fixed-point: weights, inputs, and scores are
//! `i64`s where 65536 means 1.0. Scoring uses only integer multiply and
//! arithmetic shift, so a model file evaluates identically in the trainer,
//! in tests, and inside the `learned:<model>` scheduler — there is no
//! float path whose rounding could differ between train and inference.

use crate::FEATURES;

/// 1.0 in Q16.16.
pub const Q_ONE: i64 = 1 << 16;

/// Hidden width of the MLP architecture. Fixed so the model file format
/// and the scheduler's scoring loop need no dynamic shapes.
pub const HIDDEN: usize = 8;

/// Magic first line of every model file; bump the version on any change
/// to the format or to scoring semantics.
pub const MODEL_MAGIC: &str = "elsc-learn model v1";

/// Model architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// Linear scorer: `z = b + w·x`.
    LogReg,
    /// One ReLU hidden layer of [`HIDDEN`] units:
    /// `z = b2 + w2·relu(b1 + W1·x)`.
    Mlp,
}

impl Arch {
    /// The label used in model files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Arch::LogReg => "logreg",
            Arch::Mlp => "mlp",
        }
    }

    /// Parses a label back into an architecture.
    pub fn parse(s: &str) -> Result<Arch, String> {
        match s {
            "logreg" => Ok(Arch::LogReg),
            "mlp" => Ok(Arch::Mlp),
            other => Err(format!("unknown arch {other:?} (want logreg or mlp)")),
        }
    }
}

/// A trained candidate scorer.
///
/// Both architectures carry full-size weight arrays; the unused MLP
/// arrays of a logreg model stay zero. That wastes a few hundred bytes
/// but keeps the type `Clone + PartialEq` without boxing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    /// Architecture selector.
    pub arch: Arch,
    /// Seed the trainer initialized from (recorded for provenance; not
    /// used at inference).
    pub seed: u64,
    /// Logreg weights, one per feature (Q16.16).
    pub w: [i64; FEATURES],
    /// Logreg bias (Q16.16).
    pub b: i64,
    /// MLP input→hidden weights, `w1[j][i]` for hidden unit `j` (Q16.16).
    pub w1: [[i64; FEATURES]; HIDDEN],
    /// MLP hidden biases (Q16.16).
    pub b1: [i64; HIDDEN],
    /// MLP hidden→output weights (Q16.16).
    pub w2: [i64; HIDDEN],
    /// MLP output bias (Q16.16).
    pub b2: i64,
}

impl Model {
    /// An all-zero model of the given architecture (scores everything 0).
    pub fn zeroed(arch: Arch) -> Model {
        Model {
            arch,
            seed: 0,
            w: [0; FEATURES],
            b: 0,
            w1: [[0; FEATURES]; HIDDEN],
            b1: [0; HIDDEN],
            w2: [0; HIDDEN],
            b2: 0,
        }
    }

    /// Scores one quantized candidate feature vector. Higher = more
    /// likely to be the pick; the scheduler takes the argmax.
    ///
    /// Each layer is summed in `i128`, where no product of two `i64`s and
    /// no sum of a row of them can overflow, and saturates to the `i64`
    /// range. So no model [`parse`](Model::parse) accepts can overflow on
    /// any input — a feature such as the queue depth has no fixed maximum
    /// — and on every input where the `i64` arithmetic does not overflow
    /// the score is exactly its result.
    pub fn score(&self, x: &[i64; FEATURES]) -> i64 {
        match self.arch {
            Arch::LogReg => dot(self.b, &self.w, x),
            Arch::Mlp => {
                let mut z = self.b2 as i128;
                for j in 0..HIDDEN {
                    let h = dot(self.b1[j], &self.w1[j], x);
                    if h > 0 {
                        z += (self.w2[j] as i128 * h as i128) >> 16;
                    }
                }
                saturate(z)
            }
        }
    }

    /// Hard sigmoid in Q16.16: `clamp(0.5 + z/4, 0, 1)`. Piecewise-linear
    /// so the trainer's probabilities are exact integers.
    pub fn sigmoid_q(z: i64) -> i64 {
        (Q_ONE / 2 + z / 4).clamp(0, Q_ONE)
    }

    /// Serializes the model to its canonical text form. Field order and
    /// formatting are fixed, so equal models produce byte-equal files.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MODEL_MAGIC);
        out.push('\n');
        out.push_str(&format!("arch {}\n", self.arch.name()));
        out.push_str(&format!("features {FEATURES}\n"));
        let hidden = match self.arch {
            Arch::LogReg => 0,
            Arch::Mlp => HIDDEN,
        };
        out.push_str(&format!("hidden {hidden}\n"));
        out.push_str(&format!("seed {}\n", self.seed));
        match self.arch {
            Arch::LogReg => {
                out.push_str(&row("w", &self.w));
                out.push_str(&format!("b {}\n", self.b));
            }
            Arch::Mlp => {
                for j in 0..HIDDEN {
                    out.push_str(&row("w1", &self.w1[j]));
                }
                out.push_str(&row("b1", &self.b1));
                out.push_str(&row("w2", &self.w2));
                out.push_str(&format!("b2 {}\n", self.b2));
            }
        }
        out
    }

    /// Parses a model file produced by [`Model::to_text`]. Every error
    /// names the line it is about (`line 3: ...`), counting from 1.
    pub fn parse(text: &str) -> Result<Model, String> {
        let mut lines = Numbered {
            lines: text.lines(),
            at: 0,
        };
        Model::parse_lines(&mut lines).map_err(|e| format!("line {}: {e}", lines.at))
    }

    /// [`Model::parse`] without the line numbers: every error is about the
    /// line `lines` handed out last.
    fn parse_lines<'a>(lines: &mut Numbered<'a>) -> Result<Model, String> {
        let magic = lines.next().ok_or("empty model file")?;
        if magic != MODEL_MAGIC {
            return Err(format!("bad magic {magic:?} (want {MODEL_MAGIC:?})"));
        }
        let arch = Arch::parse(field(lines.next(), "arch")?)?;
        let features: usize = num(field(lines.next(), "features")?)?;
        if features != FEATURES {
            return Err(format!(
                "model has {features} features, build expects {FEATURES}"
            ));
        }
        let hidden: usize = num(field(lines.next(), "hidden")?)?;
        let want_hidden = match arch {
            Arch::LogReg => 0,
            Arch::Mlp => HIDDEN,
        };
        if hidden != want_hidden {
            return Err(format!(
                "arch {} wants hidden {want_hidden}, file says {hidden}",
                arch.name()
            ));
        }
        let seed: u64 = num(field(lines.next(), "seed")?)?;
        let mut m = Model::zeroed(arch);
        m.seed = seed;
        match arch {
            Arch::LogReg => {
                m.w = parse_row(field(lines.next(), "w")?)?;
                m.b = num(field(lines.next(), "b")?)?;
            }
            Arch::Mlp => {
                for j in 0..HIDDEN {
                    m.w1[j] = parse_row(field(lines.next(), "w1")?)?;
                }
                m.b1 = parse_row(field(lines.next(), "b1")?)?;
                m.w2 = parse_row(field(lines.next(), "w2")?)?;
                m.b2 = num(field(lines.next(), "b2")?)?;
            }
        }
        if let Some(extra) = lines.next() {
            return Err(format!("trailing line {extra:?} after model body"));
        }
        Ok(m)
    }
}

/// A model file's lines, counting the ones handed out: `at` is the number
/// of the last line asked for (one past the end once the file has run
/// out).
struct Numbered<'a> {
    lines: std::str::Lines<'a>,
    at: usize,
}

impl<'a> Numbered<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.at += 1;
        self.lines.next()
    }
}

/// `acc + Σ (w·x >> 16)` in `i128`, saturated to the `i64` range.
fn dot(acc: i64, w: &[i64; FEATURES], x: &[i64; FEATURES]) -> i64 {
    let z = w.iter().zip(x).fold(acc as i128, |z, (&w, &x)| {
        z + ((w as i128 * x as i128) >> 16)
    });
    saturate(z)
}

/// `z` clamped to the `i64` range.
fn saturate(z: i128) -> i64 {
    z.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Formats one `key v0 v1 ...` weight row.
fn row(key: &str, vals: &[i64]) -> String {
    let mut s = String::from(key);
    for v in vals {
        s.push(' ');
        s.push_str(&v.to_string());
    }
    s.push('\n');
    s
}

/// Strips the expected key from a `key rest` line, returning `rest`.
fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let line = line.ok_or_else(|| format!("model file truncated before {key:?}"))?;
    line.strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("expected {key:?} line, got {line:?}"))
}

/// Parses one integer.
fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.trim().parse().map_err(|_| format!("bad number {s:?}"))
}

/// Parses a space-separated row of exactly `N` integers.
fn parse_row<const N: usize>(s: &str) -> Result<[i64; N], String> {
    let mut out = [0i64; N];
    let mut it = s.split_whitespace();
    for slot in out.iter_mut() {
        *slot = num(it
            .next()
            .ok_or_else(|| format!("row {s:?} too short, want {N}"))?)?;
    }
    if it.next().is_some() {
        return Err(format!("row {s:?} too long, want {N}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_clamped_and_centered() {
        assert_eq!(Model::sigmoid_q(0), Q_ONE / 2);
        assert_eq!(Model::sigmoid_q(10 * Q_ONE), Q_ONE);
        assert_eq!(Model::sigmoid_q(-10 * Q_ONE), 0);
        // 0.5 + 1/4 at z = 1.0.
        assert_eq!(Model::sigmoid_q(Q_ONE), Q_ONE / 2 + Q_ONE / 4);
    }

    #[test]
    fn logreg_round_trips() {
        let mut m = Model::zeroed(Arch::LogReg);
        m.seed = 99;
        m.w = [1, -2, 3, -400000, 5, 65536, -7];
        m.b = -12345;
        let text = m.to_text();
        let back = Model::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn mlp_round_trips() {
        let mut m = Model::zeroed(Arch::Mlp);
        m.seed = 7;
        for j in 0..HIDDEN {
            for i in 0..FEATURES {
                m.w1[j][i] = (j as i64 * 31 - i as i64 * 17) * 100;
            }
            m.b1[j] = j as i64 - 4;
            m.w2[j] = -(j as i64) * 1000;
        }
        m.b2 = 42;
        let text = m.to_text();
        let back = Model::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Model::parse("").is_err());
        assert!(Model::parse("not a model\n").is_err());
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[0] = 1;
        let text = m.to_text();
        assert!(Model::parse(&text.replace("features 7", "features 9")).is_err());
        assert!(Model::parse(&text.replace("arch logreg", "arch forest")).is_err());
        assert!(Model::parse(&format!("{text}junk\n")).is_err());
        // Truncated body.
        let short: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(Model::parse(&short).is_err());
    }

    #[test]
    fn parse_errors_name_their_line() {
        let text = Model::zeroed(Arch::LogReg).to_text();
        let err = |t: &str| Model::parse(t).unwrap_err();
        assert_eq!(err(""), "line 1: empty model file");
        assert!(err("not a model\n").starts_with("line 1: bad magic"));
        assert!(err(&text.replace("arch logreg", "arch forest")).starts_with("line 2: "));
        assert!(err(&text.replace("features 7", "features 9")).starts_with("line 3: "));
        assert!(err(&text.replace("seed 0", "seed x")).starts_with("line 5: bad number"));
        assert!(err(&text.replace("w 0 0", "w 0 0 0 0 0 0 0 0 0")).starts_with("line 6: "));
        assert!(err(&format!("{text}junk\n")).starts_with("line 8: trailing line"));
        let short: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert_eq!(err(&short), "line 6: model file truncated before \"w\"");
    }

    #[test]
    fn extreme_weights_saturate_instead_of_overflowing() {
        // Accepted by the parser; the i64 arithmetic overflowed on the
        // first product of the all-SCALE input.
        let mut text = Model::zeroed(Arch::LogReg).to_text();
        text = text.replace("w 0 0 0 0 0 0 0", "w 9223372036854775807 0 0 0 0 0 0");
        let mut m = Model::parse(&text).expect("accepted");
        assert_eq!(m.score(&[Q_ONE; FEATURES]), i64::MAX, "in range: exact");
        m.b = 1;
        assert_eq!(m.score(&[Q_ONE; FEATURES]), i64::MAX, "one past: saturated");
        assert_eq!(m.score(&[i64::MAX; FEATURES]), i64::MAX);
        let mut mlp = Model::zeroed(Arch::Mlp);
        mlp.w1[0] = [i64::MAX; FEATURES];
        mlp.w2 = [i64::MAX; HIDDEN];
        mlp.b2 = i64::MAX;
        assert_eq!(mlp.score(&[i64::MAX; FEATURES]), i64::MAX);
        mlp.w2 = [i64::MIN; HIDDEN];
        mlp.b2 = i64::MIN;
        assert_eq!(mlp.score(&[i64::MAX; FEATURES]), i64::MIN);
    }

    /// The committed models, mutated byte by byte and spliced with keys,
    /// extreme numbers and line breaks, parse to a model that round-trips
    /// and scores the all-SCALE feature vector without overflow, or are
    /// an error naming its line — never a panic.
    #[test]
    fn mutated_models_never_panic() {
        const ALPHABET: &[u8] = b"0123456789- \nwbhsaelgrmp";
        const SPLICES: [&str; 8] = [
            "9223372036854775807",
            "-9223372036854775808",
            "99999999999999999999",
            "\n",
            " 1",
            "w1 ",
            "arch mlp",
            "hidden 8",
        ];
        let bases = [
            include_str!("../../../models/volano-logreg.model"),
            include_str!("../../../models/volano-mlp.model"),
            include_str!("../../../models/adversarial.model"),
        ];
        let mut rng = elsc_simcore::SimRng::new(0x30DE_1F00);
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        // The old `i64` arithmetic, checked: `None` where it overflowed.
        let narrow = |m: &Model, x: &[i64; FEATURES]| -> Option<i64> {
            let dot = |acc: i64, w: &[i64; FEATURES]| {
                w.iter()
                    .zip(x)
                    .try_fold(acc, |z, (w, xi)| z.checked_add(w.checked_mul(*xi)? >> 16))
            };
            match m.arch {
                Arch::LogReg => dot(m.b, &m.w),
                Arch::Mlp => (0..HIDDEN).try_fold(m.b2, |z, j| {
                    let h = dot(m.b1[j], &m.w1[j])?;
                    if h > 0 {
                        z.checked_add(m.w2[j].checked_mul(h)? >> 16)
                    } else {
                        Some(z)
                    }
                }),
            }
        };
        let (mut accepted, mut overflowed) = (0, 0);
        for _ in 0..20_000 {
            let mut s = bases[pick(bases.len())].as_bytes().to_vec();
            for _ in 0..=pick(4) {
                let i = pick(s.len() + 1);
                match pick(5) {
                    0 if i < s.len() => {
                        s.remove(i);
                    }
                    1 if i < s.len() => s[i] = ALPHABET[pick(ALPHABET.len())],
                    2 | 3 => drop(s.splice(i..i, SPLICES[pick(SPLICES.len())].bytes())),
                    _ => s.insert(i, ALPHABET[pick(ALPHABET.len())]),
                }
            }
            let text = String::from_utf8(s).expect("ASCII");
            match Model::parse(&text) {
                Ok(m) => {
                    accepted += 1;
                    assert_eq!(Model::parse(&m.to_text()).as_ref(), Ok(&m), "{text}");
                    let x = [Q_ONE; FEATURES];
                    let z = m.score(&x);
                    match narrow(&m, &x) {
                        Some(exact) => assert_eq!(z, exact, "{text}"),
                        None => overflowed += 1,
                    }
                }
                Err(e) => assert!(e.starts_with("line "), "{e}"),
            }
        }
        assert!(accepted > 1_000, "{accepted} accepted");
        assert!(overflowed > 0, "the fuzz reaches weights i64 overflowed on");
    }

    #[test]
    fn linear_score_matches_hand_computation() {
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[0] = Q_ONE; // 1.0 on depth
        m.w[1] = -Q_ONE / 2; // -0.5 on counter
        m.b = 100;
        let x = [Q_ONE, Q_ONE, 0, 0, 0, 0, 0];
        assert_eq!(m.score(&x), Q_ONE - Q_ONE / 2 + 100);
    }

    #[test]
    fn mlp_relu_gates_negative_hidden() {
        let mut m = Model::zeroed(Arch::Mlp);
        m.w1[0][0] = Q_ONE;
        m.w2[0] = Q_ONE;
        m.w1[1][0] = -Q_ONE; // always-negative unit must not contribute
        m.w2[1] = 1_000_000;
        let x = [Q_ONE, 0, 0, 0, 0, 0, 0];
        assert_eq!(m.score(&x), Q_ONE);
    }
}
