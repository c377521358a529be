//! The offline trainer: integer SGD over extracted decision rows.
//!
//! Every candidate row becomes one binary example (label 1 if it was the
//! pick, 0 otherwise); inference ranks candidates by raw score, so the
//! trainer only needs the scores to order correctly, not to calibrate.
//! All updates are integer arithmetic on Q16.16 weights with a power-of-
//! two learning rate (a shift), and initialization draws from `SimRng` —
//! so `(seed, dataset, config)` determines every weight bit and
//! [`train`] → [`Model::to_text`] is byte-reproducible anywhere.

use crate::data::Dataset;
use crate::model::{Arch, Model, HIDDEN};
use crate::{quantize, FEATURES};
use elsc_simcore::SimRng;

/// Full passes over the dataset.
pub const EPOCHS: u32 = 30;

/// Learning rate as a right-shift: `lr = 2^-LR_SHIFT` (1/64).
pub const LR_SHIFT: u32 = 6;

/// What a training run varies: the architecture and the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrainConfig {
    /// Architecture to train.
    pub arch: Arch,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl TrainConfig {
    /// A run of `arch` from `seed`: [`EPOCHS`] passes at `lr = 2^-LR_SHIFT`.
    pub fn new(arch: Arch, seed: u64) -> TrainConfig {
        TrainConfig { arch, seed }
    }
}

/// Small symmetric random weight in roughly `[-0.03, 0.03]` Q16.16.
fn init_weight(rng: &mut SimRng) -> i64 {
    rng.range(0, 4096) as i64 - 2048
}

/// Trains a model on `data`. Deterministic in `(cfg, data)`.
pub fn train(data: &Dataset, cfg: TrainConfig) -> Model {
    let mut rng = SimRng::new(cfg.seed);
    let mut m = Model::zeroed(cfg.arch);
    m.seed = cfg.seed;
    // Both architectures random-init every weight they use, so two seeds
    // differ even before the first update (and even on an empty dataset).
    match cfg.arch {
        Arch::LogReg => {
            for i in 0..FEATURES {
                m.w[i] = init_weight(&mut rng);
            }
            m.b = init_weight(&mut rng);
        }
        Arch::Mlp => {
            for j in 0..HIDDEN {
                for i in 0..FEATURES {
                    m.w1[j][i] = init_weight(&mut rng);
                }
                m.b1[j] = init_weight(&mut rng);
                m.w2[j] = init_weight(&mut rng);
            }
            m.b2 = init_weight(&mut rng);
        }
    }
    for _ in 0..EPOCHS {
        for d in &data.decisions {
            for c in &d.candidates {
                let x = quantize(&c.raw);
                let y = if c.tid == d.chosen { crate::Q_ONE } else { 0 };
                step(&mut m, &x, y);
            }
        }
    }
    m
}

/// One SGD step on one example: `err = sigmoid(score) - y` (Q16.16),
/// gradients shifted back to Q16.16, then scaled by `2^-LR_SHIFT`.
fn step(m: &mut Model, x: &[i64; FEATURES], y: i64) {
    match m.arch {
        Arch::LogReg => {
            let err = Model::sigmoid_q(m.score(x)) - y;
            for (w, xi) in m.w.iter_mut().zip(x) {
                *w -= ((err * xi) >> 16) >> LR_SHIFT;
            }
            m.b -= err >> LR_SHIFT;
        }
        Arch::Mlp => {
            // Forward pass keeping hidden activations for backprop.
            let mut h = [0i64; HIDDEN];
            let mut z = m.b2;
            for (j, hj) in h.iter_mut().enumerate() {
                let mut a = m.b1[j];
                for (w, xi) in m.w1[j].iter().zip(x) {
                    a += (w * xi) >> 16;
                }
                *hj = a.max(0);
                z += (m.w2[j] * *hj) >> 16;
            }
            let err = Model::sigmoid_q(z) - y;
            for (j, &hj) in h.iter().enumerate() {
                // dL/dh_j before the ReLU gate.
                let dh = (err * m.w2[j]) >> 16;
                m.w2[j] -= ((err * hj) >> 16) >> LR_SHIFT;
                if hj > 0 {
                    for (w, xi) in m.w1[j].iter_mut().zip(x) {
                        *w -= ((dh * xi) >> 16) >> LR_SHIFT;
                    }
                    m.b1[j] -= dh >> LR_SHIFT;
                }
            }
            m.b2 -= err >> LR_SHIFT;
        }
    }
}

/// Evaluates argmax accuracy over the dataset: `(correct, total)`
/// decisions. Ties break toward the earliest candidate, matching the
/// scheduler's first-wins scoring loop.
pub fn eval(m: &Model, data: &Dataset) -> (u64, u64) {
    let mut correct = 0u64;
    for d in &data.decisions {
        let mut best: Option<(i64, u64)> = None;
        for c in &d.candidates {
            let s = m.score(&quantize(&c.raw));
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, c.tid));
            }
        }
        if best.map(|(_, tid)| tid) == Some(d.chosen) {
            correct += 1;
        }
    }
    (correct, data.decisions.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{CandidateRow, Decision};

    /// A toy dataset where the candidate with the larger counter always
    /// wins — linearly separable, so both archs should learn it.
    fn counter_wins(n: usize) -> Dataset {
        let mut ds = Dataset::default();
        for k in 0..n {
            let hi = 2 + (k % 30) as i64;
            let lo = (k % (hi as usize)) as i64;
            ds.decisions.push(Decision {
                candidates: vec![
                    CandidateRow {
                        tid: 1,
                        raw: [2, lo, 20, 0, 0, 0, 10],
                    },
                    CandidateRow {
                        tid: 2,
                        raw: [2, hi, 20, 0, 0, 0, 10],
                    },
                ],
                chosen: 2,
            });
        }
        ds
    }

    #[test]
    fn same_seed_same_dataset_byte_identical_model() {
        let ds = counter_wins(50);
        for arch in [Arch::LogReg, Arch::Mlp] {
            let a = train(&ds, TrainConfig::new(arch, 42));
            let b = train(&ds, TrainConfig::new(arch, 42));
            assert_eq!(a, b);
            assert_eq!(a.to_text(), b.to_text());
        }
    }

    #[test]
    fn different_seeds_different_weights() {
        let ds = counter_wins(50);
        for arch in [Arch::LogReg, Arch::Mlp] {
            let a = train(&ds, TrainConfig::new(arch, 1));
            let b = train(&ds, TrainConfig::new(arch, 2));
            assert_ne!(a.to_text(), b.to_text(), "{}", arch.name());
        }
    }

    #[test]
    fn trained_model_round_trips_through_text() {
        let ds = counter_wins(50);
        for arch in [Arch::LogReg, Arch::Mlp] {
            let m = train(&ds, TrainConfig::new(arch, 42));
            let back = Model::parse(&m.to_text()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn learns_a_separable_rule() {
        let ds = counter_wins(200);
        for arch in [Arch::LogReg, Arch::Mlp] {
            let m = train(&ds, TrainConfig::new(arch, 42));
            let (correct, total) = eval(&m, &ds);
            assert!(
                correct * 10 >= total * 9,
                "{}: {correct}/{total}",
                arch.name()
            );
        }
    }

    #[test]
    fn empty_dataset_trains_to_init_only() {
        let ds = Dataset::default();
        let a = train(&ds, TrainConfig::new(Arch::LogReg, 5));
        let b = train(&ds, TrainConfig::new(Arch::LogReg, 5));
        assert_eq!(a, b);
        assert_eq!(eval(&a, &ds), (0, 0));
    }
}
