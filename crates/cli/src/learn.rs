//! `elsc-sim learn`: the offline half of learned scheduling.
//!
//! `learn train` replays a `--decision-trace` capture into supervised
//! rows and fits a model with the dependency-free `elsc-learn` trainer;
//! `learn eval` scores an existing model file against a trace. Both are
//! deterministic: the same `(--seed, --data)` pair always produces a
//! byte-identical model file, which is what the CI `learn` job checks
//! with a plain `cmp`.

use crate::args::Args;

use elsc_learn::{eval, parse_trace, train, Arch, Dataset, Model, TrainConfig, EPOCHS, LR_SHIFT};

/// A required option, with a `learn`-scoped diagnostic.
fn required<'a>(a: &'a Args, key: &str) -> Result<&'a str, String> {
    a.get(key)
        .ok_or_else(|| format!("learn: --{key} is required (see elsc-sim learn --help)"))
}

/// Reads and replays a decision trace; an unlabelled trace (no
/// `--decision-trace` when captured) is an error, not an empty model.
fn load_dataset(path: &str) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let data = parse_trace(&text);
    if data.decisions.is_empty() {
        return Err(format!(
            "{path}: no labelled decisions found (capture one with \
             elsc-sim <workload> --decision-trace --trace-out {path})"
        ));
    }
    Ok(data)
}

/// Renders `hits/total` as a percentage line.
fn accuracy_line(hits: u64, total: u64) -> String {
    let pct = if total == 0 {
        0.0
    } else {
        100.0 * hits as f64 / total as f64
    };
    format!("{hits}/{total} ({pct:.1}%)")
}

/// `elsc-sim learn <train|eval>` dispatch.
pub fn run_learn(a: &Args) -> Result<(), String> {
    match a.command.as_deref() {
        Some("train") => {
            let data_path = required(a, "data")?;
            let arch = Arch::parse(required(a, "arch")?).map_err(|e| format!("--arch: {e}"))?;
            let out = required(a, "model-out")?;
            let seed: u64 = a.get_or("seed", 23_062).map_err(|e| e.to_string())?;
            let data = load_dataset(data_path)?;
            let model = train(&data, TrainConfig::new(arch, seed));
            std::fs::write(out, model.to_text()).map_err(|e| format!("cannot write {out}: {e}"))?;
            if !a.flag("quiet") {
                let (hits, total) = eval(&model, &data);
                println!(
                    "learn train: {} decisions ({} candidate rows) from {data_path}",
                    data.decisions.len(),
                    data.rows()
                );
                println!(
                    "  arch={} seed={seed} epochs={EPOCHS} lr=2^-{LR_SHIFT}",
                    arch.name()
                );
                println!("  training accuracy = {}", accuracy_line(hits, total));
                println!("  model written to {out}");
            }
            Ok(())
        }
        Some("eval") => {
            let data_path = required(a, "data")?;
            let model_path = required(a, "model")?;
            let text = std::fs::read_to_string(model_path)
                .map_err(|e| format!("cannot read {model_path}: {e}"))?;
            let model = Model::parse(&text).map_err(|e| format!("{model_path}: {e}"))?;
            let data = load_dataset(data_path)?;
            let (hits, total) = eval(&model, &data);
            if !a.flag("quiet") {
                println!(
                    "learn eval: {model_path} ({}, seed {}) on {data_path}",
                    model.arch.name(),
                    model.seed
                );
                println!("  accuracy = {}", accuracy_line(hits, total));
            }
            Ok(())
        }
        other => Err(format!(
            "learn: unknown subcommand {:?} (want train or eval; see elsc-sim learn --help)",
            other.unwrap_or("")
        )),
    }
}

/// Help text for `elsc-sim learn --help`.
pub const LEARN_USAGE: &str = "\
elsc-sim learn: train and evaluate learned-scheduling models

usage: elsc-sim learn train --data TRACE.jsonl --arch ARCH
                            --model-out FILE.model [--seed N]
       elsc-sim learn eval  --data TRACE.jsonl --model FILE.model

subcommands:
  train   fit a model to a decision trace (30 SGD passes at lr 2^-6)
          and write it to --model-out. Deterministic: the same
          (--seed, --data) pair always writes a byte-identical model
          file.
  eval    report a model's pick accuracy over a decision trace.

options:
  --data P       decision trace captured with
                 elsc-sim <workload> --decision-trace --trace-out P
  --arch A       model architecture: logreg (linear scorer) or mlp
                 (one 8-unit ReLU hidden layer)
  --model-out P  where train writes the model (versioned text format)
  --model P      the model eval reads
  --seed N       weight-initialization seed              [23062]
  --quiet        suppress the summary lines

Run the result with: elsc-sim <workload> --sched learned:FILE.model
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("elsc-cli-learn-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A tiny hand-written labelled trace: two decisions, two candidates
    /// each, the higher-counter candidate always wins.
    fn fixture_trace(dir: &std::path::Path) -> String {
        let path = dir.join("trace.jsonl");
        let mut text = String::new();
        for (tid_a, tid_b, chosen) in [(4u64, 5u64, 5u64), (5, 6, 6)] {
            for (tid, counter) in [(tid_a, 1i64), (tid_b, 9)] {
                text.push_str(&format!(
                    "{{\"at\":1,\"event\":\"sched_candidate\",\"cpu\":0,\"tid\":{tid},\
                     \"counter\":{counter},\"priority\":20,\"rt\":0,\"mm_match\":0,\
                     \"affinity\":0,\"recency\":255}}\n"
                ));
            }
            text.push_str(&format!(
                "{{\"at\":2,\"event\":\"sched_decision\",\"cpu\":0,\"prev\":1,\
                 \"chosen\":{chosen},\"depth\":2}}\n"
            ));
        }
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    #[test]
    fn train_then_eval_round_trips_and_is_byte_deterministic() {
        let dir = tmpdir("roundtrip");
        let trace = fixture_trace(&dir);
        let m1 = dir.join("a.model").display().to_string();
        let m2 = dir.join("b.model").display().to_string();
        for out in [&m1, &m2] {
            run_learn(&args(&[
                "train",
                "--data",
                &trace,
                "--arch",
                "logreg",
                "--model-out",
                out,
                "--seed",
                "7",
                "--quiet",
            ]))
            .unwrap();
        }
        let a = std::fs::read(&m1).unwrap();
        let b = std::fs::read(&m2).unwrap();
        assert_eq!(a, b, "same (seed, data) must be byte-identical");
        run_learn(&args(&[
            "eval", "--data", &trace, "--model", &m1, "--quiet",
        ]))
        .unwrap();
        // A different seed changes the bytes.
        run_learn(&args(&[
            "train",
            "--data",
            &trace,
            "--arch",
            "logreg",
            "--model-out",
            &m2,
            "--seed",
            "8",
            "--quiet",
        ]))
        .unwrap();
        assert_ne!(a, std::fs::read(&m2).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_options_and_empty_traces_are_diagnostics() {
        let dir = tmpdir("diag");
        let err = run_learn(&args(&["train", "--arch", "logreg"])).unwrap_err();
        assert!(err.contains("--data"), "{err}");
        let err = run_learn(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("train or eval"), "{err}");
        // An unlabelled trace is an explicit error.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "{\"event\":\"switch\"}\n").unwrap();
        let err = run_learn(&args(&[
            "train",
            "--data",
            &empty.display().to_string(),
            "--arch",
            "logreg",
            "--model-out",
            &dir.join("x.model").display().to_string(),
        ]))
        .unwrap_err();
        assert!(err.contains("no labelled decisions"), "{err}");
        let err = run_learn(&args(&[
            "train",
            "--data",
            &empty.display().to_string(),
            "--arch",
            "transformer",
            "--model-out",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("--arch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
