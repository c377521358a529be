//! Corpus and robustness suites for the policy loader.
//!
//! Two corpora live under `policies/`: the bundled runnable programs
//! (every one must load) and `policies/bad/` (every one must be rejected
//! with a spanned diagnostic). On top of that, two property suites —
//! driven by the simulator's own deterministic [`SimRng`], no external
//! dependency — hammer the loader with random token soup and with
//! mutated copies of the real programs. The invariant under test is the
//! loader's contract: **every** input yields `Ok` or a `PolicyError`
//! with a 1-based span; nothing panics.

use std::fs;
use std::path::PathBuf;

use elsc_policy::{load_str, PolicyScheduler};
use elsc_sched_api::Scheduler;
use elsc_simcore::SimRng;

fn policies_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../policies")
}

fn read_corpus(sub: &str) -> Vec<(String, String)> {
    let dir = match sub {
        "" => policies_dir(),
        s => policies_dir().join(s),
    };
    let mut out: Vec<(String, String)> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|e| {
            let p = e.ok()?.path();
            if p.extension().is_some_and(|x| x == "pol") {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                Some((name, fs::read_to_string(&p).expect("readable corpus file")))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_bundled_policy_loads_and_builds_a_scheduler() {
    let corpus = read_corpus("");
    assert!(corpus.len() >= 4, "reg/rr/table/starve must be bundled");
    for (name, src) in &corpus {
        let prog = load_str(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(prog.total_static_insns() > 0, "{name}: empty program?");
        for nr_cpus in [1usize, 2, 4] {
            let sched =
                PolicyScheduler::new(prog.clone(), nr_cpus).expect("verified programs compile");
            let info = sched.loaded_info().expect("policies report load info");
            assert!(info.name.starts_with("policy:"), "{name}");
            assert!(info.budget > 0, "{name}");
        }
    }
}

#[test]
fn every_malformed_fixture_is_rejected_with_a_span() {
    let corpus = read_corpus("bad");
    assert!(
        corpus.len() >= 6,
        "the malformed corpus must hold at least 6 fixtures, found {}",
        corpus.len()
    );
    for (name, src) in &corpus {
        let err = load_str(src)
            .err()
            .unwrap_or_else(|| panic!("{name}: must be rejected"));
        assert!(err.span.line >= 1, "{name}: spans are 1-based");
        assert!(err.span.col >= 1, "{name}: spans are 1-based");
        // The rendered diagnostic leads with line:col so the CLI can
        // prefix the file name.
        let text = err.to_string();
        assert!(
            text.starts_with(&format!("{}:{}:", err.span.line, err.span.col)),
            "{name}: diagnostic {text:?} must lead with its span"
        );
        assert!(!err.msg.is_empty(), "{name}: diagnostic has a message");
    }
}

// ---------------------------------------------------------------------
// Hand-rolled property suites (deterministic, dependency-free)
// ---------------------------------------------------------------------

/// The simulator's own deterministic generator drives the fuzzing
/// corpora too — one RNG for the whole workspace, same seeds, same
/// corpus forever. `usize` shim over [`SimRng::below`]'s `u64` surface.
fn below(rng: &mut SimRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// Vocabulary for random token soup: every keyword, function, and a few
/// literals/punctuators the language knows, so the soup regularly forms
/// *almost*-valid prefixes that reach deep into the parser.
const VOCAB: &[&str] = &[
    "policy",
    "lists",
    "hook",
    "enqueue",
    "pick_next",
    "tick",
    "on_fork",
    "let",
    "if",
    "else",
    "repeat",
    "foreach",
    "in",
    "break",
    "pick",
    "enqueue_front",
    "enqueue_back",
    "requeue_back",
    "set_counter",
    "recalc",
    "list",
    "counter",
    "priority",
    "goodness",
    "prev_goodness",
    "static_goodness",
    "is_rt",
    "rt_priority",
    "processor",
    "same_mm",
    "can_schedule",
    "runnable",
    "list_len",
    "list_head",
    "cpu",
    "prev",
    "idle",
    "task",
    "nil",
    "nr_cpus",
    "nr_lists",
    "nr_running",
    "{",
    "}",
    "(",
    ")",
    "=",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "+",
    "-",
    "*",
    "/",
    "%",
    ",",
    "0",
    "1",
    "7",
    "30",
    "1024",
    "9999999999999999999999",
    "x",
    "t",
    "g",
    "band",
    "percpu",
    "#",
    "\n",
];

#[test]
fn random_token_soup_never_panics_the_loader() {
    let mut rng = SimRng::new(0x0BAD_5EED_0BAD_5EED);
    for _ in 0..2000 {
        let len = 1 + below(&mut rng, 120);
        let mut src = String::new();
        // Half the soup starts with a plausible header so it survives the
        // first two lines and exercises the hook/statement grammar.
        if below(&mut rng, 2) == 0 {
            src.push_str("policy soup\nlists 4\n");
        }
        for _ in 0..len {
            src.push_str(VOCAB[below(&mut rng, VOCAB.len())]);
            src.push(' ');
        }
        // Contract: Ok or a spanned Err — never a panic.
        if let Err(e) = load_str(&src) {
            assert!(e.span.line >= 1 && e.span.col >= 1);
        }
    }
}

#[test]
fn random_byte_noise_never_panics_the_loader() {
    let mut rng = SimRng::new(0xFEED_FACE_CAFE_BEEF);
    for _ in 0..2000 {
        let len = below(&mut rng, 200);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let src = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = load_str(&src) {
            assert!(e.span.line >= 1 && e.span.col >= 1);
        }
    }
}

#[test]
fn mutated_real_programs_never_panic_the_loader() {
    let corpus = read_corpus("");
    let mut rng = SimRng::new(0x005E_ED0F_0BAD_CA5E);
    for (_, src) in &corpus {
        for _ in 0..400 {
            let mut s: Vec<char> = src.chars().collect();
            match below(&mut rng, 4) {
                // Delete a character.
                0 => {
                    let i = below(&mut rng, s.len());
                    s.remove(i);
                }
                // Swap two characters.
                1 => {
                    let i = below(&mut rng, s.len());
                    let j = below(&mut rng, s.len());
                    s.swap(i, j);
                }
                // Truncate.
                2 => s.truncate(below(&mut rng, s.len())),
                // Duplicate a random slice onto the end.
                _ => {
                    let i = below(&mut rng, s.len());
                    let j = i + below(&mut rng, s.len() - i);
                    let dup: Vec<char> = s[i..j].to_vec();
                    s.extend(dup);
                }
            }
            let mutated: String = s.into_iter().collect();
            // Ok (the mutation was benign — e.g. inside a comment) or a
            // spanned Err. Either way: no panic, and an accepted program
            // still carries verifier guarantees strong enough to build.
            match load_str(&mutated) {
                Ok(prog) => {
                    PolicyScheduler::new(prog, 2).expect("verified programs compile");
                }
                Err(e) => assert!(e.span.line >= 1 && e.span.col >= 1),
            }
        }
    }
}
