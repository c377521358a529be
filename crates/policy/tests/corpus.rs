//! Corpus and robustness suites for the policy loader.
//!
//! Two corpora live under `policies/`: the bundled runnable programs
//! (every one must load) and `policies/bad/` (every one must be rejected
//! with a spanned diagnostic). On top of that, two property suites —
//! driven by the simulator's own deterministic [`SimRng`], no external
//! dependency — hammer the loader with random token soup and with
//! mutated copies of the real programs, and a third with programs
//! nested up to 100 000 deep. The invariant under test is the loader's
//! contract: **every** input yields `Ok` or a `PolicyError` with a
//! 1-based span; nothing panics, and nothing overflows the stack.

mod common;

use common::{below, mutate, read_corpus};
use elsc_policy::parse::MAX_NESTING;
use elsc_policy::{load_str, PolicyScheduler};
use elsc_sched_api::{Load, Scheduler};
use elsc_simcore::SimRng;

#[test]
fn every_bundled_policy_loads_and_builds_a_scheduler() {
    let corpus = read_corpus("");
    assert!(corpus.len() >= 4, "reg/rr/table/starve must be bundled");
    for (name, src) in &corpus {
        let prog = load_str(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(prog.total_static_insns() > 0, "{name}: empty program?");
        for nr_cpus in [1usize, 2, 4] {
            let mut sched =
                PolicyScheduler::new(prog.clone(), nr_cpus).expect("verified programs compile");
            let load = sched
                .supervised()
                .expect("policies report load info")
                .load();
            let Load::Policy {
                name: reported,
                budget,
                ..
            } = load
            else {
                panic!("{name}: a policy reports a policy load, got {load:?}");
            };
            assert!(reported.starts_with("policy:"), "{name}");
            assert!(budget > 0, "{name}");
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
            let mutated = mutate(&mut rng, src);
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

/// Programs nested `depth` deep, one way each: parentheses, unary minus,
/// call arguments, `if` blocks, `repeat` blocks, `+` and `*` chains, and
/// parentheses around a chain in every level.
const DEEP: [fn(usize) -> String; 8] = [
    |k| format!("let x = {}1{}", "(".repeat(k), ")".repeat(k)),
    |k| format!("let x = {}1", "-".repeat(k)),
    |k| format!("let x = {}1{}", "counter(".repeat(k), ")".repeat(k)),
    |k| format!("{}{}", "if 1 > 0 { ".repeat(k), "}".repeat(k)),
    |k| format!("{}{}", "repeat 1 { ".repeat(k), "}".repeat(k)),
    |k| format!("let x = 1{}", " + 1".repeat(k)),
    |k| format!("let x = 1{}", " * 2".repeat(k)),
    |k| format!("let x = {}1{}", "(1 + ".repeat(k), ")".repeat(k)),
];

/// Past [`MAX_NESTING`] every shape is one positioned `nesting deeper
/// than` error, up to 100 000 levels, on the test thread's default stack
/// in a debug build; at the bound whatever loads also compiles (the
/// compiler and the scheduler's drop recurse over the same tree).
#[test]
fn deep_nesting_never_overflows_the_loader() {
    let bound = MAX_NESTING as usize;
    let mut loaded = 0;
    for (shape, deep) in DEEP.iter().enumerate() {
        for depth in [bound - 2, bound, bound + 1, 1_000, 10_000, 100_000] {
            let src = format!(
                "policy deep\nlists 1\nhook pick_next {{\n{}\npick idle\n}}\n",
                deep(depth)
            );
            match load_str(&src) {
                Ok(prog) => {
                    assert!(depth <= bound, "shape {shape} at {depth} loaded");
                    PolicyScheduler::new(prog, 2).expect("verified programs compile");
                    loaded += 1;
                }
                Err(e) => {
                    assert!(e.span.line >= 1 && e.span.col >= 1);
                    if depth > bound {
                        assert_eq!(
                            e.msg,
                            format!("nesting deeper than {MAX_NESTING}"),
                            "shape {shape} at {depth}"
                        );
                        assert_eq!(e.span.line, 4, "shape {shape} at {depth}: {e}");
                    }
                }
            }
        }
    }
    assert!(loaded >= 5, "only {loaded} programs at the bound loaded");
}
