//! What the corpus and differential suites share: the bundled policy
//! corpus and the deterministic character mutation both fuzz it with.

use std::fs;
use std::path::PathBuf;

use elsc_simcore::SimRng;

/// The bundled `policies/` directory.
pub fn policies_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../policies")
}

/// Every `.pol` file of `policies/` (`sub` empty) or of its `sub`
/// directory, as `(file name, source)` sorted by name.
pub fn read_corpus(sub: &str) -> Vec<(String, String)> {
    let dir = policies_dir().join(sub);
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

/// The simulator's own deterministic generator drives the fuzzing
/// corpora too — one RNG for the whole workspace, same seeds, same
/// corpus forever. `usize` shim over [`SimRng::below`]'s `u64` surface.
pub fn below(rng: &mut SimRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// `src` with one random edit: a character deleted, two swapped, a
/// truncation, or a random slice duplicated onto the end.
pub fn mutate(rng: &mut SimRng, src: &str) -> String {
    let mut s: Vec<char> = src.chars().collect();
    match below(rng, 4) {
        0 => {
            let i = below(rng, s.len());
            s.remove(i);
        }
        1 => {
            let i = below(rng, s.len());
            let j = below(rng, s.len());
            s.swap(i, j);
        }
        2 => s.truncate(below(rng, s.len())),
        _ => {
            let i = below(rng, s.len());
            let j = i + below(rng, s.len() - i);
            let dup: Vec<char> = s[i..j].to_vec();
            s.extend(dup);
        }
    }
    s.into_iter().collect()
}
