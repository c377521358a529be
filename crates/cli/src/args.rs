//! A small hand-rolled argument parser (no external dependencies).

use std::collections::BTreeMap;

use elsc_lab::WorkloadCell;

/// Parsed command line: a subcommand plus `--key value` / `--flag` pairs.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// The first positional argument (the workload).
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Parse errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given where a value was required but none followed.
    MissingValue(String),
    /// A positional argument after the command.
    UnexpectedPositional(String),
    /// A value failed to parse for its expected type.
    BadValue {
        /// The option name.
        key: String,
        /// The offending text.
        value: String,
    },
}

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            ArgError::BadValue { key, value } if *value == format!("--{key}") => {
                write!(f, "unknown option --{key}")
            }
            ArgError::BadValue { key, value } => {
                write!(f, "invalid value '{value}' for --{key}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean flags (no value).
const FLAGS: &[&str] = &[
    "up",
    "proc",
    "latency",
    "help",
    "quiet",
    "compare",
    "profile",
    "diff",
    "oracle",
    // learned-scheduler flags.
    "decision-trace",
    // `lab` subcommand flags.
    "force",
    "all-figures",
];

/// Option names that take a value, beside the workload parameters of
/// the registry ([`WorkloadCell::is_param`]). Anything else that is not
/// in [`FLAGS`] is rejected instead of silently accepted.
const OPTIONS: &[&str] = &[
    "sched",
    "cpus",
    "topology",
    "seed",
    "trace",
    "trace-out",
    "report-json",
    "lock-plan",
    "faults",
    "fault-seed",
    // `cluster` subcommand options.
    "dispatcher",
    "epoch",
    // policy runtime options.
    "policy-budget",
    "policy-dir",
    // `learn` subcommand / learned-scheduler options.
    "data",
    "arch",
    "model-out",
    "model",
    // `lab` subcommand options.
    "workers",
    "spec",
    "spec-file",
    "out",
    "cache-dir",
    "manifest",
    "baseline",
    "threshold",
];

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                // `--key=value` or `--key [value]`.
                let (key, inline) = match key.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (key.to_string(), None),
                };
                if FLAGS.contains(&key.as_str()) {
                    if let Some(v) = inline {
                        // A flag takes no value: `--quiet=yes` is an error.
                        return Err(ArgError::BadValue { key, value: v });
                    }
                    out.flags.push(key);
                } else if OPTIONS.contains(&key.as_str()) || WorkloadCell::is_param(&key) {
                    let value = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .ok_or_else(|| ArgError::MissingValue(key.clone()))?,
                    };
                    out.options.insert(key, value);
                } else {
                    // Unknown option: reject instead of silently accepting.
                    return Err(ArgError::BadValue {
                        value: format!("--{key}"),
                        key,
                    });
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(out)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The names of the options given, in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// A parsed numeric (or other `FromStr`) option with a default.
    pub fn get_or<T: core::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: name.to_string(),
                value: v.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ArgError> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_options() {
        let a = parse(&["volano", "--rooms", "10", "--cpus", "2"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("volano"));
        assert_eq!(a.get("rooms"), Some("10"));
        assert_eq!(a.get_or("cpus", 1usize).unwrap(), 2);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn equals_syntax() {
        let a = parse(&["stress", "--tasks=500"]).unwrap();
        assert_eq!(a.get_or("tasks", 0usize).unwrap(), 500);
    }

    #[test]
    fn workload_parameters_are_the_registry_s() {
        let a = parse(&["volano", "--think", "0", "--jobs=2", "--nodes", "3"]).unwrap();
        assert_eq!(a.keys().collect::<Vec<_>>(), ["jobs", "nodes", "think"]);
        assert!(parse(&["volano", "--thinks", "0"]).is_err());
    }

    #[test]
    fn flags_take_no_value() {
        let a = parse(&["volano", "--up", "--proc"]).unwrap();
        assert!(a.flag("up"));
        assert!(a.flag("proc"));
        assert!(!a.flag("latency"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse(&["volano", "--rooms"]).unwrap_err(),
            ArgError::MissingValue("rooms".into())
        );
    }

    #[test]
    fn extra_positional_is_an_error() {
        assert!(matches!(
            parse(&["volano", "oops"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn unknown_option_is_rejected() {
        let err = parse(&["volano", "--frobnicate", "3"]).unwrap_err();
        assert_eq!(
            err,
            ArgError::BadValue {
                key: "frobnicate".into(),
                value: "--frobnicate".into(),
            }
        );
        assert_eq!(err.to_string(), "unknown option --frobnicate");
    }

    #[test]
    fn profile_is_a_registered_flag() {
        let a = parse(&["volano", "--profile"]).unwrap();
        assert!(a.flag("profile"));
    }

    #[test]
    fn new_output_options_take_values() {
        let a = parse(&["volano", "--trace-out", "t.jsonl", "--report-json=r.json"]).unwrap();
        assert_eq!(a.get("trace-out"), Some("t.jsonl"));
        assert_eq!(a.get("report-json"), Some("r.json"));
    }

    #[test]
    fn lock_plan_takes_a_value() {
        let a = parse(&["volano", "--lock-plan", "percpu"]).unwrap();
        assert_eq!(a.get("lock-plan"), Some("percpu"));
    }

    #[test]
    fn chaos_flags_are_registered() {
        let a = parse(&["stress", "--oracle", "--faults", "light", "--fault-seed=9"]).unwrap();
        assert!(a.flag("oracle"));
        assert_eq!(a.get("faults"), Some("light"));
        assert_eq!(a.get_or("fault-seed", 0u64).unwrap(), 9);
    }

    #[test]
    fn policy_options_are_registered() {
        let a = parse(&["stress", "--policy-budget", "4096"]).unwrap();
        assert_eq!(a.get_or("policy-budget", 0u64).unwrap(), 4096);
        let a = parse(&["ls", "--policy-dir=policies"]).unwrap();
        assert_eq!(a.get("policy-dir"), Some("policies"));
    }

    #[test]
    fn learn_options_are_registered() {
        let a = parse(&[
            "train",
            "--data",
            "t.jsonl",
            "--arch=mlp",
            "--model-out",
            "m.model",
        ])
        .unwrap();
        assert_eq!(a.get("data"), Some("t.jsonl"));
        assert_eq!(a.get("arch"), Some("mlp"));
        assert_eq!(a.get("model-out"), Some("m.model"));
        let a = parse(&["volano", "--decision-trace"]).unwrap();
        assert!(a.flag("decision-trace"));
    }

    /// The help texts and the parser name the same options: every flag
    /// and option the parser takes has a help line, and every `--name` a
    /// help text shows is one the parser takes.
    #[test]
    fn help_texts_and_the_parser_name_the_same_options() {
        let help = crate::usage() + crate::lab::LAB_USAGE + crate::learn::LEARN_USAGE;
        let named: Vec<&str> = help
            .split("--")
            .skip(1)
            .filter_map(|t| {
                t.split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                    .next()
            })
            .filter(|name| !name.is_empty())
            .collect();
        for name in FLAGS.iter().chain(OPTIONS) {
            assert!(
                named.contains(name),
                "--{name} is parsed but no help text names it"
            );
        }
        for name in named {
            assert!(
                FLAGS.contains(&name) || OPTIONS.contains(&name) || WorkloadCell::is_param(name),
                "a help text names --{name}, which the parser refuses"
            );
        }
    }

    #[test]
    fn flag_with_a_value_is_rejected() {
        assert!(matches!(
            parse(&["volano", "--quiet=yes"]).unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }

    #[test]
    fn bad_numeric_value() {
        let a = parse(&["volano", "--rooms", "many"]).unwrap();
        assert!(matches!(
            a.get_or::<usize>("rooms", 1).unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }
}
