//! Pins the command-line surface of both service binaries.
//!
//! The `--help` text and the argument parser are two hand-kept copies of
//! the flag list. For each binary this checks that the help text lists
//! exactly the supported flags, that the parser accepts every one of them,
//! and that each retired flag is refused with exit status 2 and
//! `unknown flag` while parsing, before anything binds.

use std::collections::BTreeSet;
use std::process::{Command, Output};

const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--small",
    "--reads",
    "--gauges",
    "--workers",
    "--cache-capacity",
    "--breaker-threshold",
    "--chaos-seed",
    "--chaos-panic-rate",
    "--chaos-backend-failure-rate",
    "--chaos-corruption-rate",
];

const SERVE_RETIRED: &[&str] = &[
    "--threads",
    "--queue-depth",
    "--batch",
    "--fault-rate",
    "--derating",
    "--deadline-ms",
    "--milp-max-queries",
    "--budget-ms",
    "--max-connections",
    "--request-deadline-ms",
    "--io-timeout-ms",
    "--accept-shards",
    "--max-pipeline",
    "--breaker-open-ms",
    "--no-integrity-repair",
    "--no-verify-gate",
];

const ROUTER_FLAGS: &[&str] = &[
    "--addr",
    "--cells",
    "--supervise",
    "--breaker-threshold",
    "--breaker-open-ms",
    "--backoff-initial-ms",
    "--backoff-max-ms",
    "--chaos-kill-seed",
    "--chaos-kills",
    "--chaos-kill-min-ms",
    "--chaos-kill-max-ms",
];

const ROUTER_RETIRED: &[&str] = &[
    "--forwarders",
    "--epsilon",
    "--io-timeout-ms",
    "--warm-exemplars",
    "--response-cache",
    "--failover-budget-ms",
    "--journal-depth",
    "--failover-rounds",
    "--round-backoff-ms",
    "--max-connections",
    "--request-deadline-ms",
    "--accept-shards",
    "--max-pipeline",
    "--supervise-cell",
    "--probe-interval-ms",
    "--probe-timeout-ms",
    "--probe-failures",
    "--crash-loop-threshold",
    "--crash-loop-window-ms",
    "--startup-timeout-ms",
];

/// Flags that take no value.
const SWITCHES: &[&str] = &["--small"];

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"))
}

/// Every `--flag` token the help text mentions.
fn help_flags(binary: &str) -> BTreeSet<String> {
    let out = run(binary, &["--help"]);
    assert!(out.status.success(), "{binary} --help: {:?}", out.status);
    String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .filter(|token| token.starts_with("--"))
        .map(str::to_string)
        .collect()
}

fn check_surface(binary: &str, kept: &[&str], retired: &[&str]) {
    let expected: BTreeSet<String> = kept.iter().map(|f| f.to_string()).collect();
    assert_eq!(help_flags(binary), expected, "{binary} --help flag list");

    // The parser accepts every listed flag: a full command line of them,
    // then --help, exits 0 without binding.
    let mut args: Vec<&str> = Vec::new();
    for flag in kept {
        args.push(flag);
        if !SWITCHES.contains(flag) {
            args.push("1");
        }
    }
    args.push("--help");
    let out = run(binary, &args);
    assert!(
        out.status.success(),
        "{binary} rejected a listed flag: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trailing --help makes a wrongly accepted flag exit instead of
    // serving forever.
    for flag in retired {
        let out = run(binary, &[flag, "1", "--help"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{binary} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{binary} {flag}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{binary} {flag} printed before refusing: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn mqo_serve_accepts_exactly_its_documented_flags() {
    check_surface(env!("CARGO_BIN_EXE_mqo_serve"), SERVE_FLAGS, SERVE_RETIRED);
}

#[test]
fn mqo_router_accepts_exactly_its_documented_flags() {
    check_surface(
        env!("CARGO_BIN_EXE_mqo_router"),
        ROUTER_FLAGS,
        ROUTER_RETIRED,
    );
}
