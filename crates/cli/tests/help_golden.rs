//! Golden tests for `gmm <subcommand> --help`.
//!
//! Every subcommand must answer `--help` with exactly the text recorded
//! under `tests/golden/` — the CLI's documented surface is part of its
//! contract. On an intentional change, update the golden file to match.
//! The help text is also the list of flags a subcommand accepts: any
//! other `--flag` is a usage error.

use std::process::Command;

const SUBCOMMANDS: &[&str] = &[
    "solve",
    "map",
    "gen",
    "simulate",
    "validate",
    "export",
    "serve",
    "route",
    "batch",
    "arch-sweep",
    "bench",
    "check",
    "lint",
    "table1",
    "table2",
    "fig2",
    "table3",
];

fn run_help(cmd: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gmm"))
        .args([cmd, "--help"])
        .output()
        .expect("run gmm");
    assert!(
        out.status.success(),
        "`gmm {cmd} --help` exited {:?} (help must succeed)",
        out.status.code()
    );
    assert!(out.stderr.is_empty(), "`gmm {cmd} --help` wrote to stderr");
    String::from_utf8(out.stdout).expect("help is utf-8")
}

#[test]
fn every_subcommand_answers_help_with_its_golden_text() {
    for cmd in SUBCOMMANDS {
        let stdout = run_help(cmd);
        // `map` is an alias of `solve` and shares its help text.
        let golden_name = if *cmd == "map" { "solve" } else { cmd };
        let path = format!(
            "{}/tests/golden/{golden_name}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
        assert_eq!(
            stdout, golden,
            "`gmm {cmd} --help` drifted from {path}; update the golden file if intentional"
        );
    }
}

#[test]
fn top_level_help_covers_every_subcommand_and_exit_code() {
    let out = Command::new(env!("CARGO_BIN_EXE_gmm"))
        .arg("--help")
        .output()
        .expect("run gmm");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for cmd in SUBCOMMANDS {
        assert!(
            text.contains(cmd),
            "top-level help does not mention `{cmd}`"
        );
    }
    // The documented exit-code contract, including the dedicated
    // deadline/cancellation code.
    assert!(text.contains("5 deadline exceeded or cancelled"));
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_gmm"))
        .arg("frobnicate")
        .output()
        .expect("run gmm");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_is_a_usage_error_for_every_subcommand() {
    for cmd in SUBCOMMANDS {
        let out = Command::new(env!("CARGO_BIN_EXE_gmm"))
            .args([cmd, "--bogus-flag"])
            .output()
            .expect("run gmm");
        assert_eq!(
            out.status.code(),
            Some(2),
            "`gmm {cmd} --bogus-flag` must be a usage error"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown flag --bogus-flag for gmm {cmd}")),
            "`gmm {cmd} --bogus-flag` stderr: {stderr}"
        );
    }
}
