//! Command-line contract of the `figures` binary: usage errors exit
//! with code 2 and a usage message on stderr instead of panicking.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures runs")
}

#[test]
fn output_flags_without_a_path_are_usage_errors() {
    for flag in ["--json", "--trace"] {
        let out = figures(&["fig11b", flag]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr was {stderr}");
        assert!(stderr.contains(&format!("{flag} needs a path")), "{flag}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: no figure runs on a usage error");
    }
}

#[test]
fn out_of_range_serve_and_profile_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 4] = [
        (&["serve", "--window", "1", "--jobs", "50"], "windows, more than the limit of 65536"),
        (&["profile", "ldstcomp", "--interval", "0"], "--interval needs a positive cycle count"),
        (&["profile", "ldstcomp", "--interval", "4611686018427387904"], "--interval is too large"),
        (&["profile", "ldstcomp", "--native", "0"], "--native needs a positive repeat count"),
    ];
    for (args, message) in cases {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs on a usage error");
    }
}
