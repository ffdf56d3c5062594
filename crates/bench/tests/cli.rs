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
