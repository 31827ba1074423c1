//! CLI driver: `cargo run -p simlint --release -- --check`.
//!
//! Exit codes: 0 = clean (waived findings allowed), 1 = unwaived
//! findings, 2 = usage / policy / IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format_json = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => {
                    eprintln!("simlint: --format expects `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("simlint: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if !check {
        print_help();
        return ExitCode::from(2);
    }

    let policy = match simlint::load_policy(&root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = match simlint::run_check(&root, &policy) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    let unwaived = simlint::unwaived_count(&findings);
    let waived = findings.len() - unwaived;

    if format_json {
        print!("{}", simlint::diag::to_json(&findings));
    } else {
        for f in findings.iter().filter(|f| f.waived.is_none()) {
            println!("{}", f.render_text());
        }
        println!(
            "simlint: {unwaived} finding{} ({waived} waived)",
            if unwaived == 1 { "" } else { "s" }
        );
    }
    if unwaived > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_help() {
    println!(
        "simlint — workspace determinism-and-hot-path analyzer (DESIGN.md \u{a7}9)\n\
         \n\
         USAGE: simlint --check [--root <dir>] [--format text|json]\n\
         \n\
         Reads <root>/simlint.toml and scans the configured trees.\n\
         Rules: R1 default-hasher maps in determinism scopes;\n\
         R2 wall-clock reads outside watchdog/bench scopes;\n\
         R3 panic paths (and panicking `Buf` getters) in the net transport and codecs;\n\
         R5 codec encode/decode lockstep;\n\
         R6 transitive hot-path purity — a #[hot_path] fn must not\n\
         reach allocation, panics, or the wall clock through any call\n\
         chain (the full witness path is reported);\n\
         R7 lock-order discipline against the [r7] hierarchy;\n\
         R8 unsafe audit — unsafe only in [r8]-allowed files, each\n\
         site with an adjacent // SAFETY: justification.\n\
         Waive a line with: // simlint: allow(R2) -- <justification>\n\
         A waiver that suppresses nothing is a W1 finding; a malformed\n\
         one is W0. Neither can be waived.\n\
         \n\
         Exit: 0 clean, 1 unwaived findings, 2 usage/policy error."
    );
}
