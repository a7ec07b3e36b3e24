//! The `rtc-analysis` CLI: scans the workspace and reports rule
//! violations; `--deny` turns findings into a nonzero exit for CI.

use std::path::PathBuf;
use std::process::ExitCode;

use rtc_analysis::rules::all_rules;
use rtc_analysis::{engine, Rule, Workspace};

struct Options {
    root: Option<PathBuf>,
    json: bool,
    deny: bool,
    verbose: bool,
    list_rules: bool,
    rules: Vec<String>,
}

fn usage() -> &'static str {
    "rtc-analysis: workspace lint engine for determinism & protocol invariants\n\
     \n\
     USAGE: rtc-analysis [--root <dir>] [--rule <name>]... [--json] [--deny] [-v] [--list-rules]\n\
     \n\
     --root <dir>   workspace root (default: walk up from cwd to the workspace Cargo.toml)\n\
     --rule <name>  run only the named rule (repeatable; default: all)\n\
     --json         emit the machine-readable JSON report\n\
     --deny         exit 1 when any unsuppressed finding remains\n\
     -v, --verbose  also print suppressed findings in the human report\n\
     --list-rules   print the rule catalog and exit\n"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        deny: false,
        verbose: false,
        list_rules: false,
        rules: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ));
            }
            "--rule" => opts
                .rules
                .push(args.next().ok_or("--rule needs a rule name")?),
            "--json" => opts.json = true,
            "--deny" => opts.deny = true,
            "-v" | "--verbose" => opts.verbose = true,
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first directory whose
/// `Cargo.toml` declares `[workspace]`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("rtc-analysis: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let catalog = all_rules();
    if opts.list_rules {
        for rule in &catalog {
            println!("{:<24} {}", rule.name(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<Box<dyn Rule>> = if opts.rules.is_empty() {
        catalog
    } else {
        let mut sel = Vec::new();
        for name in &opts.rules {
            match all_rules().into_iter().find(|r| r.name() == name) {
                Some(r) => sel.push(r),
                None => {
                    eprintln!("rtc-analysis: unknown rule `{name}` (see --list-rules)");
                    return ExitCode::from(2);
                }
            }
        }
        sel
    };

    let Some(root) = opts.root.or_else(find_root) else {
        eprintln!("rtc-analysis: no workspace root found (use --root)");
        return ExitCode::from(2);
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "rtc-analysis: failed to load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    let report = engine::run(&ws, &selected);
    if opts.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human(opts.verbose));
    }
    if opts.deny && !report.clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
