//! Socket soak: supervised commit over real TCP under continuous fault
//! injection, checked against the simulator.
//!
//! Each round boots a three-node localhost cluster whose readers fault
//! the inbound traffic they decode — a partition that heals,
//! duplicated and reordered frames, connection resets at frame
//! boundaries — while the supervisor heals a periodically crashed
//! node. Several commit instances multiplex over each round's mesh;
//! every instance is seeded, so the identical schedule replays on the
//! discrete-event simulator, and every *forced* decision (a `Zero`
//! vote pins both substrates to abort) is cross-checked between the
//! two. Exits nonzero on any safety violation, forced mismatch, or
//! undecided instance — CI runs this as the `net-soak` job.
//!
//! Run with: `cargo run --release --example net_soak`

use std::process::ExitCode;

use rtc::chaos::{run_soak, SoakConfig};

fn main() -> ExitCode {
    let cfg = SoakConfig {
        rounds: 3,
        instances: 3,
        seed: 0x504_1986,
    };
    println!(
        "soaking {} rounds x {} instances over real sockets (seed {:#x})...",
        cfg.rounds, cfg.instances, cfg.seed
    );
    let report = run_soak(&cfg);
    println!("{report}");
    for what in &report.violations {
        eprintln!("VIOLATION: {what}");
    }
    for (round, k) in &report.forced_failures {
        eprintln!("FORCED MISMATCH: round {round} instance {k} did not abort on both substrates");
    }
    if report.ok() {
        println!("soak clean: safety held, all forced decisions matched the simulator");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
