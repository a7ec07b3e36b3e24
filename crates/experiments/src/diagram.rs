//! ASCII space–time diagrams of recorded runs.
//!
//! One row per event, one column per processor. The stepping
//! processor's cell shows what happened at its step:
//!
//! * `*`   — took a step (no receive, no send)
//! * `*3`  — received 3 messages at the step
//! * `>`   — sent messages (appended, e.g. `*2>` received 2 and sent)
//! * `D`   — decided at this step (appended)
//! * `X`   — crashed (failure event)
//! * `+`   — a pending message of this processor was duplicated
//!
//! The right margin annotates decisions. This is a debugging aid — for
//! long runs, pass a window to keep the output readable.

use rtc_model::{ProcessorId, Value};
use rtc_sim::{EventView, Trace};

/// Rendering options.
#[derive(Clone, Copy, Debug)]
pub struct DiagramOptions {
    /// First event to render.
    pub from_event: usize,
    /// Maximum number of events to render.
    pub max_events: usize,
}

impl Default for DiagramOptions {
    fn default() -> DiagramOptions {
        DiagramOptions {
            from_event: 0,
            max_events: 120,
        }
    }
}

/// Renders the trace as an ASCII space–time diagram.
pub fn render(trace: &Trace, opts: DiagramOptions) -> String {
    let n = trace.population();
    let col = 6usize;
    let mut out = String::new();
    // Header.
    out.push_str("event ");
    for p in ProcessorId::all(n) {
        out.push_str(&format!("{:<col$}", p.to_string()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(6 + col * n));
    out.push('\n');
    let total = trace.event_count();
    let end = (opts.from_event + opts.max_events).min(total);
    for (idx, ev) in trace.events().enumerate().take(end).skip(opts.from_event) {
        let mut cells = vec![String::new(); n];
        let mut note = String::new();
        match ev {
            EventView::Crash { p } => {
                cells[p.index()].push('X');
                note = format!("{p} crashed");
            }
            EventView::Revive { p } => {
                cells[p.index()].push('R');
                note = format!("{p} revived");
            }
            EventView::Duplicate { p, original, copy } => {
                cells[p.index()].push('+');
                note = format!("{p}'s message {original} duplicated as {copy}");
            }
            EventView::Step {
                p, delivered, sent, ..
            } => {
                let cell = &mut cells[p.index()];
                cell.push('*');
                if !delivered.is_empty() {
                    cell.push_str(&delivered.len().to_string());
                }
                if !sent.is_empty() {
                    cell.push('>');
                }
                if let Some(d) = trace.decision_of(p) {
                    if d.event == idx as u64 {
                        cell.push('D');
                        note = format!(
                            "{p} decides {}",
                            match d.value {
                                Value::Zero => "abort",
                                Value::One => "commit",
                            }
                        );
                    }
                }
            }
        }
        out.push_str(&format!("{idx:>5} "));
        for cell in &cells {
            out.push_str(&format!("{cell:<col$}"));
        }
        if !note.is_empty() {
            out.push_str("  ");
            out.push_str(&note);
        }
        out.push('\n');
    }
    if end < total {
        out.push_str(&format!("... ({} more events)\n", total - end));
    }
    out
}

#[cfg(test)]
mod tests {
    use rtc_core::{commit_population, CommitConfig};
    use rtc_model::{SeedCollection, TimingParams};
    use rtc_sim::adversaries::SynchronousAdversary;
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;

    fn trace() -> Trace {
        let cfg = CommitConfig::new(3, 1, TimingParams::default()).unwrap();
        let procs = commit_population(cfg, &[Value::One; 3]);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(4))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        sim.run(&mut SynchronousAdversary::new(3), RunLimits::default())
            .unwrap();
        sim.trace().clone()
    }

    #[test]
    fn renders_header_steps_and_decisions() {
        let t = trace();
        let d = render(&t, DiagramOptions::default());
        assert!(d.contains("p0"));
        assert!(d.contains("p2"));
        assert!(d.contains('*'), "steps must be marked");
        assert!(d.contains('>'), "sends must be marked");
        assert!(d.contains("decides commit"));
    }

    #[test]
    fn windowing_truncates_with_a_marker() {
        let t = trace();
        let d = render(
            &t,
            DiagramOptions {
                from_event: 0,
                max_events: 3,
            },
        );
        assert_eq!(
            d.lines().count(),
            3 + 2 + 1,
            "3 events + header + rule + marker"
        );
        assert!(d.contains("more events"));
    }

    #[test]
    fn crash_rows_are_marked() {
        use rtc_sim::adversaries::{CrashAdversary, CrashPlan, DropPolicy};
        let cfg = CommitConfig::new(3, 1, TimingParams::default()).unwrap();
        let procs = commit_population(cfg, &[Value::One; 3]);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(4))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(3),
            vec![CrashPlan {
                at_event: 2,
                victim: ProcessorId::new(2),
                drop: DropPolicy::KeepAll,
            }],
        );
        sim.run(&mut adv, RunLimits::default()).unwrap();
        let d = render(sim.trace(), DiagramOptions::default());
        assert!(d.contains('X'));
        assert!(d.contains("p2 crashed"));
    }
}
