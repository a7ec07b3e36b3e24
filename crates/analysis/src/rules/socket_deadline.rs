//! Rule `socket-deadline`: socket I/O in the net substrate must carry a
//! deadline.
//!
//! The model's realistic fault plane bounds every wait: the protocol's
//! timeouts are `2K` ticks, the substrate's I/O budget is the `tick ×
//! 8K` failure-free decision window. A blocking `read`, `write`, or
//! `connect` on a `TcpStream` with no deadline configured escapes all
//! of that — one wedged peer (or one held behind a partition) parks
//! the thread forever, turning a *network* fault into an unbounded
//! *process* stall the supervisor cannot distinguish from progress.
//! Every function in `rtc-net` that performs socket I/O must therefore
//! also set (or visibly rely on) a deadline: `set_read_timeout`,
//! `set_write_timeout`, `connect_timeout`, or non-blocking mode.

use crate::diag::Diagnostic;
use crate::engine::Workspace;
use crate::rules::Rule;
use crate::source::statement_region;

/// Blocking socket operations that need a bound.
const BLOCKING_IO: [&str; 6] = [
    ".read(",
    ".read_exact(",
    ".read_to_end(",
    ".write_all(",
    ".write(",
    "::connect(",
];

/// Tokens that satisfy the bound: a socket deadline being configured,
/// non-blocking mode, or the substrate's derived deadline knob flowing
/// through the function.
const DEADLINED: [&str; 5] = [
    "set_read_timeout",
    "set_write_timeout",
    "connect_timeout",
    "set_nonblocking",
    "io_deadline",
];

/// Longest function body scanned from its header.
const MAX_REGION_LINES: usize = 140;

/// See the module docs.
#[derive(Debug)]
pub struct SocketDeadline;

impl Rule for SocketDeadline {
    fn name(&self) -> &'static str {
        "socket-deadline"
    }

    fn summary(&self) -> &'static str {
        "socket reads/writes/connects in rtc-net must set or rely on a deadline"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in ws.files.iter().filter(|f| f.crate_name == "rtc-net") {
            // Anchor on function headers; a function is the unit inside
            // which a configured deadline plausibly governs the I/O.
            let headers: Vec<usize> = file
                .prod_lines()
                .filter(|(_, l)| {
                    let t = l.trim_start();
                    t.starts_with("fn ")
                        || t.starts_with("pub fn ")
                        || t.starts_with("pub(crate) fn ")
                        || t.starts_with("pub(super) fn ")
                })
                .map(|(n, _)| n)
                .collect();
            for header in headers {
                let region = statement_region(&file.code, header, MAX_REGION_LINES);
                let body: Vec<&str> = (region.start..=region.end)
                    .map(|n| file.code[n - 1].as_str())
                    .collect();
                let io_here = body
                    .iter()
                    .any(|l| BLOCKING_IO.iter().any(|tok| l.contains(tok)));
                if !io_here {
                    continue;
                }
                let deadlined = body
                    .iter()
                    .any(|l| DEADLINED.iter().any(|tok| l.contains(tok)));
                if !deadlined {
                    // Anchor on the first blocking call in the body.
                    let line_no = (region.start..=region.end)
                        .find(|n| BLOCKING_IO.iter().any(|tok| file.code[n - 1].contains(tok)))
                        .unwrap_or(header);
                    out.push(Diagnostic::new(
                        self.name(),
                        &file.rel_path,
                        line_no,
                        "blocking socket I/O with no deadline in sight: set \
                         set_read_timeout/set_write_timeout/connect_timeout (or go \
                         non-blocking) so a wedged peer surfaces as an error inside the \
                         8K decision window instead of parking this thread forever"
                            .to_owned(),
                        file.snippet(line_no),
                    ));
                }
            }
        }
        out
    }
}
