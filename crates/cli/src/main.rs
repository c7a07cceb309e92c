//! `dima` — command-line interface to the DiMa algorithms.
//!
//! ```text
//! dima-cli gen er --n 200 --avg-degree 8 --seed 1 --out g.edges
//! dima-cli info g.edges
//! dima-cli color g.edges --seed 42 --out g.colors
//! dima-cli strong-color g.edges --seed 42
//! dima-cli matching g.edges --seed 42
//! dima-cli verify g.edges g.colors
//! ```
//!
//! Graphs travel as edge-list text (`dima_graph::io`); colorings as
//! `edge_id color` lines. Every command prints the round/message
//! statistics the paper reports.

use std::process::ExitCode;

use dima_sim::telemetry::CountingAlloc;

mod cmd;
mod serve;

/// Route every heap allocation through the counting wrapper so run
/// reports can state peak heap, bytes/node, and bytes/edge. The
/// wrapper is two relaxed atomic adds over the system allocator —
/// cheap enough to leave on unconditionally.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cmd::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader of stdout has gone: nothing is left to say.
        Err(msg) if msg == cmd::STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run 'dima-cli help' for usage");
            ExitCode::from(2)
        }
    }
}
