//! `pclabel-serve` — serve pattern count-based labels over stdin/stdout.
//!
//! Reads line-delimited JSON requests from stdin and writes one JSON
//! response per line to stdout (std-only, no network dependencies). See
//! `pclabel_engine::serve` for the protocol.
//!
//! ```text
//! pclabel-serve < requests.jsonl > responses.jsonl
//! ```

use std::io;

use pclabel_engine::query::{Engine, EngineConfig};
use pclabel_engine::serve::{serve, Dispatcher};

const USAGE: &str = "\
pclabel-serve — serve pattern count-based labels over stdin/stdout

usage: pclabel-serve [--help]

Reads one JSON request per stdin line, writes one JSON response per
stdout line. Requests (see `pclabel_engine::serve` docs for details):

  {\"op\":\"register\",\"dataset\":NAME,\"csv\":TEXT|\"generator\":\"figure2\",
   \"label_attrs\":[NAMES]|\"bound\":N}
  {\"op\":\"query\",\"dataset\":NAME,\"id\":ID,\"patterns\":[{ATTR:VALUE,...},...]}
  {\"op\":\"estimate_multi\",\"patterns\":[...],\"strategy\":\"most_specific\"|
   \"min_estimate\"|\"geometric_mean\",\"datasets\":[NAMES]}
  {\"op\":\"refresh\",\"dataset\":NAME,\"label_attrs\":[NAMES]|\"bound\":N}
  {\"op\":\"stats\",\"dataset\":NAME}
  {\"op\":\"list\"}
  {\"op\":\"health\"}
  {\"op\":\"drop\",\"dataset\":NAME}

environment:
  PCLABEL_QUERY_THREADS   worker threads for large batches (default: auto)
";

fn main() {
    if std::env::args().skip(1).any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return;
    }
    let query_threads = std::env::var("PCLABEL_QUERY_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(0);
    let dispatcher = Dispatcher::new(Engine::new(EngineConfig { query_threads }));

    let stdin = io::stdin().lock();
    let stdout = io::stdout().lock();
    match serve(&dispatcher, stdin, stdout) {
        Ok(summary) => {
            eprintln!(
                "pclabel-serve: {} request(s), {} error(s)",
                summary.requests, summary.errors
            );
        }
        Err(e) => {
            eprintln!("pclabel-serve: I/O error: {e}");
            std::process::exit(1);
        }
    }
}
