//! Standalone server daemon: binds a TCP port and serves jobs until
//! killed, over either codec.
//!
//! ```text
//! msropm_serve [--addr HOST:PORT] [--frontend reactor|http]
//!              [--workers N] [--queue N] [--cache N] [--shards auto|N]
//!              [--backend f64|fixed] [--max-inflight N] [--max-lanes N]
//!              [--max-conns N] [--loops N] [--max-wbuf BYTES]
//!              [--poll-backend] [--port-file PATH]
//! ```
//!
//! `--shards auto` (default) lets each job's solve shard across the
//! core-count-wide pool when the queue is shallow, narrowing under
//! backlog; `--shards N` pins every job to N shards (`--shards 1`
//! disables intra-job parallelism). Reports are bit-identical either
//! way.
//!
//! `--backend fixed` forces every accepted job onto the fixed-point
//! phase kernel (see the `osc::fxkernel` module) regardless of what the
//! submission asked for — one flag pins the whole deployment to the
//! integer path; `--backend f64` pins the float path. Without the flag
//! each job's own config picks its backend.
//!
//! Every connection is served by `--loops` nonblocking event loops
//! (epoll, or `poll(2)` with `--poll-backend`), so thousands of idle
//! connections cost no threads. `--frontend reactor` (default) speaks
//! the binary frame protocol; `--frontend http` speaks the HTTP/1.1 +
//! JSON gateway (see the server crate's `http` module for the endpoint
//! table). Both codecs run on the same loop and session core, so
//! quotas, deadlines, cancellation, and drain behave identically.
//! `--max-conns` caps concurrent connections, `--max-wbuf` caps a
//! connection's buffered unsent bytes before a non-reading peer is
//! dropped.
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; the bound address is
//! printed as `listening on ADDR` (and written to `--port-file` when
//! given, which is what the CI smoke stages parse).

use msropm_core::KernelBackend;
use msropm_server::proto::FrontendKind;
use msropm_server::{ServerConfig, ShardPolicy};
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:7227".to_string();
    let mut builder = ServerConfig::builder();
    let mut port_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
        };
        builder = match a.as_str() {
            "--addr" => {
                addr = value("--addr");
                builder
            }
            "--frontend" => {
                let v = value("--frontend");
                let kind = FrontendKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown frontend {v:?}; valid: reactor, http");
                    std::process::exit(2);
                });
                builder.frontend(kind)
            }
            "--workers" => builder.workers(value("--workers").parse().expect("--workers N")),
            "--queue" => builder.queue_capacity(value("--queue").parse().expect("--queue N")),
            "--cache" => builder.cache_capacity(value("--cache").parse().expect("--cache N")),
            "--shards" => {
                let v = value("--shards");
                builder.shards(if v == "auto" {
                    ShardPolicy::Auto
                } else {
                    ShardPolicy::Fixed(v.parse().expect("--shards auto|N"))
                })
            }
            "--backend" => {
                let v = value("--backend");
                let backend = KernelBackend::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown backend {v:?}; valid: f64, fixed");
                    std::process::exit(2);
                });
                builder.backend(backend)
            }
            "--max-inflight" => builder
                .max_inflight_jobs(value("--max-inflight").parse().expect("--max-inflight N")),
            "--max-lanes" => {
                builder.max_queued_lanes(value("--max-lanes").parse().expect("--max-lanes N"))
            }
            "--max-conns" => {
                builder.max_connections(value("--max-conns").parse().expect("--max-conns N"))
            }
            "--loops" => builder.loops(value("--loops").parse().expect("--loops N")),
            "--max-wbuf" => {
                builder.max_write_buffer(value("--max-wbuf").parse().expect("--max-wbuf BYTES"))
            }
            "--poll-backend" => builder.poll_backend(true),
            "--port-file" => {
                port_file = Some(value("--port-file"));
                builder
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; valid: --addr HOST:PORT, \
                     --frontend reactor|http, --workers N, --queue N, --cache N, \
                     --shards auto|N, --backend f64|fixed, --max-inflight N, \
                     --max-lanes N, --max-conns N, --loops N, --max-wbuf BYTES, \
                     --poll-backend, --port-file PATH"
                );
                std::process::exit(2);
            }
        };
    }
    let server = builder.bind(&addr).unwrap_or_else(|e| {
        eprintln!("failed to bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = server.local_addr();
    println!("listening on {bound} ({} frontend)", server.kind());
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{bound}\n"))
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    }
    // Serve until killed (SIGTERM/SIGKILL from the operator or CI's
    // `timeout`); the front end and workers run on their own threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
