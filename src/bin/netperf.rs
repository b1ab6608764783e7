//! `netperf` — command-line driver for the flit-level simulator.
//!
//! A small front-end over [`netperf::netsim::request`]: `run`, `sweep`
//! and `design` turn their argv into `(flag, value)` pairs, `serve`
//! reads the same pairs as one flat JSON object per line, and both go
//! through `RunRequest::from_pairs` and `execute`.
//!
//! ```sh
//! netperf list                              # named scenarios from the registry
//! netperf run cube-duato --load 0.6         # one load point of a registry entry
//! netperf sweep tree-2vc --pattern transpose --csv sweep.csv
//! netperf run --topology mesh --k 8 --n 2 --algo adaptive --vcs 2 --load 0.3
//! ```
//!
//! `run` and `sweep` accept either a registry name or explicit
//! `--topology/--k/--n/--algo/--vcs` flags; every axis goes through the
//! one scenario grammar, `Scenario::from_pairs`, so an impossible
//! combination fails with a message instead of a panic. When `--csv` is
//! given, a JSON run manifest (`<stem>.manifest.json`) is written next
//! to it.
//!
//! Every failure is a [`RequestError`] value; only `main` (and `usage`)
//! turn one into the one-line `error: …` on stderr and exit code 2.

use netperf::netsim::request::{execute, io_error, pairs_from_argv, Op, RequestError, RunRequest};
use netperf::netsim::scenario::{parse_threads, registry};
use netperf::netsim::{EngineSnapshot, RunSnapshot};
use std::io::BufRead;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(RequestError::Help) => usage(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn invalid(msg: impl Into<String>) -> RequestError {
    RequestError::Invalid(msg.into())
}

fn dispatch(args: &[String]) -> Result<(), RequestError> {
    // Validate the thread-count override up front: the library helpers
    // silently ignore garbage, but an interactive user who typed
    // NETPERF_THREADS=0 deserves an error, not a silent default.
    if let Ok(v) = std::env::var("NETPERF_THREADS") {
        parse_threads(&v).map_err(|e| invalid(format!("bad NETPERF_THREADS: {e}")))?;
    }
    let Some((cmd, rest)) = args.split_first() else {
        return Err(RequestError::Help);
    };
    match cmd.as_str() {
        "list" => cmd_list(),
        "serve" => cmd_serve(rest)?,
        "snapshot" => cmd_snapshot(rest)?,
        "--help" | "-h" => return Err(RequestError::Help),
        flag if flag.starts_with("--") => {
            return Err(invalid(format!(
                "{flag} before a subcommand: the flags-first form was removed; use \
                 `netperf run {flag} ...` or `netperf sweep {flag} ...` (see `netperf --help`)"
            )))
        }
        other => match Op::parse(other) {
            Some(op) => cmd_request(op, rest)?,
            None => {
                eprintln!("error: unknown subcommand {other}");
                return Err(RequestError::Help);
            }
        },
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: netperf <subcommand> [options]\n\
         \n\
         subcommands:\n\
         list                        print the named-scenario registry\n\
         run   [name] [options]      simulate one offered load\n\
         sweep [name] [options]      sweep a load grid (in parallel)\n\
         design [options]            rank design points under a pin budget:\n\
                                     --nodes <int> (default 256),\n\
                                     --pin-budget <int> (default 160),\n\
                                     --out <stem> (default results/design_report),\n\
                                     --quick; writes <stem>.{{csv,json}} + manifest\n\
         serve [options]             service JSONL requests (one flat JSON object\n\
                                     per line) from stdin, or from a watched\n\
                                     --spool <dir> of *.json files; each request\n\
                                     names an op (run|sweep|design) plus the\n\
                                     matching CLI flags as string fields, and is\n\
                                     executed in-process with misses farmed\n\
                                     across NETPERF_THREADS; a bad request is an\n\
                                     error response, never the end of the\n\
                                     server. --cache <dir> applies a\n\
                                     default result cache; --once drains the\n\
                                     spool and exits\n\
         snapshot <file>             describe a checkpoint file (version, ident,\n\
                                     cycle, state hash) without simulating\n\
         \n\
         {}\n\
         \n\
         run/sweep control:\n\
         --load <frac>               offered load for `run` (default 0.5)\n\
         --grid a:b:step             load grid for `sweep` (default 0.05:1.0:0.05)\n\
         --shards <int>              domain-decompose each run into this many shards\n\
                                     (default 1 = serial; results are bit-identical\n\
                                     for every value; clamped to the router count)\n\
         --stepper <name>            default|reference: the production kernel, or the\n\
                                     full-scan audit of it (needs a build with the\n\
                                     reference-engine feature, e.g. cargo build\n\
                                     --workspace; results are bit-identical either\n\
                                     way and with any --shards; docs/PERFORMANCE.md)\n\
         --csv <path>                write results as CSV (+ JSON manifest)\n\
         --trace <stem>              record telemetry (alias --probe): writes\n\
                                     <stem>[.lNNN].trace.jsonl (event log),\n\
                                     <stem>[.lNNN].trace.json (Chrome about://tracing),\n\
                                     <stem>[.lNNN].breakdown.csv (latency decomposition),\n\
                                     <stem>[.lNNN].util.csv (channel utilization)\n\
         --probe-stride <n>          utilization sampling stride in cycles (default 100)\n\
         \n\
         serving plane (run only unless noted):\n\
         --checkpoint-every <n>      write a checkpoint every n cycles (needs\n\
                                     --snapshot; the file is replaced atomically)\n\
         --snapshot <path>           where checkpoints are written\n\
         --resume <path>             resume a run from a checkpoint file; the\n\
                                     finished run is bit-identical to an\n\
                                     uninterrupted one\n\
         --cache <dir>               run/sweep/design: content-addressed result\n\
                                     cache; hits skip simulation entirely and\n\
                                     reproduce byte-identical result rows\n\
         \n\
         environment:\n\
         NETPERF_THREADS             worker threads for sweeps and sharded runs\n\
                                     (positive integer; default: the machine's\n\
                                     available parallelism)\n\
         \n\
         Every invocation starts with a subcommand. The removed flags-first\n\
         form (netperf --topology ...) is spelled\n\
         netperf run --topology ... --fixed-seed 0x5EED.",
        netperf::netsim::scenario::USAGE
    );
    std::process::exit(2);
}

fn cmd_list() {
    println!(
        "{:18} {:28} {:13} {:3} {:>6} {:>7} {:>6} summary",
        "name", "label", "routing", "vcs", "nodes", "router", "bisect"
    );
    for e in registry() {
        let s = e.scenario();
        let t = s.topology();
        println!(
            "{:18} {:28} {:13} {:3} {:>6} {:>7} {:>6} {}",
            e.name,
            s.label(),
            s.routing().name(),
            s.vcs(),
            t.num_nodes(),
            t.num_routers(),
            t.bisection_links()
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
            e.summary
        );
    }
    println!("\npaper set: cube-det cube-duato tree-1vc tree-2vc tree-4vc");
}

/// `run` / `sweep` / `design`: argv → pairs → request → report.
fn cmd_request(op: Op, args: &[String]) -> Result<(), RequestError> {
    let (name, pairs) = pairs_from_argv(args)?;
    let report = execute(&RunRequest::from_pairs(op, name.as_deref(), &pairs)?)?;
    for line in &report.stdout {
        println!("{line}");
    }
    for note in &report.notes {
        eprintln!("{note}");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The serving plane: `netperf serve` (request loop) and
// `netperf snapshot` (checkpoint inspector).
// ---------------------------------------------------------------------

/// One parsed serve request: an optional id echoed back in the
/// response, then what `RunRequest::from_pairs` takes.
struct ServeRequest {
    id: Option<String>,
    op: Op,
    name: Option<String>,
    pairs: Vec<(String, String)>,
}

/// Parse one flat JSON object (string/number/bool values only — the
/// request language is deliberately a flat map of CLI flags, a bare
/// flag spelled `"quick": "true"`). Returns an error string for
/// anything malformed; the server answers with an error response and
/// keeps going.
fn parse_serve_request(line: &str) -> Result<ServeRequest, String> {
    let (mut op, mut name, mut id) = (None, None, None);
    let mut pairs = Vec::new();
    for (k, v) in parse_flat_json(line)? {
        match k.as_str() {
            "op" => op = Some(v),
            "name" => name = Some(v),
            "id" => id = Some(v),
            _ => pairs.push((k, v)),
        }
    }
    let op = op.ok_or_else(|| "request has no \"op\" field".to_string())?;
    let op = Op::parse(&op).ok_or_else(|| format!("unknown op {op:?} (run|sweep|design)"))?;
    Ok(ServeRequest {
        id,
        op,
        name,
        pairs,
    })
}

/// A minimal flat-JSON-object parser: `{"key": value, ...}` where each
/// value is a string (with \" \\ \/ \n \t \r escapes), a number, or
/// true/false. Nested objects and arrays are rejected — the request
/// language is flat by design.
fn parse_flat_json(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected a string".to_string());
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => return Ok(s),
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('/') => s.push('/'),
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('r') => s.push('\r'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    },
                    Some(c) => s.push(c),
                    None => return Err("unterminated string".to_string()),
                }
            }
        };
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("request must be a JSON object".to_string());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("missing ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => parse_string(&mut chars)?,
            Some('{') | Some('[') => {
                return Err(format!("key {key:?}: nested values are not supported"));
            }
            _ => {
                // Bare token: number / true / false / null.
                let mut t = String::new();
                while chars
                    .peek()
                    .is_some_and(|&c| !c.is_whitespace() && c != ',' && c != '}')
                {
                    t.push(chars.next().unwrap());
                }
                if t.is_empty() || t == "null" {
                    return Err(format!("key {key:?} has no usable value"));
                }
                t
            }
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    Ok(fields)
}

/// Escape a string into a JSON literal (quotes included).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn bad_request(why: &str) -> String {
    format!(
        "{{\"status\": \"error\", \"exit_code\": 2, \"error\": {}}}",
        json_escape(&format!("bad request: {why}"))
    )
}

/// Execute one request in-process and render the JSON response line.
/// A request error is the CLI's one-line message with exit code 2; a
/// panic is caught and answered with exit code 101 (what a crashed
/// worker process would have produced), and the server keeps serving.
/// Everything the request built — scenario, engine, outcomes — is
/// dropped before this returns.
fn serve_one(line: &str, default_cache: Option<&str>) -> String {
    let ServeRequest {
        id,
        op,
        name,
        pairs,
    } = match parse_serve_request(line) {
        Ok(r) => r,
        Err(e) => return bad_request(&e),
    };
    let outcome = std::panic::catch_unwind(|| {
        let req = RunRequest::from_pairs(op, name.as_deref(), &pairs)?;
        execute(&req.with_default_cache(default_cache))
    });
    let id_field = id
        .map(|id| format!("\"id\": {}, ", json_escape(&id)))
        .unwrap_or_default();
    let (code, error) = match outcome {
        Ok(Ok(_)) => return format!("{{{id_field}\"status\": \"ok\", \"exit_code\": 0}}"),
        Ok(Err(e)) => (2, format!("error: {e}")),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker failed".to_string());
            (101, format!("panic: {}", msg.lines().next().unwrap_or("")))
        }
    };
    format!(
        "{{{id_field}\"status\": \"error\", \"exit_code\": {code}, \"error\": {}}}",
        json_escape(&error)
    )
}

fn cmd_serve(args: &[String]) -> Result<(), RequestError> {
    let mut spool: Option<&str> = None;
    let mut once = false;
    let mut cache: Option<&str> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| invalid(format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--spool" => spool = Some(val()?),
            "--cache" => cache = Some(val()?),
            "--once" => once = true,
            "--help" | "-h" => return Err(RequestError::Help),
            other => return Err(invalid(format!("unknown flag {other}"))),
        }
    }
    match spool {
        None if once => Err(invalid("--once applies to --spool mode")),
        None => serve_stdin(cache),
        Some(dir) => serve_spool(dir, once, cache),
    }
}

/// Decode request bytes; a request that is not UTF-8 is answered, not
/// fatal.
fn serve_bytes(bytes: &[u8], cache: Option<&str>) -> String {
    match std::str::from_utf8(bytes) {
        Ok(line) => serve_one(line, cache),
        Err(_) => bad_request("request is not valid UTF-8"),
    }
}

/// Stdin mode: one flat JSON request per line, one JSON response per
/// line on stdout, until EOF. Blank lines are skipped.
fn serve_stdin(cache: Option<&str>) -> Result<(), RequestError> {
    let mut stdin = std::io::stdin().lock();
    let mut line = Vec::new();
    loop {
        line.clear();
        if stdin
            .read_until(b'\n', &mut line)
            .map_err(io_error("read", "stdin"))?
            == 0
        {
            return Ok(());
        }
        if !line.trim_ascii().is_empty() {
            println!("{}", serve_bytes(&line, cache));
        }
    }
}

/// Spool mode: poll `dir` for `*.json` request files (lexicographic
/// order, so zero-padded names form a queue), answer each with a
/// sibling `<stem>.resp.json`, and rename the request to `<stem>.done`
/// so it is serviced exactly once. `--once` drains the spool and exits.
/// A request that cannot be read is answered with an error response; a
/// response or `.done` marker that cannot be written is logged and the
/// request set aside, and the loop goes on.
fn serve_spool(dir: &str, once: bool, cache: Option<&str>) -> Result<(), RequestError> {
    std::fs::create_dir_all(dir).map_err(io_error("create spool", dir))?;
    eprintln!(
        "serving spool {dir} ({}; cache: {})",
        if once { "drain once" } else { "watching" },
        cache.unwrap_or("none"),
    );
    // Requests whose response or marker could not be written: not
    // retried, or a read-only spool would re-run them every poll.
    let mut set_aside: Vec<PathBuf> = Vec::new();
    loop {
        let is_request = |p: &Path| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".resp.json")
        };
        let mut requests: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| is_request(p) && !set_aside.contains(p))
                .collect(),
            Err(e) if once => return Err(io_error("read spool", dir)(e)),
            Err(e) => {
                eprintln!("read spool {dir}: {e}");
                Vec::new()
            }
        };
        requests.sort();
        for path in requests {
            let response = match std::fs::read(&path) {
                Ok(bytes) => serve_bytes(&bytes, cache),
                Err(e) => bad_request(&format!("unreadable request file: {e}")),
            };
            let stem = path.with_extension("");
            let resp_path = format!("{}.resp.json", stem.display());
            let done_path = format!("{}.done", stem.display());
            let marked = std::fs::write(&resp_path, response + "\n")
                .map_err(io_error("write", &resp_path))
                .and_then(|()| {
                    std::fs::rename(&path, &done_path).map_err(io_error("mark done", &done_path))
                });
            match marked {
                Ok(()) => eprintln!("served {} -> {resp_path}", path.display()),
                Err(e) => {
                    eprintln!("served {} but could not record it: {e}", path.display());
                    set_aside.push(path);
                }
            }
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// `netperf snapshot [--json] <file>` — describe a checkpoint without
/// running anything: format, version, identity digest, cycle,
/// measurement progress and state hash. Works on both the run-level
/// `NPCK` envelope and a bare engine-level `NPSN` snapshot. `--json`
/// prints one `netperf-snapshot-info/1` object instead
/// (schema-checked by `scripts/snapshot.schema.json` in verify.sh).
fn cmd_snapshot(args: &[String]) -> Result<(), RequestError> {
    let (json, path) = match args {
        [p] if !p.starts_with("--") => (false, p),
        [j, p] if j == "--json" && !p.starts_with("--") => (true, p),
        _ => return Err(invalid("usage: netperf snapshot [--json] <file>")),
    };
    let bytes = std::fs::read(path).map_err(io_error("read", path))?;
    let is_run = bytes.len() >= 4 && bytes[..4] == netperf::netsim::sim::RUN_SNAPSHOT_MAGIC;
    if is_run {
        let snap = RunSnapshot::from_bytes(&bytes)?;
        if json {
            println!(
                "{{\"schema\": \"netperf-snapshot-info/1\", \"format\": \"NPCK\", \
                 \"version\": {}, \"ident\": \"0x{:016x}\", \"cycle\": {}, \
                 \"warmed_up\": {}, \"batches_recorded\": {}, \"state_hash\": \"0x{:016x}\"}}",
                netperf::netsim::sim::RUN_SNAPSHOT_VERSION,
                snap.ident(),
                snap.cycle(),
                snap.past_warmup(),
                snap.batches_recorded(),
                snap.state_hash(),
            );
        } else {
            println!(
                "format:      run checkpoint (NPCK v{})",
                netperf::netsim::sim::RUN_SNAPSHOT_VERSION
            );
            println!("ident:       0x{:016x}", snap.ident());
            println!("cycle:       {}", snap.cycle());
            println!("warmed up:   {}", snap.past_warmup());
            println!("batches:     {}", snap.batches_recorded());
            println!("state hash:  0x{:016x}", snap.state_hash());
        }
    } else {
        let snap = EngineSnapshot::from_bytes(bytes)?;
        if json {
            println!(
                "{{\"schema\": \"netperf-snapshot-info/1\", \"format\": \"NPSN\", \
                 \"version\": {}, \"ident\": \"0x{:016x}\", \"cycle\": {}, \
                 \"state_hash\": \"0x{:016x}\"}}",
                snap.version(),
                snap.ident(),
                snap.cycle(),
                snap.state_hash(),
            );
        } else {
            println!("format:      engine snapshot (NPSN v{})", snap.version());
            println!("ident:       0x{:016x}", snap.ident());
            println!("cycle:       {}", snap.cycle());
            println!("state hash:  0x{:016x}", snap.state_hash());
        }
    }
    Ok(())
}
