//! The one request path, observed from both ends: `netperf serve`
//! answering a hostile script over stdin without dying, and the library
//! entry point (`RunRequest::from_pairs` → `execute`) producing the
//! same request — and the same bytes — from the argv and the JSON
//! spelling of it.

use netperf::netsim::request::{execute, pairs_from_argv, Op, RunRequest};
use std::io::Write;
use std::process::{Command, Stdio};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("netperf-request-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pull one string or integer field out of a flat response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    match rest.strip_prefix('"') {
        Some(s) => s.find('"').map(|end| &s[..end]),
        None => rest.find([',', '}']).map(|end| &rest[..end]),
    }
}

#[test]
fn serve_answers_every_line_in_order_and_survives_bad_requests() {
    let dir = tempdir("serve");
    let good = |id: &str, csv: &str| {
        format!(
            "{{\"id\": \"{id}\", \"op\": \"run\", \"name\": \"cube-duato-tiny\", \
             \"quick\": \"true\", \"load\": \"0.3\", \"csv\": \"{csv}\"}}"
        )
    };
    let tiny = "\"op\": \"run\", \"name\": \"cube-duato-tiny\", \"quick\": \"true\"";
    // (request line, expected exit_code)
    let script: Vec<(String, u32)> = vec![
        (good("miss", "a.csv"), 0),
        (good("hit", "b.csv"), 0),
        ("this is not json".into(), 2),
        ("{\"op\": \"frobnicate\"}".into(), 2),
        ("{\"op\": \"run\", \"name\": \"--help\"}".into(), 2),
        (format!("{{{tiny}, \"help\": \"true\"}}"), 2),
        (format!("{{{tiny}, \"load\": \"nan\"}}"), 2),
        (
            "{\"op\": \"sweep\", \"name\": \"cube-duato-tiny\", \"grid\": \"0:inf:0.1\"}".into(),
            2,
        ),
        (format!("{{{tiny}, \"csv\": \"/dev/null/x.csv\"}}"), 2),
        // Not validated up front: 100 lanes per port overflow the
        // engine's 64-lane pending mask, which panics mid-run. The
        // backstop answers like a crashed worker would have. (If this
        // ever becomes a validation error, pick another panic.)
        (
            "{\"op\": \"run\", \"topology\": \"mesh\", \"k\": \"4\", \"vcs\": \"100\", \
             \"quick\": \"true\"}"
                .into(),
            101,
        ),
        (good("after", "c.csv"), 0),
    ];

    let mut child = Command::new(env!("CARGO_BIN_EXE_netperf"))
        .current_dir(&dir)
        .args(["serve", "--cache", "store"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn netperf serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        for (line, _) in &script {
            writeln!(stdin, "{line}").unwrap();
        }
        // An invalid-UTF-8 line and a blank one ride along: the first
        // is answered, the second skipped.
        stdin.write_all(b"\xff\xfe\n\n").unwrap();
    } // EOF
    let out = child.wait_with_output().expect("wait for serve");
    assert_eq!(out.status.code(), Some(0), "server did not exit 0 at EOF");

    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        responses.len(),
        script.len() + 1,
        "want one response per non-blank line:\n{stdout}"
    );
    for ((request, code), response) in script.iter().zip(&responses) {
        assert_eq!(
            field(response, "exit_code"),
            Some(code.to_string().as_str()),
            "{request} -> {response}"
        );
        match code {
            0 => assert_eq!(field(response, "status"), Some("ok"), "{response}"),
            _ => {
                assert_eq!(field(response, "status"), Some("error"), "{response}");
                let msg = field(response, "error").expect("error responses carry a message");
                assert!(!msg.is_empty() && !msg.contains("\\n"), "{response}");
            }
        }
    }
    // Byte-stable response shapes.
    assert_eq!(
        responses[0],
        "{\"id\": \"miss\", \"status\": \"ok\", \"exit_code\": 0}"
    );
    assert_eq!(
        responses[2],
        "{\"status\": \"error\", \"exit_code\": 2, \
         \"error\": \"bad request: request must be a JSON object\"}"
    );
    assert!(
        responses[6].contains("\"error\": \"error: offered load NaN is out of range"),
        "{}",
        responses[6]
    );
    assert!(responses.last().unwrap().contains("not valid UTF-8"));

    // The repeat was served from the cache: identical CSV bytes, and
    // the manifests say so.
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
    assert_eq!(read("a.csv"), read("b.csv"));
    assert_eq!(read("a.csv"), read("c.csv"));
    let cache_block = |manifest: &str| {
        let m = read(manifest);
        let at = m
            .find("\"cache\"")
            .expect("cached runs record hit/miss counts");
        m[at..].split_whitespace().collect::<Vec<_>>().join(" ")
    };
    assert!(cache_block("a.manifest.json").starts_with("\"cache\": { \"hits\": 0, \"misses\": 1 }"));
    assert!(cache_block("b.manifest.json").starts_with("\"cache\": { \"hits\": 1, \"misses\": 0 }"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn argv_and_json_spellings_build_the_same_request_and_the_same_bytes() {
    let dir = tempdir("lib");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (csv, store) = (path("out.csv"), path("store"));

    let argv: Vec<String> = [
        "tree-2vc-tiny",
        "--quick",
        "--grid",
        "0.1:0.5:0.2",
        "--seed",
        "0x7",
        "--pattern",
        "complement",
        "--cache",
        &store,
        "--csv",
        &csv,
    ]
    .map(String::from)
    .to_vec();
    let (name, pairs) = pairs_from_argv(&argv).unwrap();
    let from_argv = RunRequest::from_pairs(Op::Sweep, name.as_deref(), &pairs).unwrap();

    // What `serve` extracts from {"op": "sweep", "name": "tree-2vc-tiny",
    // "pattern": "complement", "csv": ..., "quick": "true", ...}: the
    // same pairs in another order, the bare flag spelled "true".
    let json_pairs: Vec<(String, String)> = [
        ("pattern", "complement"),
        ("csv", csv.as_str()),
        ("quick", "true"),
        ("cache", store.as_str()),
        ("seed", "0x7"),
        ("grid", "0.1:0.5:0.2"),
    ]
    .iter()
    .map(|&(k, v)| (k.to_string(), v.to_string()))
    .collect();
    let from_json = RunRequest::from_pairs(Op::Sweep, Some("tree-2vc-tiny"), &json_pairs).unwrap();
    assert_eq!(from_argv, from_json);

    // A server-wide cache never overrides the request's own.
    assert_eq!(
        from_json.clone().with_default_cache(Some("elsewhere")),
        from_json
    );

    let artifacts = || {
        let manifest: String = std::fs::read_to_string(path("out.manifest.json"))
            .unwrap()
            .lines()
            .filter(|l| !l.contains("wall_clock_secs") && !l.contains("\"hits\""))
            .filter(|l| !l.contains("\"misses\""))
            .collect();
        (std::fs::read(&csv).unwrap(), manifest)
    };
    let cold = execute(&from_argv).unwrap();
    assert_eq!(cold.cache, Some((0, 3)));
    assert_eq!(cold.written, vec![csv.clone(), path("out.manifest.json")]);
    let cold_files = artifacts();

    let warm = execute(&from_json).unwrap();
    assert_eq!(warm.cache, Some((3, 0)));
    assert_eq!(
        warm.rows, cold.rows,
        "a replayed row differs from a fresh one"
    );
    assert_eq!(
        warm.stdout[..4],
        cold.stdout[..4],
        "banner and per-load lines must replay verbatim"
    );
    assert_eq!(artifacts(), cold_files, "warm artifacts differ from cold");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_flag_rules_are_errors_not_panics() {
    let pairs = |kv: &[(&str, &str)]| -> Vec<(String, String)> {
        kv.iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let err = |op, name: Option<&str>, kv: &[(&str, &str)]| {
        RunRequest::from_pairs(op, name, &pairs(kv))
            .expect_err("must be refused")
            .to_string()
    };
    let tiny = Some("cube-duato-tiny");
    assert!(err(Op::Run, tiny, &[("topology", "cube")]).contains("not both"));
    // A registry name fixes its shape: k and n are refused, not ignored.
    assert!(err(Op::Run, tiny, &[("k", "8")]).contains("not both"));
    assert!(err(Op::Run, tiny, &[("n", "3")]).contains("not both"));
    // A load flag of the other op is refused, not dropped.
    assert!(err(Op::Run, tiny, &[("grid", "0.1:0.2:0.1")]).contains("applies to `sweep`"));
    assert!(err(Op::Run, tiny, &[("sweep", "0.1:0.2:0.1")]).contains("applies to `sweep`"));
    assert!(err(Op::Sweep, tiny, &[("load", "0.3")]).contains("applies to `run`"));
    assert!(err(Op::Run, tiny, &[("probe-stride", "5")]).contains("requires --trace"));
    assert!(err(Op::Sweep, tiny, &[("resume", "ck.bin")]).contains("apply to `run`"));
    assert!(err(Op::Run, tiny, &[("cache", "c"), ("trace", "t")]).contains("traced runs"));
    assert!(err(Op::Run, tiny, &[("stepper", "soa")]).contains("expected default or reference"));
    // The audit composes with sharding; nothing about it is refused.
    RunRequest::from_pairs(
        Op::Run,
        tiny,
        &pairs(&[("shards", "2"), ("stepper", "reference")]),
    )
    .expect("reference x shards is a valid request");
    assert!(err(Op::Run, tiny, &[("nodes", "64")]).contains("unknown flag --nodes"));
    assert!(err(Op::Design, None, &[("load", "0.5")]).contains("unknown flag --load"));
    assert!(err(Op::Run, tiny, &[("warmup", "100"), ("cycles", "50")]).contains("warm-up (100)"));
    assert!(err(
        Op::Run,
        None,
        &[("topology", "tree"), ("k", "4"), ("n", "40")]
    )
    .contains("2^18"));

    // A traced or checkpointed request is left out of a server-wide
    // cache instead of being refused.
    let traced = RunRequest::from_pairs(Op::Run, tiny, &pairs(&[("trace", "t")])).unwrap();
    assert_eq!(traced.with_default_cache(Some("c")).cache(), None);
    let plain = RunRequest::from_pairs(Op::Run, tiny, &[]).unwrap();
    assert_eq!(plain.with_default_cache(Some("c")).cache(), Some("c"));
}

#[test]
fn a_single_run_length_override_keeps_the_entrys_other_value() {
    // A registry name means its pairs followed by the request's: one
    // override replaces one value. Explicit --warmup/--cycles beat
    // --quick in either order.
    let pairs = |kv: &[(&str, &str)]| -> Vec<(String, String)> {
        kv.iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let same = |a: (Option<&str>, &[(&str, &str)]), b: (Option<&str>, &[(&str, &str)])| {
        let req = |(name, kv): (Option<&str>, &[(&str, &str)])| {
            RunRequest::from_pairs(Op::Run, name, &pairs(kv)).unwrap()
        };
        assert_eq!(req(a), req(b));
    };
    let tiny = Some("cube-duato-tiny");
    let explicit = |warmup, cycles| {
        [
            ("topology", "cube"),
            ("k", "4"),
            ("algo", "duato"),
            ("warmup", warmup),
            ("cycles", cycles),
        ]
    };
    same(
        (tiny, &[("warmup", "100")]),
        (None, &explicit("100", "6000")),
    );
    same(
        (tiny, &[("cycles", "1500")]),
        (None, &explicit("1000", "1500")),
    );
    let paper = Some("cube-duato");
    let big = |warmup, cycles| [("topology", "cube"), ("warmup", warmup), ("cycles", cycles)];
    same((paper, &[("warmup", "100")]), (None, &big("100", "20000")));
    // --quick is recorded in the manifest, so compare quick with quick.
    let quick_big = |warmup, cycles| {
        let [t, w, c] = big(warmup, cycles);
        [t, w, c, ("quick", "true")]
    };
    for kv in [
        [("quick", "true"), ("warmup", "100")],
        [("warmup", "100"), ("quick", "true")],
    ] {
        same((paper, &kv), (None, &quick_big("100", "6000")));
    }
}

#[test]
fn flags_first_invocation_points_at_the_subcommands() {
    let out = Command::new(env!("CARGO_BIN_EXE_netperf"))
        .args(["--topology", "cube", "--load", "0.3"])
        .output()
        .expect("spawn netperf");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("netperf run") && stderr.contains("sweep"),
        "{stderr}"
    );
}
