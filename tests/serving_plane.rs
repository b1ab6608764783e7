//! Serving-plane contract tests: `run(N) → snapshot → resume → run(M)`
//! must be bit-identical to `run(N+M)` for every outcome field,
//! across the paper's five configurations, healthy or faulted, serial
//! or sharded, traced or untraced — and the digest-keyed result cache
//! must replay byte-identical rows.
//!
//! Outcome equality is asserted on the `Debug` rendering: `SimOutcome`
//! derives `Debug` over every field (floats print exactly), so equal
//! strings mean field-exact equality.

use netperf::netsim::sim::RunSnapshot;
use netperf::netsim::RunControl;
use netperf::prelude::*;
use netperf::telemetry::trace::events_jsonl;
use netstats::cache::{KeyDigest, ResultCache};
use proptest::prelude::*;

/// A run length short enough to make a 256-node paper configuration a
/// reasonable test, long enough to cross the warm-up boundary and
/// several batch boundaries.
fn short() -> RunLength {
    RunLength {
        warmup: 200,
        total: 1200,
    }
}

/// A control block for `s` at `load`, split into `shards` shards.
fn control<'a>(s: &Scenario, load: f64, shards: usize) -> RunControl<'a> {
    RunControl {
        shards,
        ..RunControl::new(s.state_ident(load))
    }
}

/// Uninterrupted outcome, then a checkpointed re-run (must be
/// unperturbed), then a resume from each captured snapshot (must land
/// on the identical outcome). Returns the captured snapshots so
/// callers can probe them further.
fn assert_resumes_identically(
    s: &Scenario,
    load: f64,
    every: u32,
    shards: usize,
) -> Vec<RunSnapshot> {
    let baseline = {
        let mut ctl = control(s, load, shards);
        s.try_simulate_controlled(load, &mut ctl)
            .expect("baseline run")
    };
    let baseline = format!("{baseline:?}");

    let mut snaps: Vec<RunSnapshot> = Vec::new();
    {
        let mut sink = |snap: &RunSnapshot| snaps.push(snap.clone());
        let mut ctl = control(s, load, shards);
        ctl.checkpoint_every = Some(every);
        ctl.on_checkpoint = Some(&mut sink);
        let out = s
            .try_simulate_controlled(load, &mut ctl)
            .expect("checkpointed run");
        assert_eq!(
            format!("{out:?}"),
            baseline,
            "{}: writing checkpoints perturbed the run",
            s.label()
        );
    }
    assert!(
        !snaps.is_empty(),
        "{}: cadence {every} produced no checkpoints",
        s.label()
    );

    // Resume from the first and the last snapshot (the cheap and the
    // nearly-finished extreme); every snapshot also round-trips
    // through its byte encoding unchanged.
    for snap in [&snaps[0], snaps.last().unwrap()] {
        let bytes = snap.to_bytes();
        let decoded = RunSnapshot::from_bytes(&bytes).expect("round-trip decode");
        assert_eq!(&decoded, snap, "byte round-trip changed the snapshot");
        assert_eq!(decoded.state_hash(), snap.state_hash());

        let mut ctl = control(s, load, shards);
        ctl.resume = Some(decoded);
        let out = s
            .try_simulate_controlled(load, &mut ctl)
            .expect("resumed run");
        assert_eq!(
            format!("{out:?}"),
            baseline,
            "{}: resume from cycle {} diverged",
            s.label(),
            snap.cycle()
        );
    }
    snaps
}

#[test]
fn all_five_paper_configs_resume_bit_identically() {
    for s in paper_scenarios() {
        let s = s.with_run_length(short());
        // A cadence deliberately misaligned with the 100-cycle batch
        // boundaries, so snapshots land mid-batch and on neither side
        // of the warm-up boundary.
        assert_resumes_identically(&s, 0.3, 330, 1);
    }
}

#[test]
fn sharded_runs_resume_bit_identically() {
    for name in ["cube-duato-tiny", "tree-2vc-tiny"] {
        let s = named(name).unwrap().with_run_length(short());
        assert_resumes_identically(&s, 0.4, 250, 4);
    }
}

#[test]
fn faulted_runs_resume_bit_identically() {
    let s = named("cube-duato-tiny")
        .unwrap()
        .with_run_length(short())
        .with_pairs(&[("faults", "links=0.05,routers=1,seed=7")])
        .unwrap();
    assert_resumes_identically(&s, 0.4, 330, 1);

    // Transient faults flip link state on a period; the snapshot must
    // capture the phase so the resumed run re-syncs.
    let s = named("tree-2vc-tiny")
        .unwrap()
        .with_run_length(short())
        .with_pairs(&[("faults", "transient=2:200:60,seed=11")])
        .unwrap();
    assert_resumes_identically(&s, 0.3, 330, 1);
}

#[test]
fn traced_runs_resume_with_byte_identical_jsonl_suffix() {
    let s = named("cube-duato-tiny")
        .unwrap()
        .with_run_length(short())
        .with_telemetry(TelemetryConfig {
            stride: 50,
            record_events: true,
        });
    let load = 0.4;
    let ident = s.state_ident(load);

    let (full_out, full_rec) = {
        let mut ctl = RunControl::new(ident);
        s.try_simulate_traced_controlled(load, &mut ctl)
            .expect("full traced run")
    };
    let full_jsonl = events_jsonl(full_rec.events());

    let mut snaps: Vec<RunSnapshot> = Vec::new();
    {
        let mut sink = |snap: &RunSnapshot| snaps.push(snap.clone());
        let mut ctl = RunControl::new(ident);
        ctl.checkpoint_every = Some(330);
        ctl.on_checkpoint = Some(&mut sink);
        let (out, rec) = s
            .try_simulate_traced_controlled(load, &mut ctl)
            .expect("checkpointed traced run");
        assert_eq!(format!("{out:?}"), format!("{full_out:?}"));
        assert_eq!(
            events_jsonl(rec.events()),
            full_jsonl,
            "checkpointing perturbed the event stream"
        );
    }

    let snap = &snaps[snaps.len() / 2];
    let mut ctl = RunControl::new(ident);
    ctl.resume = Some(snap.clone());
    let (out, rec) = s
        .try_simulate_traced_controlled(load, &mut ctl)
        .expect("resumed traced run");
    assert_eq!(format!("{out:?}"), format!("{full_out:?}"));
    let resumed_jsonl = events_jsonl(rec.events());
    assert!(
        !resumed_jsonl.is_empty(),
        "nothing happened after cycle {}",
        snap.cycle()
    );
    assert!(
        full_jsonl.ends_with(&resumed_jsonl),
        "resumed JSONL is not a byte-identical suffix of the full stream\n\
         full tail:    {:?}\nresumed head: {:?}",
        &full_jsonl[full_jsonl.len().saturating_sub(200)..],
        &resumed_jsonl[..resumed_jsonl.len().min(200)]
    );
}

#[test]
fn snapshots_carry_measurement_progress() {
    let s = named("cube-duato-tiny").unwrap().with_run_length(short());
    let snaps = assert_resumes_identically(&s, 0.3, 130, 1);
    // warmup 200, 10 batches of 100: cycle 130 is pre-warm-up, the
    // last snapshot (cycle 1170) has nine batches behind it.
    let first = &snaps[0];
    assert_eq!(first.cycle(), 130);
    assert!(!first.past_warmup());
    assert_eq!(first.batches_recorded(), 0);
    let last = snaps.last().unwrap();
    assert!(last.past_warmup());
    assert!(last.batches_recorded() >= 8);
    // The hash covers engine state, so distinct cycles hash apart.
    assert_ne!(first.state_hash(), last.state_hash());
}

// ---------------------------------------------------------------------
// Digest sensitivity: the cache key must move when any semantic axis
// moves, and must NOT move on execution details (shards).
// ---------------------------------------------------------------------

#[test]
fn state_ident_tracks_every_semantic_axis_and_ignores_sharding() {
    let base = named("cube-duato-tiny").unwrap().with_run_length(short());
    let ident = base.state_ident(0.4);

    // Execution details: sharding never changes results, so it is not
    // part of the scenario — a checkpoint taken serially resumes, under
    // the same identity, in four shards.
    let mut snaps: Vec<RunSnapshot> = Vec::new();
    let mut sink = |snap: &RunSnapshot| snaps.push(snap.clone());
    let mut ctl = control(&base, 0.4, 1);
    ctl.checkpoint_every = Some(500);
    ctl.on_checkpoint = Some(&mut sink);
    let serial = base.try_simulate_controlled(0.4, &mut ctl).unwrap();
    let mut ctl = control(&base, 0.4, 4);
    ctl.resume = Some(snaps[0].clone());
    assert_eq!(ctl.ident, ident);
    let sharded = base.try_simulate_controlled(0.4, &mut ctl).unwrap();
    assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));

    // Semantic axes: each variation must produce a fresh identity.
    let variants: Vec<(&str, u64)> = vec![
        ("load", base.state_ident(0.45)),
        (
            "pattern",
            base.with_pairs(&[("pattern", "transpose")])
                .unwrap()
                .state_ident(0.4),
        ),
        (
            "run length",
            base.clone()
                .with_run_length(RunLength {
                    warmup: 200,
                    total: 1300,
                })
                .state_ident(0.4),
        ),
        (
            "seed",
            base.clone().with_seed(SeedMode::Fixed(99)).state_ident(0.4),
        ),
        (
            "faults",
            base.with_pairs(&[("faults", "links=0.05,seed=3")])
                .unwrap()
                .state_ident(0.4),
        ),
        (
            "telemetry",
            base.clone()
                .with_telemetry(TelemetryConfig {
                    stride: 50,
                    record_events: true,
                })
                .state_ident(0.4),
        ),
        ("scenario", named("tree-2vc-tiny").unwrap().state_ident(0.4)),
    ];
    for (axis, v) in &variants {
        assert_ne!(*v, ident, "changing the {axis} axis kept the identity");
    }
    // And the axes are pairwise distinct too (no accidental collisions
    // among this family of near-identical configurations).
    for i in 0..variants.len() {
        for j in i + 1..variants.len() {
            assert_ne!(
                variants[i].1, variants[j].1,
                "{} and {} collided",
                variants[i].0, variants[j].0
            );
        }
    }
}

#[test]
fn key_digest_separates_schema_label_and_value() {
    // The digest must not be concatenation-ambiguous: moving a byte
    // across the label/value boundary changes the key.
    let a = KeyDigest::new("s/1").push("ab", "c").finish();
    let b = KeyDigest::new("s/1").push("a", "bc").finish();
    assert_ne!(a, b);
    // Schema versioning alone re-keys everything.
    let c = KeyDigest::new("s/2").push("ab", "c").finish();
    assert_ne!(a, c);
}

// ---------------------------------------------------------------------
// The on-disk result cache: byte-identical replay, corruption surfaced
// as a structured error (never a silent recompute).
// ---------------------------------------------------------------------

#[test]
fn cache_replays_stored_artifacts_byte_identically() {
    let dir = tempdir("cache-roundtrip");
    let cache = ResultCache::open(&dir);
    let artifacts = vec![
        ("row.tsv".to_string(), b"0.4\t0.397\t42\n".to_vec()),
        ("summary.txt".to_string(), b"load 0.40: ...\n".to_vec()),
    ];
    cache.store(0xfeed, &artifacts).expect("store");
    let entry = cache.lookup(0xfeed).expect("lookup").expect("hit");
    assert_eq!(entry.artifact("row.tsv"), Some(&artifacts[0].1[..]));
    assert_eq!(entry.artifact("summary.txt"), Some(&artifacts[1].1[..]));
    assert_eq!(entry.artifact("absent"), None);
    assert!(cache.lookup(0xbeef).expect("clean miss").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_cache_entries_error_instead_of_recomputing() {
    let dir = tempdir("cache-corrupt");
    let cache = ResultCache::open(&dir);
    cache
        .store(0x1234, &[("row.tsv".to_string(), b"a\tb\n".to_vec())])
        .expect("store");
    // Truncate the artifact behind the cache's back.
    let victim = cache.entry_dir(0x1234).join("row.tsv");
    std::fs::write(&victim, b"a").unwrap();
    let err = cache.lookup(0x1234).expect_err("must surface corruption");
    let msg = err.to_string();
    assert!(
        msg.contains("row.tsv") && !msg.contains('\n'),
        "want a one-line error naming the artifact, got: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("netperf-serving-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------
// CLI goldens, driven through the real binary: checkpoint/resume and
// cold/warm cache runs must produce byte-identical CSV artifacts, and
// a warm sweep must be all hits.
// ---------------------------------------------------------------------

fn netperf(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_netperf"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn netperf")
}

#[test]
fn cli_checkpoint_resume_reproduces_byte_identical_csv() {
    let dir = tempdir("cli-resume");
    let base = netperf(
        &dir,
        &[
            "run",
            "cube-duato-tiny",
            "--load",
            "0.4",
            "--quick",
            "--csv",
            "out.csv",
        ],
    );
    assert!(base.status.success(), "{base:?}");
    let golden = std::fs::read(dir.join("out.csv")).unwrap();

    let ck = netperf(
        &dir,
        &[
            "run",
            "cube-duato-tiny",
            "--load",
            "0.4",
            "--quick",
            "--checkpoint-every",
            "700",
            "--snapshot",
            "ck.bin",
            "--csv",
            "out.csv",
        ],
    );
    assert!(ck.status.success(), "{ck:?}");
    assert_eq!(std::fs::read(dir.join("out.csv")).unwrap(), golden);

    let resumed = netperf(
        &dir,
        &[
            "run",
            "cube-duato-tiny",
            "--load",
            "0.4",
            "--quick",
            "--resume",
            "ck.bin",
            "--csv",
            "out.csv",
        ],
    );
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        std::fs::read(dir.join("out.csv")).unwrap(),
        golden,
        "resumed CSV differs from the uninterrupted run"
    );

    // A flipped byte in the checkpoint is a one-line exit-2 error.
    let mut bytes = std::fs::read(dir.join("ck.bin")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(dir.join("bad.bin"), &bytes).unwrap();
    let bad = netperf(
        &dir,
        &[
            "run",
            "cube-duato-tiny",
            "--load",
            "0.4",
            "--quick",
            "--resume",
            "bad.bin",
        ],
    );
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.starts_with("error: ") && stderr.trim_end().lines().count() == 1,
        "want one error line, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parent_written_checkpoint_resumes_to_the_committed_csv() {
    // A checkpoint written by an older build (see tests/data/README.md):
    // same bytes on disk, so it still decodes to the pinned state, and
    // resumed under its own ident it finishes the run bit for bit. Its
    // ident is the old hand-listed digest, which the derived
    // `netperf-run-snapshot/2` ident no longer matches: the CLI refuses
    // it instead of guessing.
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let fixture = data.join("cube-duato-tiny.l040.c2000.npck");
    let snap = RunSnapshot::from_bytes(&std::fs::read(&fixture).unwrap()).expect("fixture decodes");
    let s = named("cube-duato-tiny")
        .unwrap()
        .with_run_length(RunLength {
            warmup: 1000,
            total: 3000,
        });
    assert_eq!(
        (snap.cycle(), snap.state_hash()),
        (2000, 0xf30b_052d_e339_dc2e)
    );
    assert_ne!(snap.ident(), s.state_ident(0.4));
    let straight = s
        .try_simulate_controlled(0.4, &mut RunControl::new(s.state_ident(0.4)))
        .unwrap();
    let mut ctl = RunControl::new(snap.ident());
    ctl.resume = Some(snap);
    let resumed = s.try_simulate_controlled(0.4, &mut ctl).unwrap();
    assert_eq!(format!("{resumed:?}"), format!("{straight:?}"));

    let dir = tempdir("fixture-resume");
    let args = [
        "run",
        "cube-duato-tiny",
        "--load",
        "0.4",
        "--cycles",
        "3000",
        "--warmup",
        "1000",
    ];
    let straight = netperf(&dir, &[&args[..], &["--csv", "straight.csv"]].concat());
    assert!(straight.status.success(), "{straight:?}");
    let golden = std::fs::read(data.join("cube-duato-tiny.l040.csv")).unwrap();
    assert_eq!(std::fs::read(dir.join("straight.csv")).unwrap(), golden);
    let resumed = netperf(
        &dir,
        &[&args[..], &["--resume", fixture.to_str().unwrap()]].concat(),
    );
    assert_eq!(resumed.status.code(), Some(2), "{resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(
        lines.len() == 1 && lines[0].starts_with("error: ") && lines[0].contains("ident"),
        "want one ident mismatch line, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_cache_keeps_on_off_means_apart() {
    // Two bursty sources that differ only in their mean on/off times
    // are different experiments: the second must miss, and its cached
    // row must equal an uncached run's.
    let dir = tempdir("cli-onoff");
    let run = |injection: &str, cache: bool, csv: &str| {
        let mut args = vec![
            "run",
            "--topology",
            "cube",
            "--k",
            "4",
            "--n",
            "2",
            "--algo",
            "duato",
            "--load",
            "0.3",
            "--cycles",
            "3000",
            "--warmup",
            "500",
            "--injection",
            injection,
            "--csv",
            csv,
        ];
        if cache {
            args.extend(["--cache", "store"]);
        }
        let out = netperf(&dir, &args);
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    assert!(run("onoff:4:4", true, "a.csv").contains("cache: 0 hits, 1 misses"));
    let second = run("onoff:200:200", true, "b.csv");
    assert!(second.contains("cache: 0 hits, 1 misses"), "{second}");
    run("onoff:200:200", false, "c.csv");
    let read = |f: &str| std::fs::read(dir.join(f)).unwrap();
    assert_eq!(read("b.csv"), read("c.csv"));
    assert_ne!(read("a.csv"), read("b.csv"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_warm_cache_sweep_is_all_hits_and_byte_identical() {
    let dir = tempdir("cli-cache");
    let sweep_args = [
        "sweep",
        "cube-duato-tiny",
        "--quick",
        "--grid",
        "0.2:0.6:0.2",
        "--cache",
        "store",
        "--csv",
        "out.csv",
    ];
    let cold = netperf(&dir, &sweep_args);
    assert!(cold.status.success(), "{cold:?}");
    let golden_csv = std::fs::read(dir.join("out.csv")).unwrap();
    let cold_stdout = String::from_utf8_lossy(&cold.stdout).to_string();
    assert!(
        cold_stdout.contains("cache: 0 hits, 3 misses"),
        "{cold_stdout}"
    );

    let warm = netperf(&dir, &sweep_args);
    assert!(warm.status.success(), "{warm:?}");
    let warm_stdout = String::from_utf8_lossy(&warm.stdout).to_string();
    assert!(
        warm_stdout.contains("cache: 3 hits, 0 misses"),
        "warm run was not all hits: {warm_stdout}"
    );
    assert_eq!(
        std::fs::read(dir.join("out.csv")).unwrap(),
        golden_csv,
        "warm CSV differs from cold"
    );
    // Every result line (everything but the cache summary) matches.
    let rows = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("load "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(rows(&cold_stdout), rows(&warm_stdout));

    // The manifests agree on everything but wall clock and hit/miss
    // counts (the only honest differences between cold and warm).
    let manifest = |s: &[u8]| {
        String::from_utf8_lossy(s)
            .lines()
            .filter(|l| {
                !l.contains("wall_clock_secs")
                    && !l.contains("\"hits\"")
                    && !l.contains("\"misses\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    // Re-read: the second run overwrote the manifest in place.
    let warm_manifest = std::fs::read(dir.join("out.manifest.json")).unwrap();
    let cold2 = netperf(
        &dir,
        &[
            "sweep",
            "cube-duato-tiny",
            "--quick",
            "--grid",
            "0.2:0.6:0.2",
            "--cache",
            "store2",
            "--csv",
            "out.csv",
        ],
    );
    assert!(cold2.status.success());
    let cold_manifest = std::fs::read(dir.join("out.manifest.json")).unwrap();
    assert_eq!(manifest(&cold_manifest), manifest(&warm_manifest));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Property: resume at a random cycle of a random scenario is invisible.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn resume_at_a_random_cycle_is_invisible(
        which in 0usize..4,
        load_pct in 20u32..70,
        every in 90u32..400,
        shards in 1usize..5,
        faulted in any::<bool>(),
    ) {
        let load = load_pct as f64 / 100.0;
        let name = ["cube-duato-tiny", "tree-2vc-tiny", "cube-det", "tree-1vc"][which];
        let mut s = named(name).unwrap().with_run_length(short());
        if faulted {
            s = s.with_pairs(&[("faults", "links=0.04,seed=5")]).unwrap();
        }
        assert_resumes_identically(&s, load, every, shards);
    }
}
