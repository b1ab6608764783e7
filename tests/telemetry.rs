//! Integration tests for the telemetry plane: determinism of traced
//! runs, the latency-decomposition identity on real simulations, and
//! the shape of the JSONL / Chrome-trace exports.

use netperf::prelude::*;
use netperf::telemetry::trace;

fn traced_scenario(name: &str) -> Scenario {
    named(name)
        .unwrap()
        .with_run_length(RunLength::quick())
        .with_telemetry(TelemetryConfig::default())
}

#[test]
fn traced_runs_are_deterministic() {
    // Two traced runs of the same scenario and seed must produce the
    // exact same event stream, packet table and utilization samples —
    // the trace is a pure function of (scenario, load).
    let s = traced_scenario("cube-duato-tiny");
    let (out_a, rec_a) = s.try_simulate_traced(0.5).unwrap();
    let (out_b, rec_b) = s.try_simulate_traced(0.5).unwrap();
    assert_eq!(out_a.created_packets, out_b.created_packets);
    assert_eq!(out_a.delivered_packets, out_b.delivered_packets);
    assert_eq!(
        out_a.accepted_fraction.to_bits(),
        out_b.accepted_fraction.to_bits()
    );
    assert_eq!(rec_a.events(), rec_b.events(), "event streams diverged");
    assert_eq!(rec_a.packet_traces(), rec_b.packet_traces());
    assert_eq!(rec_a.samples(), rec_b.samples());
    assert_eq!(
        trace::events_jsonl(rec_a.events()),
        trace::events_jsonl(rec_b.events())
    );
    assert_eq!(trace::chrome_trace(&rec_a), trace::chrome_trace(&rec_b));
}

#[test]
fn latency_components_sum_to_total_on_real_runs() {
    for name in ["cube-duato-tiny", "tree-2vc-tiny"] {
        for load in [0.2, 0.8] {
            let (_, rec) = traced_scenario(name).try_simulate_traced(load).unwrap();
            let breakdowns = rec.breakdowns();
            assert!(!breakdowns.is_empty(), "{name} @ {load}: no packets");
            for b in &breakdowns {
                assert_eq!(
                    b.src_queue + b.routing + b.blocked + b.transfer,
                    b.total(),
                    "{name} @ {load}: packet {} components do not sum",
                    b.packet
                );
                assert_eq!(b.routing + b.blocked + b.transfer, b.network());
                assert_eq!(b.transfer, 2 * b.hops as u32 + b.flits as u32);
            }
            let sum = rec.breakdown_summary().unwrap();
            assert_eq!(sum.packets, breakdowns.len() as u64);
            let mean_parts =
                sum.mean_src_queue + sum.mean_routing + sum.mean_blocked + sum.mean_transfer;
            assert!(
                (mean_parts - sum.mean_total).abs() < 1e-6,
                "{name} @ {load}: mean components do not sum"
            );
        }
    }
}

#[test]
fn jsonl_export_is_one_valid_object_per_event() {
    let (_, rec) = traced_scenario("cube-duato-tiny")
        .try_simulate_traced(0.4)
        .unwrap();
    let jsonl = trace::events_jsonl(rec.events());
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), rec.events().len());
    let mut kinds = std::collections::BTreeSet::new();
    for line in &lines {
        assert!(line.starts_with("{\"cycle\":"), "bad line {line}");
        assert!(line.ends_with('}'), "bad line {line}");
        let ev = line
            .split("\"ev\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("no ev field in {line}"));
        kinds.insert(ev.to_string());
    }
    // A saturating-enough run exercises every lifecycle stage.
    for kind in ["created", "injected", "routed", "blocked", "delivered"] {
        assert!(kinds.contains(kind), "no {kind} events in the stream");
    }
}

#[test]
fn chrome_trace_has_the_expected_envelope() {
    let (_, rec) = traced_scenario("tree-2vc-tiny")
        .try_simulate_traced(0.6)
        .unwrap();
    let json = trace::chrome_trace(&rec);
    assert!(json.starts_with("{\"traceEvents\":[\n"));
    assert!(json.ends_with("\n],\"displayTimeUnit\":\"ms\"}\n"));
    assert!(json.contains("\"ph\":\"M\""), "missing metadata events");
    assert!(json.contains("\"ph\":\"X\""), "missing duration events");
    assert!(json.contains("\"name\":\"queued\""));
    // Every duration event carries a ts and dur (microsecond = cycle).
    let durations = json.matches("\"ph\":\"X\"").count();
    assert_eq!(durations, 2 * rec.breakdowns().len());
}

#[test]
fn utilization_sampling_respects_the_stride() {
    let s = named("cube-duato-tiny")
        .unwrap()
        .with_run_length(RunLength::quick())
        .with_telemetry(TelemetryConfig {
            stride: 250,
            record_events: false,
        });
    let (_, rec) = s.try_simulate_traced(0.5).unwrap();
    assert!(rec.events().is_empty(), "events recorded despite opt-out");
    assert_eq!(rec.samples().len(), rec.cycles() as usize / 250);
    for (i, sample) in rec.samples().iter().enumerate() {
        assert_eq!(sample.end_cycle, (i as u32 + 1) * 250);
        // A window can never hold more busy cycles than its stride.
        assert!(sample.out.iter().all(|&c| c <= 250));
        assert!(sample.inj.iter().all(|&c| c <= 250));
    }
    // The per-channel series are monotone in x and bounded by 1.
    let (r, p, _) = rec.busiest_channels(1)[0];
    let series = rec.channel_series(r, p);
    assert!(!series.points.is_empty());
    assert!(series.max_y().unwrap() <= 1.0 + 1e-9);
}

#[test]
fn streamed_artifacts_equal_the_string_exports() {
    // `netperf run --trace` streams its four artifacts through a
    // bounded buffer; each must be byte-for-byte what the in-memory
    // exporters render for the same (deterministic) recording.
    use netperf::netsim::request::Op;
    let dir = std::env::temp_dir().join(format!("netperf-streamed-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stem = dir.join("t").to_string_lossy().into_owned();
    let pairs = [("quick", "true"), ("load", "0.5"), ("trace", stem.as_str())]
        .map(|(k, v)| (k.to_string(), v.to_string()));
    let req = RunRequest::from_pairs(Op::Run, Some("cube-duato-tiny"), &pairs).unwrap();
    let written = execute(&req).unwrap().written;

    let s = traced_scenario("cube-duato-tiny").with_telemetry(TelemetryConfig {
        stride: 100,
        record_events: true,
    });
    let (_, rec) = s.try_simulate_traced(0.5).unwrap();
    let expected = [
        (".trace.jsonl", trace::events_jsonl(rec.events())),
        (".trace.json", trace::chrome_trace(&rec)),
        (".breakdown.csv", rec.breakdown_table().to_csv()),
        (".util.csv", rec.utilization_series_table(8).to_csv()),
    ];
    for (suffix, want) in expected {
        let path = format!("{stem}{suffix}");
        assert!(written.contains(&path), "{path} not reported as written");
        assert!(want.len() > 100, "{suffix}: nothing to compare");
        let got = std::fs::read(&path).unwrap();
        assert!(got == want.as_bytes(), "{suffix}: streamed bytes differ");
    }
    std::fs::remove_dir_all(&dir).ok();
}
