//! Event-stream exporters: JSONL and Chrome `trace_event` JSON.
//!
//! The JSONL format is one object per line, validated in CI against
//! `scripts/trace.schema.json`; the Chrome format loads directly in
//! `about://tracing` / Perfetto (one duration row per source node,
//! cycle stamps mapped to microseconds).

use crate::record::{Event, FlightRecorder};
use crate::NEVER;
use std::io::{self, Write};

/// Cap on `blocked` instant events emitted into a Chrome trace so a
/// saturated run cannot produce a file the viewer chokes on. The drop
/// count is recorded in a trailing metadata event.
pub const CHROME_MAX_INSTANTS: usize = 100_000;

/// Run a streaming exporter into memory. The exporters emit UTF-8
/// only and writing to a `Vec` cannot fail.
fn rendered(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut buf = Vec::new();
    write(&mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporters emit UTF-8")
}

/// Render one lifecycle event as a single-line JSON object (no
/// trailing newline).
pub fn event_jsonl_line(e: &Event) -> String {
    rendered(|out| write_event_jsonl(e, out))
}

/// Write one lifecycle event as a single-line JSON object (no trailing
/// newline) into `out`.
fn write_event_jsonl(e: &Event, out: &mut impl Write) -> io::Result<()> {
    match *e {
        Event::Created {
            cycle,
            packet,
            src,
            dest,
            flits,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"created\",\"packet\":{packet},\
             \"src\":{src},\"dest\":{dest},\"flits\":{flits}}}"
        ),
        Event::Injected {
            cycle,
            packet,
            node,
            vc,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"injected\",\"packet\":{packet},\
             \"node\":{node},\"vc\":{vc}}}"
        ),
        Event::Routed {
            cycle,
            packet,
            router,
            in_lane,
            out_lane,
            escape,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"routed\",\"packet\":{packet},\
             \"router\":{router},\"in_lane\":{in_lane},\"out_lane\":{out_lane},\
             \"escape\":{escape}}}"
        ),
        Event::Blocked {
            cycle,
            packet,
            router,
            in_lane,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"blocked\",\"packet\":{packet},\
             \"router\":{router},\"in_lane\":{in_lane}}}"
        ),
        Event::Delivered {
            cycle,
            packet,
            node,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"delivered\",\"packet\":{packet},\
             \"node\":{node}}}"
        ),
        Event::Fault {
            cycle,
            router,
            port,
            down,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"fault\",\"router\":{router},\
             \"port\":{port},\"down\":{down}}}"
        ),
        Event::Dropped {
            cycle,
            packet,
            router,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"dropped\",\"packet\":{packet},\
             \"router\":{router}}}"
        ),
        Event::Unroutable {
            cycle,
            packet,
            node,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"unroutable\",\"packet\":{packet},\
             \"node\":{node}}}"
        ),
        Event::Rerouted {
            cycle,
            packet,
            router,
            out_lane,
        } => write!(
            out,
            "{{\"cycle\":{cycle},\"ev\":\"rerouted\",\"packet\":{packet},\
             \"router\":{router},\"out_lane\":{out_lane}}}"
        ),
    }
}

/// Render the whole event stream as JSONL (one event per line,
/// trailing newline; empty string for an empty stream).
pub fn events_jsonl(events: &[Event]) -> String {
    rendered(|out| write_events_jsonl(events, out))
}

/// Stream the whole event stream as JSONL into `out` — the bytes of
/// [`events_jsonl`] without holding them in memory. Hand it a buffered
/// writer: it issues one small write per event.
pub fn write_events_jsonl(events: &[Event], out: &mut impl Write) -> io::Result<()> {
    for e in events {
        write_event_jsonl(e, out)?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Render a recording as Chrome `trace_event` JSON.
///
/// Layout: pid 0 holds one row (tid) per source node with two `"X"`
/// duration events per delivered packet — `queued` (creation to
/// injection) and `p<id> → <dest>` (injection to delivery) — so the
/// viewer shows queueing and network time side by side. When the
/// lifecycle stream was recorded, pid 1 holds per-router `blocked`
/// instants (capped at [`CHROME_MAX_INSTANTS`]). Cycle stamps map to
/// microseconds, the viewer's native unit.
pub fn chrome_trace(rec: &FlightRecorder) -> String {
    rendered(|out| write_chrome_trace(rec, out))
}

/// Stream a recording as Chrome `trace_event` JSON into `out` — the
/// bytes of [`chrome_trace`] without holding them in memory. Hand it a
/// buffered writer: it issues one small write per event.
pub fn write_chrome_trace(rec: &FlightRecorder, out: &mut impl Write) -> io::Result<()> {
    out.write_all(
        b"{\"traceEvents\":[\n\
          {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
          \"args\":{\"name\":\"packets (row = source node)\"}}",
    )?;
    if rec.config().record_events {
        out.write_all(
            b",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
              \"args\":{\"name\":\"routers (blocked headers)\"}}",
        )?;
    }
    for (id, t) in rec.packet_traces().iter().enumerate() {
        if t.injected == NEVER || t.delivered == NEVER {
            continue;
        }
        let b = t.breakdown(id as u32).expect("delivered packet decomposes");
        write!(
            out,
            ",\n{{\"name\":\"queued\",\"cat\":\"queue\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"packet\":{id},\"dest\":{}}}}}",
            t.created, b.src_queue, t.src, t.dest
        )?;
        write!(
            out,
            ",\n{{\"name\":\"p{id} \\u2192 n{}\",\"cat\":\"network\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"packet\":{id},\"dest\":{},\"hops\":{},\"flits\":{},\
             \"blocked_cycles\":{},\"escape_hops\":{}}}}}",
            t.dest,
            t.injected,
            b.network(),
            t.src,
            t.dest,
            t.hops,
            t.flits,
            b.blocked,
            t.escape_hops
        )?;
    }
    let mut instants = 0usize;
    let mut dropped = 0usize;
    for e in rec.events() {
        // Instant rows on pid 1: routing stalls plus the fault plane's
        // lifecycle (outage transitions and packet drops), all subject
        // to the same cap.
        let (name, cat, cycle, router) = match *e {
            Event::Blocked { cycle, router, .. } => ("blocked", "routing", cycle, router),
            Event::Fault {
                cycle,
                router,
                down,
                ..
            } => (
                if down { "fault_down" } else { "fault_up" },
                "fault",
                cycle,
                router,
            ),
            Event::Dropped { cycle, router, .. } => ("packet_dropped", "fault", cycle, router),
            _ => continue,
        };
        if instants >= CHROME_MAX_INSTANTS {
            dropped += 1;
            continue;
        }
        instants += 1;
        write!(
            out,
            ",\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\
             \"s\":\"t\",\"ts\":{cycle},\"pid\":1,\"tid\":{router}}}"
        )?;
    }
    if dropped > 0 {
        write!(
            out,
            ",\n{{\"name\":\"blocked_instants_dropped\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{{\"dropped\":{dropped}}}}}"
        )?;
    }
    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Probe;
    use crate::{Geometry, TelemetryConfig};

    fn tiny_recording() -> FlightRecorder {
        let mut r = FlightRecorder::new(
            TelemetryConfig {
                stride: 10,
                record_events: true,
            },
            Geometry {
                routers: 2,
                ports: 3,
                vcs: 2,
                nodes: 2,
            },
        );
        r.packet_created(0, 0, 0, 1, 4);
        r.packet_injected(2, 0, 0, 0);
        r.header_routed(4, 0, 0, 0, 1, false);
        r.routing_blocked(5, 0, 1, 1);
        r.header_routed(6, 0, 1, 1, 2, true);
        r.packet_delivered(15, 0, 1);
        r.packet_created(3, 1, 1, 0, 4); // never delivered
        r
    }

    #[test]
    fn jsonl_lines_cover_every_event_kind() {
        let r = tiny_recording();
        let jsonl = events_jsonl(r.events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), r.events().len());
        assert_eq!(
            lines[0],
            "{\"cycle\":0,\"ev\":\"created\",\"packet\":0,\"src\":0,\"dest\":1,\"flits\":4}"
        );
        assert_eq!(
            lines[1],
            "{\"cycle\":2,\"ev\":\"injected\",\"packet\":0,\"node\":0,\"vc\":0}"
        );
        assert_eq!(
            lines[2],
            "{\"cycle\":4,\"ev\":\"routed\",\"packet\":0,\"router\":0,\
             \"in_lane\":0,\"out_lane\":1,\"escape\":false}"
        );
        assert_eq!(
            lines[3],
            "{\"cycle\":5,\"ev\":\"blocked\",\"packet\":0,\"router\":1,\"in_lane\":1}"
        );
        assert_eq!(
            lines[5],
            "{\"cycle\":15,\"ev\":\"delivered\",\"packet\":0,\"node\":1}"
        );
        assert!(events_jsonl(&[]).is_empty());
    }

    #[test]
    fn chrome_trace_is_wellformed_and_skips_undelivered() {
        let trace = chrome_trace(&tiny_recording());
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.trim_end().ends_with('}'));
        // Two duration events for the delivered packet, none for the
        // undelivered one, one blocked instant.
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(trace.matches("\"ph\":\"i\"").count(), 1);
        assert_eq!(trace.matches("\"packet\":1").count(), 0);
        // network duration = delivered - injected.
        assert!(trace.contains("\"ts\":2,\"dur\":13"));
        // Balanced braces/brackets — cheap well-formedness proxy used
        // alongside the real JSON parse in scripts/verify.sh.
        let opens = trace.matches('{').count();
        let closes = trace.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    }
}
