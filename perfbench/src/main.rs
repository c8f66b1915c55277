//! End-to-end benchmark for the consumer grid.
//!
//! ```text
//! consumer-grid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one deterministic *round* (build a world, load it,
//! run it, check the outputs) repeated with the same seed until
//! `--seconds` of wall time have passed; host-time metrics are medians
//! over the rounds, and every round must reproduce the first round's
//! simulated outcome exactly. With `--trace 1` the benchmark runs one
//! untraced and one traced round and prints per-layer metrics instead.
//! The last line of stdout is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod alloc;
mod backlog;
mod check;
mod exec;
mod host;
mod overlay;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Every end-to-end metric, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("submit_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("msgs_per_op", "count"),
];

/// `p2p::Message` variants plus the local lookup timer.
pub const P2P_KINDS: [&str; 12] = [
    "Query",
    "QueryHit",
    "Publish",
    "PipeData",
    "OrchDelta",
    "OrchSync",
    "FindNode",
    "FindNodeReply",
    "FindValue",
    "FindValueReply",
    "StoreProvider",
    "LookupTimeout",
];

/// `GridEvent` variants the farm scheduler handles (overlay traffic goes
/// to `p2p`).
pub const FARM_KINDS: [&str; 16] = [
    "WorkerUp",
    "WorkerDown",
    "InputArrived",
    "ModuleArrived",
    "ComputeDone",
    "OutputArrived",
    "ChunkArrives",
    "SwarmProvidersDue",
    "SwarmChunkArrived",
    "StageComputeDone",
    "EmitToken",
    "StragglerCheck",
    "SpecInputArrived",
    "SpecComputeDone",
    "SpecOutputArrived",
    "OrchTick",
];

/// Per-layer metrics that are not per-kind, with units. The UDP-only
/// `transport.idle_rounds` and `transport.rcvbuf_drops` are printed by
/// `farm_exec_udp` alone (see README).
const PER_LAYER: [(&str, &str); 32] = [
    ("netsim.events", "count"),
    ("netsim.step_ns_per_event", "ns"),
    ("p2p.events_per_publish", "count"),
    ("p2p.events_per_lookup", "count"),
    ("p2p.publish_call_ns", "ns"),
    ("p2p.query_call_ns", "ns"),
    ("p2p.allocs_per_event", "count"),
    ("overlay.bootstrap_s", "s"),
    ("overlay.hops_mean", "count"),
    ("overlay.hops_max", "count"),
    ("overlay.lookup_timeouts", "count"),
    ("farm.submit_ns_per_job", "ns"),
    ("farm.restarts", "count"),
    ("farm.cache_hits", "count"),
    ("farm.cache_misses", "count"),
    ("farm.allocs_per_submit", "count"),
    ("transport.orch_pump_ns_per_job", "ns"),
    ("transport.worker_pump_ns_per_job", "ns"),
    ("transport.frames_per_job", "count"),
    ("transport.retransmits_per_job", "count"),
    ("transport.acks_per_job", "count"),
    ("tvm.instructions_per_job", "count"),
    ("tvm.batch_runs", "count"),
    ("host.cpu_s", "s"),
    ("host.runqueue_wait_s", "s"),
    ("host.steal_s", "s"),
    ("host.calib_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.call_overhead_ns", "ns"),
    ("trace.coverage.setup", "ratio"),
    ("trace.coverage.load", "ratio"),
    ("trace.coverage.run", "ratio"),
];

/// One round of a workload: its phase timings (host seconds), what it
/// did, and what it found wrong.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Building the world, once per sample (see [`set_up`]).
    pub setup_s: Vec<f64>,
    /// Loading it: publishes, or job submission / dispatch.
    pub load_s: f64,
    /// The time base of `ops_per_s`.
    pub ops_s: f64,
    /// Wall time of every phase together.
    pub wall_s: f64,
    /// Publishes or submitted jobs.
    pub loads: u64,
    /// Lookups or jobs: the operations `attempted` counts.
    pub ops: u64,
    /// Operations that never finished.
    pub missing: u64,
    /// Operations that finished with a wrong result.
    pub wrong: u64,
    /// Per-operation latency, ms: simulated, except over UDP.
    pub latencies_ms: Vec<f64>,
    /// Messages (or frames) the operations cost, in total.
    pub msgs: u64,
    /// Fingerprint of the simulated outcome; equal for equal seeds.
    pub digest: u64,
    /// Per-layer numbers only the workload knows (events, counters).
    pub layer: Vec<(&'static str, f64)>,
}

type Workload = fn(u64, &mut Tracer) -> Round;

/// A fresh metrics observer for one round: enabled only when tracing, so
/// the untraced run pays nothing for it.
pub fn observer(tr: &Tracer) -> obs::Obs {
    if tr.is_on() {
        obs::Obs::enabled()
    } else {
        obs::Obs::disabled()
    }
}

/// Print the round's `obs` snapshot (traced runs only) to stderr.
pub fn print_obs(observer: &obs::Obs) {
    if let Some(snapshot) = observer.snapshot_json() {
        eprintln!("obs {snapshot}");
    }
}

/// Build a workload's world `times` times and keep the last build; returns
/// it with the wall time of every build. `input(last)` makes each build's
/// inputs outside the timed phase. Set-up on the farms takes well under a
/// millisecond, so one sample per round would be mostly noise.
pub fn set_up<I, W>(
    tr: &mut Tracer,
    times: usize,
    mut input: impl FnMut(bool) -> I,
    mut build: impl FnMut(&mut Tracer, I) -> W,
) -> (W, Vec<f64>) {
    let mut samples = Vec::with_capacity(times);
    let mut kept = None;
    for k in 0..times {
        let inp = input(k + 1 == times);
        drop(kept.take());
        let phase = tr.begin();
        let w = build(tr, inp);
        samples.push(tr.end(phase, "setup"));
        kept = Some(w);
    }
    (kept.expect("at least one set-up"), samples)
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "overlay_lookup" => overlay::round,
        "farm_backlog" => backlog::round,
        "farm_exec_sim" => exec::sim_round,
        "farm_exec_udp" => exec::udp_round,
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// Every round builds a world of its own, seeded from the run's seed and
/// the round's index, so host-time metrics average over many worlds
/// rather than one layout's quirks. Simulated metrics pool the first
/// `WORLDS` rounds, which every run completes, so they do not depend on
/// how fast the host is.
const WORLDS: usize = 5;

/// The seed of round `r` of a run.
fn world_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(r as u64)
}

fn end_to_end(rounds: &[Round], peak_rss_mib: f64) -> BTreeMap<&'static str, f64> {
    let worlds = &rounds[..WORLDS.min(rounds.len())];
    let pooled: Vec<f64> = worlds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let mut m = BTreeMap::new();
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    m.insert("setup_s", stats::median(&setups));
    let total = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    m.insert(
        "submit_per_s",
        total(|r| r.loads as f64) / total(|r| r.load_s),
    );
    m.insert("ops_per_s", total(|r| r.ops as f64) / total(|r| r.ops_s));
    m.insert("peak_rss_mib", peak_rss_mib);
    m.insert("op_p50_ms", stats::quantile(&pooled, 0.5));
    m.insert("op_p99_ms", stats::quantile(&pooled, 0.99));
    let (msgs, ops) = worlds
        .iter()
        .fold((0, 0), |(m, o), r| (m + r.msgs, o + r.ops));
    m.insert("msgs_per_op", msgs as f64 / ops as f64);
    m
}

fn per_layer(
    round: &Round,
    untraced_wall_s: f64,
    tracer: &Tracer,
    host: host::HostRecord,
    call_overhead_ns: f64,
) -> BTreeMap<String, f64> {
    let per_call = |s: trace::Span| {
        if s.calls == 0 {
            0.0
        } else {
            s.ns as f64 / s.calls as f64
        }
    };
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        m.insert(name.to_string(), 0.0);
    }
    for kind in P2P_KINDS {
        let s = tracer.span(&format!("p2p.handle.{kind}"));
        m.insert(format!("p2p.handle_ns_per_event.{kind}"), per_call(s));
    }
    for kind in FARM_KINDS {
        let s = tracer.span(&format!("farm.handle.{kind}"));
        m.insert(format!("farm.handle_ns_per_event.{kind}"), per_call(s));
    }
    let handled = tracer.sum("p2p.handle.");
    if handled.calls > 0 {
        m.insert(
            "p2p.allocs_per_event".into(),
            handled.allocs as f64 / handled.calls as f64,
        );
    }
    m.insert(
        "p2p.publish_call_ns".into(),
        per_call(tracer.span("p2p.publish")),
    );
    m.insert(
        "p2p.query_call_ns".into(),
        per_call(tracer.span("p2p.query")),
    );
    m.insert(
        "overlay.bootstrap_s".into(),
        tracer.span("p2p.enable_routed").ns as f64 * 1e-9,
    );
    let submit = tracer.span("farm.submit");
    m.insert("farm.submit_ns_per_job".into(), per_call(submit));
    if submit.calls > 0 {
        m.insert(
            "farm.allocs_per_submit".into(),
            submit.allocs as f64 / submit.calls as f64,
        );
    }
    let jobs = round.ops.max(1) as f64;
    for (span, name) in [
        ("transport.orch_pump", "transport.orch_pump_ns_per_job"),
        ("transport.worker_pump", "transport.worker_pump_ns_per_job"),
    ] {
        let s = tracer.span(span);
        if s.calls > 0 {
            m.insert(name.into(), s.ns as f64 / jobs);
        }
    }
    // Time inside the simulator itself: direct `step` calls, plus
    // `run`/`run_until` spans minus the handler calls nested in them and
    // what timing those handlers added.
    let direct = tracer.sum("netsim.step");
    let runs = tracer.sum("netsim.run");
    let nested = tracer.sum("p2p.handle.");
    let events = round
        .layer
        .iter()
        .find(|(k, _)| *k == "netsim.events")
        .map_or(0.0, |(_, v)| *v);
    if events > 0.0 {
        let self_ns = direct.ns as f64 + runs.ns as f64
            - if runs.calls > 0 {
                nested.ns as f64 + nested.calls as f64 * call_overhead_ns
            } else {
                0.0
            };
        m.insert("netsim.step_ns_per_event".into(), self_ns / events);
    }
    for (k, v) in &round.layer {
        m.insert(k.to_string(), *v);
    }
    m.insert("host.cpu_s".into(), host.cpu_s);
    m.insert("host.runqueue_wait_s".into(), host.runqueue_wait_s);
    m.insert("host.steal_s".into(), host.steal_s);
    m.insert("host.calib_ms".into(), host.calib_ms);
    m.insert("trace.overhead".into(), round.wall_s / untraced_wall_s);
    m.insert("trace.call_overhead_ns".into(), call_overhead_ns);
    for (phase, cover) in tracer.phases() {
        m.insert(
            format!("trace.coverage.{phase}"),
            cover.covered_ns as f64 / cover.wall_ns.max(1) as f64,
        );
    }
    m
}

fn per_layer_units() -> BTreeMap<String, &'static str> {
    let mut u: BTreeMap<String, &'static str> =
        PER_LAYER.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    for kind in P2P_KINDS {
        u.insert(format!("p2p.handle_ns_per_event.{kind}"), "ns");
    }
    for kind in FARM_KINDS {
        u.insert(format!("farm.handle_ns_per_event.{kind}"), "ns");
    }
    u
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && metrics.iter().all(|(_, v, _)| v.is_finite()),
        body.join(", ")
    );
}

/// Whether every round's results are right.
fn all_correct(rounds: &[Round]) -> bool {
    rounds.iter().all(|r| r.wrong == 0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let Some(run) = workload(&args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let calib_ms = host::calibrate();
    let snap0 = host::HostSnap::take();
    let started = Instant::now();
    if !args.trace {
        let mut tracer = Tracer::new(false);
        let mut rounds = Vec::new();
        let mut peak_rss_mib = f64::NAN;
        loop {
            rounds.push(run(world_seed(args.seed, rounds.len()), &mut tracer));
            // Peak RSS over the same fixed rounds as the simulated metrics,
            // so a faster host (more rounds) does not read a higher peak.
            if rounds.len() == WORLDS {
                peak_rss_mib = host::peak_rss_mib();
            }
            if rounds.len() >= WORLDS && started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let record = host::HostRecord::between(snap0, host::HostSnap::take(), calib_ms);
        let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
        let failed: u64 = rounds.iter().map(|r| r.missing).sum();
        let m = end_to_end(&rounds, peak_rss_mib);
        for (k, v) in &m {
            eprintln!("{:>14} {v:.4}", k);
        }
        eprintln!("rounds: {}", rounds.len());
        for r in &rounds {
            eprintln!(
                "round missing {} load_s {:.4} ops_s {:.4} ops/s {:.1} p50_ms {} msgs {}",
                r.missing,
                r.load_s,
                r.ops_s,
                r.ops as f64 / r.ops_s,
                stats::median(&r.latencies_ms),
                r.msgs
            );
        }
        println!("host {}", record.to_json());
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .map(|(k, u)| (k.to_string(), m[k], *u))
            .collect();
        print_result(all_correct(&rounds), attempted, failed, &metrics);
    } else {
        let call_overhead_ns = Tracer::call_overhead_ns();
        let world = world_seed(args.seed, 0);
        let plain = run(world, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = run(world, &mut tracer);
        let record = host::HostRecord::between(snap0, host::HostSnap::take(), calib_ms);
        let attempted = plain.ops + traced.ops;
        let failed = plain.missing + traced.missing;
        let m = per_layer(&traced, plain.wall_s, &tracer, record, call_overhead_ns);
        for (name, s) in tracer.spans() {
            eprintln!(
                "span {name:<34} calls {:>10} ns {:>14} allocs {:>10}",
                s.calls, s.ns, s.allocs
            );
        }
        for (name, p) in tracer.phases() {
            eprintln!(
                "phase {name:<8} wall_ns {:>14} covered_ns {:>14}",
                p.wall_ns, p.covered_ns
            );
        }
        println!("host {}", record.to_json());
        let units = per_layer_units();
        let metrics: Vec<(String, f64, &str)> = m
            .into_iter()
            .map(|(k, v)| {
                let u = units.get(&k).copied().unwrap_or("count");
                (k, v, u)
            })
            .collect();
        // Both rounds run the same world, and a seeded world must replay
        // exactly, traced or not.
        let correct = plain.wrong == 0 && traced.wrong == 0 && plain.digest == traced.digest;
        print_result(correct, attempted, failed, &metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let mut printed: Vec<String> = per_layer_units().into_keys().collect();
        let mut json = listed("per_layer");
        printed.sort();
        json.sort();
        assert_eq!(json, printed);
    }

    #[test]
    fn benchmark_json_lists_runnable_workloads() {
        for w in listed("workloads") {
            assert!(workload(&w).is_some(), "{w}");
        }
    }
}
