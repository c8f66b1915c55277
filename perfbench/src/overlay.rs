//! `overlay_lookup`: 10⁵ consumer peers in `DiscoveryMode::Routed`, no
//! churn. Set-up adds the hosts and bootstraps the DHT; 5% of peers then
//! publish the `triana` service advert and the queue drains; then
//! `ByService("triana")` lookups from random origins are issued open-loop
//! every 100 ms of simulated time, with `Sim::run_until` advancing the
//! clock between issues.

use crate::check::{self, Lookup};
use crate::trace::Tracer;
use crate::Round;
use netsim::{Duration, HostSpec, Network, Pcg32, Sim, SimTime};
use p2p::advert::{AdvertBody, PeerAdvert};
use p2p::{Advertisement, DiscoveryMode, Message, P2p, P2pEvent, PeerId, QueryKind};
use std::collections::HashSet;

pub const PEERS: usize = 100_000;
pub const PROVIDERS: usize = PEERS / 20;
pub const LOOKUPS: usize = 20_000;
/// 10 lookups per simulated second. At 25/s and 50/s some seeds' worlds
/// already leave lookups unresolved (see README).
const LOOKUP_GAP_MS: u64 = 100;
/// Ignored by routed lookups; the API takes one.
const FLOOD_TTL: u8 = 10;

/// Span name of `P2p::handle` for this event's kind.
pub fn handle_span(ev: &P2pEvent) -> &'static str {
    match ev {
        P2pEvent::Delivered { msg, .. } => match msg {
            Message::Query { .. } => "p2p.handle.Query",
            Message::QueryHit { .. } => "p2p.handle.QueryHit",
            Message::Publish { .. } => "p2p.handle.Publish",
            Message::PipeData { .. } => "p2p.handle.PipeData",
            Message::OrchDelta { .. } => "p2p.handle.OrchDelta",
            Message::OrchSync { .. } => "p2p.handle.OrchSync",
            Message::FindNode { .. } => "p2p.handle.FindNode",
            Message::FindNodeReply { .. } => "p2p.handle.FindNodeReply",
            Message::FindValue { .. } => "p2p.handle.FindValue",
            Message::FindValueReply { .. } => "p2p.handle.FindValueReply",
            Message::StoreProvider { .. } => "p2p.handle.StoreProvider",
        },
        P2pEvent::LookupTimeout { .. } => "p2p.handle.LookupTimeout",
    }
}

/// The Kademlia hop budget `⌈log₂ n⌉ + 2`.
fn hop_budget(n: usize) -> u64 {
    (n as f64).log2().ceil() as u64 + 2
}

/// Everything a round consumes, generated from the seed up front so no
/// phase pays for input generation.
struct Inputs {
    specs: Vec<HostSpec>,
    /// (availability, speed) per peer, as `triana-trust` would report.
    profiles: Vec<(f64, f64)>,
    providers: Vec<u32>,
    adverts: Vec<Advertisement>,
    origins: Vec<PeerId>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Pcg32::new(seed, 15);
    let specs: Vec<HostSpec> = (0..PEERS)
        .map(|_| HostSpec::sample_consumer(&mut rng))
        .collect();
    let profiles = (0..PEERS)
        .map(|_| (rng.range_f64(0.2, 1.0), rng.range_f64(0.4, 1.5)))
        .collect();
    let mut order: Vec<u32> = (0..PEERS as u32).collect();
    rng.shuffle(&mut order);
    order.truncate(PROVIDERS);
    let adverts = order
        .iter()
        .map(|&p| Advertisement {
            body: AdvertBody::Peer(PeerAdvert {
                peer: PeerId(p),
                cpu_ghz: specs[p as usize].cpu_ghz,
                free_ram_mib: specs[p as usize].ram_mib,
                services: vec!["triana".into()],
            }),
            expires: SimTime::from_secs(24 * 3600),
        })
        .collect();
    let origins = (0..LOOKUPS)
        .map(|_| PeerId(rng.below(PEERS as u64) as u32))
        .collect();
    Inputs {
        specs,
        profiles,
        providers: order,
        adverts,
        origins,
    }
}

pub fn round(seed: u64, tr: &mut Tracer) -> Round {
    let inp = inputs(seed);
    let mut boot_rng = Pcg32::new(seed, 16);
    let kind = QueryKind::ByService("triana".into());
    let observer = crate::observer(tr);

    // Set-up: hosts, peers, DHT bootstrap.
    let phase = tr.begin();
    let mut sim: Sim<P2pEvent> = Sim::new(seed);
    let mut net = Network::new();
    let mut p2p = P2p::new(DiscoveryMode::Routed);
    p2p.set_obs(observer.clone());
    for spec in inp.specs {
        let h = tr.time("netsim.add_host", || net.add_host(spec));
        tr.time("p2p.add_peer", || p2p.add_peer(h));
    }
    tr.time("p2p.enable_routed", || {
        p2p.enable_routed(&inp.profiles, &mut boot_rng)
    });
    let setup_s = tr.end(phase, "setup");

    // Load: publish the provider adverts and drain the queue.
    let phase = tr.begin();
    for (&p, ad) in inp.providers.iter().zip(inp.adverts) {
        tr.time("p2p.publish", || {
            p2p.publish(&mut sim, &mut net, PeerId(p), ad)
        });
    }
    let span = tr.start();
    sim.run(|sim, ev| {
        tr.time(handle_span(&ev), || p2p.handle(sim, &mut net, ev));
    });
    tr.stop(span, "netsim.run");
    let load_s = tr.end(phase, "load");
    let publish_events = sim.processed();

    // Run: open-loop lookups on a fixed simulated schedule, then drain.
    let phase = tr.begin();
    let t0 = sim.now();
    let gap = Duration::from_millis(LOOKUP_GAP_MS);
    let mut ids = Vec::with_capacity(LOOKUPS);
    for (i, &origin) in inp.origins.iter().enumerate() {
        let due = t0 + gap * i as u64;
        let span = tr.start();
        sim.run_until(due, |sim, ev| {
            tr.time(handle_span(&ev), || p2p.handle(sim, &mut net, ev));
        });
        tr.stop(span, "netsim.run_until");
        let k = kind.clone();
        ids.push(tr.time("p2p.query", || {
            p2p.query(&mut sim, &mut net, origin, k, FLOOD_TTL)
        }));
    }
    let span = tr.start();
    sim.run(|sim, ev| {
        tr.time(handle_span(&ev), || p2p.handle(sim, &mut net, ev));
    });
    tr.stop(span, "netsim.run");
    let run_s = tr.end(phase, "run");
    let lookup_events = sim.processed() - publish_events;

    // Outcome and checks.
    let mut found = Vec::with_capacity(LOOKUPS);
    let mut latencies_ms = Vec::with_capacity(LOOKUPS);
    let mut msgs = 0u64;
    let mut h = check::Fnv::new();
    for id in &ids {
        let s = &p2p.queries[id];
        let hit_peers: Vec<u32> = s.hits.iter().map(|(_, ad)| ad.peer().0).collect();
        if let Some(lat) = s.first_hit_latency() {
            latencies_ms.push(lat.as_micros() as f64 / 1e3);
            h.u64(lat.as_micros());
        }
        msgs += s.messages;
        h.u64(s.messages);
        h.u64(s.hops);
        h.u64(hit_peers.len() as u64);
        found.push(Lookup {
            hit_peers,
            hops: s.hops,
        });
    }
    h.u64(sim.processed());
    let published: HashSet<u32> = inp.providers.iter().copied().collect();
    let verdict = check::lookups(&found, &published, hop_budget(PEERS), p2p.active_lookups());
    let hops: Vec<f64> = found.iter().map(|l| l.hops as f64).collect();
    crate::print_obs(&observer);
    let timeouts = observer
        .registry()
        .map_or(0, |r| r.counter_value("p2p.lookup_timeouts"));
    Round {
        setup_s: vec![setup_s],
        load_s,
        ops_s: run_s,
        wall_s: setup_s + load_s + run_s,
        loads: PROVIDERS as u64,
        ops: LOOKUPS as u64,
        missing: verdict.missing,
        wrong: verdict.wrong,
        latencies_ms,
        msgs,
        digest: h.finish(),
        layer: vec![
            ("netsim.events", (publish_events + lookup_events) as f64),
            (
                "p2p.events_per_publish",
                publish_events as f64 / PROVIDERS as f64,
            ),
            (
                "p2p.events_per_lookup",
                lookup_events as f64 / LOOKUPS as f64,
            ),
            (
                "overlay.hops_mean",
                hops.iter().sum::<f64>() / LOOKUPS as f64,
            ),
            ("overlay.hops_max", hops.iter().copied().fold(0.0, f64::max)),
            ("overlay.lookup_timeouts", timeouts as f64),
        ],
    }
}
