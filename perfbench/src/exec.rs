//! `farm_exec_sim` and `farm_exec_udp`: an executed farm of
//! `transport::node` nodes — one `OrchestratorNode` and eight
//! `WorkerNode`s — running E03 SPH-kernel jobs on real input vectors,
//! plus a multi-chunk module so the swarm chunk fetch runs. The sim
//! variant runs over `transport::sim::SimNet`; the UDP variant over one
//! `transport::socket::SocketTransport` per node on loopback. Either way
//! one thread pumps every node round-robin, with no sleeps.

use crate::check::{self, Verdict};
use crate::trace::Tracer;
use crate::{host, Round};
use netsim::{HostSpec, Pcg32};
use std::time::Instant;
use transport::harness::{demo_module, orch_endpoint, worker_endpoint};
use transport::node::{JobSpec, OrchestratorNode, WorkerNode};
use transport::proto::ModuleInfo;
use transport::sim::SimNet;
use transport::socket::SocketTransport;
use transport::{Transport, TransportCounters};

pub const WORKERS: usize = 8;
pub const SIM_JOBS: usize = 20_000;
pub const UDP_JOBS: usize = 2_000;
/// Radii per SPH job: drawn from this range, so frame sizes (and with
/// them the simulated timings) depend on the seed.
const RADII: std::ops::RangeInclusive<u64> = 8..=24;
/// Every this-many-th job runs the multi-chunk module instead.
const SCALE_EVERY: usize = 10;
const CHUNK_BYTES: u64 = 256;
const CACHE_BYTES: u64 = 1 << 20;
/// A UDP round that has not finished after this long is abandoned and
/// its missing jobs count as failed.
const UDP_BUDGET_S: f64 = 60.0;

/// E03 kernel: per-particle SPH smoothing weight `w = max(0, 1-r²)³`.
const SPH_KERNEL: &str = ".module SphKernel 1 1 1\n.func main 2\n inlen 0\n store 0\n \
                          push 0\n store 1\nloop:\n load 1\n load 0\n lt\n jz end\n \
                          load 1\n inget 0\n dup\n mul\n push 1\n swap\n sub\n push 0\n \
                          max\n dup\n dup\n mul\n mul\n outpush 0\n load 1\n push 1\n \
                          add\n store 1\n jmp loop\nend:\n halt\n";

struct Inputs {
    modules: Vec<(ModuleInfo, tvm::ModuleBlob)>,
    jobs: Vec<JobSpec>,
    /// What each job must return, computed in plain Rust.
    expected: Vec<Vec<Vec<f64>>>,
}

fn inputs(seed: u64, n_jobs: usize) -> Inputs {
    let sph = tvm::asm::assemble(SPH_KERNEL)
        .expect("SPH kernel assembles")
        .to_blob();
    let sph_info = ModuleInfo {
        name: "SphKernel".into(),
        version: 1,
        hash: sph.hash,
        blob_len: sph.bytes.len() as u64,
    };
    let (scale_info, scale) = demo_module("Scale", 1, 120);
    let mut rng = Pcg32::new(seed, 0xE03);
    let mut jobs = Vec::with_capacity(n_jobs);
    let mut expected = Vec::with_capacity(n_jobs);
    for i in 0..n_jobs {
        if i % SCALE_EVERY == SCALE_EVERY - 1 {
            let x = rng.range_f64(-100.0, 100.0);
            jobs.push(JobSpec {
                module: scale_info.clone(),
                input: vec![x],
            });
            expected.push(vec![vec![x * 2.5]]);
        } else {
            let n = RADII.start() + rng.below(RADII.end() - RADII.start() + 1);
            let radii: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1.5)).collect();
            expected.push(vec![radii.iter().map(|&r| check::sph(r)).collect()]);
            jobs.push(JobSpec {
                module: sph_info.clone(),
                input: radii,
            });
        }
    }
    Inputs {
        modules: vec![(sph_info, sph), (scale_info, scale)],
        jobs,
        expected,
    }
}

/// Outputs bit for bit, and every worker's cached blob hashes against
/// the benchmark's own FNV-1a over the module bytes.
fn verdict<T: Transport, U: Transport>(
    inp: &Inputs,
    orch: &OrchestratorNode<T>,
    workers: &[WorkerNode<U>],
) -> Verdict {
    let modules: Vec<(String, u32, Vec<u8>)> = inp
        .modules
        .iter()
        .map(|(info, blob)| (info.name.clone(), info.version, blob.bytes.clone()))
        .collect();
    let caches: Vec<Vec<(String, u32, u64)>> = workers.iter().map(|w| w.cached_modules()).collect();
    check::exec_outputs(&inp.expected, orch.results()) + check::blob_hashes(&modules, &caches)
}

fn outputs_digest<T: Transport>(orch: &OrchestratorNode<T>) -> check::Fnv {
    let mut h = check::Fnv::new();
    for (job, (_, outs)) in orch.results() {
        h.u64(*job);
        for v in outs.iter().flatten() {
            h.u64(v.to_bits());
        }
    }
    h
}

fn total(counters: &[TransportCounters]) -> TransportCounters {
    let mut t = TransportCounters::default();
    for c in counters {
        t.frames_sent += c.frames_sent;
        t.frames_recv += c.frames_recv;
        t.retransmits += c.retransmits;
        t.acks += c.acks;
    }
    t
}

fn tvm_layer(observer: &obs::Obs, jobs: usize) -> [(&'static str, f64); 2] {
    let counter = |name| observer.registry().map_or(0, |r| r.counter_value(name));
    [
        (
            "tvm.instructions_per_job",
            counter("tvm.instructions") as f64 / jobs as f64,
        ),
        ("tvm.batch_runs", counter("tvm.tier2_batch_runs") as f64),
    ]
}

/// Pump every node once.
fn pump_all<T: Transport, U: Transport>(
    tr: &mut Tracer,
    orch: &mut OrchestratorNode<T>,
    workers: &mut [WorkerNode<U>],
) {
    tr.time("transport.orch_pump", || orch.pump());
    for w in workers.iter_mut() {
        tr.time("transport.worker_pump", || w.pump());
    }
}

/// Set-ups per round: each takes tens of microseconds.
const SETUPS: usize = 25;

type SimFarm = (
    SimNet,
    OrchestratorNode<transport::sim::SimEndpoint>,
    Vec<WorkerNode<transport::sim::SimEndpoint>>,
);

fn build_sim(
    tr: &mut Tracer,
    seed: u64,
    observer: &obs::Obs,
    modules: Vec<(ModuleInfo, tvm::ModuleBlob)>,
    jobs: Vec<JobSpec>,
) -> SimFarm {
    let net = tr.time("transport.simnet_new", || {
        let net = SimNet::new(seed);
        net.set_obs(observer.clone());
        net
    });
    let orch_t = tr.time("transport.add_endpoint", || {
        net.add_endpoint(orch_endpoint(), HostSpec::reference_pc())
    });
    let mut workers: Vec<_> = tr.time("transport.worker_new", || {
        (0..WORKERS)
            .map(|i| {
                let t = net.add_endpoint(worker_endpoint(i), HostSpec::reference_pc());
                WorkerNode::new(
                    t,
                    orch_endpoint(),
                    CHUNK_BYTES,
                    CACHE_BYTES,
                    None,
                    observer.clone(),
                )
            })
            .collect()
    });
    let orch = tr.time("transport.orch_new", || {
        OrchestratorNode::new(
            orch_t,
            CHUNK_BYTES,
            modules,
            jobs,
            WORKERS,
            observer.clone(),
        )
    });
    tr.time("transport.worker_start", || {
        workers.iter_mut().for_each(|w| w.start())
    });
    (net, orch, workers)
}

pub fn sim_round(seed: u64, tr: &mut Tracer) -> Round {
    let mut inp = inputs(seed, SIM_JOBS);
    let observer = crate::observer(tr);
    let modules = inp.modules.clone();
    let mut jobs = std::mem::take(&mut inp.jobs);
    let ((net, mut orch, mut workers), setup_s) = crate::set_up(
        tr,
        SETUPS,
        |last| {
            let j = if last {
                std::mem::take(&mut jobs)
            } else {
                jobs.clone()
            };
            (modules.clone(), j)
        },
        |tr, (m, j)| build_sim(tr, seed, &observer, m, j),
    );

    // Load runs until every job is dispatched; run until the network is
    // quiescent. Each result's latency is the simulated time from the
    // start of the load phase to the pump that surfaced it.
    let t0 = net.now();
    let mut latencies_ms = Vec::with_capacity(SIM_JOBS);
    let mut events = 0u64;
    let mut idle = 0;
    let mut load_s = 0.0;
    let mut loading = Some(tr.begin());
    let phase = tr.begin();
    let started = Instant::now();
    let mut finished = None;
    loop {
        pump_all(tr, &mut orch, &mut workers);
        let (results, dispatched, now) = tr.time("transport.observe", || {
            (orch.results().len(), orch.assignment().len(), net.now())
        });
        while latencies_ms.len() < results {
            latencies_ms.push(now.since(t0).as_micros() as f64 / 1e3);
        }
        if finished.is_none() && results == SIM_JOBS {
            finished = Some(started.elapsed().as_secs_f64());
        }
        if dispatched == SIM_JOBS {
            if let Some(p) = loading.take() {
                load_s = tr.end(p, "load");
            }
        }
        if tr.time("netsim.step", || net.step()) {
            events += 1;
            idle = 0;
        } else {
            idle += 1;
            if idle >= 2 {
                break;
            }
        }
    }
    let run_s = tr.end(phase, "run");
    let ops_s = finished.unwrap_or(run_s);

    let wall_s = setup_s.iter().sum::<f64>() + run_s;
    crate::print_obs(&observer);
    let v = verdict(&inp, &orch, &workers);
    let mut counters: Vec<TransportCounters> = vec![net.counters(orch_endpoint())];
    counters.extend((0..WORKERS).map(|i| net.counters(worker_endpoint(i))));
    let c = total(&counters);
    let mut h = outputs_digest(&orch);
    for l in &latencies_ms {
        h.u64(l.to_bits());
    }
    h.u64(events);
    h.u64(c.frames_sent);
    let jobs = SIM_JOBS as f64;
    let mut layer = vec![
        ("netsim.events", events as f64),
        ("transport.frames_per_job", c.frames_sent as f64 / jobs),
        ("transport.retransmits_per_job", c.retransmits as f64 / jobs),
        ("transport.acks_per_job", c.acks as f64 / jobs),
    ];
    layer.extend(tvm_layer(&observer, SIM_JOBS));
    Round {
        setup_s,
        load_s,
        ops_s,
        wall_s,
        loads: SIM_JOBS as u64,
        ops: SIM_JOBS as u64,
        missing: v.missing,
        wrong: v.wrong,
        latencies_ms,
        msgs: c.frames_sent,
        digest: h.finish(),
        layer,
    }
}

fn bind(ep: transport::Endpoint, observer: &obs::Obs) -> SocketTransport {
    let mut t = SocketTransport::bind_loopback(ep).expect("bind a loopback UDP socket");
    t.set_obs(observer.clone());
    t
}

type UdpFarm = (
    OrchestratorNode<SocketTransport>,
    Vec<WorkerNode<SocketTransport>>,
    Vec<u16>,
);

fn build_udp(
    tr: &mut Tracer,
    observer: &obs::Obs,
    modules: Vec<(ModuleInfo, tvm::ModuleBlob)>,
    jobs: Vec<JobSpec>,
) -> UdpFarm {
    let mut orch_t = tr.time("transport.bind", || bind(orch_endpoint(), observer));
    let mut socks: Vec<SocketTransport> = Vec::with_capacity(WORKERS);
    for i in 0..WORKERS {
        socks.push(tr.time("transport.bind", || bind(worker_endpoint(i), observer)));
    }
    let (orch_addr, addrs) = tr.time("transport.local_addr", || {
        let addrs: Vec<_> = socks
            .iter()
            .map(|t| t.local_addr().expect("worker address"))
            .collect();
        (orch_t.local_addr().expect("orchestrator address"), addrs)
    });
    tr.time("transport.register_peer", || {
        for (i, t) in socks.iter_mut().enumerate() {
            t.register_peer(orch_endpoint(), orch_addr);
            for (j, &a) in addrs.iter().enumerate() {
                if i != j {
                    t.register_peer(worker_endpoint(j), a);
                }
            }
        }
        for (j, &a) in addrs.iter().enumerate() {
            orch_t.register_peer(worker_endpoint(j), a);
        }
    });
    let mut ports: Vec<u16> = addrs.iter().map(|a| a.port()).collect();
    ports.push(orch_addr.port());
    let workers: Vec<WorkerNode<SocketTransport>> = tr.time("transport.worker_new", || {
        socks
            .into_iter()
            .map(|t| {
                WorkerNode::new(
                    t,
                    orch_endpoint(),
                    CHUNK_BYTES,
                    CACHE_BYTES,
                    None,
                    observer.clone(),
                )
            })
            .collect()
    });
    let orch = tr.time("transport.orch_new", || {
        OrchestratorNode::new(
            orch_t,
            CHUNK_BYTES,
            modules,
            jobs,
            WORKERS,
            observer.clone(),
        )
    });
    let mut workers = workers;
    tr.time("transport.worker_start", || {
        workers.iter_mut().for_each(|w| w.start())
    });
    (orch, workers, ports)
}

pub fn udp_round(seed: u64, tr: &mut Tracer) -> Round {
    let mut inp = inputs(seed, UDP_JOBS);
    let observer = crate::observer(tr);
    let modules = inp.modules.clone();
    let mut jobs = std::mem::take(&mut inp.jobs);
    let ((mut orch, mut workers, ports), setup_s) = crate::set_up(
        tr,
        SETUPS,
        |last| {
            let j = if last {
                std::mem::take(&mut jobs)
            } else {
                jobs.clone()
            };
            (modules.clone(), j)
        },
        |tr, (m, j)| build_udp(tr, &observer, m, j),
    );

    let t0 = Instant::now();
    let mut latencies_ms = Vec::with_capacity(UDP_JOBS);
    let mut idle_rounds = 0u64;
    let mut moved = 0u64;
    let mut load_s = 0.0;
    let mut loading = Some(tr.begin());
    let phase = tr.begin();
    let mut finished = None;
    loop {
        pump_all(tr, &mut orch, &mut workers);
        // What the nodes report after this pump round: results, dispatched
        // jobs, frames moved so far, and whether everything has settled.
        let (results, dispatched, frames, settled, now_s) = tr.time("transport.observe", || {
            let mut frames = 0;
            let mut settled = orch.is_done() && orch.transport().pending() == 0;
            for c in std::iter::once(orch.transport().counters())
                .chain(workers.iter().map(|w| w.transport().counters()))
            {
                frames += c.frames_sent + c.frames_recv;
            }
            for w in &workers {
                settled &= w.is_done() && w.transport().pending() == 0;
            }
            let now_s = t0.elapsed().as_secs_f64();
            (
                orch.results().len(),
                orch.assignment().len(),
                frames,
                settled,
                now_s,
            )
        });
        while latencies_ms.len() < results {
            latencies_ms.push(now_s * 1e3);
        }
        if finished.is_none() && results == UDP_JOBS {
            finished = Some(now_s);
        }
        if dispatched == UDP_JOBS {
            if let Some(p) = loading.take() {
                load_s = tr.end(p, "load");
            }
        }
        if frames == moved {
            idle_rounds += 1;
        }
        moved = frames;
        if settled || now_s >= UDP_BUDGET_S {
            break;
        }
    }
    let run_s = tr.end(phase, "run");
    let ops_s = finished.unwrap_or(run_s);
    let drops = host::udp_drops(&ports);

    let wall_s = setup_s.iter().sum::<f64>() + run_s;
    crate::print_obs(&observer);
    let v = verdict(&inp, &orch, &workers);
    let mut all = vec![orch.transport().counters()];
    all.extend(workers.iter().map(|w| w.transport().counters()));
    let c = total(&all);
    let jobs = UDP_JOBS as f64;
    let mut layer = vec![
        ("transport.frames_per_job", c.frames_sent as f64 / jobs),
        ("transport.retransmits_per_job", c.retransmits as f64 / jobs),
        ("transport.acks_per_job", c.acks as f64 / jobs),
        ("transport.idle_rounds", idle_rounds as f64),
        ("transport.rcvbuf_drops", drops as f64),
    ];
    layer.extend(tvm_layer(&observer, UDP_JOBS));
    Round {
        setup_s,
        load_s,
        ops_s,
        wall_s,
        loads: UDP_JOBS as u64,
        ops: UDP_JOBS as u64,
        missing: v.missing,
        wrong: v.wrong,
        latencies_ms,
        msgs: c.frames_sent,
        digest: outputs_digest(&orch).finish(),
        layer,
    }
}
