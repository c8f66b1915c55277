//! `farm_backlog`: a parameter sweep of modelled-compute jobs over four
//! code modules, submitted at once to a `FarmScheduler` on a `GridWorld`
//! with swarm module distribution and adaptive trust scheduling on. The
//! 64 workers are sampled consumer peers on exponential up/down traces,
//! so with far more jobs than workers the pending queue stays long and
//! churn forces restarts. No TVM execution and no transport.

use crate::check::{self, BacklogJob};
use crate::overlay::handle_span;
use crate::trace::Tracer;
use crate::Round;
use netsim::avail::{AvailabilityModel, AvailabilityTrace};
use netsim::{Duration, HostSpec, Pcg32, SimTime};
use p2p::DiscoveryMode;
use triana_core::grid::farm::{FarmConfig, FarmScheduler, JobSpec, SwarmConfig};
use triana_core::grid::{GridEvent, GridWorld, JobId, WorkerId, WorkerSetup};
use triana_core::ModuleKey;
use trust::GridTrustConfig;

pub const WORKERS: usize = 64;
pub const JOBS: usize = 4_000;
const MODULES: usize = 4;
/// Simulated horizon of the availability traces; every seed's farm
/// finishes well inside it.
const HORIZON_S: u64 = 3 * 86_400;

fn farm_span(ev: &GridEvent) -> &'static str {
    match ev {
        GridEvent::P2p(pe) => handle_span(pe),
        GridEvent::WorkerUp(_) => "farm.handle.WorkerUp",
        GridEvent::WorkerDown(_) => "farm.handle.WorkerDown",
        GridEvent::InputArrived { .. } => "farm.handle.InputArrived",
        GridEvent::ModuleArrived { .. } => "farm.handle.ModuleArrived",
        GridEvent::ComputeDone { .. } => "farm.handle.ComputeDone",
        GridEvent::OutputArrived { .. } => "farm.handle.OutputArrived",
        GridEvent::ChunkArrives { .. } => "farm.handle.ChunkArrives",
        GridEvent::SwarmProvidersDue { .. } => "farm.handle.SwarmProvidersDue",
        GridEvent::SwarmChunkArrived { .. } => "farm.handle.SwarmChunkArrived",
        GridEvent::StageComputeDone { .. } => "farm.handle.StageComputeDone",
        GridEvent::EmitToken { .. } => "farm.handle.EmitToken",
        GridEvent::StragglerCheck { .. } => "farm.handle.StragglerCheck",
        GridEvent::SpecInputArrived { .. } => "farm.handle.SpecInputArrived",
        GridEvent::SpecComputeDone { .. } => "farm.handle.SpecComputeDone",
        GridEvent::SpecOutputArrived { .. } => "farm.handle.SpecOutputArrived",
        GridEvent::OrchTick => "farm.handle.OrchTick",
    }
}

/// A module blob of roughly `approx` bytes (a counted loop padded with
/// no-op pairs), so each module spans several swarm chunks.
fn module_blob(name: &str, approx: usize) -> tvm::ModuleBlob {
    let mut src = format!(".module {name} 1 0 0\n.func main 1\n");
    for _ in 0..approx / 10 {
        src.push_str(" push 1\n pop\n");
    }
    src.push_str(
        " push 4\n store 0\nloop:\n load 0\n push 1\n sub\n store 0\n load 0\n jnz loop\n halt\n",
    );
    tvm::asm::assemble(&src)
        .expect("benchmark module assembles")
        .to_blob()
}

struct Inputs {
    workers: Vec<(HostSpec, AvailabilityTrace)>,
    modules: Vec<(ModuleKey, tvm::ModuleBlob)>,
    jobs: Vec<JobSpec>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Pcg32::new(seed, 0xBAC0);
    let churn = AvailabilityModel::Exponential {
        mean_up: Duration::from_secs(2 * 3600),
        mean_down: Duration::from_secs(20 * 60),
    };
    let horizon = SimTime::from_secs(HORIZON_S);
    let workers = (0..WORKERS)
        .map(|_| {
            let spec = HostSpec::sample_consumer(&mut rng);
            (spec, churn.trace(horizon, &mut rng))
        })
        .collect();
    let modules: Vec<(ModuleKey, tvm::ModuleBlob)> = (0..MODULES)
        .map(|m| {
            let name = format!("Sweep{m}");
            let blob = module_blob(&name, 1_000 + 700 * m);
            (ModuleKey::new(&name, 1), blob)
        })
        .collect();
    let jobs = (0..JOBS)
        .map(|i| JobSpec {
            work_gigacycles: rng.range_f64(20.0, 200.0),
            input_bytes: 20_000 + rng.below(80_000),
            output_bytes: 5_000,
            module: Some(modules[i % MODULES].0.clone()),
        })
        .collect();
    Inputs {
        workers,
        modules,
        jobs,
    }
}

/// Set-ups per round: each takes about a millisecond.
const SETUPS: usize = 25;

/// World, controller, farm, workers, overlay wiring, module library.
fn build(
    tr: &mut Tracer,
    seed: u64,
    observer: &obs::Obs,
    workers: Vec<(HostSpec, AvailabilityTrace)>,
    modules: Vec<(ModuleKey, tvm::ModuleBlob)>,
) -> (GridWorld, FarmScheduler) {
    let mut wire_rng = Pcg32::new(seed, 0xBAC1);
    let mut world = tr.time("grid.world_new", || {
        let mut world = GridWorld::new(seed, DiscoveryMode::Flooding);
        world.p2p.set_obs(observer.clone());
        world
    });
    let (ctrl, _) = tr.time("p2p.add_peer", || world.add_peer(HostSpec::reference_pc()));
    let cfg = FarmConfig {
        checkpoint: None,
        swarm: Some(SwarmConfig {
            chunk_bytes: 512,
            ..SwarmConfig::default()
        }),
        trust: Some(GridTrustConfig::adaptive()),
    };
    let mut farm = tr.time("farm.new", || {
        let mut farm = FarmScheduler::new(&world, ctrl, cfg);
        farm.set_obs(observer.clone());
        farm
    });
    for (spec, trace) in workers {
        let (peer, _) = tr.time("p2p.add_peer", || world.add_peer(spec.clone()));
        let setup = WorkerSetup {
            peer,
            spec,
            trace,
            cache_bytes: 1 << 20,
        };
        tr.time("farm.add_worker", || farm.add_worker(&mut world, setup));
    }
    tr.time("p2p.wire_random", || {
        world.p2p.wire_random(4, &mut wire_rng)
    });
    for (key, blob) in modules {
        tr.time("farm.publish_module", || farm.library.publish(key, blob));
    }
    (world, farm)
}

pub fn round(seed: u64, tr: &mut Tracer) -> Round {
    let inp = inputs(seed);
    let worker_ghz: Vec<f64> = inp.workers.iter().map(|(s, _)| s.cpu_ghz).collect();
    let work: Vec<f64> = inp.jobs.iter().map(|j| j.work_gigacycles).collect();
    let observer = crate::observer(tr);

    let ((mut world, mut farm), setup_s) = crate::set_up(
        tr,
        SETUPS,
        |_| (inp.workers.clone(), inp.modules.clone()),
        |tr, (workers, modules)| build(tr, seed, &observer, workers, modules),
    );

    // Load: submit the whole sweep at once.
    let phase = tr.begin();
    for spec in inp.jobs {
        tr.time("farm.submit", || farm.submit(&mut world, spec));
    }
    let load_s = tr.end(phase, "load");

    // Run: drive the world until the event queue drains.
    let phase = tr.begin();
    let events0 = world.sim.processed();
    while let Some(ev) = tr.time("netsim.step", || world.sim.step()) {
        // As `run_farm` does, minus its replicated-orchestrator delivery:
        // this farm has a single controller.
        let span = farm_span(&ev);
        match ev {
            GridEvent::P2p(pe) => {
                tr.time(span, || {
                    world.p2p.handle(&mut world.sim, &mut world.net, pe)
                });
            }
            other => tr.time(span, || farm.handle(&mut world, other)),
        }
    }
    let run_s = tr.end(phase, "run");
    let events = world.sim.processed() - events0;

    // Outcome and checks.
    crate::print_obs(&observer);
    let stats = farm.stats();
    let mut latencies_ms = Vec::with_capacity(JOBS);
    let mut h = check::Fnv::new();
    let jobs: Vec<BacklogJob> = (0..JOBS)
        .map(|i| {
            let lat = farm.job_latency(JobId(i as u64));
            if let Some(l) = lat {
                latencies_ms.push(l.as_micros() as f64 / 1e3);
                h.u64(l.as_micros());
            }
            BacklogJob {
                work_gigacycles: work[i],
                latency_s: lat.map(|l| l.as_secs_f64()),
            }
        })
        .collect();
    let completions: u64 = (0..WORKERS)
        .map(|w| farm.worker_jobs_completed(WorkerId(w as u32)))
        .sum();
    let verdict = check::backlog(
        &jobs,
        completions,
        &worker_ghz,
        stats.makespan.as_secs_f64(),
    );
    let (mut hits, mut misses) = (0, 0);
    for w in 0..WORKERS {
        let c = farm.worker_cache_stats(WorkerId(w as u32));
        hits += c.hits;
        misses += c.misses;
    }
    h.u64(events);
    h.u64(stats.attempts);
    h.u64(stats.makespan.as_micros());
    let msgs = world.net.stats().messages;
    let wall_s = setup_s.iter().sum::<f64>() + load_s + run_s;
    Round {
        setup_s,
        load_s,
        ops_s: load_s + run_s,
        wall_s,
        loads: JOBS as u64,
        ops: JOBS as u64,
        missing: verdict.missing,
        wrong: verdict.wrong,
        latencies_ms,
        msgs,
        digest: h.finish(),
        layer: vec![
            ("netsim.events", events as f64),
            (
                "farm.restarts",
                stats.attempts.saturating_sub(JOBS as u64) as f64,
            ),
            ("farm.cache_hits", hits as f64),
            ("farm.cache_misses", misses as f64),
        ],
    }
}
