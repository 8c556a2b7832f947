//! The serve workload: `Daemon::run` on one shard ingesting a bursty
//! BPRF stream over loopback, with partitioned checkpoints on.

use crate::cpu::CpuInstant;
use crate::stats::{fastest, peak_rss_mb, per_sample_min, quantile, RunResult};
use bpr_core::scenario::Scenario;
use bpr_core::snapshot::{fnv1a64, CheckpointPolicy};
use bpr_core::RecoveryModel;
use bpr_emn::faults::EmnState;
use bpr_emn::{EmnConfig, EmnScenario};
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::StateId;
use bpr_pomdp::bounds::{ra_bound, ValueBound};
use bpr_pomdp::Belief;
use bpr_serve::{
    Daemon, EventSource, Frame, FrameDecoder, IncidentEvent, IncidentStatus, LatencyHistogram,
    Prototypes, ServeConfig, ServeReport, SocketConfig, SocketSource, TransportCounts,
};
use bpr_verify::oracle::mdp_ceiling;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bursts in the stream, one every `PERIOD` ticks. Each burst holds
/// `PER_FAULT` events of every fault in the population, in an order
/// shuffled by the seed, so every seed serves the same fault mix.
const BURSTS: u64 = 6;
const PER_FAULT: usize = 5;
const PERIOD: u64 = 28;
/// Set-up repetitions (model build and ladder prototypes) before each
/// socket run, so they span the run; set-up counts at its fastest.
const SETUPS_PER_RUN: usize = 2;

fn config(scenario: &EmnScenario, seed: u64, checkpoint: Option<&Path>) -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_live: 8,
        // Larger than the largest backlog the bursts build: nothing is
        // shed, while every burst still pushes the backlog past the
        // degrade depth, so both the bounded and anytime rungs serve.
        queue_capacity: 4 * PER_FAULT * EmnState::zombies().len(),
        degrade_queue_depth: 16,
        master_seed: seed,
        operator_response_time: scenario.operator_response_time(),
        expected_warnings: scenario.expected_warnings(),
        checkpoint: checkpoint.map(|p| CheckpointPolicy::new(p, 8)),
        checkpoint_partitions: 4,
        ..ServeConfig::default()
    }
}

/// The logical event stream: `BURSTS` seeded bursts (see `PER_FAULT`),
/// the ticks between them empty.
#[derive(Debug, Clone)]
struct Stream {
    ticks: Vec<Vec<IncidentEvent>>,
    next: usize,
    fingerprint: u64,
}

impl Stream {
    fn new(seed: u64, faults: &[StateId]) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ticks = Vec::new();
        for _ in 0..BURSTS {
            let mut burst: Vec<IncidentEvent> = faults
                .iter()
                .flat_map(|&fault| std::iter::repeat_n(IncidentEvent { fault }, PER_FAULT))
                .collect();
            for i in (1..burst.len()).rev() {
                burst.swap(i, rng.gen_range(0..=i));
            }
            ticks.push(burst);
            ticks.extend((1..PERIOD).map(|_| Vec::new()));
        }
        let text: Vec<String> = ticks
            .iter()
            .map(|t| {
                format!(
                    "{:?}",
                    t.iter().map(|e| e.fault.index()).collect::<Vec<_>>()
                )
            })
            .collect();
        Stream {
            ticks,
            next: 0,
            fingerprint: fnv1a64(text.join(";").as_bytes()),
        }
    }
}

impl EventSource for Stream {
    fn poll(&mut self) -> Option<Vec<IncidentEvent>> {
        let tick = self.ticks.get(self.next)?.clone();
        self.next += 1;
        Some(tick)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Forwards an event source and splits the serving thread's CPU time
/// at every poll: one sample per daemon round (the daemon polls once
/// per logical tick), and a last one for what follows the final poll
/// (the drain and the closing checkpoint). Rounds are the same work in
/// every run of a seed, so each can be timed by its fastest run.
struct RoundClock<S> {
    inner: S,
    last: CpuInstant,
    rounds_ns: Vec<f64>,
}

impl<S: EventSource> RoundClock<S> {
    fn new(inner: S) -> RoundClock<S> {
        RoundClock {
            inner,
            last: CpuInstant::now(),
            rounds_ns: Vec::new(),
        }
    }

    fn finish(self) -> Vec<f64> {
        let mut rounds = self.rounds_ns;
        rounds.push(self.last.elapsed_ns());
        rounds
    }
}

impl<S: EventSource> EventSource for RoundClock<S> {
    fn poll(&mut self) -> Option<Vec<IncidentEvent>> {
        let now = CpuInstant::now();
        self.rounds_ns.push(now.since_ns(self.last));
        self.last = now;
        self.inner.poll()
    }

    fn skip_ticks(&mut self, n: u64) {
        self.inner.skip_ticks(n);
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn transport_counts(&self) -> Option<TransportCounts> {
        self.inner.transport_counts()
    }
}

/// Seconds of serving-thread CPU time of a run whose every round takes
/// its fastest time over `runs`.
fn floor_s(runs: &[Vec<f64>]) -> f64 {
    per_sample_min(runs).iter().sum::<f64>() * 1e-9
}

/// The stream's frames as a client writes them.
fn wire_frames(stream: &Stream) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for (tick, events) in stream.ticks.iter().enumerate() {
        let tick = tick as u64;
        for (seq, e) in events.iter().enumerate() {
            frames.push(
                Frame::Event {
                    tick,
                    seq: u32::try_from(seq).expect("per-tick events fit u32"),
                    fault: e.fault,
                }
                .encode(),
            );
        }
    }
    frames.push(
        Frame::End {
            ticks: stream.ticks.len() as u64,
        }
        .encode(),
    );
    frames
}

fn client(addr: SocketAddr, frames: &[Vec<u8>]) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    for f in frames {
        stream.write_all(f)?;
    }
    stream.flush()
}

/// A fresh, empty checkpoint directory (a stale checkpoint would make
/// the daemon resume instead of serving the stream from the start).
fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
    Ok(dir.join("serve.snapshot"))
}

struct World {
    scenario: EmnScenario,
    model: RecoveryModel,
    faults: Vec<StateId>,
    protos: Prototypes,
}

impl World {
    fn daemon(&self, config: ServeConfig) -> Result<Daemon<'_>, String> {
        Daemon::with_prototypes(&self.model, config, self.protos.clone())
            .map_err(|e| format!("daemon: {e}"))
    }

    /// One run over the loopback socket; the client is the second thread.
    /// The report and the serving thread's CPU time per round.
    fn socket_run(&self, seed: u64, ckpt_dir: &Path) -> Result<(ServeReport, Vec<f64>), String> {
        let plan = Stream::new(seed, &self.faults);
        let frames = wire_frames(&plan);
        let path = fresh_dir(ckpt_dir)?;
        let mut daemon = self.daemon(config(&self.scenario, seed, Some(&path)))?;
        let socket = SocketSource::bind("127.0.0.1:0", SocketConfig::default())
            .map_err(|e| format!("socket: {e}"))?
            .with_stream_fingerprint(plan.fingerprint());
        let addr = socket.local_addr().map_err(|e| format!("socket: {e}"))?;
        let report = std::thread::scope(|scope| {
            let writer = scope.spawn(|| client(addr, &frames));
            let mut source = RoundClock::new(socket);
            let report = daemon.run(&mut source);
            let rounds = source.finish();
            let written = writer.join();
            match (report, written) {
                (Ok(r), Ok(Ok(()))) => Ok((r, rounds)),
                (Err(e), _) => Err(format!("socket run: {e}")),
                (_, Ok(Err(e))) => Err(format!("loopback client: {e}")),
                (_, Err(_)) => Err("loopback client panicked".to_string()),
            }
        });
        let _ = std::fs::remove_dir_all(ckpt_dir);
        report
    }

    /// The same logical stream, in process, with or without checkpoints.
    fn in_process_run(
        &self,
        seed: u64,
        ckpt_dir: Option<&Path>,
    ) -> Result<(ServeReport, Vec<f64>), String> {
        let path = ckpt_dir.map(fresh_dir).transpose()?;
        let mut daemon = self.daemon(config(&self.scenario, seed, path.as_deref()))?;
        let mut source = RoundClock::new(Stream::new(seed, &self.faults));
        let report = daemon
            .run(&mut source)
            .map(|r| (r, source.finish()))
            .map_err(|e| format!("in-process run: {e}"));
        if let Some(dir) = ckpt_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        report
    }
}

/// Quantile read from the daemon's histogram, interpolated linearly
/// inside the bucket that holds the rank. The histogram reports only
/// bucket upper bounds; the bucket's share of the ranks is recovered
/// by bisecting `quantile` over `q`, and its width from the documented
/// layout (16 linear minor buckets per power of two).
fn histogram_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let upper = h.quantile(q);
    // Smallest and largest q that still land in this bucket.
    let edge = |toward_zero: bool| {
        let (mut inside, mut outside) = (q, if toward_zero { 0.0 } else { 1.0 });
        if h.quantile(outside) == upper {
            return outside;
        }
        for _ in 0..60 {
            let mid = 0.5 * (inside + outside);
            if h.quantile(mid) == upper {
                inside = mid;
            } else {
                outside = mid;
            }
        }
        inside
    };
    let (q_lo, q_hi) = (edge(true), edge(false));
    let width = bucket_width(upper) as f64;
    let share = if q_hi > q_lo {
        ((q - q_lo) / (q_hi - q_lo)).clamp(0.0, 1.0)
    } else {
        1.0
    };
    upper as f64 - width + width * share
}

/// Width of the histogram bucket whose upper bound is `upper`: bounds
/// are `(17 + minor) << shift` with `minor < 16`.
fn bucket_width(upper: u64) -> u64 {
    if upper < 16 {
        return 1;
    }
    (0..64)
        .find(|&shift| {
            let m = upper >> shift;
            (17..=32).contains(&m) && m << shift == upper
        })
        .map_or(1, |shift| 1 << shift)
}

/// The RA-Bound's gap to the certified ceiling at the uniform fault
/// belief, on the transformed model. Serve runs no bootstrap; its
/// bounded rung starts from this bound (on its lumped quotient, before
/// the controller's startup sweeps).
fn ra_bound_gap(world: &World, t_op: f64) -> Result<f64, String> {
    let terminated = world
        .model
        .without_notification(t_op)
        .map_err(|e| e.to_string())?;
    let bound = ra_bound(terminated.pomdp(), &SolveOpts::default()).map_err(|e| e.to_string())?;
    let uniform = Belief::uniform_over(world.model.base().n_states(), &world.model.fault_states());
    let b = terminated
        .extend_belief(&uniform)
        .map_err(|e| e.to_string())?;
    let ceiling = mdp_ceiling(&terminated, 100_000, 1e-12);
    let upper: f64 = b.probs().iter().zip(&ceiling).map(|(p, c)| p * c).sum();
    let lower = bound.value(&b);
    if lower > upper + 1e-9 {
        return Err(format!(
            "RA-Bound {lower} at the uniform fault belief exceeds the MDP ceiling {upper}"
        ));
    }
    Ok(upper - lower)
}

/// Builds the model and the ladder prototypes, recording the time of
/// the whole and of `Prototypes::build`.
fn set_up(
    scenario: &EmnScenario,
    seed: u64,
    setup_s: &mut Vec<f64>,
    protos_s: &mut Vec<f64>,
) -> Result<World, String> {
    let t = CpuInstant::now();
    let model = scenario.build().map_err(|e| format!("model: {e}"))?;
    let t_protos = CpuInstant::now();
    let protos = Prototypes::build(&model, &config(scenario, seed, None))
        .map_err(|e| format!("prototypes: {e}"))?;
    protos_s.push(t_protos.elapsed_s());
    setup_s.push(t.elapsed_s());
    let faults = scenario.fault_population(&model);
    Ok(World {
        scenario: scenario.clone(),
        model,
        faults,
        protos,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let scenario = EmnScenario {
        config: EmnConfig::default(),
    };

    let (mut setup_s, mut protos_s) = (Vec::new(), Vec::new());
    let world = set_up(&scenario, seed, &mut setup_s, &mut protos_s)?;
    let ckpt = scratch.join(format!("serve-{}", std::process::id()));

    // The in-process reference of the same logical stream.
    let (reference, reference_rounds) = world.in_process_run(seed, Some(&ckpt))?;
    let canonical = reference.canonical();

    // A traced run interleaves in-process runs with and without
    // checkpoints with the socket runs, so all three see the same
    // machine.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut socket: Vec<ServeReport> = Vec::new();
    let (mut socket_rounds, mut with_cp, mut without_cp) = (Vec::new(), Vec::new(), Vec::new());
    while socket.len() < 2 || start.elapsed() < budget {
        for _ in 0..SETUPS_PER_RUN {
            set_up(&scenario, seed, &mut setup_s, &mut protos_s)?;
        }
        let (report, rounds) = world.socket_run(seed, &ckpt)?;
        out.check(rounds.len() == reference_rounds.len(), || {
            "a socket run polled a different number of ticks".into()
        });
        socket.push(report);
        socket_rounds.push(rounds);
        if trace {
            with_cp.push(world.in_process_run(seed, Some(&ckpt))?.1);
            let (r, rounds) = world.in_process_run(seed, None)?;
            out.check(r.canonical() == canonical, || {
                "checkpoint-free run differs from the reference".into()
            });
            without_cp.push(rounds);
        }
    }
    for (k, r) in socket.iter().enumerate() {
        check_report(&mut out, k, r, &canonical);
        out.attempted += r.events_seen;
        out.failed += r.shed.total()
            + r.lost_incidents()
            + r.count(IncidentStatus::StepLimit)
            + r.count(IncidentStatus::ControllerError)
            + r.count(IncidentStatus::Quarantined);
    }
    let serve_s = floor_s(&socket_rounds);
    eprintln!(
        "[perfbench] {} socket runs: {:.4} s of serving-thread CPU at each round's fastest",
        socket.len(),
        serve_s
    );
    let incidents = reference.records.len() as f64;
    out.check(reference.decisions >= 1000, || {
        format!(
            "{} decisions per run is too few for a p99",
            reference.decisions
        )
    });

    if !trace {
        // The daemon's latencies are wall-clock. A run's p50 is set by
        // compute: it rises and falls with the machine's speed during
        // the run, as the run's serving-thread CPU time does, so it is
        // scaled to the speed of the per-round floor (floor CPU time
        // over the run's CPU time). The p99 is set by stalls the CPU
        // clock does not see, which that scaling does not remove, so it
        // is read unscaled. Each is then the runs' 10th percentile,
        // which a neighbour cannot raise unless it slows nine runs in
        // ten.
        let pick = |q: f64, scaled: bool| {
            let per_run: Vec<f64> = socket
                .iter()
                .zip(&socket_rounds)
                .map(|(r, rounds)| {
                    let speed = if scaled {
                        serve_s * 1e9 / rounds.iter().sum::<f64>()
                    } else {
                        1.0
                    };
                    histogram_quantile(&r.latency, q) * speed
                })
                .collect();
            quantile(&per_run, 0.1)
        };
        let rates = world.model.rates();
        let t_op = scenario.operator_response_time();
        let cost: f64 = reference
            .records
            .iter()
            .map(|r| {
                r.cost
                    + if r.status == IncidentStatus::Recovered {
                        0.0
                    } else {
                        rates[r.fault.index()] * t_op
                    }
            })
            .sum::<f64>()
            / incidents;
        out.metric("setup_s", fastest(&setup_s), "s");
        out.metric("faults_per_s", incidents / serve_s, "1/s");
        out.metric("decision_ms_p50", pick(0.5, true) * 1e-6, "ms");
        out.metric("decision_ms_p99", pick(0.99, false) * 1e-6, "ms");
        out.metric("cost_per_fault", cost, "requests");
        out.metric("bound_gap", ra_bound_gap(&world, t_op)?, "requests");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(out);
    }

    // Traced run: the layers split off by the interleaved runs, and
    // the decoder fed the recorded wire bytes.
    let (with_cp, without_cp) = (floor_s(&with_cp), floor_s(&without_cp));
    let bytes: Vec<u8> = wire_frames(&Stream::new(seed, &world.faults)).concat();
    let mut decode = Vec::new();
    let mut frames = 0u64;
    for _ in 0..50 {
        let mut decoder = FrameDecoder::new();
        let t = CpuInstant::now();
        decoder.feed(&bytes);
        frames = 0;
        while let Some(frame) = decoder.next() {
            std::hint::black_box(&frame);
            frames += 1;
        }
        decode.push(t.elapsed_ns());
    }
    out.check(frames == reference.events_seen + 1, || {
        format!(
            "decoder yielded {frames} frames for {} events",
            reference.events_seen
        )
    });
    let admitted = reference.admitted as f64;
    out.metric("serve.prototypes_s", fastest(&protos_s), "s");
    let decode_ns = fastest(&decode);
    out.metric(
        "transport.decode_ns_per_frame",
        decode_ns / frames as f64,
        "ns",
    );
    out.metric("transport.ingest_s", serve_s - with_cp, "s");
    out.metric("checkpoint.s", with_cp - without_cp, "s");
    out.metric(
        "checkpoint.writes",
        reference.checkpoints_written as f64,
        "count",
    );
    out.metric(
        "admission.degraded_ratio",
        reference.degraded_admissions as f64 / admitted,
        "ratio",
    );
    out.metric(
        "ladder.escalations",
        (reference.escalated_resilient + reference.escalated_anytime) as f64,
        "count",
    );
    out.metric(
        "serve.decisions_per_incident",
        reference.decisions as f64 / admitted,
        "count",
    );
    Ok(out)
}

fn check_report(
    out: &mut RunResult,
    k: usize,
    r: &ServeReport,
    canonical: &bpr_serve::CanonicalServe,
) {
    out.check(r.canonical() == *canonical, || {
        format!("socket run {k}: canonical report differs from the in-process run")
    });
    out.check(
        r.admitted + r.shed.total() + r.queued_at_exit == r.events_seen && r.shed.total() == 0,
        || {
            format!(
                "socket run {k}: admitted {} + shed {} + queued {} != seen {}",
                r.admitted,
                r.shed.total(),
                r.queued_at_exit,
                r.events_seen
            )
        },
    );
    match &r.transport {
        Some(t) => out.check(
            t.frames_seen == t.events_delivered + t.rejected_frames(),
            || {
                format!(
                    "socket run {k}: {} frames seen != {} delivered + {} rejected",
                    t.frames_seen,
                    t.events_delivered,
                    t.rejected_frames()
                )
            },
        ),
        None => out.check(false, || format!("socket run {k}: no transport counters")),
    }
    out.check(
        r.count(IncidentStatus::Recovered) == r.admitted && r.lost_incidents() == 0,
        || {
            format!(
                "socket run {k}: {} of {} incidents recovered",
                r.count(IncidentStatus::Recovered),
                r.admitted
            )
        },
    );
    out.check(
        r.degraded_admissions > 0 && r.degraded_admissions < r.admitted,
        || {
            format!(
                "socket run {k}: {} of {} admissions degraded; both rungs must serve",
                r.degraded_admissions, r.admitted
            )
        },
    );
}
