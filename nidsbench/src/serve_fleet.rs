//! `serve_fleet`: the many-tenant deployment shape, as an open loop.
//!
//! 256 tenants with Zipf(1.1) traffic (`bench::zipf`) go into one
//! `ShardedServeEngine` (default shard count, default admission control,
//! `max_batch` 32, `max_delay` 2 ms).  Tenants cycle over three artifacts
//! trained at set-up: dense, 1-bit quantized and open-set.  One thread
//! sends on a fixed schedule; a second collects verdicts with `try_take`.
//! The skew keeps batches tiny, so per-flow overhead in submit, tickets,
//! the deadline wheel and the flushers dominates, and the trainer is idle.
//!
//! The window holds four segments at the nominal rate (latency, accuracy),
//! spread between the probes of a search of the rate ladder
//! (`max_rate_fps`), so that a stretch of host contention lands in one
//! segment rather than in all of the nominal measurement.  Every phase
//! builds a fresh engine, drains every admitted flow, and checks each
//! tenant's verdicts against its artifact's `detect_batch` over the same
//! flows.

use crate::layers::{self, BoxError, Shape};
use crate::report::Outcome;
use crate::stats::{self, Rung, Summary};
use crate::trace::{self, SpanId, Tracer};
use crate::{timed_setups, Run};
use bench::zipf::ZipfSampler;
use cyberhd::{
    AdmissionConfig, Detector, DetectorRegistry, ServeConfig, ServeError, ShardConfig,
    ShardedServeEngine, Ticket, Verdict,
};
use hdc::BitWidth;
use nids_data::{Dataset, DatasetKind, SyntheticConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 256;
const ZIPF_EXPONENT: f64 = 1.1;
/// Flows in the training corpus and in the pool the tenants send from.
const CORPUS_FLOWS: usize = 3_000;
const NOMINAL_FPS: f64 = 10_000.0;
/// The latency limit the ladder holds `p99_ms` to.
const LIMIT_MS: f64 = 50.0;
/// Rung `k` of the fixed ladder offers `NOMINAL_FPS * LADDER_STEP^k`
/// flows/s, for `k` in `LADDER_LOW..=LADDER_HIGH` (about 3k to 220k).
const LADDER_STEP: f64 = 1.05;
const LADDER_LOW: i32 = -24;
const LADDER_HIGH: i32 = 64;
/// Share of the window for the nominal segments together.  Every rung
/// probe sends as many flows as the segments together, so a rung at rate
/// `r` lasts `10k / r` times as long; the rungs a search probes fill most
/// of the rest.
const NOMINAL_SHARE: f64 = 0.4;
/// Nominal segments; the first runs before the ladder search, the others
/// after every [`SEGMENT_EVERY`] probes of it (or after it, if it ends
/// sooner).
const NOMINAL_SEGMENTS: usize = 4;
const SEGMENT_EVERY: usize = 2;
/// Timed passes of the `detect_batch` check of each rung probe.  Every
/// probe sends the same number of flows, so tenants' batches have the same
/// sizes from probe to probe, and the probes spread the passes over the
/// whole run; `detect_fps` is the median pass.
const RUNG_CHECK_PASSES: usize = 1;
/// Flows of each phase's first 200 ms are sent, served and checked but
/// left out of its latency figures (lanes are created on first use).
const WARMUP_S: f64 = 0.2;
const RESTARTS: usize = 41;
const SETUPS: usize = 3;

fn nominal_flows(run: &Run) -> usize {
    (NOMINAL_FPS * NOMINAL_SHARE * run.seconds).ceil() as usize
}

fn segment_flows(run: &Run) -> usize {
    nominal_flows(run).div_ceil(NOMINAL_SEGMENTS)
}

fn segment_seed(run: &Run, segment: usize) -> u64 {
    (run.seed ^ 0x5e4e).wrapping_add(segment as u64)
}

/// The nominal segments run so far and every timed check pass.
#[derive(Default)]
struct Nominal {
    /// Each segment with its flows.
    segments: Vec<(Phase, Vec<(usize, usize)>)>,
    /// Flows per second of every timed `detect_batch` check pass of a rung
    /// probe; `detect_fps` is their median.
    pass_fps: Vec<f64>,
}

impl Nominal {
    /// Runs the next segment and checks its verdicts.
    fn next_segment(
        &mut self,
        fleet: &Fleet,
        run: &Run,
        load_threads: usize,
        out: &mut Outcome,
    ) -> Result<(), BoxError> {
        let n = self.segments.len();
        let quiet = Tracer::new(false);
        let seed = segment_seed(run, n);
        let (phase, flows) =
            phase(fleet, NOMINAL_FPS, segment_flows(run), seed, load_threads, &quiet)?;
        phase.print(&format!("nominal {n}"));
        let (ok, _, _) = check_phase(fleet, &flows, &phase, 1, &quiet, None)?;
        out.check(&format!("nominal {n} verdicts equal each tenant's detect_batch"), ok);
        self.segments.push((phase, flows));
        Ok(())
    }

    /// Latencies of every segment's flows due after its warm-up, in order.
    fn measured(&self) -> Vec<f64> {
        self.segments.iter().flat_map(|(p, _)| p.measured().iter().copied()).collect()
    }
}

fn shape(seed: u64) -> Shape {
    Shape { dimension: 1024, retrain_epochs: 3, regeneration_rate: 0.1, seed }
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t:03}")
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        serve: ServeConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            ..ServeConfig::default()
        },
        admission: Some(AdmissionConfig::default()),
        ..ShardConfig::default()
    }
}

/// Everything set-up builds: the corpora, the three artifacts and the
/// registry every phase routes through.
struct Fleet {
    train: Dataset,
    pool: Dataset,
    /// Dense, 1-bit quantized, open-set.
    artifacts: [Detector; 3],
    train_s: [f64; 3],
    registry: Arc<DetectorRegistry>,
    names: Vec<String>,
}

impl Fleet {
    fn artifact(&self, tenant: usize) -> &Detector {
        &self.artifacts[tenant % 3]
    }
}

fn setup(seed: u64) -> Result<Fleet, BoxError> {
    // Two corpora of fixed size rather than a split whose sizes vary with
    // the seed: the allocator's heuristics make peak RSS jump by megabytes
    // on a few rows' difference.
    let train = DatasetKind::NslKdd.generate(&SyntheticConfig::new(CORPUS_FLOWS, seed))?;
    let pool = DatasetKind::NslKdd.generate(&SyntheticConfig::new(CORPUS_FLOWS, seed ^ 0x5e7e))?;
    let builders = [
        shape(seed).builder(),
        shape(seed).builder().quantize(BitWidth::B1),
        shape(seed).builder().open_set(0.05),
    ];
    let mut train_s = [0.0; 3];
    let mut artifacts = Vec::with_capacity(3);
    for (builder, time) in builders.iter().zip(&mut train_s) {
        let start = Instant::now();
        artifacts.push(builder.train(&train)?);
        *time = start.elapsed().as_secs_f64();
    }
    let artifacts: [Detector; 3] = artifacts.try_into().expect("three artifacts");
    let names: Vec<String> = (0..TENANTS).map(tenant_name).collect();
    let registry = Arc::new(DetectorRegistry::new());
    for (t, name) in names.iter().enumerate() {
        registry.register(name, artifacts[t % 3].clone())?;
    }
    drop(ShardedServeEngine::new(Arc::clone(&registry), shard_config())?);
    Ok(Fleet { train, pool, artifacts, train_s, registry, names })
}

/// The flows of one phase: `(tenant, pool index)` in send order.  Tenant
/// `t`'s `k`-th flow is pool record `(97 t + k) mod |pool|`.
fn plan(fleet: &Fleet, flows: usize, seed: u64) -> Vec<(usize, usize)> {
    let schedule = ZipfSampler::new(TENANTS, ZIPF_EXPONENT).schedule(flows, seed);
    let mut cursor = vec![0usize; TENANTS];
    schedule
        .into_iter()
        .map(|t| {
            let k = cursor[t];
            cursor[t] += 1;
            (t, (97 * t + k) % fleet.pool.len())
        })
        .collect()
}

/// Hand-off from the sender thread to the collector thread: the collector
/// swaps the whole vector out, so neither side allocates per flow.
struct Inbox {
    sent: Mutex<Vec<Sent>>,
    /// Set once the sender has handed over its last flow.
    closed: AtomicBool,
}

/// A submitted flow on its way to the collector.
struct Sent {
    flow: usize,
    tenant: usize,
    ticket: Ticket,
    due: Instant,
    submit: (Instant, Instant),
}

/// What one phase measured.
struct Phase {
    rate: f64,
    sent: usize,
    refused: usize,
    /// `Some` for every admitted flow once collected.
    verdicts: Vec<Option<Verdict>>,
    /// Due → collected, seconds; `INFINITY` for refused flows.
    latency: Vec<f64>,
    late: Vec<f64>,
    submit: Vec<f64>,
    backlog: Vec<(f64, f64)>,
    outstanding_max: usize,
    elapsed: f64,
    batches: u64,
    batch_mean: f64,
    engine_ms: (f64, f64),
    rejected: u64,
    admitted: u64,
    shed_overload: u64,
}

impl Phase {
    /// Latencies of the flows due after the warm-up.
    fn measured(&self) -> &[f64] {
        let skip = ((WARMUP_S * self.rate) as usize).min(self.latency.len());
        &self.latency[skip..]
    }

    fn rung(&self) -> Rung {
        Rung { rate: self.rate, latencies: self.measured().to_vec(), backlog: self.backlog.clone() }
    }

    fn print(&self, label: &str) {
        let collected = self.verdicts.iter().filter(|v| v.is_some()).count();
        println!(
            "phase {label}: {:.0} flows/s offered, sent {}, succeeded {collected}, failed {} ({} shed by \
             admission, {} backpressure); {}",
            self.rate,
            self.sent,
            self.refused,
            self.shed_overload,
            self.rejected,
            Summary::of(&self.measured().iter().copied().filter(|l| l.is_finite()).collect::<Vec<_>>())
                .describe(1e3, "ms"),
        );
    }
}

/// Collects verdicts with `try_take`, timing each flow from when it was due.
///
/// A lane scores its flows in submission order, so each tenant's tickets
/// complete in order: a sweep tries each tenant's oldest ticket and moves
/// on at the first one still queued.
struct Collector {
    start: Instant,
    /// Pending tickets per tenant, oldest first.
    pending: Vec<VecDeque<Sent>>,
    waiting: usize,
    verdicts: Vec<Option<Verdict>>,
    latency: Vec<f64>,
    /// Backlog samples, at most one per millisecond.
    backlog: Vec<(f64, f64)>,
    next_sample: Instant,
    outstanding_max: usize,
    last: Instant,
}

impl Collector {
    fn new(start: Instant, flows: usize) -> Self {
        Self {
            start,
            pending: (0..TENANTS).map(|_| VecDeque::new()).collect(),
            waiting: 0,
            verdicts: vec![None; flows],
            latency: vec![f64::INFINITY; flows],
            backlog: Vec::new(),
            next_sample: start,
            outstanding_max: 0,
            last: start,
        }
    }

    fn push(&mut self, sent: Sent) {
        self.waiting += 1;
        self.pending[sent.tenant].push_back(sent);
    }

    /// One pass over the tenants with pending tickets; returns how many
    /// verdicts were collected.
    fn sweep(&mut self, engine: &ShardedServeEngine, tracer: &Tracer) -> Result<usize, BoxError> {
        let mut collected = 0;
        for queue in self.pending.iter_mut() {
            while let Some(sent) = queue.front() {
                let call = Instant::now();
                let Some(verdict) = engine.try_take(&sent.ticket)? else { break };
                let now = Instant::now();
                self.verdicts[sent.flow] = Some(verdict);
                self.latency[sent.flow] = now.duration_since(sent.due).as_secs_f64();
                record_flow(tracer, sent, call, now);
                queue.pop_front();
                collected += 1;
            }
        }
        self.waiting -= collected;
        let now = Instant::now();
        if collected > 0 {
            self.last = now;
        }
        if now >= self.next_sample {
            self.backlog.push((now.duration_since(self.start).as_secs_f64(), self.waiting as f64));
            self.outstanding_max = self.outstanding_max.max(engine.outstanding());
            self.next_sample = now + Duration::from_millis(1);
        }
        Ok(collected)
    }
}

/// The spans of one collected flow, all tagged with its flow id: the
/// flow from due to collected, and inside it the sender's lateness, the
/// submit call, the wait in the engine and the collecting call.
fn record_flow(tracer: &Tracer, sent: &Sent, call: Instant, done: Instant) {
    let flow = Some(sent.flow as u64);
    if let Some(root) = tracer.record("serve.flow", sent.due, done, None, flow) {
        let root: Option<SpanId> = Some(root);
        tracer.record("load.late", sent.due, sent.submit.0, root, flow);
        tracer.record("serve.submit", sent.submit.0, sent.submit.1, root, flow);
        tracer.record("serve.wait", sent.submit.1, call, root, flow);
        tracer.record("serve.collect", call, done, root, flow);
    }
}

/// Runs one open-loop phase of `flows` at `rate` on a fresh engine.
fn phase(
    fleet: &Fleet,
    rate: f64,
    flows: usize,
    seed: u64,
    load_threads: usize,
    tracer: &Tracer,
) -> Result<(Phase, Vec<(usize, usize)>), BoxError> {
    let flows = plan(fleet, flows, seed);
    let engine = ShardedServeEngine::new(Arc::clone(&fleet.registry), shard_config())?;
    let start = Instant::now() + Duration::from_millis(5);
    let interval = 1.0 / rate;
    let inbox =
        Inbox { sent: Mutex::new(Vec::with_capacity(4096)), closed: AtomicBool::new(false) };
    let mut late = Vec::with_capacity(flows.len());
    let mut submit = Vec::with_capacity(flows.len());
    let mut refused = Vec::new();
    let mut collector = Collector::new(start, flows.len());

    let mut send = |collector: Option<&mut Collector>| -> Result<(), BoxError> {
        let mut collector = collector;
        for (i, &(tenant, record)) in flows.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 * interval);
            let now = Instant::now();
            // Both load threads spin rather than sleep: on a virtual
            // machine a sleeping vCPU halts, and waking it again can take
            // the host tens of milliseconds.  The engine's flusher
            // threads still get the cores: a waking thread preempts a
            // spinning one.
            if due > now {
                while Instant::now() < due {
                    std::thread::yield_now();
                }
            }
            let begin = Instant::now();
            let result = engine.submit(&fleet.names[tenant], &fleet.pool.records()[record]);
            let end = Instant::now();
            late.push(begin.duration_since(due).as_secs_f64());
            submit.push(end.duration_since(begin).as_secs_f64());
            match result {
                Ok(ticket) => {
                    let sent = Sent { flow: i, tenant, ticket, due, submit: (begin, end) };
                    match collector.as_deref_mut() {
                        Some(c) => {
                            c.push(sent);
                            c.sweep(&engine, tracer)?;
                        }
                        None => inbox.sent.lock().expect("inbox lock").push(sent),
                    }
                }
                Err(ServeError::Shed { .. } | ServeError::Backpressure { .. }) => {
                    refused.push(i);
                    tracer.record("serve.submit", begin, end, None, Some(i as u64));
                }
                Err(e) => return Err(format!("submit failed: {e}").into()),
            }
        }
        Ok(())
    };

    let collect = |collector: &mut Collector| -> Result<(), BoxError> {
        let mut taken = Vec::with_capacity(4096);
        loop {
            // Read `closed` before draining: once it is set, this drain
            // sees every flow the sender handed over.
            let closed = inbox.closed.load(Ordering::Acquire);
            std::mem::swap(&mut *inbox.sent.lock().expect("inbox lock"), &mut taken);
            for sent in taken.drain(..) {
                collector.push(sent);
            }
            collector.sweep(&engine, tracer)?;
            if closed && collector.waiting == 0 {
                return Ok(());
            }
            if collector.last.elapsed() > Duration::from_secs(10) && Instant::now() > start {
                return Err("verdicts stopped arriving for 10 s".into());
            }
            std::thread::yield_now();
        }
    };

    if load_threads >= 2 {
        std::thread::scope(|scope| -> Result<(), BoxError> {
            let collecting = scope.spawn(|| collect(&mut collector).map_err(|e| e.to_string()));
            let sent = send(None);
            inbox.closed.store(true, Ordering::Release);
            let collected = collecting.join().map_err(|_| "collector thread panicked")?;
            sent?;
            Ok(collected?)
        })?;
    } else {
        send(Some(&mut collector))?;
        inbox.closed.store(true, Ordering::Release);
        collect(&mut collector)?;
    }
    let elapsed = collector.last.duration_since(start).as_secs_f64();
    let fleet_stats = engine.fleet_stats().ok_or("the engine served no flows")?;
    let admission = engine.admission_stats();
    drop(engine);
    let phase = Phase {
        rate,
        sent: flows.len(),
        refused: refused.len(),
        verdicts: collector.verdicts,
        latency: collector.latency,
        late,
        submit,
        backlog: collector.backlog,
        outstanding_max: collector.outstanding_max,
        elapsed,
        batches: fleet_stats.batches,
        batch_mean: fleet_stats.mean_batch_size(),
        engine_ms: (
            fleet_stats.p50_latency.as_secs_f64() * 1e3,
            fleet_stats.p99_latency.as_secs_f64() * 1e3,
        ),
        rejected: fleet_stats.rejected,
        admitted: admission.admitted,
        shed_overload: admission.shed_overload,
    };
    Ok((phase, flows))
}

/// Each tenant's admitted flows (indices into `flows`), in submission
/// order.
fn admitted_by_tenant(flows: &[(usize, usize)], phase: &Phase) -> Vec<Vec<usize>> {
    let mut by_tenant = vec![Vec::new(); TENANTS];
    for (i, (&(tenant, _), verdict)) in flows.iter().zip(&phase.verdicts).enumerate() {
        if verdict.is_some() {
            by_tenant[tenant].push(i);
        }
    }
    by_tenant
}

/// Checks every tenant's verdicts against one `detect_batch` call of its
/// artifact over its admitted flows, in order, `passes` times; returns the
/// flows per second of each pass and the flows a pass scores.
fn check_phase(
    fleet: &Fleet,
    flows: &[(usize, usize)],
    phase: &Phase,
    passes: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(bool, Vec<f64>, usize), BoxError> {
    let mut ok =
        phase.verdicts.iter().filter(|v| v.is_some()).count() + phase.refused == phase.sent;
    let mut pass_fps = Vec::with_capacity(passes);
    let mut scored = 0;
    for _ in 0..passes {
        let mut seconds = 0.0;
        scored = 0;
        for (tenant, admitted) in admitted_by_tenant(flows, phase).into_iter().enumerate() {
            if admitted.is_empty() {
                continue;
            }
            let records: Vec<Vec<f32>> =
                admitted.iter().map(|&i| fleet.pool.records()[flows[i].1].clone()).collect();
            let start = Instant::now();
            let oracle = if tracer.enabled() {
                layers::detect(fleet.artifact(tenant), &records, tracer, parent)?
            } else {
                fleet.artifact(tenant).detect_batch(&records)?
            };
            seconds += start.elapsed().as_secs_f64();
            scored += records.len();
            let served: Vec<Verdict> =
                admitted.iter().map(|&i| phase.verdicts[i].expect("admitted")).collect();
            ok &= layers::same_verdicts(&served, &oracle);
        }
        pass_fps.push(scored as f64 / seconds);
    }
    Ok((ok, pass_fps, scored))
}

/// Highest ladder rung that meets the limit: takes the first nominal
/// segment as rung 0, then bisects between the highest passing and lowest
/// failing rung probed.  Runs the remaining nominal segments between the
/// probes and appends each probe's check passes to `nominal.pass_fps`.
fn search_ladder(
    fleet: &Fleet,
    run: &Run,
    nominal: &mut Nominal,
    load_threads: usize,
    out: &mut Outcome,
) -> Result<f64, BoxError> {
    let rate = |k: i32| NOMINAL_FPS * LADDER_STEP.powi(k);
    let limit = LIMIT_MS * 1e-3;
    let quiet = Tracer::new(false);
    let flows = nominal_flows(run);
    let mut probes = 0;
    let mut probed = vec![(rate(0), stats::rung_passes(&nominal.segments[0].0.rung(), limit))];
    let (mut lo, mut hi) = if probed[0].1 { (0, LADDER_HIGH + 1) } else { (LADDER_LOW - 1, 0) };
    while hi - lo > 1 {
        let k = (lo + hi) / 2;
        // A rung is decided by the majority of three probes (the third only
        // when the first two disagree): a host stall inside one short probe
        // must not cut the search short, nor a lucky probe lift it.
        let (mut passes, mut misses) = (0, 0);
        for attempt in 0..3u64 {
            let seed = run.seed.wrapping_mul(31).wrapping_add(k as u64 + 1000 + 500 * attempt);
            let (phase, flows) = phase(fleet, rate(k), flows, seed, load_threads, &quiet)?;
            let (ok, fps, _) = check_phase(fleet, &flows, &phase, RUNG_CHECK_PASSES, &quiet, None)?;
            nominal.pass_fps.extend(fps);
            out.check(&format!("rung {k} verdicts equal each tenant's detect_batch"), ok);
            let pass = stats::rung_passes(&phase.rung(), limit);
            if pass {
                passes += 1;
            } else {
                misses += 1;
            }
            phase.print(&format!(
                "rung {k} ({})",
                if pass { "meets the limit" } else { "misses the limit" }
            ));
            probes += 1;
            if probes % SEGMENT_EVERY == 0 && nominal.segments.len() < NOMINAL_SEGMENTS {
                nominal.next_segment(fleet, run, load_threads, out)?;
            }
            if passes == 2 || misses == 2 {
                break;
            }
        }
        let pass = passes == 2;
        probed.push((rate(k), pass));
        if pass {
            lo = k;
        } else {
            hi = k;
        }
    }
    stats::ladder_max(&probed).ok_or_else(|| "no ladder rung meets the latency limit".into())
}

pub fn run(run: &Run) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let nproc = hdc::parallel::available_cores();
    let load_threads = nproc.min(2);
    println!("serve_fleet: {load_threads} load threads on {nproc} cores");
    out.check("load uses at most nproc threads", load_threads <= nproc);

    let mut train_s = Vec::with_capacity(3 * SETUPS);
    let setup_one = || {
        let fleet = setup(run.seed)?;
        train_s.extend(fleet.train_s);
        Ok(fleet)
    };
    let (setup_s, fleet, same) = timed_setups(SETUPS, setup_one, |f| layers::digest(&f.pool))?;
    out.check("corpus regenerates identically from the seed", same);
    let nominal_s = NOMINAL_SHARE * run.seconds;
    let zipf = ZipfSampler::new(TENANTS, ZIPF_EXPONENT);
    out.check("Zipf schedule regenerates identically from the seed", {
        (0..NOMINAL_SEGMENTS).all(|n| {
            let (flows, seed) = (segment_flows(run), segment_seed(run, n));
            zipf.schedule(flows, seed) == zipf.schedule(flows, seed)
        })
    });
    println!(
        "serve_fleet: {TENANTS} tenants, Zipf {ZIPF_EXPONENT}, {} shards, artifacts dense / b1 / open-set at dim \
         1024, pool {} flows; nominal {NOMINAL_FPS} flows/s for {nominal_s:.1} s in {NOMINAL_SEGMENTS} segments",
        shard_config().shards,
        fleet.pool.len()
    );

    let mut nominal = Nominal::default();
    nominal.next_segment(&fleet, run, load_threads, &mut out)?;
    print_layers(&nominal.segments[0].0, &fleet)?;
    let max_rate = search_ladder(&fleet, run, &mut nominal, load_threads, &mut out)?;
    while nominal.segments.len() < NOMINAL_SEGMENTS {
        nominal.next_segment(&fleet, run, load_threads, &mut out)?;
    }
    println!(
        "serve_fleet: per-tenant detect_batch check pass, median {:.1} flows/s (n={})",
        stats::median(&nominal.pass_fps),
        nominal.pass_fps.len()
    );

    let (mut sent, mut refused, mut collected, mut hits, mut elapsed) = (0, 0, 0, 0, 0.0);
    for (segment, flows) in &nominal.segments {
        sent += segment.sent;
        refused += segment.refused;
        elapsed += segment.elapsed;
        for (verdict, &(_, r)) in segment.verdicts.iter().zip(flows) {
            if let Some(v) = verdict {
                collected += 1;
                hits += usize::from(v.class == fleet.pool.labels()[r]);
            }
        }
    }
    let all = nominal.measured();
    let measured: Vec<f64> = all.iter().copied().filter(|l| l.is_finite()).collect();
    let latency = Summary::of(&measured);

    out.attempted = sent as u64;
    out.failed = refused as u64;
    out.set("setup_s", setup_s);
    out.set("train_s", stats::median(&train_s));
    out.set("accuracy", hits as f64 / collected.max(1) as f64);
    out.set("detect_fps", stats::median(&nominal.pass_fps));
    out.set("p50_ms", latency.p50 * 1e3);
    let p99 = stats::windowed_p99(&all)
        .filter(|p99| p99.is_finite())
        .ok_or("the nominal segments refused flows or sent fewer than one window")?;
    println!(
        "serve_fleet: nominal due -> collected {}; median of {}-flow-window p99s {:.4} ms",
        latency.describe(1e3, "ms"),
        stats::WINDOW,
        p99 * 1e3
    );
    out.set("p99_ms", p99 * 1e3);
    out.set("max_rate_fps", max_rate);
    out.set("ok_frac", collected as f64 / sent as f64);
    out.set("events_per_s", collected as f64 / elapsed);
    out.set("recover_s", restart(&fleet, run)?);

    if run.trace {
        traced(&fleet, run, load_threads, &latency, &mut out)?;
    }
    Ok(out)
}

/// Median time to bring the fleet back after a restart: load the three
/// saved artifacts, register every tenant and start the engine.
fn restart(fleet: &Fleet, run: &Run) -> Result<f64, BoxError> {
    let paths: Vec<_> = (0..3).map(|i| run.work.join(format!("serve_fleet-{i}.cyhd"))).collect();
    for (artifact, path) in fleet.artifacts.iter().zip(&paths) {
        artifact.save(path)?;
    }
    let mut times = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let start = Instant::now();
        let loaded: Vec<Detector> = paths.iter().map(Detector::load).collect::<Result<_, _>>()?;
        let registry = Arc::new(DetectorRegistry::new());
        for (t, name) in fleet.names.iter().enumerate() {
            registry.register(name, loaded[t % 3].clone())?;
        }
        let engine = ShardedServeEngine::new(registry, shard_config())?;
        times.push(start.elapsed().as_secs_f64());
        drop(engine);
    }
    println!("serve_fleet: restart {}", Summary::of(&times).describe(1e3, "ms"));
    Ok(stats::median(&times))
}

/// The serve-layer report lines of the nominal phase.
fn print_layers(nominal: &Phase, fleet: &Fleet) -> Result<(), BoxError> {
    let late = Summary::of(&nominal.late);
    let submit = Summary::of(&nominal.submit);
    println!("layer serve.submit_us: {}", submit.describe(1e6, "us"));
    println!(
        "layer serve.engine_ms: p50 {:.4} ms, p99 {:.4} ms (engine-side submit -> verdict, fleet_stats)",
        nominal.engine_ms.0, nominal.engine_ms.1
    );
    println!("layer serve.gen_late_ms: {}", late.describe(1e3, "ms"));
    println!(
        "layer serve.batch_mean: {:.3} over serve.batches {}",
        nominal.batch_mean, nominal.batches
    );
    println!("layer serve.outstanding_max: {}", nominal.outstanding_max);
    println!(
        "layer admission.admitted {}, admission.shed_overload {}, serve.rejected {}",
        nominal.admitted, nominal.shed_overload, nominal.rejected
    );
    let records = fleet.pool.records();
    let preprocessor = fleet.artifacts[0].preprocessor();
    let mut row = vec![0f32; preprocessor.output_width()];
    let mut times = Vec::with_capacity(records.len());
    for record in records {
        let start = Instant::now();
        preprocessor.transform_record_into(record, &mut row)?;
        times.push(start.elapsed().as_secs_f64());
    }
    println!("layer preprocess.record_us: {}", Summary::of(&times).describe(1e6, "us"));
    let matrix = preprocessor.transform_records_matrix(records)?;
    let width = preprocessor.output_width();
    let mean = (nominal.batch_mean.round() as usize).max(1);
    for (artifact, label) in fleet.artifacts.iter().zip(["dense", "b1", "open_set"]) {
        let mut line = format!("layer detector.detect_view_us.{label}:");
        for batch in [1, mean, 32] {
            let mut times = Vec::new();
            for rows in matrix.chunks_exact(batch * width).take(400) {
                let view = hdc::BatchView::new(rows, width)?;
                let start = Instant::now();
                std::hint::black_box(artifact.detect_preprocessed(view)?);
                times.push(start.elapsed().as_secs_f64());
            }
            line.push_str(&format!(" batch {batch}: {:.3} us/call", stats::median(&times) * 1e6));
        }
        println!("{line}");
    }
    Ok(())
}

/// The traced run: the first nominal segment again with per-flow spans,
/// the decomposed oracle pass, and the decomposed training of the dense
/// artifact with its kernel probes.
fn traced(
    fleet: &Fleet,
    run: &Run,
    load_threads: usize,
    untraced: &Summary,
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let tracer = Tracer::new(true);
    let seed = segment_seed(run, 0);
    let (nominal, flows) =
        phase(fleet, NOMINAL_FPS, segment_flows(run), seed, load_threads, &tracer)?;
    let traced_latency = Summary::of(
        &nominal.measured().iter().copied().filter(|l| l.is_finite()).collect::<Vec<_>>(),
    );
    let (ok, _, scored) =
        tracer.time("detect", None, |id| check_phase(fleet, &flows, &nominal, 1, &tracer, id))?;
    out.check("traced nominal verdicts equal each tenant's detect_batch", ok);
    let (_, train_matrix, model) = tracer
        .time("train", None, |id| layers::train(shape(run.seed), &fleet.train, &tracer, id))?;
    out.check(
        "decomposed training reproduces the dense artifact",
        fleet.artifacts[0]
            .model()
            .is_some_and(|m| m.class_hypervectors() == model.class_hypervectors()),
    );
    let admitted: Vec<Vec<f32>> = admitted_by_tenant(&flows, &nominal)
        .into_iter()
        .flatten()
        .map(|i| fleet.pool.records()[flows[i].1].clone())
        .collect();
    let scored_matrix = fleet.artifacts[0].preprocessor().transform_records_matrix(&admitted)?;
    tracer.time("probe", None, |id| {
        layers::probe_kernels(&model, &train_matrix, &scored_matrix, &tracer, id)
    })?;

    let spans = tracer.spans();
    let totals = trace::totals(&spans);
    layers::print_span_table(&totals);
    let flow = &totals["serve.flow"];
    let wait = Summary::of(&totals["serve.wait"].durations);
    println!(
        "serve_fleet: traced flow {}; of it serve.wait {} (engine-side p50 {:.4} ms from the bucketed fleet_stats histogram)",
        Summary::of(&flow.durations).describe(1e3, "ms"),
        wait.describe(1e3, "ms"),
        nominal.engine_ms.0
    );
    layers::set_layer_metrics(out, &totals, &model, scored);
    out.set("trace.overhead_frac", (traced_latency.p50 - untraced.p50) / untraced.p50);
    // The flow spans cover due -> collected of every collected flow, so the
    // layer share is everything but the flow spans' own (uncovered) time.
    out.set("trace.coverage", (flow.total_s - flow.self_s) / flow.total_s);
    let path = run
        .work
        .parent()
        .expect("work dir has a parent")
        .join(format!("trace-serve_fleet-{}.tsv", run.seed));
    trace::write_spans(&path, &spans)?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}
