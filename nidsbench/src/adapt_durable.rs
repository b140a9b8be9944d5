//! `adapt_durable`: the write path — a drift-adaptive lane that logs every
//! event before applying it.  Closed loop, one client.
//!
//! A labelled stream of five calm → abrupt-shift cycles (the phase shapes
//! of `bench::scenario::abrupt_shift`, twice as long, with the surging
//! attack class rotating from cycle to cycle so that later shifts are new
//! to the adapted model too) goes through a
//! `DurableLane` on an open-set artifact at dim 1024, with checkpoints
//! every 2048 events.  The client submits a micro-batch of 64 events (the
//! 64th submit fsyncs the log and applies the batch) and waits for their
//! verdicts.  Every event updates the model; drift trips run regenerate →
//! recalibrate → seal → publish.  The lane is then dropped 1760 events
//! past its last checkpoint and recovered from copies of the directory.

use crate::layers::{self, BoxError, Shape};
use crate::report::Outcome;
use crate::stats::{self, Summary};
use crate::trace::{self, SpanId, Tracer};
use crate::{timed_setups, Run};
use bench::scenario::abrupt_shift;
use cyberhd::{
    AdaptiveConfig, AdaptiveLane, AdaptiveStats, Detector, DetectorRegistry, DriftMonitorConfig,
    DurableConfig, DurableLane, RecoveryReport, Ticket, Verdict,
};
use nids_data::drift::{DriftPhase, DriftStream};
use nids_data::{Dataset, DatasetKind};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRAIN_FLOWS: usize = 2_000;
const SETUPS: usize = 5;
const CYCLES: usize = 5;
/// Each cycle's phases are `abrupt_shift`'s (350 calm, 850 shifted flows)
/// scaled by this factor.
const PHASE_SCALE: usize = 2;
/// The `AdaptiveConfig` default: each flush fsyncs 64 events.
const MICRO_BATCH: usize = 64;
/// One flush in 32 also writes a checkpoint, so checkpoint flushes are
/// about 3% of flushes and `p99_ms` falls among them rather than on the
/// sparse edge between them and drift-trip flushes.
const CHECKPOINT_EVERY: u64 = 2_048;
const RECOVERIES: usize = 3;
/// `detect_fps` passes of the sealed model over the stream per iteration,
/// each timed in slices of [`DETECT_SLICE`] flows.
const DETECT_PASSES: usize = 4;
const DETECT_SLICE: usize = 4_000;
const TENANT: &str = "edge-lane";

fn shape(seed: u64) -> Shape {
    Shape { dimension: 1024, retrain_epochs: 3, regeneration_rate: 0.1, seed }
}

fn config() -> DurableConfig {
    DurableConfig {
        adaptive: AdaptiveConfig {
            max_batch: MICRO_BATCH,
            max_delay: Duration::from_millis(5),
            monitor: DriftMonitorConfig {
                window: 96,
                min_observations: 48,
                error_delta: 0.12,
                unknown_surge: 0.30,
                cooldown: 96,
            },
            recalibration_quantile: 0.10,
            ..AdaptiveConfig::default()
        },
        checkpoint_every: CHECKPOINT_EVERY,
        keep_checkpoints: 2,
    }
}

struct Inputs {
    train: Dataset,
    stream: DriftStream,
    detector: Detector,
    train_s: f64,
}

fn setup(run: &Run, n: usize) -> Result<Inputs, BoxError> {
    let spec = abrupt_shift(DatasetKind::NslKdd);
    let schema = spec.kind.schema();
    let profiles = spec.kind.profiles();
    let mut train_mix = spec.train_mix.clone();
    train_mix.samples = TRAIN_FLOWS;
    let train = DriftStream::generate(&schema, &profiles, &[train_mix], run.seed ^ 0xA11CE)?
        .dataset()
        .clone();
    let classes = profiles.len();
    let phases: Vec<DriftPhase> = (0..CYCLES)
        .flat_map(|c| {
            let attack = classes - 1 - c % (classes - 1);
            [
                DriftPhase::stationary(350 * PHASE_SCALE, classes).scale_class(attack, 0.02),
                DriftPhase::stationary(850 * PHASE_SCALE, classes)
                    .scale_class(attack, 30.0)
                    .scale_class(0, 0.3)
                    .difficulty(1.6),
            ]
        })
        .collect();
    let stream = DriftStream::generate(&schema, &profiles, &phases, run.seed)?;
    let start = Instant::now();
    let detector = shape(run.seed).builder().open_set(0.10).train(&train)?;
    let train_s = start.elapsed().as_secs_f64();
    let dir = run.work.join(format!("setup-{n}"));
    drop(DurableLane::create(
        &dir,
        TENANT,
        detector.clone(),
        config(),
        Some(Arc::new(DetectorRegistry::new())),
    )?);
    std::fs::remove_dir_all(&dir)?;
    Ok(Inputs { train, stream, detector, train_s })
}

/// Timings of one pass of the stream through a lane.
#[derive(Default)]
struct Pass {
    seconds: f64,
    /// Submit → verdict in hand, per event.
    latency: Vec<f64>,
    /// Submits that only logged and queued.
    submit: Vec<f64>,
    /// Submits that crossed `max_batch`: fsync, apply, maybe checkpoint.
    flush: Vec<f64>,
    verdicts: Vec<Verdict>,
}

/// The verbs the client uses, over a durable or a plain adaptive lane.
trait Lane {
    fn submit_labelled(&self, record: &[f32], label: usize) -> Result<Ticket, BoxError>;
    fn flush(&self) -> Result<(), BoxError>;
    fn take(&self, ticket: &Ticket) -> Result<Verdict, BoxError>;
}

impl Lane for DurableLane {
    fn submit_labelled(&self, record: &[f32], label: usize) -> Result<Ticket, BoxError> {
        Ok(DurableLane::submit_labelled(self, record, label)?)
    }
    fn flush(&self) -> Result<(), BoxError> {
        DurableLane::flush(self)?;
        Ok(())
    }
    fn take(&self, ticket: &Ticket) -> Result<Verdict, BoxError> {
        Ok(DurableLane::take(self, ticket)?)
    }
}

impl Lane for AdaptiveLane {
    fn submit_labelled(&self, record: &[f32], label: usize) -> Result<Ticket, BoxError> {
        Ok(AdaptiveLane::submit_labelled(self, record, label)?)
    }
    fn flush(&self) -> Result<(), BoxError> {
        AdaptiveLane::flush(self)?;
        Ok(())
    }
    fn take(&self, ticket: &Ticket) -> Result<Verdict, BoxError> {
        Ok(AdaptiveLane::take(self, ticket)?)
    }
}

/// The closed loop: submit a micro-batch, collect its verdicts, repeat.
fn drive(lane: &dyn Lane, stream: &DriftStream, tracer: &Tracer) -> Result<Pass, BoxError> {
    let data = stream.dataset();
    let mut pass = Pass { verdicts: Vec::with_capacity(stream.len()), ..Pass::default() };
    let mut submitted = Vec::with_capacity(MICRO_BATCH);
    let start = Instant::now();
    for (chunk, (records, labels)) in
        data.records().chunks(MICRO_BATCH).zip(data.labels().chunks(MICRO_BATCH)).enumerate()
    {
        let batch = tracer.begin("adapt.batch", None, None);
        submitted.clear();
        for (i, (record, &label)) in records.iter().zip(labels).enumerate() {
            let event = Some((chunk * MICRO_BATCH + i) as u64);
            let flushes = i + 1 == MICRO_BATCH;
            let call = tracer.begin(
                if flushes { "durable.flush" } else { "durable.submit" },
                batch.id(),
                event,
            );
            let begin = Instant::now();
            submitted.push((lane.submit_labelled(record, label)?, begin));
            let took = begin.elapsed().as_secs_f64();
            tracer.end(call);
            if flushes { &mut pass.flush } else { &mut pass.submit }.push(took);
        }
        if records.len() < MICRO_BATCH {
            let begin = Instant::now();
            tracer.time("durable.flush", batch.id(), |_| lane.flush())?;
            pass.flush.push(begin.elapsed().as_secs_f64());
        }
        for (i, (ticket, begin)) in submitted.iter().enumerate() {
            let call =
                tracer.begin("lane.take", batch.id(), Some((chunk * MICRO_BATCH + i) as u64));
            pass.verdicts.push(lane.take(ticket)?);
            tracer.end(call);
            pass.latency.push(begin.elapsed().as_secs_f64());
        }
        tracer.end(batch);
    }
    pass.seconds = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// Copies the files of a lane directory (it holds no subdirectories).
fn copy_dir(from: &Path, to: &Path) -> Result<u64, BoxError> {
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        bytes += std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(bytes)
}

/// What one measured iteration produced.
struct Iteration {
    pass: Pass,
    stats: AdaptiveStats,
    prequential: f64,
    sealed: Vec<u8>,
    wal_bytes: u64,
    recover_s: Vec<f64>,
    report: RecoveryReport,
    /// Flows per second of each timed `detect_batch` slice.
    detect_fps: Vec<f64>,
}

fn iterate(
    run: &Run,
    inputs: &Inputs,
    n: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Iteration, BoxError> {
    let dir = run.work.join(format!("lane-{n}"));
    let registry = Arc::new(DetectorRegistry::new());
    let lane =
        DurableLane::create(&dir, TENANT, inputs.detector.clone(), config(), Some(registry))?;
    let pass = drive(&lane, &inputs.stream, tracer)?;
    out.attempted += inputs.stream.len() as u64;
    let stats = lane.stats();
    let prequential = lane.prequential_accuracy();
    let sealed = lane.seal_snapshot().to_bytes();
    drop(lane);

    let mut wal_bytes = 0;
    let mut recover_s = Vec::with_capacity(RECOVERIES);
    let mut report = None;
    for r in 0..RECOVERIES {
        let copy = run.work.join(format!("lane-{n}-copy-{r}"));
        wal_bytes = copy_dir(&dir, &copy)?;
        let registry = Some(Arc::new(DetectorRegistry::new()));
        let (recovered, rep) = tracer.time("durable.recover", None, |_| {
            let start = Instant::now();
            let out = DurableLane::recover(&copy, registry);
            recover_s.push(start.elapsed().as_secs_f64());
            out
        })?;
        if recovered.seal_snapshot().to_bytes() != sealed {
            out.check("recovered lane seals the same bytes as the crashed lane", false);
        }
        drop(recovered);
        std::fs::remove_dir_all(&copy)?;
        report = Some(rep);
    }
    std::fs::remove_dir_all(&dir)?;
    out.attempted += RECOVERIES as u64;

    let snapshot = Detector::from_bytes(&sealed)?;
    let mut detect_fps = Vec::new();
    for _ in 0..DETECT_PASSES {
        for slice in inputs.stream.dataset().records().chunks(DETECT_SLICE) {
            let start = Instant::now();
            std::hint::black_box(snapshot.detect_batch(slice)?);
            detect_fps.push(slice.len() as f64 / start.elapsed().as_secs_f64());
        }
    }
    let report = report.expect("at least one recovery");
    Ok(Iteration { pass, stats, prequential, sealed, wal_bytes, recover_s, report, detect_fps })
}

pub fn run(run: &Run) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let mut n = 0;
    let mut train_s = Vec::with_capacity(SETUPS);
    let setup_n = || {
        n += 1;
        let inputs = setup(run, n)?;
        train_s.push(inputs.train_s);
        Ok(inputs)
    };
    let digest =
        |i: &Inputs| layers::digest(&i.train) ^ layers::digest(i.stream.dataset()).rotate_left(1);
    let (setup_s, inputs, same) = timed_setups(SETUPS, setup_n, digest)?;
    out.check("drift stream regenerates identically from the seed", same);
    println!(
        "adapt_durable: {} labelled events ({CYCLES} calm -> shift cycles), open-set artifact at dim 1024, \
         micro-batch {MICRO_BATCH}, checkpoint every {CHECKPOINT_EVERY} events",
        inputs.stream.len()
    );

    let quiet = Tracer::new(false);
    let start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    while run.another(start, iterations.len(), 2) {
        iterations.push(iterate(run, &inputs, iterations.len(), &quiet, &mut out)?);
    }
    let first = &iterations[0];
    out.check(
        "every pass adapts to the same sealed model",
        iterations.iter().all(|i| i.sealed == first.sealed && i.prequential == first.prequential),
    );
    out.check(
        "every pass returns the same verdicts",
        iterations.iter().all(|i| layers::same_verdicts(&i.pass.verdicts, &first.pass.verdicts)),
    );
    out.check("the drift monitor tripped and the lane republished", first.stats.publishes > 0);

    let events_per_s: Vec<f64> =
        iterations.iter().map(|i| i.pass.verdicts.len() as f64 / i.pass.seconds).collect();
    let latency: Vec<f64> =
        iterations.iter().flat_map(|i| i.pass.latency.iter().copied()).collect();
    let recover_s: Vec<f64> = iterations.iter().flat_map(|i| i.recover_s.iter().copied()).collect();
    let latency_summary = Summary::of(&latency);
    let median_eps = stats::median(&events_per_s);
    println!("adapt_durable: {} iterations; events/s {events_per_s:.1?}", iterations.len());
    println!("adapt_durable: event submit -> verdict {}", latency_summary.describe(1e3, "ms"));
    println!("adapt_durable: recovery {}", Summary::of(&recover_s).describe(1e3, "ms"));
    print_layers(&iterations, stats::median(&recover_s));

    out.set("setup_s", setup_s);
    out.set("train_s", stats::median(&train_s));
    out.set("accuracy", first.prequential);
    let detect_fps: Vec<f64> =
        iterations.iter().flat_map(|i| i.detect_fps.iter().copied()).collect();
    out.set("detect_fps", stats::median(&detect_fps));
    out.set("p50_ms", latency_summary.p50 * 1e3);
    let p99 = stats::windowed_p99(&latency).ok_or("fewer latency samples than one window")?;
    println!("adapt_durable: median of {}-event-window p99s {:.4} ms", stats::WINDOW, p99 * 1e3);
    out.set("p99_ms", p99 * 1e3);
    out.set("max_rate_fps", median_eps);
    out.set("ok_frac", (out.attempted - out.failed) as f64 / out.attempted as f64);
    out.set("events_per_s", median_eps);
    out.set("recover_s", stats::median(&recover_s));

    if run.trace {
        traced(run, &inputs, median_eps, &first.sealed, &mut out)?;
    }
    Ok(out)
}

/// The lane and durability report lines.
fn print_layers(iterations: &[Iteration], recover_s: f64) {
    let submit: Vec<f64> = iterations.iter().flat_map(|i| i.pass.submit.iter().copied()).collect();
    let flush: Vec<f64> = iterations.iter().flat_map(|i| i.pass.flush.iter().copied()).collect();
    let last = iterations.last().expect("at least one iteration");
    let s = &last.stats;
    let r = &last.report;
    println!("layer durable.submit_us: {}", Summary::of(&submit).describe(1e6, "us"));
    println!("layer durable.flush_ms: {}", Summary::of(&flush).describe(1e3, "ms"));
    println!(
        "layer adaptive.trips {}, adaptive.adaptations {}, adaptive.regenerated_dims {}, adaptive.publishes {}, \
         adaptive.publish_ms p50 {:.4}",
        s.monitor_trips,
        s.adaptations,
        s.regenerated_dimensions,
        s.publishes,
        s.p50_publish_latency.as_secs_f64() * 1e3
    );
    println!("layer durable.wal_bytes: {} (lane directory at the crash)", last.wal_bytes);
    println!(
        "layer recover.checkpoint_events {}, recover.replayed_events {}, recover.truncated_bytes {}, \
         recover.replay_eps {:.1}",
        r.checkpoint_events,
        r.events_replayed,
        r.truncated_bytes,
        r.events_replayed as f64 / recover_s
    );
}

/// The traced iteration, the same stream through a lane without the log,
/// and the decomposed training, detection and kernel probes.
fn traced(
    run: &Run,
    inputs: &Inputs,
    untraced_eps: f64,
    sealed: &[u8],
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let tracer = Tracer::new(true);
    let mut scratch = Outcome::default();
    let iteration = iterate(run, inputs, usize::MAX, &tracer, &mut scratch)?;
    out.mismatches.extend(scratch.mismatches);
    out.check("traced pass seals the same model", iteration.sealed == sealed);
    let traced_eps = iteration.pass.verdicts.len() as f64 / iteration.pass.seconds;

    let plain = AdaptiveLane::with_registry(
        TENANT,
        inputs.detector.clone(),
        config().adaptive,
        Arc::new(DetectorRegistry::new()),
    )?;
    let quiet = Tracer::new(false);
    let nowal = drive(&plain, &inputs.stream, &quiet)?;
    out.check(
        "the lane without the log adapts to the same model",
        plain.seal_snapshot().to_bytes() == sealed,
    );
    println!(
        "layer adaptive.events_per_s_nowal: {:.1} (durable {:.1})",
        nowal.verdicts.len() as f64 / nowal.seconds,
        untraced_eps
    );

    let snapshot = Detector::from_bytes(sealed)?;
    let records = inputs.stream.dataset().records();
    let verdicts =
        tracer.time("detect", None, |id| layers::detect(&snapshot, records, &tracer, id))?;
    out.check(
        "decomposed detection reproduces detect_batch",
        layers::same_verdicts(&verdicts, &snapshot.detect_batch(records)?),
    );
    let (_, train_matrix, model) = tracer
        .time("train", None, |id| layers::train(shape(run.seed), &inputs.train, &tracer, id))?;
    out.check(
        "decomposed training reproduces the artifact's model",
        inputs
            .detector
            .model()
            .is_some_and(|m| m.class_hypervectors() == model.class_hypervectors()),
    );
    let scored = inputs.detector.preprocessor().transform_records_matrix(records)?;
    tracer.time("probe", None, |id: Option<SpanId>| {
        layers::probe_kernels(&model, &train_matrix, &scored, &tracer, id)
    })?;

    let spans = tracer.spans();
    let totals = trace::totals(&spans);
    layers::print_span_table(&totals);
    let batch = &totals["adapt.batch"];
    println!(
        "adapt_durable: traced pass {:.1} events/s; submit, flush and take spans cover {:.3} of the batch spans",
        traced_eps,
        (batch.total_s - batch.self_s) / batch.total_s
    );
    layers::set_layer_metrics(out, &totals, &model, records.len());
    out.set("trace.overhead_frac", untraced_eps / traced_eps - 1.0);
    out.set("trace.coverage", (batch.total_s - batch.self_s) / batch.total_s);
    let path = run
        .work
        .parent()
        .expect("work dir has a parent")
        .join(format!("trace-adapt_durable-{}.tsv", run.seed));
    trace::write_spans(&path, &spans)?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}
