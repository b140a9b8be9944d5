//! `train_nids`: the paper's own claim — training time and batch inference
//! at low dimension (a batch job; one caller thread).
//!
//! A 5-class NSL-KDD-shaped corpus of 20k flows is split 80/20 (stratified)
//! and a detector is trained at dim 1024 with 10 retraining epochs and
//! regeneration rate 0.2, serial rule.  Each iteration of the measured
//! window trains once, then runs 20 rounds that each score the held-out
//! split with two `detect_batch` passes (throughput) and 50 of its 32-flow
//! slices as calls of their own (latency of one micro-batch; closed loop),
//! and reloads the saved artifact.  Passes and calls alternate so that both
//! sample the host over the same stretches of the run.

use crate::layers::{self, BoxError, Shape};
use crate::report::Outcome;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::{timed_setups, Run};
use cyberhd::{Detector, Verdict};
use nids_data::split::train_test_split;
use nids_data::{Dataset, DatasetKind, SyntheticConfig};
use std::time::Instant;

const CORPUS_FLOWS: usize = 20_000;
/// Set-up is cheap here, so it repeats more often for a steadier median.
const SETUPS: usize = 9;
/// Rounds per iteration: [`PASSES_PER_ROUND`] `detect_batch` passes over
/// the held-out split, then [`WARMUP_CALLS`] untimed and
/// [`CALLS_PER_ROUND`] timed micro-batch calls.  Right after a pass the
/// first call runs about 1.5x and the second about 1.1x as long as later
/// ones (2-vCPU Xeon VM); untimed, they stay out of `p99_ms`.
const ROUNDS: usize = 20;
const PASSES_PER_ROUND: usize = 2;
const WARMUP_CALLS: usize = 2;
const CALLS_PER_ROUND: usize = 50;
const MICRO_BATCH: usize = 32;
const LOADS: usize = 5;
/// Flows whose single-flow `detect` decisions are compared to the batch
/// (scores may differ in the last bits; decisions may not).
const PARITY_FLOWS: usize = 256;

fn shape(seed: u64) -> Shape {
    Shape { dimension: 1024, retrain_epochs: 10, regeneration_rate: 0.2, seed }
}

fn setup(seed: u64) -> Result<(Dataset, Dataset), BoxError> {
    let corpus = DatasetKind::NslKdd.generate(&SyntheticConfig::new(CORPUS_FLOWS, seed))?;
    Ok(train_test_split(&corpus, 0.2, seed ^ 0x5717)?)
}

/// What one measured iteration produced.
struct Iteration {
    train_s: f64,
    /// Flows per second of each `detect_batch` pass.
    pass_fps: Vec<f64>,
    call_s: Vec<f64>,
    load_s: Vec<f64>,
    artifact: Vec<u8>,
    verdicts: Vec<Verdict>,
}

fn iterate(
    run: &Run,
    train: &Dataset,
    test: &Dataset,
    out: &mut Outcome,
) -> Result<Iteration, BoxError> {
    let builder = shape(run.seed).builder();
    let start = Instant::now();
    let detector = builder.train(train)?;
    let train_s = start.elapsed().as_secs_f64();
    out.attempted += 1;

    let records = test.records();
    let mut verdicts = Vec::new();
    let mut pass_fps = Vec::with_capacity(ROUNDS * PASSES_PER_ROUND);
    let mut call_s = Vec::with_capacity(ROUNDS * CALLS_PER_ROUND);
    let mut slices = records.chunks(MICRO_BATCH).cycle();
    for _ in 0..ROUNDS {
        for _ in 0..PASSES_PER_ROUND {
            let start = Instant::now();
            let v = detector.detect_batch(records)?;
            pass_fps.push(records.len() as f64 / start.elapsed().as_secs_f64());
            if verdicts.is_empty() {
                verdicts = v;
            } else if !layers::same_verdicts(&v, &verdicts) {
                out.check("repeated detect_batch passes agree", false);
            }
        }
        for (i, chunk) in slices.by_ref().take(WARMUP_CALLS + CALLS_PER_ROUND).enumerate() {
            let start = Instant::now();
            let v = detector.detect_batch(chunk)?;
            if i >= WARMUP_CALLS {
                call_s.push(start.elapsed().as_secs_f64());
            }
            std::hint::black_box(v);
        }
    }
    out.attempted += (ROUNDS * (PASSES_PER_ROUND + WARMUP_CALLS + CALLS_PER_ROUND)) as u64;

    let path = run.work.join("train_nids.cyhd");
    detector.save(&path)?;
    let artifact = detector.to_bytes();
    let mut load_s = Vec::with_capacity(LOADS);
    for _ in 0..LOADS {
        let start = Instant::now();
        let loaded = Detector::load(&path)?;
        load_s.push(start.elapsed().as_secs_f64());
        if loaded.to_bytes() != artifact {
            out.check("reloaded artifact equals the saved one", false);
        }
    }
    out.attempted += LOADS as u64;
    Ok(Iteration { train_s, pass_fps, call_s, load_s, artifact, verdicts })
}

pub fn run(run: &Run) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let digest = |(train, test): &(Dataset, Dataset)| {
        layers::digest(train) ^ layers::digest(test).rotate_left(1)
    };
    let (setup_s, (train, test), same) = timed_setups(SETUPS, || setup(run.seed), digest)?;
    out.check("corpus regenerates identically from the seed", same);
    println!(
        "train_nids: {} train / {} held-out flows, {} classes, dim 1024, 10 epochs, regeneration 0.2",
        train.len(),
        test.len(),
        train.num_classes()
    );

    let start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    while run.another(start, iterations.len(), 2) {
        iterations.push(iterate(run, &train, &test, &mut out)?);
    }
    let first = &iterations[0];
    out.check(
        "retraining with the same seed gives the same artifact",
        iterations.iter().all(|i| i.artifact == first.artifact),
    );
    out.check(
        "detect_batch verdicts repeat across iterations",
        iterations.iter().all(|i| layers::same_verdicts(&i.verdicts, &first.verdicts)),
    );
    let detector = Detector::from_bytes(&first.artifact)?;
    let mut scratch = detector.scratch();
    let single: Vec<Verdict> = test.records()[..PARITY_FLOWS]
        .iter()
        .map(|r| detector.detect_with(r, &mut scratch))
        .collect::<Result<_, _>>()?;
    out.check(
        "single-flow detect decides as detect_batch",
        single.iter().zip(&first.verdicts).all(|(s, b)| s.class == b.class && s.novel == b.novel),
    );
    let accuracy = layers::accuracy(&first.verdicts, test.labels());
    out.check("held-out accuracy is at least 0.9", accuracy >= 0.9);

    let train_s: Vec<f64> = iterations.iter().map(|i| i.train_s).collect();
    let detect_fps: Vec<f64> = iterations.iter().flat_map(|i| i.pass_fps.iter().copied()).collect();
    let calls: Vec<f64> = iterations.iter().flat_map(|i| i.call_s.iter().copied()).collect();
    let loads: Vec<f64> = iterations.iter().flat_map(|i| i.load_s.iter().copied()).collect();
    let call_summary = Summary::of(&calls);
    let epochs = detector.model().map_or(0, |m| m.report().epoch_accuracy.len());
    println!("train_nids: {} iterations; train_s {train_s:.4?}", iterations.len());
    println!(
        "train_nids: detect_batch pass over the held-out split, median {:.1} flows/s (n={})",
        stats::median(&detect_fps),
        detect_fps.len()
    );
    println!("train_nids: 32-flow detect_batch call {}", call_summary.describe(1e3, "ms"));
    println!("train_nids: artifact reload {}", Summary::of(&loads).describe(1e3, "ms"));

    let median_train = stats::median(&train_s);
    out.set("setup_s", setup_s);
    out.set("train_s", median_train);
    out.set("accuracy", accuracy);
    out.set("detect_fps", stats::median(&detect_fps));
    out.set("p50_ms", call_summary.p50 * 1e3);
    let p99 = stats::windowed_p99(&calls).ok_or("fewer latency samples than one window")?;
    println!("train_nids: median of {}-call-window p99s {:.4} ms", stats::WINDOW, p99 * 1e3);
    out.set("p99_ms", p99 * 1e3);
    out.set("max_rate_fps", (calls.len() * MICRO_BATCH) as f64 / calls.iter().sum::<f64>());
    out.set("ok_frac", (out.attempted - out.failed) as f64 / out.attempted as f64);
    out.set("events_per_s", (train.len() * epochs) as f64 / median_train);
    out.set("recover_s", stats::median(&loads));

    if run.trace {
        traced(run, &train, &test, &detector, median_train, &mut out)?;
    }
    Ok(out)
}

/// The traced iteration: training and one detect pass, each taken apart
/// into its layer calls, then the kernel probes.
fn traced(
    run: &Run,
    train: &Dataset,
    test: &Dataset,
    detector: &Detector,
    untraced_train_s: f64,
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let tracer = Tracer::new(true);
    let (preprocessor, train_matrix, model) =
        tracer.time("train", None, |id| layers::train(shape(run.seed), train, &tracer, id))?;
    let verdicts =
        tracer.time("detect", None, |id| layers::detect(detector, test.records(), &tracer, id))?;
    out.check(
        "decomposed training reproduces DetectorBuilder::train",
        detector.model().is_some_and(|m| m.class_hypervectors() == model.class_hypervectors()),
    );
    out.check("decomposed detection reproduces detect_batch", {
        let oracle = detector.detect_batch(test.records())?;
        layers::same_verdicts(&verdicts, &oracle)
    });
    let scored = preprocessor.transform_matrix(test)?;
    tracer.time("probe", None, |id| {
        layers::probe_kernels(&model, &train_matrix, &scored, &tracer, id)
    })?;

    let spans = tracer.spans();
    let totals = trace::totals(&spans);
    layers::print_span_table(&totals);
    let root = &totals["train"];
    let layer_s = root.total_s - root.self_s;
    println!(
        "train_nids: traced train {:.4} s; layer self times {layer_s:.4} s = {:.3} of untraced train_s {untraced_train_s:.4} s",
        root.total_s,
        layer_s / untraced_train_s
    );
    layers::set_layer_metrics(out, &totals, &model, test.len());
    out.set("trace.overhead_frac", (root.total_s - untraced_train_s) / untraced_train_s);
    out.set("trace.coverage", layer_s / untraced_train_s);
    let path = run
        .work
        .parent()
        .expect("work dir has a parent")
        .join(format!("trace-train_nids-{}.tsv", run.seed));
    trace::write_spans(&path, &spans)?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}
