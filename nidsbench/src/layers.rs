//! The library's training and batch-detection paths taken apart into
//! their public layer calls, each inside its own span.  Traced runs use
//! these in place of the one-call forms so the trace shows where the time
//! of `DetectorBuilder::train` and `Detector::detect_batch` goes.

use crate::report::Outcome;
use crate::trace::{NameTotals, SpanId, Tracer};
use cyberhd::{CyberHdConfig, CyberHdModel, CyberHdTrainer, Detector, DetectorBuilder, Verdict};
use hdc::encoder::Encoder;
use hdc::BatchView;
use nids_data::{Dataset, Normalization, Preprocessor};
use std::collections::BTreeMap;

pub type BoxError = Box<dyn std::error::Error>;

/// The training knobs a workload sets; everything else stays at the
/// builder's defaults (serial training, RBF encoder, min-max scaling).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub dimension: usize,
    pub retrain_epochs: usize,
    pub regeneration_rate: f32,
    pub seed: u64,
}

impl Shape {
    pub fn builder(&self) -> DetectorBuilder {
        Detector::builder()
            .dimension(self.dimension)
            .retrain_epochs(self.retrain_epochs)
            .regeneration_rate(self.regeneration_rate)
            .seed(self.seed)
    }
}

/// `DetectorBuilder::train` for a dense closed-set artifact, one layer
/// call at a time: fit the preprocessor, transform the corpus, train.
pub fn train(
    shape: Shape,
    dataset: &Dataset,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(Preprocessor, Vec<f32>, CyberHdModel), BoxError> {
    let preprocessor = tracer
        .time("preprocess.fit", parent, |_| Preprocessor::fit(dataset, Normalization::MinMax))?;
    let matrix = tracer
        .time("preprocess.transform_matrix", parent, |_| preprocessor.transform_matrix(dataset))?;
    let width = preprocessor.output_width();
    let model = tracer.time("trainer.fit_view", parent, |_| -> Result<CyberHdModel, BoxError> {
        let config = CyberHdConfig::builder(width, dataset.num_classes())
            .dimension(shape.dimension)
            .retrain_epochs(shape.retrain_epochs)
            .regeneration_rate(shape.regeneration_rate)
            .seed(shape.seed)
            .build()?;
        let view = BatchView::new(&matrix, width)?;
        Ok(CyberHdTrainer::new(config)?.fit_view(view, dataset.labels())?)
    })?;
    Ok((preprocessor, matrix, model))
}

/// `Detector::detect_batch`, one layer call at a time.
pub fn detect(
    detector: &Detector,
    records: &[Vec<f32>],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Verdict>, BoxError> {
    let preprocessor = detector.preprocessor();
    let matrix = tracer.time("preprocess.transform_records_matrix", parent, |_| {
        preprocessor.transform_records_matrix(records)
    })?;
    let view = BatchView::new(&matrix, preprocessor.output_width())?;
    Ok(tracer.time("detector.detect_view", parent, |_| detector.detect_preprocessed(view))?)
}

/// Kernel-level probes on a trained model: one batch encode of the
/// training matrix, and one batch scoring of the scored flows' encodings
/// against the class memory.
pub fn probe_kernels(
    model: &CyberHdModel,
    train_matrix: &[f32],
    scored_matrix: &[f32],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(), BoxError> {
    let encoder = model.encoder();
    let width = encoder.input_features();
    let dim = encoder.output_dim();
    let train_view = BatchView::new(train_matrix, width)?;
    let mut encoded = vec![0f32; train_view.rows() * dim];
    tracer.time("encoder.encode_batch_into", parent, |_| {
        encoder.encode_batch_into(train_view, &mut encoded)
    })?;

    let scored_view = BatchView::new(scored_matrix, width)?;
    let mut queries = vec![0f32; scored_view.rows() * dim];
    encoder.encode_batch_into(scored_view, &mut queries)?;
    let memory = model.memory();
    let mut scores = vec![0f32; scored_view.rows() * memory.num_classes()];
    tracer.time("memory.similarities_batch", parent, |_| {
        memory.similarities_batch(&queries, &mut scores)
    })?;
    Ok(())
}

/// Whether two verdict lists are identical bit for bit.
pub fn same_verdicts(a: &[Verdict], b: &[Verdict]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.class == y.class
                && x.novel == y.novel
                && x.similarity.to_bits() == y.similarity.to_bits()
        })
}

/// Share of verdicts whose class is the ground-truth label.
pub fn accuracy(verdicts: &[Verdict], labels: &[usize]) -> f64 {
    let hits = verdicts.iter().zip(labels).filter(|(v, &l)| v.class == l).count();
    hits as f64 / verdicts.len().max(1) as f64
}

/// FNV-1a over a dataset's record bits and labels, to check that inputs
/// regenerated from the seed are identical.
pub fn digest(dataset: &Dataset) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (record, &label) in dataset.records().iter().zip(dataset.labels()) {
        record.iter().for_each(|v| eat(u64::from(v.to_bits())));
        eat(label as u64);
    }
    hash
}

/// Sets the per-layer metrics every workload reports from its trace and
/// from the decomposed model's training report.
///
/// `kernel.dot_ops` and `kernel.bytes` are computed from tensor sizes, not
/// measured: the multiply-adds and f32 bytes read by the dense encode
/// (rows × width × dim) and scoring (rows × classes × dim) of the
/// `scored_rows` flows the workload scores.
pub fn set_layer_metrics(
    outcome: &mut Outcome,
    totals: &BTreeMap<&'static str, NameTotals>,
    model: &CyberHdModel,
    scored_rows: usize,
) {
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    outcome.set("preprocess.fit_s", total("preprocess.fit"));
    outcome.set(
        "preprocess.transform_s",
        total("preprocess.transform_matrix") + total("preprocess.transform_records_matrix"),
    );
    outcome.set("encoder.encode_s", total("encoder.encode_batch_into"));
    outcome.set("trainer.fit_s", total("trainer.fit_view"));
    outcome.set("detector.detect_view_s", total("detector.detect_view"));
    outcome.set("memory.score_s", total("memory.similarities_batch"));
    let report = model.report();
    outcome.set("trainer.epochs", report.epoch_accuracy.len().saturating_sub(1) as f64);
    outcome.set("regeneration.dims_regenerated", report.regeneration.total_regenerated as f64);
    outcome.set("trainer.effective_dim", report.effective_dimension() as f64);
    let rows = scored_rows as f64;
    let width = model.encoder().input_features() as f64;
    let dim = model.dimension() as f64;
    let classes = model.num_classes() as f64;
    outcome.set("kernel.dot_ops", rows * (width + classes) * dim);
    outcome.set("kernel.bytes", 4.0 * (rows * width + width * dim + rows * dim + classes * dim));
}

/// Prints one line per span name: count, total and self time.
pub fn print_span_table(totals: &BTreeMap<&'static str, NameTotals>) {
    println!("trace: {:<40} {:>9} {:>12} {:>12}", "span", "count", "total_s", "self_s");
    for (name, t) in totals {
        println!("trace: {name:<40} {:>9} {:>12.6} {:>12.6}", t.count, t.total_s, t.self_s);
    }
}
