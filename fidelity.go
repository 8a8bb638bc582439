// Package fidelity is the public API of this reproduction of "FIdelity:
// Efficient Resilience Analysis Framework for Deep Learning Accelerators"
// (MICRO 2020). FIdelity models hardware logic transient errors —
// single-cycle flip-flop bit-flips — in deep-learning inference accelerators
// as software fault models derived from high-level microarchitectural
// information via Reuse Factor Analysis, enabling RTL-accurate resilience
// analysis at software-fault-injection speed.
//
// Typical use:
//
//	fw, err := fidelity.New(fidelity.NVDLASmall())
//	res, err := fw.Analyze(ctx, "yolo", fidelity.FP16, fidelity.StudyOptions{
//	    Samples: 2000, Inputs: 4, Tolerance: 0.1, Seed: 1,
//	})
//	fmt.Printf("Accelerator FIT rate: %.2f (budget %.2f)\n",
//	    res.FIT.Total, fidelity.FFBudget())
//
// Campaigns are cancellable (cancel ctx), resumable (StudyOptions.Resume
// with a Checkpoint), and observable (StudyOptions.Telemetry); see the
// campaign and telemetry packages.
//
// The package re-exports the framework's building blocks: accelerator
// descriptions (accel), Reuse Factor Analysis (reuse), software fault
// models (faultmodel), FF activeness analysis (activeness), the FIT
// computation (fit), experiment campaigns (campaign), the cycle-level
// validation reference (rtlsim), and the workload zoo (model).
package fidelity

import (
	"context"

	"fidelity/internal/accel"
	"fidelity/internal/baseline"
	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/report"
	"fidelity/internal/reuse"
	"fidelity/internal/telemetry"
)

// Framework is a FIdelity instance bound to one accelerator design: the
// Fig 3 flow (fault models → injection campaign → Eq. 2 FIT), the Sec. IV
// validation and the Sec. VI comparisons over one Config.
type Framework struct {
	Config *Config
	Models []FaultModel
}

// Config is a high-level accelerator description: hardware configuration,
// scheduling parameters and FF census.
type Config = accel.Config

// StudyOptions parameterizes a resilience study (samples, inputs, metric
// tolerance, seed).
type StudyOptions = campaign.StudyOptions

// StudyResult is a study outcome: per-model masking probabilities and the
// Eq. 2 FIT rates.
type StudyResult = campaign.StudyResult

// ValidationReport summarizes a software-model-vs-golden-reference
// validation campaign.
type ValidationReport = campaign.ValidationReport

// BaselineOptions parameterizes the naive single-bit-flip baseline.
type BaselineOptions = baseline.Options

// BaselineResult is the naive technique's FIT estimate.
type BaselineResult = baseline.Result

// FITResult is an Accelerator_FIT_rate with per-class breakdown.
type FITResult = fit.Result

// Workload pairs a network with its dataset and correctness metric.
type Workload = model.Workload

// ReuseInput is the Algorithm 1 input set.
type ReuseInput = reuse.Input

// ReuseResult is the Algorithm 1 output: the reuse factor and faulty
// neurons.
type ReuseResult = reuse.Result

// UnitID identifies a compute unit in Reuse Factor Analysis inputs.
type UnitID = reuse.UnitID

// Neuron is a relative output-neuron coordinate (batch, h, w, channel).
type Neuron = reuse.Neuron

// FaultModel is one derived software fault model (a Table II row).
type FaultModel = faultmodel.Model

// Precision identifies a datapath number format.
type Precision = numerics.Precision

// Supported datapath precisions.
const (
	FP32  = numerics.FP32
	FP16  = numerics.FP16
	INT16 = numerics.INT16
	INT8  = numerics.INT8
)

// FFClass separates datapath FFs from local/global control FFs.
type FFClass = accel.FFClass

// FF classes for FIT-breakdown lookups (Result.ByClass keys).
const (
	DatapathClass      = accel.Datapath
	LocalControlClass  = accel.LocalControl
	GlobalControlClass = accel.GlobalControl
)

// New builds a FIdelity framework for an accelerator design, deriving its
// software fault models via Reuse Factor Analysis.
func New(cfg *Config) (*Framework, error) {
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	return &Framework{Config: cfg, Models: models}, nil
}

// Analyze runs the full Fig 3 flow for one workload: build the network at
// the requested precision, inject faults per software fault model, and
// compute the FIT rate. Cancelling ctx interrupts the campaign cleanly; see
// campaign.Study for checkpoint/resume semantics.
func (f *Framework) Analyze(ctx context.Context, netName string, prec Precision, opts StudyOptions) (*StudyResult, error) {
	w, err := model.Build(netName, prec, model.StudySeed)
	if err != nil {
		return nil, err
	}
	return campaign.Study(ctx, f.Config, w, opts)
}

// Validate runs the Sec. IV validation campaign on the Table III workloads.
func (f *Framework) Validate(samplesPerWorkload int, seed int64) (*ValidationReport, error) {
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		return nil, err
	}
	return campaign.Validate(f.Config, ws, samplesPerWorkload, seed)
}

// NaiveBaseline runs the naive single-bit-flip technique of Sec. VI for
// comparison. Cancelling ctx stops it between experiments.
func (f *Framework) NaiveBaseline(ctx context.Context, netName string, prec Precision, opts BaselineOptions) (*BaselineResult, error) {
	w, err := model.Build(netName, prec, model.StudySeed)
	if err != nil {
		return nil, err
	}
	return baseline.Run(ctx, f.Config, w, opts)
}

// Speedup measures the Sec. VI per-injection cost comparison.
func (f *Framework) Speedup(ctx context.Context, iters int, seed int64) ([]campaign.Speedup, error) {
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		return nil, err
	}
	return campaign.MeasureSpeedup(ctx, f.Config, ws, iters, seed)
}

// TableI renders the Reuse Factor Analysis summary (paper Table I).
func (f *Framework) TableI() *report.Table { return report.TableI() }

// TableII renders the derived software fault models (paper Table II).
func (f *Framework) TableII() *report.Table { return report.TableII(f.Config, f.Models) }

// NVDLASmall returns the paper's NVDLA case-study configuration (k² = 16
// MACs, t = 16 weight-hold cycles, Table II census).
func NVDLASmall() *Config { return accel.NVDLASmall() }

// AnalyzeReuse executes Reuse Factor Analysis (Algorithm 1) on a target FF
// description.
func AnalyzeReuse(in ReuseInput) (ReuseResult, error) { return reuse.Analyze(in) }

// DeriveModels derives an accelerator's software fault models (Table II).
func DeriveModels(cfg *Config) ([]FaultModel, error) { return faultmodel.Derive(cfg) }

// BuildWorkload constructs a named evaluation network ("inception",
// "resnet", "mobilenet", "yolo", "transformer", "rnn") at a precision.
func BuildWorkload(name string, prec Precision, seed int64) (*Workload, error) {
	return model.Build(name, prec, seed)
}

// WorkloadNames lists the available evaluation networks.
func WorkloadNames() []string { return model.Names() }

// FFBudget returns the ISO 26262 ASIL-D FIT budget apportioned to the
// accelerator's FFs (< 0.2 for NVDLA-class designs).
func FFBudget() float64 { return fit.FFBudget() }

// MemoryError is one corrupted on-chip-memory word (paper Sec. III-E).
type MemoryError = faultmodel.MemoryError

// MemoryPlan is the derived fault model for a set of memory errors.
type MemoryPlan = faultmodel.MemoryPlan

// SensitivityBounds recomputes a study's FIT under perturbed estimates of
// the FF count (±ffDelta) and activeness (±actDelta) without re-running
// injections — the paper's early-design sensitivity analysis.
func SensitivityBounds(ctx context.Context, cfg *Config, res *StudyResult, ffDelta, actDelta float64) (lo, hi float64, err error) {
	return campaign.SensitivityBounds(ctx, cfg, res, ffDelta, actDelta)
}

// Checkpoint is a resumable snapshot of an interrupted injection campaign
// (per-shard tallies, experiment cursors, and quarantine lists).
type Checkpoint = campaign.Checkpoint

// Interrupted is the error returned by Analyze when its context is
// cancelled mid-campaign; it carries the Checkpoint to resume from.
type Interrupted = campaign.Interrupted

// QuarantinedExperiment records one experiment the campaign supervisor
// removed after a framework failure (recovered panic or watchdog timeout);
// see StudyResult.Quarantined and StudyOptions.{ExperimentTimeout,
// FailureBudget}.
type QuarantinedExperiment = campaign.QuarantinedExperiment

// LoadCheckpoint reads a campaign checkpoint file for StudyOptions.Resume.
func LoadCheckpoint(path string) (*Checkpoint, error) { return campaign.LoadCheckpoint(path) }

// Collector aggregates campaign telemetry: experiment/outcome counters and
// per-phase wall-clock timings, observable concurrently via Snapshot.
type Collector = telemetry.Collector

// TelemetrySnapshot is a point-in-time view of a Collector.
type TelemetrySnapshot = telemetry.Snapshot

// NewCollector returns a telemetry collector for StudyOptions.Telemetry.
func NewCollector() *Collector { return telemetry.New() }

// RawFFFITPerMB is the paper's raw FF FIT rate (600 FIT/MB, soft errors).
const RawFFFITPerMB = fit.RawFFFITPerMB
