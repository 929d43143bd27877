// Package catdet is the public API of the CaTDet reproduction: a
// cascaded, tracker-assisted video object detection system (Mao, Kong,
// Dally — "CaTDet: Cascaded Tracked Detector for Efficient Object
// Detection from Video", MLSYS 2019) together with the synthetic
// evaluation substrate used to reproduce the paper's experiments.
//
// The package exports the paper's surface and nothing else:
//
//   - building detection systems (single-model / cascaded / CaTDet) from
//     the calibrated model zoo;
//   - generating synthetic KITTI-like and CityPersons-like datasets;
//   - running systems over datasets and evaluating mAP and mean Delay;
//   - serving systems online through the push-based Server.
//
// The tables and figures are regenerated by cmd/experiments, and every
// serving mode (schedulers, chaos, the adaptive controller, the sharded
// cluster) is driven by cmd/serve; their engines live in the internal
// packages.
//
// Quick start:
//
//	ds := catdet.GenerateKITTI(1)
//	sys := catdet.MustSystem(catdet.SystemSpec{
//		Kind: catdet.CaTDet, Proposal: "resnet10a", Refinement: "resnet50",
//		Cfg: catdet.DefaultConfig(),
//	}, ds.Classes)
//	run := catdet.Run(sys, ds)
//	ev := catdet.Evaluate(ds, run, catdet.Hard, 0.8)
//	fmt.Printf("mAP=%.3f mD@0.8=%.1f at %.1f Gops/frame\n", ev.MAP, ev.MeanDelay, run.AvgGops())
package catdet

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/video"
)

// Re-exported data-model types.
type (
	// Dataset is a collection of labeled video sequences.
	Dataset = dataset.Dataset
	// Class is an object category (Car, Pedestrian).
	Class = dataset.Class
	// Difficulty is a KITTI evaluation difficulty level.
	Difficulty = dataset.Difficulty
)

// Re-exported system types.
type (
	// System is a causal video detector.
	System = core.System
	// Config holds the cascade hyper-parameters (C-thresh, tracker
	// input threshold, region margin).
	Config = core.Config
	// SystemSpec names a system to build.
	SystemSpec = sim.SystemSpec
	// SystemKind selects single-model, cascaded or CaTDet.
	SystemKind = sim.SystemKind
	// RunResult is the outcome of running a system over a dataset.
	RunResult = sim.RunResult
	// Evaluation bundles mAP and mean-Delay results.
	Evaluation = sim.Evaluation
	// Detector is a simulated detection model with a cost model.
	Detector = detector.Detector
	// WorldPreset describes a synthetic dataset generator.
	WorldPreset = video.Preset
)

// Classes.
const (
	Car        = dataset.Car
	Pedestrian = dataset.Pedestrian
)

// Difficulties.
const (
	Easy     = dataset.Easy
	Moderate = dataset.Moderate
	Hard     = dataset.Hard
)

// System kinds.
const (
	Single   = sim.Single
	Cascaded = sim.Cascaded
	CaTDet   = sim.CaTDet
)

// DefaultConfig returns the cascade settings used for the paper's main
// tables.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDetector builds a calibrated simulated detector from a zoo name:
// resnet50, vgg16, resnet18, resnet10a/b/c, retinanet-res50.
func NewDetector(name string) (*Detector, error) { return detector.New(name) }

// ModelNames lists the zoo models.
func ModelNames() []string { return detector.ProfileNames() }

// MustSystem builds a detection system from a spec, panicking on
// unknown model names.
func MustSystem(spec SystemSpec, classes []Class) System { return spec.MustBuild(classes) }

// NewSystem builds a detection system from a spec.
func NewSystem(spec SystemSpec, classes []Class) (System, error) { return spec.Build(classes) }

// KITTIPreset returns the synthetic KITTI-like world preset.
func KITTIPreset() WorldPreset { return video.KITTIPreset() }

// CityPersonsPreset returns the synthetic CityPersons-like preset.
func CityPersonsPreset() WorldPreset { return video.CityPersonsPreset() }

// MiniKITTIPreset returns a small fast preset for demos and tests.
func MiniKITTIPreset() WorldPreset { return video.MiniKITTIPreset() }

// PresetNames lists every registered scenario pack, sorted — the valid
// arguments to PresetByName (and cmd/serve's -preset flag).
func PresetNames() []string { return video.PresetNames() }

// PresetByName resolves a registered scenario pack (kitti, crowd,
// highway, drone, night, sports, ...); an unknown name fails with an
// error listing every valid choice.
func PresetByName(name string) (WorldPreset, error) { return video.PresetByName(name) }

// Generate builds the synthetic dataset for a preset and seed.
func Generate(p WorldPreset, seed int64) *Dataset { return video.Generate(p, seed) }

// GenerateKITTI builds the full KITTI-sim dataset (21 sequences, ~8000
// frames).
func GenerateKITTI(seed int64) *Dataset { return video.Generate(video.KITTIPreset(), seed) }

// LoadDataset reads a dataset from a JSON (optionally .gz) file.
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// Run executes a system over a dataset sequence by sequence, resetting
// per-sequence state in between (tracker state never crosses clips).
func Run(sys System, ds *Dataset) *RunResult {
	r, _ := sim.Engine{Workers: 1}.RunFactory(func() (System, error) { return sys, nil }, ds) // the factory cannot fail
	return r
}

// RunParallel executes the spec over the dataset sharded across workers
// (0 = GOMAXPROCS). Each worker owns a private system instance; the
// merged result is byte-identical to Run for any worker count.
func RunParallel(spec SystemSpec, ds *Dataset, workers int) (*RunResult, error) {
	return sim.Engine{Workers: workers}.Run(spec, ds)
}

// Evaluate computes mAP and (for densely labeled datasets) mD@beta.
func Evaluate(ds *Dataset, r *RunResult, diff Difficulty, beta float64) Evaluation {
	return sim.Evaluate(ds, r, diff, beta)
}

// Online serving: a long-lived push-based Server modeling a fleet that
// serves N concurrent video streams (one private per-stream session
// each) against GPU executors priced by the Appendix I timing model.
// Callers push frames with Server.Submit, observe per-frame outcomes on
// a sink, poll live Server.Stats snapshots, and Drain for the
// cumulative ServeResult; Serve is the closed-loop driver replaying a
// preset arrival schedule. Scheduler, backpressure, chaos and control
// knobs are ServeConfig fields typed in internal/serve.
type (
	// ServeConfig describes one serving scenario (streams, arrival
	// process, executors, policies, sink).
	ServeConfig = serve.Config
	// ServeResult is the scenario outcome: per-stream and fleet
	// throughput, drop rate and p50/p95/p99 latency.
	ServeResult = serve.Result
	// Server is the long-lived push-based serving fleet.
	Server = serve.Server
	// ServeEvent is one per-frame outcome streamed to the config's
	// sink.
	ServeEvent = serve.Event
	// ServeSinkFunc adapts a function to the config's sink.
	ServeSinkFunc = serve.SinkFunc
	// ServeArrival is one frame offered to a Server.
	ServeArrival = serve.Arrival
)

// ServeEventServed marks a ServeEvent for a frame that was served.
const ServeEventServed = serve.EventServed

// NewServer builds a long-lived push-based serving fleet from a
// validated config. Frames are pushed with Submit(stream, frame,
// arriveAt) on the virtual clock; Drain runs the backlog dry and
// returns the cumulative ServeResult.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Serve runs one closed-loop online serving scenario on the virtual
// clock: it builds a Server, replays the config's preset arrival
// schedule through Submit, and drains. The same config (seed included)
// produces a byte-identical result at any executor count, any
// ServeConfig.StepWorkers fan-out and on any machine.
func Serve(cfg ServeConfig) (*ServeResult, error) { return serve.Run(cfg) }
