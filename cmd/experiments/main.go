// Command experiments is the offline command. With no mode flag it
// regenerates every table and figure of the CaTDet paper's evaluation
// section on the synthetic worlds; -system runs one detection system
// over one world, -inspect prints a backbone's per-layer ops and -save
// freezes a world to a file.
//
// Usage:
//
//	experiments                 # everything (takes a few minutes)
//	experiments -table 2        # one table (1-8); -figure 6 for one figure
//	experiments -seqs 8 -workers 8   # reduced KITTI world, 8 workers (same output)
//	experiments -system cascaded -proposal resnet10b -refinement resnet50 -cthresh 0.2
//	experiments -save kitti-sim.json.gz -preset kitti -seed 1
//	experiments -system catdet -data kitti-sim.json.gz
//	experiments -inspect resnet50
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sim"
	"repro/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, errShape) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errShape marks a report that fails its shape checks; the command
// exits 2 on it, 1 on every other error.
var errShape = errors.New("shape check violations")

// modes lists each job of the command with the flags it reads. A mode's
// first flag selects it, except the tables' (""): they run when no mode
// flag is set. Setting a flag the selected mode does not read is an
// error.
var modes = [...]struct {
	run   func(options, io.Writer) error
	flags []string
}{
	{runTables, []string{"", "table", "figure", "city-seqs", "ablations", "json", "seqs", "seed", "workers"}},
	{runSystem, []string{"system", "proposal", "refinement", "cthresh", "tthresh", "difficulty", "beta",
		"data", "preset", "seqs", "seed", "workers"}},
	{inspect, []string{"inspect"}},
	{save, []string{"save", "preset", "seqs", "frames", "seed"}},
}

// options holds every flag's value.
type options struct {
	table, figure, seqs, citySeqs, frames, workers int
	seed                                           int64
	ablations                                      bool
	json, system, proposal, refinement, preset     string
	data, difficulty, inspect, save                string
	beta                                           float64
	cfg                                            core.Config // -cthresh, -tthresh
}

// run parses args and does the one job they select, writing its report
// to stdout and progress to stderr.
func run(args []string, stdout io.Writer) error {
	var o options
	fs := newFlags(&o)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	m, err := selectMode(fs)
	if err != nil {
		return err
	}
	return modes[m].run(o, stdout)
}

// newFlags defines every flag of the command over o.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.IntVar(&o.table, "table", 0, "regenerate one table (1-8); 0 = all")
	fs.IntVar(&o.figure, "figure", 0, "regenerate one figure (6 or 7); 0 = all")
	fs.IntVar(&o.seqs, "seqs", 0, "override the sequence count of the generated world (tables: the KITTI world; 0 = preset default)")
	fs.IntVar(&o.citySeqs, "city-seqs", 0, "override the number of CityPersons snippets (0 = full preset)")
	fs.Int64Var(&o.seed, "seed", 1, "world seed")
	fs.BoolVar(&o.ablations, "ablations", false, "also run the tracker design ablations")
	fs.StringVar(&o.json, "json", "", "write the full machine-readable report (all tables and figures) to this path and exit")
	fs.IntVar(&o.workers, "workers", 0, "sequence-shard worker count (0 = GOMAXPROCS); results are identical for any value")
	fs.StringVar(&o.system, "system", "", "mode: run one system over one world: single | cascaded | catdet")
	fs.StringVar(&o.proposal, "proposal", "resnet10a", "proposal network (cascaded/catdet)")
	fs.StringVar(&o.refinement, "refinement", "resnet50", "refinement network (or the single model)")
	fs.StringVar(&o.preset, "preset", "kitti", "world preset for -system and -save: "+strings.Join(video.PresetNames(), " | "))
	fs.IntVar(&o.frames, "frames", 0, "override frames per sequence of the -save world (0 = preset default)")
	fs.StringVar(&o.data, "data", "", "run -system on a dataset JSON(.gz) instead of generating one")
	o.cfg = core.DefaultConfig()
	fs.Float64Var(&o.cfg.CThresh, "cthresh", o.cfg.CThresh, "proposal output threshold (C-thresh)")
	fs.Float64Var(&o.cfg.TrackThresh, "tthresh", o.cfg.TrackThresh, "tracker input threshold")
	fs.StringVar(&o.difficulty, "difficulty", "hard", "evaluation difficulty: easy | moderate | hard")
	fs.Float64Var(&o.beta, "beta", 0.8, "precision level for the delay metric (mD@beta)")
	fs.StringVar(&o.inspect, "inspect", "", "mode: print a per-layer ops report for a backbone (resnet18|resnet10a|resnet10b|resnet10c|resnet50|vgg16)")
	fs.StringVar(&o.save, "save", "", "mode: write the generated world to this path (.gz for compression)")
	return fs
}

// selectMode returns the index in modes of the mode the set flags
// select, rejecting two mode flags, a flag the mode does not read, and
// -data beside the flags of a generated world.
func selectMode(fs *flag.FlagSet) (int, error) {
	var set []string // lexical order, so the message is deterministic
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	m := 0
	for mm := 1; mm < len(modes); mm++ {
		if !slices.Contains(set, modes[mm].flags[0]) {
			continue
		}
		if m != 0 {
			return 0, fmt.Errorf("-%s and -%s are two modes; give one", modes[m].flags[0], modes[mm].flags[0])
		}
		m = mm
	}
	for _, name := range set {
		if slices.Contains(modes[m].flags, name) {
			continue
		}
		if m != 0 {
			return 0, fmt.Errorf("-%s cannot be combined with -%s", name, modes[m].flags[0])
		}
		var needs []string
		for _, md := range modes[1:] {
			if slices.Contains(md.flags, name) {
				needs = append(needs, "-"+md.flags[0])
			}
		}
		return 0, fmt.Errorf("-%s needs %s", name, strings.Join(needs, " or "))
	}
	if slices.Contains(set, "data") {
		for _, name := range []string{"preset", "seqs", "seed"} {
			if slices.Contains(set, name) {
				return 0, fmt.Errorf("-%s cannot be combined with -data", name)
			}
		}
	}
	return m, nil
}

// generate builds the named preset's world with the -seqs and -frames
// overrides (0 keeps the preset's own count).
func generate(name string, seqs, frames int, seed int64) (*dataset.Dataset, error) {
	p, err := video.PresetByName(name)
	if err != nil {
		return nil, err // carries the full valid-name list
	}
	if seqs > 0 {
		p.NumSequences = seqs
	}
	if frames > 0 {
		p.FramesPerSeq = frames
	}
	return video.Generate(p, seed), nil
}

// save freezes the generated world to o.save so runs can be repeated
// against a fixed copy.
func save(o options, stdout io.Writer) error {
	ds, err := generate(o.preset, o.seqs, o.frames, o.seed)
	if err != nil {
		return err
	}
	if err := ds.Validate(); err != nil {
		return err
	}
	if err := ds.SaveFile(o.save); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d sequences, %d frames (%d labeled), %d objects\n",
		o.save, len(ds.Sequences), ds.NumFrames(), ds.NumLabeledFrames(), ds.NumObjects())
	return nil
}

// inspect prints per-layer operation reports for a Faster R-CNN
// backbone at KITTI resolution.
func inspect(o options, stdout io.Writer) error {
	name := o.inspect
	m, err := ops.NewCostModel(name)
	frcnn, ok := m.(*ops.FasterRCNN)
	if err != nil || !ok {
		return fmt.Errorf("unknown backbone %q", name)
	}
	b := frcnn.Backbone
	fmt.Fprintf(stdout, "=== %s trunk (image pass) at %dx%d ===\n", name, ops.KITTIWidth, ops.KITTIHeight)
	b.Trunk.WriteReport(stdout, ops.KITTIWidth, ops.KITTIHeight)
	fmt.Fprintf(stdout, "\n=== %s head (per RoI) at %dx%d ===\n", name, b.RoISize, b.RoISize)
	b.Head.WriteReport(stdout, b.RoISize, b.RoISize)
	fmt.Fprintf(stdout, "\ncalibrated full-frame total: %.1f Gops (KITTI, 300 proposals)\n",
		ops.Gops(m.FullFrameOps(ops.KITTIWidth, ops.KITTIHeight)))
	return nil
}

// runSystem runs one detection system over the -data or generated
// world and prints its metrics and cost.
func runSystem(o options, stdout io.Writer) error {
	diff, ok := map[string]dataset.Difficulty{"easy": dataset.Easy, "moderate": dataset.Moderate, "hard": dataset.Hard}[o.difficulty]
	if !ok {
		return fmt.Errorf("unknown difficulty %q", o.difficulty)
	}
	var ds *dataset.Dataset
	var err error
	if o.data != "" {
		ds, err = dataset.LoadFile(o.data)
	} else {
		ds, err = generate(o.preset, o.seqs, 0, o.seed)
	}
	if err != nil {
		return err
	}
	spec := sim.SystemSpec{Kind: sim.SystemKind(o.system), Proposal: o.proposal, Refinement: o.refinement, Cfg: o.cfg}
	fmt.Fprintf(os.Stderr, "running %s on %s (%d frames)...\n", spec.Kind, ds.Name, ds.NumFrames())
	r, err := sim.Engine{Workers: o.workers}.Run(spec, ds)
	if err != nil {
		return err
	}
	ev := sim.Evaluate(ds, r, diff, o.beta)
	fmt.Fprintf(stdout, "system:        %s\n", r.SystemName)
	fmt.Fprintf(stdout, "dataset:       %s (%d frames, %d labeled)\n", ds.Name, ds.NumFrames(), ds.NumLabeledFrames())
	fmt.Fprintf(stdout, "difficulty:    %s\n", diff)
	fmt.Fprintf(stdout, "ops/frame:     %.1f Gops\n", r.AvgGops())
	avg := r.AvgOps()
	if avg.Proposal > 0 {
		fmt.Fprintf(stdout, "  proposal:    %.1f Gops\n", avg.Proposal/1e9)
		fmt.Fprintf(stdout, "  refinement:  %.1f Gops (coverage %.0f%%, %.1f proposals/frame)\n",
			avg.Refinement/1e9, 100*r.AvgCoverage, r.AvgProposals)
	}
	fmt.Fprintf(stdout, "mAP:           %.3f\n", ev.MAP)
	for _, c := range ds.Classes {
		fmt.Fprintf(stdout, "  AP %-11s %.3f\n", c.String()+":", ev.PerClassAP[c])
	}
	if math.IsNaN(ev.MeanDelay) {
		fmt.Fprintf(stdout, "mD@%.1f:        n/a (sparsely labeled dataset)\n", o.beta)
		return nil
	}
	fmt.Fprintf(stdout, "mD@%.1f:        %.1f frames (threshold %.2f)\n", o.beta, ev.MeanDelay, ev.Threshold)
	for _, c := range ds.Classes {
		fmt.Fprintf(stdout, "  delay %-8s %.1f\n", c.String()+":", ev.PerClassDelay[c])
	}
	return nil
}

// runTables regenerates the selected tables and figures (all of them by
// default), or with -json writes the whole report and shape-checks it.
func runTables(o options, stdout io.Writer) error {
	eng := sim.Engine{Workers: o.workers}
	worlds := map[string]*dataset.Dataset{}
	world := func(name string, seqs int) *dataset.Dataset {
		if worlds[name] == nil {
			ds, _ := generate(name, seqs, 0, o.seed) // a registered name cannot fail
			fmt.Fprintf(os.Stderr, "generated %s: %d frames (%d labeled), %d objects\n",
				ds.Name, ds.NumFrames(), ds.NumLabeledFrames(), ds.NumObjects())
			worlds[name] = ds
		}
		return worlds[name]
	}
	needKITTI := func() *dataset.Dataset { return world("kitti", o.seqs) }
	needCity := func() *dataset.Dataset { return world("citypersons", o.citySeqs) }

	if o.json != "" {
		rep := eng.RunAll(needKITTI(), needCity(), o.seed)
		f, err := os.Create(o.json)
		if err == nil {
			err = errors.Join(rep.WriteJSON(f), f.Close())
		}
		if err != nil {
			return err
		}
		if violations := rep.ShapeCheck(); len(violations) > 0 {
			return fmt.Errorf("%w:\n - %s", errShape, strings.Join(violations, "\n - "))
		}
		fmt.Fprintf(os.Stderr, "wrote %s; all shape checks passed\n", o.json)
		return nil
	}

	all := o.table == 0 && o.figure == 0
	for _, sec := range []struct {
		want  bool
		title string
		write func()
	}{
		{all || o.table == 1, "Table 1: proposal-net specs and full-frame ops (KITTI, 300 proposals)",
			func() { sim.WriteTable1(stdout, sim.Table1()) }},
		{all || o.table == 2, "Table 2: KITTI main results",
			func() { sim.WriteTable2(stdout, eng.Table2(needKITTI())) }},
		{all || o.table == 3, "Table 3: operation break-down (Gops)",
			func() { sim.WriteTable3(stdout, eng.Table3(needKITTI())) }},
		{all || o.table == 4, "Table 4: proposal-network study (KITTI Hard, refinement Res50)",
			func() { sim.WriteStudy(stdout, eng.Table4(needKITTI())) }},
		{all || o.table == 5, "Table 5: refinement-network study (KITTI Hard, proposal Res10b)",
			func() { sim.WriteStudy(stdout, eng.Table5(needKITTI())) }},
		{all || o.table == 6, "Table 6: CityPersons results",
			func() { sim.WriteTable6(stdout, eng.Table6(needCity())) }},
		{all || o.table == 7, "Table 7: estimated GPU-platform timing (Appendix I model)",
			func() { sim.WriteTable7(stdout, eng.Table7(needKITTI())) }},
		{all || o.table == 8, "Table 8: RetinaNet-based CaTDet (KITTI Moderate, Appendix II)",
			func() { sim.WriteStudy(stdout, eng.Table8(needKITTI())) }},
		{all || o.figure == 6, "Figure 6: mAP and mD@0.8 vs proposal C-thresh, with/without tracker",
			func() { sim.WriteFigure6(stdout, eng.Figure6(needKITTI(), nil)) }},
		{all || o.figure == 7, "Figure 7: recall & delay vs precision, per class",
			func() { sim.WriteFigure7(stdout, eng.Figure7(needKITTI()), needKITTI().Classes) }},
		{o.ablations, "Ablations: tracker design choices (not in the paper's tables)",
			func() { sim.WriteAblations(stdout, eng.Ablations(needKITTI())) }},
	} {
		if !sec.want {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s ===\n", sec.title)
		sec.write()
		fmt.Fprintf(stdout, "(%.1fs)\n\n", time.Since(start).Seconds())
	}
	return nil
}
