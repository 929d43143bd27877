// Command catdet runs one detection system over a synthetic (or saved)
// dataset and prints metrics and cost.
//
// Examples:
//
//	catdet -system catdet -proposal resnet10a -refinement resnet50
//	catdet -system single -refinement resnet50 -preset kitti -seqs 4
//	catdet -system cascaded -proposal resnet10b -refinement resnet50 -cthresh 0.2
//	catdet -data mydata.json.gz -system catdet -proposal resnet10a -refinement resnet50
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sim"
	"repro/internal/video"
)

// inspectModel prints per-layer operation reports for a backbone at
// KITTI resolution.
func inspectModel(name string) error {
	var b ops.Backbone
	switch name {
	case "resnet50":
		b = ops.BuildResNet50()
	case "vgg16":
		b = ops.BuildVGG16()
	default:
		found := false
		for _, spec := range ops.Table1Specs {
			if spec.Name == name {
				b = ops.BuildSmallResNet(spec)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown backbone %q", name)
		}
	}
	fmt.Printf("=== %s trunk (image pass) at %dx%d ===\n", name, ops.KITTIWidth, ops.KITTIHeight)
	b.Trunk.WriteReport(os.Stdout, ops.KITTIWidth, ops.KITTIHeight)
	fmt.Printf("\n=== %s head (per RoI) at %dx%d ===\n", name, b.RoISize, b.RoISize)
	b.Head.WriteReport(os.Stdout, b.RoISize, b.RoISize)
	if m, err := ops.NewCostModel(name); err == nil {
		fmt.Printf("\ncalibrated full-frame total: %.1f Gops (KITTI, 300 proposals)\n",
			ops.Gops(m.FullFrameOps(ops.KITTIWidth, ops.KITTIHeight)))
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("catdet: ")

	system := flag.String("system", "catdet", "system kind: single | cascaded | catdet")
	proposal := flag.String("proposal", "resnet10a", "proposal network (cascaded/catdet)")
	refinement := flag.String("refinement", "resnet50", "refinement network (or the single model)")
	preset := flag.String("preset", "kitti", "synthetic world: kitti | citypersons | mini")
	data := flag.String("data", "", "load a dataset JSON(.gz) instead of generating one")
	seqs := flag.Int("seqs", 0, "override sequence count (0 = preset default)")
	seed := flag.Int64("seed", 1, "world seed")
	cthresh := flag.Float64("cthresh", core.DefaultConfig().CThresh, "proposal output threshold (C-thresh)")
	tthresh := flag.Float64("tthresh", core.DefaultConfig().TrackThresh, "tracker input threshold")
	diffName := flag.String("difficulty", "hard", "evaluation difficulty: easy | moderate | hard")
	beta := flag.Float64("beta", 0.8, "precision level for the delay metric (mD@beta)")
	inspect := flag.String("inspect", "", "print a per-layer ops report for a backbone (resnet18|resnet10a|resnet10b|resnet10c|resnet50|vgg16) and exit")
	workers := flag.Int("workers", 0, "sequence-shard worker count (0 = GOMAXPROCS); results are identical for any value")
	flag.Parse()

	if *inspect != "" {
		if err := inspectModel(*inspect); err != nil {
			log.Fatal(err)
		}
		return
	}

	var ds *dataset.Dataset
	switch {
	case *data != "":
		var err error
		ds, err = dataset.LoadFile(*data)
		if err != nil {
			log.Fatal(err)
		}
	default:
		var p video.Preset
		switch *preset {
		case "kitti":
			p = video.KITTIPreset()
		case "citypersons":
			p = video.CityPersonsPreset()
		case "mini":
			p = video.MiniKITTIPreset()
		default:
			log.Fatalf("unknown preset %q", *preset)
		}
		if *seqs > 0 {
			p.NumSequences = *seqs
		}
		ds = video.Generate(p, *seed)
	}

	var diff dataset.Difficulty
	switch *diffName {
	case "easy":
		diff = dataset.Easy
	case "moderate":
		diff = dataset.Moderate
	case "hard":
		diff = dataset.Hard
	default:
		log.Fatalf("unknown difficulty %q", *diffName)
	}

	cfg := core.DefaultConfig()
	cfg.CThresh = *cthresh
	cfg.TrackThresh = *tthresh
	spec := sim.SystemSpec{
		Kind:       sim.SystemKind(*system),
		Proposal:   *proposal,
		Refinement: *refinement,
		Cfg:        cfg,
	}
	fmt.Fprintf(os.Stderr, "running %s on %s (%d frames)...\n", spec.Kind, ds.Name, ds.NumFrames())
	r, err := sim.Engine{Workers: *workers}.Run(spec, ds)
	if err != nil {
		log.Fatal(err)
	}
	ev := sim.Evaluate(ds, r, diff, *beta)

	fmt.Printf("system:        %s\n", r.SystemName)
	fmt.Printf("dataset:       %s (%d frames, %d labeled)\n", ds.Name, ds.NumFrames(), ds.NumLabeledFrames())
	fmt.Printf("difficulty:    %s\n", diff)
	fmt.Printf("ops/frame:     %.1f Gops\n", r.AvgGops())
	avg := r.AvgOps()
	if avg.Proposal > 0 {
		fmt.Printf("  proposal:    %.1f Gops\n", avg.Proposal/1e9)
		fmt.Printf("  refinement:  %.1f Gops (coverage %.0f%%, %.1f proposals/frame)\n",
			avg.Refinement/1e9, 100*r.AvgCoverage, r.AvgProposals)
	}
	fmt.Printf("mAP:           %.3f\n", ev.MAP)
	for _, c := range ds.Classes {
		fmt.Printf("  AP %-11s %.3f\n", c.String()+":", ev.PerClassAP[c])
	}
	if math.IsNaN(ev.MeanDelay) {
		fmt.Printf("mD@%.1f:        n/a (sparsely labeled dataset)\n", *beta)
	} else {
		fmt.Printf("mD@%.1f:        %.1f frames (threshold %.2f)\n", *beta, ev.MeanDelay, ev.Threshold)
		for _, c := range ds.Classes {
			fmt.Printf("  delay %-8s %.1f\n", c.String()+":", ev.PerClassDelay[c])
		}
	}
}
