// Command gen-data generates a synthetic dataset and writes it to a
// JSON (optionally gzip-compressed) file so experiments can be re-run
// against a fixed copy.
//
// Example:
//
//	gen-data -preset kitti -seed 1 -o kitti-sim.json.gz
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/video"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gen-data: ")

	preset := flag.String("preset", "kitti", "world preset: "+strings.Join(video.PresetNames(), " | "))
	seqs := flag.Int("seqs", 0, "override sequence count (0 = preset default)")
	frames := flag.Int("frames", 0, "override frames per sequence (0 = preset default)")
	seed := flag.Int64("seed", 1, "world seed")
	out := flag.String("o", "dataset.json.gz", "output path (.gz for compression)")
	flag.Parse()

	p, err := video.PresetByName(*preset)
	if err != nil {
		log.Fatal(err) // carries the full valid-name list
	}
	if *seqs > 0 {
		p.NumSequences = *seqs
	}
	if *frames > 0 {
		p.FramesPerSeq = *frames
	}

	ds := video.Generate(p, *seed)
	if err := ds.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := ds.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d sequences, %d frames (%d labeled), %d objects\n",
		*out, len(ds.Sequences), ds.NumFrames(), ds.NumLabeledFrames(), ds.NumObjects())
}
