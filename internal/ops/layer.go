// Package ops provides the arithmetic-operation cost models CaTDet uses
// to report workload. The paper counts only the operations in
// convolutional and fully-connected layers (Section 6.3); we reproduce
// that by building each backbone layer-by-layer from the channel specs in
// Table 1 and counting multiply-accumulates analytically.
//
// Because the authors' exact RoI-head configurations are not fully
// specified, each cost model carries two calibration scales (feature-side
// and head-side) fitted to the paper's published full-frame operation
// counts; the scales are derived in zoo.go, and the resulting full-frame
// costs are listed in README.md, "Model zoo". All region- and
// proposal-dependent behaviour comes from the analytic structure, never
// from the anchors.
package ops

import "math"

// Kind discriminates the layer types the cost model understands.
type Kind int

// Layer kinds. Only Conv and FC contribute operations, matching the
// paper's counting rule; pooling layers only change spatial dimensions.
const (
	Conv Kind = iota
	FC
	MaxPool
	GlobalPool
)

// Layer describes one parameterized layer of a network.
type Layer struct {
	Name   string
	Kind   Kind
	Kernel int // spatial kernel size (k x k); ignored for FC/GlobalPool
	Stride int // spatial stride; ignored for FC/GlobalPool
	InCh   int
	OutCh  int // for FC: output features; InCh: input features
}

// Net is an ordered stack of layers with a name, evaluated on an input of
// arbitrary spatial size.
type Net struct {
	Name   string
	Layers []Layer
}

// OpsPerMAC converts multiply-accumulate counts into "operations" as the
// paper reports them (a MAC is a multiply plus an add).
const OpsPerMAC = 2.0

// Giga is the scale of the paper's reported numbers.
const Giga = 1e9

// Ops returns the operation count for one forward pass over a w-by-h
// input, in raw operations (not Gops). Spatial dimensions shrink with
// layer strides using ceiling division, the convention of padded convs.
func (n Net) Ops(w, h int) float64 {
	fw, fh := float64(w), float64(h)
	total := 0.0
	for _, l := range n.Layers {
		switch l.Kind {
		case Conv:
			if l.Stride > 1 {
				fw = math.Ceil(fw / float64(l.Stride))
				fh = math.Ceil(fh / float64(l.Stride))
			}
			macs := float64(l.Kernel*l.Kernel) * float64(l.InCh) * float64(l.OutCh) * fw * fh
			total += macs * OpsPerMAC
		case FC:
			total += float64(l.InCh) * float64(l.OutCh) * OpsPerMAC
		case MaxPool:
			if l.Stride > 1 {
				fw = math.Ceil(fw / float64(l.Stride))
				fh = math.Ceil(fh / float64(l.Stride))
			}
		case GlobalPool:
			fw, fh = 1, 1
		}
	}
	return total
}

// OutputStride returns the cumulative spatial stride of the stack.
func (n Net) OutputStride() int {
	s := 1
	for _, l := range n.Layers {
		if (l.Kind == Conv || l.Kind == MaxPool) && l.Stride > 1 {
			s *= l.Stride
		}
	}
	return s
}

// OutChannels returns the channel count produced by the last conv layer,
// or 0 when the stack has none.
func (n Net) OutChannels() int {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if n.Layers[i].Kind == Conv || n.Layers[i].Kind == FC {
			return n.Layers[i].OutCh
		}
	}
	return 0
}

// Concat returns a new Net consisting of n's layers followed by m's.
func (n Net) Concat(m Net) Net {
	out := Net{Name: n.Name + "+" + m.Name}
	out.Layers = append(append([]Layer{}, n.Layers...), m.Layers...)
	return out
}
