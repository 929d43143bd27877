package ops

import (
	"fmt"
	"slices"
)

// CostModel is the interface both detector families implement: full-frame
// cost and selected-region cost (covered area fraction plus an explicit
// proposal count for models with per-RoI heads).
type CostModel interface {
	FullFrameOps(w, h int) float64
	RegionOps(w, h int, coveredFrac float64, nProposals int) float64
}

// Image resolutions of the two evaluation datasets.
const (
	KITTIWidth  = 1242
	KITTIHeight = 375

	CityPersonsWidth  = 2048
	CityPersonsHeight = 1024
)

// Published full-frame operation anchors from the paper, in Gops, used to
// calibrate the analytic models. Sources: Table 1 (proposal nets),
// Table 2 + Table 6 (ResNet-50 at both resolutions), Table 5 (VGG-16),
// Table 8 (RetinaNet).
var paperAnchors = map[string][]OpsAnchor{
	"resnet18":  {{W: KITTIWidth, H: KITTIHeight, Ops: 138.3 * Giga}},
	"resnet10a": {{W: KITTIWidth, H: KITTIHeight, Ops: 20.7 * Giga}},
	"resnet10b": {{W: KITTIWidth, H: KITTIHeight, Ops: 7.5 * Giga}},
	"resnet10c": {{W: KITTIWidth, H: KITTIHeight, Ops: 4.5 * Giga}},
	"resnet50": {
		{W: KITTIWidth, H: KITTIHeight, Ops: 254.3 * Giga},
		{W: CityPersonsWidth, H: CityPersonsHeight, Ops: 597 * Giga},
	},
	"vgg16":           {{W: KITTIWidth, H: KITTIHeight, Ops: 179 * Giga}},
	"retinanet-res50": {{W: KITTIWidth, H: KITTIHeight, Ops: 96.7 * Giga}},
}

// NewCostModel returns the calibrated cost model for a named detector.
// Known names: resnet18, resnet10a, resnet10b, resnet10c, resnet50,
// vgg16 (Faster R-CNN family) and retinanet-res50.
func NewCostModel(name string) (CostModel, error) {
	var m interface {
		CostModel
		Calibrate([]OpsAnchor)
	}
	switch name {
	case "resnet50":
		m = NewFasterRCNN(BuildResNet50())
	case "vgg16":
		m = NewFasterRCNN(BuildVGG16())
	case "retinanet-res50":
		m = NewRetinaNet(BuildResNet50())
	default:
		i := slices.IndexFunc(Table1Specs, func(s SmallResNetSpec) bool { return s.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("ops: unknown model %q", name)
		}
		m = NewFasterRCNN(BuildSmallResNet(Table1Specs[i]))
	}
	m.Calibrate(paperAnchors[name])
	return m, nil
}

// MustCostModel is NewCostModel for static names; it panics on error.
func MustCostModel(name string) CostModel {
	m, err := NewCostModel(name)
	if err != nil {
		panic(err)
	}
	return m
}

// ModelNames lists every model the zoo can build, in a stable order.
func ModelNames() []string {
	return []string{"resnet18", "resnet10a", "resnet10b", "resnet10c", "resnet50", "vgg16", "retinanet-res50"}
}

// Gops converts raw operations to the paper's Gops unit.
func Gops(rawOps float64) float64 { return rawOps / Giga }
