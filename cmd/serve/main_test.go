package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/control"
	"repro/internal/sim"
	"repro/internal/video"
)

// TestPresetResolution pins the registry-backed preset lookup: every
// registered pack resolves, and an unknown name fails with an error
// that lists every valid choice (the old switch silently knew only
// three names and its error named none).
func TestPresetResolution(t *testing.T) {
	for _, name := range video.PresetNames() {
		if _, err := video.PresetByName(name); err != nil {
			t.Errorf("registered preset %q does not resolve: %v", name, err)
		}
	}
	_, err := video.PresetByName("dashcam")
	if err == nil {
		t.Fatal("unknown preset resolved")
	}
	for _, name := range video.PresetNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-preset error %q does not list %q", err, name)
		}
	}
}

// TestParseChaos pins the -chaos flag grammar.
func TestParseChaos(t *testing.T) {
	ch, err := parseChaos("dropout=30,len=0.6,renumber,jitter=0.15,skew=0.08,poison=0.04")
	if err != nil {
		t.Fatal(err)
	}
	want := serve.Chaos{
		DropoutRate: 30, DropoutMeanLen: 0.6, Renumber: true,
		FPSJitter: 0.15, ClockSkew: 0.08, PoisonRate: 0.04,
	}
	if ch != want {
		t.Errorf("parseChaos = %+v, want %+v", ch, want)
	}
	if ch, err := parseChaos(""); err != nil || ch != (serve.Chaos{}) {
		t.Errorf("empty spec: got %+v, %v; want zero chaos, nil", ch, err)
	}
	for _, bad := range []string{"dropout", "renumber=1", "rate=3", "jitter=fast"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos(%q) accepted a malformed spec", bad)
		}
	}
}

// TestParseAutoscale pins the -autoscale flag grammar: "" is off,
// "on" enables the defaults, and a k=v list sets each knob.
func TestParseAutoscale(t *testing.T) {
	a, err := parseAutoscale("min=0,max=2,interval=0.25,up-queue=4,down-idle=1,p99=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.Autoscale{Enabled: true, Min: 0, Max: 2, Interval: 0.25, UpQueue: 4, DownIdle: 1, P99: 0.5}
	if a != want {
		t.Errorf("parseAutoscale = %+v, want %+v", a, want)
	}
	if a, err := parseAutoscale(""); err != nil || a != (cluster.Autoscale{}) {
		t.Errorf("empty spec: got %+v, %v; want autoscaling off, nil", a, err)
	}
	if a, err := parseAutoscale("on"); err != nil || a != (cluster.Autoscale{Enabled: true}) {
		t.Errorf("\"on\": got %+v, %v; want enabled defaults, nil", a, err)
	}
	for _, bad := range []string{"min", "speed=2", "max=two", "max=1.5", "interval=soon", "p99=fast"} {
		if _, err := parseAutoscale(bad); err == nil {
			t.Errorf("parseAutoscale(%q) accepted a malformed spec", bad)
		}
	}
}

// TestParseList pins the comma-separated list grammar shared by
// -stream-fps, -priorities and -gpu-tiers.
func TestParseList(t *testing.T) {
	fps, err := parseList[float64]("stream-fps", "60, 12.5")
	if err != nil || !reflect.DeepEqual(fps, []float64{60, 12.5}) {
		t.Errorf("float list: got %v, %v", fps, err)
	}
	tiers, err := parseList[string]("gpu-tiers", "v100, k80")
	if err != nil || !reflect.DeepEqual(tiers, []string{"v100", "k80"}) {
		t.Errorf("name list: got %q, %v", tiers, err)
	}
	if empty, err := parseList[int]("priorities", ""); err != nil || empty != nil {
		t.Errorf("empty list: got %v, %v; want nil, nil", empty, err)
	}
	for _, bad := range []string{"1,x", "1.5", "2,,1"} {
		if _, err := parseList[int]("priorities", bad); err == nil || !strings.Contains(err.Error(), "priorities") {
			t.Errorf("parseList(%q) = %v, want an error naming the flag", bad, err)
		}
	}
}

// TestChaosKnobErrorsCarryFieldPaths pins that a chaos misconfiguration
// assembled from the flags surfaces as a Config.Validate field-path
// error, naming the knob to fix.
func TestChaosKnobErrorsCarryFieldPaths(t *testing.T) {
	ch, err := parseChaos("dropout=30,renumber")
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
	cfg := serve.Config{Spec: spec, Chaos: ch} // reconnect left at the rejecting default
	err = cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted renumbering chaos under the rejecting reconnect policy")
	}
	if !strings.Contains(err.Error(), "serve: Chaos.Renumber") {
		t.Errorf("error %q does not carry the Chaos.Renumber field path", err)
	}
}

// TestControllerFlagErrorsCarryFieldPaths pins that incoherent
// -controller / -control-tick combinations assembled from the flags
// surface as Config.Validate field-path errors naming the control
// knob to fix.
func TestControllerFlagErrorsCarryFieldPaths(t *testing.T) {
	spec := sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
	cases := []struct {
		name      string
		ctrl      string
		tick      float64
		wantField string
	}{
		{"tick without controller", "", 0.25, "serve: Control.Interval"},
		{"unknown controller", "pid", 0, "serve: Control.Kind"},
		{"removed nop controller", "nop", 0, "serve: Control.Kind"},
		{"negative tick", "baseline", -1, "serve: Control.Interval"},
	}
	for _, tc := range cases {
		cfg := serve.Config{
			Spec:    spec,
			Control: control.Config{Kind: control.Kind(tc.ctrl), Interval: tc.tick},
		}
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted -controller=%q -control-tick=%v", tc.name, tc.ctrl, tc.tick)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantField) {
			t.Errorf("%s: error %q does not carry field path %q", tc.name, err, tc.wantField)
		}
	}
	ok := serve.Config{
		Spec:    spec,
		Control: control.Config{Kind: control.KindBaseline, Interval: 0.1},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("-controller baseline -control-tick 0.1 rejected: %v", err)
	}
}

// TestParseFaults pins the failure-injection flag grammar: -kill and
// -revive take shard@t lists, -add-shard takes t or t:tier, and the
// scalars map straight onto the FaultPlan.
func TestParseFaults(t *testing.T) {
	plan, err := parseFaults("0@5,2@9.5", "0@12", "10:v100,20", 30, 4, "degrade")
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.FaultPlan{
		Faults: []cluster.Fault{
			{Time: 5, Kind: cluster.FaultKill, Shard: 0},
			{Time: 9.5, Kind: cluster.FaultKill, Shard: 2},
			{Time: 12, Kind: cluster.FaultRevive, Shard: 0},
			{Time: 10, Kind: cluster.FaultAddShard, Tier: "v100"},
			{Time: 20, Kind: cluster.FaultAddShard},
		},
		MTBF: 30, MTTR: 4, Failover: cluster.FailoverDegrade,
	}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("parseFaults = %+v, want %+v", plan, want)
	}
	empty, err := parseFaults("", "", "", 0, 0, "")
	if err != nil || empty.Enabled() {
		t.Errorf("no fault flags: got %+v, %v; want a disabled plan, nil", empty, err)
	}
	bad := []struct{ kill, revive, add string }{
		{kill: "0"},        // missing @t
		{kill: "a@5"},      // bad shard
		{kill: "0@fast"},   // bad time
		{revive: "1"},      // missing @t
		{add: "soon:v100"}, // bad time
	}
	for _, tc := range bad {
		if _, err := parseFaults(tc.kill, tc.revive, tc.add, 0, 0, ""); err == nil {
			t.Errorf("parseFaults(%q, %q, %q) accepted a malformed spec", tc.kill, tc.revive, tc.add)
		}
	}
}

// TestFaultFlagErrorsCarryFieldPaths pins that fault misconfigurations
// assembled from the flags surface as cluster.Config.Validate
// field-path errors naming the knob to fix.
func TestFaultFlagErrorsCarryFieldPaths(t *testing.T) {
	spec := sim.SystemSpec{Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig()}
	base := serve.Config{Spec: spec, Streams: 4}
	cases := []struct {
		name              string
		kill, revive, add string
		mtbf, mttr        float64
		failover          string
		wantField         string
	}{
		{name: "unknown failover", kill: "0@1", failover: "teleport", wantField: "Faults.Failover"},
		{name: "shard out of range", kill: "9@1", wantField: "Faults.Faults[0].Shard"},
		{name: "negative time", revive: "0@-2", wantField: "Faults.Faults[0].Time"},
		{name: "unknown tier", add: "1:tpu", wantField: "Faults.Faults[0].Tier"},
		{name: "negative mtbf", mtbf: -1, wantField: "Faults.MTBF"},
		{name: "negative mttr", mtbf: 2, mttr: -1, wantField: "Faults.MTTR"},
	}
	for _, tc := range cases {
		plan, err := parseFaults(tc.kill, tc.revive, tc.add, tc.mtbf, tc.mttr, tc.failover)
		if err != nil {
			t.Fatalf("%s: grammar rejected %v", tc.name, err)
		}
		cfg := cluster.Config{Base: base, Shards: 2, Faults: plan}
		err = cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the plan %+v", tc.name, plan)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantField) {
			t.Errorf("%s: error %q does not carry field path %q", tc.name, err, tc.wantField)
		}
	}
	plan, err := parseFaults("0@5", "0@8", "", 0, 0, "replay")
	if err != nil {
		t.Fatal(err)
	}
	ok := cluster.Config{Base: base, Shards: 2, Faults: plan}
	if err := ok.Validate(); err != nil {
		t.Errorf("-kill 0@5 -revive 0@8 -failover replay rejected: %v", err)
	}
}
