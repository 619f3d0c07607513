package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/pipeline"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{35, 20, 50, 40, 15}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	q1, med, q3 := quartiles([]float64{8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2 || med != 4 || q3 != 6 {
		t.Errorf("quartiles = %v %v %v, want 2 4 6", q1, med, q3)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(30)},
		{at(20), at(50)},   // overlaps the first: [10,50] counts once
		{at(90), at(120)},  // runs past the parent: only [90,100] counts
		{at(-10), at(5)},   // starts before the parent: only [0,5] counts
		{at(40), at(45)},   // nested inside another child
		{at(200), at(300)}, // outside the parent
	}
	if got, want := selfTime(parent, children), 45*time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("childless self time = %v", got)
	}
}

func TestRoundRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	var done []time.Time
	for i := 1; i <= 7; i++ {
		done = append(done, t0.Add(time.Duration(i)*time.Second))
	}
	// Rounds of 3: [0,3]s and (3,6]s; the seventh completion is partial.
	if got, want := roundRates(t0, done, 3), []float64{1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("rates = %v, want %v", got, want)
	}
}

func TestJobListIsSeeded(t *testing.T) {
	list := func(w *benchWorkload, seed uint64) []jobSpec {
		out := w.warm(seed)
		for k := 0; k < 3*w.roundLen; k++ {
			out = append(out, w.job(seed, k))
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, other := list(w, 7), list(w, 7), list(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different job lists", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w.name)
		}
	}
	seen := map[jobSpec]bool{}
	for k := 0; k < 3*44; k++ {
		s := missJob(3, k)
		if seen[s] {
			t.Fatalf("svc-miss job %d repeats an earlier spec", k)
		}
		seen[s] = true
	}
	distinct := map[jobSpec]bool{}
	for k := 0; k < 512; k++ {
		distinct[dupJob(3, k)] = true
	}
	if len(distinct) != dupLeaders {
		t.Errorf("svc-dup draws %d distinct specs, want %d", len(distinct), dupLeaders)
	}
}

func TestDispenserEndsOnWholeRounds(t *testing.T) {
	d := newDispenser(&benchWorkload{roundLen: 5, accuracyRounds: 2}, time.Now().Add(-time.Second))
	n := 0
	for {
		if _, ok := d.take(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("expired window issued %d ops, want 10", n)
	}
}

// goodStream is a 2-interval stream over the four structures.
func goodStream() string {
	var b strings.Builder
	for iv := 0; iv < 2; iv++ {
		for _, s := range []string{"iq", "reg", "fxu", "fpu"} {
			fmt.Fprintf(&b, `{"type":"interval","interval":{"structure":%q,"interval":%d,"start_cycle":0,"end_cycle":1,"avf":0.25,"failures":1,"injections":4}}`+"\n", s, iv)
		}
	}
	return b.String() + `{"type":"end","state":"done"}` + "\n"
}

func TestCheckStreamRejectsBadStreams(t *testing.T) {
	good := goodStream()
	if _, err := checkStream([]byte(good), 2); err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	lines := strings.SplitAfter(good, "\n")
	lines = lines[:len(lines)-1] // drop the empty tail after the last newline
	bad := map[string]string{
		"short":        strings.Join(append(append([]string{}, lines[1:len(lines)-1]...), lines[len(lines)-1]), ""),
		"unterminated": strings.Join(lines[:len(lines)-1], ""),
		"not done":     strings.Replace(good, `"state":"done"`, `"state":"failed"`, 1),
		"bad json":     strings.Replace(good, `"avf":0.25`, `"avf":`, 1),
		"out of order": strings.Replace(good, `"structure":"iq","interval":1`, `"structure":"iq","interval":3`, 1),
		"wrong length": good,
	}
	for name, s := range bad {
		intervals := 2
		if name == "wrong length" {
			intervals = 3
		}
		if _, err := checkStream([]byte(s), intervals); err == nil {
			t.Errorf("%s stream accepted", name)
		}
	}
}

// TestChecksFailOnCorruptedInput proves each output check can fail: it
// passes on the good input and fails once the input is corrupted.
func TestChecksFailOnCorruptedInput(t *testing.T) {
	stream := []byte(goodStream())
	flipped := append([]byte(nil), stream...)
	flipped[40] ^= 1
	if err := checkSameBytes(stream, stream); err != nil {
		t.Errorf("cache replay: identical streams rejected: %v", err)
	}
	if checkSameBytes(flipped, stream) == nil {
		t.Error("cache replay: corrupted stream accepted")
	}

	pts, err := checkStream(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ests []core.Estimate
	for _, p := range pts {
		s, err := pipeline.ParseStructure(p.Structure)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, core.Estimate{Structure: s, Interval: p.Interval, StartCycle: p.StartCycle,
			EndCycle: p.EndCycle, AVF: p.AVF, Failures: p.Failures, Injections: p.Injections})
	}
	if err := checkRecompute(pts, ests); err != nil {
		t.Errorf("recompute: matching estimates rejected: %v", err)
	}
	ests[3].AVF = 0.2500000001
	if checkRecompute(pts, ests) == nil {
		t.Error("recompute: changed AVF accepted")
	}
	if checkRecompute(pts[1:], ests) == nil {
		t.Error("recompute: missing point accepted")
	}

	series := func() []experiment.StructSeries {
		var out []experiment.StructSeries
		for _, s := range pipeline.PaperStructures {
			out = append(out, experiment.StructSeries{Structure: s, Online: []float64{0.1, 0.2}, Reference: []float64{0.15, 0.2}})
		}
		return out
	}
	if err := checkSameSeries(series(), series()); err != nil {
		t.Errorf("traced wiring: equal series rejected: %v", err)
	}
	diff := series()
	diff[2].Reference[1] = 0.21
	if checkSameSeries(diff, series()) == nil {
		t.Error("traced wiring: changed reference accepted")
	}

	res := &experiment.Result{Series: series()}
	if err := checkSeries(res, 2); err != nil {
		t.Errorf("sim shape: good result rejected: %v", err)
	}
	res.Series[0].Online[1] = 1.5
	if checkSeries(res, 2) == nil {
		t.Error("sim shape: AVF above 1 accepted")
	}
	if checkSeries(&experiment.Result{Series: series()}, 3) == nil {
		t.Error("sim shape: short series accepted")
	}

	if err := checkDropped(4, 4); err != nil {
		t.Errorf("spans: unchanged drop count rejected: %v", err)
	}
	if checkDropped(4, 5) == nil {
		t.Error("spans: dropped span accepted")
	}
}

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesAreDeclared(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, emitted []metricDef, names, units []string) {
		var want []string
		for i := range names {
			want = append(want, names[i]+" "+units[i])
		}
		var got []string
		for _, m := range emitted {
			if !name.MatchString(m.name) {
				t.Errorf("%s metric %q is not a valid name", kind, m.name)
			}
			got = append(got, m.name+" "+m.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics emitted %v, declared %v", kind, got, want)
		}
	}
	var names, units []string
	for _, m := range d.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range d.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)

	var wl []string
	for _, w := range d.Workloads {
		wl = append(wl, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		if !name.MatchString(w.name) {
			t.Errorf("workload %q is not a valid name", w.name)
		}
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(ours, wl) {
		t.Errorf("workloads %v, declared %v", ours, wl)
	}
}

// TestQuick runs every workload in both modes at about 1/50 size,
// building avfd, and checks that nothing failed and every declared
// metric is reported.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds avfd and runs every workload")
	}
	c := settings{root: "..", out: t.TempDir(), seed: 1, quick: true}
	runs := 0
	err := runQuick(context.Background(), c, func(w string, traced bool, res *result) {
		runs++
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s trace=%v: no %s", w, traced, d.name)
			}
		}
		if !traced {
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, d.name)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2*len(workloads) {
		t.Errorf("ran %d workload modes, want %d", runs, 2*len(workloads))
	}
}
