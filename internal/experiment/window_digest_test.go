package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"avfsim/internal/pipeline"
	"avfsim/internal/workload"
)

// windowModes are the run shapes whose SoftArch window is small enough to
// truncate ACE chains (DroppedMarks > 0), a regime the golden and engine
// digests, which run at the default window, never reach.
var windowModes = []struct {
	name string
	rc   RunConfig
}{
	{"classic-w128", RunConfig{Window: 128}},
	{"lanes64-w128", RunConfig{Window: 128, Lanes: 64}},
	{"classic-w1024", RunConfig{Window: 1024}},
}

// windowDigests holds one SHA-256 per mode/profile run, captured at
// commit 01f2ac8.
var windowDigests = map[string]string{
	"classic-w128/ammp":      "0d8f79d67b35a73087175f8eef6ab67acc142dbeb21a57fff0dcaa381d24de7e",
	"classic-w128/art":       "96bfbb151729ccec8e4a8607d759b3d6c9cd1b1e8e41f08dc15884b9d6d2d5f3",
	"classic-w128/bzip2":     "b0f61333e48c079cd742190db8c04b6c9d8df4ad17a463bf9d4aa9ab02900175",
	"classic-w128/equake":    "d3bf4fc13d4f5986f546ca4140bb543bca7e27f9719d19b83b30717789167aaf",
	"classic-w128/facerec":   "6f67b788c0056713e7e31aa52247eb4d0a276ebc97726226665341397c45cfcc",
	"classic-w128/lucas":     "59232aeb0dcb5e96b88f0ab3b8c4f5cef6f046bbdeafb763182a170904f58f6b",
	"classic-w128/mesa":      "7ab10dfc3a41efc1cbab893c3914d5f63ba1cb1e0e8f1f563dbe6ea485404f4a",
	"classic-w128/perlbmk":   "5cb07b9a46185e1ab8c38faa8b9487bceaf688d2a885adf02d71c894e2deed2c",
	"classic-w128/sixtrack":  "3e5d10f26c77d3d5c9fa8a3260d72cfd459e5d33d382fb9997817dd7e8953857",
	"classic-w128/swim":      "2a4fd27132008688179bd29b53caf4653acf283cad92db3b728dc14449e481cb",
	"classic-w128/wupwise":   "93481eb4fb290627442e67fd5969153510b7cce97edecb4e8cba2ef2ff9121b4",
	"lanes64-w128/ammp":      "5d9eeb727ccac4a6feff8561546a56dd341fb5d4bbc1c50fba0de5712fc02322",
	"lanes64-w128/art":       "fd787e8ce91d5faa2ccd00a1dd8eaf30d3634461c8582ba31853088c26a235b3",
	"lanes64-w128/bzip2":     "254370495d86e06488a6beac4029a742b7270a2e6a2d77246f307ffe1fd18671",
	"lanes64-w128/equake":    "53ca01eb663c95335021ed877bf3251f94caa65598fc5695acf9608d46e6c1f4",
	"lanes64-w128/facerec":   "c34b0fdc0afb5bbef2fdd51d263393bcb0072465e06c2d6f1ce9569cb72aca1b",
	"lanes64-w128/lucas":     "09a32e2804b3df7c9d96422e967de75ec5ec447f9cda12c98cbc0bec50047bec",
	"lanes64-w128/mesa":      "b6847eba67dfd6d65cb45efa09c3f6c1ca4cbfd3125cb132a2667615a9202d26",
	"lanes64-w128/perlbmk":   "844b66127d8d0eb526ca9972fa601d2b9f0b056b76e0c24ff7d4a8b45b8bc490",
	"lanes64-w128/sixtrack":  "86c1978ac5fbffad9b1ca5dd7f38f34a208100b39c6f15629708a826721b5e7f",
	"lanes64-w128/swim":      "7af870543fcfd6d5c59097871f3968223ae33ce12277a9245f38ec889b7f1009",
	"lanes64-w128/wupwise":   "7e323583a3fbf2da5579f9135f3e51d3a3f21b173e606726b9344716b1acaa00",
	"classic-w1024/ammp":     "9a6ac24208d8330bb3dd1e80318d02c8acb070579baec3008d31db6a14453f77",
	"classic-w1024/art":      "0dd4a4391e3e986e5a3df0f60a1b7eb4e4c662f5868a7df65d87172317d32e5c",
	"classic-w1024/bzip2":    "b0f61333e48c079cd742190db8c04b6c9d8df4ad17a463bf9d4aa9ab02900175",
	"classic-w1024/equake":   "b4138b1ec230d142cf7de632a6b1af26f14d4bb82015a3d6a458fad91edd943e",
	"classic-w1024/facerec":  "51d82ec4051ce438e8c987a34310858a03783a2ae8b326c334ca1eff72f10d87",
	"classic-w1024/lucas":    "70d6e66d87b74d398db11610c1bad9883c8a24983755ae69232494953eca393a",
	"classic-w1024/mesa":     "4ed928fd0586c0a0338520d8806006985e8dd9c342632688602538ba4906e69c",
	"classic-w1024/perlbmk":  "5cb07b9a46185e1ab8c38faa8b9487bceaf688d2a885adf02d71c894e2deed2c",
	"classic-w1024/sixtrack": "9d312caa3e1fccc6d399964f248585cf949a0c8c3aa9ea114366e9f2419a4a5c",
	"classic-w1024/swim":     "08083a1790bf372de4f5588a5f6af11ed3726eee1a2de317aeb5c48d6ec32ebb",
	"classic-w1024/wupwise":  "3d810ccb319a8e35a0b5c6b5e61eb9ce8304b04e7f296f2980b85b91c32a6589",
}

// allStructures lists all eight structures, the paper's four and the
// extensions.
func allStructures() []pipeline.Structure {
	structs := make([]pipeline.Structure, pipeline.NumStructures)
	for i := range structs {
		structs[i] = pipeline.Structure(i)
	}
	return structs
}

// windowDigest runs rc and hashes both series of every structure, the
// dropped marks and the SoftArch event count, returning the digest and
// the dropped marks.
func windowDigest(t *testing.T, rc RunConfig) (string, int64) {
	t.Helper()
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "dropped=%d events=%d\n", res.DroppedMarks, res.SoftArchEvents)
	for _, ss := range res.Series {
		fmt.Fprintf(&buf, "%s online=%v reference=%v\n", ss.Structure, ss.Online, ss.Reference)
	}
	return sha(buf.Bytes()), res.DroppedMarks
}

// TestWindowDigests pins the SoftArch reference where the node ring is
// small enough to truncate ACE chains: which marks are dropped, and what
// the truncated chains attribute, must not move. Every mode must drop
// some marks, or the regime is not exercised. Under the race detector,
// which slows these single-threaded digests tenfold and finds nothing in
// them that the other RunCtx tests do not reach, only the two profiles
// whose chains window 1024 truncates run.
func TestWindowDigests(t *testing.T) {
	structs := allStructures()
	profiles := workload.Names()
	if raceEnabled {
		profiles = []string{"facerec", "mesa"}
	}
	for _, m := range windowModes {
		var dropped int64
		for _, bench := range profiles {
			key := m.name + "/" + bench
			rc := m.rc
			rc.Benchmark, rc.Scale, rc.Seed = bench, 0.02, 1
			rc.M, rc.N, rc.Intervals = 1000, 100, 4
			rc.Structures = structs
			got, d := windowDigest(t, rc)
			dropped += d
			if want := windowDigests[key]; got != want {
				t.Errorf("%q: %q,", key, got)
			}
		}
		t.Logf("%s: %d dropped marks over %d profiles", m.name, dropped, len(profiles))
		if dropped == 0 {
			t.Errorf("%s dropped no marks; the truncation regime is not exercised", m.name)
		}
	}
}
