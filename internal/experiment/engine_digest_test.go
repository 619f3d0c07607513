package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"avfsim/internal/core"
	"avfsim/internal/flight"
	"avfsim/internal/microtel"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// TestEngineDigests pins every output of the online estimator, in every
// engine mode, with and without observers: the run's Stats, steps and
// three series; the estimates in OnInterval order; the per-structure
// pending count, latency distribution and the estimator's NextTick; the
// lifecycle records; the reconstructed flight traces; and the microtel
// coverage export. Classic, Multiplex and multi-lane runs all go through
// the same Algorithm 1 bookkeeping, so a change to that bookkeeping
// shows here in whichever mode it moves.
//
// The flight digest covers the reconstructed traces, not the raw event
// order, and the test fails if the ring dropped an event: traces
// reconstructed from a truncated stream depend on where the cut fell.

// engineModes are the estimator configurations the digests cover.
var engineModes = []struct {
	name string
	rc   RunConfig
}{
	{"classic", RunConfig{}},
	{"classic-random", RunConfig{RandomEntry: true, RandomSchedule: true}},
	{"classic-fpu-iq", RunConfig{Structures: []pipeline.Structure{pipeline.StructFPU, pipeline.StructIQ}}},
	{"multiplex", RunConfig{Multiplex: true}},
	{"multiplex-random", RunConfig{Multiplex: true, RandomEntry: true, RandomSchedule: true}},
	{"lanes64", RunConfig{Lanes: 64}},
	{"lanes16-random", RunConfig{Lanes: 16, RandomEntry: true, RandomSchedule: true}},
	{"lanes4", RunConfig{Lanes: 4}},
	{"lanes9-fpu-iq", RunConfig{Lanes: 9, Structures: []pipeline.Structure{pipeline.StructFPU, pipeline.StructIQ}}},
}

// engineProfiles are the workloads every mode runs on.
var engineProfiles = []string{"mesa", "bzip2", "art", "swim", "sixtrack"}

// engineDigests holds one SHA-256 per mode/profile/observers run,
// captured at commit e46903e, before classic and Multiplex runs moved
// onto the lane table.
var engineDigests = map[string]string{
	"classic/mesa/observed=false":              "c9d737eee30b24dc8cba17081a995f9bec5841b35721514b63158ef421c01560",
	"classic/mesa/observed=true":               "5f617df2ec86ab3994418ec90260346a3693efb2d7e0e16c873a8547dc228acf",
	"classic/bzip2/observed=false":             "ae170b8bf333ff508303dc118fd3926436412d35f3f5b3b846e4adbf1dc678d5",
	"classic/bzip2/observed=true":              "ff186ceb070f24069368dc85268c9c10ba97550cfb3fc9374ad80abce07ef2a0",
	"classic/art/observed=false":               "b9970526a5e7cd5885f5c1804e7282e310735e163b199767568abd95d3220aa3",
	"classic/art/observed=true":                "a3767a0a21ccdc7d993a22f5fd1e15384bd11ab7d23d2b68d2f40800a9204d9a",
	"classic/swim/observed=false":              "3e8ce21bc0a22222f1ef5dc8f76ab0ce20ac28ef0b57aa361cf2826cd2bbf87d",
	"classic/swim/observed=true":               "0888230f8f92ebfaddf27ee145f8a870851ed7c9ff6cfa9506ce8f81de90e3d0",
	"classic/sixtrack/observed=false":          "6e75b457cbd5298458959f1493237973f75b322e9fd1f55cdc0aeb149374c9a0",
	"classic/sixtrack/observed=true":           "8c5ea55ed4944207b244b680c046a0bd77a2f272351183e7021b4f58e6175dfc",
	"classic-random/mesa/observed=false":       "1ac56d9cf5a8be3b02f60da0e8eb3e8af11850f38110a61fdd715da02cfa6269",
	"classic-random/mesa/observed=true":        "c3e1c48adbdd8a7431e20482311d193ec0bbba39050715cabc80f7560aefa0cb",
	"classic-random/bzip2/observed=false":      "e0beb97cd915a28209083f1c2852684cbd61f82c544e3508a0849d0bd4e0f1ac",
	"classic-random/bzip2/observed=true":       "0f88d52a6f771849920eeb0ebb414e918e7e2bc9b0abc4e162a86ae31bc492e6",
	"classic-random/art/observed=false":        "9595223623fbf1b28059c3c2f0f2690c42b77cdd90c106626b256edf21f48af6",
	"classic-random/art/observed=true":         "b5d848e50aeb6f7e678ab584675ec478bd3dd516a8295fff92bac0c52603e384",
	"classic-random/swim/observed=false":       "6bbfb56f0e4872de2e9c2aa1ab512ce59a543859e4ac4482b009a13ab1e26511",
	"classic-random/swim/observed=true":        "82bed2b856b22ca841a9b7dc31aa3a141014c0a9a629a434ca14193b55209ba5",
	"classic-random/sixtrack/observed=false":   "0321e8a488bdd718d5289b72824f44bac6006d4f17bb826aa01c379e062ceb89",
	"classic-random/sixtrack/observed=true":    "2e333df70e4b822ff4b73d9258f9915695f75aea425b9cba5d0995a1716fe3a6",
	"classic-fpu-iq/mesa/observed=false":       "ec69011ca5fd49e83db8ee77266ec1ce0c3a383899f3b68ad4325ee4f736cd7d",
	"classic-fpu-iq/mesa/observed=true":        "065dfea9deba9f11a2c072bbf425817f39bfb3484aca814137de8d6fd7c07901",
	"classic-fpu-iq/bzip2/observed=false":      "eae2319135119bd42bae438c98946adeae5c08b629b7bc849b496fbb5843213b",
	"classic-fpu-iq/bzip2/observed=true":       "661af69b39b6a813dc293306582376966303eca167b016309444d44920fe12b7",
	"classic-fpu-iq/art/observed=false":        "7a6c6c420860e13763764d1a3329df852adbc6138045884301774ebf2a4bd0a6",
	"classic-fpu-iq/art/observed=true":         "f7cf45cf9121f0f495ec523f46a968f5b45d550d31c0bacf818fe7704ba3f2de",
	"classic-fpu-iq/swim/observed=false":       "847628389d61e931affe686bc826b97c9125c69a2a041ef105c456f5f24e331d",
	"classic-fpu-iq/swim/observed=true":        "cb6db290ad25214e41e0dc496529fd9f3049857ad064f53e56044b4d28c93ca5",
	"classic-fpu-iq/sixtrack/observed=false":   "aa9d226e613d6230271c0f9e7700de8a22a33993dabfbdf1e1dfd2a2b30dfc2c",
	"classic-fpu-iq/sixtrack/observed=true":    "fcd86bb53165c4d7934c91b21592ecfcf115fc3b1c8b0d4a2f10648d177526ac",
	"multiplex/mesa/observed=false":            "088587557b3df05abd69a7e3d901634f33629b7114ff0a2bfb5dad95ab16cb08",
	"multiplex/mesa/observed=true":             "45416c68f2084e47d9bd01725dc8e491db60eabcf01b2d562f76358cdebd329a",
	"multiplex/bzip2/observed=false":           "dc8c85de5017122cb890c80c7f19f645618d642cf484ca9c9d2dba48796d3e1b",
	"multiplex/bzip2/observed=true":            "ac7a8d0f96676ecde138bfc3feaa842c29e5b602d2f01a44185f26e5f71d4099",
	"multiplex/art/observed=false":             "4a06b59c03169b48a29acf9d1702275850c28ac2a03abb26d56e492c80e0d4a9",
	"multiplex/art/observed=true":              "3b9fd925ab5f81fda5d9715e519cb5d6dacdacc3ea7d0d14c2191097d02ddbb1",
	"multiplex/swim/observed=false":            "dcb8f5ed37d6c5f6e7c6d1fb3bf032353cc69690b20f08e4d87cfada90edbd1d",
	"multiplex/swim/observed=true":             "2ab58ca65a76317d9ec24a7492316949def70ee79c45c79b27f35007aa9e0fba",
	"multiplex/sixtrack/observed=false":        "2a168546c5addbd26851b5bbc48a96e1fa8082bc9e10a3d09eb5dc1a589c3c01",
	"multiplex/sixtrack/observed=true":         "fa2b97873bb53736d683e92e2f4d6898abdce364a32ccb9738792d1895f10f92",
	"multiplex-random/mesa/observed=false":     "42b7c20107e27ab1fdd0eee17608c4c0c225a24dac648f0193bff5b98d74a396",
	"multiplex-random/mesa/observed=true":      "7f3b3e0375554a705a2b6447f989b4522adec870451dcb36eaee133be8a6371b",
	"multiplex-random/bzip2/observed=false":    "e3136e690fe64a12e265e029fc5e39b876911daf714ecf844ae549faece019da",
	"multiplex-random/bzip2/observed=true":     "e868a85be491d3dcb6a80916e332fdf70f74b93f4f28b9ec9f0c500ce91bbe0b",
	"multiplex-random/art/observed=false":      "b2aae6b4b5717a2d9f662bab99c303d49f90db308537b3b17070b6c0188c5f1f",
	"multiplex-random/art/observed=true":       "6d84eef033daa4da4292318d2b9e7bcd96c4ad4ec7e1e48fd32418a86c46b623",
	"multiplex-random/swim/observed=false":     "5ab7fd0d5878dc67ddd8ab187253803e489f5d8a7fccef18ecd272f59e8c2aa7",
	"multiplex-random/swim/observed=true":      "a6b4b644e2525d319e6ba3f418787f536d9a0b16cb19d89eccab9dc95bebfc52",
	"multiplex-random/sixtrack/observed=false": "e9b65f29210d3e3d24cce69248496624acc5b6e694c3ae427cb4cdbb5c81b1d5",
	"multiplex-random/sixtrack/observed=true":  "9f2276ce69159bb33191fdeba3a8bcbd75f5c69a38f1188855a8568fdf096da9",
	"lanes64/mesa/observed=false":              "f978b12b04bf25940c1ae147d69b9add90bdbbb2fd18ee003851abcc5e396c95",
	"lanes64/mesa/observed=true":               "a5f2280ea2f4b67b23855ebcb69ae032623462f166759fbbd9ba795d712dc341",
	"lanes64/bzip2/observed=false":             "0e86106518b3484626dbc23462a0074a893a3ca36c41dd31428f7706468b8cc3",
	"lanes64/bzip2/observed=true":              "8a5ce20e319db0111969fad067534b1f4a3a49060e51e9ad4ae9c3ba8f30bd60",
	"lanes64/art/observed=false":               "bd99e79cb3411a47ea8af15fd361f298c4669fdd83182f71cc2b5e7e00c8c9f5",
	"lanes64/art/observed=true":                "925b3f181d72db2991fee4b9b9f10a64e6c2f4362fa35720732daa371813285e",
	"lanes64/swim/observed=false":              "4e9526c8d83d2afbe540ce7749e11105087ba08204b22a410e5026663e01e834",
	"lanes64/swim/observed=true":               "4d1699fac93553759363636056c60bdf73d88f9a120155c9d0fe23a00b6f3a3f",
	"lanes64/sixtrack/observed=false":          "93fcaaa6c2b5e4b00f6b7aa90a10cffbd7add731cc6899b4e40d051522367dd2",
	"lanes64/sixtrack/observed=true":           "bf16bb986f376abc297978979beff649e4420b0e0265f421f734ac44cc63da90",
	"lanes16-random/mesa/observed=false":       "1aedcf379ee3ea0ff7f992007ae21f7932d085b6bb970373dfcc7eade6876d27",
	"lanes16-random/mesa/observed=true":        "d8a9138eaab5c27baa2bddf50f49ef034cf2b7b42d44777f02073d877e7dc62a",
	"lanes16-random/bzip2/observed=false":      "5046c464df4a91a8608aa92b13cc1e02c2fd70cc31fb4608e2c96b8dcd1128b7",
	"lanes16-random/bzip2/observed=true":       "76888bac7647923a7d2e2e961775517d9ed12185bda1ead73045ded3c89427df",
	"lanes16-random/art/observed=false":        "8891811ff4390e70037c184fff39fc10da7e19cec19eafaa37817f709fec1a4f",
	"lanes16-random/art/observed=true":         "19115f360274280c234f7580f8f811ffec6ad6feacf70c62b7fd1c21563063e0",
	"lanes16-random/swim/observed=false":       "a29a614e576f484ae369e63f412eae634259572a8a4f4ab4d7bd7ce939c29e3e",
	"lanes16-random/swim/observed=true":        "338aa8f4191b2fa25539ce7065902979786f639c541f30ab6a8fb5d4f26830c0",
	"lanes16-random/sixtrack/observed=false":   "e86ff2c53d72ab0975ba0bfc050a814ad778f37737a55908321160ac84f7e5d5",
	"lanes16-random/sixtrack/observed=true":    "311f0254a3c272ac48d0898217722a1757bc5140f6d15a90454c73a8a5707baf",
	"lanes4/mesa/observed=false":               "c9d737eee30b24dc8cba17081a995f9bec5841b35721514b63158ef421c01560",
	"lanes4/mesa/observed=true":                "26b3fe77d4d3b4ea24a017a17437d197f86e53738a7e7d9db8a604e5caed6515",
	"lanes4/bzip2/observed=false":              "ae170b8bf333ff508303dc118fd3926436412d35f3f5b3b846e4adbf1dc678d5",
	"lanes4/bzip2/observed=true":               "5ccf20670e192320d8d159fb4f4a50dd8ec3a337599de87ff57b2ba401ae2264",
	"lanes4/art/observed=false":                "b9970526a5e7cd5885f5c1804e7282e310735e163b199767568abd95d3220aa3",
	"lanes4/art/observed=true":                 "b0348d932401c200ec69a784c60e93adc48801ff061047a6bc82fab0c290447c",
	"lanes4/swim/observed=false":               "3e8ce21bc0a22222f1ef5dc8f76ab0ce20ac28ef0b57aa361cf2826cd2bbf87d",
	"lanes4/swim/observed=true":                "c1fc1b9aca4c739f5f8b6ca9676b803b75aa5f4463df0064fa8405322187bfe2",
	"lanes4/sixtrack/observed=false":           "6e75b457cbd5298458959f1493237973f75b322e9fd1f55cdc0aeb149374c9a0",
	"lanes4/sixtrack/observed=true":            "f93137e81facb2f902ec797ee9135b7ed8240a621e7fbe50fa422ed755f4cb21",
	"lanes9-fpu-iq/mesa/observed=false":        "c18e6f42f42e3ae6e23cc1fe7c408f637d37085aa840be70015910cd536f753e",
	"lanes9-fpu-iq/mesa/observed=true":         "8eeaaf80a5fc0b3eb603a7b95deabba227ac585cbedfee1865ec0a44a3a004ce",
	"lanes9-fpu-iq/bzip2/observed=false":       "158e2074dd66ecf23f375a0c848804d576c705ac6bba5e1debe17a17588194dc",
	"lanes9-fpu-iq/bzip2/observed=true":        "536e4bad68eb1dcd611405687f5583385cd286acfe87b1431874733d6fffbfe6",
	"lanes9-fpu-iq/art/observed=false":         "f2f355dc2a97c49c04476a51196fc7cc8f929655901df394ff482313ed5b6d60",
	"lanes9-fpu-iq/art/observed=true":          "7d603ce81d3d7e23d46d98e0c8c6d91b62724bd4c963974305545aa58600d079",
	"lanes9-fpu-iq/swim/observed=false":        "38aacd40a0ddab68ae00c5170c8547263e12e89acabf9d445a80806774278460",
	"lanes9-fpu-iq/swim/observed=true":         "8ef60529681024f44ce633ca83772a94c97e31ec6e6f996c1ba0dc3c691f1712",
	"lanes9-fpu-iq/sixtrack/observed=false":    "9a1b28411dbd86000d1868befb597df6ea6fe87ca7bd579d70ec1e1210b6bcd8",
	"lanes9-fpu-iq/sixtrack/observed=true":     "c57d002af7f16a9a3e267c069dc1f7e97ca0e6d1563e41884725fe62a537ac00",
}

// engineDigest runs one configuration and hashes everything it emits.
func engineDigest(t *testing.T, rc RunConfig, observed bool) string {
	t.Helper()
	var buf bytes.Buffer
	rc.OnInterval = func(e core.Estimate) { fmt.Fprintf(&buf, "est %+v\n", e) }
	var sink *recordingSink
	var rec *flight.Recorder
	var mt *microtel.Collector
	if observed {
		sink = &recordingSink{}
		rec = flight.New(1 << 17)
		mt = microtel.New(microtel.Config{})
		rc.Sink, rc.Recorder, rc.Microtel = sink, rec, mt
		rc.RecordLatency = true
	}
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	est := res.Estimator
	fmt.Fprintf(&buf, "stats=%+v steps=%d next=%d\n", res.Stats, res.Steps, est.NextTick())
	for _, ss := range res.Series {
		lat := est.Latencies(ss.Structure)
		fmt.Fprintf(&buf, "%s online=%v reference=%v util=%v pending=%d latencies=%d %v\n",
			ss.Structure, ss.Online, ss.Reference, ss.Utilization,
			est.PendingInjections(ss.Structure), lat.N(), lat.Points(lat.N()))
	}
	if observed {
		for _, r := range sink.recs {
			fmt.Fprintf(&buf, "rec %+v\n", r)
		}
		if d := rec.Dropped(); d != 0 {
			t.Fatalf("flight ring dropped %d events; enlarge it", d)
		}
		if err := rec.Traces().WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := mt.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return sha(buf.Bytes())
}

// recordingSink keeps every lifecycle record in emission order.
type recordingSink struct{ recs []obs.Injection }

func (s *recordingSink) RecordInjection(r obs.Injection) { s.recs = append(s.recs, r) }

func TestEngineDigests(t *testing.T) {
	for _, m := range engineModes {
		for _, bench := range engineProfiles {
			for _, observed := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/observed=%v", m.name, bench, observed)
				rc := m.rc
				rc.Benchmark, rc.Scale, rc.Seed = bench, 0.02, 3
				rc.M, rc.N, rc.Intervals = 150, 24, 3
				got := engineDigest(t, rc, observed)
				if want := engineDigests[key]; got != want {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}
