package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// streamDigests pins the first streamDigestInsts instructions of every
// profile at seed 1, scaled by 0.02 as the benchmark's simulator
// workloads run them (at that scale every profile switches phase within
// the window, so each phase's generator contributes). The digests were
// captured before the generator's dependency history was rewritten; any
// change to the synthesized streams changes every simulated figure.
const streamDigestInsts = 100_000

var streamDigests = map[string]string{
	"ammp":     "9b474ba136a9b15fc1ea4f3da2a18fb549932661684c041a072157fba274aec1",
	"art":      "a77254bf7cf769ce4db8ad1b48d3cc16a03161d9c6015b98537830a0e66ea2b5",
	"bzip2":    "6037149b96b51068319e0fdd755d807b1a89709dfc5b569294db9d21cecfbbf5",
	"equake":   "6081508c481c0724d3354269efe1676d0b8fd45d9de2753b01c593735578a818",
	"facerec":  "35d1c3571dc6c24d4ae765f6445650f7667432f63c08c617be19f667c715af59",
	"lucas":    "8fa2ef3f4287713024cb8893c5e7a8180cedd2d6436ca0a25ad0e8b073140a2c",
	"mesa":     "c496bcc636d60622cfa33584f36180b8170429b6f5ed4cf1144d2b393ebd45b8",
	"perlbmk":  "10ffe085bed7109b30b44cbb2b0fb34800ec74c05fa03467a47dd6c856ba4338",
	"sixtrack": "99851c283f69bb0d27385bc0ee8153b10726fbe8080d916f889951c70501c899",
	"swim":     "dfe7d83f56f03ecd13e19efb908bf70307012fe53466aa9eeac14b3c214b2149",
	"wupwise":  "4508796f764e664e7fd90334cd22daefde546d7b1cb4dbf3478c298e42911227",
}

// TestProfileStreamDigests hashes every field of every instruction.
func TestProfileStreamDigests(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		src := Scale(p, 0.02).MustSource(1)
		h := sha256.New()
		for i := 0; i < streamDigestInsts; i++ {
			in, ok := src.Next()
			if !ok {
				t.Fatalf("%s: stream ended after %d instructions", name, i)
			}
			fmt.Fprintf(h, "%d %d %d %d %d %d %t %d\n",
				in.PC, in.Class, in.Dst, in.Src1, in.Src2, in.Addr, in.Taken, in.Target)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != streamDigests[name] {
			t.Errorf("%s: stream digest %s, want %s", name, got, streamDigests[name])
		}
	}
}
