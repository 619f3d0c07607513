package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// readRuns reads result lines (the JSON objects the benchmark prints, one a
// line; other lines are skipped) from path.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compare prints, for every metric both files report, each side's
// median and quartiles and how many of the paired runs (line i of a
// against line i of b) b wins. It applies the rule for claiming a gain:
// b wins at least nine tenths of the pairs, ties counting for neither,
// and the medians differ by more than a's own quartile distance.
func compare(w io.Writer, root, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	better, err := directions(root)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("no result lines in %s or %s", pathA, pathB)
	}
	pairs := min(len(a), len(b))
	fmt.Fprintf(w, "%d runs in %s, %d in %s, %d pairs\n", len(a), pathA, len(b), pathB, pairs)
	var names []string
	for name := range a[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		va, vb := values(a, name), values(b, name)
		if len(vb) == 0 {
			continue
		}
		higher := better[name] == "higher"
		wins := 0
		for i := 0; i < pairs; i++ {
			x, y := a[i].Metrics[name].Value, b[i].Metrics[name].Value
			if (higher && y > x) || (!higher && y < x) {
				wins++
			}
		}
		q1a, ma, q3a := quartiles(va)
		q1b, mb, q3b := quartiles(vb)
		verdict := "no claim"
		if d := mb - ma; pairs > 0 && 10*wins >= 9*pairs && abs(d) > q3a-q1a && (d > 0) == higher {
			verdict = "gain"
		}
		fmt.Fprintf(w, "%-36s a %12.5g [%.5g, %.5g]  b %12.5g [%.5g, %.5g]  b wins %d/%d  %s\n",
			name, ma, q1a, q3a, mb, q1b, q3b, wins, pairs, verdict)
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// directions reads each metric's "better" from BENCHMARK.json.
func directions(root string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]string{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		out[m.Name] = m.Better
	}
	return out, nil
}
