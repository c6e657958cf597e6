package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/model_figures.golden from this tree")

// TestModelFiguresGolden holds every figure that prices an iteration
// with the model (compute + compress latency + collective time) to the
// bytes recorded in testdata/model_figures.golden. A change to the
// model, the workload catalog or a compressor's selections moves them;
// regenerate with `go test -run TestModelFiguresGolden -update
// ./internal/harness` and list what moved.
func TestModelFiguresGolden(t *testing.T) {
	opt := Options{Iters: 3, SimScale: 10000, Seed: 1}
	figs := []struct {
		name string
		f    func(io.Writer) error
	}{
		{"fig1", func(w io.Writer) error { return Fig1(w, opt) }},
		{"fig9", func(w io.Writer) error { return Fig9(w, opt) }},
		{"fig10", func(w io.Writer) error { return Fig10(w, opt) }},
		{"fig11", func(w io.Writer) error { return Fig11(w, opt) }},
		{"fig12", func(w io.Writer) error { return Fig12(w, opt) }},
		{"fig13", func(w io.Writer) error { return Fig13(w, opt) }},
		{"fig14", func(w io.Writer) error { return Fig14And15(w, opt) }},
		{"fig16", func(w io.Writer) error { return Fig16And17(w, opt) }},
		{"fig18", func(w io.Writer) error { return Fig18(w, opt) }},
		{"topology", func(w io.Writer) error { return TopologyStudy(w, nil, "", opt) }},
		{"delta1", func(w io.Writer) error { return AblationDelta1(w, opt) }},
	}
	var got bytes.Buffer
	for _, fig := range figs {
		got.WriteString("== " + fig.name + "\n")
		if err := fig.f(&got); err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
	}
	path := filepath.Join("testdata", "model_figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("model figures differ from %s; first difference at byte %d", path, firstDiff(got.Bytes(), want))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
