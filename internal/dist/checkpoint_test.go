package dist

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/nn"
)

// TestCheckpointWireRoundTrip pins the binary format: a checkpoint
// survives serialisation bit-for-bit, including empty residual slots,
// and the file-level save is atomic-replace (a second save overwrites
// cleanly).
func TestCheckpointWireRoundTrip(t *testing.T) {
	c := &Checkpoint{
		Step: 7, Seed: 42, Workers: 3, FirstWorker: 1,
		Weights:   []float64{0.5, -1.25, 3e-17, 0},
		Residuals: [][]float64{{1, 2}, nil, {-0.125}},
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != c.Step || got.Seed != c.Seed || got.Workers != c.Workers || got.FirstWorker != c.FirstWorker {
		t.Fatalf("header mismatch: %+v vs %+v", got, c)
	}
	for i := range c.Weights {
		if got.Weights[i] != c.Weights[i] {
			t.Fatalf("weight[%d] = %v, want %v (must be bitwise)", i, got.Weights[i], c.Weights[i])
		}
	}
	if len(got.Residuals) != len(c.Residuals) {
		t.Fatalf("%d residual slots, want %d", len(got.Residuals), len(c.Residuals))
	}
	for w, r := range c.Residuals {
		if len(got.Residuals[w]) != len(r) {
			t.Fatalf("worker %d residual has %d elements, want %d", w, len(got.Residuals[w]), len(r))
		}
		for i := range r {
			if got.Residuals[w][i] != r[i] {
				t.Fatalf("worker %d residual[%d] = %v, want %v", w, i, got.Residuals[w][i], r[i])
			}
		}
	}

	path := filepath.Join(t.TempDir(), "ck")
	if err := SaveCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	c2 := *c
	c2.Step = 8
	if err := SaveCheckpoint(path, &c2); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Step != 8 {
		t.Fatalf("loaded step %d, want the overwriting save's 8", loaded.Step)
	}

	if _, err := ReadCheckpoint(bytes.NewReader([]byte("NOTMAGIC________"))); err == nil {
		t.Fatal("garbage input should fail the magic check")
	}
}

// TestResumeBitIdentical is the checkpoint guarantee itself: a run that
// checkpoints at step k and resumes in a fresh trainer must produce
// exactly — bitwise — the losses and final weights of a run that never
// stopped, within the documented scope (stateless optimizer, EC-only
// compressor state) — which the SIDCo estimators and RedSync are inside:
// their thresholds follow each step's own vector, so the residual is all
// they carry.
func TestResumeBitIdentical(t *testing.T) {
	for _, comp := range []string{"topk", "redsync", "sidco-e", "sidco-gp", "sidco-p"} {
		t.Run(comp, func(t *testing.T) { resumeBitIdentical(t, comp) })
	}
}

func resumeBitIdentical(t *testing.T, comp string) {
	const workers, total, cut = 3, 6, 3
	const seed = 11

	ref := convTrainer(t, workers, comp, 0.01, true, seed, nil)
	wantLosses, _, err := ref.Run(total)
	if err != nil {
		t.Fatal(err)
	}
	wantW := nn.FlattenWeights(ref.Params(), nil)

	// First half, then checkpoint through the file format.
	first := convTrainer(t, workers, comp, 0.01, true, seed, nil)
	if _, _, err := first.Run(cut); err != nil {
		t.Fatal(err)
	}
	ck, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resume.ck")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Step != cut {
		t.Fatalf("checkpoint at step %d, want %d", loaded.Step, cut)
	}

	// Second half in a fresh trainer, as a restarted process would.
	resumed := convTrainer(t, workers, comp, 0.01, true, seed, nil)
	if err := resumed.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if resumed.Iter() != cut {
		t.Fatalf("resumed trainer at iter %d, want %d", resumed.Iter(), cut)
	}
	for it := cut; it < total; it++ {
		loss, err := resumed.Step()
		if err != nil {
			t.Fatal(err)
		}
		if loss != wantLosses[it] {
			t.Fatalf("resumed loss[%d] = %v, uninterrupted run says %v (must be bit-identical)",
				it, loss, wantLosses[it])
		}
	}
	gotW := nn.FlattenWeights(resumed.Params(), nil)
	for i := range wantW {
		if gotW[i] != wantW[i] {
			t.Fatalf("resumed weight[%d] = %v, uninterrupted run says %v (must be bit-identical)",
				i, gotW[i], wantW[i])
		}
	}
}

// TestRestoreValidation pins Restore's compatibility checks: a
// checkpoint only fits a trainer built with the same topology and seed,
// and only before its first step.
func TestRestoreValidation(t *testing.T) {
	tr := convTrainer(t, 2, "topk", 0.01, true, 5, nil)
	if _, _, err := tr.Run(1); err != nil {
		t.Fatal(err)
	}
	ck, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	wrongSeed := convTrainer(t, 2, "topk", 0.01, true, 6, nil)
	if err := wrongSeed.Restore(ck); err == nil {
		t.Error("restore with a different seed should fail")
	}
	wrongWorkers := convTrainer(t, 3, "topk", 0.01, true, 5, nil)
	if err := wrongWorkers.Restore(ck); err == nil {
		t.Error("restore with a different worker count should fail")
	}
	stepped := convTrainer(t, 2, "topk", 0.01, true, 5, nil)
	if _, _, err := stepped.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := stepped.Restore(ck); err == nil {
		t.Error("restore after stepping should fail")
	}
}
