package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/compress"
	"repro/internal/nn"
)

// Checkpoint is the deterministic-resume state of a Trainer: everything
// a fresh process needs to continue training bit-identically to a run
// that never stopped. Weights are the flattened model parameters in
// parameter order; Residuals carries each local worker's error-feedback
// residual (empty when the worker runs without EC). RNG stream
// positions are not serialised — they are reconstructed on Restore by
// replaying the completed steps' batch draws, which is exact because a
// worker's draws depend only on its seeded stream, never on the
// weights.
//
// The guarantee is scoped to state the checkpoint actually captures:
// stateless optimizers (nn.SGD) and compressors whose only cross-step
// state is the EC residual: topk, threshold, none, redsync (its search
// starts afresh every step) and the SIDCo estimators, whose stage plan
// follows each step's own counts. dgc and randomk (an RNG stream
// position), gaussiank (its correction factor) and stateful optimizers
// resume functionally but not bit-identically.
type Checkpoint struct {
	Step        int   // completed steps; resume continues at this iteration
	Seed        int64 // must match the resuming trainer's Seed
	Workers     int   // local worker count of the checkpointing trainer
	FirstWorker int   // worker-id offset of the checkpointing trainer
	Weights     []float64
	Residuals   [][]float64 // per local worker; nil/empty when no EC
}

// Checkpoint captures the trainer's current resume state. The trainer
// must be quiescent (between Step calls).
func (t *Trainer) Checkpoint() (*Checkpoint, error) {
	if _, ok := t.cfg.Opt.(*nn.SGD); !ok {
		return nil, fmt.Errorf("dist: checkpointing supports stateless optimizers (nn.SGD); %T carries state the checkpoint would lose", t.cfg.Opt)
	}
	c := &Checkpoint{
		Step:        t.iter,
		Seed:        t.cfg.Seed,
		Workers:     t.cfg.Workers,
		FirstWorker: t.cfg.FirstWorker,
		Weights:     make([]float64, 0, t.dim),
		Residuals:   make([][]float64, t.cfg.Workers),
	}
	for _, p := range t.params {
		c.Weights = append(c.Weights, p.W...)
	}
	for i, w := range t.workers {
		if ec, ok := w.comp.(*compress.ErrorFeedback); ok {
			if res := ec.Residual(); res != nil {
				c.Residuals[i] = append([]float64(nil), res...)
			}
		}
	}
	return c, nil
}

// Restore rewinds a freshly constructed trainer onto a checkpoint:
// weights and per-worker EC residuals are overwritten, and each
// worker's RNG stream is fast-forwarded by replaying the completed
// steps' batch draws. The trainer must have been built with the same
// Seed, Workers, FirstWorker, model shape and Batch function as the
// checkpointing one, and must not have stepped yet. After Restore, the
// next Step is bit-identical to step c.Step of an uninterrupted run
// (within the Checkpoint type's stateless-optimizer/compressor scope).
func (t *Trainer) Restore(c *Checkpoint) error {
	if t.iter != 0 {
		return fmt.Errorf("dist: Restore on a trainer that already ran %d steps; restore before stepping", t.iter)
	}
	if _, ok := t.cfg.Opt.(*nn.SGD); !ok {
		return fmt.Errorf("dist: checkpoint resume supports stateless optimizers (nn.SGD), got %T", t.cfg.Opt)
	}
	if c.Seed != t.cfg.Seed {
		return fmt.Errorf("dist: checkpoint seed %d, trainer seed %d", c.Seed, t.cfg.Seed)
	}
	if c.Workers != t.cfg.Workers || c.FirstWorker != t.cfg.FirstWorker {
		return fmt.Errorf("dist: checkpoint covers workers %d+%d, trainer hosts %d+%d",
			c.FirstWorker, c.Workers, t.cfg.FirstWorker, t.cfg.Workers)
	}
	if len(c.Weights) != t.dim {
		return fmt.Errorf("dist: checkpoint has %d weights, model has %d", len(c.Weights), t.dim)
	}
	if len(c.Residuals) != len(t.workers) {
		return fmt.Errorf("dist: checkpoint has %d residual slots, trainer has %d workers", len(c.Residuals), len(t.workers))
	}
	off := 0
	for _, p := range t.params {
		copy(p.W, c.Weights[off:off+len(p.W)])
		off += len(p.W)
	}
	for i, w := range t.workers {
		res := c.Residuals[i]
		ec, ok := w.comp.(*compress.ErrorFeedback)
		if !ok {
			if len(res) > 0 {
				return fmt.Errorf("dist: checkpoint carries an EC residual for worker %d, but the trainer runs without error feedback", w.id)
			}
			continue
		}
		if len(res) > 0 && len(res) != t.dim {
			return fmt.Errorf("dist: worker %d residual has %d elements, model has %d", w.id, len(res), t.dim)
		}
		ec.RestoreResidual(res)
	}
	// Fast-forward every worker's RNG to its post-step-c.Step position by
	// replaying the batch draws of the completed steps. Draw order within
	// a step is irrelevant (streams are per-worker), and the draws cannot
	// depend on weights, so replay is exact.
	for step := 0; step < c.Step; step++ {
		for _, w := range t.workers {
			t.cfg.Batch(w.id, w.rng)
		}
	}
	t.iter = c.Step
	return nil
}

// ckptMagic identifies the checkpoint wire format. The format is custom
// binary (little-endian, float64 bits verbatim) because resume is gated
// bitwise: a decimal round-trip would be a correctness bug.
var ckptMagic = [8]byte{'S', 'D', 'C', 'K', 'P', 'T', '1', '\n'}

// WriteCheckpoint serialises c. Layout after the 8-byte magic, all
// little-endian: step i64 | seed i64 | workers i32 | firstWorker i32 |
// dim i64 | dim×f64 weights | workers × (rlen i64 | rlen×f64 residual).
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	if _, err := w.Write(ckptMagic[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	hdr := []interface{}{
		int64(c.Step), c.Seed, int32(c.Workers), int32(c.FirstWorker), int64(len(c.Weights)),
	}
	for _, v := range hdr {
		if err := binary.Write(w, le, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, le, c.Weights); err != nil {
		return err
	}
	if len(c.Residuals) != c.Workers {
		return fmt.Errorf("dist: checkpoint has %d residual slots for %d workers", len(c.Residuals), c.Workers)
	}
	for _, res := range c.Residuals {
		if err := binary.Write(w, le, int64(len(res))); err != nil {
			return err
		}
		if err := binary.Write(w, le, res); err != nil {
			return err
		}
	}
	return nil
}

// ReadCheckpoint deserialises a checkpoint written by WriteCheckpoint.
// The header's sizes are only claims: weights and residuals are read in
// bounded pieces and their slices grow as the bytes arrive, so a short
// file with a huge header fails on its missing bytes without first
// allocating what the header promised.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("dist: reading checkpoint magic: %w", err)
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("dist: not a checkpoint file (magic %q)", magic[:])
	}
	le := binary.LittleEndian
	var step, seed, dim int64
	var workers, firstWorker int32
	for _, v := range []interface{}{&step, &seed, &workers, &firstWorker, &dim} {
		if err := binary.Read(r, le, v); err != nil {
			return nil, fmt.Errorf("dist: reading checkpoint header: %w", err)
		}
	}
	if step < 0 || workers < 1 || firstWorker < 0 || dim < 0 || dim > 1<<30 {
		return nil, fmt.Errorf("dist: implausible checkpoint header (step %d, workers %d, firstWorker %d, dim %d)", step, workers, firstWorker, dim)
	}
	c := &Checkpoint{
		Step:        int(step),
		Seed:        seed,
		Workers:     int(workers),
		FirstWorker: int(firstWorker),
	}
	var err error
	if c.Weights, err = readFloats(r, dim); err != nil {
		return nil, fmt.Errorf("dist: reading checkpoint weights: %w", err)
	}
	for i := 0; i < c.Workers; i++ {
		var rlen int64
		if err := binary.Read(r, le, &rlen); err != nil {
			return nil, fmt.Errorf("dist: reading residual %d length: %w", i, err)
		}
		if rlen < 0 || rlen > 1<<30 {
			return nil, fmt.Errorf("dist: implausible residual length %d", rlen)
		}
		res, err := readFloats(r, rlen)
		if err != nil {
			return nil, fmt.Errorf("dist: reading residual %d: %w", i, err)
		}
		c.Residuals = append(c.Residuals, res)
	}
	return c, nil
}

// ckptPiece is the most float64s ReadCheckpoint reads at once.
const ckptPiece = 1 << 13

// readFloats reads n little-endian float64s, at most ckptPiece at a time,
// growing the result only by what each piece delivered.
func readFloats(r io.Reader, n int64) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	var xs []float64
	buf := make([]byte, 8*min(n, ckptPiece))
	for rest := n; rest > 0; rest -= ckptPiece {
		p := buf[:8*min(rest, ckptPiece)]
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, err
		}
		xs = slices.Grow(xs, len(p)/8)
		for i := 0; i < len(p); i += 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(p[i:])))
		}
	}
	return xs, nil
}

// SaveCheckpoint atomically writes c to path (temp file + rename, so a
// crash mid-write never leaves a torn checkpoint behind).
func SaveCheckpoint(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := WriteCheckpoint(tmp, c); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadCheckpoint reads a checkpoint file written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
