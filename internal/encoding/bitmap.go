package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// A FormatBitmap payload is the header, then ceil(dim/8) bitmap bytes,
// then one little-endian float32 per set bit in index order. Bit p of the
// little-endian 64-bit word at bitmap byte 8w is index 64w + p; the last
// word may have fewer than 8 bytes, and the bits past dim in its last
// byte must be clear.

func appendBitmap(dst []byte, s *tensor.Sparse) []byte {
	dst, buf := extend(dst, BitmapSize(s.Dim, s.NNZ()))
	putHeader(buf, FormatBitmap, s.Dim, s.NNZ())
	bitmap := buf[headerSize : headerSize+(s.Dim+7)/8]
	// A read-modify-write of one byte per index. Building each 64-bit
	// word in a register and storing it once measured slower: the branch
	// on a change of word mispredicts at every density that ships.
	clear(bitmap) // reused windows carry stale bits
	for _, j := range s.Idx {
		bitmap[j/8] |= 1 << (uint(j) % 8)
	}
	off := headerSize + len(bitmap)
	for _, v := range s.Vals {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
		off += 4
	}
	return dst
}

// word returns word wi of bitmap, assembled from the tail bytes when
// fewer than 8 are left.
func word(bitmap []byte, wi int) uint64 {
	rest := bitmap[8*wi:]
	if len(rest) >= 8 {
		return binary.LittleEndian.Uint64(rest)
	}
	var w uint64
	for i, by := range rest {
		w |= uint64(by) << (8 * i)
	}
	return w
}

// putWord stores w as word wi of bitmap, only its tail bytes when fewer
// than 8 are left.
func putWord(bitmap []byte, wi int, w uint64) {
	rest := bitmap[8*wi:]
	if len(rest) >= 8 {
		binary.LittleEndian.PutUint64(rest, w)
		return
	}
	for i := range rest {
		rest[i] = byte(w >> (8 * i))
	}
}

// bitmapOf checks a bitmap payload's size and padding bits against its
// header's dim and nnz and returns its bitmap.
func bitmapOf(buf []byte, dim, nnz int) ([]byte, error) {
	if len(buf) != BitmapSize(dim, nnz) {
		return nil, fmt.Errorf("encoding: bitmap size %d, want %d", len(buf), BitmapSize(dim, nnz))
	}
	bitmap := buf[headerSize : headerSize+(dim+7)/8]
	if dim%8 != 0 && bitmap[len(bitmap)-1]>>(uint(dim)%8) != 0 {
		// Set padding bits past dim would make two distinct buffers decode
		// identically; reject the non-canonical form.
		return nil, fmt.Errorf("encoding: bitmap padding bits set past dim %d", dim)
	}
	return bitmap, nil
}

func decodeBitmap(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	bitmap, err := bitmapOf(buf, dim, nnz)
	if err != nil {
		return err
	}
	s.Reset(dim)
	s.Grow(nnz)
	// Walk the set bits a word at a time. The popcount is checked before a
	// word's bits are appended, so a bitmap holding more bits than its
	// header claims is refused without growing s.Idx past nnz.
	idx := s.Idx
	for wi := 0; 8*wi < len(bitmap); wi++ {
		w := word(bitmap, wi)
		if count := len(idx) + bits.OnesCount64(w); count > nnz {
			return bitmapPopcountError(count, nnz)
		}
		for ; w != 0; w &= w - 1 {
			idx = append(idx, int32(64*wi+bits.TrailingZeros64(w)))
		}
	}
	s.Idx = idx
	if len(idx) != nnz {
		return bitmapPopcountError(len(idx), nnz)
	}
	off := headerSize + len(bitmap)
	for i := 0; i < nnz; i++ {
		s.Vals = append(s.Vals, float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))))
		off += 4
	}
	return nil
}

// denseBitmap is DecodeDenseInto over a bitmap payload: per 64-element
// block it counts the word's bits against the header (before writing the
// block, as decodeBitmap does before appending), clears the block and
// assigns the block's values.
func denseBitmap(out []float64, buf []byte, dim, nnz int) error {
	bitmap, err := bitmapOf(buf, dim, nnz)
	if err != nil {
		return err
	}
	if err := checkDenseDim(out, dim); err != nil {
		return err
	}
	vals := buf[headerSize+len(bitmap):]
	n := 0
	for lo := 0; lo < dim; lo += 64 {
		w := word(bitmap, lo/64)
		if count := n + bits.OnesCount64(w); count > nnz {
			return bitmapPopcountError(count, nnz)
		}
		blk := out[lo:min(lo+64, dim)]
		clear(blk)
		for ; w != 0; w &= w - 1 {
			blk[bits.TrailingZeros64(w)] = float64(math.Float32frombits(binary.LittleEndian.Uint32(vals[4*n:])))
			n++
		}
	}
	if n != nnz {
		return bitmapPopcountError(n, nnz)
	}
	return nil
}

// bitmapPopcountError reports a bitmap whose set bits (all of them, or
// those counted when the decoder gave up) disagree with the header.
func bitmapPopcountError(count, nnz int) error {
	return fmt.Errorf("encoding: bitmap popcount %d, header says %d", count, nnz)
}

// MeanBitmap merges FormatBitmap payloads into the FormatBitmap payload
// of their mean without decoding them. Its zero value is ready; it keeps
// its per-payload read state between calls, so a server merging every
// round allocates nothing once warm.
type MeanBitmap struct {
	parts []bitmapPart
}

// bitmapPart is one payload's read state during a merge.
type bitmapPart struct {
	bitmap, vals []byte
	n            int    // values read so far
	w            uint64 // the payload's bits of the word being merged
}

// PushError is MeanBitmap.AppendTo's refusal of one payload: Push is its
// index in the pushes given.
type PushError struct {
	Push int
	Err  error
}

func (e *PushError) Error() string { return fmt.Sprintf("push %d: %v", e.Push, e.Err) }

func (e *PushError) Unwrap() error { return e.Err }

// AppendTo appends to dst the mean of pushes, m FormatBitmap payloads, as
// one FormatBitmap payload and returns the extended buffer. The bytes are
// exactly what decoding every push (DecodeInto), merging the parts in
// push order (tensor.MeanSparseInto) and encoding the mean
// (EncodeTo(…, FormatBitmap)) give, header nnz included.
//
// Per 64-bit word, the pushes' words are ORed into the union, and each
// union bit gets s = ((0 + v₀) + v₁) + … over the pushes that hold it,
// MeanSparseInto's fold (an absent push adds nothing where that fold adds
// +0 to a partial sum that is never -0, which changes no bit). It is
// stored as float32(s·(1/m)), and its bit kept, only where s != 0. Each
// push adds its values into the word's union slots in turn, so every
// push's bitmap and values are read once.
//
// Before any of it, every push is checked, in push order, as DecodeInto
// checks it — header, nnz <= dim, size, padding bits, and its set bits
// counted against the header's count — and must be a FormatBitmap payload
// of push 0's dim. A refusal is a *PushError naming the first push at
// fault, the push the decoding route refuses first; no pushes is an error
// too.
//
//sidco:hotpath
func (mb *MeanBitmap) AppendTo(dst []byte, pushes [][]byte) ([]byte, error) {
	dim, total, err := mb.open(pushes)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst, buf := extend(dst, BitmapSize(dim, min(total, dim)))
	nb := (dim + 7) / 8
	bitmap, vals := buf[headerSize:headerSize+nb], buf[headerSize+nb:]
	parts := mb.parts
	inv := 1 / float64(len(parts))
	var acc [64]float64 // the sums of one word's union slots
	n := 0
	for wi := 0; 8*wi < nb; wi++ {
		var u uint64
		for p := range parts {
			w := word(parts[p].bitmap, wi)
			parts[p].w = w
			u |= w
		}
		for p := range parts {
			pt := &parts[p]
			w, k, pv := pt.w, pt.n, pt.vals
			for ; w != 0; w &= w - 1 {
				slot := bits.OnesCount64(u & (w&-w - 1))
				acc[slot&63] += float64(math.Float32frombits(binary.LittleEndian.Uint32(pv[4*k:])))
				k++
			}
			pt.n = k
		}
		// Store every slot at the cursor; advance it, and keep the bit,
		// only where the sum is not zero.
		ow := u
		for r, i := u, 0; r != 0; r, i = r&(r-1), i+1 {
			s := acc[i&63]
			acc[i&63] = 0
			binary.LittleEndian.PutUint32(vals[4*n:], math.Float32bits(float32(s*inv)))
			var zero uint64
			if s == 0 {
				zero = 1
			}
			n += int(1 - zero)
			ow ^= r & -r & -zero
		}
		putWord(bitmap, wi, ow)
	}
	putHeader(buf, FormatBitmap, dim, n)
	return dst[:start+BitmapSize(dim, n)], nil
}

// open checks every push (header, format, size, padding bits, popcount,
// dim) and readies the read state of each: it returns push 0's dim and
// the pushes' total nnz.
func (mb *MeanBitmap) open(pushes [][]byte) (dim, total int, err error) {
	if len(pushes) == 0 {
		return 0, 0, fmt.Errorf("encoding: mean of no payloads")
	}
	mb.parts = mb.parts[:0]
	for p, buf := range pushes {
		f, d, nnz, err := header(buf)
		if err == nil && f != FormatBitmap {
			err = fmt.Errorf("encoding: format %v, want %v", f, FormatBitmap)
		}
		var bitmap []byte
		if err == nil {
			bitmap, err = bitmapOf(buf, d, nnz)
		}
		if err == nil {
			if count := bitmapCount(bitmap); count != nnz {
				err = bitmapPopcountError(count, nnz)
			}
		}
		if err == nil && p > 0 && d != dim {
			err = fmt.Errorf("encoding: dim %d, push 0 has %d", d, dim)
		}
		if err != nil {
			return 0, 0, &PushError{Push: p, Err: err}
		}
		dim, total = d, total+nnz
		mb.parts = append(mb.parts, bitmapPart{bitmap: bitmap, vals: buf[headerSize+len(bitmap):]})
	}
	return dim, total, nil
}

// bitmapCount returns the number of set bits in bitmap.
func bitmapCount(bitmap []byte) int {
	count := 0
	for wi := 0; 8*wi < len(bitmap); wi++ {
		count += bits.OnesCount64(word(bitmap, wi))
	}
	return count
}
