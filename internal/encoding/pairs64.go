package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/tensor"
)

// FormatPairs64 is the lossless format: every value as its float64 bits
// and every index Elias–Fano coded. Values round-trip bit for bit instead
// of through float32, so it is what internal/cluster ships when a
// training run must stay bit-identical to the in-process aggregation
// path, and the format the cluster's zero Config ships.
//
// A payload is the header, then the k values as one block of
// little-endian float64s in index order, then the k indices as one
// LSB-first bit stream (bit p is bit p%8 of byte p/8): with
// L = floor(log2(d/k)), first the low L bits of each index, packed, then
// the high parts as one unary stream of k + floor((d-1)/2^L) + 1 bits in
// which index i's high part h sets bit h + i. Padding bits up to the byte
// are zero. Byte 4 held the 12-byte (uint32 index, float64 value) pairs
// this layout replaced; it is retired.
const FormatPairs64 Format = 8

// Pairs64Size returns the encoded size in bytes of k non-zeros of a
// d-dimensional vector in lossless format: 9 + 8k + ceil(b/8), with
// b = k(L+1) + floor((d-1)/2^L) + 1 index bits (none when k = 0).
func Pairs64Size(d, k int) int { return headerSize + 8*k + (efBits(d, k)+7)/8 }

// efLowBits returns L, the low bits per index of k indices below d.
func efLowBits(d, k int) int { return max(bits.Len(uint(d/k))-1, 0) }

// efBits returns the length in bits of the Elias–Fano stream of k indices
// below d.
func efBits(d, k int) int {
	if k == 0 {
		return 0
	}
	l := efLowBits(d, k)
	return k*(l+1) + (d-1)>>l + 1
}

// littleEndian reports whether this host keeps a float64 in memory in the
// wire's byte order, so that the value block moves with one copy.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf reinterprets xs's memory as bytes, without copying: the
// package's one use of unsafe.
func bytesOf(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

func appendPairs64(dst []byte, s *tensor.Sparse) []byte {
	d, k := s.Dim, s.NNZ()
	dst, buf := extend(dst, Pairs64Size(d, k))
	putHeader(buf, FormatPairs64, d, k)
	vals := buf[headerSize : headerSize+8*k]
	if littleEndian {
		copy(vals, bytesOf(s.Vals[:k]))
	} else {
		for i, v := range s.Vals[:k] {
			binary.LittleEndian.PutUint64(vals[8*i:], math.Float64bits(v))
		}
	}
	if k == 0 {
		return dst
	}
	ef := buf[headerSize+8*k:]
	clear(ef) // reused windows carry stale bits
	l := uint(efLowBits(d, k))
	putLows(ef, s.Idx, l)
	// The high parts ascend, so the unary stream is built a 64-bit word
	// at a time in a register and ORed in (its first word holds the last
	// low bits) when an index moves past it.
	var cur uint64
	p := k * int(l)
	wi := p >> 6
	for _, j := range s.Idx {
		at := p + int(uint32(j)>>(l&31))
		if at>>6 != wi {
			putWord(ef, wi, word(ef, wi)|cur)
			cur, wi = 0, at>>6
		}
		cur |= 1 << (at & 63)
		p++
	}
	putWord(ef, wi, word(ef, wi)|cur)
	return dst
}

// The low bits of 8 consecutive indices fill exactly L bytes, so for
// L <= 16 the low stream moves 8 indices at a time between registers and
// two 64-bit words at a byte boundary: indices 0-3 of a group in bits 0 to
// 4L-1, indices 4-7 from bit 4L on. groupWords holds the words' bytes.
const groupWords = 16

// putLows writes the low l bits of each of idx, packed, at the front of
// ef, which is clear.
func putLows(ef []byte, idx []int32, l uint) {
	mask := uint64(1)<<(l&63) - 1
	g, off := 0, 0
	if l <= 16 {
		l4 := 4 * l
		for ; g+8 <= len(idx) && off+groupWords <= len(ef); g, off = g+8, off+int(l) {
			x := idx[g : g+8 : g+8]
			lo := uint64(x[3])&mask<<(l&63) | uint64(x[2])&mask
			lo = lo<<(l&63) | uint64(x[1])&mask
			lo = lo<<(l&63) | uint64(x[0])&mask
			hi := uint64(x[7])&mask<<(l&63) | uint64(x[6])&mask
			hi = hi<<(l&63) | uint64(x[5])&mask
			hi = hi<<(l&63) | uint64(x[4])&mask
			binary.LittleEndian.PutUint64(ef[off:], lo|hi<<l4)
			binary.LittleEndian.PutUint64(ef[off+8:], hi>>(64-l4))
		}
	}
	// The rest through a register, a byte at a time.
	var acc uint64
	n := uint(0)
	for _, j := range idx[g:] {
		acc |= uint64(j) & mask << (n & 63)
		for n += l; n >= 8; n -= 8 {
			ef[off] = byte(acc)
			off, acc = off+1, acc>>8
		}
	}
	if n > 0 {
		ef[off] = byte(acc)
	}
}

// getLows reads into dst the low l bits of the indices first to
// first+len(dst)-1 of the low stream at the front of ef; first is a
// multiple of 8.
func getLows(dst []int32, ef []byte, l uint, first int) {
	mask := uint64(1)<<(l&63) - 1
	g, off := 0, first/8*int(l)
	if l <= 16 {
		l4 := 4 * l
		for ; g+8 <= len(dst) && off+groupWords <= len(ef); g, off = g+8, off+int(l) {
			lo := binary.LittleEndian.Uint64(ef[off:])
			hi := lo>>l4 | binary.LittleEndian.Uint64(ef[off+8:])<<(64-l4)
			x := dst[g : g+8 : g+8]
			x[0] = int32(lo & mask)
			x[1] = int32(lo >> (l & 63) & mask)
			x[2] = int32(lo >> (2 * l & 63) & mask)
			x[3] = int32(lo >> (3 * l & 63) & mask)
			x[4] = int32(hi & mask)
			x[5] = int32(hi >> (l & 63) & mask)
			x[6] = int32(hi >> (2 * l & 63) & mask)
			x[7] = int32(hi >> (3 * l & 63) & mask)
		}
	}
	for b := 8 * off; g < len(dst); g, b = g+1, b+int(l) {
		dst[g] = int32(load64(ef, b>>3) >> (b & 7) & mask)
	}
}

// load64 returns the 8 bytes of b from byte q on as a little-endian word,
// the bytes past b's end read as zero.
func load64(b []byte, q int) uint64 {
	if q+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[q:])
	}
	var t [8]byte
	copy(t[:], b[q:])
	return binary.LittleEndian.Uint64(t[:])
}

// efReader reads the indices of a lossless payload in order, refusing
// what Sparse.Validate refuses (in its words) and a high stream whose
// one-bits are not the header's nnz.
type efReader struct {
	ef       []byte
	dim, nnz int
	l        int // low bits per index
	hi, nHi  int // bit offset and length of the high stream
	i        int // indices read
	p        int // bit offset in the high stream of the window w holds
	w        uint64
	prev     int
}

// window is the width of one read of the high stream: a load at any bit
// offset holds at least 57 bits.
const window = 56

// newEFReader checks a lossless payload's size and padding bits against
// its header's dim and nnz and returns a reader of its indices.
func newEFReader(buf []byte, dim, nnz int) (efReader, error) {
	if len(buf) != Pairs64Size(dim, nnz) {
		return efReader{}, fmt.Errorf("encoding: pairs64 size %d, want %d", len(buf), Pairs64Size(dim, nnz))
	}
	ef := buf[headerSize+8*nnz:]
	if n := efBits(dim, nnz); n%8 != 0 && ef[len(ef)-1]>>(n%8) != 0 {
		// Set padding bits would make two distinct buffers decode
		// identically; refuse the non-canonical form.
		return efReader{}, fmt.Errorf("encoding: pairs64 padding bits set")
	}
	r := efReader{ef: ef, dim: dim, nnz: nnz, p: -window, prev: -1}
	if nnz > 0 {
		r.l = efLowBits(dim, nnz)
		r.hi, r.nHi = nnz*r.l, nnz+(dim-1)>>r.l+1
	}
	return r, nil
}

// read fills dst with the next len(dst) indices: their low bits first,
// then the high parts ORed in as the unary stream gives them. r.i is a
// multiple of 8 at every call but the last.
func (r *efReader) read(dst []int32) error {
	l, i, p, w, prev := uint(r.l), r.i, r.p, r.w, r.prev
	getLows(dst, r.ef, l, i)
	for n := 0; n < len(dst); {
		if w == 0 {
			if p += window; p >= r.nHi {
				return fmt.Errorf("encoding: pairs64 high bits hold %d indices, header says %d", i+n, r.nnz)
			}
			q := r.hi + p
			w = load64(r.ef, q>>3) >> (q & 7) & (1<<window - 1)
		}
		// The window's one-bits, up to the indices dst still takes; the
		// rest stay in w.
		x := dst[n:min(n+bits.OnesCount64(w), len(dst))]
		var at int
		if w, prev, at = orHighs(x, w, p-i-n, 1<<l, prev); at < len(x) {
			return r.refuse(dst[:n+at], prev)
		}
		n += len(x)
	}
	if lim := min(r.dim, math.MaxInt32+1); prev >= lim {
		return r.refuse(dst[:len(dst)-1], prev)
	}
	r.i, r.p, r.w, r.prev = i+len(dst), p, w, prev
	return nil
}

// orHighs completes the indices whose low bits x holds with the high
// parts the first len(x) one-bits of w give, the first at base: w's bit t
// is high part base+t for x[0], base+t-1 for x[1], and so on, times
// scale = 2^L. It returns w without those bits and the last index; or, at
// the first index j not above prev, j and its position in x (len(x) when
// there is none).
//
//sidco:hotpath
//go:noinline
func orHighs(x []int32, w uint64, base, scale, prev int) (uint64, int, int) {
	for m := range x {
		// w's bits stop at 56: the top bit spares a zero test.
		j := (base-m+bits.TrailingZeros64(w|1<<63))*scale | int(x[m])
		w &= w - 1
		if j <= prev {
			return w, j, m
		}
		x[m] = int32(j)
		prev = j
	}
	return w, prev, len(x)
}

// refuse returns Sparse.Validate's error for the indices read, in order,
// into dst (ascending, so any past dim come last) and then bad: one not
// above dst's last, or the last read, past dim.
func (r *efReader) refuse(dst []int32, bad int) error {
	lim := min(r.dim, math.MaxInt32+1)
	for _, j := range dst {
		if int(j) >= lim || j < 0 {
			return fmt.Errorf("tensor: index %d out of range for dim %d", j, r.dim)
		}
	}
	if bad >= lim {
		return fmt.Errorf("tensor: index %d out of range for dim %d", bad, r.dim)
	}
	return fmt.Errorf("tensor: indices not strictly ascending at %d", int32(bad))
}

// done refuses a high stream holding one-bits past the header's nnz
// indices; call it once they are read.
func (r *efReader) done() error {
	w := r.w
	for p := r.p + window; w == 0 && p < r.nHi; p += window {
		b := r.hi + p
		w = load64(r.ef, b>>3) >> (b & 7) & (1<<window - 1)
	}
	if w != 0 {
		return fmt.Errorf("encoding: pairs64 high bits hold more than the header's %d indices", r.nnz)
	}
	return nil
}

// decodePairs64 reads the indices into s's storage, checking in the same
// loop what Sparse.Validate would after, then moves the values.
func decodePairs64(s *tensor.Sparse, buf []byte, dim, nnz int) error {
	r, err := newEFReader(buf, dim, nnz)
	if err != nil {
		return err
	}
	s.Reset(dim)
	s.Grow(nnz)
	idx, vals := s.Idx[:nnz], s.Vals[:nnz]
	if err := r.read(idx); err != nil {
		return err
	}
	if err := r.done(); err != nil {
		return err
	}
	vb := buf[headerSize : headerSize+8*nnz]
	if littleEndian {
		copy(bytesOf(vals), vb)
	} else {
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(vb[8*i:]))
		}
	}
	s.Idx, s.Vals = idx, vals
	return nil
}

// densePairs64 is DecodeDenseInto over a lossless payload: out is cleared
// and each value assigned at its index, the indices read a batch at a
// time, with decodePairs64's refusals in the same words.
func densePairs64(out []float64, buf []byte, dim, nnz int) error {
	r, err := newEFReader(buf, dim, nnz)
	if err != nil {
		return err
	}
	if err := checkDenseDim(out, dim); err != nil {
		return err
	}
	clear(out)
	vb := buf[headerSize : headerSize+8*nnz]
	var batch [256]int32
	for i := 0; i < nnz; i += len(batch) {
		idx := batch[:min(len(batch), nnz-i)]
		if err := r.read(idx); err != nil {
			return err
		}
		for n, j := range idx {
			out[j] = math.Float64frombits(binary.LittleEndian.Uint64(vb[8*(i+n):]))
		}
	}
	return r.done()
}
