package encoding

import (
	"testing"
)

func TestDeltaVarintRoundTrip(t *testing.T) {
	for _, k := range []int{1, 10, 500, 5000} {
		s := randomSparse(t, 10000, k, int64(100+k))
		buf, err := Encode(s, FormatDeltaVarint)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.Dim != s.Dim || got.NNZ() != s.NNZ() {
			t.Fatalf("k=%d: dim/nnz mismatch", k)
		}
		for i := range s.Idx {
			if got.Idx[i] != s.Idx[i] || got.Vals[i] != s.Vals[i] {
				t.Fatalf("k=%d: element %d mismatch", k, i)
			}
		}
	}
}

func TestDeltaVarintViaGenericEncode(t *testing.T) {
	s := randomSparse(t, 2000, 40, 101)
	buf, err := Encode(s, FormatDeltaVarint)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 40 {
		t.Fatalf("NNZ = %d", got.NNZ())
	}
}

func TestDeltaVarintBeatsPairsAtAggressiveSparsity(t *testing.T) {
	// At delta = 0.001 the mean index gap is 1000, which fits in 2 varint
	// bytes: ~6 bytes/element vs 8 for pairs.
	const d, k = 1_000_000, 1000
	s := randomSparse(t, d, k, 102)
	buf, err := Encode(s, FormatDeltaVarint)
	if err != nil {
		t.Fatal(err)
	}
	pairs := PairsSize(d, k)
	if len(buf) >= pairs {
		t.Errorf("delta-varint %d bytes >= pairs %d bytes", len(buf), pairs)
	}
	// Worst case: header, 4 value bytes and a 5-byte gap per element.
	if bound := headerSize + 9*k; len(buf) > bound {
		t.Errorf("encoded size %d exceeds the worst-case bound %d", len(buf), bound)
	}
}

func TestDeltaVarintCorruptionDetected(t *testing.T) {
	s := randomSparse(t, 1000, 20, 103)
	buf, err := Encode(s, FormatDeltaVarint)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation drops value bytes.
	if _, err := Decode(buf[:len(buf)-3]); err == nil {
		t.Error("truncated payload should error")
	}
	// Blowing up a gap pushes indices past dim.
	bad := append([]byte(nil), buf...)
	bad[headerSize] = 0xFF
	bad[headerSize+1] |= 0x7F
	if _, err := Decode(bad); err == nil {
		t.Error("out-of-range index should error")
	}
}
