package tensor

import "testing"

func TestNewSparseValidation(t *testing.T) {
	if _, err := NewSparse(5, []int32{0, 2}, []float64{1, 2}); err != nil {
		t.Fatalf("valid sparse rejected: %v", err)
	}
	cases := []struct {
		name string
		dim  int
		idx  []int32
		vals []float64
	}{
		{"length mismatch", 5, []int32{0}, []float64{1, 2}},
		{"not ascending", 5, []int32{2, 1}, []float64{1, 2}},
		{"duplicate", 5, []int32{1, 1}, []float64{1, 2}},
		{"out of range", 2, []int32{0, 2}, []float64{1, 2}},
	}
	for _, c := range cases {
		if _, err := NewSparse(c.dim, c.idx, c.vals); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	s, err := NewSparse(6, []int32{1, 4}, []float64{-2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 {
		t.Errorf("NNZ = %d", s.NNZ())
	}
	d := s.Dense()
	want := []float64{0, -2, 0, 0, 3, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Dense = %v", d)
		}
	}
}

func TestSparseAddToAndScale(t *testing.T) {
	s, _ := NewSparse(3, []int32{0, 2}, []float64{1, 2})
	dst := []float64{10, 10, 10}
	s.AddTo(dst)
	if dst[0] != 11 || dst[1] != 10 || dst[2] != 12 {
		t.Fatalf("AddTo = %v", dst)
	}
	Scale(2, s.Vals)
	if s.Vals[0] != 2 || s.Vals[1] != 4 {
		t.Fatalf("Scale = %v", s.Vals)
	}
}

func TestSparseAddToDimMismatchPanics(t *testing.T) {
	s, _ := NewSparse(3, []int32{0}, []float64{1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.AddTo(make([]float64, 2))
}

func TestSparseResetAppendValidate(t *testing.T) {
	s := &Sparse{}
	s.Reset(8)
	s.Append(2, 1.5)
	s.Append(5, -2)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid sparse rejected: %v", err)
	}
	if s.NNZ() != 2 || s.Dim != 8 {
		t.Fatalf("nnz %d dim %d", s.NNZ(), s.Dim)
	}
	cap0 := cap(s.Idx)
	s.Reset(4)
	if s.NNZ() != 0 || cap(s.Idx) != cap0 {
		t.Error("Reset must empty without shrinking capacity")
	}
	s.Append(3, 1)
	s.Append(1, 2) // out of order
	if err := s.Validate(); err == nil {
		t.Error("descending indices accepted")
	}
	s.Reset(2)
	s.Append(5, 1) // out of range
	if err := s.Validate(); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestSparseCopyFromAndGrow(t *testing.T) {
	src := &Sparse{Dim: 6, Idx: []int32{1, 4}, Vals: []float64{2, 3}}
	dst := &Sparse{}
	dst.CopyFrom(src)
	if dst.Dim != 6 || dst.NNZ() != 2 || dst.Idx[1] != 4 || dst.Vals[0] != 2 {
		t.Fatalf("CopyFrom got %+v", dst)
	}
	src.Vals[0] = 99
	if dst.Vals[0] == 99 {
		t.Error("CopyFrom aliases the source")
	}
	dst.Grow(100)
	if cap(dst.Idx) < 100 || cap(dst.Vals) < 100 {
		t.Error("Grow did not reserve capacity")
	}
	if dst.NNZ() != 2 || dst.Idx[0] != 1 {
		t.Error("Grow lost contents")
	}
}
