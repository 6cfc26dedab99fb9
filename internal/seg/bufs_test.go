package seg

import "testing"

// Fit hands back the smallest buffer that has room, leaving the larger ones,
// or a new one of the next power of two; Put clears what it keeps.
func TestBufsFitAndPut(t *testing.T) {
	var f Bufs[*int]
	if b := f.Fit(5); cap(b) != 8 || len(b) != 0 {
		t.Fatalf("Fit(5) on an empty list = len %d cap %d, want a new buffer of 8", len(b), cap(b))
	}
	x := 1
	small, large := make([]*int, 2, 4), make([]*int, 10, 64)
	small[0], large[9] = &x, &x
	f.Put(large)
	f.Put(small)
	if b := f.Fit(3); cap(b) != 4 || len(b) != 0 || b[:2][0] != nil {
		t.Errorf("Fit(3) = len %d cap %d, want the small buffer emptied and cleared", len(b), cap(b))
	}
	if b := f.Fit(100); cap(b) != 128 || len(f.free) != 1 {
		t.Errorf("Fit(100) = cap %d with %d free, want a new buffer of 128 and the large one kept", cap(b), len(f.free))
	}
	if b := f.Fit(1); cap(b) != 64 || b[:10][9] != nil || len(f.free) != 0 {
		t.Errorf("Fit(1) = cap %d, want the large buffer cleared, the last one free", cap(b))
	}
	f.Put(nil)
	if len(f.free) != 0 {
		t.Error("Put kept a buffer with no storage")
	}
}
