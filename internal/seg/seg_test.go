package seg

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSeqMatchesSlice runs random appends and compactions against a plain
// slice, across several segments, and compares every value after each step.
func TestSeqMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Seq[int]
	var model []int
	next := 0
	for step := 0; step < 400; step++ {
		for n := rng.Intn(3 * segLen); n > 0; n-- {
			next++
			s.Append(next)
			model = append(model, next)
		}
		mod := 1 + rng.Intn(4)
		keep := func(v int) bool { return v%mod != 0 }
		s.Compact(func(v *int) bool { return keep(*v) })
		model = slices.DeleteFunc(model, func(v int) bool { return !keep(v) })
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len=%d, model %d", step, s.Len(), len(model))
		}
		for i, want := range model {
			if got := *s.At(i); got != want {
				t.Fatalf("step %d: At(%d)=%d, want %d", step, i, got, want)
			}
		}
		if len(model) > 8*segLen {
			s.Compact(func(*int) bool { return false })
			model = model[:0]
		}
	}
}

// Compact leaves nothing behind in the slots it vacates, so a dropped value
// keeps nothing it points to alive, and it keeps their segments.
func TestCompactZeroesWhatItDrops(t *testing.T) {
	var s Seq[*int]
	for i := 0; i < 3*segLen+5; i++ {
		v := i
		s.Append(&v)
	}
	s.Compact(func(p **int) bool { return **p%2 == 0 })
	if s.Len() != (3*segLen+6)/2 {
		t.Fatalf("Len=%d after dropping the odd values", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if *s.At(i) == nil || **s.At(i) != 2*i {
			t.Fatalf("At(%d) holds the wrong value", i)
		}
	}
	for i := s.Len(); i < len(s.segs)*segLen; i++ {
		if s.segs[i>>segShift][i&(segLen-1)] != nil {
			t.Fatalf("vacated slot %d still points at a dropped value", i)
		}
	}
	if len(s.segs) != 4 {
		t.Errorf("%d segments after the compaction, want the 4 allocated", len(s.segs))
	}
	defer func() {
		if recover() == nil {
			t.Error("At past Len did not panic")
		}
	}()
	s.At(s.Len())
}

func TestRingIsFIFOAtTheLimit(t *testing.T) {
	const limit = 2*segLen + 3
	var r Ring[int]
	pos := make(map[int]int) // value -> position
	for v := 1; v <= limit; v++ {
		p, _, full := r.Push(v, limit)
		if full || p != v-1 {
			t.Fatalf("push %d into a ring of %d: pos=%d full=%v", v, v-1, p, full)
		}
		pos[v] = p
	}
	for v := limit + 1; v <= 3*limit; v++ {
		p, evicted, full := r.Push(v, limit)
		if !full || evicted != v-limit || p != pos[v-limit] {
			t.Fatalf("push %d: evicted %d at %d (full=%v), want %d at %d", v, evicted, p, full, v-limit, pos[v-limit])
		}
		delete(pos, evicted)
		pos[v] = p
	}
	if r.Len() != limit {
		t.Errorf("Len=%d, want %d", r.Len(), limit)
	}
	for v, p := range pos {
		if got := *r.At(p); got != v {
			t.Fatalf("position %d holds %d, want %d", p, got, v)
		}
	}
}

// Once a structure has reached its working size, churning it allocates
// nothing: a full ring overwrites in place, and a sequence refills the
// segments its compactions emptied.
func TestSteadyChurnAllocatesNothing(t *testing.T) {
	var r Ring[[4]int]
	for i := 0; i < 5000; i++ {
		r.Push([4]int{i}, 5000)
	}
	if a := testing.AllocsPerRun(1000, func() { r.Push([4]int{1}, 5000) }); a != 0 {
		t.Errorf("a push into a full ring allocates %.2f objects", a)
	}
	var s Seq[[4]int]
	n := 0
	churn := func() {
		for i := 0; i < segLen/2; i++ {
			n++
			s.Append([4]int{n})
		}
		s.Compact(func(v *[4]int) bool { return v[0] > n-3*segLen })
	}
	for i := 0; i < 20; i++ {
		churn()
	}
	if a := testing.AllocsPerRun(100, churn); a != 0 {
		t.Errorf("appending and compacting at a steady length allocates %.2f objects", a)
	}
}
