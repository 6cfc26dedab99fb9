package seg

import (
	"math/rand"
	"testing"

	"cxfs/internal/types"
)

func opKey(client, index int32, seq uint64) types.OpID {
	return types.OpID{Proc: types.ProcID{Client: types.NodeID(client), Index: index}, Seq: seq}
}

// checkIndex compares x with the model and checks the invariant backward
// shift keeps: no empty slot lies between a key's home and its slot.
func checkIndex(t *testing.T, x *Index[int], model map[types.OpID]int) {
	t.Helper()
	if x.Len() != len(model) {
		t.Fatalf("Len %d, model holds %d", x.Len(), len(model))
	}
	for k, want := range model {
		if v, ok := x.Get(k); !ok || v != want {
			t.Fatalf("Get(%v) = %d, %v; model %d", k, v, ok, want)
		}
	}
	n, mask := 0, len(x.keys)-1
	for j, k := range x.keys {
		if k == types.NilOp {
			continue
		}
		n++
		if want, ok := model[k]; !ok || x.vals[j] != want {
			t.Fatalf("slot %d holds %v=%d, model %d, %v", j, k, x.vals[j], want, ok)
		}
		for i := int(k.Hash()) & mask; i != j; i = (i + 1) & mask {
			if x.keys[i] == types.NilOp {
				t.Fatalf("%v sits at %d behind empty slot %d of its run", k, j, i)
			}
		}
	}
	if n != len(model) {
		t.Fatalf("%d slots hold keys, model holds %d", n, len(model))
	}
}

// Random gets, puts, deletes and DeleteFuncs against a Go map, over a key
// set small enough to collide and re-insert, half of it drawn from keys
// whose home is one of a 64-slot table's last three slots, so probe runs
// wrap past the end of the array and deletions shift keys back across it.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys []types.OpID
	for seq := uint64(1); len(keys) < 48; seq++ {
		k := opKey(3, int32(seq%5), seq)
		if len(keys) < 24 || int(k.Hash())&63 >= 61 {
			keys = append(keys, k)
		}
	}
	var x Index[int]
	model := make(map[types.OpID]int)
	wrapped := false
	for step := 0; step < 20000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(20); {
		case r < 9:
			x.Put(k, step)
			model[k] = step
		case r < 16:
			v, ok := x.Delete(k)
			want, had := model[k]
			if ok != had || v != want {
				t.Fatalf("step %d: Delete(%v) = %d, %v; model %d, %v", step, k, v, ok, want, had)
			}
			delete(model, k)
		case r < 19:
			_, had := model[k]
			if _, ok := x.Get(k); ok != had {
				t.Fatalf("step %d: Get(%v) reports %v", step, k, ok)
			}
		default:
			odd := rng.Intn(2)
			visits := make(map[types.OpID]int)
			x.DeleteFunc(func(k types.OpID, pv *int) bool {
				v := *pv
				visits[k]++
				if model[k] != v {
					t.Fatalf("step %d: DeleteFunc sees %v=%d, model %d", step, k, v, model[k])
				}
				return v%2 == odd
			})
			for k, v := range model {
				if visits[k] != 1 {
					t.Fatalf("step %d: DeleteFunc saw %v %d times", step, k, visits[k])
				}
				if v%2 == odd {
					delete(model, k)
				}
			}
		}
		checkIndex(t, &x, model)
		mask := len(x.keys) - 1
		for j, k := range x.keys {
			if k != types.NilOp && int(k.Hash())&mask > j {
				wrapped = true
			}
		}
	}
	if !wrapped {
		t.Error("no probe run ever wrapped past the end: the test is vacuous")
	}
	if len(x.keys) != 64 {
		t.Errorf("capacity %d for at most 48 keys, want 64", len(x.keys))
	}
}

// Lookup and Upsert probe once, and the slot they return reads, rewrites and
// removes the key's value with no further probe, as Get, Put and Delete
// would, against a Go map.
func TestIndexSlotsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x Index[int]
	model := make(map[types.OpID]int)
	for step := 1; step < 20000; step++ {
		k := opKey(1, int32(rng.Intn(3)), uint64(rng.Intn(200))+1)
		finds, slots := x.Finds(), len(x.keys)
		if rng.Intn(2) == 0 {
			i, added := x.Upsert(k, step)
			want, had := model[k]
			if added == had || !added && *x.Val(i) != want || added && *x.Val(i) != step {
				t.Fatalf("step %d: Upsert(%v) added %v, holds %d; model %d, %v", step, k, added, *x.Val(i), want, had)
			}
			*x.Val(i) = -step
			model[k] = -step
		} else {
			i, ok := x.Lookup(k)
			want, had := model[k]
			if ok != had || ok && *x.Val(i) != want {
				t.Fatalf("step %d: Lookup(%v) reports %v; model %d, %v", step, k, ok, want, had)
			}
			if ok && rng.Intn(2) == 0 {
				x.RemoveAt(i)
				delete(model, k)
			}
		}
		// One probe, and one more when an insertion grows the table.
		if n := x.Finds() - finds; n != 1 && (n != 2 || len(x.keys) == slots) {
			t.Fatalf("step %d: %d probes for one key", step, n)
		}
		if step%97 == 0 {
			checkIndex(t, &x, model)
		}
	}
	checkIndex(t, &x, model)
}

// The nil ID marks an empty slot: it is never a key.
func TestIndexRefusesTheNilOp(t *testing.T) {
	var x Index[int]
	x.Put(opKey(1, 0, 1), 1)
	if _, ok := x.Get(types.NilOp); ok {
		t.Error("Get reports the nil ID held")
	}
	if _, ok := x.Delete(types.NilOp); ok || x.n != 1 {
		t.Error("Delete of the nil ID removed something")
	}
	defer func() {
		if recover() == nil {
			t.Error("Put of the nil ID did not panic")
		}
	}()
	x.Put(types.NilOp, 2)
}

// Fresh IDs in, the oldest out, at a steady live count: the way a server's
// tables churn. Once the index has grown to the live count it allocates
// nothing, and its capacity stays where the fill left it however many IDs
// pass through.
func TestIndexSteadyChurnAllocatesNothingAndStaysBounded(t *testing.T) {
	const live = 3000
	var x Index[*int]
	v := new(int)
	seq := uint64(0)
	step := func() {
		seq++
		x.Put(opKey(int32(seq%7), int32(seq%3), seq), v)
		if seq > live {
			old := seq - live
			if _, ok := x.Delete(opKey(int32(old%7), int32(old%3), old)); !ok {
				t.Fatalf("op %d missing", old)
			}
		}
	}
	for seq < live {
		step()
	}
	filled := len(x.keys)
	if filled != 4096 {
		t.Errorf("capacity %d for %d keys, want 4096", filled, live)
	}
	if n := testing.AllocsPerRun(200*live, step); n != 0 {
		t.Errorf("%.2f allocations per churn step, want 0", n)
	}
	if len(x.keys) != filled || x.n != live {
		t.Errorf("after %d churned IDs: capacity %d (filled at %d), %d keys (want %d)",
			seq, len(x.keys), filled, x.n, live)
	}
}
