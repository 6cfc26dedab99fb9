package types

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpKindStringNamesEveryKind(t *testing.T) {
	seen := map[string]OpKind{}
	for k := OpInvalid; k < opKindCount; k++ {
		if k == OpReaddir-1 {
			continue // the unused slot that keeps OpReaddir's value
		}
		name := k.String()
		if name == "" || strings.HasPrefix(name, "opkind(") {
			t.Errorf("kind %d has no name: %q", uint8(k), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", uint8(prev), uint8(k), name)
		}
		seen[name] = k
	}
	// The wire and the log carry a kind as its number, so no kind moves when
	// another is dropped.
	if OpReaddir != 11 {
		t.Errorf("OpReaddir = %d, want 11", uint8(OpReaddir))
	}
}

func TestCrossServerClassification(t *testing.T) {
	cross := []OpKind{OpCreate, OpRemove, OpMkdir, OpRmdir, OpLink, OpUnlink}
	single := []OpKind{OpStat, OpLookup, OpSetAttr}
	for _, k := range cross {
		if !k.CrossServer() {
			t.Errorf("%v should be cross-server", k)
		}
	}
	for _, k := range single {
		if k.CrossServer() {
			t.Errorf("%v should be single-server", k)
		}
	}
	if OpStat.Mutating() || !OpSetAttr.Mutating() || !OpCreate.Mutating() {
		t.Error("Mutating classification wrong")
	}
}

func TestSplitMatchesTableI(t *testing.T) {
	base := Op{ID: OpID{Seq: 1}, Parent: 7, Name: "f", Ino: 42}
	cases := []struct {
		kind        OpKind
		coordAction SubOpAction
		partAction  SubOpAction
	}{
		{OpCreate, ActInsertEntry, ActAddInode},
		{OpMkdir, ActInsertEntry, ActAddInode},
		{OpRemove, ActRemoveEntry, ActDecLink},
		{OpRmdir, ActRemoveEntry, ActDecLink},
		{OpUnlink, ActRemoveEntry, ActDecLink},
		{OpLink, ActInsertEntry, ActIncLink},
	}
	for _, c := range cases {
		op := base
		op.Kind = c.kind
		coord, part := Split(op)
		if coord.Action != c.coordAction || coord.Role != RoleCoordinator {
			t.Errorf("%v coord: %v/%v", c.kind, coord.Action, coord.Role)
		}
		if part.Action != c.partAction || part.Role != RoleParticipant {
			t.Errorf("%v part: %v/%v", c.kind, part.Action, part.Role)
		}
		if coord.Op != op.ID || part.Op != op.ID {
			t.Errorf("%v: op IDs not propagated", c.kind)
		}
	}
	// mkdir's participant creates a directory inode; create's a file.
	mk := base
	mk.Kind = OpMkdir
	if _, part := Split(mk); part.Type != FileDir {
		t.Error("mkdir participant type != dir")
	}
	cr := base
	cr.Kind = OpCreate
	if _, part := Split(cr); part.Type != FileRegular {
		t.Error("create participant type != regular")
	}
}

func TestSplitPanicsOnSingleServerKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Split(stat) should panic")
		}
	}()
	Split(Op{Kind: OpStat})
}

func TestSingleSubOp(t *testing.T) {
	for kind, action := range map[OpKind]SubOpAction{
		OpStat:    ActReadInode,
		OpLookup:  ActReadEntry,
		OpSetAttr: ActTouchInode,
	} {
		s := SingleSubOp(Op{ID: OpID{Seq: 2}, Kind: kind, Parent: 1, Name: "x", Ino: 9})
		if s.Action != action {
			t.Errorf("%v action = %v, want %v", kind, s.Action, action)
		}
	}
}

func TestConflictKeysExcludeParentInode(t *testing.T) {
	op := Op{ID: OpID{Seq: 3}, Kind: OpCreate, Parent: 7, Name: "f", Ino: 42}
	coord, part := Split(op)
	if ck, ok := coord.Key(); !ok || ck != DentryKey(7, "f") {
		t.Errorf("coord key = %v; the parent-inode counter must not be a conflict key", ck)
	}
	if pk, ok := part.Key(); !ok || pk != InodeKey(42) {
		t.Errorf("part key = %v", pk)
	}
	if _, ok := (SubOp{}).Key(); ok {
		t.Error("a sub-op with no action names an object")
	}
}

func TestOpIDStringNullHint(t *testing.T) {
	if NilOp.String() != "[null]" {
		t.Errorf("nil hint renders %q", NilOp.String())
	}
	id := OpID{Proc: ProcID{Client: 5, Index: 2}, Seq: 9}
	if id.IsNil() {
		t.Error("non-nil id IsNil")
	}
}

func TestObjKeyEqualityQuick(t *testing.T) {
	// ObjKeys must behave as map keys: equal content = equal key.
	f := func(dir uint64, name string, ino uint64) bool {
		a := DentryKey(InodeID(dir), name)
		b := DentryKey(InodeID(dir), name)
		c := InodeKey(InodeID(ino))
		m := map[ObjKey]int{a: 1}
		m[c] = 2
		return m[b] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringersDoNotPanic(t *testing.T) {
	_ = OpKind(200).String()
	_ = SubOpAction(200).String()
	_ = ObjKind(200).String()
	_ = FileType(200).String()
	_ = Role(200).String()
	_ = RecFmtSmoke()
}

// RecFmtSmoke exercises the remaining Stringers.
func RecFmtSmoke() string {
	op := Op{ID: OpID{Seq: 1}, Kind: OpCreate, Parent: 1, Name: "n", Ino: 2}
	sub, _ := Split(op)
	return op.String() + sub.String() + DentryKey(1, "n").String() + InodeKey(2).String()
}
