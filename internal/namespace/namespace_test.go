package namespace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"cxfs/internal/disk"
	"cxfs/internal/kvstore"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
)

// newShard builds a shard on a throwaway simulation (Exec never blocks, so
// the sim is only needed to construct the store).
func newShard(t *testing.T) (*Shard, func()) {
	t.Helper()
	s := simrt.New(1)
	d := disk.New(s, "d", disk.DefaultParams())
	sh := NewShard(kvstore.New(s, d, 0))
	return sh, func() { s.Shutdown() }
}

func sub(kind types.OpKind, action types.SubOpAction, parent types.InodeID, name string, ino types.InodeID, ft types.FileType) types.SubOp {
	return types.SubOp{Kind: kind, Action: action, Parent: parent, Name: name, Ino: ino, Type: ft}
}

func TestCreateFlow(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.InitRoot()

	res := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, types.RootInode, "f", 10, 0), 5)
	if !res.OK {
		t.Fatalf("insert: %v", res.Err)
	}
	res2 := sh.Exec(sub(types.OpCreate, types.ActAddInode, types.RootInode, "f", 10, types.FileRegular), 5)
	if !res2.OK {
		t.Fatalf("add inode: %v", res2.Err)
	}
	ino, ok := sh.LookupEntry(types.RootInode, "f")
	if !ok || ino != 10 {
		t.Errorf("lookup: %d %v", ino, ok)
	}
	in, ok := sh.GetInode(10)
	if !ok || in.Type != types.FileRegular || in.Nlink != 1 {
		t.Errorf("inode: %+v %v", in, ok)
	}
	root, _ := sh.GetInode(types.RootInode)
	if root.Size != 1 || root.Mtime != 5 {
		t.Errorf("parent not updated: %+v", root)
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.InitRoot()
	if res := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, 1, "f", 10, 0), 0); !res.OK {
		t.Fatal(res.Err)
	}
	res := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, 1, "f", 11, 0), 0)
	if res.OK || !errors.Is(res.Err, types.ErrExists) {
		t.Errorf("duplicate insert: %v", res.Err)
	}
}

func TestRemoveMissingFails(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	res := sh.Exec(sub(types.OpRemove, types.ActRemoveEntry, 1, "ghost", 0, 0), 0)
	if res.OK || !errors.Is(res.Err, types.ErrNotFound) {
		t.Errorf("remove missing: %v", res.Err)
	}
}

func TestUndoRestoresExactState(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.InitRoot()
	before := sh.Store().Snapshot()

	res := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, types.RootInode, "f", 10, 0), 7)
	if !res.OK {
		t.Fatal(res.Err)
	}
	sh.ApplyUndo(res.Undo())
	after := sh.Store().Snapshot()
	if len(after) != len(before) {
		t.Fatalf("row count changed: %d -> %d", len(before), len(after))
	}
	if _, ok := sh.LookupEntry(types.RootInode, "f"); ok {
		t.Error("dentry survived undo")
	}
	// The parent size counter is compensated back; mtime intentionally is
	// not (commutative compensation does not roll back timestamps).
	root, _ := sh.GetInode(types.RootInode)
	if root.Size != 0 {
		t.Errorf("parent size=%d after undo, want 0", root.Size)
	}
}

func TestUndoCompensationPreservesConcurrentParentUpdates(t *testing.T) {
	// Two inserts into the same directory; undoing the FIRST must not
	// clobber the second's effect on the parent counter — this is why the
	// parent update is compensated rather than restored from before-image.
	sh, done := newShard(t)
	defer done()
	sh.InitRoot()
	res1 := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, types.RootInode, "a", 10, 0), 1)
	res2 := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, types.RootInode, "b", 11, 0), 2)
	if !res1.OK || !res2.OK {
		t.Fatal(res1.Err, res2.Err)
	}
	sh.ApplyUndo(res1.Undo())
	root, _ := sh.GetInode(types.RootInode)
	if root.Size != 1 {
		t.Errorf("parent size=%d after undoing first insert, want 1 (second insert preserved)", root.Size)
	}
	if _, ok := sh.LookupEntry(types.RootInode, "b"); !ok {
		t.Error("second entry lost")
	}
	if _, ok := sh.LookupEntry(types.RootInode, "a"); ok {
		t.Error("first entry survived undo")
	}
}

func TestUndoRestoresDeletedRow(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 10, Type: types.FileRegular, Nlink: 1})
	res := sh.Exec(sub(types.OpRemove, types.ActDecLink, 0, "", 10, 0), 0)
	if !res.OK || !res.Freed {
		t.Fatalf("declink: %+v", res)
	}
	if _, ok := sh.GetInode(10); ok {
		t.Fatal("inode not freed")
	}
	sh.ApplyUndo(res.Undo())
	in, ok := sh.GetInode(10)
	if !ok || in.Nlink != 1 {
		t.Errorf("undo did not restore inode: %+v %v", in, ok)
	}
}

func TestDecLinkOnDirUsesTwoLinks(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 20, Type: types.FileDir, Nlink: 2})
	res := sh.Exec(sub(types.OpRmdir, types.ActDecLink, 0, "", 20, 0), 0)
	if !res.OK || !res.Freed {
		t.Errorf("rmdir declink should free dir with nlink=2: %+v", res)
	}
}

func TestRmdirNonEmptyFails(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 20, Type: types.FileDir, Nlink: 2, Size: 3})
	res := sh.Exec(sub(types.OpRmdir, types.ActDecLink, 0, "", 20, 0), 0)
	if res.OK || !errors.Is(res.Err, types.ErrNotEmpty) {
		t.Errorf("rmdir non-empty: %+v", res)
	}
}

func TestLinkCycle(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 10, Type: types.FileRegular, Nlink: 1})
	if res := sh.Exec(sub(types.OpLink, types.ActIncLink, 0, "", 10, 0), 0); !res.OK {
		t.Fatal(res.Err)
	}
	in, _ := sh.GetInode(10)
	if in.Nlink != 2 {
		t.Errorf("nlink=%d, want 2", in.Nlink)
	}
	if res := sh.Exec(sub(types.OpUnlink, types.ActDecLink, 0, "", 10, 0), 0); !res.OK || res.Freed {
		t.Errorf("unlink at nlink=2 must not free: %+v", res)
	}
	if res := sh.Exec(sub(types.OpUnlink, types.ActDecLink, 0, "", 10, 0), 0); !res.OK || !res.Freed {
		t.Errorf("unlink at nlink=1 must free: %+v", res)
	}
}

func TestIncLinkOnDirFails(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 20, Type: types.FileDir, Nlink: 2})
	res := sh.Exec(sub(types.OpLink, types.ActIncLink, 0, "", 20, 0), 0)
	if res.OK || !errors.Is(res.Err, types.ErrIsDir) {
		t.Errorf("link on dir: %+v", res)
	}
}

func TestStatAndLookup(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 10, Type: types.FileRegular, Nlink: 1, Size: 99})
	sh.SeedDentry(1, "f", 10)

	res := sh.Exec(sub(types.OpStat, types.ActReadInode, 0, "", 10, 0), 0)
	if !res.OK || res.Inode.Size != 99 {
		t.Errorf("stat: %+v", res)
	}
	res = sh.Exec(sub(types.OpLookup, types.ActReadEntry, 1, "f", 0, 0), 0)
	if !res.OK || res.Inode.Ino != 10 {
		t.Errorf("lookup: %+v", res)
	}
	if !res.Undo().Empty() {
		t.Error("read produced an undo")
	}
}

func TestTouchInode(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 10, Type: types.FileRegular, Nlink: 1})
	res := sh.Exec(sub(types.OpSetAttr, types.ActTouchInode, 0, "", 10, 0), 1234)
	if !res.OK {
		t.Fatal(res.Err)
	}
	in, _ := sh.GetInode(10)
	if in.Mtime != 1234 {
		t.Errorf("mtime=%d", in.Mtime)
	}
}

func TestInodeCodecRoundTrip(t *testing.T) {
	f := func(ino uint64, nlink uint32, size, ct, mt uint64, isDir bool) bool {
		ft := types.FileRegular
		if isDir {
			ft = types.FileDir
		}
		in := Inode{Ino: types.InodeID(ino), Type: ft, Nlink: nlink, Size: size, Ctime: ct, Mtime: mt}
		return decodeInode(appendInode(nil, in)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a truncated inode row decoded")
		}
	}()
	decodeInode(make([]byte, inodeLen-1))
}

func TestPlacementDeterministicAndInRange(t *testing.T) {
	pl := Placement{Servers: 8}
	f := func(parent uint64, name string) bool {
		a := pl.CoordinatorFor(types.InodeID(parent), name)
		b := pl.CoordinatorFor(types.InodeID(parent), name)
		return a == b && a >= 0 && int(a) < pl.Servers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlacementSpreadsEntries(t *testing.T) {
	pl := Placement{Servers: 8}
	counts := make(map[types.NodeID]int)
	for i := 0; i < 8000; i++ {
		counts[pl.CoordinatorFor(types.RootInode, fmt.Sprintf("file%06d", i))]++
	}
	for srv := 0; srv < pl.Servers; srv++ {
		c := counts[types.NodeID(srv)]
		if c < 500 || c > 1500 {
			t.Errorf("server %d got %d/8000 entries; placement badly skewed", srv, c)
		}
	}
}

func TestInodeAllocTargetsServer(t *testing.T) {
	pl := Placement{Servers: 5}
	al := NewInodeAlloc(pl, 1000)
	seen := make(map[types.InodeID]bool)
	for srv := 0; srv < pl.Servers; srv++ {
		for i := 0; i < 20; i++ {
			ino := al.Next(types.NodeID(srv))
			if pl.ParticipantFor(ino) != types.NodeID(srv) {
				t.Fatalf("ino %d placed on %v, want %d", ino, pl.ParticipantFor(ino), srv)
			}
			if seen[ino] {
				t.Fatalf("duplicate inode %d", ino)
			}
			seen[ino] = true
		}
	}
}

func TestRowKeyMatchesExecRows(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	s := sub(types.OpCreate, types.ActAddInode, 0, "", 77, types.FileRegular)
	res := sh.Exec(s, 0)
	if !res.OK {
		t.Fatal(res.Err)
	}
	want := types.InodeKey(77)
	if rows := res.Rows.All(); len(rows) != 1 || rows[0] != (kvstore.Ref{Key: want, Row: sh.kv.Find(want)}) {
		t.Errorf("rows=%v, want [%v] with its handle", res.Rows, want)
	}
}

func TestListDirScansOnlyTargetDirectory(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedDentry(1, "a", 10)
	sh.SeedDentry(1, "b", 11)
	sh.SeedDentry(2, "c", 12)
	sh.SeedInode(Inode{Ino: 10, Type: types.FileRegular, Nlink: 1})
	entries := sh.ListDir(1)
	if len(entries) != 2 {
		t.Fatalf("entries=%v", entries)
	}
	if entries[0].Name != "a" || entries[1].Name != "b" {
		t.Errorf("not sorted: %v", entries)
	}
	if entries[0].Ino != 10 || entries[1].Ino != 11 {
		t.Errorf("inos wrong: %v", entries)
	}
	if got := sh.ListDir(99); len(got) != 0 {
		t.Errorf("empty dir listed %v", got)
	}
}

func TestFsckRecomputesDirSizes(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.SeedInode(Inode{Ino: 5, Type: types.FileDir, Nlink: 2, Size: 99}) // wrong count
	sh.SeedDentry(5, "x", 10)
	sh.SeedDentry(5, "y", 11)
	sh.SeedInode(Inode{Ino: 10, Type: types.FileRegular, Nlink: 1})
	fixed := sh.Fsck()
	if fixed != 1 {
		t.Errorf("fixed=%d, want 1", fixed)
	}
	in, _ := sh.GetInode(5)
	if in.Size != 2 {
		t.Errorf("dir size=%d, want 2", in.Size)
	}
	if sh.Fsck() != 0 {
		t.Error("second fsck found drift")
	}
}

func TestInstallImagesRedoAndUndo(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.InitRoot()
	res := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, types.RootInode, "img", 10, 0), 3)
	before, after := res.Images()
	if !res.OK || len(before) != 1 || len(after) != 1 {
		t.Fatalf("images missing: %+v", res)
	}
	// Undo via before-image.
	sh.InstallImages(before)
	if _, ok := sh.LookupEntry(types.RootInode, "img"); ok {
		t.Error("before-image install did not remove the entry")
	}
	// Redo via after-image (idempotent).
	sh.InstallImages(after)
	sh.InstallImages(after)
	if ino, ok := sh.LookupEntry(types.RootInode, "img"); !ok || ino != 10 {
		t.Errorf("after-image install: %d %v", ino, ok)
	}
	// Zero keys are skipped.
	junk, _ := types.ValOf([]byte("junk"))
	sh.InstallImages([]types.Row{{Val: junk}})
	if sh.Store().Len() != 2 {
		t.Errorf("an image without a key installed a row: %d rows", sh.Store().Len())
	}
}

func TestUndoHelpers(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.InitRoot()
	res := sh.Exec(sub(types.OpCreate, types.ActInsertEntry, types.RootInode, "u", 10, 0), 0)
	if res.Undo().Empty() {
		t.Error("mutating op produced empty undo")
	}
	if len(res.Rows.All()) != 2 || res.Rows[0].Key != types.DentryKey(1, "u") || res.Rows[1].Key != types.InodeKey(1) { // dentry row, then the parent's
		t.Errorf("rows=%v", res.Rows)
	}
	sh.ApplyUndo(Undo{}) // the undo of a read or a failed execution: nothing happens
	if _, ok := sh.LookupEntry(types.RootInode, "u"); !ok {
		t.Error("the empty undo removed a row")
	}
}

func TestExecFailurePathsProduceNoImages(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	res := sh.Exec(sub(types.OpRemove, types.ActRemoveEntry, 1, "nope", 0, 0), 0)
	if before, after := res.Images(); res.OK || before != nil || after != nil || res.Rows != (kvstore.Refs{}) {
		t.Errorf("failed op produced images or rows: %+v", res)
	}
	res = sh.Exec(types.SubOp{Action: types.SubOpAction(99)}, 0)
	if res.OK {
		t.Error("unknown action succeeded")
	}
}

// mutations is one sub-op of every mutating action, each against a shard
// prepared by seedFor.
var mutations = []types.SubOp{
	sub(types.OpCreate, types.ActInsertEntry, 5, "new", 10, 0),
	sub(types.OpRemove, types.ActRemoveEntry, 5, "old", 11, 0),
	sub(types.OpCreate, types.ActAddInode, 5, "new", 10, types.FileRegular),
	sub(types.OpUnlink, types.ActDecLink, 5, "old", 11, 0), // nlink 1: frees the inode
	sub(types.OpUnlink, types.ActDecLink, 5, "two", 12, 0), // nlink 2: rewrites it
	sub(types.OpLink, types.ActIncLink, 5, "two", 12, 0),
	sub(types.OpSetAttr, types.ActTouchInode, 0, "", 12, 0),
}

// seedFor installs what the mutations need: directory 5 with two entries
// (its inode only if withParent), inode 11 with one link and 12 with two.
func seedFor(sh *Shard, withParent bool) {
	if withParent {
		sh.SeedInode(Inode{Ino: 5, Type: types.FileDir, Nlink: 2, Size: 2, Mtime: 1})
	}
	sh.SeedDentry(5, "old", 11)
	sh.SeedDentry(5, "two", 12)
	sh.SeedInode(Inode{Ino: 11, Type: types.FileRegular, Nlink: 1})
	sh.SeedInode(Inode{Ino: 12, Type: types.FileRegular, Nlink: 2})
}

// The undo a recovering server rebuilds from the Result-Record must put back
// exactly what the live one does — the parent's entry count included: on twin
// shards, with and without the parent inode, ApplyUndo(UndoOf(sub, Before))
// and ApplyUndo(res.Undo()) leave the same rows, and they are the rows from
// before the execution (but for the parent's mtime, which no undo restores).
func TestRebuiltUndoAgreesWithLiveUndo(t *testing.T) {
	for _, withParent := range []bool{true, false} {
		for _, m := range mutations {
			live, doneL := newShard(t)
			rebuilt, doneR := newShard(t)
			seedFor(live, withParent)
			seedFor(rebuilt, withParent)
			resL, resR := live.Exec(m, 9), rebuilt.Exec(m, 9)
			if !resL.OK || !resR.OK {
				t.Fatalf("%v: %v %v", m, resL.Err, resR.Err)
			}
			if parentBump(m.Action) != 0 && withParent != (len(resL.Rows.All()) == 2) {
				t.Errorf("%v parent=%v: rows %v", m, withParent, resL.Rows)
			}
			live.ApplyUndo(resL.Undo())
			before, _ := resR.Images()
			rebuilt.ApplyUndo(UndoOf(m, before))
			got, want := rebuilt.Store().Snapshot(), live.Store().Snapshot()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v parent=%v: rebuilt undo left %v, live undo %v", m, withParent, got, want)
			}
			fresh, doneF := newShard(t)
			seedFor(fresh, withParent)
			if withParent && parentBump(m.Action) != 0 {
				fresh.SeedInode(Inode{Ino: 5, Type: types.FileDir, Nlink: 2, Size: 2, Mtime: 9})
			}
			if before := fresh.Store().Snapshot(); !reflect.DeepEqual(want, before) {
				t.Errorf("%v parent=%v: undo left %v, want the state before the execution %v", m, withParent, want, before)
			}
			doneL()
			doneR()
			doneF()
		}
	}
	if u := UndoOf(mutations[0], nil); !u.Empty() {
		t.Error("a record without images (failed execution) rebuilt a non-empty undo")
	}
}

// Images are copies of the row: whatever is later written to the row, in
// place in its record, an image taken by Exec keeps the bytes it had.
func TestImagesUnchangedByLaterWrites(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	seedFor(sh, true)
	type held struct {
		img  types.Row
		want []byte
	}
	var imgs []held
	// Three rounds over the same two rows, every write a different value.
	for round := uint64(1); round <= 3; round++ {
		for _, m := range []types.SubOp{
			sub(types.OpCreate, types.ActInsertEntry, 5, "new", types.InodeID(100*round), 0),
			sub(types.OpSetAttr, types.ActTouchInode, 0, "", 12, 0),
			sub(types.OpLink, types.ActIncLink, 0, "", 12, 0),
			sub(types.OpRemove, types.ActRemoveEntry, 5, "new", 0, 0),
			sub(types.OpUnlink, types.ActDecLink, 0, "", 12, 0),
		} {
			res := sh.Exec(m, round)
			if !res.OK {
				t.Fatalf("%v: %v", m, res.Err)
			}
			for _, img := range []types.Row{res.Before, res.After} {
				imgs = append(imgs, held{img, bytes.Clone(img.Val.Bytes())})
			}
		}
	}
	sh.install(&types.Row{Key: types.InodeKey(12)})
	for _, h := range imgs {
		if got := h.img.Val.Bytes(); !bytes.Equal(got, h.want) || (got == nil) != (h.want == nil) {
			t.Errorf("image of %v changed under later writes: %v, was %v", h.img.Key, got, h.want)
		}
	}
}

// TestExecAllocCeiling pins what an execution allocates: nothing. A row is a
// value — its key the object's, its value inline in its record — and the
// Result describes the write by value, so a new row, a rewrite and a read
// all run without a heap object. Earlier schemes measured 13 allocations for
// insert+remove, 7 for add+dec and 5 for the reads (a fresh key string per
// row touched, a separate image pair and row list per write); then 5, 3 and
// 0 (one object per write holding images and rows); then 3, 1 and 0 (the
// stored copy of each new value, a new row's key sharing its allocation).
func TestExecAllocCeiling(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	sh.InitRoot()
	ins := sub(types.OpCreate, types.ActInsertEntry, types.RootInode, "file-0001", 10, 0)
	rem := sub(types.OpRemove, types.ActRemoveEntry, types.RootInode, "file-0001", 10, 0)
	if a := testing.AllocsPerRun(200, func() {
		if !sh.Exec(ins, 1).OK || !sh.Exec(rem, 2).OK {
			t.Fatal("exec failed")
		}
	}); a != 0 {
		t.Errorf("insert+remove of one entry under a colocated parent: %.0f allocs, want 0", a)
	}
	add := sub(types.OpCreate, types.ActAddInode, 0, "", 10, types.FileRegular)
	dec := sub(types.OpRemove, types.ActDecLink, 0, "", 10, 0)
	if a := testing.AllocsPerRun(200, func() {
		if !sh.Exec(add, 1).OK || !sh.Exec(dec, 2).OK {
			t.Fatal("exec failed")
		}
	}); a != 0 {
		t.Errorf("add-inode+dec-link: %.0f allocs, want 0", a)
	}
	sh.SeedDentry(types.RootInode, "file-0002", 11)
	stat := sub(types.OpStat, types.ActReadInode, 0, "", types.RootInode, 0)
	look := sub(types.OpLookup, types.ActReadEntry, types.RootInode, "file-0002", 0, 0)
	if a := testing.AllocsPerRun(200, func() {
		if !sh.Exec(stat, 1).OK || !sh.Exec(look, 1).OK {
			t.Fatal("exec failed")
		}
		if _, ok := sh.ResolveEntry(types.RootInode, "file-0002"); !ok {
			t.Fatal("resolve failed")
		}
	}); a != 0 {
		t.Errorf("stat+lookup+resolve: %.0f allocs, want 0", a)
	}
}

// Every key an execution hands out — its rows, its images, its undo — is the
// row key of its object, the sub-op's own types.ObjKey: for each mutating
// action, with and without the parent inode on the shard, the Result equals
// one assembled from object keys and the store's snapshots around the
// execution, and every row it names is filed under that key.
func TestExecKeysAgreeWithRowKey(t *testing.T) {
	for _, withParent := range []bool{true, false} {
		for _, m := range mutations {
			sh, done := newShard(t)
			seedFor(sh, withParent)
			before := sh.Store().Snapshot()
			res := sh.Exec(m, 9)
			after := sh.Store().Snapshot()
			k, _ := m.Key()
			want := Result{OK: true, Freed: m.Action == types.ActDecLink && !after[k].Present(), Rows: kvstore.Refs{{Key: k, Row: sh.kv.Find(k)}},
				Before: types.Row{Key: k, Val: before[k]}, After: types.Row{Key: k, Val: after[k]}}
			if bump := parentBump(m.Action); withParent && bump != 0 {
				want.Rows[1] = kvstore.Ref{Key: types.InodeKey(m.Parent), Row: sh.kv.Find(types.InodeKey(m.Parent))}
				want.dir, want.delta = m.Parent, -bump
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%v parent=%v:\n got %+v\nwant %+v", m, withParent, res, want)
			}
			for _, row := range res.Rows.All() {
				if own := sh.Store().Key(row.Row); own != row.Key {
					t.Errorf("%v parent=%v: row %v is filed under %v", m, withParent, row.Key, own)
				}
			}
			done()
		}
	}
}

// What an execution wrote, kept compactly, gives back its Result's undo and
// rows exactly: for each mutating action, with and without the parent inode
// on the shard, and for a failed execution.
func TestWrittenKeepsUndoAndRows(t *testing.T) {
	for _, withParent := range []bool{true, false} {
		for _, m := range mutations {
			sh, done := newShard(t)
			seedFor(sh, withParent)
			res := sh.Exec(m, 9)
			w := res.Written()
			if w.Undo() != res.Undo() || w.Rows() != res.Rows {
				t.Errorf("%v parent=%v: kept undo %+v rows %+v, want %+v and %+v", m, withParent, w.Undo(), w.Rows(), res.Undo(), res.Rows)
			}
			done()
		}
	}
	sh, done := newShard(t)
	defer done()
	res := sh.Exec(sub(types.OpRemove, types.ActRemoveEntry, 1, "nope", 0, 0), 0)
	if w := res.Written(); !w.Undo().Empty() || w.Rows() != (kvstore.Refs{}) {
		t.Errorf("a failed execution wrote %+v", w)
	}
	if n := unsafe.Sizeof(Written{}); n != 112 {
		t.Errorf("Written is %d bytes, want 112", n)
	}
}

// Walk is the one decoder of stored rows: every entry with its directory
// (names with slashes and spaces intact), every inode, nothing else.
func TestWalkDecodesEveryRow(t *testing.T) {
	sh, done := newShard(t)
	defer done()
	seedFor(sh, true)
	sh.SeedDentry(7, "a b/c", 13)
	dents := map[string]types.InodeID{}
	var inos []types.InodeID
	sh.Walk(func(dir types.InodeID, e DirEntry) { dents[fmt.Sprintf("%d:%s", dir, e.Name)] = e.Ino },
		func(in Inode) { inos = append(inos, in.Ino) })
	if want := map[string]types.InodeID{"5:old": 11, "5:two": 12, "7:a b/c": 13}; !reflect.DeepEqual(dents, want) {
		t.Errorf("dentries %v, want %v", dents, want)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	if !reflect.DeepEqual(inos, []types.InodeID{5, 11, 12}) {
		t.Errorf("inodes %v", inos)
	}
	if ino, ok := DentryIno(AppendIno(nil, 1<<40+3)); !ok || ino != 1<<40+3 {
		t.Errorf("dentry value round trip: %d %v", ino, ok)
	}
	if _, ok := DentryIno([]byte("short")); ok {
		t.Error("a 5-byte value parsed as a dentry")
	}
}
