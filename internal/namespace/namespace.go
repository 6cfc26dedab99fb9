// Package namespace implements one metadata server's shard of the file
// system namespace: directory entries and inodes stored as rows in the
// server's kvstore, plus the placement policy that decides which server
// coordinates and which participates in a cross-server operation.
//
// Placement follows OrangeFS as described in §IV.A of the paper: "a
// directory entry is assigned to a server based on its name hash value, and
// the file's metadata object (inode) is randomly created on one server in
// the cluster". Large directories are therefore striped across all servers
// (the paper's Metarates setup exploits exactly this), and an operation is
// cross-server whenever the two placements land on different servers.
//
// The package owns the row format — how a dentry and an inode are encoded
// in the store — and nothing outside it parses a row value: Walk decodes a
// shard for whoever needs to see all of it, AppendIno/DentryIno are the
// dentry value. A row's key is the object's types.ObjKey itself: a dentry
// row keeps the request's own name string, so creating a name costs the
// store nothing, and the key's text form is built only where its bytes are
// counted or written.
//
// Every sub-op has one object (types.SubOp.Key), so one row, and the row is
// probed once: Probe probes the store for the object's key (the protocol
// layer's conflict check reads the row's lock from it), and ExecRow takes the
// row it found, reads and writes it by handle, and returns, by value in its
// Result, the row's images before and after and the rows it wrote — a
// kvstore.Refs, handle and key, which is how write-back and journaling reach
// them again. Exec probes and executes in one call; only the parent inode a
// directory-entry action bumps costs a second probe.
//
// A row is a value: an image (types.Row) is a copy of the key and value, so
// holding one is holding the row as it was, and executing a sub-op allocates
// nothing. The before-image is the Undo, which every rollback applies: the
// Cx abort and invalidation paths, SE's CLEAR, 2PC's abort, and (rebuilt
// from the Result-Record by UndoOf) an abort after crash recovery.
package namespace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"unsafe"

	"cxfs/internal/kvstore"
	"cxfs/internal/types"
)

// Placement maps metadata objects to servers.
type Placement struct {
	Servers int
}

// CoordinatorFor returns the server holding the directory-entry partition
// for (parent, name) — the coordinator of any operation on that entry.
func (pl Placement) CoordinatorFor(parent types.InodeID, name string) types.NodeID {
	h := fnv.New32a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(parent))
	h.Write(b[:])
	h.Write([]byte(name))
	return types.NodeID(h.Sum32() % uint32(pl.Servers))
}

// ParticipantFor returns the server holding inode ino. Inode numbers are
// allocated with a server-selecting low field (see InodeAlloc), emulating
// OrangeFS's random inode placement while keeping the mapping derivable
// from the ID alone.
func (pl Placement) ParticipantFor(ino types.InodeID) types.NodeID {
	return types.NodeID(uint64(ino) % uint64(pl.Servers))
}

// InodeAlloc hands out inode numbers that place on a chosen server.
// Clients keep one; the cluster seeds each with a disjoint range.
type InodeAlloc struct {
	pl   Placement
	next uint64
}

// NewInodeAlloc creates an allocator whose IDs start at base (base must be
// unique per client to avoid collisions).
func NewInodeAlloc(pl Placement, base uint64) *InodeAlloc {
	return &InodeAlloc{pl: pl, next: base}
}

// Next returns a fresh inode ID that ParticipantFor maps to server.
func (a *InodeAlloc) Next(server types.NodeID) types.InodeID {
	n := a.next
	a.next++
	// Shift the counter into the high bits and use the low field to select
	// the server deterministically.
	return types.InodeID(n*uint64(a.pl.Servers) + uint64(server))
}

// Inode is the attribute block stored per file or directory; it is an alias
// of types.Inode so wire payloads and shard rows share one definition.
type Inode = types.Inode

// inodeLen is the encoded size of an inode row.
const inodeLen = 8 + 1 + 4 + 8 + 8 + 8

// appendInode appends the encoding of an inode row to buf.
func appendInode(buf []byte, in Inode) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Ino))
	buf = append(buf, byte(in.Type))
	buf = binary.LittleEndian.AppendUint32(buf, in.Nlink)
	buf = binary.LittleEndian.AppendUint64(buf, in.Size)
	buf = binary.LittleEndian.AppendUint64(buf, in.Ctime)
	buf = binary.LittleEndian.AppendUint64(buf, in.Mtime)
	return buf
}

// decodeInode parses an inode row read from the store.
func decodeInode(b []byte) Inode {
	if len(b) != inodeLen { // corruption is a bug, not a runtime condition
		panic(fmt.Sprintf("namespace: bad inode row length %d", len(b)))
	}
	var in Inode
	in.Ino = types.InodeID(binary.LittleEndian.Uint64(b[0:8]))
	in.Type = types.FileType(b[8])
	in.Nlink = binary.LittleEndian.Uint32(b[9:13])
	in.Size = binary.LittleEndian.Uint64(b[13:21])
	in.Ctime = binary.LittleEndian.Uint64(b[21:29])
	in.Mtime = binary.LittleEndian.Uint64(b[29:37])
	return in
}

// AppendIno appends the value of a dentry row — the inode number the entry
// names, 8 bytes little-endian — to buf; DentryIno parses one.
func AppendIno(buf []byte, ino types.InodeID) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(ino))
}

// DentryIno parses the value of a dentry row.
func DentryIno(val []byte) (types.InodeID, bool) {
	if len(val) != 8 {
		return 0, false
	}
	return types.InodeID(binary.LittleEndian.Uint64(val)), true
}

// Probe probes the store for object k's row (kvstore.Probe): the one probe
// of a sub-op's object, which the protocol layer makes when the request
// arrives and, if the answer is still current, need not make again when it
// executes.
func (sh *Shard) Probe(k types.ObjKey) kvstore.Probe { return sh.kv.Probe(k) }

// lookup reads the row of object k: a copy of its value, absent if the row
// is not live.
func (sh *Shard) lookup(k types.ObjKey) types.Val { return sh.kv.Value(sh.kv.Find(k)) }

// Undo rolls back one sub-operation. The one row it wrote (the dentry or
// inode it targets) is restored from its before-image; the parent-inode
// attribute bump that rides along with entry insertion/removal is undone by
// a *compensating* adjustment instead, because concurrent operations on the
// same directory update it commutatively and a before-image would clobber
// their effects. The zero Undo (a read, a failed execution) restores nothing.
type Undo struct {
	before types.Row     // Key.Kind 0 = nothing to restore
	dir    types.InodeID // the parent directory whose entry count moved
	delta  int64         // what to add to it to take that back; 0 = nothing
}

// Empty reports whether the undo has nothing to restore.
func (u Undo) Empty() bool { return u.before.Key.Kind == 0 }

// Keys returns the keys of the rows u restores: the object's, then the
// directory inode's it compensates; a zero key for either it leaves alone.
func (u Undo) Keys() [2]types.ObjKey {
	ks := [2]types.ObjKey{u.before.Key}
	if u.delta != 0 {
		ks[1] = types.InodeKey(u.dir)
	}
	return ks
}

// parentBump is what an action adds to the entry count of the directory it
// works in.
func parentBump(a types.SubOpAction) int64 {
	switch a {
	case types.ActInsertEntry:
		return +1
	case types.ActRemoveEntry:
		return -1
	}
	return 0
}

// UndoOf rebuilds the undo of an execution from its Result-Record, for a
// server that lost the live one in a crash: the before-image is the record's,
// the parent compensation follows from the action. (The live undo compensates
// only if the shard held the parent inode when the sub-op ran; this one
// whenever it holds it at rollback, which is the same shard unless the
// directory itself came or went in between.)
func UndoOf(sub types.SubOp, before []types.Row) Undo {
	if len(before) == 0 {
		return Undo{}
	}
	return Undo{before: before[0], dir: sub.Parent, delta: -parentBump(sub.Action)}
}

// Result is the outcome of executing a sub-operation. It describes a write
// by value — one image each side, at most two rows — so it lives wherever
// its caller keeps it, on the stack for the protocols, and costs no
// allocation of its own.
type Result struct {
	OK    bool
	Err   error        // why the sub-op failed (nil when OK)
	Inode Inode        // stat/lookup payload
	Rows  kvstore.Refs // rows written (for persistence): the row, then the parent inode's if bumped
	Freed bool         // DecLink dropped nlink to zero and freed the inode

	// Before and After are the images of the row the sub-op wrote (the
	// targeted dentry or inode; not the commutative parent counter); a zero
	// Key means it wrote none, as in Undo. They travel in the Result-Record
	// so crash recovery can redo a commit or undo an abort idempotently by
	// installing images.
	Before types.Row
	After  types.Row

	// dir and delta are the parent compensation of the undo (see Undo).
	dir   types.InodeID
	delta int64
}

// Undo returns the execution's runtime rollback: its before-image and the
// parent compensation (empty for reads and failures).
func (r *Result) Undo() Undo { return Undo{before: r.Before, dir: r.dir, delta: r.delta} }

// Images returns the write's images as a Result-Record carries them: one
// before and one after, or none for an execution that wrote nothing. The
// slices are r's own fields; the log copies what it keeps of them.
func (r *Result) Images() (before, after []types.Row) {
	if r.Before.Key.Kind == 0 {
		return nil, nil
	}
	return unsafe.Slice(&r.Before, 1), unsafe.Slice(&r.After, 1)
}

// Written is what an execution wrote, as a protocol keeps it to take back or
// persist again later: its undo and the handles of the rows it wrote, whose
// keys the undo names — the object's row is the one its before-image is of,
// the parent inode's the directory it compensates. So it holds a Result's
// Undo and Rows in 112 bytes where the two side by side take 200.
type Written struct {
	undo Undo
	rows [2]kvstore.Row
}

// Written returns what r wrote.
func (r *Result) Written() Written {
	return Written{undo: r.Undo(), rows: [2]kvstore.Row{r.Rows[0].Row, r.Rows[1].Row}}
}

// Undo returns the undo of the execution.
func (w *Written) Undo() Undo { return w.undo }

// Rows returns the rows the execution wrote, as its Result's Rows.
func (w *Written) Rows() kvstore.Refs {
	var rs kvstore.Refs
	if !w.undo.Empty() {
		rs[0] = kvstore.Ref{Key: w.undo.before.Key, Row: w.rows[0]}
	}
	if w.undo.delta != 0 {
		rs[1] = kvstore.Ref{Key: types.InodeKey(w.undo.dir), Row: w.rows[1]}
	}
	return rs
}

// Shard is one server's namespace partition.
type Shard struct {
	kv *kvstore.Store
}

// NewShard wraps a store.
func NewShard(kv *kvstore.Store) *Shard { return &Shard{kv: kv} }

// Store exposes the underlying kvstore (the protocols drive persistence).
func (sh *Shard) Store() *kvstore.Store { return sh.kv }

// InitRoot installs the root directory inode on the shard that owns it.
func (sh *Shard) InitRoot() {
	sh.SeedInode(Inode{Ino: types.RootInode, Type: types.FileDir, Nlink: 2})
}

// SeedInode force-installs an inode row (test and trace-bootstrap helper).
func (sh *Shard) SeedInode(in Inode) {
	var buf [inodeLen]byte
	sh.put(types.InodeKey(in.Ino), appendInode(buf[:0], in))
}

// SeedDentry force-installs a directory entry (test and bootstrap helper).
func (sh *Shard) SeedDentry(dir types.InodeID, name string, ino types.InodeID) {
	var buf [8]byte
	sh.put(types.DentryKey(dir, name), AppendIno(buf[:0], ino))
}

// put writes val as the row of k.
func (sh *Shard) put(k types.ObjKey, val []byte) { sh.kv.PutAt(sh.kv.Find(k), k, val) }

// GetInode reads an inode row.
func (sh *Shard) GetInode(ino types.InodeID) (Inode, bool) {
	raw := sh.lookup(types.InodeKey(ino))
	if !raw.Present() {
		return Inode{}, false
	}
	return decodeInode(raw.Bytes()), true
}

// LookupEntry resolves (dir, name) to an inode number.
func (sh *Shard) LookupEntry(dir types.InodeID, name string) (types.InodeID, bool) {
	raw := sh.lookup(types.DentryKey(dir, name))
	return DentryIno(raw.Bytes())
}

// ResolveEntry resolves (dir, name) to the full inode for the leased read
// path. The dentry is authoritative here by placement (the coordinator for
// (dir, name) owns it); the inode row may live on another server, in which
// case the binding is still a valid lease payload and only the attributes
// are zero.
func (sh *Shard) ResolveEntry(dir types.InodeID, name string) (Inode, bool) {
	ino, ok := sh.LookupEntry(dir, name)
	if !ok {
		return Inode{}, false
	}
	if in, ok := sh.GetInode(ino); ok {
		return in, true
	}
	return Inode{Ino: ino}, true
}

// Exec applies one sub-operation to the volatile image, returning its
// result and undo: ExecRow on the row a probe finds.
func (sh *Shard) Exec(sub types.SubOp, now uint64) Result {
	obj, ok := sub.Key()
	if !ok {
		return Result{Err: fmt.Errorf("namespace: unknown action %v", sub.Action)}
	}
	return sh.ExecRow(sub, sh.kv.Find(obj), now)
}

// ExecRow applies one sub-operation to the volatile image, given row, the
// row a current Probe of its object found, and returns its result and undo.
// now is the virtual timestamp for ctime/mtime fields. ExecRow never touches
// the disk; persistence (sync or batched) is the caller's protocol decision.
//
// The sub-op's object is one row, read once by handle: the action checks
// what it found and says what the row becomes, and one tail writes it and
// describes the write — images, rows, undo.
func (sh *Shard) ExecRow(sub types.SubOp, row kvstore.Row, now uint64) Result {
	obj, ok := sub.Key()
	if !ok {
		return Result{Err: fmt.Errorf("namespace: unknown action %v", sub.Action)}
	}
	old := sh.kv.Value(row)
	exists := old.Present()
	var in Inode
	if exists && obj.Kind == types.ObjInode {
		in = decodeInode(old.Bytes())
	}
	var (
		buf   [inodeLen]byte // the new value is encoded here; PutAt copies it
		val   []byte         // what the row becomes; nil = deleted
		freed bool
	)
	switch sub.Action {
	case types.ActReadEntry:
		if !exists {
			return Result{Err: fmt.Errorf("lookup %s: %w", sub.Name, types.ErrNotFound)}
		}
		ino, _ := DentryIno(old.Bytes())
		return Result{OK: true, Inode: Inode{Ino: ino}}
	case types.ActReadInode:
		if !exists {
			return Result{Err: fmt.Errorf("stat %d: %w", sub.Ino, types.ErrNotFound)}
		}
		return Result{OK: true, Inode: in}
	case types.ActInsertEntry:
		if exists {
			return Result{Err: fmt.Errorf("insert %s: %w", sub.Name, types.ErrExists)}
		}
		val = AppendIno(buf[:0], sub.Ino)
	case types.ActRemoveEntry:
		if !exists {
			return Result{Err: fmt.Errorf("remove %s: %w", sub.Name, types.ErrNotFound)}
		}
	case types.ActAddInode:
		if exists {
			return Result{Err: fmt.Errorf("add inode %d: %w", sub.Ino, types.ErrExists)}
		}
		in = Inode{Ino: sub.Ino, Type: sub.Type, Nlink: 1, Ctime: now, Mtime: now}
		if sub.Type == types.FileDir {
			in.Nlink = 2
		}
		val = appendInode(buf[:0], in)
	case types.ActDecLink:
		if !exists {
			return Result{Err: fmt.Errorf("declink %d: %w", sub.Ino, types.ErrNotFound)}
		}
		if sub.Kind == types.OpRmdir && in.Type == types.FileDir && in.Size > 0 {
			return Result{Err: fmt.Errorf("rmdir %d: %w", sub.Ino, types.ErrNotEmpty)}
		}
		dec := uint32(1)
		if in.Type == types.FileDir {
			dec = 2 // dropping "." and the parent link together
		}
		if freed = in.Nlink <= dec; !freed {
			in.Nlink -= dec
			in.Mtime = now
			val = appendInode(buf[:0], in)
		}
	case types.ActIncLink:
		if !exists {
			return Result{Err: fmt.Errorf("inclink %d: %w", sub.Ino, types.ErrNotFound)}
		}
		if in.Type == types.FileDir {
			return Result{Err: fmt.Errorf("inclink %d: %w", sub.Ino, types.ErrIsDir)}
		}
		in.Nlink++
		in.Ctime = now
		val = appendInode(buf[:0], in)
	case types.ActTouchInode:
		if !exists {
			return Result{Err: fmt.Errorf("setattr %d: %w", sub.Ino, types.ErrNotFound)}
		}
		in.Mtime = now
		val = appendInode(buf[:0], in)
	}

	var after types.Val
	if val == nil {
		row = sh.kv.DeleteAt(row, obj)
	} else {
		row, after = sh.kv.PutAt(row, obj, val)
	}
	res := Result{OK: true, Freed: freed,
		Before: types.Row{Key: obj, Val: old}, After: types.Row{Key: obj, Val: after}}
	res.Rows.Add(kvstore.Ref{Key: obj, Row: row})
	// "and update parent inode", undone by compensation, not before-image.
	if bump := parentBump(sub.Action); bump != 0 {
		if ref, held := sh.bumpParent(sub.Parent, bump, now, true); held {
			res.Rows.Add(ref)
			res.dir, res.delta = sub.Parent, -bump
		}
	}
	return res
}

// bumpParent adds delta to the entry count of directory dir if this shard
// holds its inode, and reports the inode's row and whether it did. Large
// striped directories keep the inode on another server; the paper folds the
// update into the coordinator sub-op, so it applies only where the inode is.
// An execution also stamps mtime; a rollback's compensation does not (it
// takes back a count, not the fact that the directory was touched).
func (sh *Shard) bumpParent(dir types.InodeID, delta int64, now uint64, exec bool) (kvstore.Ref, bool) {
	key := types.InodeKey(dir)
	row := sh.kv.Find(key)
	raw := sh.kv.Value(row)
	if !raw.Present() {
		return kvstore.Ref{}, false
	}
	parent := decodeInode(raw.Bytes())
	if exec {
		parent.Mtime = now
	}
	if delta < 0 && parent.Size < uint64(-delta) {
		parent.Size = 0
	} else {
		parent.Size = uint64(int64(parent.Size) + delta)
	}
	var buf [inodeLen]byte
	sh.kv.PutAt(row, key, appendInode(buf[:0], parent))
	return kvstore.Ref{Key: key, Row: row}, true
}

// ApplyUndo restores the before-image captured by a prior Exec and applies
// the compensating parent adjustment, if the parent inode is (still) here.
func (sh *Shard) ApplyUndo(u Undo) {
	sh.install(&u.before)
	if u.delta != 0 {
		sh.bumpParent(u.dir, u.delta, 0, false)
	}
}

// InstallImages force-installs row images; recovery redo/undo path.
func (sh *Shard) InstallImages(imgs []types.Row) {
	for i := range imgs {
		sh.install(&imgs[i])
	}
}

// install force-installs one image (a zero key is no image).
func (sh *Shard) install(img *types.Row) {
	switch {
	case img.Key.Kind == 0:
	case !img.Val.Present():
		sh.kv.DeleteAt(sh.kv.Find(img.Key), img.Key)
	default:
		sh.put(img.Key, img.Val.Bytes())
	}
}

// DirEntry is one readdir result.
type DirEntry = types.DirEntry

// Walk decodes every row of the shard, calling dentry for each directory
// entry with its directory, and inode (if not nil) for each inode. It is the
// one parser of stored rows. Iteration order is the store's, i.e.
// unspecified; callers needing determinism must sort.
func (sh *Shard) Walk(dentry func(dir types.InodeID, e DirEntry), inode func(Inode)) {
	sh.kv.Range(func(key types.ObjKey, val types.Val) bool {
		switch key.Kind {
		case types.ObjDentry:
			if ino, ok := DentryIno(val.Bytes()); ok {
				dentry(key.Dir, DirEntry{Name: key.Name, Ino: ino})
			}
		case types.ObjInode:
			if inode != nil {
				inode(decodeInode(val.Bytes()))
			}
		}
		return true
	})
}

// ListDir scans this shard's partition of directory dir. Directories are
// striped across servers by entry hash, so a full readdir unions the
// ListDir of every server (the OrangeFS model).
func (sh *Shard) ListDir(dir types.InodeID) []DirEntry {
	var out []DirEntry
	sh.Walk(func(d types.InodeID, e DirEntry) {
		if d == dir {
			out = append(out, e)
		}
	}, nil)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fsck recomputes every directory inode's entry count from the dentry rows
// actually present — the local consistency pass a rebooted server runs after
// log-driven redo/undo, because the commutative parent counter is not
// protected by row images. It returns the number of corrected inodes.
func (sh *Shard) Fsck() int {
	counts := make(map[types.InodeID]uint64)
	var dirs []Inode
	sh.Walk(func(dir types.InodeID, _ DirEntry) { counts[dir]++ }, func(in Inode) {
		if in.Type == types.FileDir {
			dirs = append(dirs, in)
		}
	})
	fixed := 0
	for _, in := range dirs {
		if want := counts[in.Ino]; in.Size != want {
			in.Size = want
			sh.SeedInode(in)
			fixed++
		}
	}
	return fixed
}
