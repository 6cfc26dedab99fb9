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
// The package owns the row format — how a dentry and an inode are keyed and
// encoded in the store — and nothing outside it parses a row: Walk decodes a
// shard for whoever needs to see all of it, AppendIno/DentryIno are the
// dentry value as it also travels in a readdir reply.
//
// Every sub-op has one object (types.SubOp.Key), so one row, and the row is
// probed once: Probe builds the object's key on its stack and probes the
// store (the protocol layer's conflict check reads the row's lock from it),
// and ExecRow takes the row it found, reads and writes it by handle, and
// returns, by value in its Result, the row's images before and after and the
// rows it wrote — a kvstore.Refs, handle and key, which is how write-back and
// journaling reach them again. Exec probes and executes in one call; only
// the parent inode a directory-entry action bumps costs a second probe.
//
// Values and keys are the store's own — values are never modified in place,
// a write installs a fresh copy, and the store hands back the table's copy
// of a held row's key — so holding an image is holding the row as it was,
// and only a row new to the store pays for its key, which the store copies
// off the stack with the row's first value. The same before-image is the
// Undo, which every rollback applies: the Cx abort and invalidation paths,
// SE's CLEAR, 2PC's abort, and (rebuilt from the Result-Record by UndoOf) an
// abort after crash recovery.
package namespace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
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

// Row keys. Dentries ("d/<dir>/<name>") and inodes ("i/<ino>") share the
// store with distinct prefixes. appendRow builds one into a buffer the
// caller chooses, with strconv appends rather than fmt.Sprintf: it runs on
// every sub-op and lookup. find, Probe and ExecRow build it on the stack:
// the store looks keys up as they stand and copies only the key of a row it
// files.
func appendRow(buf []byte, k types.ObjKey) []byte {
	switch k.Kind {
	case types.ObjDentry:
		buf = append(buf, 'd', '/')
		buf = strconv.AppendUint(buf, uint64(k.Dir), 10)
		buf = append(buf, '/')
		return append(buf, k.Name...)
	case types.ObjInode:
		buf = append(buf, 'i', '/')
		return strconv.AppendUint(buf, uint64(k.Ino), 10)
	}
	panic("namespace: RowKey on invalid ObjKey")
}

// keyBuf is the stack room for a row key: an inode key always fits, a dentry
// key whenever its name is up to 40 bytes; a longer one spills to the heap.
const keyBuf = 64

// RowKey returns the kvstore row key for an object key, as a new string.
func RowKey(k types.ObjKey) string {
	var buf [keyBuf]byte
	return string(appendRow(buf[:0], k))
}

// find returns the store's row of object k, kvstore.NoRow if the store holds
// no record of it. The key is built on the stack and looked up as it stands —
// the store does not retain it — so find allocates nothing.
func (sh *Shard) find(k types.ObjKey) kvstore.Row {
	var buf [keyBuf]byte
	b := appendRow(buf[:0], k)
	return sh.kv.Find(unsafe.String(unsafe.SliceData(b), len(b)))
}

// Probe is find, stamped (kvstore.Probe): the one probe of a sub-op's
// object, which the protocol layer makes when the request arrives and, if the
// answer is still current, need not make again when it executes.
func (sh *Shard) Probe(k types.ObjKey) kvstore.Probe {
	var buf [keyBuf]byte
	b := appendRow(buf[:0], k)
	return sh.kv.Probe(unsafe.String(unsafe.SliceData(b), len(b)))
}

// lookup reads the row of object k: its value and whether it is live.
func (sh *Shard) lookup(k types.ObjKey) (val []byte, ok bool) {
	return sh.kv.Value(sh.find(k))
}

// Undo rolls back one sub-operation. The one row it wrote (the dentry or
// inode it targets) is restored from its before-image; the parent-inode
// attribute bump that rides along with entry insertion/removal is undone by
// a *compensating* adjustment instead, because concurrent operations on the
// same directory update it commutatively and a before-image would clobber
// their effects. The zero Undo (a read, a failed execution) restores nothing.
type Undo struct {
	before types.RowImage // Key "" = nothing to restore
	dir    types.InodeID  // the parent directory whose entry count moved
	delta  int64          // what to add to it to take that back; 0 = nothing
}

// Empty reports whether the undo has nothing to restore.
func (u Undo) Empty() bool { return u.before.Key == "" }

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
func UndoOf(sub types.SubOp, before []types.RowImage) Undo {
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
	Undo  Undo         // runtime rollback (empty for reads)
	Freed bool         // DecLink dropped nlink to zero and freed the inode

	// Before and After are the images of the row the sub-op wrote (the
	// targeted dentry or inode; not the commutative parent counter); Key ""
	// means it wrote none, as in Undo. They travel in the Result-Record so
	// crash recovery can redo a commit or undo an abort idempotently by
	// installing images.
	Before types.RowImage
	After  types.RowImage
}

// Images returns the write's images as a Result-Record carries them: one
// before and one after, or none for an execution that wrote nothing. The
// slices are r's own fields; the log copies what it keeps of them.
func (r *Result) Images() (before, after []types.RowImage) {
	if r.Before.Key == "" {
		return nil, nil
	}
	return unsafe.Slice(&r.Before, 1), unsafe.Slice(&r.After, 1)
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
	sh.kv.Put(RowKey(types.InodeKey(in.Ino)), appendInode(nil, in))
}

// SeedDentry force-installs a directory entry (test and bootstrap helper).
func (sh *Shard) SeedDentry(dir types.InodeID, name string, ino types.InodeID) {
	sh.kv.Put(RowKey(types.DentryKey(dir, name)), AppendIno(nil, ino))
}

// GetInode reads an inode row.
func (sh *Shard) GetInode(ino types.InodeID) (Inode, bool) {
	raw, ok := sh.lookup(types.InodeKey(ino))
	if !ok {
		return Inode{}, false
	}
	return decodeInode(raw), true
}

// LookupEntry resolves (dir, name) to an inode number.
func (sh *Shard) LookupEntry(dir types.InodeID, name string) (types.InodeID, bool) {
	raw, _ := sh.lookup(types.DentryKey(dir, name))
	return DentryIno(raw)
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
	return sh.ExecRow(sub, sh.find(obj), now)
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
	old, exists := sh.kv.Value(row)
	var in Inode
	if exists && obj.Kind == types.ObjInode {
		in = decodeInode(old)
	}
	var (
		buf   [inodeLen]byte // the new value is encoded here; Put copies it
		val   []byte         // what the row becomes; nil = deleted
		freed bool
	)
	switch sub.Action {
	case types.ActReadEntry:
		if !exists {
			return Result{Err: fmt.Errorf("lookup %s: %w", sub.Name, types.ErrNotFound)}
		}
		ino, _ := DentryIno(old)
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

	// A row the store does not hold yet is filed under a copy of its key,
	// which is built here on the stack.
	var kb [keyBuf]byte
	var newKey string
	if row == kvstore.NoRow {
		b := appendRow(kb[:0], obj)
		newKey = unsafe.String(unsafe.SliceData(b), len(b))
	}
	// "and update parent inode", undone by compensation, not before-image.
	parent, bump := kvstore.NoRow, parentBump(sub.Action)
	if bump != 0 {
		parent = sh.find(types.InodeKey(sub.Parent))
	}
	var after []byte
	if val == nil {
		row = sh.kv.DeleteAt(row, newKey)
	} else {
		row, after = sh.kv.PutAt(row, newKey, val)
	}
	key := sh.kv.Key(row)
	res := Result{OK: true, Freed: freed,
		Before: types.RowImage{Key: key, Val: old}, After: types.RowImage{Key: key, Val: after}}
	res.Rows.Add(kvstore.Ref{Key: key, Row: row})
	res.Undo.before = res.Before
	if bump != 0 {
		if prow, held := sh.bumpParent(parent, bump, now, true); held {
			res.Rows.Add(prow)
			res.Undo.dir, res.Undo.delta = sub.Parent, -bump
		}
	}
	return res
}

// bumpParent adds delta to the entry count of a directory if this shard
// holds its inode, whose row (find) is row, and reports the inode's row and
// whether it did. Large striped directories keep the inode on another
// server; the paper folds the update into the coordinator sub-op, so it
// applies only where the inode is. An execution also stamps mtime; a
// rollback's compensation does not (it takes back a count, not the fact that
// the directory was touched).
func (sh *Shard) bumpParent(row kvstore.Row, delta int64, now uint64, exec bool) (kvstore.Ref, bool) {
	raw, held := sh.kv.Value(row)
	if !held {
		return kvstore.Ref{}, false
	}
	parent := decodeInode(raw)
	if exec {
		parent.Mtime = now
	}
	if delta < 0 && parent.Size < uint64(-delta) {
		parent.Size = 0
	} else {
		parent.Size = uint64(int64(parent.Size) + delta)
	}
	var buf [inodeLen]byte
	sh.kv.PutAt(row, "", appendInode(buf[:0], parent))
	return kvstore.Ref{Key: sh.kv.Key(row), Row: row}, true
}

// ApplyUndo restores the before-image captured by a prior Exec and applies
// the compensating parent adjustment, if the parent inode is (still) here.
func (sh *Shard) ApplyUndo(u Undo) {
	sh.InstallImages([]types.RowImage{u.before})
	if u.delta != 0 {
		sh.bumpParent(sh.find(types.InodeKey(u.dir)), u.delta, 0, false)
	}
}

// InstallImages force-installs row images (an image without a key is no
// image); recovery redo/undo path.
func (sh *Shard) InstallImages(imgs []types.RowImage) {
	for _, img := range imgs {
		switch {
		case img.Key == "":
		case img.Val == nil:
			sh.kv.Delete(img.Key)
		default:
			sh.kv.Put(img.Key, img.Val)
		}
	}
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name string
	Ino  types.InodeID
}

// Walk decodes every row of the shard, calling dentry for each directory
// entry with its directory, and inode (if not nil) for each inode. It is the
// one parser of stored rows. Iteration order is the store's, i.e.
// unspecified; callers needing determinism must sort.
func (sh *Shard) Walk(dentry func(dir types.InodeID, e DirEntry), inode func(Inode)) {
	sh.kv.Range(func(key string, val []byte) bool {
		// "d/<dir>/<name>": split on the first two slashes only — a name may
		// itself contain slashes or spaces, and must not be truncated.
		if rest, ok := strings.CutPrefix(key, "d/"); ok {
			dirStr, name, _ := strings.Cut(rest, "/")
			dir, err := strconv.ParseUint(dirStr, 10, 64)
			if ino, ok := DentryIno(val); ok && err == nil {
				dentry(types.InodeID(dir), DirEntry{Name: name, Ino: ino})
			}
		} else if strings.HasPrefix(key, "i/") && inode != nil {
			inode(decodeInode(val))
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
