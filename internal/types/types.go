// Package types defines the identifiers, operation vocabulary, and metadata
// object keys shared by every layer of the cxfs reproduction: the namespace
// shard, the wire protocol, the Cx core, and the baseline protocols.
//
// The definitions follow section III.A of the paper: an operation is uniquely
// identified by (client ID, process ID, sequence number); a cross-server
// operation splits into exactly two sub-operations, one on the coordinator
// (the server holding the parent directory entry partition) and one on the
// participant (the server holding the file inode), per Table I.
package types

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// NodeID identifies a node (metadata server or client host) in the cluster.
// Servers are numbered from 0; client hosts use a disjoint range assigned by
// the cluster builder.
type NodeID int32

// String renders a NodeID for logs and traces.
func (n NodeID) String() string { return fmt.Sprintf("node%d", int32(n)) }

// ProcID identifies one application process: the coalescence of a client
// host ID and a per-host process index, as in the paper's operation ID.
type ProcID struct {
	Client NodeID // client host the process runs on
	Index  int32  // process index within the host
}

// String renders a ProcID.
func (p ProcID) String() string { return fmt.Sprintf("p%d.%d", int32(p.Client), p.Index) }

// OpID uniquely identifies a metadata operation cluster-wide. Seq is assigned
// monotonically by the issuing process.
type OpID struct {
	Proc ProcID
	Seq  uint64
}

// NilOp is the zero OpID, used as the "[null]" conflict hint.
var NilOp = OpID{}

// IsNil reports whether the OpID is the null hint.
func (o OpID) IsNil() bool { return o == NilOp }

// Hash mixes the ID's three fields into a hash-table slot number's worth of
// bits (seg.Table's key hash): the process's two halves and the sequence
// number, spread by a golden-ratio multiply, through the MurmurHash3 64-bit
// finalizer. It is unseeded.
func (o OpID) Hash() uint64 {
	h := uint64(uint32(o.Proc.Client))<<32 | uint64(uint32(o.Proc.Index))
	h ^= o.Seq * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// String renders an OpID; the null hint prints as "[null]" to match the
// paper's notation.
func (o OpID) String() string {
	if o.IsNil() {
		return "[null]"
	}
	return fmt.Sprintf("%s#%d", o.Proc, o.Seq)
}

// OpKind enumerates the metadata operations handled by the system. The first
// six are the cross-server operations of Table I; Stat and Lookup are
// single-server reads; SetAttr is a single-server update. Rename, which the
// paper leaves out of Cx (§II.A), is not served.
type OpKind uint8

const (
	OpInvalid OpKind = iota
	OpCreate
	OpRemove
	OpMkdir
	OpRmdir
	OpLink
	OpUnlink
	OpStat
	OpLookup
	OpSetAttr
	_ // unused, so that OpReaddir and every later kind keep their encoded value
	// OpReaddir lists a directory; because directories are striped, the
	// client fans it out to every server and unions the partitions.
	OpReaddir
	opKindCount // one past the last kind
)

var opKindNames = [...]string{
	OpInvalid: "invalid",
	OpCreate:  "create",
	OpRemove:  "remove",
	OpMkdir:   "mkdir",
	OpRmdir:   "rmdir",
	OpLink:    "link",
	OpUnlink:  "unlink",
	OpStat:    "stat",
	OpLookup:  "lookup",
	OpSetAttr: "setattr",
	OpReaddir: "readdir",
}

// String returns the lowercase name of the operation kind.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) && opKindNames[k] != "" {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// CrossServer reports whether the operation kind updates metadata on two
// servers (when the coordinator and participant placements differ).
func (k OpKind) CrossServer() bool {
	switch k {
	case OpCreate, OpRemove, OpMkdir, OpRmdir, OpLink, OpUnlink:
		return true
	}
	return false
}

// Mutating reports whether the operation kind updates any metadata at all.
func (k OpKind) Mutating() bool {
	return k.CrossServer() || k == OpSetAttr
}

// InodeID identifies a file or directory inode cluster-wide. Inode 1 is the
// filesystem root; 0 is invalid.
type InodeID uint64

// RootInode is the inode number of the filesystem root directory.
const RootInode InodeID = 1

// ObjKind distinguishes the two metadata object classes a sub-operation can
// touch: a directory entry (dentry) or an inode.
type ObjKind uint8

const (
	ObjDentry ObjKind = iota + 1
	ObjInode
)

// String renders an ObjKind.
func (k ObjKind) String() string {
	switch k {
	case ObjDentry:
		return "dentry"
	case ObjInode:
		return "inode"
	}
	return fmt.Sprintf("objkind(%d)", uint8(k))
}

// ObjKey names one metadata object. For a dentry, Dir and Name identify the
// entry and Ino is ignored; for an inode, Ino identifies it and Dir/Name are
// zero. ObjKey is comparable and is the unit of conflict detection and of
// locking: the database row it names carries its object's lock.
type ObjKey struct {
	Kind ObjKind
	Dir  InodeID // parent directory inode (dentry keys only)
	Name string  // entry name (dentry keys only)
	Ino  InodeID // inode number (inode keys only)
}

// DentryKey builds the key of the entry name in directory dir.
func DentryKey(dir InodeID, name string) ObjKey {
	return ObjKey{Kind: ObjDentry, Dir: dir, Name: name}
}

// InodeKey builds the key of inode ino.
func InodeKey(ino InodeID) ObjKey {
	return ObjKey{Kind: ObjInode, Ino: ino}
}

// Compare orders keys totally, by kind, directory, name and inode: the order
// an operation takes several objects' locks in (node.Base.Acquire).
func (k ObjKey) Compare(o ObjKey) int {
	return cmp.Or(cmp.Compare(k.Kind, o.Kind), cmp.Compare(k.Dir, o.Dir),
		cmp.Compare(k.Name, o.Name), cmp.Compare(k.Ino, o.Ino))
}

// Hash is the key's unseeded hash: the key store's index files each record
// by its low 32 bits, and the lease table and the client cache file their
// keys by it (node.FIFOMap). A name is mixed in eight bytes at a time, and
// MurmurHash3's finalizer carries every input bit to the low bits.
func (k ObjKey) Hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(k.Kind)<<56 ^ uint64(k.Dir)*m ^ uint64(k.Ino) ^ uint64(len(k.Name))<<32
	s := k.Name
	for ; len(s) >= 8; s = s[8:] {
		h = bits.RotateLeft64(h^le64(s), 29) * m
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	h ^= tail
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// le64 reads the first eight bytes of s as a little-endian word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// String renders an ObjKey.
func (k ObjKey) String() string {
	switch k.Kind {
	case ObjDentry:
		return fmt.Sprintf("dentry(%d,%q)", k.Dir, k.Name)
	case ObjInode:
		return fmt.Sprintf("inode(%d)", k.Ino)
	}
	return "objkey(invalid)"
}

// FileType is the type bit stored in an inode.
type FileType uint8

const (
	FileRegular FileType = iota + 1
	FileDir
)

// String renders a FileType.
func (t FileType) String() string {
	switch t {
	case FileRegular:
		return "file"
	case FileDir:
		return "dir"
	}
	return fmt.Sprintf("filetype(%d)", uint8(t))
}

// Role distinguishes the two servers of a cross-server operation.
type Role uint8

const (
	RoleCoordinator Role = iota + 1
	RoleParticipant
)

// String renders a Role.
func (r Role) String() string {
	switch r {
	case RoleCoordinator:
		return "coordinator"
	case RoleParticipant:
		return "participant"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Inode is the attribute block stored per file or directory, shared between
// the namespace shard (which persists it) and the wire layer (which carries
// it in stat/lookup responses and CE migrations).
type Inode struct {
	Ino   InodeID
	Type  FileType
	Nlink uint32
	Size  uint64
	Ctime uint64 // virtual nanoseconds
	Mtime uint64
}

// Errors shared across layers. Protocol code wraps these with context; tests
// and the harness match them with errors.Is.
var (
	// ErrExists reports that a create/mkdir/link target entry already exists.
	ErrExists = errors.New("entry exists")
	// ErrNotFound reports a missing entry or inode.
	ErrNotFound = errors.New("not found")
	// ErrNotEmpty reports an rmdir of a non-empty directory.
	ErrNotEmpty = errors.New("directory not empty")
	// ErrNotDir reports a directory operation on a non-directory inode.
	ErrNotDir = errors.New("not a directory")
	// ErrIsDir reports a file operation on a directory inode.
	ErrIsDir = errors.New("is a directory")
	// ErrAborted reports that a cross-server operation was aborted because
	// one of its sub-operations failed (the paper's ALL-NO outcome).
	ErrAborted = errors.New("operation aborted")
	// ErrInvalidated reports a sub-op response superseded by invalidation
	// during disordered-conflict handling.
	ErrInvalidated = errors.New("execution invalidated")
	// ErrTimeout reports that a client exhausted its retry budget without
	// receiving a reply. The operation's outcome is UNKNOWN: it may have
	// executed (and even committed) on the servers. Callers must not treat
	// it as a definite failure.
	ErrTimeout = errors.New("operation timed out (outcome unknown)")
	// ErrNameTooLong reports an operation naming an entry longer than
	// MaxName bytes; the client refuses it before sending anything.
	ErrNameTooLong = errors.New("file name too long")
)

// WireError maps the error text of a failed response back to the sentinel
// it ends with (servers wrap the sentinels with context), so that callers
// can match it with errors.Is. An empty text is a bare abort.
func WireError(msg string) error {
	if msg == "" {
		return ErrAborted
	}
	for _, known := range []error{ErrExists, ErrNotFound, ErrNotEmpty,
		ErrNotDir, ErrIsDir, ErrAborted, ErrInvalidated} {
		if strings.HasSuffix(msg, known.Error()) {
			return fmt.Errorf("%s: %w", msg, known)
		}
	}
	return errors.New(msg)
}

// RetryPolicy governs client-side RPC timeouts and retries. The zero value
// disables retries entirely: the client blocks until a reply arrives, which
// is the correct behavior on a fault-free network (and what benchmarks use).
// With a non-zero Timeout the client retransmits after each timeout with
// exponential backoff, relying on server-side duplicate suppression for
// at-most-once effects, and gives up with ErrTimeout after Attempts tries.
type RetryPolicy struct {
	// Timeout is the wait for the first attempt's reply. Zero disables
	// timeouts and retries.
	Timeout time.Duration
	// MaxTimeout caps the exponential backoff. Zero means 8*Timeout.
	MaxTimeout time.Duration
	// Attempts is the total number of tries (first send included) before
	// the client gives up with ErrTimeout. Zero means 6.
	Attempts int
}

// Enabled reports whether the policy actually retries.
func (r RetryPolicy) Enabled() bool { return r.Timeout > 0 }

// MaxAttempts returns the effective attempt budget.
func (r RetryPolicy) MaxAttempts() int {
	if r.Attempts > 0 {
		return r.Attempts
	}
	return 6
}

// WaitFor returns the reply wait for the given zero-based attempt:
// Timeout doubled per attempt, capped at MaxTimeout.
func (r RetryPolicy) WaitFor(attempt int) time.Duration {
	d := r.Timeout
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= r.maxWait() {
			return r.maxWait()
		}
	}
	if m := r.maxWait(); d > m {
		return m
	}
	return d
}

func (r RetryPolicy) maxWait() time.Duration {
	if r.MaxTimeout > 0 {
		return r.MaxTimeout
	}
	return 8 * r.Timeout
}
