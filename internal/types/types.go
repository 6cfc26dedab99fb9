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
	"errors"
	"fmt"
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
// single-server reads; SetAttr is a single-server update; Rename is the
// >2-server operation the paper excludes from Cx (we route it through a 2PC
// fallback as a documented extension).
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
	OpRename
	// OpReaddir lists a directory; because directories are striped, the
	// client fans it out to every server and unions the partitions.
	OpReaddir
	opKindCount // sentinel for validation and array sizing
)

// NumOpKinds is the number of valid operation kinds (excluding OpInvalid).
const NumOpKinds = int(opKindCount) - 1

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
	OpRename:  "rename",
	OpReaddir: "readdir",
}

// String returns the lowercase name of the operation kind.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Valid reports whether k names a real operation.
func (k OpKind) Valid() bool { return k > OpInvalid && k < opKindCount }

// CrossServer reports whether the operation kind updates metadata on two
// servers (when the coordinator and participant placements differ).
func (k OpKind) CrossServer() bool {
	switch k {
	case OpCreate, OpRemove, OpMkdir, OpRmdir, OpLink, OpUnlink, OpRename:
		return true
	}
	return false
}

// Mutating reports whether the operation kind updates any metadata at all.
func (k OpKind) Mutating() bool {
	return k.CrossServer() || k == OpSetAttr
}

// ParseOpKind maps a lowercase name back to its OpKind.
func ParseOpKind(s string) (OpKind, error) {
	for k := OpCreate; k < opKindCount; k++ {
		if opKindNames[k] == s {
			return k, nil
		}
	}
	return OpInvalid, fmt.Errorf("types: unknown op kind %q", s)
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
// zero. ObjKey is comparable and is the unit of conflict detection: the
// active-object table in the Cx core maps ObjKey -> pending operation.
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

// RowImage is a point-in-time image of one database row: Val == nil means
// the row is absent. Result-Records carry the before/after image of the row a
// sub-operation wrote, so crash recovery can redo a committed operation or
// undo an aborted one idempotently by installing images instead of
// re-running non-idempotent logic. It is also the one {key, value} pair on
// the wire: a migrated row (CE), a readdir entry (name, dentry value).
type RowImage struct {
	Key string
	Val []byte // nil = row absent
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
	// ErrServerDown reports that a request reached a crashed server.
	ErrServerDown = errors.New("server down")
	// ErrLogFull reports that a server's operation log hit its upper limit
	// and the request had to wait for pruning (surfaced only by tests; the
	// protocol blocks rather than failing).
	ErrLogFull = errors.New("operation log full")
	// ErrInvalidated reports a sub-op response superseded by invalidation
	// during disordered-conflict handling.
	ErrInvalidated = errors.New("execution invalidated")
	// ErrTimeout reports that a client exhausted its retry budget without
	// receiving a reply. The operation's outcome is UNKNOWN: it may have
	// executed (and even committed) on the servers. Callers must not treat
	// it as a definite failure.
	ErrTimeout = errors.New("operation timed out (outcome unknown)")
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
