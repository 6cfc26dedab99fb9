package types

import "fmt"

// Op is one metadata operation as issued by an application process, before
// placement. The cluster layer resolves it to a coordinator and participant
// server and splits it into SubOps per Table I of the paper.
type Op struct {
	ID   OpID
	Kind OpKind

	// Parent and Name locate the directory entry the operation manipulates.
	Parent InodeID
	Name   string

	// Ino is the inode the operation targets: the new inode for
	// create/mkdir (assigned by the client from its inode allocator, as
	// OrangeFS clients pick a random metadata server for the new object),
	// or the existing inode for remove/link/unlink/stat/setattr.
	Ino InodeID

	// Type is the inode type for create/mkdir.
	Type FileType

	// NewParent/NewName are the destination for rename.
	NewParent InodeID
	NewName   string
}

// String renders an Op compactly for logs.
func (o Op) String() string {
	return fmt.Sprintf("%s %s dir=%d name=%q ino=%d", o.ID, o.Kind, o.Parent, o.Name, o.Ino)
}

// SubOpAction enumerates the primitive metadata mutations a sub-operation
// performs on one server, mirroring the "Sub-op on Coordinator / Participant"
// columns of Table I.
type SubOpAction uint8

const (
	ActNone SubOpAction = iota
	// ActInsertEntry inserts (Parent, Name) -> Ino and bumps the parent
	// inode's mtime/size (coordinator side of create/mkdir/link).
	ActInsertEntry
	// ActRemoveEntry deletes (Parent, Name) and bumps the parent inode
	// (coordinator side of remove/rmdir/unlink).
	ActRemoveEntry
	// ActAddInode creates inode Ino with type Type and nlink 1
	// (participant side of create/mkdir).
	ActAddInode
	// ActDecLink decrements nlink of Ino and frees it at zero
	// (participant side of remove/rmdir/unlink).
	ActDecLink
	// ActIncLink increments nlink of Ino (participant side of link).
	ActIncLink
	// ActReadInode reads inode attributes (stat).
	ActReadInode
	// ActReadEntry resolves (Parent, Name) -> Ino (lookup).
	ActReadEntry
	// ActTouchInode updates inode attributes in place (setattr).
	ActTouchInode
)

var subOpActionNames = [...]string{
	ActNone:        "none",
	ActInsertEntry: "insert-entry",
	ActRemoveEntry: "remove-entry",
	ActAddInode:    "add-inode",
	ActDecLink:     "dec-link",
	ActIncLink:     "inc-link",
	ActReadInode:   "read-inode",
	ActReadEntry:   "read-entry",
	ActTouchInode:  "touch-inode",
}

// String renders a SubOpAction.
func (a SubOpAction) String() string {
	if int(a) < len(subOpActionNames) {
		return subOpActionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Mutating reports whether the action changes metadata state.
func (a SubOpAction) Mutating() bool {
	switch a {
	case ActInsertEntry, ActRemoveEntry, ActAddInode, ActDecLink, ActIncLink, ActTouchInode:
		return true
	}
	return false
}

// SubOp is the unit of execution on one server: the action, the operation it
// belongs to, and the object parameters. A server executes a SubOp against
// its namespace shard and reports success or failure.
type SubOp struct {
	Op     OpID
	Kind   OpKind // kind of the whole operation, for accounting
	Role   Role
	Action SubOpAction

	Parent InodeID
	Name   string
	Ino    InodeID
	Type   FileType
}

// String renders a SubOp compactly.
func (s SubOp) String() string {
	return fmt.Sprintf("%s/%s %s dir=%d name=%q ino=%d", s.Op, s.Role, s.Action, s.Parent, s.Name, s.Ino)
}

// Key returns the one metadata object the sub-op reads or writes (Table I
// gives every sub-op exactly one), and false for an action that names none.
// It is the row the sub-op executes against and the key it conflicts on: a
// pending cross-server operation marks exactly this key active on the
// executing server, and another process touching an active key raises a
// conflict (§III.C).
//
// The parent-inode attribute update that rides along with entry insertion
// and removal (Table I: "and update parent inode") is deliberately NOT part
// of the key: it is a commutative counter/mtime bump, and treating it as a
// conflict object would make every pair of creates into a shared directory
// conflict — contradicting the paper's measured conflict ratios (Table II),
// where checkpoint workloads creating into one common directory conflict on
// well under 1% of operations. Its rollback is compensating (namespace.Undo)
// rather than before-image for the same reason.
func (s SubOp) Key() (ObjKey, bool) {
	switch s.Action {
	case ActInsertEntry, ActRemoveEntry, ActReadEntry:
		return DentryKey(s.Parent, s.Name), true
	case ActAddInode, ActDecLink, ActIncLink, ActReadInode, ActTouchInode:
		return InodeKey(s.Ino), true
	}
	return ObjKey{}, false
}

// Split decomposes a cross-server operation into its coordinator and
// participant sub-operations per Table I. It panics on non-cross-server
// kinds; callers route those through SingleSubOp.
func Split(op Op) (coord, part SubOp) {
	coord = SubOp{Op: op.ID, Kind: op.Kind, Role: RoleCoordinator, Parent: op.Parent, Name: op.Name, Ino: op.Ino, Type: op.Type}
	part = SubOp{Op: op.ID, Kind: op.Kind, Role: RoleParticipant, Parent: op.Parent, Name: op.Name, Ino: op.Ino, Type: op.Type}
	switch op.Kind {
	case OpCreate:
		coord.Action = ActInsertEntry
		part.Action = ActAddInode
		part.Type = FileRegular
	case OpMkdir:
		coord.Action = ActInsertEntry
		part.Action = ActAddInode
		part.Type = FileDir
	case OpRemove, OpRmdir, OpUnlink:
		coord.Action = ActRemoveEntry
		part.Action = ActDecLink
	case OpLink:
		coord.Action = ActInsertEntry
		part.Action = ActIncLink
	default:
		panic(fmt.Sprintf("types: Split on non-cross-server op %v", op.Kind))
	}
	return coord, part
}

// SingleSubOp builds the sub-operation for a single-server read or update
// (stat, lookup, setattr). The Role is RoleCoordinator by convention.
func SingleSubOp(op Op) SubOp {
	s := SubOp{Op: op.ID, Kind: op.Kind, Role: RoleCoordinator, Parent: op.Parent, Name: op.Name, Ino: op.Ino}
	switch op.Kind {
	case OpStat:
		s.Action = ActReadInode
	case OpLookup:
		s.Action = ActReadEntry
	case OpSetAttr:
		s.Action = ActTouchInode
	default:
		panic(fmt.Sprintf("types: SingleSubOp on %v", op.Kind))
	}
	return s
}
