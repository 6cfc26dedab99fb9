// Package wire defines the message vocabulary of the cxfs protocols and a
// binary codec for it.
//
// The Cx-specific messages follow Table III of the paper:
//
//	VOTE          coordinator -> participant   query the sub-ops' results
//	YES/NO        server -> process/coordinator execution result
//	COMMIT-REQ    coordinator -> participant    commit the executions
//	ABORT-REQ     coordinator -> participant    abort the executions
//	ACK           participant -> coordinator    operation complete
//	L-COM         process -> coordinator        launch an immediate commitment
//	ALL-NO        coordinator -> process        all executions aborted
//
// The YES/NO result travels as SubOpResp with the conflict hint of §III.C
// and an execution epoch, so a process can recognize that an earlier
// response was superseded by a disordered-conflict invalidation. VOTE,
// COMMIT-REQ, ABORT-REQ, and ACK are batch messages: lazy commitment packs
// many operations into each, which is where Cx's message overhead stays
// under 4% (Table IV).
//
// The remaining messages serve the baselines: OpReq/OpResp drive 2PC and CE
// through the coordinator, Clear is SE's compensation message, and the
// Migrate family implements CE's object migration. ConflictNotify is an
// implementation detail the paper leaves implicit: when the *participant*
// detects a conflict on an active object, it must ask that operation's
// coordinator to launch the immediate commitment.
//
// Every message has a deterministic encoded size; the simulated network
// charges transfer time by that size.
package wire

import (
	"fmt"
	"time"

	"cxfs/internal/types"
)

// MsgType enumerates message kinds.
type MsgType uint8

const (
	MsgInvalid MsgType = iota
	// Client <-> server.
	MsgSubOpReq  // process assigns a sub-op to a server (Cx, SE)
	MsgSubOpResp // YES/NO with conflict hint and epoch
	MsgOpReq     // whole-op request to the coordinator (2PC, CE)
	MsgOpResp    // whole-op response (2PC, CE)
	MsgLCom      // L-COM: launch immediate commitment (Cx)
	MsgAllNo     // ALL-NO: all executions aborted (Cx)
	MsgClear     // SE compensation: roll back participant sub-op
	// Server <-> server.
	MsgVote           // VOTE (batched for Cx lazy commitment; carries sub-op for 2PC)
	MsgVoteResp       // YES/NO votes for a batch
	MsgCommitReq      // COMMIT-REQ / ABORT-REQ carried as one batch message
	MsgAck            // ACK for a batch
	MsgConflictNotify // participant-detected conflict: ask coordinator to commit
	MsgMigrateReq     // CE: request object rows
	MsgMigrateResp    // CE: object rows
	MsgMigrateBack    // CE: return updated rows
	MsgMigrateAck     // CE: rows reinstalled
	// Chassis-level liveness (answered by node.Base, not the protocol).
	MsgPing
	MsgPong
	// Client read path with leases (extension; ROADMAP item 5).
	MsgLookupReq  // resolve (Dir, Path) -> inode, requesting a lease
	MsgLookupResp // resolution result plus the granted lease (epoch/TTL)
	msgTypeCount
)

var msgTypeNames = [...]string{
	MsgInvalid:        "invalid",
	MsgSubOpReq:       "SUBOP-REQ",
	MsgSubOpResp:      "YES/NO",
	MsgOpReq:          "REQ",
	MsgOpResp:         "RESP",
	MsgLCom:           "L-COM",
	MsgAllNo:          "ALL-NO",
	MsgClear:          "CLEAR",
	MsgVote:           "VOTE",
	MsgVoteResp:       "VOTE-RESP",
	MsgCommitReq:      "COMMIT/ABORT-REQ",
	MsgAck:            "ACK",
	MsgConflictNotify: "C-NOTIFY",
	MsgMigrateReq:     "MIGRATE-REQ",
	MsgMigrateResp:    "MIGRATE-RESP",
	MsgMigrateBack:    "MIGRATE-BACK",
	MsgMigrateAck:     "MIGRATE-ACK",
	MsgPing:           "PING",
	MsgPong:           "PONG",
	MsgLookupReq:      "LOOKUP-REQ",
	MsgLookupResp:     "LOOKUP-RESP",
}

// String renders a MsgType using the paper's names where they exist.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// NumMsgTypes is the count of valid message types.
const NumMsgTypes = int(msgTypeCount)

// Vote is one operation's YES/NO inside a batched VOTE-RESP.
type Vote struct {
	Op types.OpID
	OK bool
}

// Decision is one operation's commit-or-abort inside a batched COMMIT-REQ.
type Decision struct {
	Op     types.OpID
	Commit bool
}

// Msg is one message. A single flat struct (rather than one type per
// message) keeps the codec total and the simulated network allocation-free;
// only the fields relevant to Type are populated.
type Msg struct {
	Type MsgType
	From types.NodeID
	To   types.NodeID

	// Op identifies the operation for single-op messages; ReplyProc is the
	// issuing process for messages a server must answer to a client.
	Op        types.OpID
	ReplyProc types.ProcID

	// Sub is the sub-op payload of SubOpReq (and of Vote in 2PC, where the
	// coordinator tells the participant what to execute).
	Sub types.SubOp
	// FullOp carries the whole operation for OpReq (2PC, CE).
	FullOp types.Op
	// Peer names the other server of the operation, so the receiving
	// server knows who to run the commitment with.
	Peer types.NodeID

	// OK carries YES (true) / NO (false); Err the failure description.
	OK  bool
	Err string
	// Hint is the conflict hint of a SubOpResp ([null] = zero OpID), and
	// Epoch its execution epoch: re-executions after invalidation bump it.
	Hint  types.OpID
	Epoch uint32
	// Attr is the inode payload of stat/lookup responses.
	Attr types.Inode

	// Dir and Path name the directory entry of the leased read path: a
	// LookupReq resolves (Dir, Path); the LookupResp and lease revocations
	// (ConflictNotify with Path set) echo them so the client cache knows
	// which entry the message is about.
	Dir  types.InodeID
	Path string
	// LeaseEpoch fences a lease to the granting server's boot incarnation:
	// grants and revocations from a rebooted server carry a higher epoch,
	// and the client cache drops entries from older epochs. Zero = no
	// lease. LeaseTTL is the grant's validity window.
	LeaseEpoch uint64
	LeaseTTL   time.Duration

	// Batch payloads.
	Ops []types.OpID // VOTE, ACK
	// Enforce carries, for an immediate-commitment VOTE, the operations the
	// coordinator has blocked *behind* the voted operations — its execution
	// order. A participant holding one of these executed-but-uncommitted
	// must invalidate it (disordered conflict, §III.C); conflicting ops NOT
	// listed here are unrelated at the coordinator and are resolved by
	// committing them first (ordered conflict).
	Enforce   []types.OpID
	Votes     []Vote           // VOTE-RESP
	Decisions []Decision       // COMMIT/ABORT-REQ
	Rows      []types.RowImage // MIGRATE-RESP, MIGRATE-BACK (CE); readdir entries
	Keys      []string         // MIGRATE-REQ
}

// String renders a message compactly for debugging.
func (m Msg) String() string {
	return fmt.Sprintf("%s %v->%v op=%s ok=%v batch=%d", m.Type, m.From, m.To, m.Op, m.OK, len(m.Ops)+len(m.Votes)+len(m.Decisions))
}
