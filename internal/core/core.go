// Package core implements Cx, the paper's primary contribution: concurrent
// execution of cross-server operation sub-ops with lazy, batched
// commitment.
//
// # Protocol summary (§III)
//
// A client process sends the two sub-operations of a cross-server operation
// to the coordinator and participant *concurrently*. Each server executes
// provisionally, synchronously appends a Result-Record, and answers YES/NO
// immediately. If both answers agree the process considers the operation
// complete; the commitment — VOTE, COMMIT-REQ/ABORT-REQ, ACK, then a
// Complete-Record — is deferred and batched with other pending commitments,
// launched by a timeout or threshold trigger (§IV.A) or by log pressure: a
// background round starts at ¾ of the log limit, before arrivals have to
// wait for a full log (the paper commits "when the log fills").
// If the answers disagree, the process sends L-COM and the coordinator runs
// an immediate commitment that aborts the successful side and replies
// ALL-NO.
//
// Objects touched by an executed-but-uncommitted operation are *active*.
// A sub-op from a different process touching an active object raises a
// conflict: it blocks, and the pending operation is committed immediately
// (the coordinator is notified with C-NOTIFY when the participant detects
// the conflict). Ordered conflicts simply wait. Disordered conflicts —
// where the participant executed the later arrival first — are resolved by
// enforcing the coordinator's order: the VOTE carries the coordinator's
// blocked-follower set (Enforce), and the participant *invalidates* any
// executed operation in that set (undo + Invalidate-Record + re-queue with
// a bumped execution epoch), then executes the voted operation.
//
// This package is that protocol and nothing else. What any metadata server
// or client needs whatever its protocol — hardware, served inbox, crash and
// reboot, at-most-once execution of retried requests, the lease service,
// reply routes between servers, the retrying client RPC — is the chassis in
// internal/node, which the baselines run on unchanged; Cx adds to its
// duplicate suppression only the checks against its own pending tables,
// parked requests and tombstones.
//
// # Departures from the paper's text (documented in DESIGN.md)
//
//   - Conflict hints are carried exactly as described, but operation
//     completion is driven by explicit invalidation notices plus execution
//     epochs rather than hint equality alone: hint equality as the sole
//     rule deadlocks when two operations conflict on only one of their two
//     servers (the paper's figures only cover the both-server overlap).
//   - A participant voting on an operation it has not yet executed (the
//     sub-op is in flight or blocked) resolves the vote by waiting for
//     arrival, waiting for the blocking operation's commitment, or applying
//     the Enforce rule; a bounded wait (Config.VoteWait) backstops the rare
//     wait-cycle, aborting an operation whose client cannot yet have
//     considered it complete.
//   - Aborted operations leave a bounded tombstone set so a late-arriving
//     or re-queued sub-op of an aborted operation cannot execute after the
//     fact.
//   - A full log is not waited for: log-pressure rounds (pressureRound)
//     commit, write back and prune in the background from ¾ of the limit,
//     and the §III.D hold on new arrivals sits in front of execution, never
//     between an execution and its Result-Record.
package core

import (
	"fmt"
	"sort"
	"time"

	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// Config tunes the Cx server.
type Config struct {
	// Timeout is the lazy-commitment timeout trigger (paper default 10s);
	// 0 disables it.
	Timeout time.Duration
	// Threshold launches a batch when this many operations are pending;
	// 0 disables it.
	Threshold int
	// IdleTrigger launches a batch when the server has received no sub-op
	// requests for this long while work is pending — the alternative
	// trigger the paper's §IV.A leaves as future work ("such as system
	// idle time"). 0 disables it. Idle commitments cost nothing the
	// workload would notice: the disk and network are quiet by definition.
	IdleTrigger time.Duration
	// VoteWait bounds how long a participant vote waits for a sub-op to
	// arrive or a blocking commitment to finish before voting NO.
	VoteWait time.Duration
	// RetryInterval paces VOTE/COMMIT-REQ retransmission to a crashed or
	// slow peer.
	RetryInterval time.Duration
	// NoPiggyback disables carrying other same-participant pending
	// operations on an immediate commitment's round — an ablation knob for
	// benchmarks; production keeps it off (piggybacking on).
	NoPiggyback bool
	// RecoveryFreeze models the fixed phase of §V recovery: the failure
	// detection subsystem confirms the crash, the rebooted node informs
	// every collaborating server to enter the recovery state, and the file
	// system stops responding to new requests. In the paper this fixed
	// cost dominates small backlogs (5KB of valid records still takes 3s),
	// which is what makes Table V sublinear.
	RecoveryFreeze time.Duration
	// LeaseTTL is the validity window stamped on read leases granted to
	// client lookup requests. 0 disables the leased read path: LookupReq is
	// still answered, but without a lease, so clients cannot cache.
	LeaseTTL time.Duration
	// Obs receives protocol-phase trace events and latency samples. Nil
	// (the default) disables all recording at the cost of one pointer
	// check per site — the hot path is unaffected.
	Obs *obs.Observer
}

// DefaultConfig mirrors the paper's experimental defaults.
func DefaultConfig() Config {
	return Config{
		Timeout:        10 * time.Second,
		Threshold:      0,
		VoteWait:       2 * time.Second,
		RetryInterval:  3 * time.Second,
		RecoveryFreeze: 500 * time.Millisecond,
	}
}

// Stats counts protocol events for the harness.
type Stats struct {
	Conflicts uint64 // sub-ops blocked on an active object
	// ImmediateCommits and LazyBatches count the commitment batches that
	// ran: each batch with at least one operation to commit or (lazy only)
	// pages to write back counts exactly once, in whichever the daemon ran
	// it as. A request that finds nothing to do counts in neither.
	ImmediateCommits  uint64 // batches launched by a conflict, L-COM or recovery
	LazyBatches       uint64 // batches launched by a trigger: timeout, threshold, idle, log pressure
	OpsCommitted      uint64
	OpsAborted        uint64
	Invalidations     uint64
	VoteTimeouts      uint64
	LateInvalidations uint64 // invalidation notices for ops a client completed (must stay 0)
	Renames           uint64 // committed rename transactions (extension)
	Lookups           uint64 // LookupReq served (leased read path)
	LeasesGranted     uint64 // read leases stamped on lookup replies (the chassis counts)
	LeaseRevocations  uint64 // revocation notices sent to lease holders (the chassis counts)
}

// pendingExec is one executed-but-uncommitted sub-operation as its pending
// table remembers it: what a vote, a rollback, a duplicate request or a
// re-queue after invalidation needs, and nothing else — the tables hold up
// to a log's worth of entries under log pressure, so the request and
// response messages themselves are not kept. What the execution wrote and
// how to put it back is said once — rows to write back whatever the outcome,
// undo to apply on abort or invalidation — and is the same value whether the
// execution ran in this incarnation or recovery rebuilt the entry from its
// Result-Record (namespace.UndoOf).
type pendingExec struct {
	id         types.OpID
	sub        types.SubOp
	ok         bool
	undo       namespace.Undo
	rows       []string
	peer       types.NodeID // the operation's other server
	client     types.NodeID
	epoch      uint32
	committing bool

	// The recorded response, for duplicate suppression. Recovery-rebuilt
	// entries have none (replied is false): the response died with the
	// volatile state.
	replied bool
	hint    types.OpID
	errStr  string
	attr    types.Inode
}

// reply rebuilds the response this execution was (or will be) answered with.
func (e *pendingExec) reply() wire.Msg {
	return wire.Msg{Type: wire.MsgSubOpResp, To: e.client, Op: e.id,
		OK: e.ok, Err: e.errStr, Hint: e.hint, Epoch: e.epoch, Attr: e.attr}
}

// request rebuilds the sub-op request that produced this execution, for
// re-queueing it after an invalidation.
func (e *pendingExec) request(self types.NodeID) wire.Msg {
	return wire.Msg{Type: wire.MsgSubOpReq, From: e.client, To: self, Op: e.id,
		Sub: e.sub, Peer: e.peer, ReplyProc: e.id.Proc}
}

// coordOp is a pending cross-server operation on its coordinator; peer is
// the participant.
type coordOp struct {
	pendingExec
	lcom bool // client asked for ALL-NO
}

// partOp is a pending cross-server operation on its participant; peer is
// the coordinator.
type partOp struct {
	pendingExec
	since time.Duration // execution time, for staleness nudges
	// named is set once a log-pressure round has asked the coordinator to
	// commit this execution; later rounds do not ask again (the lazy tick's
	// staleness nudge covers a lost request).
	named bool
}

// flushEntry is an operation whose outcome is durable in the log but whose
// database pages have not been written back yet. Entries drain at the next
// lazy batch: one merged flush, then the log records prune. Immediate
// commitments only queue here — per §IV.C.2, they cost messages and
// individual log writes, never an individual database flush.
type flushEntry struct {
	id   types.OpID
	rows []string
}

// blockedReq is a sub-op parked behind an active object.
type blockedReq struct {
	msg    wire.Msg
	holder types.OpID // pending op whose commitment it awaits
	epoch  uint32
	hint   types.OpID // set when released
}

// wantEntry is one remembered commitment request for a not-yet-seen op.
type wantEntry struct {
	lcom bool
	part types.NodeID // the op's participant, if a requester named it (-1 otherwise)
	at   time.Duration
}

// kickReq asks the commit daemon to run. The daemon merges every request
// queued when it wakes into one batch.
type kickReq struct {
	ops  []types.OpID // immediate targets
	lazy bool         // commit everything pending, write back, prune
}

// Server is one Cx metadata server.
type Server struct {
	*node.Base
	cfg Config
	pl  namespace.Placement

	pendingCoord map[types.OpID]*coordOp
	pendingPart  map[types.OpID]*partOp
	flushQ       []flushEntry
	// idleCoord indexes the pendingCoord entries no batch has taken yet, by
	// participant and in registration order, so a batch collects its targets
	// without scanning (and sorting) the whole table.
	idleCoord [][]*coordOp
	// unnamedParts lists participant executions registered since the last
	// log-pressure round, i.e. the ones that round has yet to name to their
	// coordinators.
	unnamedParts []types.OpID
	// unlogged counts, per row, the executions that have written the row's
	// volatile image but whose Result-Record is not durable yet. Write-back
	// leaves such rows (and the log records of every operation waiting on
	// them) for the next batch: a page must never land ahead of the record
	// that can undo it.
	unlogged map[string]int

	active     map[types.ObjKey]types.OpID // executed-pending op holding each object
	waiters    map[types.OpID][]*blockedReq
	blockedOf  map[types.OpID]*blockedReq // cross-server sub-op blocked here, by its op
	tombstones map[types.OpID]bool

	arrivalSig  map[types.OpID][]*simrt.Chan[struct{}]
	completeSig map[types.OpID][]*simrt.Chan[struct{}]

	kick *simrt.Chan[kickReq]
	// lazyQueued is set while a lazy kick sits in the queue the daemon has
	// not picked up: further lazy triggers coalesce into it.
	lazyQueued bool
	// wantCommit remembers commitment requests (C-NOTIFY/L-COM) for ops
	// whose coordinator sub-op has not executed here yet. If the sub-op
	// never materializes (it died with a coordinator crash), the entry
	// expires into a presumed abort — safe, because without a coordinator
	// execution the client cannot have completed the operation.
	wantCommit map[types.OpID]wantEntry

	recovering bool
	lastArrive time.Duration // most recent sub-op arrival, for the idle trigger

	stats Stats
}

// NewServer builds a Cx server on the given chassis.
func NewServer(base *node.Base, pl namespace.Placement, cfg Config) *Server {
	if cfg.VoteWait <= 0 {
		cfg.VoteWait = 2 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 3 * time.Second
	}
	s := &Server{
		Base:         base,
		cfg:          cfg,
		pl:           pl,
		pendingCoord: make(map[types.OpID]*coordOp),
		pendingPart:  make(map[types.OpID]*partOp),
		active:       make(map[types.ObjKey]types.OpID),
		waiters:      make(map[types.OpID][]*blockedReq),
		blockedOf:    make(map[types.OpID]*blockedReq),
		tombstones:   make(map[types.OpID]bool),
		arrivalSig:   make(map[types.OpID][]*simrt.Chan[struct{}]),
		completeSig:  make(map[types.OpID][]*simrt.Chan[struct{}]),
		unlogged:     make(map[string]int),
		kick:         simrt.NewChan[kickReq](base.Sim),
		wantCommit:   make(map[types.OpID]wantEntry),
	}
	return s
}

// Stats returns a snapshot of protocol counters.
func (s *Server) Stats() Stats {
	st, chassis := s.stats, s.Base.Stats()
	st.LeasesGranted, st.LeaseRevocations = chassis.LeasesGranted, chassis.LeaseRevocations
	return st
}

// PendingOps returns how many cross-server operations await commitment here
// as coordinator (the paper's threshold-trigger quantity).
func (s *Server) PendingOps() int { return len(s.pendingCoord) }

// ValidBytes returns the log bytes held by operations still awaiting
// commitment — the paper's "valid-records size" (Figure 7b, Table V).
func (s *Server) ValidBytes() int64 { return s.WAL.LiveBytes() }

// ActiveObjects returns how many objects are currently active (held by
// executed-but-uncommitted operations); zero after quiescence.
func (s *Server) ActiveObjects() int { return len(s.active) }

// DebugOp reports an op's state on this server (diagnostics).
func (s *Server) DebugOp(op types.OpID) string {
	if co := s.pendingCoord[op]; co != nil {
		return fmt.Sprintf("pendingCoord committing=%v participant=%v lcom=%v", co.committing, co.peer, co.lcom)
	}
	if po := s.pendingPart[op]; po != nil {
		return fmt.Sprintf("pendingPart committing=%v coordinator=%v", po.committing, po.peer)
	}
	if s.tombstones[op] {
		return "tombstoned"
	}
	if we, ok := s.wantCommit[op]; ok {
		return fmt.Sprintf("wantCommit lcom=%v participant=%v at=%v", we.lcom, we.part, we.at)
	}
	return "absent"
}

// nudgeStaleParts sends C-NOTIFY to the coordinator of every
// not-yet-committing participant execution older than age, in a
// deterministic operation order (map iteration order must not leak into
// the message sequence).
func (s *Server) nudgeStaleParts(age time.Duration) {
	now := s.Sim.Now()
	var ids []types.OpID
	for _, po := range s.pendingPart {
		if !po.committing && now-po.since > age {
			ids = append(ids, po.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return opLess(ids[i], ids[j]) })
	for _, id := range ids {
		s.Send(wire.Msg{Type: wire.MsgConflictNotify, To: s.pendingPart[id].peer, Op: id})
	}
}

// KickCommit launches a lazy commitment batch, as the harness's quiesce
// step and every lazy trigger do. Triggers coalesce: while one lazy kick is
// queued and not yet picked up, further ones are dropped.
func (s *Server) KickCommit() {
	if s.lazyQueued {
		return
	}
	s.lazyQueued = true
	s.kick.Send(kickReq{lazy: true})
}

// Log-pressure rounds start when the log's live bytes reach
// pressureNum/pressureDen of its limit. Measured on the s3d replay at
// bench size: ½ and ¼ commit in smaller write-back bursts and gain less,
// ⅞ gains slightly more on s3d but leaves too little room on the
// update-dominated Metarates mix, whose arrivals then park at the limit.
const pressureNum, pressureDen = 3, 4

// underPressure reports whether the log has reached the pressure mark.
func (s *Server) underPressure() bool {
	max := s.WAL.MaxBytes()
	return max > 0 && s.WAL.LiveBytes()*pressureDen >= max*pressureNum
}

// pressureRound starts one background round of log reclamation: a lazy
// batch here (commit what this server coordinates, write back, prune), and
// one C-NOTIFY per coordinator naming the participant executions whose
// records only that coordinator's commitment can free. Called whenever log
// space is short and something could free it — after every append at or over
// the pressure mark — so both halves coalesce: the kick into the one already
// queued, the naming to the executions registered since the last call, each
// named once. (Naming them as they register, not once per batch, matters:
// holding them back for the next batch's start measured 14% slower on s3d.)
func (s *Server) pressureRound() {
	if s.Crashed() || s.recovering {
		return
	}
	s.KickCommit()
	if len(s.unnamedParts) == 0 {
		return
	}
	byCoord := make(map[types.NodeID][]types.OpID)
	var order []types.NodeID
	for _, id := range s.unnamedParts {
		po := s.pendingPart[id]
		if po == nil || po.committing || po.named {
			continue
		}
		po.named = true
		if _, seen := byCoord[po.peer]; !seen {
			order = append(order, po.peer)
		}
		byCoord[po.peer] = append(byCoord[po.peer], id)
	}
	s.unnamedParts = s.unnamedParts[:0]
	for _, coord := range order {
		ids := byCoord[coord]
		for len(ids) > 0 {
			n := min(len(ids), wire.MaxBatch)
			s.Send(wire.Msg{Type: wire.MsgConflictNotify, To: coord, Ops: ids[:n]})
			ids = ids[n:]
		}
	}
}

// joinPressureRound answers a peer's log-pressure C-NOTIFY: the named
// operations' records fill the peer's log until this server commits them.
// Rather than commit only those, the coordinator runs a full lazy batch of
// its own — the round is going to pay the commitment messages and the disk
// pass anyway, and everything else pending here rides along.
func (s *Server) joinPressureRound(m *wire.Msg) {
	for _, op := range m.Ops {
		if s.pendingCoord[op] == nil {
			// In flight, finished or aborted here: the per-op path remembers
			// or answers it.
			s.requestCommitFrom(op, false, m.From)
		}
	}
	s.KickCommit()
}

// Start serves the inbox and launches the commitment trigger daemon.
func (s *Server) Start() {
	s.Base.Start(s.handle)
	// The log is full and an arrival is parked: the same round a crossing
	// of the pressure mark starts. A backstop — rounds normally keep the
	// log under its limit — for the case where nothing appends (so nothing
	// re-checks the mark) while arrivals wait.
	s.WAL.SetFullHandler(s.pressureRound)
	s.Sim.Spawn("cx/commitd", s.commitDaemon)
	if s.cfg.IdleTrigger > 0 {
		s.Sim.Spawn("cx/idled", s.idleDaemon)
	}
}

// idleDaemon fires a lazy batch whenever the server has seen no new sub-op
// for IdleTrigger while commitments are pending — the paper's future-work
// idle-time trigger.
func (s *Server) idleDaemon(p *simrt.Proc) {
	period := s.cfg.IdleTrigger
	for {
		p.Sleep(period / 2)
		if s.Crashed() || s.recovering {
			continue
		}
		if len(s.pendingCoord) == 0 && len(s.flushQ) == 0 {
			continue
		}
		if s.Sim.Now()-s.lastArrive < period {
			continue
		}
		s.KickCommit()
	}
}

// handle dispatches one inbound message (runs in its own Proc). A rebooted
// server drops *everything* until its log rebuild completes — critically,
// a pre-rebuild participant must never blind-ACK a decision it has not
// persisted — and keeps dropping *client* traffic until the whole §V
// recovery finishes ("the whole file system stops responding new
// requests"). Peers retry VOTE and COMMIT-REQ, so nothing is lost.
func (s *Server) handle(p *simrt.Proc, m *wire.Msg) {
	if s.NeedsRecovery() {
		return
	}
	if s.recovering {
		switch m.Type {
		case wire.MsgSubOpReq, wire.MsgOpReq, wire.MsgLCom, wire.MsgLookupReq:
			return
		}
	}
	switch m.Type {
	case wire.MsgSubOpReq:
		s.handleSubOp(p, m)
	case wire.MsgLookupReq:
		s.handleLookup(p, m)
	case wire.MsgOpReq:
		s.handleLocalOp(p, m)
	case wire.MsgLCom:
		if s.cfg.Obs.TraceOn() {
			s.cfg.Obs.Emit(s.Sim.Now(), int(s.ID), m.Op, obs.PhaseLCom, "")
		}
		s.requestCommitFrom(m.Op, true, m.Peer)
	case wire.MsgConflictNotify:
		if len(m.Ops) > 0 {
			s.joinPressureRound(m)
			return
		}
		s.requestCommitFrom(m.Op, false, m.From)
	case wire.MsgVote:
		if len(m.Ops) == 0 && m.Sub.Action != types.ActNone {
			s.handleRenameVote(p, m) // per-op 2PC vote (rename extension)
			return
		}
		s.handleVote(p, m)
	case wire.MsgCommitReq:
		s.handleCommitReq(p, m)
	case wire.MsgVoteResp, wire.MsgAck:
		// A batched round's reply echoes the round's op set and routes by its
		// first; a rename's per-operation reply routes by its operation.
		s.Deliver(m)
	}
}

// signal helpers ------------------------------------------------------------

func (s *Server) waitChan(m map[types.OpID][]*simrt.Chan[struct{}], op types.OpID) *simrt.Chan[struct{}] {
	ch := simrt.NewChan[struct{}](s.Sim)
	m[op] = append(m[op], ch)
	return ch
}

func (s *Server) fire(m map[types.OpID][]*simrt.Chan[struct{}], op types.OpID) {
	for _, ch := range m[op] {
		ch.Send(struct{}{})
	}
	delete(m, op)
}

// tombstoneCap bounds the aborted-operation tombstone set.
const tombstoneCap = 8192

// tombstone records an aborted op so late sub-ops cannot execute.
func (s *Server) tombstone(op types.OpID) {
	if len(s.tombstones) >= tombstoneCap {
		// Bounded memory: drop the whole generation. A lost tombstone can
		// only matter for a message still in flight, which the cap keeps
		// wildly improbable; correctness degradation is an orphaned row,
		// the same exposure SE has by design.
		s.tombstones = make(map[types.OpID]bool)
	}
	s.tombstones[op] = true
}
