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
// duplicate suppression only the checks against its own op table.
//
// What the server knows about one operation is one entry of that table
// (optable.go), and the entry's phase changes in five transitions only —
// register, take, invalidate, decide, finish — one per durable record of
// §III.B; the handlers in exec.go, commit.go, rename.go and recovery.go look
// an operation up once and act on its phase. Entries are recycled through a
// per-server free list, so a handler that holds one across a park touches it
// only while its ID is still the operation's. Every named instant of the
// protocol is one entry of the step list (steps.go) and one call at its site,
// which is both its trace event and its crash-point.
//
// Where this departs from the paper's text — completion driven by
// invalidation notices and execution epochs rather than hint equality alone,
// bounded vote waits, abort marks, log-pressure rounds instead of waiting
// for a full log — is listed with the reasons in DESIGN.md §5.
package core

import (
	"time"

	"cxfs/internal/kvstore"
	"cxfs/internal/namespace"
	"cxfs/internal/node"
	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
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
	// Obs receives the protocol's trace events (steps.go); nil, the
	// default, records nothing.
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

// flushEntry is an operation whose outcome is durable in the log but whose
// database pages have not been written back yet. Entries drain at the next
// lazy batch: one merged flush, then the log records prune. Immediate
// commitments only queue here — per §IV.C.2, they cost messages and
// individual log writes, never an individual database flush.
type flushEntry struct {
	id   types.OpID
	rows []kvstore.Ref
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

	// ops is the op table (optable.go): what this server knows about each
	// operation. The four fields after free are derived from it and maintained
	// by its transitions only.
	ops          map[types.OpID]*opState
	free         []*opState // entries deleted from the table, emptied, for newEntry
	coordPending int        // coordinator executions in the table
	abortMarks   int        // entries carrying the abort mark
	// idleCoord indexes the pending coordinator executions no batch has taken
	// yet, by participant and in registration order, so a batch collects its
	// targets without scanning (and sorting) the whole table.
	idleCoord [][]*opState
	// unnamedParts lists participant executions registered since the last
	// log-pressure round, i.e. the ones that round has yet to name to their
	// coordinators.
	unnamedParts []types.OpID

	// flushQ is double-buffered: a write-back drains one buffer while
	// completions queue in the other (flushSpare, empty, between batches).
	// flushRows is the write-back's row list. Only the commit daemon drains,
	// so one of each serves every batch.
	flushQ, flushSpare []flushEntry
	flushRows          []kvstore.Ref
	// recBufs are record batches' buffers, free for the next batch; each
	// commit-group proc and COMMIT-REQ handler takes one of its own.
	recBufs [][]wal.Record

	// What this server knows per object is kept on the object's row in the
	// store, not here: the executed-pending operation holding it active is
	// the row's lock (hold, releaseKeys), and an execution that has written
	// it but whose Result-Record is not durable yet is a pin on it
	// (logResults), which write-back reads (drainFlushQ).

	kick *simrt.Chan[kickReq]
	// lazyQueued is set while a lazy kick sits in the queue the daemon has
	// not picked up: further lazy triggers coalesce into it.
	lazyQueued bool

	recovering bool
	lastArrive time.Duration // most recent sub-op arrival, for the idle trigger

	crashAt func(Step, types.OpID) bool // the crash hook (steps.go)

	stats Stats
}

// NewServer builds a Cx server on the given chassis.
func NewServer(base *node.Base, pl namespace.Placement, cfg Config) *Server {
	// A zero VoteWait or RetryInterval means the default, not "never".
	def := DefaultConfig()
	if cfg.VoteWait <= 0 {
		cfg.VoteWait = def.VoteWait
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = def.RetryInterval
	}
	return &Server{
		Base: base,
		cfg:  cfg,
		pl:   pl,
		ops:  make(map[types.OpID]*opState),
		kick: simrt.NewChan[kickReq](base.Sim),
	}
}

// Stats returns a snapshot of protocol counters.
func (s *Server) Stats() Stats {
	st, chassis := s.stats, s.Base.Stats()
	st.LeasesGranted, st.LeaseRevocations = chassis.LeasesGranted, chassis.LeaseRevocations
	return st
}

// PendingOps returns how many cross-server operations await commitment here
// as coordinator (the paper's threshold-trigger quantity).
func (s *Server) PendingOps() int { return s.coordPending }

// ValidBytes returns the log bytes held by operations still awaiting
// commitment — the paper's "valid-records size" (Figure 7b, Table V).
func (s *Server) ValidBytes() int64 { return s.WAL.LiveBytes() }

// ActiveObjects returns how many objects are currently active (held by
// executed-but-uncommitted operations); zero after quiescence.
func (s *Server) ActiveObjects() int { return s.KV.Locked() }

// nudgeStaleParts sends C-NOTIFY to the coordinator of every
// not-yet-committing participant execution older than age.
func (s *Server) nudgeStaleParts(age time.Duration) {
	now := s.Sim.Now()
	for _, st := range s.inOrder(func(st *opState) bool {
		return st.phase == phasePending && !st.coordinator() && now-st.since > age
	}) {
		s.Send(wire.Msg{Type: wire.MsgConflictNotify, To: st.peer, Op: st.id()})
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
		st := s.ops[id]
		if st == nil || st.phase != phasePending || st.coordinator() || st.named {
			continue
		}
		st.named = true
		if _, seen := byCoord[st.peer]; !seen {
			order = append(order, st.peer)
		}
		byCoord[st.peer] = append(byCoord[st.peer], id)
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
		if st := s.pending(op); st == nil || !st.coordinator() {
			// In flight, finished or aborted here: the per-op path remembers
			// or answers it.
			s.requestCommit(op, false, m.From)
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
		busy := s.Sim.Now()-s.lastArrive < period
		if work := s.coordPending > 0 || len(s.flushQ) > 0; work && !busy && !s.Crashed() && !s.recovering {
			s.KickCommit()
		}
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
		if s.step(StepLCom, m.Op, 0, nil) {
			return
		}
		s.requestCommit(m.Op, true, m.Peer)
	case wire.MsgConflictNotify:
		if len(m.Ops) > 0 {
			s.joinPressureRound(m)
			return
		}
		s.requestCommit(m.Op, false, m.From)
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
