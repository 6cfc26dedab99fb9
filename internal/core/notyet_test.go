package core

import (
	"slices"
	"testing"
	"time"

	"cxfs/internal/obs"
	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wal"
	"cxfs/internal/wire"
)

// A vote for a sub-op parked at the participant behind an operation that the
// VOTE's own sender coordinates answers "not yet" (DESIGN.md §5 item 28):
// the coordinator decides nothing for it, writes no record for it and files
// it pending again, and a later round commits it once the holder lets go. Its
// client ends with YES from both servers.
//
// Server 0 coordinates both operations, server 1 holds the inode. The holder
// is a create, left pending on both servers. The second operation links a
// name to that inode from another process: its coordinator half executes
// first, so the round that the conflict at server 1 launches carries it.
func TestParkedSubOpIsVotedNotYetAndCommitsLater(t *testing.T) {
	r := newRig(1<<20, Config{Timeout: time.Hour})
	coord, part := r.srv[0], r.srv[1]
	link := r.create(1, 1)
	link.Kind, link.Type = types.OpLink, 0
	var verdicts []wire.Verdict // the participant's answers for link, in order
	r.net.SetTap(func(m wire.Msg) {
		for _, v := range m.Votes {
			if m.Type == wire.MsgVoteResp && v.Op == link.ID {
				verdicts = append(verdicts, v.Verdict)
			}
		}
	})
	refiled := 0 // rounds that left link pending in the idle index
	coord.Events.Subscribe(func(ev obs.Event) {
		if ev.Node != 0 || ev.Step != uint8(StepCommitAfterVote)+1 || len(verdicts) == 0 || verdicts[len(verdicts)-1] != wire.VoteNotYet {
			return
		}
		refiled++
		st := coord.find(link.ID)
		if st == nil || st.phase != phasePending || !slices.Contains(coord.idleCoord[1], st) {
			t.Errorf("after a \"not yet\" the coordinator holds %s, want it pending in the idle index", coord.DebugOp(link.ID))
		}
		if logHas(coord.WAL, link.ID, wal.RecAbort) || logHas(coord.WAL, link.ID, wal.RecCommit) {
			t.Error("the coordinator logged a decision for an operation voted \"not yet\"")
		}
		if bad := coord.CheckState(); len(bad) != 0 {
			t.Errorf("after a \"not yet\": %v", bad)
		}
	})
	r.run(t, func(p *simrt.Proc) {
		holder := r.create(0, 1)
		if _, err := r.drv.Do(p, holder); err != nil {
			t.Fatalf("create: %v", err)
		}
		link.Ino = holder.Ino
		first := subOpReq(link, types.RoleCoordinator)
		r.host.Send(&first)
		if !await(p, func() bool { return coord.pending(link.ID) != nil }) {
			t.Fatal("the link's coordinator half never executed")
		}
		// The client's path: the coordinator answers the copy from its
		// execution, and the participant parks the sub-op behind the create.
		_, _, err := ConcurrentPath(p, r.host, types.RetryPolicy{}, link, 0, 1)
		if err != nil {
			t.Errorf("link returned %v", err)
		}
		r.settleAll(p)
		if !slices.Equal(verdicts, []wire.Verdict{wire.VoteNotYet, wire.VoteYes}) || refiled != 1 {
			t.Errorf("the link's votes were %v, and %d rounds left it pending; want not yet, then YES, once", verdicts, refiled)
		}
		if st := coord.Stats(); st.OpsCommitted != 2 || st.OpsAborted != 0 || st.VoteTimeouts != 0 {
			t.Errorf("coordinator: %d committed, %d aborted, %d vote timeouts; want 2, 0, 0", st.OpsCommitted, st.OpsAborted, st.VoteTimeouts)
		}
		if in, _ := part.Shard.GetInode(holder.Ino); in.Nlink != 2 {
			t.Errorf("the inode has %d links, want 2", in.Nlink)
		}
		for _, s := range r.srv {
			if bad := s.CheckState(); len(bad) != 0 {
				t.Errorf("server %d: %v", s.ID, bad)
			}
		}
	})
}
