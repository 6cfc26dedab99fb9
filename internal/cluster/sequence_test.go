package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cxfs/internal/simrt"
	"cxfs/internal/types"
	"cxfs/internal/wire"
)

// classify renders one tapped message as "TYPE role->role" with roles
// resolved against the scenario's cast (client, coordinator, participant).
func classify(m wire.Msg, client, coord, part types.NodeID) string {
	who := func(n types.NodeID) string {
		switch n {
		case client:
			return "cli"
		case coord:
			return "coor"
		case part:
			return "part"
		}
		return "other"
	}
	return fmt.Sprintf("%v %s->%s", m.Type, who(m.From), who(m.To))
}

// runSequence executes one cross-server create under proto with the tap
// armed and returns the classified message sequence (messages among the
// scenario's cast only).
func runSequence(t *testing.T, proto Protocol, quiesce bool) []string {
	t.Helper()
	o := DefaultOptions(4, proto)
	o.ClientHosts = 1
	o.ProcsPerHost = 1
	o.Cx.Timeout = 100 * time.Millisecond
	c := MustNew(o)
	defer c.Shutdown()

	var seq []string
	var client, coord, part types.NodeID
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		client = pr.ID.Client
		// Pick a guaranteed cross-server create.
		var name string
		var ino types.InodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("seq-%d", try)
			ino = pr.AllocInode()
			coord = c.Placement.CoordinatorFor(types.RootInode, name)
			part = c.Placement.ParticipantFor(ino)
			if coord != part {
				break
			}
		}
		c.Net.SetTap(func(m wire.Msg) {
			s := classify(m, client, coord, part)
			if !strings.Contains(s, "other") {
				seq = append(seq, s)
			}
		})
		if _, err := pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular}); err != nil {
			t.Errorf("%v create: %v", proto, err)
		}
		if quiesce {
			c.Quiesce(p)
		}
		c.Net.SetTap(nil)
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatalf("%v sequence scenario hung", proto)
	}
	return seq
}

func TestFig1bSerialExecutionSequence(t *testing.T) {
	// Figure 1(b): the client instructs the participant first, then the
	// coordinator; two request/response pairs, no server-server traffic.
	seq := runSequence(t, ProtoSE, false)
	want := []string{
		"SUBOP-REQ cli->part",
		"YES/NO part->cli",
		"SUBOP-REQ cli->coor",
		"YES/NO coor->cli",
	}
	assertSeq(t, seq, want)
}

func TestFig1a2PCSequence(t *testing.T) {
	// Figure 1(a): REQ, VOTE, vote reply, COMMIT-REQ, ACK, RESP — the
	// client answer comes only after the full two-phase round.
	seq := runSequence(t, Proto2PC, false)
	want := []string{
		"REQ cli->coor",
		"VOTE coor->part",
		"VOTE-RESP part->coor",
		"COMMIT/ABORT-REQ coor->part",
		"ACK part->coor",
		"RESP coor->cli",
	}
	assertSeq(t, seq, want)
}

func TestFig1cCentralExecutionSequence(t *testing.T) {
	// Figure 1(c): REQ, object migration in, local execution, migration
	// back, RESP.
	seq := runSequence(t, ProtoCE, false)
	want := []string{
		"REQ cli->coor",
		"MIGRATE-REQ coor->part",
		"MIGRATE-RESP part->coor",
		"MIGRATE-BACK coor->part",
		"MIGRATE-ACK part->coor",
		"RESP coor->cli",
	}
	assertSeq(t, seq, want)
}

func TestFig2aCxGraciousSequence(t *testing.T) {
	// Figure 2(a): both sub-ops assigned concurrently, both YES answers
	// complete the client, and the commitment round (VOTE, vote reply,
	// COMMIT-REQ, ACK) runs lazily afterwards with no client messages.
	seq := runSequence(t, ProtoCx, true)
	if len(seq) < 8 {
		t.Fatalf("sequence too short: %v", seq)
	}
	execution, commitment := seq[:4], seq[4:]
	wantExec := map[string]bool{
		"SUBOP-REQ cli->coor": true,
		"SUBOP-REQ cli->part": true,
		"YES/NO coor->cli":    true,
		"YES/NO part->cli":    true,
	}
	for _, s := range execution {
		if !wantExec[s] {
			t.Errorf("unexpected execution-phase message %q in %v", s, seq)
		}
		delete(wantExec, s)
	}
	if len(wantExec) != 0 {
		t.Errorf("missing execution messages: %v (seq %v)", wantExec, seq)
	}
	// Requests must precede their responses, but the two assignments are
	// concurrent: both requests before both responses.
	if !(strings.HasPrefix(execution[0], "SUBOP-REQ") && strings.HasPrefix(execution[1], "SUBOP-REQ")) {
		t.Errorf("sub-ops not assigned concurrently: %v", execution)
	}
	wantCommit := []string{
		"VOTE coor->part",
		"VOTE-RESP part->coor",
		"COMMIT/ABORT-REQ coor->part",
		"ACK part->coor",
	}
	assertSeq(t, commitment, wantCommit)
	for _, s := range commitment {
		if strings.Contains(s, "cli") {
			t.Errorf("lazy commitment touched the client: %q", s)
		}
	}
}

func TestFig2bCxDisagreementSequence(t *testing.T) {
	// Figure 2(b): a disagreement triggers L-COM from the process and an
	// immediate commitment ending in ALL-NO back to the process.
	o := DefaultOptions(4, ProtoCx)
	o.ClientHosts = 1
	o.ProcsPerHost = 1
	o.Cx.Timeout = time.Hour
	c := MustNew(o)
	defer c.Shutdown()
	var seq []string
	done := false
	c.Sim.Spawn("t", func(p *simrt.Proc) {
		pr := c.Proc(0)
		client := pr.ID.Client
		var name string
		var ino types.InodeID
		var coord, part types.NodeID
		for try := 0; ; try++ {
			name = fmt.Sprintf("dis-%d", try)
			ino = pr.AllocInode()
			coord = c.Placement.CoordinatorFor(types.RootInode, name)
			part = c.Placement.ParticipantFor(ino)
			if coord != part {
				c.Bases[coord].Shard.SeedDentry(types.RootInode, name, 99999)
				break
			}
		}
		c.Net.SetTap(func(m wire.Msg) {
			seq = append(seq, classify(m, client, coord, part))
		})
		pr.Driver().Do(p, types.Op{ID: pr.NextID(), Kind: types.OpCreate,
			Parent: types.RootInode, Name: name, Ino: ino, Type: types.FileRegular})
		c.Net.SetTap(nil)
		done = true
		c.Sim.Stop()
	})
	c.Sim.RunUntil(time.Hour)
	if !done {
		t.Fatal("hung")
	}
	joined := strings.Join(seq, " | ")
	for _, must := range []string{"L-COM cli->coor", "VOTE coor->part", "COMMIT/ABORT-REQ coor->part", "ALL-NO coor->cli"} {
		if !strings.Contains(joined, must) {
			t.Errorf("missing %q in disagreement sequence: %v", must, seq)
		}
	}
	if !strings.HasSuffix(seq[len(seq)-1], "ALL-NO coor->cli") {
		t.Errorf("ALL-NO is not the final message: %v", seq)
	}
}

func assertSeq(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sequence length %d, want %d:\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}
