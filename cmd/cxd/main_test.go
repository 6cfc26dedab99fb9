package main

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"cxfs/internal/harness"
)

func TestDispatchCommands(t *testing.T) {
	s := &server{}
	if out, err := s.dispatch(Request{Cmd: "ping"}); err != nil || out != "pong" {
		t.Errorf("ping: %q %v", out, err)
	}
	out, err := s.dispatch(Request{Cmd: "experiments"})
	if err != nil || !strings.Contains(out, "fig5") {
		t.Errorf("experiments: %q %v", out, err)
	}
	// Every id the daemon lists is one `run` accepts (by lookup: running all
	// of them takes minutes), and the cheapest one does run.
	for _, id := range strings.Fields(out) {
		if _, ok := harness.ExperimentByID(id); !ok {
			t.Errorf("experiments lists %q, which run would refuse", id)
		}
	}
	for _, id := range []string{"protocols", "latency", "triggers", "metarates", "statstorm"} {
		if !strings.Contains(" "+out+" ", " "+id+" ") {
			t.Errorf("experiments does not list %q", id)
		}
	}
	if tbl, err := s.dispatch(Request{Cmd: "run", Exp: "fig4", Scale: 0.0005}); err != nil || !strings.Contains(tbl, "Figure 4") {
		t.Errorf("run fig4: %q %v", tbl, err)
	}
	if _, err := s.dispatch(Request{Cmd: "nope"}); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := s.dispatch(Request{Cmd: "run", Exp: "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := s.dispatch(Request{Cmd: "replay", Trace: "nope"}); err == nil {
		t.Error("unknown trace accepted")
	}
}

// TestValidateRejectsBadInput covers the request validation the daemon used
// to lack: unknown protocols and out-of-range numeric knobs must come back
// as errors, never reach cluster construction, and never panic.
func TestValidateRejectsBadInput(t *testing.T) {
	s := &server{}
	bad := []Request{
		{Cmd: "replay", Trace: "CTH", Protocol: "bogus"},
		{Cmd: "metarates", Protocol: "paxos"},
		{Cmd: "replay", Trace: "CTH", Servers: -4},
		{Cmd: "replay", Trace: "CTH", Servers: 5000},
		{Cmd: "run", Exp: "table2", Scale: -0.5},
		{Cmd: "run", Exp: "table2", Scale: 1.5},
		{Cmd: "metarates", Ops: -1},
		{Cmd: "replay", Trace: "CTH", Seed: -7},
	}
	for _, req := range bad {
		if _, err := s.dispatch(req); err == nil {
			t.Errorf("accepted %+v", req)
		}
	}
	// handle() must convert the same failures into error responses, not
	// panics that would kill the daemon.
	for _, req := range bad {
		if resp := s.handle(req); resp.OK || resp.Error == "" {
			t.Errorf("handle(%+v) = %+v, want error response", req, resp)
		}
	}
}

func TestReportCommand(t *testing.T) {
	s := &server{}
	if _, err := s.dispatch(Request{Cmd: "report"}); err == nil {
		t.Error("report before any run should error")
	}
	if _, err := s.dispatch(Request{Cmd: "replay", Trace: "CTH", Scale: 0.0005, Servers: 2}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	out, err := s.dispatch(Request{Cmd: "report"})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if !strings.Contains(out, "p50") || !strings.Contains(out, "protocol") {
		t.Errorf("report output missing histogram table:\n%s", out)
	}
}

func TestDispatchReplayAndMetarates(t *testing.T) {
	s := &server{}
	out, err := s.dispatch(Request{Cmd: "replay", Trace: "CTH", Protocol: "cx", Scale: 0.001, Servers: 2, Seed: 1})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(out, "workload=CTH") || !strings.Contains(out, "protocol=cx") {
		t.Errorf("replay output: %s", out)
	}
	out, err = s.dispatch(Request{Cmd: "metarates", Mix: "read-dominated", Servers: 2, Ops: 10, Seed: 1})
	if err != nil {
		t.Fatalf("metarates: %v", err)
	}
	if !strings.Contains(out, "mix=read-dominated") || !strings.Contains(out, "throughput=") {
		t.Errorf("metarates output: %s", out)
	}
}

func TestServeOverRealSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &server{}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.serve(c)
		}
	}()
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<20)

	send := func(req Request) Response {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatal("no response")
		}
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if r := send(Request{Cmd: "ping"}); !r.OK || r.Output != "pong" {
		t.Errorf("ping: %+v", r)
	}
	if r := send(Request{Cmd: "bogus"}); r.OK || r.Error == "" {
		t.Errorf("bogus: %+v", r)
	}
	if r := send(Request{Cmd: "replay", Trace: "CTH", Scale: 0.0005, Servers: 2}); !r.OK {
		t.Errorf("replay over socket: %+v", r)
	}

	// Regression: these requests used to panic inside cluster construction
	// and kill the daemon. They must come back as error responses, and the
	// daemon must keep answering afterwards.
	if r := send(Request{Cmd: "replay", Trace: "CTH", Protocol: "bogus"}); r.OK || r.Error == "" {
		t.Errorf("bogus protocol: %+v", r)
	}
	if r := send(Request{Cmd: "replay", Trace: "CTH", Servers: -4}); r.OK || r.Error == "" {
		t.Errorf("negative servers: %+v", r)
	}
	if r := send(Request{Cmd: "ping"}); !r.OK || r.Output != "pong" {
		t.Errorf("daemon dead after malformed requests: %+v", r)
	}
}
