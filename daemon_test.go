package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// protoServer is a small two-tenant server for the protocol tests:
// "open" is unlimited, "capped" has a quota its first probes exhaust.
func protoServer(t testing.TB) (*Server, []Object, []Object) {
	t.Helper()
	r := GaussianClusters(300, 4, 250, World, 1)
	s := GaussianClusters(300, 4, 250, World, 2)
	srv, err := NewServer(ServerConfig{
		Fleet:   SessionConfig{R: r, S: s, Buffer: 400},
		Tenants: map[TenantID]TenantConfig{"open": {}, "capped": {ByteQuota: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, r, s
}

// converse feeds input to ServeConn as one connection's bytes and
// returns the decoded reply lines.
func converse(t testing.TB, srv *Server, input []byte) []JoinReply {
	t.Helper()
	var out bytes.Buffer
	srv.ServeConn(context.Background(), struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(input), &out})
	var reps []JoinReply
	for _, line := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rep JoinReply
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("reply line %q: %v", line, err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// TestServeConnProtocol walks the protocol's outcomes over one
// connection: each non-empty line gets exactly one reply, of the right
// error kind, and a pairs:true join round-trips the oracle's pair list.
// The same join with pairs:false (run count-only) answers the same count
// and bill, without the list.
func TestServeConnProtocol(t *testing.T) {
	srv, r, s := protoServer(t)
	reps := converse(t, srv, []byte(strings.Join([]string{
		`{"tenant":"open","alg":"upjoin","kind":"distance","eps":120,"pairs":true}`,
		`{"tenant":"open","alg":"upjoin","kind":"distance","eps":120,"pairs":false}`,
		``,
		`{"tenant":`,
		`{"tenant":"open","alg":"quantum"}`,
		`{"tenant":"open","kind":"cartesian"}`,
		`{"tenant":"ghost","eps":120}`,
		`{"tenant":"capped","eps":120}`,
		`{"tenant":"open","alg":"naive","kind":"iceberg","eps":120,"min_matches":1000,"pairs":true}`,
	}, "\n")))
	wantKinds := []string{"", "", "bad-request", "bad-request", "bad-request", "unknown-tenant", "quota", ""}
	if len(reps) != len(wantKinds) {
		t.Fatalf("%d replies to %d non-empty lines", len(reps), len(wantKinds))
	}
	for i, rep := range reps {
		if rep.ErrKind != wantKinds[i] || (rep.Err == "") != (wantKinds[i] == "") {
			t.Errorf("reply %d: err_kind %q (%s), want %q", i, rep.ErrKind, rep.Err, wantKinds[i])
		}
	}

	want := Oracle(r, s, Spec{Kind: Distance, Eps: 120}, World).Pairs
	got := make([]Pair, len(reps[0].PairList))
	for i, p := range reps[0].PairList {
		got[i] = Pair{RID: uint32(p[0]), SID: uint32(p[1])}
	}
	if len(want) == 0 || !slices.Equal(got, want) || reps[0].Pairs != len(want) {
		t.Errorf("pair list has %d pairs (count field %d), oracle %d", len(got), reps[0].Pairs, len(want))
	}
	if reps[0].TotalBytes <= 0 || reps[0].TotalBytes != reps[0].WireR+reps[0].WireS || reps[0].Spent < int64(reps[0].TotalBytes) {
		t.Errorf("bill: total %d, R %d + S %d, spent %d", reps[0].TotalBytes, reps[0].WireR, reps[0].WireS, reps[0].Spent)
	}
	// The tenant's first join also pays its one-time INFO set-up, so the
	// pairs:true line spends its total bytes and more; the pairs:false
	// line must spend exactly the total bytes the pairs:true join moved.
	if l, c := reps[0], reps[1]; c.Pairs != l.Pairs || c.WireR != l.WireR || c.WireS != l.WireS ||
		c.TotalBytes != l.TotalBytes || c.Spent-l.Spent != int64(l.TotalBytes) || c.PairList != nil {
		t.Errorf("pairs:false reply %+v (%d bytes spent) differs from the pairs:true one (%d pairs, R %d, S %d, total %d)",
			c, c.Spent-l.Spent, l.Pairs, l.WireR, l.WireS, l.TotalBytes)
	}
	if q := reps[6]; q.Quota != 100 || q.Spent < q.Quota {
		t.Errorf("quota rejection carries spent %d of quota %d", q.Spent, q.Quota)
	}
	if ice := reps[7]; ice.Pairs != 0 || ice.Objects != 0 || ice.Alg != "naive" {
		t.Errorf("empty iceberg reply: %+v", ice)
	}
}

// TestServeConnOverlongLine: a line the scanner cannot hold is answered
// bad-request instead of a silent hang-up.
func TestServeConnOverlongLine(t *testing.T) {
	srv, _, _ := protoServer(t)
	input := append([]byte(`{"tenant":"ghost"}`+"\n"), bytes.Repeat([]byte("x"), MaxLine+1)...)
	reps := converse(t, srv, input)
	if len(reps) != 2 || reps[0].ErrKind != "unknown-tenant" || reps[1].ErrKind != "bad-request" {
		t.Fatalf("replies %+v, want unknown-tenant then bad-request", reps)
	}
}

// TestServeIdleConnectionDoesNotDelayShutdown: a client that keeps its
// connection open between requests parks the handler in a read; ending
// the context must release it at once, not after the drain grace.
func TestServeIdleConnectionDoesNotDelayShutdown(t *testing.T) {
	srv, _, _ := protoServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One full exchange proves the handler is running and now idle.
	if _, err := conn.Write([]byte(`{"tenant":"ghost"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(drainGrace + 5*time.Second):
		t.Fatal("Serve did not return")
	}
	if d := time.Since(t0); d > drainGrace/2 {
		t.Errorf("shutdown took %v with one idle connection open", d)
	}
}

// FuzzServeConn: whatever bytes arrive, the handler does not panic and
// answers every non-empty line exactly once.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte(`{"tenant":"open","eps":60}` + "\n"))
	f.Add([]byte(`{"tenant":"open","alg":"sr","kind":"iceberg","eps":60,"min_matches":2,"pairs":true}` + "\n\n \r\n{"))
	f.Add([]byte(`{"tenant":"capped","kind":"intersection"}` + "\n" + `{"tenant":"capped"}`))
	f.Add([]byte("null\n[]\n{\"eps\":\"x\"}\n\xff\xfe"))
	srv, _, _ := protoServer(f)
	f.Fuzz(func(t *testing.T, input []byte) {
		want := 0
		for _, line := range bytes.Split(input, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				want++
			}
		}
		if got := len(converse(t, srv, input)); got != want {
			t.Errorf("%d replies to %d non-empty lines of %q", got, want, input)
		}
	})
}
