package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// This file is the join daemon's wire protocol, defined once for
// spatialjoind (Server.Serve) and its clients (spatialjoin -connect):
// one JSON object per line in each direction over TCP.

// MaxLine bounds one protocol line in either direction; a reply carrying
// a large pair list is the long case.
const MaxLine = 8 << 20

// JoinRequest is one tenant's join submission. Alg and Kind take the
// names core.ParseAlgorithm and core.ParseSpec accept.
type JoinRequest struct {
	Tenant     string  `json:"tenant"`
	Alg        string  `json:"alg"`
	Kind       string  `json:"kind"`
	Eps        float64 `json:"eps"`
	MinMatches int     `json:"min_matches,omitempty"`
	// Pairs asks for the result list (pair_list, object_list) beside the
	// counts. Without it the daemon runs an Intersection or Distance
	// join count-only (core.Spec.CountOnly): same plan and bill, no list.
	Pairs bool `json:"pairs,omitempty"`
}

// JoinReply is the daemon's answer: result counts and the tenant's
// attributed byte bill. Err and ErrKind are empty on success; ErrKind is
// one of bad-request, unknown-tenant, quota (Spent and Quota then carry
// the tenant's counters) and run.
type JoinReply struct {
	Alg        string   `json:"alg,omitempty"`
	Pairs      int      `json:"pairs"`
	Objects    int      `json:"objects"`
	PairList   [][2]int `json:"pair_list,omitempty"`
	ObjectList []int    `json:"object_list,omitempty"`
	WireR      int      `json:"wire_r"`
	WireS      int      `json:"wire_s"`
	TotalBytes int      `json:"total_bytes"`
	Money      float64  `json:"money"`
	Spent      int64    `json:"spent"`
	Quota      int64    `json:"quota,omitempty"`
	Err        string   `json:"err,omitempty"`
	ErrKind    string   `json:"err_kind,omitempty"`
}

// drainGrace is how long Serve waits, once its context has ended, for
// the connection handlers to observe it.
const drainGrace = 5 * time.Second

// Serve accepts protocol connections on ln until ctx ends, then drains:
// the listener closes, in-flight joins are cancelled through ctx, and
// every open connection gets an immediate read deadline, so a client
// idling between requests cannot hold the shutdown hostage. It returns
// nil once every handler has returned, and an error when some are still
// running after the grace period (a client that will not read its reply).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				return fmt.Errorf("repro: accept: %w", err)
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			defer context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })()
			s.ServeConn(ctx, conn)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(drainGrace):
		return fmt.Errorf("repro: connections still open %v after shutdown", drainGrace)
	}
}

// ServeConn answers one client connection: one JSON request per line,
// one JSON reply per non-empty line, joins run under ctx. A line longer
// than MaxLine is answered bad-request and ends the connection, since
// the stream cannot be resynchronised.
func (s *Server) ServeConn(ctx context.Context, conn io.ReadWriter) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLine)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req JoinRequest
		var rep JoinReply
		if err := json.Unmarshal(line, &req); err != nil {
			rep = JoinReply{Err: err.Error(), ErrKind: "bad-request"}
		} else {
			rep = s.runJoin(ctx, req)
		}
		if err := enc.Encode(rep); err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The connection ends either way, so a failed write changes nothing.
		_ = enc.Encode(JoinReply{Err: fmt.Sprintf("request line exceeds %d bytes", MaxLine), ErrKind: "bad-request"})
	}
}

// runJoin executes one request and renders its outcome as a reply.
func (s *Server) runJoin(ctx context.Context, req JoinRequest) JoinReply {
	id := TenantID(req.Tenant)
	alg, err := core.ParseAlgorithm(req.Alg)
	if err != nil {
		return JoinReply{Err: err.Error(), ErrKind: "bad-request"}
	}
	spec, err := core.ParseSpec(req.Kind, req.Eps, req.MinMatches)
	if err != nil {
		return JoinReply{Err: err.Error(), ErrKind: "bad-request"}
	}
	spec.CountOnly = !req.Pairs
	res, err := s.Run(ctx, id, alg, spec)
	if err != nil {
		rep := JoinReply{Alg: alg.Name(), Err: err.Error(), ErrKind: "run", Spent: s.Spent(id)}
		var qe *QuotaError
		switch {
		case errors.As(err, &qe):
			rep.ErrKind = "quota"
			rep.Spent, rep.Quota = qe.Spent, qe.Quota
		case errors.Is(err, ErrUnknownTenant):
			rep.ErrKind = "unknown-tenant"
		}
		return rep
	}
	st := res.Stats
	rep := JoinReply{
		Alg:        alg.Name(),
		Objects:    len(res.Objects),
		WireR:      st.R.WireBytes,
		WireS:      st.S.WireBytes,
		TotalBytes: st.TotalBytes(),
		Money:      st.MoneyCost,
		Spent:      s.Spent(id),
	}
	if spec.Kind != core.IcebergSemi {
		rep.Pairs = res.Count
	}
	if req.Pairs {
		if len(res.Pairs) > 0 {
			rep.PairList = make([][2]int, len(res.Pairs))
			for i, p := range res.Pairs {
				rep.PairList[i] = [2]int{int(p.RID), int(p.SID)}
			}
		}
		for _, o := range res.Objects {
			rep.ObjectList = append(rep.ObjectList, int(o.ID))
		}
	}
	return rep
}
