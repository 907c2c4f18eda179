package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// daemon is a spawned spatialjoind and the benchmark's client
// connections to it: the only system here that crosses a process
// boundary and speaks the JSON-lines protocol.
type daemon struct {
	sc     scenario
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the child has been reaped
	stderr bytes.Buffer

	mu    sync.Mutex
	conns []*daemonConn // one per client, dialled on first use
}

type daemonConn struct {
	conn net.Conn
	rd   *bufio.Reader
}

// The protocol's request and the part of its reply the benchmark reads.
type daemonRequest struct {
	Tenant string  `json:"tenant"`
	Alg    string  `json:"alg"`
	Kind   string  `json:"kind"`
	Eps    float64 `json:"eps"`
	Pairs  bool    `json:"pairs,omitempty"`
}

type daemonReply struct {
	Pairs      int      `json:"pairs"`
	PairList   [][2]int `json:"pair_list"`
	TotalBytes int      `json:"total_bytes"`
	Err        string   `json:"err"`
	ErrKind    string   `json:"err_kind"`
}

// daemonBinary returns the spatialjoind to spawn: the one the wrapper
// script built, or one built now into the work directory (which needs
// the benchmark module as the working directory, as under `go run .` and
// `go test`). Building is never part of a measurement.
func daemonBinary(work string) (string, error) {
	if bin := os.Getenv("SPATIALJOIND_BIN"); bin != "" {
		return bin, nil
	}
	bin := filepath.Join(work, "spatialjoind")
	if _, err := os.Stat(bin); err == nil {
		return bin, nil
	}
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/spatialjoind").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build spatialjoind: %w\n%s", err, out)
	}
	return bin, nil
}

var servingLine = regexp.MustCompile(`^serving .* on (\S+) \(`)

// spawnDaemon writes the relations to the work directory, starts
// spatialjoind on an ephemeral port and waits for its "serving … on
// ADDR" line. The child is killed with the benchmark (Pdeathsig), on
// Close, and by the signal handler through the cleanup list.
func spawnDaemon(sc scenario, r, s []geom.Object, work string) (*daemon, error) {
	bin, err := daemonBinary(work)
	if err != nil {
		return nil, err
	}
	fr, fs := filepath.Join(work, "r.spd"), filepath.Join(work, "s.spd")
	if err := dataset.SaveFile(fr, r); err != nil {
		return nil, err
	}
	if err := dataset.SaveFile(fs, s); err != nil {
		return nil, err
	}
	d := &daemon{sc: sc, exited: make(chan struct{}), conns: make([]*daemonConn, len(sc.Algs))}
	d.cmd = exec.Command(bin,
		"-data-r", fr, "-data-s", fs, "-addr", "127.0.0.1:0", "-tenants", daemonTenants,
		"-buffer", strconv.Itoa(sc.Buffer), "-batch", strconv.Itoa(sc.BatchSize), "-parallel", strconv.Itoa(sc.Parallelism))
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	onExit(d.kill)
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
			}
		}
		d.cmd.Wait() // stdout is at EOF: the child is gone or going
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("spatialjoind exited before serving: %s", strings.TrimSpace(d.stderr.String()))
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, errors.New("spatialjoind did not report its address within 20 s")
	}
}

func (d *daemon) conn(c int) (*daemonConn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conns[c] == nil {
		conn, err := net.DialTimeout("tcp", d.addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		d.conns[c] = &daemonConn{conn: conn, rd: bufio.NewReaderSize(conn, 1<<16)}
	}
	return d.conns[c], nil
}

// roundTrip sends one request line on client c's connection and reads
// the reply line. A daemon that died fails the read at once (the socket
// closes with the process); one that hangs fails it at the deadline.
func (d *daemon) roundTrip(c int, req daemonRequest) (rep daemonReply, lat time.Duration, n int, err error) {
	dc, err := d.conn(c)
	if err != nil {
		return rep, 0, 0, err
	}
	line, _ := json.Marshal(req) // a struct of strings, numbers and a bool cannot fail
	line = append(line, '\n')
	dc.conn.SetDeadline(time.Now().Add(30 * time.Second))
	t0 := time.Now()
	if _, err = dc.conn.Write(line); err != nil {
		return rep, 0, 0, d.explain(err)
	}
	reply, err := dc.rd.ReadBytes('\n')
	lat = time.Since(t0)
	if err != nil {
		return rep, lat, 0, d.explain(err)
	}
	return rep, lat, len(reply), json.Unmarshal(reply, &rep)
}

// explain adds the child's fate to a connection error.
func (d *daemon) explain(err error) error {
	select {
	case <-d.exited:
		return fmt.Errorf("spatialjoind died (%v): %w; stderr: %s", d.cmd.ProcessState, err, strings.TrimSpace(d.stderr.String()))
	default:
		return fmt.Errorf("spatialjoind: %w", err)
	}
}

func (d *daemon) Join(_ context.Context, c int, wantPairs bool) (joinResult, error) {
	rep, lat, n, err := d.roundTrip(c, daemonRequest{
		Tenant: d.sc.Tenants[c], Alg: d.sc.Algs[c], Kind: "distance", Eps: joinSpec.Eps, Pairs: wantPairs,
	})
	if err != nil {
		return joinResult{lat: lat}, err
	}
	if rep.Err != "" {
		return joinResult{lat: lat}, fmt.Errorf("spatialjoind refused (%s): %s", rep.ErrKind, rep.Err)
	}
	out := joinResult{lat: lat, pairs: rep.Pairs, bytes: rep.TotalBytes, replyBytes: n}
	for _, p := range rep.PairList {
		out.list = append(out.list, geom.Pair{RID: uint32(p[0]), SID: uint32(p[1])})
	}
	return out, nil
}

// refused times one request the daemon turns away at admission (an
// undeclared tenant): the protocol's floor, with no join behind it.
func (d *daemon) refused(c int) (time.Duration, error) {
	rep, lat, _, err := d.roundTrip(c, daemonRequest{Tenant: "nobody", Alg: "upjoin", Kind: "distance", Eps: joinSpec.Eps})
	if err == nil && rep.ErrKind != "unknown-tenant" {
		err = fmt.Errorf("spatialjoind answered an undeclared tenant with %q", rep.ErrKind)
	}
	return lat, err
}

// cpuSeconds is the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() float64 {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks (100 per second on
	// every Linux the Go runtime supports).
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSS reads a process's VmHWM in MB.
func peakRSS(pid string) float64 {
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// kill stops the child and waits until it has been reaped.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) Close() error {
	d.mu.Lock()
	for _, dc := range d.conns {
		if dc != nil {
			dc.conn.Close()
		}
	}
	d.mu.Unlock()
	d.kill()
	return nil
}
