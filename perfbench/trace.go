package main

// Per-layer timing from outside the program: every seam used here is a
// public option of the served stack (obs.Tracer on client, server and
// guardian, client.Options.Dial, the handlers the benchmark registers)
// or a process counter (/proc/self/io, getrusage, runtime stats). The
// program's events carry no timestamps; the sink stamps each on
// receipt with the monotonic clock.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// clockBase anchors the benchmark's single monotonic time base.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// Op kinds as the server sees them: a put is an invoke of the put
// handler, a read is an OpGet (one per key of a GetBatch).
const (
	kindPut = iota
	kindGet
	nKinds
)

// connState follows one server connection. A client connection carries
// one closed-loop caller, so the server is working on that caller's op
// exactly while the connection has requests outstanding. A pipelined
// batch may drain and refill mid-op; the busy time still sums right.
type connState struct {
	kind        int
	outstanding int
	spanStart   int64
}

// serverSums are Σend−Σstart aggregates for one op kind.
type serverSums struct {
	reqs         int64 // dispatches
	reqNS        int64 // Σreply − Σdispatch over requests
	busyNS       int64 // Σ over connection busy spans
	retryReplies int64
}

// sink is the benchmark's obs.Tracer. It aggregates on receipt under
// one mutex; nothing it does reaches back into the program.
type sink struct {
	mu sync.Mutex

	conns map[uint64]*connState
	srv   [nKinds]serverSums

	critDepth int
	critEnter int64
	critNS    int64
	crits     int64

	outcomeAt   map[uint64]int64
	outcomes    int64
	outcomeWait samples
	forceAt     map[uint64]int64
	forceNS     samples

	clientRetries int64

	phaseAt [obs.PhaseResume + 1]int64 // recovery.phase stamps of the latest recovery
}

func newSink() *sink {
	return &sink{
		conns:     make(map[uint64]*connState),
		outcomeAt: make(map[uint64]int64),
		forceAt:   make(map[uint64]int64),
	}
}

// Emit implements obs.Tracer.
func (s *sink) Emit(e obs.Event) {
	t := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case obs.KindRPCDispatch:
		c := s.conns[e.From]
		if c == nil {
			c = &connState{}
			s.conns[e.From] = c
		}
		if c.outstanding == 0 {
			// A new op: its requests are all of one kind.
			c.kind = kindPut
			if e.Code == obs.RPCGet {
				c.kind = kindGet
			}
			c.spanStart = t
		}
		sm := &s.srv[c.kind]
		sm.reqs++
		sm.reqNS -= t
		c.outstanding++
	case obs.KindRPCReply:
		c := s.conns[e.From]
		if c == nil || c.outstanding == 0 {
			return
		}
		sm := &s.srv[c.kind]
		sm.reqNS += t
		if e.Code == obs.RPCRetryable {
			sm.retryReplies++
		}
		c.outstanding--
		if c.outstanding == 0 {
			sm.busyNS += t - c.spanStart
		}
	case obs.KindRPCRetry:
		s.clientRetries++
	case obs.KindCritEnter:
		// The writer mutex serializes critical sections, so enter and
		// exit pair in stream order.
		if s.critDepth == 0 {
			s.critEnter = t
		}
		s.critDepth++
	case obs.KindCritExit:
		if s.critDepth > 0 {
			s.critDepth--
			if s.critDepth == 0 {
				s.critNS += t - s.critEnter
				s.crits++
			}
		}
	case obs.KindOutcomeAppend:
		s.outcomes++
		s.outcomeAt[e.LSN] = t
	case obs.KindOutcomeDurable:
		if t0, ok := s.outcomeAt[e.LSN]; ok {
			s.outcomeWait = append(s.outcomeWait, t-t0)
			delete(s.outcomeAt, e.LSN)
		}
	case obs.KindForceStart:
		s.forceAt[e.LSN] = t
	case obs.KindForceDone:
		if t0, ok := s.forceAt[e.LSN]; ok && e.OK {
			s.forceNS = append(s.forceNS, t-t0)
			delete(s.forceAt, e.LSN)
		}
	case obs.KindRecoveryStart:
		s.phaseAt = [obs.PhaseResume + 1]int64{}
	case obs.KindRecoveryPhase:
		if int(e.Code) < len(s.phaseAt) {
			s.phaseAt[e.Code] = t
		}
	}
}

// recovery returns the phase stamps of the latest recovery.
func (s *sink) recovery() [obs.PhaseResume + 1]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phaseAt
}

// dropConns forgets per-connection state; server serials restart at 1
// on every reopened server.
func (s *sink) dropConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns = make(map[uint64]*connState)
	s.outcomeAt = make(map[uint64]int64)
	s.forceAt = make(map[uint64]int64)
	s.critDepth = 0
}

// connRec accumulates the wire activity of one client's connections,
// and the first write / last read of the caller's current op.
type connRec struct {
	mu         sync.Mutex
	firstWrite int64
	lastRead   int64
	bytes      int64
	syscalls   int64
}

// begin resets the per-op marks before an op.
func (r *connRec) begin() {
	r.mu.Lock()
	r.firstWrite, r.lastRead = 0, 0
	r.mu.Unlock()
}

// marks returns the current op's first write and last read stamps.
func (r *connRec) marks() (int64, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstWrite, r.lastRead
}

func (r *connRec) totals() (bytes, syscalls int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes, r.syscalls
}

// dial returns a client.Options.Dial that wraps every connection.
func (r *connRec) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, rec: r}, nil
}

// countingConn counts bytes and read/write calls (each is one syscall
// on an unbuffered TCP conn) and stamps the op's first write and last
// read.
type countingConn struct {
	net.Conn
	rec *connRec
}

func (c *countingConn) Write(b []byte) (int, error) {
	t := now()
	n, err := c.Conn.Write(b)
	c.rec.mu.Lock()
	if c.rec.firstWrite == 0 {
		c.rec.firstWrite = t
	}
	c.rec.bytes += int64(n)
	c.rec.syscalls++
	c.rec.mu.Unlock()
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	t := now()
	c.rec.mu.Lock()
	c.rec.lastRead = t
	c.rec.bytes += int64(n)
	c.rec.syscalls++
	c.rec.mu.Unlock()
	return n, err
}

// handlerTimer times the registered handler bodies.
type handlerTimer struct {
	ns    atomic.Int64
	calls atomic.Int64
}

// procIO is a /proc/self/io snapshot.
type procIO struct {
	rchar, syscr, writeBytes int64
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, fmt.Errorf("read /proc/self/io: %w", err)
	}
	defer f.Close()
	var p procIO
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("parse /proc/self/io %s: %w", name, err)
		}
		switch name {
		case "rchar":
			p.rchar = n
		case "syscr":
			p.syscr = n
		case "write_bytes":
			p.writeBytes = n
		}
	}
	return p, sc.Err()
}

func (p procIO) sub(q procIO) procIO {
	return procIO{p.rchar - q.rchar, p.syscr - q.syscr, p.writeBytes - q.writeBytes}
}

// usage is a snapshot of the process-wide counters a region is
// charged with.
type usage struct {
	io     procIO
	cpuNS  int64 // user + system, from getrusage
	alloc  uint64
	gcCPU  float64 // runtime/metrics GC CPU seconds
	totCPU float64 // runtime/metrics total CPU seconds
	wallNS int64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapUsage() (usage, error) {
	var u usage
	io, err := readProcIO()
	if err != nil {
		return u, err
	}
	u.io = io
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	u.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc = ms.TotalAlloc
	metrics.Read(cpuMetrics)
	u.gcCPU = cpuMetrics[0].Value.Float64()
	u.totCPU = cpuMetrics[1].Value.Float64()
	u.wallNS = now()
	return u, nil
}

// usageDelta is the cost charged to a region.
type usageDelta struct {
	io     procIO
	cpuNS  int64
	alloc  uint64
	gcCPU  float64
	totCPU float64
	wallNS int64
}

func (u usage) since(v usage) usageDelta {
	return usageDelta{
		io:     u.io.sub(v.io),
		cpuNS:  u.cpuNS - v.cpuNS,
		alloc:  u.alloc - v.alloc,
		gcCPU:  u.gcCPU - v.gcCPU,
		totCPU: u.totCPU - v.totCPU,
		wallNS: u.wallNS - v.wallNS,
	}
}

func (d *usageDelta) add(e usageDelta) {
	d.io.rchar += e.io.rchar
	d.io.syscr += e.io.syscr
	d.io.writeBytes += e.io.writeBytes
	d.cpuNS += e.cpuNS
	d.alloc += e.alloc
	d.gcCPU += e.gcCPU
	d.totCPU += e.totCPU
	d.wallNS += e.wallNS
}
