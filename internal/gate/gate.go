package gate

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"lf"
	"lf/internal/fault"
	"lf/internal/obs"
	"lf/internal/pool"
	"lf/internal/wire"
)

// Config tunes the gateway.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for tests). Ignored
	// when Listener is set.
	Addr string
	// Listener, when non-nil, is used instead of listening on Addr (the
	// caller keeps ownership of the choice, the gateway of the
	// lifecycle: Close closes it).
	Listener net.Listener

	// Decoder is the per-session decoder template: every reader session
	// gets its own lf.Decoder built from a copy of it (OnFrame is
	// overwritten with the gateway's publisher; SampleRate is taken
	// from the session hello when the hello carries one). Set
	// CalibSamples for bounded-memory streaming and note that enabled
	// SIC (CancellationRounds ≥ 0) retains O(capture) memory, which the
	// MaxRetained admission bound must accommodate.
	Decoder lf.DecoderConfig

	// Workers bounds the shared decode fleet: at most this many
	// sessions advance a Push or Flush at once, however many readers
	// are connected. 0 selects GOMAXPROCS.
	Workers int

	// MaxRetained is the per-reader backpressure bound, in bytes:
	// a chunk is admitted into the session's decoder only once the
	// session's RetainedBytes sits below it. While over the bound the
	// gateway simply withholds the ack — the reader's send window
	// fills and the reader blocks, flow-controlled, never dropped.
	// 0 selects 1 GiB. It must exceed the decoder's resident window
	// (calibration + Viterbi horizon) or throttling
	// degrades to MaxThrottle pacing.
	MaxRetained int64
	// MaxThrottle caps how long one chunk may wait in the admission
	// gate before being admitted anyway — the escape hatch that keeps a
	// bound set below the decoder's resident window from wedging a
	// session forever. 0 selects 2s.
	MaxThrottle time.Duration

	// FlushAfter is the disconnect grace period: a session whose reader
	// has been gone this long is flushed best-effort, publishing every
	// frame already committed, and marked done (a late-returning reader
	// learns this from its welcome). 0 selects 3s.
	FlushAfter time.Duration
	// SessionTTL is how long a finished session's record (resume state,
	// frame count) is kept for late-returning readers before it is
	// pruned. 0 selects 10×FlushAfter.
	SessionTTL time.Duration
	// IdleTimeout bounds the wait for the next frame on a reader
	// connection; a reader silent this long is presumed dead and its
	// connection dropped (the session then rides the FlushAfter path).
	// 0 selects 30s.
	IdleTimeout time.Duration

	// Sinks receive every published frame, in commit order. The gateway
	// serializes Publish calls and calls Close exactly once on
	// shutdown. A sink error is counted and logged, never propagated to
	// the reader.
	Sinks []Sink

	// Transport, when active, impairs every accepted connection with
	// the seeded wire injectors (tests).
	Transport fault.TransportConfig
	// Registry receives the gate.* runtime metrics; the gateway owns
	// its own registry by default, keeping gateway counters out of the
	// per-session decode stats.
	Registry *obs.Registry
	// Logf, when non-nil, receives gateway lifecycle logs.
	Logf func(string, ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRetained <= 0 {
		cfg.MaxRetained = 1 << 30
	}
	if cfg.MaxThrottle <= 0 {
		cfg.MaxThrottle = 2 * time.Second
	}
	if cfg.FlushAfter <= 0 {
		cfg.FlushAfter = 3 * time.Second
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 10 * cfg.FlushAfter
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// throttlePoll is the admission gate's RetainedBytes re-check cadence.
const throttlePoll = 200 * time.Microsecond

// errStolen aborts a connection's work when a reconnecting reader has
// taken its session over; the stale connection just dies quietly.
var errStolen = errors.New("gate: session taken over by reconnect")

// session is one capture's ingest state, keyed by (reader, nonce). It
// outlives the connections that serve it: a disconnect detaches the
// session, a resume re-attaches it, and only FlushAfter of sustained
// absence (or an explicit End) finishes it.
type session struct {
	key   string
	name  string
	nonce uint64

	// mu serializes decode progress (Push/Flush) and guards the fields
	// below. Lock order everywhere: fleet slot → session.mu → sinkMu.
	mu         sync.Mutex
	conn       net.Conn // owning connection; nil while detached
	have       int64    // samples ingested (the resume point)
	frames     uint32   // frames published so far
	done       bool     // flushed (or failed); have/frames are final
	failed     error    // latched decode error, nil unless stateFailed
	detachedAt time.Time
	doneAt     time.Time

	dec *lf.Decoder
	sd  *lf.StreamDecoder
}

func (s *session) state() (byte, string) {
	switch {
	case s.failed != nil:
		return stateFailed, s.failed.Error()
	case s.done:
		return stateDone, ""
	default:
		return stateActive, ""
	}
}

// Gateway is the reader-facing ingest service.
type Gateway struct {
	cfg   Config
	ln    net.Listener
	m     obs.GateMetrics
	slots chan struct{} // shared decode fleet: one token per worker

	mu        sync.Mutex
	sessions  map[string]*session
	conns     map[net.Conn]struct{}
	connected int
	connSeq   uint64
	readerAgg map[string]*obs.Snapshot // per reader name, folded at flush
	closed    bool

	closedCh  chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	sinkMu sync.Mutex
}

// NewGateway starts a gateway listening for reader connections.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("gate: listen: %w", err)
		}
	}
	g := &Gateway{
		cfg:       cfg,
		ln:        ln,
		m:         obs.NewGateMetrics(cfg.Registry),
		slots:     make(chan struct{}, cfg.Workers),
		sessions:  make(map[string]*session),
		conns:     make(map[net.Conn]struct{}),
		readerAgg: make(map[string]*obs.Snapshot),
		closedCh:  make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		g.slots <- struct{}{}
	}
	g.wg.Add(2)
	go g.acceptLoop()
	go g.reaper()
	return g, nil
}

// Addr reports the gateway's listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Stats snapshots the gateway-level gate.* metrics.
func (g *Gateway) Stats() *obs.Snapshot { return g.cfg.Registry.Snapshot() }

// ReaderStats returns the accumulated decode-class stats per reader
// name, folded from every session flushed so far. The decode-class
// identity of each reader's entry matches a local decode of the same
// captures (gateway transport never influences a decoded bit).
func (g *Gateway) ReaderStats() map[string]*obs.Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]*obs.Snapshot, len(g.readerAgg))
	for name, agg := range g.readerAgg {
		s := obs.NewSnapshot()
		s.Add(agg)
		out[name] = s
	}
	return out
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			select {
			case <-g.closedCh:
			default:
				g.cfg.Logf("gate: accept: %v", err)
			}
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.connSeq++
		id := g.connSeq
		wrapped := g.cfg.Transport.Wrap(&countingConn{Conn: conn, n: g.m.Bytes}, id)
		g.conns[wrapped] = struct{}{}
		g.connected++
		g.m.Connected.Max(int64(g.connected))
		g.wg.Add(1)
		g.mu.Unlock()
		go g.serve(wrapped)
	}
}

// countingConn totals bytes both directions into an obs counter — the
// innermost wrapper, so it counts what the fault injectors let
// through.
type countingConn struct {
	net.Conn
	n *obs.Counter
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.n.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.n.Add(int64(n))
	return n, err
}

func (g *Gateway) serve(conn net.Conn) {
	defer g.wg.Done()
	defer func() {
		conn.Close()
		g.mu.Lock()
		delete(g.conns, conn)
		g.connected--
		g.mu.Unlock()
	}()

	// One frame buffer serves the connection both ways: each payload
	// read into it is fully decoded before the reply is encoded over it.
	var buf wire.Buf
	conn.SetReadDeadline(time.Now().Add(g.cfg.IdleTimeout))
	typ, payload, err := proto.ReadFrame(conn, &buf)
	if err != nil || typ != msgHello {
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return
	}
	if hello.Version != protoVersion {
		e := &wireErrMsg{Msg: fmt.Sprintf("gate: protocol version %d, want %d", hello.Version, protoVersion)}
		proto.WriteFrame(conn, &buf, msgErr, e.encode())
		return
	}
	s, welcome, err := g.attach(hello, conn)
	if err != nil {
		e := &wireErrMsg{Msg: err.Error()}
		proto.WriteFrame(conn, &buf, msgErr, e.encode())
		return
	}
	defer g.detach(s, conn)
	if err := proto.WriteFrame(conn, &buf, msgWelcome, welcome.encode()); err != nil {
		return
	}
	g.cfg.Logf("gate: reader %q capture %x attached from %s (resume at %d)", s.name, s.nonce, conn.RemoteAddr(), welcome.Have)

	for {
		conn.SetReadDeadline(time.Now().Add(g.cfg.IdleTimeout))
		typ, payload, err := proto.ReadFrame(conn, &buf)
		if err != nil {
			return
		}
		switch typ {
		case msgChunk:
			c, err := decodeChunk(payload)
			if err != nil {
				g.cfg.Logf("gate: reader %q: %v", s.name, err)
				return
			}
			have, err := g.pushChunk(s, conn, c)
			pool.PutComplex(c.Samples)
			if err != nil {
				if s.isFailed() {
					e := &wireErrMsg{Msg: err.Error()}
					proto.WriteFrame(conn, &buf, msgErr, e.encode())
				}
				return
			}
			ack := &wireAck{Have: have}
			if err := proto.WriteFrame(conn, &buf, msgAck, ack.encode()); err != nil {
				return
			}
		case msgEnd:
			end, err := decodeEnd(payload)
			if err != nil {
				return
			}
			frames, err := g.endSession(s, conn, end.Total)
			if err != nil {
				if s.isFailed() {
					e := &wireErrMsg{Msg: err.Error()}
					proto.WriteFrame(conn, &buf, msgErr, e.encode())
				}
				return
			}
			done := &wireDone{Frames: frames}
			if err := proto.WriteFrame(conn, &buf, msgDone, done.encode()); err != nil {
				return
			}
		default:
			g.cfg.Logf("gate: reader %q sent unexpected frame type %d", s.name, typ)
			return
		}
	}
}

func (s *session) isFailed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed != nil
}

// attach finds or creates the session for a hello and makes conn its
// owner, severing any previous owner. It returns the welcome carrying
// the resume offset — read under the session lock, so any in-flight
// push from the previous connection has settled first.
func (g *Gateway) attach(h *wireHello, conn net.Conn) (*session, *wireWelcome, error) {
	key := fmt.Sprintf("%s/%016x", h.Name, h.Nonce)
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, nil, errors.New("gate: gateway closed")
	}
	s, ok := g.sessions[key]
	if !ok {
		dcfg := g.cfg.Decoder
		if h.Rate > 0 {
			dcfg.SampleRate = h.Rate
		}
		s = &session{key: key, name: h.Name, nonce: h.Nonce}
		dcfg.OnFrame = func(sr *lf.StreamResult) {
			// Runs on the pushing goroutine inside Push/Flush, under
			// session.mu — frames index and publish in commit order.
			f := FrameOf(s.name, s.nonce, int(s.frames), sr)
			s.frames++
			g.publish(f)
		}
		dec, err := lf.NewDecoder(dcfg)
		if err != nil {
			g.mu.Unlock()
			return nil, nil, fmt.Errorf("gate: reader %q: %w", h.Name, err)
		}
		sd, err := dec.NewStream()
		if err != nil {
			g.mu.Unlock()
			return nil, nil, fmt.Errorf("gate: reader %q: %w", h.Name, err)
		}
		s.dec, s.sd = dec, sd
		g.sessions[key] = s
		g.m.Readers.Inc()
	}
	g.mu.Unlock()

	s.mu.Lock()
	old := s.conn
	s.conn = conn
	st, msg := s.state()
	w := &wireWelcome{Version: protoVersion, Have: s.have, State: st, Frames: s.frames, Msg: msg}
	s.mu.Unlock()
	if old != nil && old != conn {
		// The previous connection is presumed dead (the reader moved
		// on); sever it so its serve loop exits instead of idling.
		old.Close()
	}
	return s, w, nil
}

func (g *Gateway) detach(s *session, conn net.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
		s.detachedAt = time.Now()
	}
	s.mu.Unlock()
}

// pushChunk runs the admission gate, then feeds the chunk into the
// session's decoder. The admission gate is the backpressure mechanism:
// while the session's RetainedBytes sits at or above MaxRetained the
// chunk waits (and with it the ack, and with that the reader), up to
// MaxThrottle. Returns the new cumulative high-water mark. The chunk's
// samples are only borrowed — StreamDecoder.Push copies whatever it
// keeps — so the caller recycles them on every return.
func (g *Gateway) pushChunk(s *session, conn net.Conn, c wireChunk) (int64, error) {
	// Admission: poll the retained-bytes signal without holding the
	// session lock for longer than a read, so a reconnect can still
	// steal the session away from a throttled connection.
	start := time.Now()
	throttled := time.Duration(0)
	var retained int64
	for {
		s.mu.Lock()
		if s.conn != conn {
			s.mu.Unlock()
			return 0, errStolen
		}
		if s.done {
			st := s.failed
			s.mu.Unlock()
			if st != nil {
				return 0, st
			}
			return 0, fmt.Errorf("gate: reader %q capture %x: already flushed", s.name, s.nonce)
		}
		retained = s.sd.RetainedBytes()
		s.mu.Unlock()
		if retained < g.cfg.MaxRetained {
			break
		}
		if time.Since(start) >= g.cfg.MaxThrottle {
			g.cfg.Logf("gate: reader %q: admission capped at %v (retained %d ≥ bound %d)", s.name, g.cfg.MaxThrottle, retained, g.cfg.MaxRetained)
			break
		}
		select {
		case <-g.closedCh:
			return 0, errors.New("gate: gateway closed")
		case <-time.After(throttlePoll):
		}
		throttled = time.Since(start)
	}
	if throttled > 0 {
		g.m.BackpressureNs.Add(int64(throttled))
	}
	g.m.RetainedPeak.Max(retained)

	// Fleet slot, then the session lock (global lock order).
	select {
	case <-g.slots:
	case <-g.closedCh:
		return 0, errors.New("gate: gateway closed")
	}
	defer func() { g.slots <- struct{}{} }()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != conn {
		return 0, errStolen
	}
	if s.failed != nil {
		return 0, s.failed
	}
	samples := c.Samples
	switch {
	case c.Base == s.have:
	case c.Base+int64(len(samples)) <= s.have:
		// Pure duplicate of already-ingested samples (an ack was lost);
		// re-ack the high-water mark.
		return s.have, nil
	case c.Base < s.have:
		// Partial overlap: push only the unseen tail.
		samples = samples[s.have-c.Base:]
	default:
		return 0, wireErrf("chunk base %d ahead of session offset %d", c.Base, s.have)
	}
	if len(samples) > 0 {
		if err := s.sd.Push(samples); err != nil {
			s.failed = err
			s.done = true
			s.doneAt = time.Now()
			g.foldStatsLocked(s)
			return 0, err
		}
		s.have += int64(len(samples))
	}
	return s.have, nil
}

// endSession validates the declared total and flushes. Duplicate Ends
// (a reader retrying after a lost done frame) return the cached count.
func (g *Gateway) endSession(s *session, conn net.Conn, total int64) (uint32, error) {
	s.mu.Lock()
	if !s.done && total != s.have {
		have := s.have
		s.mu.Unlock()
		// The reader believes a different sample count was ingested
		// than the gateway holds — drop the connection; the resume
		// handshake re-synchronizes and the reader completes the tail.
		return 0, wireErrf("end total %d != ingested %d", total, have)
	}
	s.mu.Unlock()
	return g.flushSession(s, conn)
}

// flushSession drains the session's decoder, publishing every frame
// still in flight, and finalizes the session. conn non-nil demands
// ownership (reader-requested flush); conn nil demands detachment
// (reaper/Close best-effort flush). Idempotent.
func (g *Gateway) flushSession(s *session, conn net.Conn) (uint32, error) {
	took := false
	select {
	case <-g.slots:
		took = true
	case <-g.closedCh:
		// Shutdown: Close drains sessions after every serve loop has
		// exited, so flushing without a slot is safe.
	}
	defer func() {
		if took {
			g.slots <- struct{}{}
		}
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	if conn != nil && s.conn != conn {
		return 0, errStolen
	}
	if conn == nil && s.conn != nil {
		// The reader resumed between the reaper's scan and now; its
		// connection owns the session again, nothing to do.
		return s.frames, nil
	}
	if s.done {
		return s.frames, s.failed
	}
	if _, err := s.sd.Flush(); err != nil {
		s.failed = err
	}
	s.done = true
	s.doneAt = time.Now()
	g.foldStatsLocked(s)
	g.cfg.Logf("gate: reader %q capture %x flushed: %d samples, %d frames", s.name, s.nonce, s.have, s.frames)
	return s.frames, s.failed
}

// foldStatsLocked folds the finished session's decode stats into the
// per-reader aggregate. Caller holds s.mu.
func (g *Gateway) foldStatsLocked(s *session) {
	st := s.dec.Stats()
	g.mu.Lock()
	agg, ok := g.readerAgg[s.name]
	if !ok {
		agg = obs.NewSnapshot()
		g.readerAgg[s.name] = agg
	}
	agg.Add(st)
	g.mu.Unlock()
}

func (g *Gateway) publish(f *Frame) {
	g.sinkMu.Lock()
	defer g.sinkMu.Unlock()
	for _, sink := range g.cfg.Sinks {
		if err := sink.Publish(f); err != nil {
			g.m.SinkErrors.Inc()
			g.cfg.Logf("gate: sink %T: %v", sink, err)
		}
	}
	g.m.Frames.Inc()
}

// reaper walks detached sessions: past FlushAfter they are flushed
// best-effort (committed frames are published, never lost), and past
// SessionTTL finished records are pruned.
func (g *Gateway) reaper() {
	defer g.wg.Done()
	tick := g.cfg.FlushAfter / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-g.closedCh:
			return
		case <-t.C:
		}
		g.mu.Lock()
		snapshot := make([]*session, 0, len(g.sessions))
		for _, s := range g.sessions {
			snapshot = append(snapshot, s)
		}
		g.mu.Unlock()
		for _, s := range snapshot {
			s.mu.Lock()
			flush := s.conn == nil && !s.done && !s.detachedAt.IsZero() && time.Since(s.detachedAt) > g.cfg.FlushAfter
			prune := s.done && time.Since(s.doneAt) > g.cfg.SessionTTL
			s.mu.Unlock()
			if flush {
				if _, err := g.flushSession(s, nil); err != nil && err != errStolen {
					g.cfg.Logf("gate: reader %q capture %x: flush after disconnect: %v", s.name, s.nonce, err)
				}
			}
			if prune {
				g.mu.Lock()
				delete(g.sessions, s.key)
				g.mu.Unlock()
			}
		}
	}
}

// Close stops accepting, severs every reader connection, flushes every
// unfinished session best-effort (committed frames are published), and
// closes the sinks. Idempotent; concurrent calls share one shutdown.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		g.mu.Lock()
		g.closed = true
		close(g.closedCh)
		g.ln.Close()
		for conn := range g.conns {
			conn.Close()
		}
		g.mu.Unlock()
		g.wg.Wait()

		g.mu.Lock()
		snapshot := make([]*session, 0, len(g.sessions))
		for _, s := range g.sessions {
			snapshot = append(snapshot, s)
		}
		g.mu.Unlock()
		for _, s := range snapshot {
			if _, err := s.flushForClose(g); err != nil {
				g.cfg.Logf("gate: close: reader %q capture %x: %v", s.name, s.nonce, err)
			}
		}

		g.sinkMu.Lock()
		for _, sink := range g.cfg.Sinks {
			if err := sink.Close(); err != nil && g.closeErr == nil {
				g.closeErr = err
			}
		}
		g.sinkMu.Unlock()
	})
	return g.closeErr
}

// flushForClose finalizes a session during shutdown: every serve loop
// has exited (wg.Wait), so no ownership races remain.
func (s *session) flushForClose(g *Gateway) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.frames, s.failed
	}
	if _, err := s.sd.Flush(); err != nil {
		s.failed = err
	}
	s.done = true
	s.doneAt = time.Now()
	g.foldStatsLocked(s)
	return s.frames, s.failed
}
