package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lf"
	"lf/internal/gate"
	"lf/internal/iq"
)

// frameSink records every frame the gateway publishes, with the number of
// samples its reader had handed to the gateway when it was published.
type frameSink struct {
	// pos holds each reader's handed-over sample count; the map itself
	// is fixed before the gateway starts.
	pos map[string]*atomic.Int64
	mu  sync.Mutex
	got map[string][]published // by session key
}

type published struct {
	f   *gate.Frame
	pos int64
}

func sessionKey(reader string, nonce uint64) string { return fmt.Sprintf("%s/%d", reader, nonce) }

func (s *frameSink) Publish(f *gate.Frame) error {
	p := s.pos[f.Reader].Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	k := sessionKey(f.Reader, f.Capture)
	s.got[k] = append(s.got[k], published{f, p})
	return nil
}

func (s *frameSink) Close() error { return nil }

// take removes and returns one session's frames.
func (s *frameSink) take(reader string, nonce uint64) []published {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := sessionKey(reader, nonce)
	fs := s.got[k]
	delete(s.got, k)
	return fs
}

// reader is one loopback reader of the gateway workload.
type reader struct {
	name string
	lane int
	pos  *atomic.Int64
	buf  []complex128
	lfiq bytes.Buffer // the current capture's LFIQ serialization
	rec  *recorder    // per-reader span recorder (traced runs)
}

// stream pushes one LFIQ capture through a fresh gateway session with
// the gate client API, stop-and-wait, and returns the frame count End
// reports. With a recorder it records spans around DialClient, every
// BlockReader read and Push, and End.
func (r *reader) stream(addr string, nonce uint64, lfiq []byte, rate float64, idx int, traced bool) (int, error) {
	rec := r.rec
	if !traced {
		rec = nil
	}
	parent := rec.begin("gate.session", -1, idx)
	defer rec.end(parent)
	r.pos.Store(0)
	sp := rec.begin("gate.dial", parent, idx)
	c, err := gate.DialClient(context.Background(), gate.ClientConfig{Addr: addr, Name: r.name, Nonce: nonce, SampleRate: rate})
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	br, err := iq.NewBlockReader(bytes.NewReader(lfiq))
	if err != nil {
		return 0, err
	}
	defer br.Close()
	var pushed int64
	for {
		sp := rec.begin("iq.read", parent, idx)
		n, err := br.Read(r.buf)
		rec.end(sp)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		pushed += int64(n)
		// A full block is one wire chunk, sent by this Push (a short last
		// block goes out with End), so every frame published while it is
		// in flight was committed by this block's samples.
		r.pos.Store(pushed)
		sp = rec.begin("gate.push", parent, idx)
		err = c.Push(r.buf[:n])
		rec.end(sp)
		if err != nil {
			return 0, err
		}
	}
	sp = rec.begin("gate.end", parent, idx)
	frames, err := c.End()
	rec.end(sp)
	return frames, err
}

// gatewayRun is the state of one gateway run.
type gatewayRun struct {
	w       workload
	o       options
	g       *gate.Gateway
	sink    *frameSink
	tmpl    lf.DecoderConfig
	rate    float64
	lt      *layerTrace
	readers []*reader
	out     *outcome
	q       quality
	wallMs  []float64
	busy    time.Duration // summed per-capture session times
	capSec  float64       // capture seconds of the timed captures
	frames  int           // frames of the timed captures
	loopSec float64       // capture seconds of every session in the loop
}

// parallel runs f(0..n-1) on n goroutines and waits for them.
func parallel(n int, f func(j int)) {
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			f(j)
		}(j)
	}
	wg.Wait()
}

// runGateway runs the gateway workload: w.readers readers in lockstep
// rounds, one capture per reader per round.
func runGateway(w workload, o options) (*outcome, error) {
	warm, err := synthesize(w, o.Seed, 0, -1, new(bytes.Buffer))
	if err != nil {
		return nil, err
	}
	// Every session decodes with one template, as lfgate's does: the
	// network's default configuration, calibrated, SIC off.
	gr := &gatewayRun{
		w: w, o: o, tmpl: decoderConfig(w, warm.net), rate: warm.ep.Capture.SampleRate,
		sink: &frameSink{pos: map[string]*atomic.Int64{}, got: map[string][]published{}},
		out:  newOutcome(),
	}
	if o.Trace {
		gr.lt = newLayerTrace()
	}
	for i := 0; i < w.readers; i++ {
		r := &reader{name: fmt.Sprintf("reader-%d", i), lane: i, pos: new(atomic.Int64), buf: make([]complex128, block)}
		if gr.lt != nil {
			r.rec = newRecorder(gr.lt.t0)
			gr.lt.recs = append(gr.lt.recs, r.rec)
		}
		gr.sink.pos[r.name] = r.pos
		gr.readers = append(gr.readers, r)
	}

	// Set-up, repeated: start a gateway, and have each reader synthesize
	// a warm-up capture and stream it once. The last gateway serves the
	// measured window.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if gr.g != nil {
			gr.g.Close()
		}
		t0 := time.Now()
		gr.g, err = gate.NewGateway(gate.Config{Addr: "127.0.0.1:0", Decoder: gr.tmpl, Sinks: []gate.Sink{gr.sink}})
		if err != nil {
			return nil, err
		}
		errs := make([]error, w.readers)
		parallel(w.readers, func(j int) {
			r := gr.readers[j]
			c, err := synthesize(w, o.Seed, r.lane, -1-rep, &r.lfiq)
			if err == nil {
				_, err = r.stream(gr.g.Addr(), warmNonce, c.lfiq, gr.rate, -1, false)
			}
			errs[j] = err
		})
		for _, err := range errs {
			if err != nil {
				gr.g.Close()
				return nil, fmt.Errorf("warm-up session: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, r := range gr.readers {
			gr.sink.take(r.name, warmNonce)
		}
	}
	defer gr.g.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < w.quality; i++ {
		gr.round(i, time.Now().Before(deadline))
	}
	runtime.ReadMemStats(&m1)
	out, lt := gr.out, gr.lt
	gs := gr.g.Stats()
	if lt != nil {
		for _, st := range gr.g.ReaderStats() {
			lt.stats.Add(st)
		}
		lt.gateStats = gs
		out.timed = lt.captures
		out.perLayer = lt.metrics()
		return out, lt.write(o.TraceOut)
	}
	m := out.endToEnd
	m["setup_s"] = median(setups)
	m["realtime_factor"] = ratio(gr.capSec, gr.busy.Seconds())
	m["capture_ms_p50"] = median(gr.wallMs)
	m["capture_ms_p90"] = percentile(gr.wallMs, 0.9)
	m["alloc_mb_per_capture_s"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, gr.loopSec)
	m["peak_retained_mb"] = float64(gs.Gauges["gate.retained_peak"]) / 1e6
	m["frames_per_s"] = ratio(float64(gr.frames), gr.busy.Seconds())
	gr.q.metrics(m, out.diag)
	return out, nil
}

// warmNonce is the capture nonce of the set-up sessions; measured
// sessions count up from 1.
const warmNonce = 1 << 40

// round runs capture i of every reader. The readers synthesize their
// captures and decode them locally with the gateway's configuration, in
// parallel. Then they stream them through the gateway w.repeats times,
// each repeat starting together, so every session shares the gateway with
// the other readers' sessions. Every session must publish exactly the
// local decode's frames, byte for byte; the first is scored. A capture's
// time is its fastest session.
func (gr *gatewayRun) round(i int, inWindow bool) {
	w, lt, n := gr.w, gr.lt, len(gr.readers)
	caps := make([]*capture, n)
	refs := make([]*decoded, n)
	errs := make([]error, n)
	best := make([]time.Duration, n)
	frames := make([]int, n)
	scored := make([]*quality, n)
	parallel(n, func(j int) {
		r := gr.readers[j]
		sp := r.rec.begin("reader.synth", -1, i)
		caps[j], errs[j] = synthesize(w, gr.o.Seed, r.lane, i, &r.lfiq)
		r.rec.end(sp)
		if errs[j] == nil {
			refs[j], errs[j] = gr.reference(caps[j])
		}
		if i < w.quality {
			scored[j] = &quality{}
		}
	})
	// A traced run traces every other round's sessions, so the untraced
	// ones give its tracing overhead.
	trace := lt != nil && i%2 == 1
	reps := w.repeats
	if !inWindow {
		reps = 1 // finishing the scored set: nothing is timed
	}
	for k := 0; k < reps; k++ {
		parallel(n, func(j int) {
			if errs[j] != nil {
				return
			}
			r := gr.readers[j]
			nonce := uint64(i*w.repeats + k + 1)
			start := time.Now()
			count, err := r.stream(gr.g.Addr(), nonce, caps[j].lfiq, gr.rate, i, trace)
			took := time.Since(start)
			pubs := gr.sink.take(r.name, nonce)
			if err == nil && gr.o.corrupt && i == 0 && k == 0 {
				for _, p := range pubs {
					if len(p.f.Bits) > 0 {
						p.f.Bits[len(p.f.Bits)/2] ^= 1
						break
					}
				}
			}
			q := scored[j] // every session is verified, the first one scored
			if k > 0 {
				q = nil
			}
			if err == nil {
				err = verifySession(caps[j], refs[j], r.name, nonce, count, pubs, q)
			}
			errs[j] = err
			frames[j] = count
			if k == 0 || took < best[j] {
				best[j] = took
			}
		})
	}
	for j, r := range gr.readers {
		c, ref, err := caps[j], refs[j], errs[j]
		if err == nil && lt != nil {
			// Alone, so its allocation count excludes the other readers.
			err = lt.recompose(r.rec, w, gr.tmpl, c, ref.res, ref.registered, i)
		}
		gr.out.attempted++
		if err != nil {
			gr.out.fail("%s capture %d: %v", r.name, i, err)
			continue
		}
		gr.loopSec += float64(reps) * c.ep.Capture.Duration()
		if scored[j] != nil {
			gr.q.add(scored[j])
			gr.out.scored++
		}
		if lt != nil {
			lt.gateSessionNs += int64(best[j])
			lt.firstPassMs += ms(ref.wall)
			if trace {
				lt.iqSamples += int64(c.ep.Capture.Len())
				lt.tracedMs = append(lt.tracedMs, ms(best[j]))
			} else {
				lt.defaultMs = append(lt.defaultMs, ms(best[j]))
			}
			continue
		}
		if inWindow {
			gr.out.timed++
			gr.wallMs = append(gr.wallMs, ms(best[j]))
			gr.busy += best[j]
			gr.capSec += c.ep.Capture.Duration()
			gr.frames += frames[j]
		}
	}
}

// reference decodes capture c locally with the gateway's decoder
// configuration. In a traced run the decode carries a Tracer (its spans
// go to a scratch recorder) so the recomposition can be checked against
// its registration count.
func (gr *gatewayRun) reference(c *capture) (*decoded, error) {
	var scratch *recorder
	if gr.lt != nil {
		scratch = newRecorder(gr.lt.t0)
	}
	ref, err := decodeSingle(gr.w, c, gr.tmpl, scratch, -1, -1)
	if err != nil {
		return nil, fmt.Errorf("local decode: %w", err)
	}
	return ref, nil
}

// verifySession checks that a session published exactly the local
// decode's frames, byte for byte, then checks the frames against ground
// truth and, with q non-nil, scores them.
func verifySession(c *capture, ref *decoded, name string, nonce uint64, n int, got []published, q *quality) error {
	if n != len(got) || len(got) != len(ref.res.Streams) {
		return fmt.Errorf("gateway reported %d frames and published %d; the local decode has %d", n, len(got), len(ref.res.Streams))
	}
	fired := make([]firing, len(got))
	for i, p := range got {
		want, err := json.Marshal(gate.FrameOf(name, nonce, i, ref.res.Streams[i]))
		if err != nil {
			return err
		}
		have, err := json.Marshal(p.f)
		if err != nil {
			return err
		}
		if !bytes.Equal(have, want) {
			return fmt.Errorf("published frame %d differs from the local decode:\n  gateway %s\n  local   %s", i, have, want)
		}
		fired[i] = firing{ref.res.Streams[i], p.pos}
	}
	return check(c.ep, ref.res, fired, q)
}
