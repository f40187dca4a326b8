package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"lf"
	"lf/internal/iq"
	"lf/internal/obs"
)

// setupReps is how many times a run sets up, each time on another warm-up
// capture; setup_s is the median.
const setupReps = 9

// decoded is one decode of one capture.
type decoded struct {
	res   *lf.Result
	fired []firing
	wall  time.Duration
	alloc uint64
	// peak is the retained-sample high-water: RetainedBytes for a
	// streaming decode, the capture itself for batch Decode.
	peak  int64
	stats *lf.Stats
	// registered is the first pass's stream count, from the Tracer's
	// register event (-1 when no event log was attached).
	registered int64
}

// decodeSingle decodes c with cfg the way workload w does: LFIQ replay
// into a StreamDecoder, or batch Decode. With a recorder it records spans
// (under parent) around every call into the iq and decoder layers and
// attaches a Tracer.
func decodeSingle(w workload, c *capture, cfg lf.DecoderConfig, rec *recorder, parent, idx int) (*decoded, error) {
	d := &decoded{registered: -1}
	var pushed int64
	cfg.OnFrame = func(sr *lf.StreamResult) { d.fired = append(d.fired, firing{sr, pushed}) }
	var log *eventLog
	if rec != nil {
		log = &eventLog{rec: rec, parent: parent, capture: idx}
		cfg.Tracer = log
	}
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if w.stream {
		d.res, d.peak, err = replay(dec, c.lfiq, &pushed, rec, parent, idx)
	} else {
		// Batch Decode takes the whole capture at once and holds it
		// for SIC: that is its retained set.
		pushed = int64(c.ep.Capture.Len())
		d.peak = pushed * 16
		sp := rec.begin("decoder.decode", parent, idx)
		d.res, err = dec.Decode(c.ep)
		rec.end(sp)
	}
	d.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	d.alloc = m1.TotalAlloc - m0.TotalAlloc
	d.stats = dec.Stats()
	if log != nil {
		d.registered = log.registered
	}
	return d, nil
}

// replay streams an LFIQ capture through iq.BlockReader into a
// StreamDecoder in block-sample pushes, keeping *pushed at the number of
// samples handed over so far, and returns the result and the
// RetainedBytes high-water.
func replay(dec *lf.Decoder, lfiq []byte, pushed *int64, rec *recorder, parent, idx int) (*lf.Result, int64, error) {
	sd, err := dec.NewStream()
	if err != nil {
		return nil, 0, err
	}
	br, err := iq.NewBlockReader(bytes.NewReader(lfiq))
	if err != nil {
		return nil, 0, err
	}
	defer br.Close()
	var peak int64
	for {
		sp := rec.begin("iq.read", parent, idx)
		blk, err := br.ReadBlock(block)
		rec.end(sp)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		*pushed += int64(len(blk))
		sp = rec.begin("decoder.push", parent, idx)
		err = sd.PushOwned(blk)
		rec.end(sp)
		if err != nil {
			return nil, 0, err
		}
		if r := sd.RetainedBytes(); r > peak {
			peak = r
		}
	}
	sp := rec.begin("decoder.flush", parent, idx)
	res, err := sd.Flush()
	rec.end(sp)
	return res, peak, err
}

// runSingle runs a one-stream closed loop: synthesize capture i (outside
// the timed span), decode it, check it and, within the scored set, score
// it. Inside the window the capture is decoded w.repeats times back to
// back, every repeat must reproduce the first decode, and the fastest is
// the capture's time. After the window closes, the loop only finishes the
// scored set, one decode per capture.
func runSingle(w workload, o options) (*outcome, error) {
	out := newOutcome()
	var lfiq bytes.Buffer
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		c, err := synthesize(w, o.Seed, 0, -1-r, &lfiq)
		if err != nil {
			return nil, err
		}
		if _, err := decodeSingle(w, c, decoderConfig(w, c.net), nil, -1, -1); err != nil {
			return nil, fmt.Errorf("warm-up decode: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		q      quality
		wallMs []float64
		busy   time.Duration
		capSec float64
		frames int
		alloc  uint64
		peak   int64
		lt     *layerTrace
	)
	if o.Trace {
		lt = newLayerTrace()
	}
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < w.quality; i++ {
		inWindow := time.Now().Before(deadline)
		synthSpan := lt.rec().begin("reader.synth", -1, i)
		c, err := synthesize(w, o.Seed, 0, i, &lfiq)
		lt.rec().end(synthSpan)
		if err != nil {
			return nil, err
		}
		out.attempted++
		var d *decoded
		if lt != nil {
			d, err = lt.single(w, c, i)
		} else {
			d, err = decodeSingle(w, c, decoderConfig(w, c.net), nil, -1, i)
		}
		if err != nil {
			out.fail("capture %d: %v", i, err)
			continue
		}
		if o.corrupt && corrupt(d.res) {
			o.corrupt = false
		}
		var qp *quality
		if i < w.quality {
			qp = &q
			out.scored++
		}
		if err := check(c.ep, d.res, d.fired, qp); err != nil {
			out.fail("capture %d: %v", i, err)
			continue
		}
		if lt != nil {
			continue
		}
		if !inWindow {
			continue // scored only: the rest of the scored set
		}
		wall, allocs, err := repeat(w, c, d)
		if err != nil {
			out.fail("capture %d: %v", i, err)
			continue
		}
		out.timed++
		wallMs = append(wallMs, ms(wall))
		busy += wall
		capSec += c.ep.Capture.Duration()
		frames += len(d.res.Streams)
		alloc += allocs
		peak = max(peak, d.peak)
	}
	if lt != nil {
		out.timed = lt.captures
		out.perLayer = lt.metrics()
		return out, lt.write(o.TraceOut)
	}
	m := out.endToEnd
	m["setup_s"] = median(setups)
	m["realtime_factor"] = ratio(capSec, busy.Seconds())
	m["capture_ms_p50"] = median(wallMs)
	m["capture_ms_p90"] = percentile(wallMs, 0.9)
	m["alloc_mb_per_capture_s"] = ratio(float64(alloc)/1e6, capSec)
	m["peak_retained_mb"] = float64(peak) / 1e6
	m["frames_per_s"] = ratio(float64(frames), busy.Seconds())
	q.metrics(m, out.diag)
	return out, nil
}

// repeat decodes c another w.repeats-1 times, requires each decode to
// reproduce the first one's frames d, and returns the fastest wall time
// and the fewest allocated bytes of all w.repeats decodes.
func repeat(w workload, c *capture, d *decoded) (time.Duration, uint64, error) {
	wall, allocs := d.wall, d.alloc
	for k := 1; k < w.repeats; k++ {
		dk, err := decodeSingle(w, c, decoderConfig(w, c.net), nil, -1, -1)
		if err == nil {
			err = sameFrames(d.res, dk.res)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("decode %d of %d: %w", k+1, w.repeats, err)
		}
		wall, allocs = min(wall, dk.wall), min(allocs, dk.alloc)
	}
	return wall, allocs, nil
}

// eventLog is the lf.Tracer of a traced decode: it turns each pipeline
// event into an instant span and keeps the first-pass registration count.
type eventLog struct {
	rec        *recorder
	parent     int
	capture    int
	registered int64
}

func (l *eventLog) Trace(ev obs.SpanEvent) {
	sp := l.rec.begin("event."+ev.Stage, l.parent, l.capture)
	l.rec.end(sp)
	if ev.Stage == "register" {
		l.registered = ev.N
	}
}
