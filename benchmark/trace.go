package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lf"
	"lf/internal/cluster"
	"lf/internal/collide"
	"lf/internal/decoder"
	"lf/internal/edgedetect"
	"lf/internal/obs"
	"lf/internal/rng"
	"lf/internal/streams"
	"lf/internal/viterbi"
)

// span is one timed call into a layer. Spans of one capture share Capture;
// Parent is the enclosing span's ID (-1 at the top).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Capture int    `json:"capture"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally. One
// recorder belongs to one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, capture int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Capture: capture, Name: name, StartNs: int64(time.Since(r.t0))})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].EndNs = int64(time.Since(r.t0))
}

// duration returns span id's length.
func (r *recorder) duration(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	return time.Duration(r.spans[id].EndNs - r.spans[id].StartNs)
}

// layerTrace accumulates the traced run: spans, the decoders' own
// counters, and the recomposition's work counts.
type layerTrace struct {
	t0       time.Time
	recs     []*recorder
	stats    *lf.Stats
	captures int
	samples  int64
	// iqSamples counts the samples read inside traced iq.read spans.
	iqSamples int64
	// sicSamples is the capture length summed over SIC rounds.
	sicSamples    int64
	edges         int
	streams       int
	walkSlots     int
	viterbiSlots  int
	edgeAlloc     uint64
	defaultMs     []float64 // untraced decode (or gateway session) per capture
	tracedMs      []float64 // traced decode (or gateway session) per capture
	firstPassMs   float64   // summed
	sicMs         float64   // summed default − first pass
	gateSessionNs int64
	gateStats     *lf.Stats
}

func newLayerTrace() *layerTrace {
	t0 := time.Now()
	return &layerTrace{t0: t0, recs: []*recorder{newRecorder(t0)}, stats: obs.NewSnapshot()}
}

// rec returns the run's main recorder (nil when untraced).
func (lt *layerTrace) rec() *recorder {
	if lt == nil {
		return nil
	}
	return lt.recs[0]
}

// single traces one capture of a one-stream workload: an untraced decode
// and a traced one (spans around the iq and decoder calls, plus a Tracer),
// in alternating order so neither always runs on warm caches; a
// first-pass-only decode; and the layer recomposition, whose edge and
// registration counts must match the real decode's. It returns the
// untraced decode for the caller's checks.
func (lt *layerTrace) single(w workload, c *capture, idx int) (*decoded, error) {
	rec := lt.rec()
	cfg := decoderConfig(w, c.net)
	var d, td *decoded
	var err error
	capSpan := -1
	for k := 0; k < 2; k++ {
		if (k+idx)%2 == 0 {
			d, err = decodeSingle(w, c, cfg, nil, -1, idx)
		} else {
			capSpan = rec.begin("capture", -1, idx)
			td, err = decodeSingle(w, c, cfg, rec, capSpan, idx)
			rec.end(capSpan)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := check(c.ep, td.res, td.fired, nil); err != nil {
		return nil, fmt.Errorf("traced decode: %w", err)
	}
	first := cfg
	first.CancellationRounds = -1
	fp, err := decodeSingle(w, c, first, nil, -1, idx)
	if err != nil {
		return nil, fmt.Errorf("first pass: %w", err)
	}
	lt.firstPassMs += ms(fp.wall)
	lt.sicMs += ms(d.wall) - ms(fp.wall)
	lt.defaultMs = append(lt.defaultMs, ms(d.wall))
	lt.tracedMs = append(lt.tracedMs, ms(rec.duration(capSpan)))
	lt.stats.Add(td.stats)
	if w.stream {
		lt.iqSamples += int64(c.ep.Capture.Len())
	}
	lt.sicSamples += td.stats.Counter("sic.rounds") * int64(c.ep.Capture.Len())
	if err := lt.recompose(rec, w, cfg, c, td.res, td.registered, idx); err != nil {
		return nil, err
	}
	return d, nil
}

// recompose re-runs the first decode pass from the layers' public
// functions, with a span around each layer: edgedetect.NewStream/Push/
// Close, streams.Register, streams.Walk, collision separation, and
// windowed Viterbi. Its edge count and registered-stream count must equal
// the real decode's (res.EdgeCount and the Tracer register event's N),
// or the traced run fails: a mismatch means the spans time something
// other than what the decoder runs.
func (lt *layerTrace) recompose(rec *recorder, w workload, cfg lf.DecoderConfig, c *capture, res *lf.Result, registered int64, idx int) error {
	samples := c.ep.Capture.Samples
	dc := decoder.DefaultConfig(cfg.SampleRate, cfg.Rates, 0)
	dc.PayloadBits = cfg.PayloadBits
	dc.Streams.Registration = cfg.Registration
	ecfg := dc.Edge
	ecfg.Parallelism = runtime.GOMAXPROCS(0)
	push := len(samples) // batch Decode pushes the capture as one block
	if w.stream {
		push = block
	}
	parent := rec.begin("recompose", -1, idx)
	defer rec.end(parent)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := rec.begin("edgedetect", parent, idx)
	det, err := edgedetect.NewStream(edgedetect.StreamConfig{Config: ecfg, CalibSamples: cfg.CalibSamples})
	if err != nil {
		return err
	}
	for lo := 0; lo < len(samples); lo += push {
		hi := min(lo+push, len(samples))
		if err := det.Push(samples[lo:hi]); err != nil {
			return err
		}
	}
	if err := det.Close(); err != nil {
		return err
	}
	rec.end(sp)
	runtime.ReadMemStats(&m1)
	defer det.Release()
	lt.edgeAlloc += m1.TotalAlloc - m0.TotalAlloc
	edges := det.Edges()

	sp = rec.begin("streams.register", parent, idx)
	sts, err := streams.Register(edges, dc.Streams, dc.PayloadBits)
	rec.end(sp)
	if err != nil {
		return err
	}
	if len(edges) != res.EdgeCount || int64(len(sts)) != registered {
		return fmt.Errorf("recomposition found %d edges and %d streams, the decode %d and %d",
			len(edges), len(sts), res.EdgeCount, registered)
	}

	sp = rec.begin("streams.walk", parent, idx)
	slots := make([][]streams.SlotObs, len(sts))
	for i, st := range sts {
		// 4 slots of alignment slack past the nominal frame, as the
		// decoder walks.
		slots[i] = streams.Walk(st, det, dc.Streams, streams.FrameSlots(dc.Streams, dc.PayloadBits(st.Rate))+4)
		lt.walkSlots += len(slots[i])
	}
	rec.end(sp)

	groups := collisionGroups(slots)
	sp = rec.begin("collide.separate", parent, idx)
	separate(groups, sts, slots, dc.MinBlindPoints, cfg.Separation != lf.SeparationAnchored, rng.New(cfg.Seed).Split("collisions"))
	rec.end(sp)

	sp = rec.begin("viterbi", parent, idx)
	sigma2 := noiseVariance(det.NoiseFloor())
	for i, st := range sts {
		em := make([]viterbi.Emission, len(slots[i]))
		for k, s := range slots[i] {
			em[k] = viterbi.Emission{Obs: s.Obs, E: st.E, Sigma2: sigma2}
			if s.Kind == streams.MatchForeign {
				em[k].Sigma2 *= 4
			}
		}
		viterbi.NewDecoder(0.5, viterbi.Down).DecodeWindowedMargin(em, cfg.ViterbiWindow)
		lt.viterbiSlots += len(em)
	}
	rec.end(sp)

	lt.captures++
	lt.samples += int64(len(samples))
	lt.edges += len(edges)
	lt.streams += len(sts)
	return nil
}

// noiseVariance converts a detector noise floor (median |differential|)
// to a slot observation's complex variance, as the decoder does.
func noiseVariance(floor float64) float64 {
	s := floor / 0.8326
	if v := s * s; v > 0 {
		return v
	}
	return 1e-18
}

type claim struct{ stream, slot int }

// collisionGroup is the set of edges claimed by one set of streams.
type collisionGroup struct {
	streams []int
	edges   [][]claim // per shared edge, its claims in stream order
}

// collisionGroups collects the edges two or more walked streams claim and
// groups them by the set of claiming streams, in a deterministic order.
func collisionGroups(slots [][]streams.SlotObs) []*collisionGroup {
	byEdge := map[int][]claim{}
	for si, obs := range slots {
		for ki, s := range obs {
			if s.EdgeIdx >= 0 {
				byEdge[s.EdgeIdx] = append(byEdge[s.EdgeIdx], claim{si, ki})
			}
		}
	}
	edgeIdx := make([]int, 0, len(byEdge))
	for e, cl := range byEdge {
		if len(cl) >= 2 {
			edgeIdx = append(edgeIdx, e)
		}
	}
	sort.Ints(edgeIdx)
	byKey := map[string]*collisionGroup{}
	var groups []*collisionGroup
	for _, e := range edgeIdx {
		cl := byEdge[e]
		key := fmt.Sprint(streamsOf(cl))
		g, ok := byKey[key]
		if !ok {
			g = &collisionGroup{streams: streamsOf(cl)}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.edges = append(g.edges, cl)
	}
	return groups
}

func streamsOf(cl []claim) []int {
	s := make([]int, len(cl))
	for i, c := range cl {
		s[i] = c.stream
	}
	return s
}

// separate runs the collision separation calls the decoder makes for each
// group: blind parallelogram separation (warm-started across groups) for a
// recurring pair with enough observations, anchored classification for the
// rest of the pairs, and joint nearest-lattice classification for k ≥ 3.
func separate(groups []*collisionGroup, sts []*streams.Stream, slots [][]streams.SlotObs, minBlind int, blind bool, src *rng.Source) {
	warm := &cluster.Warm{}
	for _, g := range groups {
		if len(g.streams) == 2 {
			a, b := g.streams[0], g.streams[1]
			if a == b {
				continue
			}
			points := make([]complex128, len(g.edges))
			for i, cl := range g.edges {
				points[i] = slots[cl[0].stream][cl[0].slot].Obs
			}
			if blind && len(points) >= minBlind {
				if _, err := collide.SeparateBlindWarm(points, src, warm); err == nil {
					continue
				}
			}
			collide.SeparateAnchored(points, sts[a].E, sts[b].E)
			continue
		}
		for _, cl := range g.edges {
			es := make([]complex128, len(cl))
			for i, c := range cl {
				es[i] = sts[c.stream].E
			}
			collide.ClassifyJoint(slots[cl[0].stream][cl[0].slot].Obs, es)
		}
	}
}

// total sums the durations of every span named name.
func (lt *layerTrace) total(name string) time.Duration {
	var d time.Duration
	for _, r := range lt.recs {
		for _, s := range r.spans {
			if s.Name == name {
				d += time.Duration(s.EndNs - s.StartNs)
			}
		}
	}
	return d
}

// count returns how many spans are named name.
func (lt *layerTrace) count(name string) int {
	n := 0
	for _, r := range lt.recs {
		for _, s := range r.spans {
			if s.Name == name {
				n++
			}
		}
	}
	return n
}

// metrics derives the per-layer metrics from the spans and counters.
func (lt *layerTrace) metrics() map[string]float64 {
	m := map[string]float64{}
	st := lt.stats
	c := st.Counter
	caps := float64(lt.captures)
	samples := float64(lt.samples)
	m["iq.read_ns_per_sample"] = ratio(float64(lt.total("iq.read")), float64(lt.iqSamples))
	m["edgedetect.ns_per_sample"] = ratio(float64(lt.total("edgedetect")), samples)
	m["edgedetect.alloc_bytes_per_sample"] = ratio(float64(lt.edgeAlloc), samples)
	m["edgedetect.edges_per_capture"] = ratio(float64(lt.edges), caps)
	m["edgedetect.kept_frac"] = ratio(float64(c("edge.kept")), float64(c("edge.raw_peaks")))
	m["edgedetect.claimed_frac"] = ratio(float64(c("edge.claimed")), float64(c("edge.edges")))
	m["streams.register_ms"] = ratio(ms(lt.total("streams.register")), caps)
	m["streams.streams_per_capture"] = ratio(float64(lt.streams), caps)
	m["streams.walk_ns_per_slot"] = ratio(float64(lt.total("streams.walk")), float64(lt.walkSlots))
	m["streams.clean_slot_frac"] = ratio(float64(c("walk.slots_clean")), float64(c("walk.slots")))
	m["collide.separate_ms"] = ratio(ms(lt.total("collide.separate")), caps)
	m["collide.groups_per_capture"] = ratio(float64(c("collide.groups_pair")+c("collide.groups_joint")), caps)
	attempts := float64(c("collide.blind_attempts"))
	m["collide.blind_ok_frac"] = ratio(attempts-float64(c("collide.blind_degenerate")), attempts)
	m["viterbi.ns_per_slot"] = ratio(float64(lt.total("viterbi")), float64(lt.viterbiSlots))
	m["decoder.first_pass_ms"] = ratio(lt.firstPassMs, caps)
	m["decoder.sic_ms"] = ratio(lt.sicMs, caps)
	m["decoder.sic_residual_ms"] = ratio(float64(st.Timings["stage.sic_ns"].TotalNs)/1e6, caps)
	m["decoder.sic_dirty_frac"] = ratio(float64(c("sic.dirty_samples")), float64(lt.sicSamples))
	m["decoder.sic_recovered_per_pass"] = ratio(float64(c("sic.recovered")), float64(c("sic.residual_decodes")))
	sessions := float64(lt.count("gate.session"))
	m["gate.push_ms_per_capture"] = ratio(ms(lt.total("gate.push")), sessions)
	m["gate.end_ms"] = ratio(ms(lt.total("gate.end")), sessions)
	m["gate.throttle_frac"] = ratio(float64(lt.gateStats.Counter("gate.backpressure_ns")), float64(lt.gateSessionNs))
	m["gate.sink_errors"] = float64(lt.gateStats.Counter("gate.sink_errors"))
	m["reader.synth_ms_per_capture"] = ratio(ms(lt.total("reader.synth")), float64(lt.count("reader.synth")))
	m["trace.overhead_ms"] = median(lt.tracedMs) - median(lt.defaultMs)
	return m
}

// write saves every span, one JSON object per line, to path.
func (lt *layerTrace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for ri, r := range lt.recs {
		for _, s := range r.spans {
			// Span IDs are per recorder; offset them so they stay unique.
			s.ID += ri << 32
			if s.Parent >= 0 {
				s.Parent += ri << 32
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
