package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"lf"
	"lf/internal/epc"
	"lf/internal/gate"
	"lf/internal/tag"
)

// workload describes one named traffic mix. Why each exists, and which
// layer it stresses, is recorded in README.md.
type workload struct {
	// tags and payloadSeconds shape every capture: tags at 100 kbps,
	// each sending payloadSeconds of payload (a random body closed by
	// an EPC CRC-16).
	tags           int
	payloadSeconds float64
	// stream replays each capture from its LFIQ serialization through
	// iq.BlockReader into StreamDecoder.PushOwned in block-sample
	// pushes; otherwise the in-memory capture goes to batch Decode.
	stream bool
	// calib sets DecoderConfig.CalibSamples (0 keeps the default).
	calib int64
	// noSIC disables cancellation, as lfgate's decoder does.
	noSIC bool
	// readers > 0 streams the captures through a loopback gate.Gateway
	// from that many clients.
	readers int
	// repeats is how many times each capture is decoded back to back;
	// its time is the fastest, which rejects interference from whatever
	// else shares the machine.
	repeats int
	// quality is how many captures (per reader) are scored against
	// ground truth: the first `quality` of the seed's sequence, decoded
	// even when the timed window closes first, so quality metrics are a
	// pure function of the seed. Frame loss varies mostly between
	// captures, so its run-to-run spread falls with this count.
	quality int
}

// block is the push size of the streaming workloads, in samples: the
// gateway client's default wire chunk.
const block = 8192

var workloads = map[string]workload{
	"live-8tag": {tags: 8, payloadSeconds: 10e-3,
		stream: true, calib: 32768, repeats: 3, quality: 240},
	"crowd-16tag": {tags: 16, payloadSeconds: 2e-3,
		repeats: 3, quality: 400},
	"gateway-2reader": {tags: 8, payloadSeconds: 10e-3,
		stream: true, calib: 32768, noSIC: true, readers: 2, repeats: 3, quality: 150},
}

func workloadNames() string { return strings.Join(sortedKeys(workloads), ", ") }

// captureSeed derives the network seed of capture i of stream `lane` (a
// gateway reader; 0 elsewhere) from the run seed. Negative indices are the
// set-up warm-up captures, which no measured capture shares.
func captureSeed(seed int64, lane, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(lane+1)*0xBF58476D1CE4E5B9 ^ uint64(int64(i)+2)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD39
	x ^= x >> 29
	return int64(x >> 2)
}

// capture is one synthesized epoch with everything the checks need.
type capture struct {
	net *lf.Network
	ep  *lf.Epoch
	// lfiq is the LFIQ serialization (streaming workloads only).
	lfiq []byte
}

// synthesize builds capture (lane, i) of the run: a fresh deployment of
// w.tags tags whose payloads carry a CRC-16, one epoch of it, and, for
// the streaming workloads, its LFIQ serialization into buf, which the
// capture aliases until buf is next written.
func synthesize(w workload, seed int64, lane, i int, buf *bytes.Buffer) (*capture, error) {
	s := captureSeed(seed, lane, i)
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: w.tags, PayloadSeconds: w.payloadSeconds, Seed: s})
	if err != nil {
		return nil, fmt.Errorf("capture %d/%d: %w", lane, i, err)
	}
	bits := int(math.Round(100e3 * w.payloadSeconds))
	r := rand.New(rand.NewPCG(uint64(s), 0xC0FFEE))
	for t := 0; t < w.tags; t++ {
		body := make([]byte, bits-16)
		for k := range body {
			body[k] = byte(r.IntN(2))
		}
		if err := net.SetPayload(t, append(body, epc.CRC16Bits(body)...)); err != nil {
			return nil, err
		}
	}
	ep, err := net.RunEpoch()
	if err != nil {
		return nil, fmt.Errorf("capture %d/%d: %w", lane, i, err)
	}
	c := &capture{net: net, ep: ep}
	if w.stream {
		buf.Reset()
		if err := lf.WriteCapture(buf, ep); err != nil {
			return nil, fmt.Errorf("capture %d/%d: serialize: %w", lane, i, err)
		}
		c.lfiq = buf.Bytes()
	}
	return c, nil
}

// decoderConfig is the capture network's default decoder configuration
// with the workload's calibration and SIC settings.
func decoderConfig(w workload, net *lf.Network) lf.DecoderConfig {
	cfg := net.DecoderConfig()
	cfg.CalibSamples = w.calib
	if w.noSIC {
		cfg.CancellationRounds = -1
	}
	return cfg
}

// firing is one OnFrame delivery and the number of samples pushed when it
// fired.
type firing struct {
	sr  *lf.StreamResult
	pos int64
}

// quality accumulates the ground-truth scores of the scored captures.
type quality struct {
	captures    int
	offered     int
	lost        int
	spurious    int
	correctBits int
	seconds     float64
	lagsMs      []float64
	// falseAccepts counts frames that pass their CRC yet are no payload
	// any tag sent.
	falseAccepts int
}

// check verifies one decoded capture against its ground truth and scores
// it. It returns a non-nil error when the output is wrong rather than
// merely lossy:
//   - a frame whose CRCOK flag disagrees with the CRC of its delivered
//     bits;
//   - OnFrame deliveries that are not exactly Result.Streams, in order
//     (fired is nil when the caller has no OnFrame record to compare).
//
// Scoring (q non-nil) adds the capture to the quality totals: a tag frame
// counts as lost unless it was decoded bit-exact. A frame that passes its
// CRC yet is no payload any tag sent is counted, not failed: CRC-16 lets
// an even-weight error pattern through with probability 2^-15, so a
// decoder that reports CRCOK truthfully still produces such frames at
// that rate among its wrong ones.
func check(ep *lf.Epoch, res *lf.Result, fired []firing, q *quality) error {
	if fired != nil {
		if len(fired) != len(res.Streams) {
			return fmt.Errorf("%d frames delivered through OnFrame, %d in the result", len(fired), len(res.Streams))
		}
		for i, f := range fired {
			if f.sr != res.Streams[i] {
				return fmt.Errorf("OnFrame delivery %d is not result stream %d", i, i)
			}
		}
	}
	for i, sr := range res.Streams {
		if ok := len(sr.Bits) > 16 && epc.CheckCRC16(sr.Bits); ok != sr.CRCOK {
			return fmt.Errorf("stream %d: CRCOK=%v but its bits check %v", i, sr.CRCOK, ok)
		}
	}
	if q == nil {
		return nil
	}
	for _, sr := range res.Streams {
		if sr.CRCOK && !sentBy(ep, sr.Bits) {
			q.falseAccepts++
		}
	}
	sc := lf.ScoreEpoch(ep, res)
	fs := ep.Capture.SampleRate
	at := map[*lf.StreamResult]int64{}
	for _, f := range fired {
		at[f.sr] = f.pos
	}
	for ti, ts := range sc.PerTag {
		if !ts.Registered {
			continue
		}
		pos, ok := at[res.Streams[ts.StreamID]]
		if !ok {
			pos = int64(ep.Capture.Len()) // batch decode: frames surface at end of capture
		}
		end := ep.Emissions[ti].End() * fs
		q.lagsMs = append(q.lagsMs, (float64(pos)-end)/fs*1e3)
	}
	q.captures++
	q.offered += len(sc.PerTag)
	for _, ts := range sc.PerTag {
		if !ts.Registered || ts.BitErrors > 0 {
			q.lost++
		}
	}
	q.spurious += sc.SpuriousStreams
	q.correctBits += sc.CorrectBits
	q.seconds += sc.EpochSeconds
	return nil
}

// add folds another quality tally into q.
func (q *quality) add(o *quality) {
	q.captures += o.captures
	q.offered += o.offered
	q.lost += o.lost
	q.spurious += o.spurious
	q.correctBits += o.correctBits
	q.seconds += o.seconds
	q.lagsMs = append(q.lagsMs, o.lagsMs...)
	q.falseAccepts += o.falseAccepts
}

// sentBy reports whether bits is the payload of one of the epoch's tags.
func sentBy(ep *lf.Epoch, bits []byte) bool {
	for _, em := range ep.Emissions {
		if bytes.Equal(bits, em.Bits[tag.FrameOverhead:]) {
			return true
		}
	}
	return false
}

// sameFrames reports whether two decodes of one capture produced the same
// frames, compared in their published (gate.Frame JSON) form.
func sameFrames(a, b *lf.Result) error {
	if len(a.Streams) != len(b.Streams) {
		return fmt.Errorf("%d frames, then %d from the same capture", len(a.Streams), len(b.Streams))
	}
	for i := range a.Streams {
		fa, err := json.Marshal(gate.FrameOf("", 0, i, a.Streams[i]))
		if err != nil {
			return err
		}
		fb, err := json.Marshal(gate.FrameOf("", 0, i, b.Streams[i]))
		if err != nil {
			return err
		}
		if !bytes.Equal(fa, fb) {
			return fmt.Errorf("frame %d differs between decodes of the same capture:\n  %s\n  %s", i, fa, fb)
		}
	}
	return nil
}

// corrupt flips one payload bit of the first frame that passed its CRC and
// reports whether there was one; the self-test uses it to show that the
// correctness check catches a wrong frame.
func corrupt(res *lf.Result) bool {
	for _, sr := range res.Streams {
		if sr.CRCOK {
			sr.Bits[len(sr.Bits)/2] ^= 1
			return true
		}
	}
	return false
}

// metrics adds the ground-truth metrics to m, and to diag two counts too
// rare to hold a seed-steady value at this run length, so they are
// reported, not gated: spurious streams per capture (a few tenths) and
// CRC false accepts (a few per hundred runs).
func (q *quality) metrics(m map[string]float64, diag map[string]metric) {
	m["frame_loss_frac"] = ratio(float64(q.lost), float64(q.offered))
	m["goodput_kbps"] = ratio(float64(q.correctBits), q.seconds) / 1e3
	m["frame_lag_ms_p50"] = median(q.lagsMs)
	diag["spurious_per_capture"] = metric{ratio(float64(q.spurious), float64(q.captures)), "1/capture"}
	diag["crc_false_accepts"] = metric{float64(q.falseAccepts), "count"}
}
