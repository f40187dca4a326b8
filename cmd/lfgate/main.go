// Command lfgate runs one side of the fleet-scale reader gateway: the
// gateway itself, a simulated reader streaming a capture into it, or a
// self-contained loopback demo.
//
// Usage:
//
//	lfgate -serve [-addr host:port] [-workers N] [-max-retained BYTES]
//	       [-flush-after-ms ms] [-out FILE] [-quiet]
//	       [-tags N] [-payload-ms ms] [-calib N]
//	       [-fault SPEC] [-fault-seed N] [-stats] [-v]
//	lfgate -reader -addr host:port [-name NAME] [-replay FILE]
//	       [-tags N] [-payload-ms ms] [-seed N] [-block N]
//	       [-fault SPEC] [-fault-seed N] [-v]
//	lfgate -demo [-readers N] [-check] [-tags N] [-payload-ms ms]
//	       [-seed N] [-block N] [-fault SPEC] [-fault-seed N] [-stats]
//
// The gateway accepts LFIQ sample streams from any number of readers
// at once, runs each reader's capture through its own streaming
// decoder on a shared bounded worker fleet, and publishes every
// decoded frame to its sinks (JSONL on stdout by default, a file with
// -out). Backpressure is per reader: a session whose decoder retains
// more than -max-retained bytes has its acks withheld, so the slow
// reader is flow-controlled — never dropped. A reader that vanishes
// mid-capture is flushed after -flush-after-ms, publishing every frame
// already committed; a reader that reconnects (same name and capture
// nonce) resumes exactly where the gateway's acks left off, so
// transport faults cost retries, never bytes.
//
// -fault takes transport-level kinds only (conndrop, stall,
// partialwrite, corruptframe — see internal/fault) and impairs that
// side's connections deterministically in -fault-seed. Running readers
// with -fault 'conndrop:0.5' against a gateway is the command-line
// version of the acceptance matrix: reconnects climb, the decoded
// bytes do not change.
//
// -demo runs the whole round trip in-process: a loopback gateway,
// -readers simulated readers streaming concurrently, and a report of
// frames, throughput, and the gate.* counters. With -check it also
// decodes every capture locally and asserts the gateway's frames are
// byte-identical — the same invariant the acceptance tests pin.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"reflect"
	"syscall"
	"time"

	"lf"
	"lf/internal/fault"
	"lf/internal/gate"
	"lf/internal/iq"
)

func main() {
	serve := flag.Bool("serve", false, "run the gateway until interrupted")
	reader := flag.Bool("reader", false, "run a reader: stream one capture into the gateway")
	demo := flag.Bool("demo", false, "run a loopback demo: gateway + -readers concurrent readers in-process")
	addr := flag.String("addr", "127.0.0.1:9660", "gateway listen/dial address")
	name := flag.String("name", "", "reader name (default: pid-derived)")
	replay := flag.String("replay", "", "reader streams a recorded capture (LFIQ container) instead of simulating")
	tags := flag.Int("tags", 4, "number of simulated tags per capture")
	payloadMS := flag.Float64("payload-ms", 2, "payload airtime per simulated epoch (ms)")
	seed := flag.Int64("seed", 1, "simulation seed (demo readers use seed, seed+1, …)")
	block := flag.Int("block", 8192, "reader push block size in samples")
	calib := flag.Int64("calib", 32768, "per-session noise-calibration sample budget")
	workers := flag.Int("workers", 0, "decode fleet size (0 = GOMAXPROCS)")
	maxRetained := flag.Int64("max-retained", 0, "per-reader backpressure bound in bytes (0 = 1 GiB)")
	flushAfterMS := flag.Int("flush-after-ms", 0, "disconnect grace before best-effort flush (0 = 3000)")
	out := flag.String("out", "", "also write frames to this file (JSONL)")
	quiet := flag.Bool("quiet", false, "suppress the stdout JSONL sink")
	nReaders := flag.Int("readers", 4, "demo: concurrent readers")
	check := flag.Bool("check", false, "demo: assert gateway frames are byte-identical to local decodes")
	faultSpec := flag.String("fault", "", "impair this side's connections: comma-separated transport kind:severity list (e.g. conndrop:0.5,corruptframe:0.3)")
	faultSeed := flag.Int64("fault-seed", 42, "seed for the transport injectors")
	stats := flag.Bool("stats", false, "dump the gate.* counters on exit")
	verbose := flag.Bool("v", false, "log session lifecycle events")
	flag.Parse()

	modes := 0
	for _, m := range []bool{*serve, *reader, *demo} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fatal(fmt.Errorf("pick exactly one of -serve, -reader, or -demo"))
	}

	var transport fault.TransportConfig
	if *faultSpec != "" {
		injs, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		wire, rest := fault.SplitTransport(injs)
		if len(rest) > 0 {
			fatal(fmt.Errorf("-fault %q: kind %q is not transport-level (lfgate impairs the wire; use lfsim for capture faults)", *faultSpec, rest[0].Kind))
		}
		transport = fault.TransportConfig{Seed: *faultSeed, Injectors: wire}
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	switch {
	case *reader:
		runReader(*addr, *name, *replay, *tags, *payloadMS, *seed, *block, transport, logf)
	case *serve:
		runServe(*addr, *tags, *payloadMS, *calib, *workers, *maxRetained, *flushAfterMS, *out, *quiet, *stats, transport, logf)
	case *demo:
		runDemo(*nReaders, *check, *tags, *payloadMS, *seed, *block, *calib, *workers, *maxRetained, *stats, transport, logf)
	}
}

// baseDecoderConfig is the gateway's per-session decoder template: the
// simulation flags describe the reader scenario (rates and payload
// sizes are not on the wire). Cancellation is off so sessions retain a bounded
// window rather than whole captures.
func baseDecoderConfig(tags int, payloadMS float64, calib int64) (lf.DecoderConfig, error) {
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags:        tags,
		PayloadSeconds: payloadMS * 1e-3,
		Seed:           1,
	})
	if err != nil {
		return lf.DecoderConfig{}, err
	}
	dcfg := net.DecoderConfig()
	dcfg.CalibSamples = calib
	dcfg.CancellationRounds = -1
	return dcfg, nil
}

func runServe(addr string, tags int, payloadMS float64, calib int64, workers int, maxRetained int64, flushAfterMS int, out string, quiet, stats bool, transport fault.TransportConfig, logf func(string, ...any)) {
	dcfg, err := baseDecoderConfig(tags, payloadMS, calib)
	if err != nil {
		fatal(err)
	}
	var sinks []gate.Sink
	if !quiet {
		sinks = append(sinks, gate.NewJSONLSink(os.Stdout))
	}
	if out != "" {
		fs, err := gate.NewFileSink(out)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, fs)
	}
	g, err := gate.NewGateway(gate.Config{
		Addr:        addr,
		Decoder:     dcfg,
		Workers:     workers,
		MaxRetained: maxRetained,
		FlushAfter:  time.Duration(flushAfterMS) * time.Millisecond,
		Sinks:       sinks,
		Transport:   transport,
		Logf:        logf,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lfgate: gateway listening on %s\n", g.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	if err := g.Close(); err != nil {
		fatal(err)
	}
	snap := g.Stats()
	fmt.Fprintf(os.Stderr, "lfgate: %d readers, %d frames, %d KiB on the wire, %.1f ms throttled\n",
		snap.Counter("gate.readers"), snap.Counter("gate.frames"),
		snap.Counter("gate.bytes")/1024,
		float64(snap.Counter("gate.backpressure_ns"))/1e6)
	if stats {
		if err := snap.WriteText(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

func runReader(addr, name, replay string, tags int, payloadMS float64, seed int64, block int, transport fault.TransportConfig, logf func(string, ...any)) {
	if name == "" {
		name = fmt.Sprintf("reader-%d", os.Getpid())
	}
	samples, rate, err := readerSamples(replay, tags, payloadMS, seed)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	c, err := gate.DialClient(ctx, gate.ClientConfig{
		Addr: addr, Name: name, SampleRate: rate,
		Transport: transport, Logf: logf,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if block <= 0 {
		block = len(samples)
	}
	for lo := 0; lo < len(samples); lo += block {
		hi := lo + block
		if hi > len(samples) {
			hi = len(samples)
		}
		if err := c.Push(samples[lo:hi]); err != nil {
			fatal(err)
		}
	}
	frames, err := c.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("lfgate: reader %q streamed %d samples (%.2f ms of capture) in %v; gateway published %d frames\n",
		name, len(samples), float64(len(samples))/rate*1e3,
		time.Since(start).Round(time.Millisecond), frames)
}

// readerSamples resolves the reader's capture: a recorded LFIQ
// container, or a freshly simulated epoch.
func readerSamples(replay string, tags int, payloadMS float64, seed int64) ([]complex128, float64, error) {
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		br, err := iq.NewBlockReader(f)
		if err != nil {
			return nil, 0, err
		}
		defer br.Close()
		var samples []complex128
		buf := make([]complex128, 8192)
		for {
			n, err := br.Read(buf)
			samples = append(samples, buf[:n]...)
			if err == io.EOF {
				return samples, br.SampleRate(), nil
			}
			if err != nil {
				return nil, 0, err
			}
		}
	}
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags:        tags,
		PayloadSeconds: payloadMS * 1e-3,
		Seed:           seed,
	})
	if err != nil {
		return nil, 0, err
	}
	ep, err := net.RunEpoch()
	if err != nil {
		return nil, 0, err
	}
	return ep.Capture.Samples, ep.Config.SampleRate, nil
}

func runDemo(nReaders int, check bool, tags int, payloadMS float64, seed int64, block int, calib int64, workers int, maxRetained int64, stats bool, transport fault.TransportConfig, logf func(string, ...any)) {
	dcfg, err := baseDecoderConfig(tags, payloadMS, calib)
	if err != nil {
		fatal(err)
	}
	readers := map[string]gate.LoopbackReader{}
	captures := map[string][]complex128{}
	nonces := map[string]uint64{}
	for i := 0; i < nReaders; i++ {
		rname := fmt.Sprintf("reader-%d", i)
		samples, rate, err := readerSamples("", tags, payloadMS, seed+int64(i))
		if err != nil {
			fatal(err)
		}
		nonces[rname] = uint64(i + 1)
		captures[rname] = samples
		readers[rname] = gate.LoopbackReader{
			Samples:    samples,
			SampleRate: rate,
			Nonce:      nonces[rname],
			Block:      block,
			Transport:  transport,
			Seed:       seed + int64(i),
		}
	}
	res, err := gate.Loopback(context.Background(), gate.Config{
		Decoder:     dcfg,
		Workers:     workers,
		MaxRetained: maxRetained,
		Logf:        logf,
	}, readers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("lfgate: %d readers pushed %d captures through the gateway in %v\n",
		nReaders, nReaders, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("frames: %d total (%.0f frames/s)\n", res.FramesTotal, res.FramesPerSec)
	for rname, frames := range res.Frames {
		crc := 0
		for _, f := range frames {
			if f.CRCOK {
				crc++
			}
		}
		fmt.Printf("  %s: %d frames, %d crc-ok\n", rname, len(frames), crc)
	}
	snap := res.Gateway
	fmt.Printf("gate: %d readers, %d frames, %d KiB on the wire, %.1f ms throttled\n",
		snap.Counter("gate.readers"), snap.Counter("gate.frames"),
		snap.Counter("gate.bytes")/1024,
		float64(snap.Counter("gate.backpressure_ns"))/1e6)
	if stats {
		if err := snap.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if !check {
		return
	}
	// The acceptance invariant: each reader's gateway frames are
	// byte-identical to an independent local streaming decode.
	for rname, samples := range captures {
		want, err := localFrames(samples, dcfg, rname, nonces[rname])
		if err != nil {
			fatal(err)
		}
		if len(want) == 0 {
			fatal(fmt.Errorf("check: local decode of %s produced no frames (vacuous)", rname))
		}
		if !reflect.DeepEqual(res.Frames[rname], want) {
			fatal(fmt.Errorf("check: reader %s gateway frames diverged from local decode (%d vs %d frames)",
				rname, len(res.Frames[rname]), len(want)))
		}
	}
	fmt.Printf("check: all %d readers byte-identical to local decodes\n", nReaders)
}

// localFrames is the local reference decode for -demo -check.
func localFrames(samples []complex128, dcfg lf.DecoderConfig, reader string, nonce uint64) ([]*gate.Frame, error) {
	var frames []*gate.Frame
	dcfg.OnFrame = func(sr *lf.StreamResult) {
		frames = append(frames, gate.FrameOf(reader, nonce, len(frames), sr))
	}
	dec, err := lf.NewDecoder(dcfg)
	if err != nil {
		return nil, err
	}
	sd, err := dec.NewStream()
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(samples); lo += 8192 {
		hi := lo + 8192
		if hi > len(samples) {
			hi = len(samples)
		}
		if err := sd.Push(samples[lo:hi]); err != nil {
			return nil, err
		}
	}
	if _, err := sd.Flush(); err != nil {
		return nil, err
	}
	return frames, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lfgate:", err)
	os.Exit(1)
}
