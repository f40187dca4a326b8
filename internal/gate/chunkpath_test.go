package gate

import (
	"context"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"lf"
)

// pipeListener is an in-memory net.Listener: each dial hands the
// gateway one end of a net.Pipe.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(ctx context.Context) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// chunkPathRig connects one client to a gateway over an in-memory pipe
// and warms the session past decoder calibration, so every later Push
// of block is one steady-state chunk round trip: client encode, frame
// write, gateway read, decode, push, recycle, ack. The samples are
// low-level noise, so the decoder commits no frames and its own work
// per chunk stays flat.
func chunkPathRig(tb testing.TB, chunk int) (*Client, []complex128) {
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 1, PayloadSeconds: 2e-3, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	dcfg := net.DecoderConfig()
	dcfg.CalibSamples = 32768
	dcfg.CancellationRounds = -1
	ln := newPipeListener()
	g, err := NewGateway(Config{Listener: ln, Decoder: dcfg, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { g.Close() })
	c, err := DialClient(context.Background(), ClientConfig{
		Name: "r0", Nonce: 1, SampleRate: dcfg.SampleRate, ChunkSamples: chunk, Dial: ln.dial,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	rng := rand.New(rand.NewSource(int64(chunk)))
	block := make([]complex128, chunk)
	for i := range block {
		block[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
	}
	for pushed := 0; pushed < 2*int(dcfg.CalibSamples)+4*chunk; pushed += chunk {
		if err := c.Push(block); err != nil {
			tb.Fatal(err)
		}
	}
	return c, block
}

// TestChunkPathAllocs pins the zero-allocation ingest path: at steady
// state one chunk's whole round trip allocates a small constant number
// of objects — none of them a sample or frame buffer, so their bytes
// stay far below even a 1024-sample chunk's 16 KiB — and the count is
// the same at 1024- and 8192-sample chunks, so nothing on the path
// scales with chunk size. The count is a mean over many chunks rounded
// to the nearest integer rather than testing.AllocsPerRun's floor: the
// gateway re-arms its read deadline after acking, concurrently with
// the client, so a run's first and last chunk can each gain or lose
// that allocation.
func TestChunkPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	const (
		runs      = 1000
		maxAllocs = 16
		maxBytes  = 4096
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	counts := map[int]float64{}
	for _, chunk := range []int{1024, 8192} {
		c, block := chunkPathRig(t, chunk)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := c.Push(block); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		counts[chunk] = math.Round(float64(after.Mallocs-before.Mallocs) / runs)
		if counts[chunk] > maxAllocs {
			t.Errorf("chunk %d: %v allocations per chunk round trip, want at most %d", chunk, counts[chunk], maxAllocs)
		}
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > maxBytes {
			t.Errorf("chunk %d: %d bytes allocated per chunk round trip, want at most %d", chunk, b, maxBytes)
		}
	}
	if counts[1024] != counts[8192] {
		t.Errorf("allocations per chunk scale with chunk size: %v at 1024 samples, %v at 8192", counts[1024], counts[8192])
	}
	t.Logf("allocations per chunk round trip: %v", counts)
}

// BenchmarkChunkRoundTrip times one steady-state 8192-sample chunk
// through the whole ingest path (see chunkPathRig), reporting ns/op
// and B/op.
func BenchmarkChunkRoundTrip(b *testing.B) {
	c, block := chunkPathRig(b, 8192)
	b.ReportAllocs()
	b.SetBytes(int64(len(block)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Push(block); err != nil {
			b.Fatal(err)
		}
	}
}
