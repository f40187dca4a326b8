package gate

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// ackLoser, when armed, swallows the ack to the next chunk it sends
// and fails the read, as a connection dropping right after the gateway
// acked would: the gateway has ingested the chunk, the reader never
// learns it did.
type ackLoser struct {
	net.Conn
	arm      *atomic.Bool
	loseNext bool
}

func (c *ackLoser) Write(p []byte) (int, error) {
	if len(p) > 2 && p[2] == msgChunk && c.arm.CompareAndSwap(true, false) {
		c.loseNext = true
	}
	return c.Conn.Write(p)
}

func (c *ackLoser) Read(p []byte) (int, error) {
	if c.loseNext {
		c.loseNext = false
		var ack bytes.Buffer
		proto.WriteFrame(&ack, nil, msgAck, (&wireAck{}).encode())
		io.ReadFull(c.Conn, make([]byte, ack.Len()))
		return 0, io.ErrUnexpectedEOF
	}
	return c.Conn.Read(p)
}

// TestClientResumeOverRebasedPending interrupts a session while the
// client's pending samples are only partly acknowledged, then pushes
// more: the push slides the unacknowledged tail to the front of the
// backing array and grows it, a lost ack sends the client through a
// resume that advances pending by the samples acked while it was away,
// and later acks drain pending back to the start of its array. The
// gateway's frames must equal an uninterrupted local decode.
func TestClientResumeOverRebasedPending(t *testing.T) {
	samples, cfg := testCapture(t, 3, 33)
	collect := newCollectSink()
	g, err := NewGateway(Config{Decoder: cfg, Sinks: []Sink{collect}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	var (
		arm  atomic.Bool
		mu   sync.Mutex
		logs []string
	)
	d := &net.Dialer{}
	c, err := DialClient(context.Background(), ClientConfig{
		Name: "r0", Nonce: 5, SampleRate: cfg.SampleRate, ChunkSamples: 4096,
		Dial: func(ctx context.Context) (net.Conn, error) {
			conn, err := d.DialContext(ctx, "tcp", g.Addr())
			if err != nil {
				return nil, err
			}
			return &ackLoser{Conn: conn, arm: &arm}, nil
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One chunk acked, 1904 samples pending behind it.
	if err := c.Push(samples[:6000]); err != nil {
		t.Fatal(err)
	}
	if c.acked != 4096 || len(c.pending()) != 1904 {
		t.Fatalf("after the first push: acked %d, %d pending; want 4096, 1904", c.acked, len(c.pending()))
	}
	capBefore := cap(c.buf)
	c.Close() // interrupt the session

	arm.Store(true)
	if err := c.Push(samples[6000 : 6000+8192]); err != nil {
		t.Fatal(err)
	}
	if arm.Load() {
		t.Fatal("the armed ack was never lost")
	}
	if base := c.acked - int64(c.head); base != 4096 {
		t.Errorf("pending's backing array starts at offset %d, want 4096 (rebased past the acked chunk)", base)
	}
	if cap(c.buf) <= capBefore {
		t.Errorf("pending never grew: cap %d, was %d", cap(c.buf), capBefore)
	}
	if c.acked != 12288 {
		t.Errorf("acked %d after the resume, want 12288", c.acked)
	}
	mu.Lock()
	resumed := strings.Contains(strings.Join(logs, "\n"), "acked while away")
	mu.Unlock()
	if !resumed {
		t.Error("the lost ack never resumed through the welcome offset")
	}

	for lo := 6000 + 8192; lo < len(samples); lo += 5000 {
		if err := c.Push(samples[lo:min(lo+5000, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := c.End()
	if err != nil {
		t.Fatal(err)
	}
	if c.head != 0 || len(c.buf) != 0 {
		t.Errorf("drained pending not rebased: head %d, len %d", c.head, len(c.buf))
	}
	want := localFrames(t, samples, cfg, "r0", 5)
	if len(want) == 0 {
		t.Fatal("vacuous: local decode produced no frames")
	}
	if frames != len(want) {
		t.Fatalf("gateway reported %d frames, want %d", frames, len(want))
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect.take()["r0"]; !reflect.DeepEqual(got, want) {
		t.Errorf("resumed decode diverged from local (%d vs %d frames)", len(got), len(want))
	}
}
