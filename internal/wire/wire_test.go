package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

var testProto = Proto{Name: "test", Magic0: 'T', Magic1: 'P', MaxPayload: 64}

func frame(t *testing.T, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testProto.WriteFrame(&buf, nil, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func isWireErr(err error) bool {
	var we *Error
	return errors.As(err, &we)
}

// TestFrameRoundTrip: a written frame reads back with its type and
// payload intact, consuming exactly the frame's bytes.
func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {0}, bytes.Repeat([]byte{0xa5}, testProto.MaxPayload)} {
		b := frame(t, 7, payload)
		if want := headerLen + len(payload) + trailerLen; len(b) != want {
			t.Fatalf("frame of %d-byte payload is %d bytes, want %d", len(payload), len(b), want)
		}
		r := bytes.NewReader(append(b, 0xee)) // one byte of the next frame
		typ, got, err := testProto.ReadFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != 7 || !bytes.Equal(got, payload) {
			t.Fatalf("read type %d payload %x, wrote 7 %x", typ, got, payload)
		}
		if r.Len() != 1 {
			t.Fatalf("reader consumed %d bytes past the frame", 1-r.Len())
		}
	}
}

// TestReadFrameRejectsCorruption: flipping any single bit after the
// magic — type, length, header CRC, payload, or CRC — is a framing
// error, never a silently accepted frame and never a read waiting on
// bytes a corrupted length promised.
func TestReadFrameRejectsCorruption(t *testing.T) {
	good := frame(t, 3, []byte("payload bytes"))
	for i := 2; i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			b := append([]byte(nil), good...)
			b[i] ^= 1 << bit
			_, _, err := testProto.ReadFrame(bytes.NewReader(b), nil)
			if err == nil {
				t.Fatalf("byte %d bit %d flipped: frame accepted", i, bit)
			}
			if !isWireErr(err) {
				t.Fatalf("byte %d bit %d flipped: got %v, want a framing error", i, bit, err)
			}
		}
	}
	b := append([]byte(nil), good...)
	b[0] = 'X'
	if _, _, err := testProto.ReadFrame(bytes.NewReader(b), nil); !isWireErr(err) {
		t.Fatalf("bad magic: got %v, want a framing error", err)
	}
}

// errSink keeps a measured error on the heap, as a returned one is.
var errSink error

// TestReadFrameRejectsOversizedBeforeAllocation: a header declaring a
// payload past MaxPayload is refused from the header alone — before the
// body is allocated or read — so a corrupt length field cannot make the
// reader allocate gigabytes or block waiting for them.
func TestReadFrameRejectsOversizedBeforeAllocation(t *testing.T) {
	hdr := make([]byte, headerLen)
	hdr[0], hdr[1], hdr[2] = testProto.Magic0, testProto.Magic1, 1
	for _, n := range []uint32{uint32(testProto.MaxPayload) + 1, math.MaxUint32} {
		binary.LittleEndian.PutUint32(hdr[3:], n)
		binary.LittleEndian.PutUint32(hdr[7:], crc32.ChecksumIEEE(hdr[2:7]))
		r := bytes.NewReader(append(append([]byte(nil), hdr...), 1, 2, 3))
		var err error
		// Averaged over 20 runs: under the race detector, allocations
		// from other goroutines land in a single run's count.
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(append(append([]byte(nil), hdr...), 1, 2, 3))
			_, _, err = testProto.ReadFrame(r, nil)
		})
		if !isWireErr(err) {
			t.Fatalf("length %d: got %v, want a framing error", n, err)
		}
		if r.Len() != 3 {
			t.Fatalf("length %d: reader consumed %d body bytes", n, 3-r.Len())
		}
		if allocs > 8 {
			t.Fatalf("length %d: %v allocations rejecting the header", n, allocs)
		}

		// Through a reused buffer the rejection allocates nothing but
		// the error itself, and the buffer keeps its size.
		var buf Buf
		buf.frameBytes(headerLen + 5)
		before := cap(buf.b)
		errAllocs := testing.AllocsPerRun(20, func() {
			errSink = testProto.Errf("payload length %d exceeds max %d", n, testProto.MaxPayload)
		})
		in := append(append([]byte(nil), hdr...), 1, 2, 3)
		allocs = testing.AllocsPerRun(20, func() {
			r.Reset(in)
			_, _, err = testProto.ReadFrame(r, &buf)
		})
		if !isWireErr(err) || r.Len() != 3 {
			t.Fatalf("length %d, reused buffer: got %v with %d body bytes left, want a framing error and 3", n, err, r.Len())
		}
		if allocs > errAllocs {
			t.Fatalf("length %d, reused buffer: %v allocations rejecting the header, the error alone makes %v", n, allocs, errAllocs)
		}
		if cap(buf.b) != before {
			t.Fatalf("length %d: reused buffer grew from %d to %d bytes", n, before, cap(buf.b))
		}
	}
	var big Buf
	if _, err := testProto.Payload(&big, testProto.MaxPayload+1); !isWireErr(err) || cap(big.b) != 0 {
		t.Fatalf("oversized payload: err %v, buffer grew to %d bytes", err, cap(big.b))
	}
	var buf bytes.Buffer
	if err := testProto.WriteFrame(&buf, nil, 1, make([]byte, testProto.MaxPayload+1)); !isWireErr(err) || buf.Len() != 0 {
		t.Fatalf("oversized write: err %v, %d bytes written", err, buf.Len())
	}
}

// TestReadFrameRejectsCorruptLengthFromHeader: every single-byte
// corruption of the length field — each of the four bytes XORed with
// every nonzero pattern — is refused from the header alone: a framing
// error with the reader left exactly at the end of the header. A
// corrupted length must never send the reader after a body the sender
// never wrote (on a live connection that read blocks until a timeout).
func TestReadFrameRejectsCorruptLengthFromHeader(t *testing.T) {
	good := frame(t, 4, []byte("ack"))
	for i := 3; i < 7; i++ {
		for x := 1; x < 256; x++ {
			b := append([]byte(nil), good...)
			b[i] ^= byte(x)
			r := bytes.NewReader(b)
			_, _, err := testProto.ReadFrame(r, nil)
			if !isWireErr(err) {
				t.Fatalf("length byte %d ^ %#02x: got %v, want a framing error", i, x, err)
			}
			if read := len(b) - r.Len(); read != headerLen {
				t.Fatalf("length byte %d ^ %#02x: read %d bytes, want the %d-byte header only", i, x, read, headerLen)
			}
		}
	}
}

// TestReadFrameTruncated: a frame cut at any point is a transport
// failure passed through verbatim (io.EOF before the first byte,
// io.ErrUnexpectedEOF inside the frame), not a framing error — so the
// protocol layers treat it as a dead connection and resume.
func TestReadFrameTruncated(t *testing.T) {
	good := frame(t, 5, []byte("truncate me"))
	for cut := 0; cut < len(good); cut++ {
		_, _, err := testProto.ReadFrame(bytes.NewReader(good[:cut]), nil)
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if err != want {
			t.Fatalf("cut at %d: got %v, want %v", cut, err, want)
		}
	}
}

// TestCodecRoundTrip pins the payload codec: every Enc getter's value
// comes back bit-exactly from the matching Dec getter, floats as
// IEEE-754 bit patterns (NaN payloads and signed zeros included).
func TestCodecRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1.25, math.Pi, math.Inf(-1), math.Float64frombits(0x7ff8000000000123)}
	var e Enc
	e.U8(0xfe)
	e.U32(0xdeadbeef)
	e.U64(1<<63 | 5)
	e.I64(-42)
	e.F64(-3e-9)
	e.Str("edgedetect")
	e.Floats(floats)
	e.Floats(nil)
	d := NewDec(e.B)
	if v := d.U8(); v != 0xfe {
		t.Fatalf("U8 %x", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 %x", v)
	}
	if v := d.U64(); v != 1<<63|5 {
		t.Fatalf("U64 %x", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 %d", v)
	}
	if v := d.F64(); v != -3e-9 {
		t.Fatalf("F64 %v", v)
	}
	if v := d.Str(); v != "edgedetect" {
		t.Fatalf("Str %q", v)
	}
	got := d.Floats()
	if len(got) != len(floats) {
		t.Fatalf("Floats len %d, want %d", len(got), len(floats))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("Floats[%d] bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(floats[i]))
		}
	}
	if v := d.Floats(); len(v) != 0 {
		t.Fatalf("empty Floats decoded %d values", len(v))
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecRejectsShortAndTrailing: a payload shorter than its codec
// latches a framing error (and a length prefix past the remaining
// bytes allocates nothing), and bytes left over after a full decode
// are reported by Done.
func TestDecRejectsShortAndTrailing(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	d.U32()
	if d.Err() == nil || !isWireErr(d.Err()) {
		t.Fatalf("short U32: err %v", d.Err())
	}
	d.U8() // latched: later getters fail too, without consuming
	if len(d.B) != 3 || d.Done() == nil {
		t.Fatal("latched decoder kept consuming or Done passed")
	}

	var e Enc
	e.U32(math.MaxUint32) // Floats count far past the payload
	d = NewDec(e.B)
	if v := d.Floats(); v != nil || !isWireErr(d.Err()) {
		t.Fatalf("oversized Floats count: %d values, err %v", len(v), d.Err())
	}
	e = Enc{}
	e.U32(10) // Str length past the payload
	e.B = append(e.B, "short"...)
	d = NewDec(e.B)
	if v := d.Str(); v != "" || !isWireErr(d.Err()) {
		t.Fatalf("oversized Str length: %q, err %v", v, d.Err())
	}

	d = NewDec([]byte{9, 8})
	d.U8()
	if err := d.Done(); !isWireErr(err) {
		t.Fatalf("trailing byte: Done = %v, want a framing error", err)
	}
}

// writeFrameRef is the copying frame writer wire shipped before frames
// were sealed in place: a fresh buffer per frame, the payload copied
// in. Send must reproduce its bytes exactly.
func writeFrameRef(p Proto, typ byte, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload)+trailerLen)
	buf[0], buf[1], buf[2] = p.Magic0, p.Magic1, typ
	binary.LittleEndian.PutUint32(buf[3:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[7:], crc32.ChecksumIEEE(buf[2:7]))
	copy(buf[headerLen:], payload)
	crc := crc32.ChecksumIEEE(buf[2:7])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(buf[headerLen+len(payload):], crc)
	return buf
}

// TestSendMatchesReference: frames encoded in place in one reused
// buffer — growing, shrinking, and after it has received frames — are
// byte-identical to the copying reference writer, go out in a single
// Write, and read back through the same buffer intact.
func TestSendMatchesReference(t *testing.T) {
	var buf Buf
	for i, n := range []int{64, 0, 1, 17, 64, 3, 0} {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(31*i + 7*j + 1)
		}
		dst, err := testProto.Payload(&buf, n)
		if err != nil {
			t.Fatal(err)
		}
		copy(dst, payload)
		w := &countWriter{}
		if err := testProto.Send(w, &buf, byte(i)); err != nil {
			t.Fatal(err)
		}
		if want := writeFrameRef(testProto, byte(i), payload); !bytes.Equal(w.b.Bytes(), want) {
			t.Fatalf("frame %d (%d-byte payload): % x, want % x", i, n, w.b.Bytes(), want)
		}
		if w.writes != 1 {
			t.Fatalf("frame %d went out in %d writes, want 1", i, w.writes)
		}
		if fresh := frame(t, byte(i), payload); !bytes.Equal(fresh, w.b.Bytes()) {
			t.Fatalf("frame %d: WriteFrame differs from Send", i)
		}
		typ, got, err := testProto.ReadFrame(bytes.NewReader(w.b.Bytes()), &buf)
		if err != nil || typ != byte(i) || !bytes.Equal(got, payload) {
			t.Fatalf("frame %d read back as type %d payload %x, err %v", i, typ, got, err)
		}
	}
}

type countWriter struct {
	b      bytes.Buffer
	writes int
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.b.Write(p)
}

// TestReadFrameReusesBuffer: at steady state a reused buffer receives and
// sends frames without allocating.
func TestReadFrameReusesBuffer(t *testing.T) {
	in := frame(t, 2, bytes.Repeat([]byte{7}, 48))
	r := bytes.NewReader(in)
	var buf Buf
	var sink countWriter
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(in)
		_, p, err := testProto.ReadFrame(r, &buf)
		if err != nil || len(p) != 48 {
			t.Fatalf("read: %d bytes, err %v", len(p), err)
		}
		if _, err := testProto.Payload(&buf, 48); err != nil {
			t.Fatal(err)
		}
		sink.b.Reset()
		if err := testProto.Send(&sink, &buf, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per reused-buffer read+write", allocs)
	}
}
