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
	if err := testProto.WriteFrame(&buf, typ, payload); err != nil {
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
		typ, got, err := testProto.ReadFrame(r)
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
			_, _, err := testProto.ReadFrame(bytes.NewReader(b))
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
	if _, _, err := testProto.ReadFrame(bytes.NewReader(b)); !isWireErr(err) {
		t.Fatalf("bad magic: got %v, want a framing error", err)
	}
}

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
			_, _, err = testProto.ReadFrame(r)
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
	}
	var buf bytes.Buffer
	if err := testProto.WriteFrame(&buf, 1, make([]byte, testProto.MaxPayload+1)); !isWireErr(err) || buf.Len() != 0 {
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
			_, _, err := testProto.ReadFrame(r)
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
		_, _, err := testProto.ReadFrame(bytes.NewReader(good[:cut]))
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
