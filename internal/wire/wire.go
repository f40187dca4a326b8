// Package wire is the length-prefixed, CRC-guarded framing of the
// reader-gateway ingest protocol (internal/gate). Every frame has the
// shape
//
//	magic(2) | type(1) | payloadLen(4, LE) | hdrCRC(4, LE) | payload | crc32(4, LE)
//
// and a Proto pins the magic bytes and payload cap; the message codecs
// live with the protocol. Both CRCs are IEEE. The header CRC covers
// type and length, so a corrupted length is caught from the header
// alone — before the reader trusts it and blocks waiting for a body
// that will never come. The trailing CRC covers type, length, and
// payload, so a flipped bit anywhere in the frame is detected before
// any field is trusted. Payload integers are little-endian; float64s
// travel as IEEE-754 bit patterns (math.Float64bits), so shipped
// samples are bit-exact across hosts.
//
// There is one framing implementation, over a caller-kept Buf reused
// across frames: Payload+Send encode a frame's payload in place and
// seal it with no copy or allocation, WriteFrame copies a ready-made
// payload in first, and ReadFrame reads a frame into the buffer (its
// payload valid until the buffer's next use). A nil Buf stands for a
// fresh one.
//
// Framing violations (bad magic, CRC mismatch, oversized payload,
// trailing bytes) surface as *wire.Error so protocol layers can treat
// them like a dead connection — recoverable by reconnect/retry, never
// fatal — while transport failures (io.EOF, timeouts) pass through
// verbatim; a frame cut short after its first byte reads as
// io.ErrUnexpectedEOF.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Proto pins one protocol's framing parameters: the magic pair that
// distinguishes its frames on the wire, the payload cap that keeps a
// corrupt length field from allocating gigabytes, and the name used in
// error messages.
type Proto struct {
	// Name prefixes framing errors (e.g. "gate").
	Name string
	// Magic0, Magic1 open every frame.
	Magic0, Magic1 byte
	// MaxPayload bounds a frame's declared payload length.
	MaxPayload int
}

const (
	headerLen  = 2 + 1 + 4 + 4
	trailerLen = 4
)

// Error is any framing-level failure: bad magic, CRC mismatch,
// oversized payload, truncated or trailing payload bytes.
type Error struct {
	proto string
	msg   string
}

func (e *Error) Error() string { return e.proto + ": wire: " + e.msg }

// Errf builds a framing error tagged with the protocol's name.
func (p Proto) Errf(format string, args ...any) error {
	return &Error{proto: p.Name, msg: fmt.Sprintf(format, args...)}
}

// Buf is a frame buffer reused across frames, in either direction: a
// writer encodes each outgoing payload in place inside it (Payload,
// then Send), a reader receives each frame's body into it
// (ReadFrame). It grows to the largest frame it has held and never
// shrinks, so a connection streaming same-sized frames allocates once.
// The zero value is ready to use; a Buf is not safe for concurrent
// use.
type Buf struct{ b []byte }

// frameBytes returns the buffer resliced to n bytes, growing it first
// if its capacity is short. Contents are unspecified: every caller
// overwrites the bytes it uses.
func (f *Buf) frameBytes(n int) []byte {
	if cap(f.b) < n {
		f.b = make([]byte, n)
	}
	f.b = f.b[:n]
	return f.b
}

// Payload readies buf for one outgoing frame carrying an n-byte payload
// and returns that payload's bytes, in place inside the frame, for the
// caller to encode into; Send then frames and writes them. MaxPayload
// is checked before the buffer grows.
func (p Proto) Payload(buf *Buf, n int) ([]byte, error) {
	if n > p.MaxPayload {
		return nil, p.Errf("payload %d exceeds max %d", n, p.MaxPayload)
	}
	return buf.frameBytes(headerLen + n + trailerLen)[headerLen : headerLen+n], nil
}

// Send frames the payload readied by the last Payload call on buf —
// header, header CRC and trailing CRC written around it — and sends the
// frame with one Write. Nothing is copied or allocated.
func (p Proto) Send(w io.Writer, buf *Buf, typ byte) error {
	b := buf.b
	n := len(b) - headerLen - trailerLen
	b[0], b[1], b[2] = p.Magic0, p.Magic1, typ
	binary.LittleEndian.PutUint32(b[3:], uint32(n))
	hcrc := crc32.ChecksumIEEE(b[2:7])
	binary.LittleEndian.PutUint32(b[7:], hcrc)
	crc := crc32.Update(hcrc, crc32.IEEETable, b[headerLen:headerLen+n])
	binary.LittleEndian.PutUint32(b[headerLen+n:], crc)
	_, err := w.Write(b)
	return err
}

// ReadFrame reads and verifies one frame into buf (nil: a fresh
// buffer), returning its type and payload. The payload aliases buf: it
// is valid only until buf's next use. Errors distinguish transport
// failures (returned verbatim, e.g. io.EOF, timeouts) from framing
// violations (*wire.Error); a header declaring more than MaxPayload is
// refused before buf grows or any body byte is read.
func (p Proto) ReadFrame(r io.Reader, buf *Buf) (byte, []byte, error) {
	if buf == nil {
		buf = new(Buf)
	}
	hdr := buf.frameBytes(headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if hdr[0] != p.Magic0 || hdr[1] != p.Magic1 {
		return 0, nil, p.Errf("bad magic %02x%02x", hdr[0], hdr[1])
	}
	typ := hdr[2]
	hcrc := crc32.ChecksumIEEE(hdr[2:7])
	if binary.LittleEndian.Uint32(hdr[7:]) != hcrc {
		return 0, nil, p.Errf("header crc mismatch")
	}
	n := binary.LittleEndian.Uint32(hdr[3:])
	if int64(n) > int64(p.MaxPayload) {
		return 0, nil, p.Errf("payload length %d exceeds max %d", n, p.MaxPayload)
	}
	body := buf.frameBytes(headerLen + int(n) + trailerLen)[headerLen:]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		return 0, nil, err
	}
	crc := crc32.Update(hcrc, crc32.IEEETable, body[:n])
	if got := binary.LittleEndian.Uint32(body[n:]); got != crc {
		return 0, nil, p.Errf("crc mismatch on type %d frame", typ)
	}
	return typ, body[:n:n], nil
}

// WriteFrame sends one frame carrying payload through buf (nil: a
// fresh buffer). The payload is copied into the frame, not retained,
// and must not alias buf.
func (p Proto) WriteFrame(w io.Writer, buf *Buf, typ byte, payload []byte) error {
	if buf == nil {
		buf = new(Buf)
	}
	dst, err := p.Payload(buf, len(payload))
	if err != nil {
		return err
	}
	copy(dst, payload)
	return p.Send(w, buf, typ)
}

// Enc is a little append-based payload encoder.
type Enc struct{ B []byte }

func (e *Enc) U8(v byte)     { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}
func (e *Enc) Floats(v []float64) {
	e.U32(uint32(len(v)))
	for _, f := range v {
		e.F64(f)
	}
}

// Dec is the matching consuming decoder; every getter fails softly by
// latching the error, so codecs can decode a whole struct and check
// once with Done.
type Dec struct {
	B   []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) Dec { return Dec{B: b} }

// Err returns the latched decode failure, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = &Error{proto: "wire", msg: "truncated payload"}
	}
}

func (d *Dec) U8() byte {
	if d.err != nil || len(d.B) < 1 {
		d.fail()
		return 0
	}
	v := d.B[0]
	d.B = d.B[1:]
	return v
}

func (d *Dec) U32() uint32 {
	if d.err != nil || len(d.B) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B)
	d.B = d.B[4:]
	return v
}

func (d *Dec) U64() uint64 {
	if d.err != nil || len(d.B) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B)
	d.B = d.B[8:]
	return v
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Str() string {
	n := d.U32()
	if d.err != nil || uint32(len(d.B)) < n {
		d.fail()
		return ""
	}
	s := string(d.B[:n])
	d.B = d.B[n:]
	return s
}

func (d *Dec) Floats() []float64 {
	n := d.U32()
	if d.err != nil || uint64(len(d.B)) < uint64(n)*8 {
		d.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Done reports the latched error, or complains about trailing payload
// bytes — a codec must consume its frame exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.B) != 0 {
		return &Error{proto: "wire", msg: fmt.Sprintf("%d trailing payload bytes", len(d.B))}
	}
	return nil
}
