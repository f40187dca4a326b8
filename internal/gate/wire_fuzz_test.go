package gate

import (
	"bytes"
	"errors"
	"testing"

	"lf/internal/pool"
	"lf/internal/wire"
)

// FuzzGateFrame throws arbitrary bytes at the gateway frame reader
// and, when they parse, at the message codecs. The invariants: no
// panic, no out-of-bounds read, no huge allocation (maxFramePayload
// bounds the frame, and decodeChunk validates the sample count against
// the actual payload length before allocating), and every frame the
// writer produces round-trips through the reader byte-exactly —
// including after the fuzzer mutates seed corpora into near-valid
// frames where only the CRC distinguishes them. Every input is read
// twice, fresh and through a reused buffer that last held a longer
// frame: both reads must agree on type, payload and error class, so no
// stale byte of an earlier frame can leak into a later one.
func FuzzGateFrame(f *testing.F) {
	// Seed with valid frames of every message type.
	hello := &wireHello{Version: protoVersion, Name: "fuzz", Nonce: 7, Rate: 2.4e6}
	welcome := &wireWelcome{Version: protoVersion, Have: 8192, State: stateActive, Frames: 3}
	failed := &wireWelcome{Version: protoVersion, State: stateFailed, Msg: "decode failed"}
	chunk := appendChunkRef(4096, []complex128{1 + 2i, 3 - 4i, complex(0.5, -0.25)})
	ack := &wireAck{Have: 8192}
	end := &wireEnd{Total: 16384}
	done := &wireDone{Frames: 12}
	em := &wireErrMsg{Msg: "gate: boom"}
	for _, m := range []struct {
		typ byte
		p   []byte
	}{
		{msgHello, hello.encode()},
		{msgWelcome, welcome.encode()},
		{msgWelcome, failed.encode()},
		{msgChunk, chunk},
		{msgAck, ack.encode()},
		{msgEnd, end.encode()},
		{msgDone, done.encode()},
		{msgErr, em.encode()},
	} {
		var buf bytes.Buffer
		if err := proto.WriteFrame(&buf, nil, m.typ, m.p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// An oversized length prefix must be rejected before any allocation.
	f.Add([]byte{gateMagic0, gateMagic1, msgChunk, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := proto.ReadFrame(bytes.NewReader(data), nil)

		// The same input through a reused buffer holding a longer frame.
		var reused wire.Buf
		var longer bytes.Buffer
		if werr := proto.WriteFrame(&longer, nil, msgErr, bytes.Repeat([]byte{0xa5}, len(data)+1)); werr != nil {
			t.Fatal(werr)
		}
		if _, _, rerr := proto.ReadFrame(&longer, &reused); rerr != nil {
			t.Fatal(rerr)
		}
		rtyp, rpayload, rerr := proto.ReadFrame(bytes.NewReader(data), &reused)
		if errClass(rerr) != errClass(err) {
			t.Fatalf("reused-buffer read error %v, fresh read %v", rerr, err)
		}
		if err != nil {
			return
		}
		if rtyp != typ || !bytes.Equal(rpayload, payload) {
			t.Fatal("reused-buffer read returned a different frame")
		}

		// A frame that passed magic + CRC must re-encode to the same
		// bytes it was read from (the reader consumed exactly one frame).
		var buf bytes.Buffer
		if werr := proto.WriteFrame(&buf, nil, typ, payload); werr != nil {
			t.Fatalf("reread failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("frame did not round-trip byte-exactly")
		}
		// Message codecs must never panic on CRC-valid payloads; errors
		// are fine (that is the drop-connection path). decodeChunk in
		// particular must reject a sample count that disagrees with the
		// payload length without reading out of bounds or allocating
		// the claimed size.
		switch typ {
		case msgHello:
			decodeHello(payload)
		case msgWelcome:
			decodeWelcome(payload)
		case msgChunk:
			if c, err := decodeChunk(payload); err == nil {
				// A decodable chunk's samples are fully backed by
				// payload bytes; re-encoding, in place or by the
				// append-based reference, must reproduce them.
				var out bytes.Buffer
				if err := writeChunk(&out, &reused, c.Base, c.Samples); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), buf.Bytes()) || !bytes.Equal(appendChunkRef(c.Base, c.Samples), payload) {
					t.Fatal("chunk did not round-trip")
				}
				pool.PutComplex(c.Samples)
			}
		case msgAck:
			decodeAck(payload)
		case msgEnd:
			decodeEnd(payload)
		case msgDone:
			decodeDone(payload)
		case msgErr:
			decodeErrMsg(payload)
		}
	})
}

// errClass sorts a frame read's outcome the way the protocol layers
// act on it: success, a framing violation (*wire.Error), or a
// transport failure, which must match exactly.
func errClass(err error) any {
	var we *wire.Error
	if errors.As(err, &we) {
		return "wire"
	}
	return err
}
