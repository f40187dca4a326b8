package iq

// Capture serialization: a small binary container so captures can be
// recorded once (from the simulator here, or from an SDR front end in
// a deployment) and replayed through the decoder offline. The format
// is deliberately dumb and stable:
//
//	magic   "LFIQ" (4 bytes)
//	version uint32 (little endian)
//	rate    float64 bits (little endian)
//	start   float64 bits (little endian)
//	count   uint64
//	samples count × (real float64, imag float64), little endian
//
// Everything after the header streams sequentially, so arbitrarily
// long captures read and write in O(1) memory per sample.

import (
	"bufio"
	"encoding/binary"
	"io"

	"lf/internal/pool"
)

// fileMagic identifies a capture container.
var fileMagic = [4]byte{'L', 'F', 'I', 'Q'}

// fileVersion is the current container version.
const fileVersion = 1

// maxReasonableSamples guards against corrupt headers allocating
// absurd buffers (16 GiB of samples ≈ 11 minutes at 25 Msps).
const maxReasonableSamples = 1 << 30

// ioChunkSamples is the number of samples marshalled per pooled IO
// block (64 KiB of wire bytes). Batching keeps the per-sample cost at
// a couple of stores instead of a reflective binary.Write round-trip.
const ioChunkSamples = 4096

// WriteTo serializes the capture. It returns the number of bytes
// written.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	// Structural check only: non-finite samples are recordable on
	// purpose, so faulted captures replay through the same graceful
	// degradation as a live decode (see Capture.ValidateStructure).
	if err := c.ValidateStructure(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(fileMagic); err != nil {
		return n, err
	}
	if err := write(uint32(fileVersion)); err != nil {
		return n, err
	}
	if err := write(c.SampleRate); err != nil {
		return n, err
	}
	if err := write(c.Start); err != nil {
		return n, err
	}
	if err := write(uint64(len(c.Samples))); err != nil {
		return n, err
	}
	// Samples stream out in pooled fixed-size blocks: marshal a chunk
	// with the shared sample codec, write it, recycle the buffer.
	buf := pool.Bytes(SampleBytes * ioChunkSamples)
	defer pool.PutBytes(buf)
	for lo := 0; lo < len(c.Samples); lo += ioChunkSamples {
		hi := lo + ioChunkSamples
		if hi > len(c.Samples) {
			hi = len(c.Samples)
		}
		b := buf[:SampleBytes*(hi-lo)]
		PutSamples(b, c.Samples[lo:hi])
		wrote, err := bw.Write(b)
		n += int64(wrote)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadCapture deserializes a capture written by WriteTo, materializing
// the whole sample array. For bounded-memory replay of long captures,
// use BlockReader directly and feed the blocks to a streaming decoder.
func ReadCapture(r io.Reader) (*Capture, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	c := &Capture{
		SampleRate: br.SampleRate(),
		Start:      br.Start(),
		Samples:    make([]complex128, br.Len()),
	}
	if _, err := br.Read(c.Samples); err != nil {
		return nil, err
	}
	if err := c.ValidateStructure(); err != nil {
		return nil, err
	}
	return c, nil
}
