package obs

// GateMetrics instruments the reader gateway (internal/gate).
// ClassRuntime throughout, in the gateway's own Registry: these observe
// transport and scheduling (connection counts, throttle time, wire
// bytes) and never influence a decoded bit, so each reader session's
// decode-class stats identity matches a local decode of the same
// capture.
type GateMetrics struct {
	// Readers counts reader sessions admitted (one per distinct
	// (reader, capture nonce) pair, however many reconnects serve it).
	Readers *Counter
	// Frames counts decoded frames published to sinks, across all
	// readers and sinks-fanout counts once per frame.
	Frames *Counter
	// BackpressureNs totals time ingest spent blocked in the
	// RetainedBytes admission gate, across all sessions. Nonzero means
	// slow readers were flow-controlled instead of buffering without
	// bound.
	BackpressureNs *Counter
	// Bytes totals wire traffic in both directions across all reader
	// connections, as counted under the fault injectors (what the
	// network actually carried, not what the codec produced).
	Bytes *Counter
	// SinkErrors counts frame publishes a sink rejected (logged and
	// dropped by that sink only — ingest is never failed by a sink).
	SinkErrors *Counter
	// Connected is the high-water count of concurrently connected
	// reader connections.
	Connected *Gauge
	// RetainedPeak is the high-water per-session RetainedBytes observed
	// at admission — the value the backpressure bound is enforced (and
	// tested) against.
	RetainedPeak *Gauge
}

// NewGateMetrics registers the gate.* metric set in r.
func NewGateMetrics(r *Registry) GateMetrics {
	return GateMetrics{
		Readers:        r.Counter("gate.readers", ClassRuntime),
		Frames:         r.Counter("gate.frames", ClassRuntime),
		BackpressureNs: r.Counter("gate.backpressure_ns", ClassRuntime),
		Bytes:          r.Counter("gate.bytes", ClassRuntime),
		SinkErrors:     r.Counter("gate.sink_errors", ClassRuntime),
		Connected:      r.Gauge("gate.connected", ClassRuntime),
		RetainedPeak:   r.Gauge("gate.retained_peak", ClassRuntime),
	}
}
