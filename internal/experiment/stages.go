package experiment

import (
	"fmt"
	"time"

	"lf"
	"lf/internal/stats"
)

// Stages profiles the default serial streaming decode: one
// instrumented decode broken down into per-stage wall time, per-item
// latency, and share of the decode's wall time. Detect (edge
// detection) and walk (registration, walking, commit) partition each
// Push; commit is a subset of walk, and cancel (the SIC rounds) a
// subset of flush.
func Stages(cfg Config) (*Result, error) {
	tags := 8
	if cfg.Quick {
		tags = 4
	}
	net, err := lf.NewNetwork(lf.NetworkConfig{
		NumTags:        tags,
		PayloadSeconds: 2e-3,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ep, err := net.RunEpoch()
	if err != nil {
		return nil, err
	}
	dcfg := net.DecoderConfig()
	dcfg.Parallelism = cfg.Workers
	dcfg.CalibSamples = streamCalibSamples
	dec, err := lf.NewDecoder(dcfg)
	if err != nil {
		return nil, err
	}
	sd, err := dec.NewStream()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := ep.Blocks(streamBlock, sd.Push); err != nil {
		return nil, err
	}
	if _, err := sd.Flush(); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	snap := sd.Stats()

	table := &stats.Table{
		Title: fmt.Sprintf("Streaming decode stage breakdown — %d tags, block %d, wall %.2f ms",
			tags, streamBlock, wall.Seconds()*1e3),
		Header: []string{"stage", "items", "total ms", "mean µs", "share"},
	}
	series := []stats.Series{{Label: "share %"}}
	for i, row := range []struct{ label, timing string }{
		{"push", "stage.push_ns"},
		{"detect", "stage.detect_ns"},
		{"walk", "stage.walk_ns"},
		{"commit", "stage.commit_ns"},
		{"cancel", "stage.cancel_ns"},
		{"flush", "stage.flush_ns"},
	} {
		t := snap.Timings[row.timing]
		mean := 0.0
		if t.Count > 0 {
			mean = float64(t.TotalNs) / float64(t.Count) / 1e3
		}
		share := float64(t.TotalNs) / float64(wall.Nanoseconds()) * 100
		table.AddRow(row.label, fmt.Sprint(t.Count),
			fmt.Sprintf("%.2f", float64(t.TotalNs)/1e6),
			fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.0f%%", share))
		series[0].Add(float64(i), share)
	}
	return &Result{Table: table, Series: series}, nil
}
